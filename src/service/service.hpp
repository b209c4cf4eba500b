// Sharded KV service front-end with batched ingest.
//
// A ShardServer owns N shard workers, each with its own GroupHashMap and
// its own bounded MPSC ingest ring (a hermetic in-process transport —
// the shared-memory-ring shape of a PM key-value postoffice, CI-testable
// without sockets). Client threads submit request *batches*: execute()
// groups the batch's keys by shard (same seeded routing hash as the
// concurrent wrappers), pushes one work item per touched shard, and
// waits until every shard visit finished.
//
// Hand-off: both sides spin before they sleep. After a visit a worker
// polls its ring for kSpinBudget (20 µs), then marks its 32-bit doorbell
// word parked, re-checks the ring and futex-sleeps on that word;
// push_item wakes it only when it sees the mark. A client spins on its
// batch's pending_ counter for the same budget, then sets a parked bit in
// that word and futex-sleeps; the worker that completes the batch wakes
// it only when the bit is set. The budget follows the two-phase-waiting
// rule: spin for about what a park-and-wake costs (service.cpp has the
// figures), so a waiter never burns more than twice the cost of the
// optimal choice. Spinning is gated: a thread spins only while the
// server's shard workers plus its clients inside execute() fit the
// process's CPU affinity mask. An oversubscribed server skips the spin —
// a spinner there would hold the CPU the thread it waits for needs —
// and only yields a few times before it parks.
//
// The batching window is the worker's drain loop: each visit pops up to
// `batch_window` work items — possibly from many client batches — and
// executes ONE find_batch, ONE put_batch and ONE erase_batch against the
// shard map for the whole visit. That is where the PR 6 fast path pays
// off: the map-level batches prefetch tag lines across requests and
// coalesce persistence fences across the put window, so a visit costs a
// handful of fences instead of one per request. `naive = true` disables
// the grouping (one scalar map call per request) and exists purely as
// the baseline the batched path is measured against.
//
// Ordering semantics: within one client batch, requests that land on the
// same shard are executed grouped by kind — all gets, then all puts,
// then all erases — and in caller order within each kind (puts to the
// same key are last-wins, matching the map's batch contract). A batch is
// not an atomic transaction across shards.
//
// Failure semantics (the PR 3 degradation contract, lifted to the
// service):
//   * MapDegradedError from a put window → those puts answer kDegraded;
//     the shard STAYS UP (reads unaffected, the map retries its rebuild
//     with backoff), and a prefix of the window may have landed — the
//     client must treat kDegraded as "retry later", i.e. at-least-once.
//   * SimulatedCrash (fault-injected power failure) from any map call →
//     the worker marks its shard dead, abandon()s the map (dropping the
//     mappings exactly as a crash would), and answers kShardDown — for
//     the rest of that visit and for every later request routed to the
//     shard. The ingest ring keeps draining, so a dead shard never
//     wedges clients, and the shard's file reopens through the normal
//     recovery + flight-forensics path. A dead shard is not permanent:
//     restart_shard() reopens the map (recovery — including resuming an
//     interrupted online migration — runs on the caller's thread) and
//     the worker installs it between visits, after which the shard
//     serves again.
//
// Online resize: with map_options.online_resize set, a shard mid-resize
// keeps serving — writers help migrate a bounded number of groups per
// call, and the worker drains the tail from its idle loop (one
// migrate_step() burst per empty ring poll), so the resize finishes even
// on a read-only or idle shard without ever blocking a visit.
//
// Observability: execute() records end-to-end batch latency per request
// into a service-level obs::OpRecorder (get→kFind, put→kInsert,
// erase→kErase), and snapshot() rolls the per-shard map snapshots into
// one obs::Snapshot via absorb() — the same aggregation the concurrent
// wrappers use, so percentiles are computed from the union of samples.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/group_hash_map.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "util/types.hpp"

namespace gh::service {

enum class Op : u8 {
  kGet = 0,
  kPut = 1,
  kErase = 2,
};

enum class Status : u8 {
  kPending = 0,    ///< not yet executed (the in-flight placeholder)
  kOk = 1,         ///< get hit / put applied / erase removed a mapping
  kNotFound = 2,   ///< get or erase missed
  kDegraded = 3,   ///< put rejected by a degraded shard (retry later)
  kShardDown = 4,  ///< the shard's worker died (crash-injected)
};

[[nodiscard]] const char* to_string(Status s);

struct Request {
  Op op = Op::kGet;
  u64 key = 0;
  u64 value = 0;  ///< kPut payload; ignored otherwise
};

struct Response {
  Status status = Status::kPending;
  u64 value = 0;  ///< get-hit payload; 0 otherwise
};

class ShardServer;

/// One client batch. The caller fills `requests`, hands the batch to
/// ShardServer::execute(), and reads `responses()` when it returns; the
/// routing scratch (order/offsets) is reused across rounds so a steady
/// client allocates nothing after the first call. A Batch must stay
/// alive and untouched while in flight (execute() blocks, so normal use
/// is a stack or per-thread object).
class Batch {
 public:
  std::vector<Request> requests;

  [[nodiscard]] std::span<const Response> responses() const {
    return {responses_.data(), responses_.size()};
  }

  void clear() { requests.clear(); }

 private:
  friend class ShardServer;

  std::vector<Response> responses_;
  std::vector<u32> order_;    ///< request indices grouped by shard
  std::vector<u32> offsets_;  ///< shards+1 fence posts into order_
  /// Work items still in flight, plus kClientParked once the client
  /// sleeps on this word (a futex word: it must stay 32 bits).
  std::atomic<u32> pending_{0};
  /// Tick at which a shard finished its part (traced batches only,
  /// stamped before the completing decrement): lets the client attribute
  /// the wake-up as its own span, so a traced request's spans cover its
  /// whole end-to-end latency.
  std::atomic<u64> done_ticks_{0};
};

/// One unit of shard work: `count` request indices of `batch`, starting
/// at batch->order_[begin], all routed to the receiving shard.
/// `enqueue_ticks` is stamped at push so the worker can attribute the
/// MPSC ring wait; `trace_id`/`parent_span` carry the trace context of a
/// sampled batch through the ring (zero = untraced).
struct WorkItem {
  Batch* batch = nullptr;
  u32 begin = 0;
  u32 count = 0;
  u32 parent_span = 0;
  u64 trace_id = 0;
  u64 enqueue_ticks = 0;
};

/// Bounded multi-producer single-consumer ring (Vyukov sequence
/// discipline): producers claim a slot with one CAS on head_, the
/// consumer pops with plain loads/stores on tail_. try_push fails when
/// the ring is full — backpressure is the caller's spin, never an
/// unbounded queue.
class IngestRing {
 public:
  explicit IngestRing(u32 capacity) {
    u32 cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (u32 i = 0; i < cap; ++i) slots_[i].seq.store(i, std::memory_order_relaxed);
    mask_ = cap - 1;
  }

  [[nodiscard]] u32 capacity() const { return static_cast<u32>(mask_ + 1); }

  bool try_push(const WorkItem& w) {
    u64 pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const u64 seq = s.seq.load(std::memory_order_acquire);
      const i64 diff = static_cast<i64>(seq) - static_cast<i64>(pos);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          s.item = w;
          s.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single consumer only: true when try_pop would find nothing.
  [[nodiscard]] bool empty() const {
    const u64 pos = tail_.load(std::memory_order_relaxed);
    const u64 seq = slots_[pos & mask_].seq.load(std::memory_order_acquire);
    return static_cast<i64>(seq) - static_cast<i64>(pos + 1) < 0;
  }

  /// Single consumer only (the shard's worker thread).
  bool try_pop(WorkItem& out) {
    const u64 pos = tail_.load(std::memory_order_relaxed);
    Slot& s = slots_[pos & mask_];
    const u64 seq = s.seq.load(std::memory_order_acquire);
    if (static_cast<i64>(seq) - static_cast<i64>(pos + 1) < 0) return false;
    out = s.item;
    s.seq.store(pos + mask_ + 1, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

 private:
  struct Slot {
    std::atomic<u64> seq{0};
    WorkItem item;
  };

  std::unique_ptr<Slot[]> slots_;
  u64 mask_ = 0;
  alignas(kCachelineSize) std::atomic<u64> head_{0};
  alignas(kCachelineSize) std::atomic<u64> tail_{0};
};

struct ServiceOptions {
  u32 shards = 4;          ///< rounded up to a power of two
  u32 ring_capacity = 1024;  ///< work-item slots per shard ring
  u32 batch_window = 64;   ///< max work items drained per shard visit
  /// One scalar map call per request instead of one batched call per
  /// visit — the baseline the batched ingest path is measured against.
  bool naive = false;
  /// Non-empty → file-backed shard maps at <data_dir>/shard<i>.gh (the
  /// crash/forensics path); empty → in-memory shards.
  std::string data_dir;
  /// Request tracing: kOff (default), kSampled (1 in
  /// 2^trace_sample_shift batches) or kFull. A traced batch stamps its
  /// trace id on every work item; the worker adopts it around the shard
  /// visit so map ops emit spans into the per-thread span rings.
  obs::TraceMode trace_mode = obs::TraceMode::kOff;
  u32 trace_sample_shift = obs::kTraceSampleShift;
  MapOptions map_options;
};

class ShardServer {
 public:
  explicit ShardServer(const ServiceOptions& options);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Route, enqueue and wait for one client batch. Returns once every
  /// touched shard answered — after spinning for up to the hand-off
  /// budget, then asleep — and never touches `batch` again after that,
  /// so the caller may destroy it right away. Safe to call from many
  /// threads at once.
  void execute(Batch& batch);

  /// Stop accepting batches, drain the rings, join the workers.
  /// Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] u32 shards() const { return nshards_; }
  [[nodiscard]] bool shard_down(u32 shard) const;
  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }

  /// Revive a kShardDown shard. The replacement map is opened on the
  /// CALLER's thread (file-backed shards re-run recovery — and resume an
  /// interrupted migration — right here; in-memory shards come back
  /// empty, exactly the post-power-loss contract), handed to the worker
  /// through `pending_map`, and installed by the worker at its loop top,
  /// so the single-consumer ownership of the shard map never has two
  /// threads touching it. Blocks until the worker has swapped the map in
  /// and cleared `dead`. Returns false if the shard is not down, the
  /// reopen itself fails (the shard stays dead), or the server stops
  /// while waiting. Safe to call concurrently; calls are serialized.
  bool restart_shard(u32 shard);

  /// Same seeded routing hash as the concurrent wrappers, so a key's
  /// shard is stable across the service and the embedded maps.
  [[nodiscard]] static u32 shard_of(u64 key, u32 shards);

  /// Service-level end-to-end latency (batch round-trip attributed to
  /// each request: get→kFind, put→kInsert, erase→kErase). Safe to read
  /// while traffic is live.
  [[nodiscard]] const obs::OpRecorder& request_recorder() const { return recorder_; }
  void reset_request_stats() { recorder_.reset(); }

  /// Per-shard map snapshots rolled up with obs::Snapshot::absorb, plus
  /// the hand-off counters. Requires the server stopped (the shard maps
  /// are single-owner and quiescent only then); per_shard carries one
  /// brief per shard.
  [[nodiscard]] obs::Snapshot snapshot();

  /// Stats-poller view of a RUNNING server: only the pieces that are
  /// safe to read while workers serve traffic — the service-level
  /// latency recorder, the ring-wait + per-map phase accumulators, the
  /// per-map migration gauges and the hand-off counters. Map internals
  /// (size/capacity/persist counters…) are single-owner and stay zero
  /// here; use snapshot() after stop() for those. Must not run concurrently with
  /// restart_shard() (the map swap is unsynchronized with this read).
  [[nodiscard]] obs::Snapshot live_snapshot() const;

 private:
  struct SlotRef {
    Batch* batch;
    u32 req;
  };

  struct Shard {
    explicit Shard(u32 ring_capacity) : ring(ring_capacity) {}

    IngestRing ring;
    u32 index = 0;  ///< shard number (span/trace labels)
    /// Ring-wait attribution gate, worker-local. Samples items at the
    /// same 1-in-2^latency_sample_shift rate the maps sample their op
    /// latencies, so the ring_wait share in Snapshot.phases is
    /// comparable against the map-side probe/persist/fence shares
    /// (attributing every item's wait against 1/64-sampled op time
    /// would report ~100% ring_wait no matter the real balance).
    obs::SampleGate ring_gate;
    // Producer-facing line: push_item reads the doorbell on every push
    // and bumps `wakes` only to wake a sleeping worker.
    /// Futex word: kWorkerParked while the worker sleeps (or is about
    /// to), else 0.
    alignas(kCachelineSize) std::atomic<u32> doorbell{0};
    std::atomic<u64> wakes{0};  ///< doorbell wakes issued
    // Worker-written counters, read by the snapshots.
    alignas(kCachelineSize) std::atomic<u64> parks{0};
    std::atomic<u64> round_trips{0};  ///< batches this worker completed
    std::atomic<bool> dead{false};
    std::unique_ptr<GroupHashMap> map;
    std::thread worker;

    // Revival handoff (restart_shard): the caller parks the reopened map
    // in pending_map and raises revive; the worker installs it at loop
    // top and lowers the flag. revive's release/acquire pair publishes
    // the pending_map write to the worker.
    std::unique_ptr<GroupHashMap> pending_map;
    std::atomic<bool> revive{false};

    // Worker-local batching scratch, reused every visit.
    std::vector<WorkItem> visit;
    std::vector<u64> get_keys;
    std::vector<std::optional<u64>> get_out;
    std::vector<SlotRef> get_slots;
    std::vector<u64> put_keys;
    std::vector<u64> put_vals;
    std::vector<SlotRef> put_slots;
    std::vector<u64> erase_keys;
    std::vector<u8> erase_hits;
    std::vector<SlotRef> erase_slots;
  };

  void worker_loop(Shard& shard);
  void park_worker(Shard& shard);
  [[nodiscard]] bool worker_woken(const Shard& shard) const;
  void serve_visit(Shard& shard);
  void serve_visit_naive(Shard& shard);
  void kill_shard(Shard& shard);
  void push_item(Shard& shard, const WorkItem& item);
  void wait_batch(Batch& batch);
  [[nodiscard]] bool spin_allowed() const;
  [[nodiscard]] obs::HandoffSnapshot handoff() const;
  static void ring_doorbell(Shard& shard);
  static void answer_item(const WorkItem& item, Status status);
  static void complete(Shard& shard, const WorkItem& item);

  ServiceOptions options_;
  u32 nshards_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::mutex restart_mu_;  ///< serializes restart_shard callers
  obs::OpRecorder recorder_;
  /// Batch counter driving kSampled trace admission (1 in 2^shift).
  std::atomic<u64> trace_seq_{0};
  /// Ring-wait attribution: ticks each request spent queued in the MPSC
  /// ring, bucketed per OpKind. Lives at the server (the wait is a
  /// transport property, not a map property) and is merged into both
  /// snapshot() and live_snapshot().
  obs::PhaseAccum ring_phases_;
  std::atomic<u64> client_parks_{0};
  /// The oversubscription gate (spin_allowed): shard workers plus the
  /// clients inside execute() must fit the CPU affinity mask, read once
  /// at construction.
  u32 cpus_ = 1;
  alignas(kCachelineSize) std::atomic<u32> in_execute_{0};
};

}  // namespace gh::service
