#include "service/service.hpp"

#include <linux/futex.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "core/errors.hpp"
#include "hash/hash_functions.hpp"
#include "nvm/fault_fs.hpp"
#include "util/assert.hpp"

namespace gh::service {

namespace {

/// Same seed the concurrent wrappers use for shard routing, so the
/// service's shard for a key matches ConcurrentGroupHashMap's.
constexpr u64 kShardSeed = 0xc3a5c85c97cb3127ull;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spin budget of both sides of the hand-off before they park. Two-phase
/// waiting: a waiter that spins for about what blocking costs, then
/// blocks, never pays more than twice what the better of the two pure
/// strategies would have. On a 4-vCPU KVM guest (Linux 6.x) a futex
/// ping-pong measured 5.2–6.5 µs per hand-off to a sleeping thread
/// against 0.25–0.35 µs to a spinning one, and the waker spent another
/// ~1.3 µs of its own CPU in FUTEX_WAKE. A round trip that parks pays
/// that on both sides — the client waking the worker, the worker waking
/// the client — so a park-and-wake costs the pair 14–16 µs. Rounded up
/// to 20 µs, which also keeps the slow tail of the update-heavy service
/// benchmark (p99 round trip ~20 µs) inside the spin.
constexpr std::chrono::nanoseconds kSpinBudget = std::chrono::microseconds(20);

/// Set in Batch::pending_ by a client about to sleep on it.
constexpr u32 kClientParked = 1u << 31;
/// Shard::doorbell while the worker sleeps on it; 0 while it is awake.
constexpr u32 kWorkerParked = 1;

u32 affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return static_cast<u32>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Yields before a park. An oversubscribed process does not spin, but the
/// thread it waits for is often runnable on this very CPU: handing it
/// the CPU a few times first saves most parks.
constexpr u32 kParkYields = 4;

/// The waiting phase before a park: true once `ready` holds. With `spin`
/// set, polls for up to kSpinBudget, timed on steady_clock, not
/// obs::now_ticks(), which reads 0 under GH_OBS_OFF; then yields.
template <typename Ready>
bool await_ready(Ready ready, bool spin) {
  if (spin) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    do {
      if (ready()) return true;
      cpu_relax();
    } while (std::chrono::steady_clock::now() < deadline);
  }
  for (u32 i = 0; i < kParkYields; ++i) {
    if (ready()) return true;
    std::this_thread::yield();
  }
  return ready();
}

// Futex words are std::atomic<u32>: the kernel reads them as plain u32.
static_assert(sizeof(std::atomic<u32>) == sizeof(u32) && std::atomic<u32>::is_always_lock_free);

/// Sleep while `word` holds `expected`. May return early (a wake meant
/// for a previous owner of the address, a signal): callers re-check.
void futex_wait(const std::atomic<u32>& word, u32 expected) {
  syscall(SYS_futex, &word, FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
}

/// Wake up to `n` sleepers on `addr`. The kernel uses the address only as
/// a key and reads no memory, so waking a word whose owner has since
/// been freed is safe: at worst a later owner of the address sees an
/// early return, which every futex_wait caller tolerates.
void futex_wake(const void* addr, int n) {
  syscall(SYS_futex, addr, FUTEX_WAKE_PRIVATE, n, nullptr, nullptr, 0);
}

/// Single-writer counter bump: no locked RMW on the hot path.
inline void bump(std::atomic<u64>& c) {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

inline obs::OpKind op_kind(Op op) {
  switch (op) {
    case Op::kGet: return obs::OpKind::kFind;
    case Op::kPut: return obs::OpKind::kInsert;
    case Op::kErase: return obs::OpKind::kErase;
  }
  return obs::OpKind::kFind;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kPending: return "pending";
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not_found";
    case Status::kDegraded: return "degraded";
    case Status::kShardDown: return "shard_down";
  }
  return "?";
}

u32 ShardServer::shard_of(u64 key, u32 shards) {
  return static_cast<u32>(hash::SeededHash(kShardSeed)(key)) & (shards - 1);
}

ShardServer::ShardServer(const ServiceOptions& options)
    : options_(options), cpus_(affinity_cpus()) {
  GH_CHECK_MSG(options_.batch_window >= 1,
               "batch_window must be >= 1 (a zero window would never drain the ring)");
  u32 n = 1;
  while (n < options_.shards) n <<= 1;
  nshards_ = n;
  shards_.reserve(nshards_);
  for (u32 s = 0; s < nshards_; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.ring_capacity));
    Shard& shard = *shards_.back();
    shard.index = s;
    shard.ring_gate.set_shift(options_.map_options.latency_sample_shift);
    if (options_.data_dir.empty()) {
      shard.map = std::make_unique<GroupHashMap>(
          GroupHashMap::create_in_memory(options_.map_options));
    } else {
      const std::string path =
          options_.data_dir + "/shard" + std::to_string(s) + ".gh";
      shard.map =
          std::make_unique<GroupHashMap>(GroupHashMap::create(path, options_.map_options));
    }
  }
  running_.store(true, std::memory_order_release);
  for (u32 s = 0; s < nshards_; ++s) {
    Shard& shard = *shards_[s];
    shard.worker = std::thread([this, &shard] { worker_loop(shard); });
  }
}

ShardServer::~ShardServer() { stop(); }

bool ShardServer::shard_down(u32 shard) const {
  return shards_[shard]->dead.load(std::memory_order_acquire);
}

void ShardServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) ring_doorbell(*shard);
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

bool ShardServer::spin_allowed() const {
  return nshards_ + in_execute_.load(std::memory_order_relaxed) <= cpus_;
}

void ShardServer::ring_doorbell(Shard& shard) {
  // Dekker pair with park_worker. The caller published its news (a ring
  // slot, stopping_, revive) before this fence; the worker stores
  // kWorkerParked before its own fence and re-checks for news after it.
  // So either the worker sees the news or this load sees it parked. The
  // exchange elects one waker per park, and clearing the word makes a
  // worker that has not reached futex_wait yet return from it at once.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.doorbell.load(std::memory_order_relaxed) == kWorkerParked &&
      shard.doorbell.exchange(0, std::memory_order_relaxed) == kWorkerParked) {
    shard.wakes.fetch_add(1, std::memory_order_relaxed);
    futex_wake(&shard.doorbell, 1);
  }
}

void ShardServer::push_item(Shard& shard, const WorkItem& item) {
  // Bounded ring = bounded memory; a full ring is backpressure, and the
  // producer spins until the worker frees a slot. A dead shard keeps
  // draining (answering kShardDown), so this spin always terminates.
  u32 spins = 0;
  while (!shard.ring.try_push(item)) {
    if (++spins < 64) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  ring_doorbell(shard);
}

void ShardServer::wait_batch(Batch& batch) {
  const auto done = [&] { return batch.pending_.load(std::memory_order_acquire) == 0; };
  if (await_ready(done, spin_allowed())) return;
  // Park: flag the word so the completing worker knows to wake us. Its
  // final decrement leaves exactly kClientParked behind.
  u32 p = batch.pending_.fetch_or(kClientParked, std::memory_order_acquire) | kClientParked;
  if (p == kClientParked) return;
  client_parks_.fetch_add(1, std::memory_order_relaxed);
  do {
    futex_wait(batch.pending_, p);
    p = batch.pending_.load(std::memory_order_acquire);
  } while (p != kClientParked);
}

void ShardServer::execute(Batch& batch) {
  GH_CHECK(running());
  GH_CHECK_MSG(batch.requests.size() < kClientParked, "batch too large");
  const u32 n = static_cast<u32>(batch.requests.size());
  batch.responses_.assign(n, Response{});
  if (n == 0) return;

  // Counting sort the request indices by shard: one pass to count, one
  // to scatter. offsets_ keeps the fence posts so each shard's slice of
  // order_ is contiguous and in caller order.
  batch.offsets_.assign(nshards_ + 1, 0);
  batch.order_.resize(n);
  for (u32 i = 0; i < n; ++i) {
    batch.offsets_[shard_of(batch.requests[i].key, nshards_) + 1]++;
  }
  for (u32 s = 0; s < nshards_; ++s) batch.offsets_[s + 1] += batch.offsets_[s];
  std::vector<u32> cursor(batch.offsets_.begin(), batch.offsets_.end() - 1);
  for (u32 i = 0; i < n; ++i) {
    batch.order_[cursor[shard_of(batch.requests[i].key, nshards_)]++] = i;
  }

  const u64 t0 = obs::now_ticks();

  // Trace admission, per batch at ingest: kFull traces everything,
  // kSampled admits 1 in 2^shift batches off an atomic counter. A
  // traced batch gets a trace id and a pre-allocated root span id that
  // every work item carries through the ring.
  u64 trace_id = 0;
  u32 root_span = 0;
  if (obs::kEnabled && options_.trace_mode != obs::TraceMode::kOff) {
    const bool admit =
        options_.trace_mode == obs::TraceMode::kFull ||
        (trace_seq_.fetch_add(1, std::memory_order_relaxed) &
         ((u64{1} << options_.trace_sample_shift) - 1)) == 0;
    if (admit) {
      trace_id = obs::SpanCollector::global().next_trace_id();
      root_span = obs::SpanCollector::global().next_span_id();
    }
  }
  const auto make_item = [&](u32 begin, u32 count) {
    WorkItem w{&batch, begin, count};
    if constexpr (obs::kEnabled) {
      w.trace_id = trace_id;
      w.parent_span = root_span;
      w.enqueue_ticks = t0;
    }
    return w;
  };

  in_execute_.fetch_add(1, std::memory_order_relaxed);
  if (options_.naive) {
    // Baseline transport: one work item (and one scalar map call) per
    // request — what a request-per-message server would do.
    batch.pending_.store(n, std::memory_order_release);
    for (u32 s = 0; s < nshards_; ++s) {
      for (u32 i = batch.offsets_[s]; i < batch.offsets_[s + 1]; ++i) {
        push_item(*shards_[s], make_item(i, 1));
      }
    }
  } else {
    u32 touched = 0;
    for (u32 s = 0; s < nshards_; ++s) {
      touched += batch.offsets_[s + 1] > batch.offsets_[s];
    }
    batch.pending_.store(touched, std::memory_order_release);
    for (u32 s = 0; s < nshards_; ++s) {
      const u32 begin = batch.offsets_[s];
      const u32 count = batch.offsets_[s + 1] - begin;
      if (count > 0) push_item(*shards_[s], make_item(begin, count));
    }
  }

  wait_batch(batch);
  in_execute_.fetch_sub(1, std::memory_order_relaxed);

  const u64 t1 = obs::now_ticks();
  const u64 dt = t1 - t0;
  for (u32 i = 0; i < n; ++i) recorder_.record(op_kind(batch.requests[i].op), dt);
  if (trace_id != 0) {
    // The wake span covers "last shard answered → this thread resumed"
    // (the spin or the futex wake + scheduling), the one stretch of a
    // request's life no worker-side span can see.
    const u64 done = batch.done_ticks_.load(std::memory_order_relaxed);
    if (done > t0 && done < t1) {
      obs::emit_span(obs::SpanKind::kWake, trace_id, root_span, done, t1);
    }
    obs::emit_span_with_id(obs::SpanKind::kRequest, trace_id, root_span,
                           /*parent=*/0, t0, t1);
  }
}

void ShardServer::complete(Shard& shard, const WorkItem& item) {
  Batch* batch = item.batch;
  if (obs::kEnabled && item.trace_id != 0) {
    // Shards finish in any order and race here: keep the latest tick, so
    // the wake span starts after the last answer, not inside a visit.
    const u64 now = obs::now_ticks();
    u64 done = batch->done_ticks_.load(std::memory_order_relaxed);
    while (done < now &&
           !batch->done_ticks_.compare_exchange_weak(done, now, std::memory_order_relaxed)) {
    }
  }
  const void* word = &batch->pending_;
  const u32 prev = batch->pending_.fetch_sub(1, std::memory_order_acq_rel);
  // The final decrement releases the client, which may return and free
  // the batch at once: from here on only `prev` and the word's address
  // are used, never the batch.
  if ((prev & ~kClientParked) != 1) return;
  bump(shard.round_trips);
  if (prev & kClientParked) futex_wake(word, 1);
}

void ShardServer::answer_item(const WorkItem& item, Status status) {
  for (u32 i = 0; i < item.count; ++i) {
    const u32 r = item.batch->order_[item.begin + i];
    item.batch->responses_[r] = Response{status, 0};
  }
}

void ShardServer::kill_shard(Shard& shard) {
  // A SimulatedCrash froze this shard's map mid-operation. Treat the
  // worker as power-failed: drop the mappings without flushing (exactly
  // what abandon() models) and answer kShardDown from here on. The ring
  // keeps draining so clients never wedge on a dead shard.
  shard.dead.store(true, std::memory_order_release);
  shard.map->abandon();
}

bool ShardServer::restart_shard(u32 shard_idx) {
  GH_CHECK(shard_idx < nshards_);
  Shard& shard = *shards_[shard_idx];
  std::lock_guard<std::mutex> lock(restart_mu_);
  if (!running() || !shard.dead.load(std::memory_order_acquire)) return false;
  // Reopen on the caller's thread: recovery (and resuming an interrupted
  // migration) can take a while, and the worker must keep draining its
  // ring — answering kShardDown — the whole time. File-backed shards
  // reopen their file through the normal recovery path; in-memory shards
  // lost their mappings with the "power failure" and come back empty.
  std::unique_ptr<GroupHashMap> fresh;
  try {
    if (options_.data_dir.empty()) {
      fresh = std::make_unique<GroupHashMap>(
          GroupHashMap::create_in_memory(options_.map_options));
    } else {
      const std::string path =
          options_.data_dir + "/shard" + std::to_string(shard_idx) + ".gh";
      fresh =
          std::make_unique<GroupHashMap>(GroupHashMap::open(path, options_.map_options));
    }
  } catch (...) {
    return false;  // reopen failed; the shard stays down and the caller may retry
  }
  shard.pending_map = std::move(fresh);
  shard.revive.store(true, std::memory_order_release);
  ring_doorbell(shard);
  // The worker installs the map at its loop top; wait for that so the
  // caller's next batch cannot race the swap. If the server stops before
  // the install, the worker exits without installing — bail out.
  while (shard.revive.load(std::memory_order_acquire)) {
    if (!running()) return false;
    std::this_thread::yield();
  }
  return true;
}

void ShardServer::worker_loop(Shard& shard) {
  // Idle-loop migration drain: groups retired per empty ring poll. Large
  // enough that an idle shard finishes a resize in a few wakeups, small
  // enough that a request arriving mid-burst waits at most one burst.
  constexpr u64 kIdleMigrateGroups = 64;
  for (;;) {
    if (shard.revive.load(std::memory_order_acquire)) {
      // restart_shard parked a freshly reopened map; install it here so
      // only the worker ever touches the live shard map.
      shard.map = std::move(shard.pending_map);
      shard.dead.store(false, std::memory_order_release);
      shard.revive.store(false, std::memory_order_release);
    }
    shard.visit.clear();
    WorkItem w;
    while (shard.visit.size() < options_.batch_window && shard.ring.try_pop(w)) {
      shard.visit.push_back(w);
    }
    if (shard.visit.empty()) {
      if (stopping_.load(std::memory_order_acquire)) {
        // stop() rings every doorbell after flipping the flag and
        // execute() refuses new batches, so an empty ring here is final.
        return;
      }
      if (!shard.dead.load(std::memory_order_relaxed) && shard.map->migration_active()) {
        try {
          // Re-poll the ring after every burst so background draining
          // never starves a request by more than one burst. A zero-group
          // step (finalize in degraded backoff) falls through to the
          // idle wait instead of retrying the cooldown.
          if (shard.map->migrate_step(kIdleMigrateGroups) > 0) continue;
        } catch (const nvm::SimulatedCrash&) {
          kill_shard(shard);
        }
      }
      if (!await_ready([&] { return worker_woken(shard); }, spin_allowed())) {
        park_worker(shard);
      }
      continue;
    }
    if (shard.dead.load(std::memory_order_relaxed)) {
      for (const WorkItem& item : shard.visit) {
        answer_item(item, Status::kShardDown);
        complete(shard, item);
      }
      continue;
    }
    // Ring-wait attribution + trace adoption. Each item's enqueue → pop
    // wait books under Phase::kRingWait per request kind (added to both
    // the bucket and the attributed total, so phases still sum to the
    // request's attributed time). Traced items get a ring_wait span; the
    // first traced item's context is adopted for the whole visit so the
    // map ops inside emit their spans under one shard_visit parent.
    u64 visit_trace = 0;
    u32 visit_parent = 0;
    const u64 pop_ticks = obs::kEnabled ? obs::now_ticks() : 0;
    if constexpr (obs::kEnabled) {
      for (const WorkItem& item : shard.visit) {
        if (item.enqueue_ticks == 0) continue;
        const u64 wait =
            pop_ticks > item.enqueue_ticks ? pop_ticks - item.enqueue_ticks : 0;
        if (shard.ring_gate.admit()) {
          for (u32 i = 0; i < item.count; ++i) {
            const Request& rq =
                item.batch->requests[item.batch->order_[item.begin + i]];
            ring_phases_.add_wait(op_kind(rq.op), obs::Phase::kRingWait, wait);
          }
        }
        if (item.trace_id != 0) {
          obs::emit_span(obs::SpanKind::kRingWait, item.trace_id, item.parent_span,
                        item.enqueue_ticks, pop_ticks, static_cast<u8>(shard.index));
          if (visit_trace == 0) {
            visit_trace = item.trace_id;
            visit_parent = item.parent_span;
          }
        }
      }
    }
    u32 visit_span = 0;
    if (visit_trace != 0) {
      visit_span = obs::SpanCollector::global().next_span_id();
      obs::set_thread_trace(visit_trace, visit_span, true);
    }
    if (options_.naive) {
      serve_visit_naive(shard);
    } else {
      serve_visit(shard);
    }
    if (visit_trace != 0) {
      obs::clear_thread_trace();
      obs::emit_span_with_id(obs::SpanKind::kShardVisit, visit_trace, visit_span,
                             visit_parent, pop_ticks, obs::now_ticks(),
                             static_cast<u8>(shard.index));
    }
    for (const WorkItem& item : shard.visit) complete(shard, item);
  }
}

bool ShardServer::worker_woken(const Shard& shard) const {
  return !shard.ring.empty() || stopping_.load(std::memory_order_acquire) ||
         shard.revive.load(std::memory_order_acquire);
}

void ShardServer::park_worker(Shard& shard) {
  shard.doorbell.store(kWorkerParked, std::memory_order_relaxed);
  // Dekker pair with ring_doorbell (see there). The re-check's loads are
  // acquire only, so the pair needs this fence, not just a seq_cst store.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!worker_woken(shard)) {
    bump(shard.parks);
    futex_wait(shard.doorbell, kWorkerParked);
  }
  // After a wake the word already reads 0; after an early return (a
  // signal) or a re-check that found work it still reads kWorkerParked.
  shard.doorbell.store(0, std::memory_order_relaxed);
}

void ShardServer::serve_visit(Shard& shard) {
  // Bucket every request of the visit — across client batches — by kind,
  // then execute ONE map batch call per kind. This is the ingest
  // batching window: the map-level fast path prefetches tag lines across
  // the whole get set and coalesces fences across the whole put set.
  shard.get_keys.clear();
  shard.get_slots.clear();
  shard.put_keys.clear();
  shard.put_vals.clear();
  shard.put_slots.clear();
  shard.erase_keys.clear();
  shard.erase_slots.clear();

  for (const WorkItem& item : shard.visit) {
    for (u32 i = 0; i < item.count; ++i) {
      const u32 r = item.batch->order_[item.begin + i];
      const Request& rq = item.batch->requests[r];
      switch (rq.op) {
        case Op::kGet:
          shard.get_keys.push_back(rq.key);
          shard.get_slots.push_back(SlotRef{item.batch, r});
          break;
        case Op::kPut:
          shard.put_keys.push_back(rq.key);
          shard.put_vals.push_back(rq.value);
          shard.put_slots.push_back(SlotRef{item.batch, r});
          break;
        case Op::kErase:
          shard.erase_keys.push_back(rq.key);
          shard.erase_slots.push_back(SlotRef{item.batch, r});
          break;
      }
    }
  }

  if (!shard.get_keys.empty()) {
    shard.get_out.assign(shard.get_keys.size(), std::nullopt);
    try {
      shard.map->get_batch(shard.get_keys, shard.get_out);
      for (usize i = 0; i < shard.get_slots.size(); ++i) {
        const SlotRef slot = shard.get_slots[i];
        slot.batch->responses_[slot.req] =
            shard.get_out[i] ? Response{Status::kOk, *shard.get_out[i]}
                             : Response{Status::kNotFound, 0};
      }
    } catch (const nvm::SimulatedCrash&) {
      kill_shard(shard);
    }
  }

  if (!shard.dead.load(std::memory_order_relaxed) && !shard.put_keys.empty()) {
    try {
      shard.map->put_batch(shard.put_keys, shard.put_vals);
      for (const SlotRef& slot : shard.put_slots) {
        slot.batch->responses_[slot.req] = Response{Status::kOk, 0};
      }
    } catch (const MapDegradedError&) {
      // The shard stays up: reads are unaffected and the map retries its
      // rebuild with backoff. A prefix of the window may have landed, so
      // kDegraded means "retry later" (at-least-once), never data loss.
      for (const SlotRef& slot : shard.put_slots) {
        slot.batch->responses_[slot.req] = Response{Status::kDegraded, 0};
      }
    } catch (const nvm::SimulatedCrash&) {
      kill_shard(shard);
    }
  }

  if (!shard.dead.load(std::memory_order_relaxed) && !shard.erase_keys.empty()) {
    shard.erase_hits.assign(shard.erase_keys.size(), 0);
    try {
      shard.map->erase_batch(shard.erase_keys, shard.erase_hits);
      for (usize i = 0; i < shard.erase_slots.size(); ++i) {
        const SlotRef slot = shard.erase_slots[i];
        slot.batch->responses_[slot.req] =
            Response{shard.erase_hits[i] ? Status::kOk : Status::kNotFound, 0};
      }
    } catch (const nvm::SimulatedCrash&) {
      kill_shard(shard);
    }
  }

  if (shard.dead.load(std::memory_order_relaxed)) {
    // The crash interrupted this visit: every response still kPending —
    // including ops "before" the dying call whose scatter-back never ran
    // — answers kShardDown.
    for (const WorkItem& item : shard.visit) {
      for (u32 i = 0; i < item.count; ++i) {
        const u32 r = item.batch->order_[item.begin + i];
        if (item.batch->responses_[r].status == Status::kPending) {
          item.batch->responses_[r] = Response{Status::kShardDown, 0};
        }
      }
    }
  }
}

void ShardServer::serve_visit_naive(Shard& shard) {
  for (const WorkItem& item : shard.visit) {
    for (u32 i = 0; i < item.count; ++i) {
      const u32 r = item.batch->order_[item.begin + i];
      const Request& rq = item.batch->requests[r];
      Response& resp = item.batch->responses_[r];
      if (shard.dead.load(std::memory_order_relaxed)) {
        resp = Response{Status::kShardDown, 0};
        continue;
      }
      try {
        switch (rq.op) {
          case Op::kGet: {
            const auto v = shard.map->get(rq.key);
            resp = v ? Response{Status::kOk, *v} : Response{Status::kNotFound, 0};
            break;
          }
          case Op::kPut:
            shard.map->put(rq.key, rq.value);
            resp = Response{Status::kOk, 0};
            break;
          case Op::kErase:
            resp = Response{shard.map->erase(rq.key) ? Status::kOk : Status::kNotFound, 0};
            break;
        }
      } catch (const MapDegradedError&) {
        resp = Response{Status::kDegraded, 0};
      } catch (const nvm::SimulatedCrash&) {
        kill_shard(shard);
        resp = Response{Status::kShardDown, 0};
      }
    }
  }
}

obs::HandoffSnapshot ShardServer::handoff() const {
  obs::HandoffSnapshot h;
  h.client_parks = client_parks_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    h.round_trips += shard->round_trips.load(std::memory_order_relaxed);
    h.worker_parks += shard->parks.load(std::memory_order_relaxed);
    h.doorbell_wakes += shard->wakes.load(std::memory_order_relaxed);
  }
  return h;
}

obs::Snapshot ShardServer::live_snapshot() const {
  obs::Snapshot s;
  s.source = "ShardServer.live";
  s.shards = nshards_;
  s.latency = obs::OpLatencySnapshot::from(recorder_);
  s.phases = ring_phases_.snapshot();
  s.handoff = handoff();
  for (u32 i = 0; i < nshards_; ++i) {
    const GroupHashMap* map = shards_[i]->map.get();
    if (map == nullptr) continue;
    const obs::LiveObs* live = map->live_obs();
    if (live == nullptr) continue;
    s.phases += live->phases.snapshot();
    const obs::MigrationGauges g = live->migration();
    s.migration.active += g.active;
    s.migration.cursor += g.cursor;
    s.migration.total_groups += g.total_groups;
  }
  return s;
}

obs::Snapshot ShardServer::snapshot() {
  GH_CHECK(!running());
  obs::Snapshot agg;
  agg.source = "ShardServer";
  agg.shards = nshards_;
  agg.phases = ring_phases_.snapshot();
  agg.handoff = handoff();
  for (u32 s = 0; s < nshards_; ++s) {
    obs::Snapshot shard_snap = shards_[s]->map->snapshot();
    agg.absorb(shard_snap);
    obs::ShardBrief brief;
    brief.shard = s;
    brief.size = shard_snap.size;
    brief.capacity = shard_snap.capacity;
    brief.expansions = shard_snap.lifecycle.expansions;
    brief.degraded = shard_snap.lifecycle.degraded ||
                     shards_[s]->dead.load(std::memory_order_acquire);
    agg.per_shard.push_back(brief);
  }
  return agg;
}

}  // namespace gh::service
