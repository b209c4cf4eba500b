// Service benchmark: closed-loop clients drive gh::service::ShardServer
// through its public execute() call and time only calls into public
// functions. See README.md for the workloads, the metrics and how the
// run is kept steady.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> [--spans <file.json>]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// alternates untraced and traced (sampled service tracing) measurements,
// replays a prefix of the request stream through the layer ladder
// (GroupHashMap, then a bare GroupHashTable) and prints the per-layer
// metrics. The last line of standard output is one JSON object.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.hpp"
#include "closed_loop.hpp"
#include "core/group_hash_map.hpp"
#include "hash/group_hashing.hpp"
#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"
#include "obs/span.hpp"
#include "service/service.hpp"
#include "trace/zipf.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using gh::GroupHashMap;
using gh::MapOptions;
using gh::service::Batch;
using gh::service::Op;
using gh::service::Request;
using gh::service::ServiceOptions;
using gh::service::ShardServer;

// Two shard workers plus two client threads: workers + clients never
// exceed the four CPUs of the reference machine, so no thread of the
// closed loop waits for a CPU behind another one.
constexpr u32 kShards = 2;
constexpr u32 kClients = 2;
constexpr u32 kPreloadBatch = 4096;
constexpr u64 kFlushLatencyNs = 300;  // the paper's post-flush NVM latency
constexpr u32 kSetupReps = 3;  // grow-online sets up once per epoch instead
constexpr u32 kRecoveryCopies = 3;
constexpr u32 kRecoveryReps = 3;
// Untraced + traced epoch pairs of a grow-online --trace 1 run.
constexpr u32 kGrowTracedRounds = 2;
// Requests per client in a timed workload's stream, cycled until the
// deadline.
constexpr u64 kPoolPerClient = u64{1} << 20;
// Round trips per client per second the fixed latency record is sized
// for (about 3x the fastest workload today). A faster program fills the
// record before the deadline; the run then stops there and reports the
// windows that completed (see run_phase).
constexpr u64 kMaxBatchesPerSecond = 100'000;

struct Spec {
  std::string name;
  u64 preload_keys = 0;
  u64 cells_per_shard = 0;
  u32 batch = 0;
  u32 puts_per_batch = 0;
  bool zipf = false;
  bool grow = false;            ///< puts insert new keys (one fixed stream per epoch)
  u64 inserts_per_client = 0;   ///< grow only
  u32 ladder_batches = 0;       ///< per client, replayed through the ladder
};

std::optional<Spec> spec_for(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "lookup-uniform") {
    s.preload_keys = u64{2} << 20;
    s.cells_per_shard = u64{2} << 20;  // 2 x 32 MiB of cells, half full
    s.batch = 256;
    s.ladder_batches = 1024;
  } else if (name == "update-zipf") {
    s.preload_keys = u64{1} << 20;
    s.cells_per_shard = u64{1} << 20;
    s.batch = 16;
    s.puts_per_batch = 8;
    s.zipf = true;
    s.ladder_batches = 8192;
  } else if (name == "grow-online") {
    // Each shard starts half full at 2^18 cells and ends near 2.1x its
    // initial cell count: two complete doublings, far from a third.
    s.preload_keys = u64{1} << 18;
    s.cells_per_shard = u64{1} << 18;
    s.batch = 16;
    s.puts_per_batch = 8;
    s.grow = true;
    s.inserts_per_client = 420'000;
    s.ladder_batches = 2048;
  } else {
    return std::nullopt;
  }
  return s;
}

MapOptions map_options(const Spec& spec) {
  MapOptions o;
  o.initial_cells = spec.cells_per_shard;
  o.flush_latency_ns = kFlushLatencyNs;
  o.checksum_groups = true;
  o.online_resize = true;
  return o;
}

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its calls into the library.

class SpanLog {
 public:
  explicit SpanLog(usize capacity) { spans_.reserve(capacity); }
  void add(const char* name, u32 tid, u64 start, u64 end) {
    if (spans_.size() < spans_.capacity()) spans_.push_back({name, tid, start, end});
  }
  /// Chrome trace_event JSON ("X" complete events), sorted by start time.
  void write(const std::string& path) const {
    u64 base = ~u64{0};
    for (const Span& s : spans_) base = std::min(base, s.start_ns);
    std::vector<gh::obs::TraceEvent> events;
    for (const Span& s : spans_) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "\"name\":\"%s\",\"ph\":\"X\",\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                    s.name, static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid);
      events.push_back({static_cast<double>(s.start_ns - base) / 1e3, buf});
    }
    std::ofstream(path) << gh::obs::render_trace_json(std::move(events));
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Request streams, generated from the seed before anything is timed.

/// Positions of the puts inside one batch: exactly `puts` of `batch`
/// slots, placed at random, so every batch has the same mix.
void mark_puts(gh::Xoshiro256& rng, u32 batch, u32 puts, std::vector<char>& is_put) {
  is_put.assign(batch, 0);
  for (u32 i = 0; i < puts; ++i) is_put[i] = 1;
  for (u32 i = batch - 1; i > 0; --i) std::swap(is_put[i], is_put[rng.next_below(i + 1)]);
}

u64 grow_insert_index(const Spec& spec, u32 client, u64 j) {
  return spec.preload_keys + client * spec.inserts_per_client + j;
}

std::vector<Pool> make_pools(const Spec& spec, u64 seed) {
  std::optional<gh::trace::ZipfSampler> zipf;
  if (spec.zipf) zipf.emplace(spec.preload_keys, 0.99);
  std::vector<Pool> pools(kClients);
  std::vector<char> is_put;
  for (u32 c = 0; c < kClients; ++c) {
    gh::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + c + 1);
    Pool& p = pools[c];
    p.batch = spec.batch;
    if (spec.grow) {
      // Gets read a preloaded key or one this client inserted in an
      // earlier batch (acknowledged, so it must be found).
      u64 inserted = 0;
      for (u64 b = 0; b < spec.inserts_per_client / spec.puts_per_batch; ++b) {
        const u64 inserted_before = inserted;
        mark_puts(rng, spec.batch, spec.puts_per_batch, is_put);
        for (u32 i = 0; i < spec.batch; ++i) {
          if (is_put[i]) {
            p.reqs.push_back(put_request(key_of(grow_insert_index(spec, c, inserted++))));
          } else if (inserted_before > 0 && (rng.next() & 1)) {
            p.reqs.push_back(
                get_request(key_of(grow_insert_index(spec, c, rng.next_below(inserted_before)))));
          } else {
            p.reqs.push_back(get_request(key_of(rng.next_below(spec.preload_keys))));
          }
        }
      }
      continue;
    }
    p.reqs.reserve(kPoolPerClient);
    while (p.reqs.size() < kPoolPerClient) {
      mark_puts(rng, spec.batch, spec.puts_per_batch, is_put);
      for (u32 i = 0; i < spec.batch; ++i) {
        const u64 index = zipf ? zipf->sample(rng) : rng.next_below(spec.preload_keys);
        p.reqs.push_back(is_put[i] ? put_request(key_of(index)) : get_request(key_of(index)));
      }
    }
  }
  return pools;
}

// ---------------------------------------------------------------------------
// Process-level measurements.

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string shard_path(const std::string& dir, u32 s) {
  return dir + "/shard" + std::to_string(s) + ".gh";
}

// ---------------------------------------------------------------------------
// Set-up: construct the server and preload it through execute().

struct Instance {
  std::unique_ptr<ShardServer> server;
  std::string dir;
  double setup_s = 0;
  u64 preload_failed = 0;
};

/// An empty `dir` gives in-memory shards.
Instance set_up(const Spec& spec, const std::string& dir, bool traced, SpanLog* spans) {
  if (!dir.empty()) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ServiceOptions so;
  so.shards = kShards;
  so.data_dir = dir;
  so.map_options = map_options(spec);
  if (traced) so.trace_mode = gh::obs::TraceMode::kSampled;

  Instance inst;
  inst.dir = dir;
  const u64 t0 = gh::now_ns();
  inst.server = std::make_unique<ShardServer>(so);
  const u64 t1 = gh::now_ns();
  std::atomic<u64> failed{0};
  std::vector<std::thread> threads;
  for (u32 c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Batch batch;
      const u64 begin = spec.preload_keys * c / kClients;
      const u64 end = spec.preload_keys * (c + 1) / kClients;
      for (u64 i = begin; i < end; i += kPreloadBatch) {
        batch.clear();
        for (u64 j = i; j < std::min(end, i + kPreloadBatch); ++j) {
          batch.requests.push_back(put_request(key_of(j)));
        }
        inst.server->execute(batch);
        failed += count_failures(batch.requests, batch.responses());
      }
    });
  }
  for (auto& t : threads) t.join();
  const u64 t2 = gh::now_ns();
  inst.setup_s = static_cast<double>(t2 - t0) / 1e9;
  inst.preload_failed = failed.load();
  if (spans) {
    spans->add("setup", 0, t0, t2);
    spans->add("ShardServer::ShardServer", 0, t0, t1);
    spans->add("preload", 0, t1, t2);
  }
  return inst;
}

void tear_down(Instance& inst) {
  inst.server.reset();  // stop() + clean close of every shard map
  if (!inst.dir.empty()) fs::remove_all(inst.dir);
}

/// Idle workers drain an active online migration; wait for that so every
/// epoch ends with its resizes complete (untimed).
bool wait_migrations(ShardServer& server) {
  const u64 deadline = gh::now_ns() + 60'000'000'000ull;
  while (server.live_snapshot().migration.active != 0) {
    if (gh::now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// `capacity` round trips of latency record per client.
Clients make_clients(usize capacity, usize span_capacity) {
  Clients clients;
  for (u32 c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(capacity));
    clients.back()->spans.reserve(span_capacity);
  }
  return clients;
}

usize timed_capacity(double seconds) {
  return static_cast<usize>(seconds * kMaxBatchesPerSecond);
}

// ---------------------------------------------------------------------------
// Checks that need the stopped server.

/// Appends to `why` each way a finished grow epoch missed its contract.
void check_grow(const Spec& spec, const gh::obs::Snapshot& snap, u64 inserted, std::string& why) {
  if (snap.migration.started != snap.migration.completed) why += "migration left unfinished; ";
  if (snap.size != spec.preload_keys + inserted) {
    why += "size " + std::to_string(snap.size) + " != preloaded + inserted " +
           std::to_string(spec.preload_keys + inserted) + "; ";
  }
  for (const auto& b : snap.per_shard) {
    if (b.capacity < 4 * spec.cells_per_shard) {
      why += "shard " + std::to_string(b.shard) + " did not complete two doublings; ";
    }
  }
}

/// Every key the run acknowledged, with the value it must read back.
std::vector<u64> acknowledged_keys(const Spec& spec) {
  std::vector<u64> keys;
  for (u64 i = 0; i < spec.preload_keys; ++i) keys.push_back(key_of(i));
  if (spec.grow) {
    for (u32 c = 0; c < kClients; ++c) {
      for (u64 j = 0; j < spec.inserts_per_client; ++j) {
        keys.push_back(key_of(grow_insert_index(spec, c, j)));
      }
    }
  }
  return keys;
}

struct RecoveryResult {
  double seconds = 0;  ///< median dirty open of all shards
  u64 missing = 0;     ///< acknowledged keys not read back with their value
  bool recovered = true;
  double mapped_bytes = 0;
};

/// After a clean shutdown: open + abandon each shard file (leaving it as a
/// crash would), then time the dirty open, whose Algorithm 4 pass
/// rebuilds the table. How fast a file reopens depends on where the
/// kernel placed its pages (one file's reopen time moves 10-25% from one
/// copy to the next), so the timing runs over kRecoveryCopies copies of
/// the crashed files, kRecoveryReps times each, and reports the median.
/// The reopened original must serve every acknowledged key (untimed).
RecoveryResult recover_and_read_back(const Spec& spec, const std::string& dir,
                                     const std::vector<u64>& keys) {
  RecoveryResult r;
  for (u32 s = 0; s < kShards; ++s) r.mapped_bytes += fs::file_size(shard_path(dir, s));
  const MapOptions opts = map_options(spec);
  for (u32 s = 0; s < kShards; ++s) GroupHashMap::open(shard_path(dir, s), opts).abandon();
  std::vector<std::string> copies{dir};
  for (u32 k = 1; k < kRecoveryCopies; ++k) {
    copies.push_back(dir + "/copy" + std::to_string(k));
    fs::create_directories(copies.back());
    for (const auto& f : fs::directory_iterator(dir)) {
      if (f.is_regular_file()) fs::copy_file(f.path(), copies.back() / f.path().filename());
    }
  }
  std::vector<double> times;
  for (u32 rep = 0; rep < kRecoveryReps; ++rep) {
    for (const std::string& copy : copies) {
      std::vector<GroupHashMap> maps;
      const u64 t0 = gh::now_ns();
      for (u32 s = 0; s < kShards; ++s) maps.push_back(GroupHashMap::open(shard_path(copy, s), opts));
      times.push_back(static_cast<double>(gh::now_ns() - t0) / 1e9);
      for (auto& m : maps) {
        r.recovered = r.recovered && m.recovered_on_open();
        m.abandon();
      }
    }
  }
  r.seconds = median(times);
  std::fprintf(stderr, "recovery opens (ms):");
  for (double t : times) std::fprintf(stderr, " %.1f", t * 1e3);
  std::fprintf(stderr, "\n");

  std::vector<std::vector<u64>> by_shard(kShards);
  for (u64 k : keys) by_shard[ShardServer::shard_of(k, kShards)].push_back(k);
  std::vector<std::optional<u64>> out;
  for (u32 s = 0; s < kShards; ++s) {
    GroupHashMap m = GroupHashMap::open(shard_path(dir, s), opts);
    r.recovered = r.recovered && m.recovered_on_open();
    out.assign(by_shard[s].size(), std::nullopt);
    m.get_batch(by_shard[s], out);
    for (usize i = 0; i < out.size(); ++i) {
      r.missing += !out[i] || *out[i] != value_of(by_shard[s][i]);
    }
    m.close();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Layer ladder: replay each client's per-shard slices single-threaded
// into a GroupHashMap, then into a bare GroupHashTable with the same
// persistence configuration. One step minus the next is a layer's cost.

struct Slice {
  std::vector<u64> get_keys;
  std::vector<u64> put_keys;
  std::vector<u64> put_vals;
};

/// The table's probe counters, read around each find_batch.
struct ProbeCounts {
  u64 queries = 0;
  u64 probes = 0;
  u64 level2_probes = 0;
  u64 tag_probes = 0;
  u64 tag_false_positives = 0;

  static ProbeCounts from(const gh::hash::TableStats& s) {
    return {s.queries.load(), s.probes.load(), s.level2_probes.load(), s.tag_probes.load(),
            s.tag_false_positives.load()};
  }
  void add_delta(const ProbeCounts& before, const ProbeCounts& after) {
    queries += after.queries - before.queries;
    probes += after.probes - before.probes;
    level2_probes += after.level2_probes - before.level2_probes;
    tag_probes += after.tag_probes - before.tag_probes;
    tag_false_positives += after.tag_false_positives - before.tag_false_positives;
  }
};

struct Ladder {
  bool ok = true;
  u64 gets = 0;
  u64 puts = 0;
  u64 map_get_ns = 0;
  u64 map_put_ns = 0;
  u64 tab_get_ns = 0;
  u64 tab_put_ns = 0;
  u64 map_get_lines = 0;
  u64 map_put_lines = 0;
  u64 map_put_fences = 0;
  ProbeCounts tab_get_ops;          ///< table counters over the gets
  std::vector<u64> slowest_map_ns;  ///< per (batch, client): max over shards
};

std::vector<u64> shard_keys(const Spec& spec, u32 s) {
  std::vector<u64> keys;
  for (u64 i = 0; i < spec.preload_keys; ++i) {
    const u64 k = key_of(i);
    if (ShardServer::shard_of(k, kShards) == s) keys.push_back(k);
  }
  return keys;
}

std::vector<u64> values_for(const std::vector<u64>& keys) {
  std::vector<u64> v;
  v.reserve(keys.size());
  for (u64 k : keys) v.push_back(value_of(k));
  return v;
}

Ladder run_ladder(const Spec& spec, const std::vector<Pool>& pools, const std::string& dir,
                  SpanLog& spans) {
  const u64 nb = std::min<u64>(spec.ladder_batches, pools[0].batches());
  // Slice (b, c, s) at index (b * kClients + c) * kShards + s; within a
  // slice gets run before puts, as a shard visit orders them.
  std::vector<Slice> slices(nb * kClients * kShards);
  for (u64 b = 0; b < nb; ++b) {
    for (u32 c = 0; c < kClients; ++c) {
      const Request* reqs = pools[c].batch_at(b);
      for (u32 i = 0; i < pools[c].batch; ++i) {
        const Request& r = reqs[i];
        Slice& sl = slices[(b * kClients + c) * kShards + ShardServer::shard_of(r.key, kShards)];
        if (r.op == Op::kGet) {
          sl.get_keys.push_back(r.key);
        } else {
          sl.put_keys.push_back(r.key);
          sl.put_vals.push_back(r.value);
        }
      }
    }
  }

  // Step 1: GroupHashMap per shard, preloaded without flush latency and
  // reopened with the service's options so the replay pays the same
  // persistence. Step 2: a bare GroupHashTable per shard over anonymous
  // memory with the map table's geometry, seed, checksums and
  // PersistConfig, preloaded through a counting-only PM and re-attached.
  using Table = GroupHashMap::Table;
  struct Layers {
    std::optional<GroupHashMap> map;
    gh::nvm::NvmRegion region;
    std::unique_ptr<gh::nvm::DirectPM> pm;
    std::optional<Table> table;
  };
  Ladder L;
  std::vector<Layers> layers(kShards);
  MapOptions fast = map_options(spec);
  fast.flush_latency_ns = 0;
  const typename Table::Params params{.level_cells = spec.cells_per_shard / 2,
                                      .group_size = 256,
                                      .group_crc = true};
  for (u32 s = 0; s < kShards; ++s) {
    Layers& ly = layers[s];
    const auto keys = shard_keys(spec, s);
    const auto vals = values_for(keys);
    const std::string path = dir + "/ladder" + std::to_string(s) + ".gh";
    {
      GroupHashMap m = GroupHashMap::create(path, fast);
      m.put_batch(keys, vals);
      m.close();
    }
    const u64 t0 = gh::now_ns();
    ly.map.emplace(GroupHashMap::open(path, map_options(spec)));
    spans.add("GroupHashMap::open", 0, t0, gh::now_ns());

    ly.region = gh::nvm::NvmRegion::create_anonymous(Table::required_bytes(params));
    {
      gh::nvm::DirectPM counting(gh::nvm::PersistConfig::counting_only());
      Table t(counting, ly.region.bytes(), params, /*format=*/true);
      L.ok = L.ok && t.insert_batch(keys, vals) == keys.size();
    }
    ly.pm = std::make_unique<gh::nvm::DirectPM>(
        gh::nvm::PersistConfig{.flush_latency_ns = kFlushLatencyNs});
    ly.table.emplace(Table::attach(*ly.pm, ly.region.bytes()));
  }

  std::vector<std::optional<u64>> out;
  const auto check_gets = [&](const Slice& sl) {
    for (usize i = 0; i < sl.get_keys.size(); ++i) {
      L.ok = L.ok && out[i] && *out[i] == value_of(sl.get_keys[i]);
    }
  };
  const auto run_map = [&](const Slice& sl, GroupHashMap& m) {
    const u64 l0 = m.raw_table().pm().stats().lines_flushed.load();
    const u64 t0 = gh::now_ns();
    if (!sl.get_keys.empty()) {
      out.assign(sl.get_keys.size(), std::nullopt);
      m.get_batch(sl.get_keys, out);
    }
    const u64 t1 = gh::now_ns();
    // The table reference can change when a put expands the map; reread.
    const u64 l1 = m.raw_table().pm().stats().lines_flushed.load();
    const u64 f1 = m.raw_table().pm().stats().fences.load();
    if (!sl.put_keys.empty()) m.put_batch(sl.put_keys, sl.put_vals);
    const u64 t2 = gh::now_ns();
    L.map_get_ns += t1 - t0;
    L.map_put_ns += t2 - t1;
    L.map_get_lines += l1 - l0;
    L.map_put_lines += m.raw_table().pm().stats().lines_flushed.load() - l1;
    L.map_put_fences += m.raw_table().pm().stats().fences.load() - f1;
    if (!sl.get_keys.empty()) check_gets(sl);
    return t2 - t0;
  };
  const auto run_table = [&](const Slice& sl, Table& t) {
    const auto ops0 = ProbeCounts::from(t.stats());
    const u64 t0 = gh::now_ns();
    if (!sl.get_keys.empty()) {
      out.assign(sl.get_keys.size(), std::nullopt);
      t.find_batch(sl.get_keys, out);
    }
    const u64 t1 = gh::now_ns();
    L.tab_get_ops.add_delta(ops0, ProbeCounts::from(t.stats()));
    const u64 t2 = gh::now_ns();
    if (!sl.put_keys.empty()) {
      L.ok = L.ok && t.upsert_batch(sl.put_keys, sl.put_vals) == sl.put_keys.size();
    }
    L.tab_get_ns += t1 - t0;
    L.tab_put_ns += gh::now_ns() - t2;
    if (!sl.get_keys.empty()) check_gets(sl);
  };

  // Both steps replay every slice back to back, in alternating order, so
  // machine noise lands on both sides of each difference alike.
  L.slowest_map_ns.assign(nb * kClients, 0);
  const u64 t_begin = gh::now_ns();
  for (usize i = 0; i < slices.size(); ++i) {
    const Slice& sl = slices[i];
    Layers& ly = layers[i % kShards];
    u64 map_ns = 0;
    if ((i / kShards) % 2 == 0) {
      map_ns = run_map(sl, *ly.map);
      run_table(sl, *ly.table);
    } else {
      run_table(sl, *ly.table);
      map_ns = run_map(sl, *ly.map);
    }
    u64& slowest = L.slowest_map_ns[i / kShards];
    slowest = std::max(slowest, map_ns);
    L.gets += sl.get_keys.size();
    L.puts += sl.put_keys.size();
  }
  spans.add("ladder", 0, t_begin, gh::now_ns());
  for (auto& ly : layers) ly.map->close();
  return L;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, u64 attempted, u64 failed, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (usize i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

double percentile_us(std::vector<BatchSample>& all, Kind kind, double q) {
  return static_cast<double>(percentile_ns(all, kind, q)) / 1e3;
}

std::vector<BatchSample> collect(const Clients& clients) {
  std::vector<BatchSample> all;
  for (const auto& cl : clients) {
    const auto s = cl->record.samples();
    all.insert(all.end(), s.begin(), s.end());
  }
  sort_by_rtt(all);
  return all;
}

void report_latency(const char* label, std::vector<BatchSample>& all, u64 gets, u64 puts) {
  std::fprintf(stderr,
               "%s: %zu round trips; get p50 %.1f p90 %.1f p99 %.1f us (n=%llu); "
               "put p50 %.1f p90 %.1f p99 %.1f us (n=%llu)\n",
               label, all.size(), percentile_us(all, Kind::kGet, 0.5),
               percentile_us(all, Kind::kGet, 0.9), percentile_us(all, Kind::kGet, 0.99),
               static_cast<unsigned long long>(gets), percentile_us(all, Kind::kPut, 0.5),
               percentile_us(all, Kind::kPut, 0.9), percentile_us(all, Kind::kPut, 0.99),
               static_cast<unsigned long long>(puts));
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end metrics of an untraced run.

int run_e2e(const Spec& spec, u64 seed, double seconds, const std::string& data_dir) {
  const auto pools = make_pools(spec, seed);
  // grow-online: room for the epoch that crosses the deadline too.
  auto clients = make_clients(timed_capacity(seconds) + (spec.grow ? pools[0].batches() : 0), 0);
  std::vector<Window> windows;
  std::vector<double> setups;
  PhaseResult total;
  u64 preload_failed = 0;
  u64 lines = 0;
  u64 puts_written = 0;
  double amp = 0;
  double rss = 0;  ///< peak through set-up and the measured phase
  u64 epochs = 0;
  bool drained = true;
  std::string why;
  Instance inst;
  gh::obs::Snapshot snap;
  const auto finish_server = [&] {
    inst.server->stop();
    snap = inst.server->snapshot();
    lines += snap.persist.lines_flushed;
  };

  if (spec.grow) {
    // Timed epochs on fresh in-memory servers until the measured time
    // covers `seconds`: every epoch runs the same complete stream (two
    // doublings per shard). In memory, because a file-backed migration
    // msyncs one page per migrated group, and on the checkout's disk
    // each of those is a device flush whose latency belongs to the host.
    do {
      if (epochs > 0) tear_down(inst);
      inst = set_up(spec, "", false, nullptr);
      setups.push_back(inst.setup_s);
      preload_failed += inst.preload_failed;
      const PhaseResult r = run_phase(*inst.server, pools, clients, 0, windows, false);
      total += r;
      puts_written += spec.preload_keys + r.puts;
      drained = drained && wait_migrations(*inst.server);
      finish_server();
      check_grow(spec, snap, r.puts, why);
      ++epochs;
    } while (total.wall_s < seconds && has_room(clients, pools));
    rss = peak_rss_mb();
    tear_down(inst);
    // One untimed epoch on file-backed shards runs the migration's file
    // format, msync and rename publish, and leaves the files that the
    // recovery below reopens.
    auto file_clients = make_clients(pools[0].batches(), 0);
    std::vector<Window> untimed;
    inst = set_up(spec, data_dir + "/files", false, nullptr);
    preload_failed += inst.preload_failed;
    const PhaseResult r = run_phase(*inst.server, pools, file_clients, 0, untimed, false);
    total.failed += r.failed;
    drained = drained && wait_migrations(*inst.server);
    inst.server->stop();
    snap = inst.server->snapshot();
    check_grow(spec, snap, r.puts, why);
    // Every epoch is the same fixed work, set-up included.
    amp = write_amp(static_cast<double>(lines), puts_written);
  } else {
    // The set-ups that are not measured also give the preload's flushed
    // lines, which the measured server's total includes.
    std::vector<double> preload_lines;
    for (u32 rep = 0; rep < kSetupReps; ++rep) {
      if (rep > 0) tear_down(inst);
      inst = set_up(spec, data_dir + "/r" + std::to_string(rep), false, nullptr);
      setups.push_back(inst.setup_s);
      preload_failed += inst.preload_failed;
      if (rep + 1 < kSetupReps) {
        inst.server->stop();
        preload_lines.push_back(static_cast<double>(inst.server->snapshot().persist.lines_flushed));
      }
    }
    total = run_phase(*inst.server, pools, clients, seconds, windows, false);
    rss = peak_rss_mb();
    finish_server();
    // A time-bounded run makes a varying number of puts, so mixing them
    // with the preload's inserts would tie the ratio to throughput: count
    // the measured phase alone, or the preload where nothing else writes.
    const double pre = median(preload_lines);
    amp = total.puts > 0 ? write_amp(static_cast<double>(lines) - pre, total.puts)
                         : write_amp(pre, spec.preload_keys);
    std::fprintf(stderr, "lines flushed: preload %.0f, measured server %llu\n", pre,
                 static_cast<unsigned long long>(lines));
  }
  const u64 live = snap.size;
  inst.server.reset();
  const RecoveryResult rec =
      recover_and_read_back(spec, inst.dir, acknowledged_keys(spec));
  fs::remove_all(inst.dir);

  if (preload_failed) why += "preload failures; ";
  if (!drained) why += "migration did not drain; ";
  if (rec.missing) why += std::to_string(rec.missing) + " keys not read back after recovery; ";
  if (!rec.recovered) why += "dirty open did not run recovery; ";
  const bool correct = why.empty() && total.failed == 0;

  auto all = collect(clients);
  const WindowStats ws = window_stats(clients, windows);
  if (ws.ops_per_s.empty()) throw std::runtime_error("no measurement window completed");
  std::fprintf(stderr, "windows (ops/s, get p90 us):");
  for (usize w = 0; w < windows.size(); ++w) {
    std::fprintf(stderr, " %.3gM %.0f", ws.ops_per_s[w] / 1e6, ws.get_p90_us[w]);
  }
  std::fprintf(stderr, "\n");
  report_latency(spec.name.c_str(), all, total.gets, total.puts);
  std::fprintf(stderr,
               "%s: %llu requests in %.3f s (%zu windows%s), %llu failed, stalls >1ms %llu of %llu "
               "round trips%s%s\n",
               spec.name.c_str(), static_cast<unsigned long long>(total.requests), total.wall_s,
               windows.size(), total.truncated ? ", latency record full" : "",
               static_cast<unsigned long long>(total.failed),
               static_cast<unsigned long long>(total.stalls),
               static_cast<unsigned long long>(total.batches), why.empty() ? "" : "; ",
               why.c_str());

  print_result(correct, total.requests, total.failed,
               {
                   {"ops_per_s", median(ws.ops_per_s), "1/s"},
                   {"get_p50_us", median(ws.get_p50_us), "us"},
                   {"get_p90_us", median(ws.get_p90_us), "us"},
                   {"cpu_us_per_op", median(ws.cpu_us_per_op), "us"},
                   {"setup_s", median(setups), "s"},
                   {"recovery_s", rec.seconds, "s"},
                   {"write_amp", amp, "ratio"},
                   {"space_amp", space_amp(static_cast<u64>(rec.mapped_bytes), live), "ratio"},
                   {"peak_rss_mb", rss, "MB"},
               });
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: untraced and traced runs plus the layer ladder.

gh::obs::PhaseSnapshot operator-(gh::obs::PhaseSnapshot a, const gh::obs::PhaseSnapshot& b) {
  for (usize k = 0; k < gh::obs::kOpKinds; ++k) {
    a.rows[k].samples -= b.rows[k].samples;
    a.rows[k].op_ns -= b.rows[k].op_ns;
    for (usize p = 0; p < gh::obs::kPhases; ++p) a.rows[k].phase_ns[p] -= b.rows[k].phase_ns[p];
  }
  return a;
}

double phase_share(const gh::obs::PhaseSnapshot& ph, gh::obs::Phase phase) {
  u64 part = 0;
  for (const auto& row : ph.rows) part += row.phase_ns[static_cast<usize>(phase)];
  return ratio(static_cast<double>(part), static_cast<double>(ph.total_op_ns()));
}

int run_traced(const Spec& spec, u64 seed, double seconds, const std::string& data_dir,
               const std::string& spans_path) {
  const auto pools = make_pools(spec, seed);
  SpanLog spans(1 << 16);
  std::string why;
  u64 preload_failed = 0;
  // The untraced and the traced measurement alternate in rounds, in
  // alternating order, and trace_overhead_pct is the median over rounds
  // of each pair's throughput difference, so a drift of the host lands on
  // both sides alike. Timed workloads: an untraced and a traced server,
  // set up once, each measured for one 1 s window per round. grow-online:
  // a fresh in-memory epoch per side per round (see run_e2e).
  const u32 rounds = spec.grow ? kGrowTracedRounds : std::max(1u, static_cast<u32>(seconds / 2));
  const double window_s = spec.grow ? 0 : 1.0;
  const usize capacity =
      spec.grow ? rounds * pools[0].batches() : timed_capacity(rounds * window_s);
  // The untraced round trips also feed the ladder comparison and the
  // stall share.
  Clients plain = make_clients(capacity, 0);
  Clients traced = make_clients(capacity, 4096);
  std::vector<Window> plain_windows, traced_windows;
  PhaseResult u, t;
  gh::obs::PhaseSnapshot phases;  ///< traced side, summed over its phases
  gh::obs::Snapshot snap;         ///< the last traced server, stopped
  u64 snap_puts = 0;              ///< puts that server served
  Instance servers[2];            ///< [0] untraced, [1] traced

  const auto start_server = [&](bool tr, const std::string& dir) {
    servers[tr] = set_up(spec, dir, tr, tr ? &spans : nullptr);
    preload_failed += servers[tr].preload_failed;
  };
  const auto stop_server = [&](bool tr, u64 puts) {
    Instance& inst = servers[tr];
    if (!wait_migrations(*inst.server)) why += "migration did not drain; ";
    inst.server->stop();
    const gh::obs::Snapshot s = inst.server->snapshot();
    if (spec.grow) check_grow(spec, s, puts, why);
    if (tr) {
      snap = s;
      snap_puts = puts;
    }
    tear_down(inst);
  };
  if (!spec.grow) {
    start_server(false, data_dir + "/plain");
    start_server(true, data_dir + "/traced");
  }
  for (u32 round = 0; round < rounds; ++round) {
    for (u32 k = 0; k < 2; ++k) {
      const bool tr = (k == 1) != (round % 2 == 1);
      if (spec.grow) start_server(tr, "");
      ShardServer& server = *servers[tr].server;
      const auto ph0 = server.live_snapshot().phases;
      const u64 t0 = gh::now_ns();
      const PhaseResult r = run_phase(server, pools, tr ? traced : plain, window_s,
                                      tr ? traced_windows : plain_windows, tr);
      if (tr) {
        spans.add("traced phase", 0, t0, gh::now_ns());
        phases += server.live_snapshot().phases - ph0;
        t += r;
      } else {
        u += r;
      }
      if (spec.grow) stop_server(tr, r.puts);
    }
  }
  if (!spec.grow) {
    stop_server(false, u.puts);
    stop_server(true, t.puts);
  }
  for (const auto& cl : traced) {
    for (const Span& sp : cl->spans) spans.add(sp.name, sp.tid, sp.start_ns, sp.end_ns);
  }
  const WindowStats us = window_stats(plain, plain_windows);
  const WindowStats ts = window_stats(traced, traced_windows);
  std::vector<double> overhead;
  for (usize i = 0; i < std::min(us.ops_per_s.size(), ts.ops_per_s.size()); ++i) {
    overhead.push_back(ratio(us.ops_per_s[i] - ts.ops_per_s[i], us.ops_per_s[i]) * 100);
  }

  fs::create_directories(data_dir + "/ladder");
  const Ladder L = run_ladder(spec, pools, data_dir + "/ladder", spans);
  fs::remove_all(data_dir + "/ladder");
  if (!spans_path.empty()) spans.write(spans_path);

  // Service self time per round trip: the untraced round trip minus the
  // slowest shard's single-threaded map time for the same slices.
  double self_sum = 0;
  u64 self_n = 0;
  for (u32 c = 0; c < kClients; ++c) {
    const auto samples = plain[c]->record.samples();
    for (u64 b = 0; b < L.slowest_map_ns.size() / kClients && b < samples.size(); ++b) {
      self_sum += static_cast<double>(samples[b].rtt_ns) -
                  static_cast<double>(L.slowest_map_ns[b * kClients + c]);
      ++self_n;
    }
  }
  u64 shards_touched = 0;
  for (const Pool& p : pools) {
    for (u64 b = 0; b < p.batches(); ++b) {
      u32 mask = 0;
      for (u32 i = 0; i < p.batch; ++i) mask |= 1u << ShardServer::shard_of(p.batch_at(b)[i].key, kShards);
      shards_touched += __builtin_popcount(mask);
    }
  }
  const u64 pool_batches = pools[0].batches() * kClients;
  const u64 ops = L.gets + L.puts;
  const auto& mig = snap.migration;
  if (!L.ok) why += "ladder replay mismatch; ";
  if (preload_failed) why += "preload failures; ";
  const bool correct = why.empty() && u.failed == 0 && t.failed == 0;

  auto all = collect(plain);
  report_latency((spec.name + " untraced").c_str(), all, u.gets, u.puts);
  std::fprintf(stderr,
               "%s: median untraced %.0f ops/s, traced %.0f ops/s over %zu rounds%s; "
               "ladder %llu ops%s%s\n",
               spec.name.c_str(), median(us.ops_per_s), median(ts.ops_per_s), overhead.size(),
               u.truncated || t.truncated ? " (latency record full)" : "",
               static_cast<unsigned long long>(ops),
               why.empty() ? "" : "; ", why.c_str());

  using gh::obs::Phase;
  print_result(correct, u.requests + t.requests, u.failed + t.failed,
               {
                   {"service.self_us_per_rtt", ratio(self_sum, self_n) / 1e3, "us"},
                   {"service.ring_wait_share", phase_share(phases, Phase::kRingWait), "ratio"},
                   {"service.shards_per_batch", ratio(shards_touched, pool_batches), "count"},
                   {"core.get_ns_per_op", ratio(L.map_get_ns, L.gets), "ns"},
                   {"core.put_ns_per_op", ratio(L.map_put_ns, L.puts), "ns"},
                   {"core.self_ns_per_op",
                    ratio(static_cast<double>(L.map_get_ns + L.map_put_ns) -
                              static_cast<double>(L.tab_get_ns + L.tab_put_ns),
                          ops),
                    "ns"},
                   {"core.migrate_help_share", phase_share(phases, Phase::kMigrateHelp), "ratio"},
                   {"core.bg_drain_share",
                    ratio(mig.bg_steps, mig.bg_steps + mig.help_steps), "ratio"},
                   {"core.stall_share", ratio(u.stalls, u.batches), "ratio"},
                   {"core.keys_migrated_per_insert",
                    spec.grow ? ratio(mig.keys_migrated, snap_puts) : 0.0, "ratio"},
                   {"core.migrations_completed", static_cast<double>(mig.completed), "count"},
                   {"hash.get_ns_per_op", ratio(L.tab_get_ns, L.gets), "ns"},
                   {"hash.put_ns_per_op", ratio(L.tab_put_ns, L.puts), "ns"},
                   {"hash.probes_per_get", ratio(L.tab_get_ops.probes, L.tab_get_ops.queries),
                    "count"},
                   {"hash.level2_probe_share",
                    ratio(L.tab_get_ops.level2_probes, L.tab_get_ops.probes), "ratio"},
                   {"hash.tag_false_positive_rate",
                    ratio(L.tab_get_ops.tag_false_positives, L.tab_get_ops.tag_probes), "ratio"},
                   {"hash.probe_share", phase_share(phases, Phase::kProbe), "ratio"},
                   {"nvm.lines_per_put", ratio(L.map_put_lines, L.puts), "count"},
                   {"nvm.fences_per_put", ratio(L.map_put_fences, L.puts), "count"},
                   {"nvm.lines_per_get", ratio(L.map_get_lines, L.gets), "count"},
                   {"nvm.persist_share", phase_share(phases, Phase::kPersist), "ratio"},
                   {"nvm.fence_share", phase_share(phases, Phase::kFence), "ratio"},
                   {"trace_overhead_pct", median(overhead), "%"},
               });
  return 0;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <lookup-uniform|update-zipf|"
               "grow-online> --seed <n> --seconds <s> --trace <0|1> --data-dir <dir> "
               "[--spans <file>]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, data_dir, spans_path;
  u64 seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (flag == "--workload") workload = val;
      else if (flag == "--seed") seed = std::stoull(val);
      else if (flag == "--seconds") seconds = std::stod(val);
      else if (flag == "--trace") trace = std::stoi(val);
      else if (flag == "--data-dir") data_dir = val;
      else if (flag == "--spans") spans_path = val;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  const auto spec = spec_for(workload);
  if (!spec) return usage(("unknown workload '" + workload + "'").c_str());
  if (seconds < 1 || (trace != 0 && trace != 1) || data_dir.empty()) {
    return usage("--seconds >= 1, --trace 0|1 and --data-dir are required");
  }
  try {
    return trace == 0 ? run_e2e(*spec, seed, seconds, data_dir)
                      : run_traced(*spec, seed, seconds, data_dir, spans_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
