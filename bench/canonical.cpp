// Canonical perf-trajectory harness.
//
// One binary, fixed seeds and sizes, machine-readable output: every PR
// runs this and commits the resulting BENCH_PR<N>.json at the repo root;
// tools/bench_check diffs the newest file against its predecessor and
// fails CI on a >10% regression of any pinned metric. The point is not
// absolute numbers (CI machines vary) but the *trajectory* — a change
// that silently halves batched-get throughput shows up as a ratio shift
// in the same run.
//
// Phases (all single map unless noted):
//   insert / query-hit / query-miss / delete  — scalar ns/op
//   batch_get / batch_put / batch_erase       — batched ns/op + speedups
//   fences per op, scalar vs batched put      — the §3.3 coalescing win
//   concurrent_get_xN                         — read scaling, 1/2/4 threads
//   recovery                                  — Algorithm 4 wall time
//   service_ycsbc                             — sharded front-end QPS, p99,
//                                               batched-vs-naive ingest ratio
//
// --smoke shrinks everything for the CI fast lane (numbers still emitted,
// ratios still sane); --out=<path> overrides the JSON destination.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "core/concurrent_map.hpp"
#include "core/group_hash_map.hpp"
#include "hash/tag_probe.hpp"
#include "obs/span.hpp"
#include "service/service.hpp"
#include "service/ycsb_driver.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ns_per_op(Clock::time_point t0, Clock::time_point t1, gh::u64 ops) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
         static_cast<double>(ops);
}

struct Metric {
  std::string name;
  double value = 0;
  /// "lower" = regression when it grows >10%, "higher" = when it shrinks.
  const char* direction = "lower";
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gh;
  using namespace gh::bench;
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const u64 nkeys = cli.get_u64("keys", smoke ? (1u << 14) : (1u << 20));
  const usize batch = static_cast<usize>(cli.get_u64("batch", 256));
  const u64 seed = 42;  // pinned: the trajectory only means something on fixed inputs
  const std::string out_path = cli.get_or("out", "BENCH_PR13.json");

  BenchEnv env = BenchEnv::from_env();
  env.seed = seed;
  print_banner("Canonical perf trajectory", "pinned-seed harness gating every PR", env);

  // Machine-speed calibration: a fixed dependent-chain LCG loop whose ns/iter
  // tracks how fast this box runs serial integer work *right now*. Emitted in
  // the JSON config so tools/bench_check can rescale absolute-time metrics
  // between runs recorded under different machine conditions (shared CI cores
  // drift 10-30% run to run) instead of flagging the drift as a regression.
  double calibration_ns = 0;
  {
    constexpr u64 kCalIters = 1u << 25;
    u64 acc = 0x9e3779b97f4a7c15ull;
    const auto c0 = Clock::now();
    for (u64 i = 0; i < kCalIters; ++i)
      acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    const auto c1 = Clock::now();
    do_not_optimize(acc);
    calibration_ns = ns_per_op(c0, c1, kCalIters);
  }

  std::cout << "keys " << nkeys << (smoke ? " (smoke)" : "") << ", batch " << batch
            << ", simd level " << static_cast<int>(hash::active_simd_level())
            << ", calibration " << calibration_ns << " ns/iter\n\n";

  MapOptions opts;
  u64 cells = 64;
  while (cells < nkeys * 2) cells <<= 1;
  opts.initial_cells = cells;
  opts.flush_latency_ns = 0;

  Xoshiro256 rng(seed);
  std::vector<u64> keys(nkeys), values(nkeys), misses(nkeys);
  for (u64 i = 0; i < nkeys; ++i) keys[i] = (rng.next() >> 1) | 1;
  for (u64 i = 0; i < nkeys; ++i) values[i] = i + 1;
  for (u64 i = 0; i < nkeys; ++i) misses[i] = (rng.next() >> 1) | 1;
  std::vector<u64> lookups = keys;
  for (u64 i = nkeys - 1; i > 0; --i) std::swap(lookups[i], lookups[rng.next_below(i + 1)]);

  std::vector<Metric> metrics;

  // --- scalar phases ---
  auto map = GroupHashMap::create_in_memory(opts);
  u64 fences0 = map.snapshot().persist.fences;
  auto t0 = Clock::now();
  for (u64 i = 0; i < nkeys; ++i) map.put(keys[i], values[i]);
  auto t1 = Clock::now();
  const double insert_ns = ns_per_op(t0, t1, nkeys);
  const double insert_fences = static_cast<double>(map.snapshot().persist.fences - fences0) /
                               static_cast<double>(nkeys);
  metrics.push_back({"insert_ns_per_op", insert_ns});
  metrics.push_back({"insert_fences_per_op", insert_fences});

  // --- sampled tracing overhead (same insert loop, thread trace installed
  // on every 2^kTraceSampleShift-th op, the service's sampled admission
  // rate). Clamped to a small floor: the honest value hovers near zero and
  // a ratio diff against ~0 would flag pure noise as a regression.
  {
    auto tmap = GroupHashMap::create_in_memory(opts);
    const u64 mask = (u64{1} << obs::kTraceSampleShift) - 1;
    t0 = Clock::now();
    for (u64 i = 0; i < nkeys; ++i) {
      if ((i & mask) == 0) {
        obs::set_thread_trace(obs::SpanCollector::global().next_trace_id(),
                              /*parent_span=*/0, /*sampled=*/true);
        tmap.put(keys[i], values[i]);
        obs::clear_thread_trace();
      } else {
        tmap.put(keys[i], values[i]);
      }
    }
    t1 = Clock::now();
    const double traced_ns = ns_per_op(t0, t1, nkeys);
    const double pct =
        std::max(0.01, insert_ns > 0 ? 100.0 * (traced_ns - insert_ns) / insert_ns : 0.0);
    metrics.push_back({"trace_sampled_overhead_pct", pct});
  }

  u64 hits = 0;
  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; ++i) hits += map.get(lookups[i]).has_value();
  t1 = Clock::now();
  do_not_optimize(hits);
  GH_CHECK(hits == nkeys);
  const double get_ns = ns_per_op(t0, t1, nkeys);
  metrics.push_back({"query_hit_ns_per_op", get_ns});

  u64 neg = 0;
  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; ++i) neg += map.get(misses[i]).has_value();
  t1 = Clock::now();
  do_not_optimize(neg);
  metrics.push_back({"query_miss_ns_per_op", ns_per_op(t0, t1, nkeys)});

  // --- batched phases (fresh map for batch_put so the work matches) ---
  std::vector<std::optional<u64>> out(batch);
  u64 bhits = 0;
  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; i += batch) {
    const usize n = std::min<usize>(batch, nkeys - i);
    map.get_batch(std::span(lookups).subspan(i, n), std::span(out).first(n));
    for (usize w = 0; w < n; ++w) bhits += out[w].has_value();
  }
  t1 = Clock::now();
  do_not_optimize(bhits);
  GH_CHECK(bhits == nkeys);
  const double batch_get_ns = ns_per_op(t0, t1, nkeys);
  metrics.push_back({"batch_get_ns_per_op", batch_get_ns});
  metrics.push_back({"batch_get_speedup", get_ns / batch_get_ns, "higher"});

  auto bmap = GroupHashMap::create_in_memory(opts);
  fences0 = bmap.snapshot().persist.fences;
  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; i += batch) {
    const usize n = std::min<usize>(batch, nkeys - i);
    bmap.put_batch(std::span(keys).subspan(i, n), std::span(values).subspan(i, n));
  }
  t1 = Clock::now();
  const double batch_put_ns = ns_per_op(t0, t1, nkeys);
  const double batch_put_fences =
      static_cast<double>(bmap.snapshot().persist.fences - fences0) /
      static_cast<double>(nkeys);
  metrics.push_back({"batch_put_ns_per_op", batch_put_ns});
  metrics.push_back({"batch_put_fences_per_op", batch_put_fences});
  metrics.push_back({"batch_put_fence_reduction", insert_fences / batch_put_fences, "higher"});

  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; i += batch) {
    const usize n = std::min<usize>(batch, nkeys - i);
    bmap.erase_batch(std::span(keys).subspan(i, n));
  }
  t1 = Clock::now();
  GH_CHECK(bmap.size() == 0);
  metrics.push_back({"batch_erase_ns_per_op", ns_per_op(t0, t1, nkeys)});

  // --- scalar delete (on the still-full scalar map) ---
  t0 = Clock::now();
  for (u64 i = 0; i < nkeys; ++i) map.erase(keys[i]);
  t1 = Clock::now();
  GH_CHECK(map.size() == 0);
  metrics.push_back({"delete_ns_per_op", ns_per_op(t0, t1, nkeys)});

  // --- concurrent read scaling ---
  {
    ConcurrentGroupHashMap cmap(/*shards=*/16, opts);
    for (u64 i = 0; i < nkeys; ++i) cmap.put(keys[i], values[i]);
    for (const u32 nthreads : {1u, 2u, 4u}) {
      const u64 per = nkeys / nthreads;
      std::atomic<u64> total{0};
      t0 = Clock::now();
      std::vector<std::thread> workers;
      for (u32 t = 0; t < nthreads; ++t) {
        workers.emplace_back([&, t] {
          u64 local = 0;
          for (u64 i = t * per; i < (t + 1) * per; ++i) {
            local += cmap.get(lookups[i]).has_value();
          }
          total += local;
        });
      }
      for (auto& w : workers) w.join();
      t1 = Clock::now();
      do_not_optimize(total.load());
      metrics.push_back({"concurrent_get_x" + std::to_string(nthreads) + "_ns_per_op",
                         ns_per_op(t0, t1, per * nthreads)});
    }
  }

  // --- recovery (Algorithm 4 over a dirty full table) ---
  {
    auto rmap = GroupHashMap::create_in_memory(opts);
    for (u64 i = 0; i < nkeys; ++i) rmap.put(keys[i], values[i]);
    t0 = Clock::now();
    const auto report = rmap.recover_now();
    t1 = Clock::now();
    do_not_optimize(report);
    metrics.push_back(
        {"recovery_ms",
         static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count()) /
             1000.0});
  }

  // --- resize stall: blocking expand vs online incremental migration ---
  // Insert into a deliberately undersized map and time every put
  // individually; the worst single op IS the resize story. Blocking
  // expand() pays a full format+rehash inside one unlucky put; the
  // online path amortizes the rehash across help-along steps, so its
  // worst op is bounded by migrate_groups_per_op (plus one target
  // format at start).
  {
    const u64 rkeys = smoke ? (1u << 14) : (1u << 18);
    MapOptions ropts;
    ropts.initial_cells = 1024;
    ropts.flush_latency_ns = 0;
    const auto worst_put_us = [&](bool online) {
      ropts.online_resize = online;
      auto rmap = GroupHashMap::create_in_memory(ropts);
      double worst_ns = 0;
      for (u64 i = 0; i < rkeys; ++i) {
        const auto p0 = Clock::now();
        rmap.put(keys[i], values[i]);
        const auto p1 = Clock::now();
        worst_ns = std::max(worst_ns, ns_per_op(p0, p1, 1));
      }
      GH_CHECK(rmap.size() == rkeys);
      return worst_ns / 1000.0;
    };
    const double blocking_us = worst_put_us(false);
    const double online_us = worst_put_us(true);
    metrics.push_back({"resize_max_stall_blocking_us", blocking_us});
    metrics.push_back({"resize_max_stall_us", online_us});
    metrics.push_back(
        {"resize_stall_improvement", online_us > 0 ? blocking_us / online_us : 0, "higher"});
  }

  // --- service front-end (YCSB-C through the sharded ingest path) ---
  {
    service::ServiceOptions sopts;
    sopts.shards = 4;
    service::DriverOptions dopts;
    dopts.clients = 4;
    dopts.batch = 64;
    dopts.keys = smoke ? (1u << 13) : (1u << 16);
    dopts.ops_per_client = smoke ? 20'000 : 200'000;
    dopts.seed = seed;
    dopts.mix = service::mix_for("c");
    u64 scells = 64;
    while (scells < dopts.keys * 2 / sopts.shards) scells <<= 1;
    sopts.map_options.initial_cells = scells;
    sopts.map_options.flush_latency_ns = 0;

    const auto run_service = [&](bool naive) {
      sopts.naive = naive;
      service::ShardServer server(sopts);
      const service::DriverReport r = service::run_ycsb(server, dopts);
      server.stop();
      return r;
    };
    const service::DriverReport batched = run_service(false);
    const service::DriverReport naive = run_service(true);
    metrics.push_back({"service_ycsbc_qps", batched.qps, "higher"});
    metrics.push_back({"service_ycsbc_get_p99_ns", batched.latency.find.p99_ns});
    // The batched/naive speedup is printed for context but no longer
    // pinned: an A/B of identical binaries across box states moved the
    // ratio well past the gate threshold (the two service runs schedule
    // independently, and a ratio cannot be rescaled by the serial
    // calibration loop). Pinning the naive QPS absolutely keeps the
    // same regression coverage — both legs gate, both rescale.
    metrics.push_back({"service_naive_qps", naive.qps, "higher"});
    std::cout << "service batched/naive speedup: "
              << format_double(naive.qps > 0 ? batched.qps / naive.qps : 0, 2) << "x\n";

    // Forced mid-run resize: same driver, YCSB-B, but shards start 64
    // cells deep with online resize on — every shard migrates several
    // times while serving. The pinned p99 is the tail clients actually
    // see during a resize, the number the tentpole exists to protect.
    sopts.naive = false;
    sopts.map_options.initial_cells = 64;
    sopts.map_options.online_resize = true;
    dopts.mix = service::mix_for("b");
    service::ShardServer resize_server(sopts);
    const service::DriverReport under_resize = service::run_ycsb(resize_server, dopts);
    resize_server.stop();
    const obs::Snapshot resize_snap = resize_server.snapshot();
    GH_CHECK(resize_snap.migration.started > 0);  // the run must actually resize
    metrics.push_back({"service_resize_ycsbb_qps", under_resize.qps, "higher"});
    metrics.push_back({"service_resize_ycsbb_get_p99_ns", under_resize.latency.find.p99_ns});
  }

  // --- report ---
  TablePrinter t({"metric", "value", "direction"});
  for (const Metric& m : metrics) {
    t.add_row({m.name, format_double(m.value, 3), m.direction});
  }
  t.print(std::cout);

  std::ofstream json(out_path);
  json << "{\n  \"bench\": \"canonical\",\n  \"version\": 1,\n";
  json << "  \"config\": {\"keys\": " << nkeys << ", \"batch\": " << batch
       << ", \"seed\": " << seed << ", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"simd_level\": " << static_cast<int>(hash::active_simd_level())
       << ", \"calibration_ns\": " << calibration_ns << "},\n";
  json << "  \"metrics\": {\n";
  for (usize i = 0; i < metrics.size(); ++i) {
    json << "    \"" << metrics[i].name << "\": {\"value\": "
         << format_double(metrics[i].value, 6) << ", \"direction\": \""
         << metrics[i].direction << "\"}" << (i + 1 < metrics.size() ? "," : "") << "\n";
  }
  json << "  }\n}\n";
  json.close();
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
