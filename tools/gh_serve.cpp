// gh_serve — run the sharded KV service and drive a YCSB burst at it.
//
// One hermetic process: N shard workers behind their ingest rings, M
// client threads round-tripping request batches. Prints aggregate QPS
// and p50/p99/p999 end-to-end latency per op kind from the service-level
// obs histograms, then the per-shard roll-up. The CI fast lane runs a
// 2-second YCSB-C burst of this and checks the reported p99 is nonzero.
//
// Observability surfaces (all no-ops — no file is created — under
// GH_OBS_OFF):
//   --trace-mode=off|sampled|full  request tracing (spans per batch)
//   --trace-out=PATH    Chrome trace_event JSON of the drained spans
//   --spans-out=PATH    raw span file ("GHSPANS1", for gh_stats --spans)
//   --stats-file=PATH   live stats: a background thread ticks a windowed
//                       TimeSeries off live_snapshot() every
//                       --stats-interval-ms and atomically rewrites PATH
//                       (tmp + rename) with snapshot + timeseries JSON —
//                       the file gh_top attaches to.
//
//   gh_serve [--shards=4] [--clients=4] [--workload=a|b|c] [--seconds=2]
//            [--ops=N per client, overrides --seconds] [--keys=65536]
//            [--batch=64] [--window=64] [--ring=1024] [--naive]
//            [--data_dir=PATH] [--zipf=0.99] [--seed=42] [--flush-ns=0]
//            [--trace-mode=off] [--trace-shift=6] [--trace-out=PATH]
//            [--spans-out=PATH] [--stats-file=PATH] [--stats-interval-ms=500]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "core/group_hash_map.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "service/service.hpp"
#include "service/ycsb_driver.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

namespace {

gh::u64 wall_ms() {
  return static_cast<gh::u64>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out);
}

/// Atomic rewrite: readers (gh_top) never see a half-written file.
bool write_file_atomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  if (!write_file(tmp, body)) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gh;
  const Cli cli(argc, argv);

  service::ServiceOptions sopts;
  sopts.shards = static_cast<u32>(cli.get_u64("shards", 4));
  sopts.ring_capacity = static_cast<u32>(cli.get_u64("ring", 1024));
  sopts.batch_window = static_cast<u32>(cli.get_u64("window", 64));
  sopts.naive = cli.has("naive");
  sopts.data_dir = cli.get_or("data_dir", "");
  sopts.trace_mode = obs::trace_mode_from(cli.get_or("trace-mode", "off"));
  sopts.trace_sample_shift =
      static_cast<u32>(cli.get_u64("trace-shift", obs::kTraceSampleShift));
  GH_CHECK_MSG(sopts.shards >= 1, "--shards must be >= 1");
  GH_CHECK_MSG(sopts.batch_window >= 1, "--window must be >= 1");

  service::DriverOptions dopts;
  dopts.clients = static_cast<u32>(cli.get_u64("clients", 4));
  dopts.batch = static_cast<u32>(cli.get_u64("batch", 64));
  dopts.keys = cli.get_u64("keys", 1u << 16);
  GH_CHECK_MSG(dopts.clients >= 1, "--clients must be >= 1");
  GH_CHECK_MSG(dopts.batch >= 1, "--batch must be >= 1");
  GH_CHECK_MSG(dopts.keys >= 1, "--keys must be >= 1");
  dopts.ops_per_client = cli.get_u64("ops", 0);
  dopts.seconds = dopts.ops_per_client > 0
                      ? 0
                      : static_cast<double>(cli.get_u64("seconds", 2));
  dopts.seed = cli.get_u64("seed", 42);
  const std::string workload = cli.get_or("workload", "c");
  dopts.mix = service::mix_for(workload);
  dopts.zipf_theta = std::stod(cli.get_or("zipf", "0.99"));

  u64 cells = 64;
  while (cells < dopts.keys * 2 / sopts.shards) cells <<= 1;
  sopts.map_options.initial_cells = cells;
  // Emulated PM write latency per flushed line (0 = DRAM speed). Raising
  // it shifts the phase attribution from ring_wait/probe toward
  // persist/fence — visible live in gh_top.
  sopts.map_options.flush_latency_ns = cli.get_u64("flush-ns", 0);

  // Observability outputs. Everything here is gated on obs::kEnabled so
  // a GH_OBS_OFF build creates no trace/span/stats file at all (the CI
  // obs-off lane asserts exactly that).
  const std::string trace_out = cli.get_or("trace-out", "");
  const std::string spans_out = cli.get_or("spans-out", "");
  const std::string stats_file = cli.get_or("stats-file", "");
  const u64 stats_interval_ms = cli.get_u64("stats-interval-ms", 500);

  std::cout << "gh_serve: " << sopts.shards << " shards, " << dopts.clients
            << " clients, YCSB-" << dopts.mix.name << ", batch " << dopts.batch
            << ", " << format_count(dopts.keys) << " keys"
            << (sopts.naive ? ", NAIVE one-op-per-request" : ", batched ingest")
            << (sopts.trace_mode != obs::TraceMode::kOff
                    ? std::string(", tracing ") + obs::trace_mode_name(sopts.trace_mode)
                    : std::string())
            << "\n";

  service::ShardServer server(sopts);

  // Live stats thread: tick the windowed TimeSeries off live_snapshot()
  // and atomically rewrite the stats file. Short sleep slices keep the
  // shutdown latency low even with long intervals.
  obs::TimeSeries timeseries(/*max_windows=*/120, stats_interval_ms);
  std::atomic<bool> stats_stop{false};
  std::thread stats_thread;
  if (obs::kEnabled && !stats_file.empty()) {
    stats_thread = std::thread([&] {
      u64 next = wall_ms();
      while (!stats_stop.load(std::memory_order_acquire)) {
        const u64 now = wall_ms();
        if (now >= next) {
          obs::Snapshot live = server.live_snapshot();
          timeseries.tick(live, now);
          live.timeseries = timeseries.gauges();
          std::string body = "{\"schema\":\"gh.obs.stats.v1\",\"snapshot\":";
          body += obs::export_json(live);
          body += ",\"timeseries\":";
          body += obs::export_timeseries_json(timeseries);
          body += "}\n";
          write_file_atomic(stats_file, body);
          next = now + (stats_interval_ms == 0 ? 1 : stats_interval_ms);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  const service::DriverReport r = service::run_ycsb(server, dopts);

  if (stats_thread.joinable()) {
    stats_stop.store(true, std::memory_order_release);
    stats_thread.join();
  }

  std::cout << "aggregate: qps=" << format_double(r.qps, 0) << " ops="
            << r.ops << " secs=" << format_double(r.seconds, 3)
            << " ok=" << r.ok << " not_found=" << r.not_found
            << " degraded=" << r.degraded << " shard_down=" << r.shard_down << "\n";

  const auto show = [](const char* name, const obs::HistogramSnapshot& h) {
    if (h.count == 0) return;
    std::cout << "latency[" << name << "]: count=" << h.count
              << " p50=" << format_double(h.p50_ns, 0)
              << " p99=" << format_double(h.p99_ns, 0)
              << " p999=" << format_double(h.p999_ns, 0) << " (ns)\n";
  };
  show("get", r.latency.find);
  show("put", r.latency.insert);
  show("erase", r.latency.erase);

  server.stop();

  // Drain the span rings once, after the workers quiesced, and feed
  // both export surfaces from the same drain.
  if (obs::kEnabled && (!trace_out.empty() || !spans_out.empty())) {
    const std::vector<obs::SpanRecord> spans =
        obs::SpanCollector::global().drain_all();
    std::cout << "spans: " << spans.size() << " drained, "
              << obs::SpanCollector::global().dropped() << " dropped\n";
    if (!spans_out.empty()) {
      if (!obs::write_spans_file(spans_out, spans, obs::ticks_per_ns())) {
        std::cerr << "gh_serve: cannot write " << spans_out << "\n";
        return 1;
      }
    }
    if (!trace_out.empty()) {
      u64 base = 0;
      for (const obs::SpanRecord& s : spans) {
        if (base == 0 || s.t_start < base) base = s.t_start;
      }
      std::vector<obs::TraceEvent> events;
      obs::append_span_trace_events(spans, obs::ticks_per_ns(), base, events);
      if (!write_file(trace_out, obs::render_trace_json(std::move(events)))) {
        std::cerr << "gh_serve: cannot write " << trace_out << "\n";
        return 1;
      }
    }
  }

  const obs::Snapshot snap = server.snapshot();
  std::cout << "shards: size=" << snap.size << " capacity=" << snap.capacity
            << " load=" << format_double(snap.load_factor, 3)
            << " expansions=" << snap.lifecycle.expansions
            << " fences=" << snap.persist.fences << "\n";
  const obs::HandoffSnapshot& h = snap.handoff;
  const double rtts = h.round_trips ? static_cast<double>(h.round_trips) : 1.0;
  std::cout << "handoff: round_trips=" << h.round_trips << " worker_parks/rtt="
            << format_double(static_cast<double>(h.worker_parks) / rtts, 3)
            << " doorbell_wakes/rtt="
            << format_double(static_cast<double>(h.doorbell_wakes) / rtts, 3)
            << " client_parks/rtt="
            << format_double(static_cast<double>(h.client_parks) / rtts, 3) << "\n";
  for (const auto& b : snap.per_shard) {
    std::cout << "  shard" << b.shard << ": size=" << b.size
              << " expansions=" << b.expansions
              << (b.degraded ? " DEGRADED" : "") << "\n";
  }
  return 0;
}
