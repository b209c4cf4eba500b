// The benchmark's measured closed loop: client threads that each keep one
// batch in flight against a ShardServer, the windows the run is cut
// into, and the per-window figures computed from the clients' latency
// records. Shared by perfbench.cpp and selftest.cpp.
#pragma once

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench_core.hpp"
#include "service/service.hpp"
#include "util/clock.hpp"

namespace perfbench {

/// One span the benchmark records around a call into the library.
struct Span {
  const char* name = "";
  u32 tid = 0;
  u64 start_ns = 0;
  u64 end_ns = 0;
};

/// One client's request stream, cut into batches and cycled.
struct Pool {
  std::vector<gh::service::Request> reqs;
  u32 batch = 0;
  [[nodiscard]] u64 batches() const { return reqs.size() / batch; }
  [[nodiscard]] const gh::service::Request* batch_at(u64 b) const {
    return &reqs[(b % batches()) * batch];
  }
};

struct Client {
  explicit Client(usize capacity) : record(capacity) {}
  LatencyRecord record;
  std::vector<Span> spans;
  u64 failed = 0;
  u64 next_batch = 0;  ///< where a timed phase continues the pool
  u64 end_ns = 0;
  bool truncated = false;
};

using Clients = std::vector<std::unique_ptr<Client>>;

/// True when every client's record can take one more whole pass of its
/// pool (a grow epoch), so an epoch never ends early.
inline bool has_room(const Clients& clients, const std::vector<Pool>& pools) {
  for (usize c = 0; c < clients.size(); ++c) {
    if (clients[c]->record.capacity() - clients[c]->record.size() < pools[c].batches()) {
      return false;
    }
  }
  return true;
}

struct PhaseResult {
  u64 requests = 0;
  u64 gets = 0;
  u64 puts = 0;
  u64 failed = 0;
  u64 batches = 0;
  u64 stalls = 0;     ///< round trips longer than kStallNs
  u64 truncated = 0;  ///< clients whose latency record filled
  double wall_s = 0;
  double cpu_s = 0;
};

inline PhaseResult& operator+=(PhaseResult& a, const PhaseResult& b) {
  a.requests += b.requests;
  a.gets += b.gets;
  a.puts += b.puts;
  a.failed += b.failed;
  a.batches += b.batches;
  a.stalls += b.stalls;
  a.truncated += b.truncated;
  a.wall_s += b.wall_s;
  a.cpu_s += b.cpu_s;
  return a;
}

/// Wall and process CPU time of one measurement window. Timed phases are
/// cut into 1 s windows, a grow epoch is one window; the time metrics
/// are medians over windows, so one disturbed second moves a run's figure
/// by at most one rank.
struct Window {
  double wall_s = 0;
  double cpu_s = 0;
};

inline constexpr u64 kStallNs = 1'000'000;
inline constexpr u64 kWindowNs = 1'000'000'000;
/// Window tag of a round trip that ended after a phase's last whole window.
inline constexpr gh::u16 kNoWindow = 0xffff;

inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Runs every client against `server`. With `seconds` > 0 each client
/// continues its pool from where its previous phase stopped until the
/// deadline, and the phase appends one Window per whole second; otherwise
/// each client runs its pool once (a grow epoch) and the phase appends
/// one Window. Samples append to each client's record, tagged with their
/// window.
///
/// When a client's record fills, every client stops at its next round
/// trip and the phase keeps only the windows that ended before that, so
/// a faster program measures fewer windows instead of failing.
inline PhaseResult run_phase(gh::service::ShardServer& server, const std::vector<Pool>& pools,
                             Clients& clients, double seconds, std::vector<Window>& windows,
                             bool record_spans) {
  const bool timed = seconds > 0;
  const u64 whole = timed ? static_cast<u64>(seconds * 1e9) / kWindowNs : 1;
  const u64 base = windows.size();
  std::atomic<bool> go{false};
  std::atomic<u64> start_ns{0};
  std::atomic<u64> stop_ns{0};  ///< when the first record filled; 0 = never
  std::vector<usize> first_sample(clients.size());
  std::vector<std::thread> threads;
  for (usize c = 0; c < clients.size(); ++c) {
    first_sample[c] = clients[c]->record.size();
    threads.emplace_back([&, c] {
      Client& cl = *clients[c];
      const Pool& pool = pools[c];
      gh::service::Batch batch;
      batch.requests.reserve(pool.batch);
      go.wait(false);
      const u64 start = start_ns.load();
      const u64 deadline = timed ? start + static_cast<u64>(seconds * 1e9) : ~u64{0};
      const u64 n = timed ? ~u64{0} : pool.batches();
      u64 b = timed ? cl.next_batch : 0;
      while (b < n && stop_ns.load(std::memory_order_relaxed) == 0) {
        const gh::service::Request* src = pool.batch_at(b++);
        batch.requests.assign(src, src + pool.batch);
        const u64 t0 = gh::now_ns();
        server.execute(batch);
        const u64 t1 = gh::now_ns();
        u32 puts = 0;
        for (const auto& r : batch.requests) puts += r.op == gh::service::Op::kPut;
        if (record_spans && cl.spans.size() < cl.spans.capacity()) {
          cl.spans.push_back({"ShardServer::execute", static_cast<u32>(c + 1), t0, t1});
        }
        cl.failed += count_failures(batch.requests, batch.responses());
        const u64 w = timed ? (t1 - start) / kWindowNs : 0;
        const gh::u16 tag = w < whole ? static_cast<gh::u16>(base + w) : kNoWindow;
        if (!cl.record.add({t1 - t0, pool.batch - puts, static_cast<gh::u16>(puts), tag})) {
          u64 none = 0;
          stop_ns.compare_exchange_strong(none, t1);
          cl.truncated = true;
          break;
        }
        if (t1 >= deadline) break;
      }
      cl.next_batch = b;
      cl.end_ns = gh::now_ns();
    });
  }
  const double cpu0 = cpu_seconds();
  const u64 start = gh::now_ns();
  start_ns.store(start);
  go.store(true);
  go.notify_all();
  if (timed) {
    // Sample the process CPU time at every window boundary; a window
    // counts only if no record filled before it ended.
    double cpu_prev = cpu0;
    for (u64 w = 1; w <= whole; ++w) {
      const u64 boundary = start + w * kWindowNs;
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(boundary)));
      const u64 stop = stop_ns.load();
      if (stop != 0 && stop < boundary) break;
      const double cpu = cpu_seconds();
      windows.push_back({static_cast<double>(kWindowNs) / 1e9, cpu - cpu_prev});
      cpu_prev = cpu;
    }
  }
  for (auto& t : threads) t.join();
  PhaseResult r;
  r.cpu_s = cpu_seconds() - cpu0;
  u64 end = 0;
  for (usize c = 0; c < clients.size(); ++c) {
    Client& cl = *clients[c];
    end = std::max(end, cl.end_ns);
    r.truncated += cl.truncated;
    cl.truncated = false;
    r.failed += cl.failed;
    cl.failed = 0;
    const auto samples = cl.record.samples().subspan(first_sample[c]);
    for (const BatchSample& s : samples) {
      r.gets += s.gets;
      r.puts += s.puts;
      r.stalls += s.rtt_ns > kStallNs;
    }
    r.batches += samples.size();
  }
  r.requests = r.gets + r.puts;
  r.wall_s = static_cast<double>(end - start) / 1e9;
  if (!timed && stop_ns.load() == 0) windows.push_back({r.wall_s, r.cpu_s});
  return r;
}

/// The time metrics of each window, exact over the round trips that
/// completed in it. Samples tagged with a window past `windows` (cut
/// off when a record filled) or with kNoWindow are left out.
struct WindowStats {
  std::vector<double> ops_per_s;
  std::vector<double> get_p50_us;
  std::vector<double> get_p90_us;
  std::vector<double> cpu_us_per_op;
};

inline WindowStats window_stats(const Clients& clients, const std::vector<Window>& windows) {
  std::vector<std::vector<BatchSample>> by_window(windows.size());
  for (const auto& cl : clients) {
    for (const BatchSample& s : cl->record.samples()) {
      if (s.window < windows.size()) by_window[s.window].push_back(s);
    }
  }
  WindowStats st;
  for (usize w = 0; w < windows.size(); ++w) {
    auto& v = by_window[w];
    u64 n = 0;
    for (const BatchSample& s : v) n += weight(s, Kind::kAny);
    sort_by_rtt(v);
    st.ops_per_s.push_back(ratio(static_cast<double>(n), windows[w].wall_s));
    st.get_p50_us.push_back(static_cast<double>(percentile_ns(v, Kind::kGet, 0.5)) / 1e3);
    st.get_p90_us.push_back(static_cast<double>(percentile_ns(v, Kind::kGet, 0.9)) / 1e3);
    st.cpu_us_per_op.push_back(ratio(windows[w].cpu_s * 1e6, static_cast<double>(n)));
  }
  return st;
}

}  // namespace perfbench
