// Self-tests of the benchmark's own arithmetic and checks:
//   * weighted percentiles on known data;
//   * write_amp / space_amp on a tiny run through a real ShardServer;
//   * a deliberately wrong response is counted as a failure;
//   * a full latency record ends the measured phase without a failure,
//     and only the windows that completed before it are reported.
// Exit code 0 when every check holds.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "closed_loop.hpp"
#include "service/service.hpp"

namespace {

using namespace perfbench;
using gh::service::Batch;
using gh::service::Op;
using gh::service::Request;
using gh::service::Response;
using gh::service::ShardServer;
using gh::service::Status;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void test_percentiles() {
  // Ten single-get batches of 10..100 us: nearest rank.
  std::vector<BatchSample> v;
  for (u64 i = 10; i >= 1; --i) v.push_back({i * 10'000, 1, 0});
  sort_by_rtt(v);
  expect(percentile_ns(v, Kind::kGet, 0.5) == 50'000, "p50 of 10..100 us is 50 us");
  expect(percentile_ns(v, Kind::kGet, 0.99) == 100'000, "p99 of 10..100 us is 100 us");
  expect(percentile_ns(v, Kind::kGet, 0.0) == 10'000, "p0 is the minimum");
  expect(percentile_ns(v, Kind::kPut, 0.5) == 0, "no puts gives 0");

  // Weights: one batch of 99 gets at 10 ns and one of 1 get at 1000 ns.
  std::vector<BatchSample> w{{1000, 1, 3}, {10, 99, 1}};
  sort_by_rtt(w);
  expect(percentile_ns(w, Kind::kGet, 0.99) == 10, "99 of 100 gets at 10 ns: p99 = 10");
  expect(percentile_ns(w, Kind::kGet, 0.995) == 1000, "the 100th get is the slow one");
  expect(percentile_ns(w, Kind::kPut, 0.5) == 1000, "3 of 4 puts saw 1000 ns");
  expect(percentile_ns(w, Kind::kAny, 0.96) == 10, "100 of 104 requests at 10 ns");
  expect(percentile_ns(w, Kind::kAny, 0.97) == 1000, "the 101st request is slow");

  LatencyRecord rec(2);
  expect(rec.add({1, 1, 0}) && rec.add({2, 1, 0}), "record accepts up to capacity");
  expect(!rec.add({3, 1, 0}) && rec.size() == 2, "record refuses past capacity");

  expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median");
}

void test_amplification() {
  expect(write_amp(4, 1) == 16.0, "one put flushing 4 lines writes 256 B for 16 B");
  expect(write_amp(0, 0) == 0.0, "no puts");
  expect(space_amp(u64{64} << 20, u64{2} << 20) == 2.0, "64 MiB for 2M cells of 16 B");

  // A tiny run: 1000 puts through the service, then the server's own
  // flushed-line count gives the ratio.
  gh::service::ServiceOptions so;
  so.shards = 2;
  so.map_options.initial_cells = 1 << 12;
  so.map_options.flush_latency_ns = 0;
  ShardServer server(so);
  Batch batch;
  for (u64 i = 0; i < 1000; ++i) batch.requests.push_back(put_request(key_of(i)));
  server.execute(batch);
  expect(count_failures(batch.requests, batch.responses()) == 0, "tiny preload succeeds");
  server.stop();
  const gh::obs::Snapshot snap = server.snapshot();
  const double wa = write_amp(snap.persist.lines_flushed, 1000);
  expect(snap.persist.lines_flushed > 0, "puts flush lines");
  expect(wa == static_cast<double>(snap.persist.lines_flushed) * 64 / 16000,
         "write_amp = lines * 64 / (16 * puts)");
  expect(wa >= 4.0, "every put flushes at least one 64 B line for its 16 B");
  expect(snap.size == 1000, "tiny run holds every key");
  expect(space_amp(snap.capacity * kCellBytes, snap.size) ==
             static_cast<double>(snap.capacity) / 1000,
         "space_amp of the cell array is capacity / size");
}

void test_wrong_responses_counted() {
  gh::service::ServiceOptions so;
  so.shards = 2;
  so.map_options.initial_cells = 1 << 12;
  so.map_options.flush_latency_ns = 0;
  ShardServer server(so);
  Batch batch;
  for (u64 i = 0; i < 64; ++i) batch.requests.push_back(put_request(key_of(i)));
  server.execute(batch);
  expect(count_failures(batch.requests, batch.responses()) == 0, "puts acknowledged");

  batch.clear();
  batch.requests.push_back(get_request(key_of(1)));        // right
  Request wrong = get_request(key_of(2));
  wrong.value ^= 1;                                        // expects a wrong value
  batch.requests.push_back(wrong);
  batch.requests.push_back(get_request(key_of(1000)));     // never stored: kNotFound
  server.execute(batch);
  expect(batch.responses()[0].status == Status::kOk, "stored key is found");
  expect(count_failures(batch.requests, batch.responses()) == 2,
         "a wrong value and an unexpected kNotFound are both counted");

  const Request put = put_request(key_of(3));
  const Request get = get_request(key_of(3));
  expect(!response_ok(put, Response{Status::kDegraded, 0}), "kDegraded counts");
  expect(!response_ok(get, Response{Status::kShardDown, 0}), "kShardDown counts");
  expect(!response_ok(get, Response{Status::kOk, get.value + 2}), "wrong value counts");
  expect(response_ok(get, Response{Status::kOk, get.value}), "right value passes");
  expect(response_ok(put, Response{Status::kOk, 0}), "acknowledged put passes");
  expect(count_failures(std::vector<Request>{get, get}, std::vector<Response>{}) == 2,
         "missing responses all count");
}

void test_keys() {
  std::vector<u64> keys;
  for (u64 i = 0; i < 100000; ++i) keys.push_back(key_of(i));
  std::sort(keys.begin(), keys.end());
  expect(std::adjacent_find(keys.begin(), keys.end()) == keys.end(), "keys are distinct");
  expect(keys.front() >= 1 && keys.back() <= (u64{1} << 62), "keys in [1, 2^62]");
  expect(value_of(keys[0]) != 0 && value_of(keys[0]) == value_of(keys[0]), "values pure, non-zero");
}

}  // namespace

void test_window_cutoff() {
  // Window 0 holds two batches, window 1 one; only window 0 completed.
  Clients clients;
  clients.push_back(std::make_unique<Client>(8));
  Client& cl = *clients[0];
  expect(cl.record.add({10'000, 4, 0, 0}) && cl.record.add({30'000, 4, 0, 0}) &&
             cl.record.add({99'000, 4, 0, 1}) && cl.record.add({99'000, 4, 0, kNoWindow}),
         "samples recorded");
  const WindowStats st = window_stats(clients, {{2.0, 0.5}});
  expect(st.ops_per_s.size() == 1, "one completed window");
  expect(st.ops_per_s[0] == 4.0, "8 requests in a 2 s window");
  expect(st.get_p50_us[0] == 10.0 && st.get_p90_us[0] == 30.0,
         "percentiles over the completed window only");
  expect(st.cpu_us_per_op[0] == 0.5e6 / 8, "cpu per request of the window");
}

void test_full_record() {
  gh::service::ServiceOptions so;
  so.shards = 2;
  so.map_options.initial_cells = 1 << 12;
  so.map_options.flush_latency_ns = 0;
  ShardServer server(so);
  Batch preload;
  for (u64 i = 0; i < 64; ++i) preload.requests.push_back(put_request(key_of(i)));
  server.execute(preload);
  std::vector<Pool> pools(2);
  for (u32 c = 0; c < 2; ++c) {
    pools[c].batch = 8;
    for (u64 i = 0; i < 64; ++i) pools[c].reqs.push_back(get_request(key_of((i + c) % 64)));
  }

  // A record of 50 round trips fills long before the first 1 s window of
  // a 30 s phase ends: the phase stops early, reports no window and
  // counts no failure.
  Clients small;
  for (u32 c = 0; c < 2; ++c) small.push_back(std::make_unique<Client>(50));
  std::vector<Window> windows;
  const PhaseResult r = run_phase(server, pools, small, 30, windows, false);
  expect(r.truncated >= 1, "a full record is reported");
  expect(r.failed == 0, "a full record is not a failure");
  expect(r.wall_s < 5, "the phase ends when a record fills, not at its deadline");
  expect(windows.empty() && window_stats(small, windows).ops_per_s.empty(),
         "no window completed before the record filled");

  // An epoch with no room for its pool fills the record too and leaves
  // no window; has_room says so in advance.
  expect(!has_room(small, pools), "a full record has no room for an epoch");
  Clients roomy;
  for (u32 c = 0; c < 2; ++c) roomy.push_back(std::make_unique<Client>(pools[c].batches()));
  expect(has_room(roomy, pools), "a record of one pool has room for one epoch");
  const PhaseResult e = run_phase(server, pools, roomy, 0, windows, false);
  expect(e.truncated == 0 && e.failed == 0 && windows.size() == 1, "a whole epoch is one window");
  expect(!has_room(roomy, pools), "and then the record is full");

  // A record with room measures its whole window.
  Clients big;
  for (u32 c = 0; c < 2; ++c) big.push_back(std::make_unique<Client>(usize{1} << 20));
  windows.clear();
  const PhaseResult w = run_phase(server, pools, big, 1, windows, false);
  expect(w.truncated == 0 && w.failed == 0, "room for the whole phase");
  expect(windows.size() == 1 && window_stats(big, windows).ops_per_s[0] > 0,
         "one whole window with its throughput");
  server.stop();
}

int main() {
  test_percentiles();
  test_amplification();
  test_wrong_responses_counted();
  test_keys();
  test_window_cutoff();
  test_full_record();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
