// Spin-then-park hand-off between execute() and the shard workers.
//
// Each side spins for a bounded budget and then sleeps on a futex word,
// and a waker enters the kernel only when the other side flagged itself
// parked. A lost wakeup shows up as a hang, so every test here drives
// one of the transitions where a wake could be missed: a worker that
// parked before the next batch, a client whose visit outlasts its spin,
// an oversubscribed process where nobody spins, and stop()/restart_shard()
// against spinning and parked workers. Idle phases wait on the hand-off
// counters (observed progress), never on wall time alone.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "nvm/crash_point.hpp"
#include "nvm/fault_fs.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace gh::service {
namespace {

using Clock = std::chrono::steady_clock;

ServiceOptions handoff_options(u32 shards) {
  ServiceOptions o;
  o.shards = shards;
  o.map_options.initial_cells = 1u << 10;
  o.map_options.group_size = 16;
  o.map_options.flush_latency_ns = 0;
  return o;
}

/// Poll `cond` until it holds or 10 s pass.
template <typename Cond>
bool eventually(Cond cond) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!cond()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

u64 worker_parks(const ShardServer& server) {
  return server.live_snapshot().handoff.worker_parks;
}

/// Wait until the workers have parked `at_least` times in total and then
/// not once more for 20 ms — a thousand spin budgets: every worker is
/// asleep. Pass a count read before the last batch plus the shards that
/// batch touched, so the park after each worker's last visit is counted.
void settle_parked(const ShardServer& server, u64 at_least) {
  ASSERT_TRUE(eventually([&] { return worker_parks(server) >= at_least; }))
      << "workers never parked";
  for (u64 last = worker_parks(server);;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const u64 now = worker_parks(server);
    if (now == last) return;
    last = now;
  }
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Put `keys` with value key * mult, then read them back.
void put_then_get(ShardServer& server, u64 first, u32 count, u64 mult) {
  Batch batch;
  for (u32 i = 0; i < count; ++i) {
    batch.requests.push_back(Request{Op::kPut, first + i, (first + i) * mult});
  }
  server.execute(batch);
  for (const Response& r : batch.responses()) ASSERT_EQ(r.status, Status::kOk);
  batch.clear();
  for (u32 i = 0; i < count; ++i) {
    batch.requests.push_back(Request{Op::kGet, first + i, 0});
  }
  server.execute(batch);
  const auto rs = batch.responses();
  for (u32 i = 0; i < count; ++i) {
    ASSERT_EQ(rs[i].status, Status::kOk);
    ASSERT_EQ(rs[i].value, (first + i) * mult);
  }
}

TEST(ServiceHandoff, HeapBatchFreedRightAfterExecuteIsSafe) {
  // The completing worker must not touch a batch after the decrement
  // that releases its client: each client here frees its heap Batch the
  // moment execute() returns, so a late write (a completion stamp stored
  // after that decrement) is a heap use-after-free under ASan.
  // Gate open (2 + 2 threads: clients spin) and closed (4 + 8: clients
  // park), tracing off and on.
  struct Shape {
    u32 shards, clients;
    obs::TraceMode trace;
  };
  for (const Shape shape :
       {Shape{2, 2, obs::TraceMode::kOff}, Shape{4, 8, obs::TraceMode::kOff},
        Shape{2, 2, obs::TraceMode::kFull}, Shape{4, 8, obs::TraceMode::kFull}}) {
    ServiceOptions opts = handoff_options(shape.shards);
    opts.trace_mode = shape.trace;
    ShardServer server(opts);
    std::atomic<u64> sent{0}, oks{0};
    std::vector<std::thread> clients;
    for (u32 c = 0; c < shape.clients; ++c) {
      clients.emplace_back([&, c] {
        Xoshiro256 rng(c + 11);
        u64 local = 0;
        for (u32 round = 0; round < 3000; ++round) {
          auto batch = std::make_unique<Batch>();
          const u32 n = 1 + static_cast<u32>(rng.next_below(8));
          for (u32 i = 0; i < n; ++i) {
            const u64 key = (u64{c} << 32) | rng.next_below(64);
            batch->requests.push_back(Request{Op::kPut, key, key + 1});
          }
          sent += n;
          server.execute(*batch);
          for (const Response& r : batch->responses()) local += r.status == Status::kOk;
          batch.reset();  // freed while a worker may still be finishing
        }
        oks += local;
      });
    }
    for (auto& t : clients) t.join();
    server.stop();
    EXPECT_EQ(oks.load(), sent.load());
    EXPECT_EQ(server.snapshot().handoff.round_trips, u64{shape.clients} * 3000u);
    (void)obs::SpanCollector::global().drain_all();
  }
}

TEST(ServiceHandoff, ParkedWorkerAnswersTheNextBatch) {
  constexpr u32 kShards = 2;
  ShardServer server(handoff_options(kShards));
  u64 parks0 = worker_parks(server);
  put_then_get(server, 1, 64, 2);
  for (u32 round = 1; round < 5; ++round) {
    // Idle past the spin budget: every worker parks on its doorbell.
    settle_parked(server, parks0 + kShards);
    const u64 wakes0 = server.live_snapshot().handoff.doorbell_wakes;
    parks0 = worker_parks(server);
    put_then_get(server, 1 + round * 100, 64, round + 2);
    EXPECT_GT(server.live_snapshot().handoff.doorbell_wakes, wakes0)
        << "a batch for a parked worker must ring its doorbell";
  }
  server.stop();
}

TEST(ServiceHandoff, ClientWhoseVisitOutlastsTheBudgetIsWoken) {
  // 5 ms per flush: one put visit takes far longer than the client's
  // spin budget and its yields — on a single CPU each yield can hand the
  // busy worker a whole time slice — so the client parks and the worker
  // must wake it.
  ServiceOptions opts = handoff_options(1);
  opts.map_options.flush_latency_ns = 5'000'000;
  ShardServer server(opts);
  for (u32 round = 0; round < 3; ++round) put_then_get(server, 1 + round * 10, 4, 7);
  EXPECT_GT(server.live_snapshot().handoff.client_parks, 0u);
  server.stop();
}

TEST(ServiceHandoff, OversubscribedStressAnswersEveryRequestCorrectly) {
  // 8 clients + 4 workers on a 2-slot ring: more threads than CPUs on
  // the reference machine, so the gate keeps everyone parking, and the
  // full ring adds backpressure between every push and pop.
  ServiceOptions opts = handoff_options(4);
  opts.ring_capacity = 2;
  ShardServer server(opts);
  constexpr u32 kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<u64> checked{0};
  for (u32 c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Batch batch;
      const u64 base = (u64{c} + 1) << 32;
      u64 local = 0;
      for (u32 round = 0; round < 100; ++round) {
        batch.clear();
        for (u64 k = 0; k < 16; ++k) {
          batch.requests.push_back(Request{Op::kPut, base + k, k * 1000 + round});
        }
        server.execute(batch);
        for (const Response& r : batch.responses()) ASSERT_EQ(r.status, Status::kOk);
        batch.clear();
        for (u64 k = 0; k < 16; ++k) {
          batch.requests.push_back(Request{Op::kGet, base + k, 0});
        }
        server.execute(batch);
        const auto rs = batch.responses();
        for (u64 k = 0; k < 16; ++k) {
          ASSERT_EQ(rs[k].status, Status::kOk);
          ASSERT_EQ(rs[k].value, k * 1000 + round) << "client " << c << " round " << round;
          ++local;
        }
      }
      checked += local;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(checked.load(), u64{kClients} * 100 * 16);
  server.stop();
  EXPECT_EQ(server.snapshot().handoff.round_trips, u64{kClients} * 200);
}

TEST(ServiceHandoff, StopReturnsPromptlyWhetherWorkersSpinOrPark) {
  constexpr u32 kShards = 4;
  {
    // Right after a batch: workers are inside their spin.
    ShardServer server(handoff_options(kShards));
    put_then_get(server, 1, 64, 3);
    const auto t0 = Clock::now();
    server.stop();
    EXPECT_LT(seconds_since(t0), 2.0);
  }
  {
    // Idle: every worker is asleep on its doorbell.
    ShardServer server(handoff_options(kShards));
    const u64 parks0 = worker_parks(server);
    put_then_get(server, 1, 64, 3);
    settle_parked(server, parks0 + kShards);
    const auto t0 = Clock::now();
    server.stop();
    EXPECT_LT(seconds_since(t0), 2.0);
  }
}

/// Power-fails the next migration start anywhere in the process, once
/// per arm().
struct MigrationStartCrash : nvm::CrashPointPolicy {
  std::atomic<u32> shots{0};
  void arm() { shots.store(1); }
  void on_point(const char* name) override {
    if (std::string_view(name) != "migrate.start.formatted") return;
    u32 s = shots.load();
    while (s > 0) {
      if (shots.compare_exchange_weak(s, s - 1)) throw nvm::SimulatedCrash{};
    }
  }
};

/// Put fresh keys until some shard answers kShardDown; returns that shard.
u32 kill_a_shard(ShardServer& server, MigrationStartCrash& crash, u64& next_key) {
  crash.arm();
  Batch batch;
  for (u32 round = 0; round < 10'000; ++round) {
    batch.clear();
    for (u32 i = 0; i < 32; ++i) batch.requests.push_back(Request{Op::kPut, next_key++, 1});
    server.execute(batch);
    for (u32 s = 0; s < server.shards(); ++s) {
      if (server.shard_down(s)) return s;
    }
  }
  return server.shards();
}

TEST(ServiceHandoff, RestartShardReturnsPromptlyWhetherTheWorkerSpinsOrParks) {
  constexpr u32 kShards = 2;
  ServiceOptions opts = handoff_options(kShards);
  opts.map_options.initial_cells = 64;
  opts.map_options.group_size = 8;
  opts.map_options.online_resize = true;
  ShardServer server(opts);
  MigrationStartCrash crash;
  const nvm::ScopedCrashPoints installed(&crash);
  u64 next_key = 1;

  // Parked: the dead shard's worker has drained its ring and slept.
  const u64 parks0 = worker_parks(server);
  u32 victim = kill_a_shard(server, crash, next_key);
  ASSERT_LT(victim, kShards) << "no shard died";
  settle_parked(server, parks0 + 1);
  auto t0 = Clock::now();
  ASSERT_TRUE(server.restart_shard(victim));
  EXPECT_LT(seconds_since(t0), 2.0);
  EXPECT_FALSE(server.shard_down(victim));

  // Spinning: restart the moment the batch that killed the shard returns.
  victim = kill_a_shard(server, crash, next_key);
  ASSERT_LT(victim, kShards) << "no shard died";
  t0 = Clock::now();
  ASSERT_TRUE(server.restart_shard(victim));
  EXPECT_LT(seconds_since(t0), 2.0);
  EXPECT_FALSE(server.shard_down(victim));

  // The revived in-memory shard serves again.
  put_then_get(server, u64{1} << 40, 64, 5);
  server.stop();
}

}  // namespace
}  // namespace gh::service
