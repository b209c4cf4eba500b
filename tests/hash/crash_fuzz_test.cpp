// Randomized multi-operation crash fuzzing.
//
// Where crash_injection_test.cpp enumerates every crash point inside ONE
// operation, this test runs a whole mixed workload (inserts, queries,
// deletes) and injects crashes at random persistence events anywhere in
// the sequence, under random eviction. After recovery the table must
// equal the oracle state as of the last completed operation, with the
// single in-flight operation allowed to be either fully applied or fully
// absent.
//
// A flight recorder (obs/flight_recorder.hpp) rides along in full-
// fidelity mode over a sidecar sub-span of the same ShadowPM, sized to
// wrap several times, so every crash point × eviction image also checks
// the recorder's own commit-word protocol: a scanned image may hold old,
// new or empty slots, but NEVER a torn record.
#include <gtest/gtest.h>

#include <unordered_map>

#include "hash/any_table.hpp"
#include "nvm/region.hpp"
#include "nvm/shadow_pm.hpp"
#include "obs/flight_recorder.hpp"
#include "trace/trace_file.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace gh::hash {
namespace {

using nvm::CrashMode;
using nvm::ShadowPM;
using nvm::SimulatedCrash;

struct FuzzCase {
  Scheme scheme;
  bool with_wal;
  u64 seed;
  bool wide = false;  ///< 32-byte cells (Key128 + tag commit protocol)
  bool crc = false;   ///< per-group checksums (rebuilt by recovery)
};

std::string case_name(const ::testing::TestParamInfo<FuzzCase>& info) {
  std::string name = scheme_name(info.param.scheme);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  name += info.param.with_wal ? "_L" : "";
  name += info.param.wide ? "_W" : "";
  name += info.param.crc ? "_C" : "";
  name += "_s" + std::to_string(info.param.seed);
  return name;
}

class CrashFuzz : public ::testing::TestWithParam<FuzzCase> {
 protected:
  TableConfig config() const {
    TableConfig cfg;
    cfg.scheme = GetParam().scheme;
    cfg.total_cells_log2 = 8;
    cfg.group_size = 16;
    cfg.with_wal = GetParam().with_wal;
    cfg.wal_records = 256;
    cfg.wide_cells = GetParam().wide;
    cfg.group_crc = GetParam().crc;
    return cfg;
  }

  trace::OpTrace make_ops() const {
    const trace::Workload w = trace::make_random_num(80, GetParam().seed);
    return trace::make_op_trace(w, 30, 50, 0.2, 0.3, GetParam().seed * 7 + 1);
  }

  /// Executes ops until a crash fires (or all complete), then persists
  /// the checksums. Records the event count at the END of each completed
  /// op.
  struct RunResult {
    std::vector<u64> op_end_events;
    bool crashed = false;
    usize ops_completed = 0;
  };

  /// Small flight geometry (1 ring × 64 slots) so the ~160 records of a
  /// full workload wrap the ring and exercise slot invalidation.
  static constexpr u32 kFlightRings = 1;
  static constexpr u32 kFlightSlots = 64;

  RunResult run(ShadowPM& pm, std::span<std::byte> mem, std::span<std::byte> flight_mem,
                const trace::OpTrace& ops, u64 crash_at) {
    pm.crash_at_event(ShadowPM::no_crash());
    auto table = make_table(pm, mem, config(), /*format=*/true);
    // Full fidelity: every op leaves records, so every crash point lands
    // near in-progress flight writes.
    obs::BasicFlightRecorder<ShadowPM> flight(pm, flight_mem, kFlightRings, kFlightSlots);
    flight.set_mode(obs::FlightMode::kFull);
    table->attach_flight(&flight);
    pm.crash_at_event(crash_at);
    RunResult r;
    try {
      for (const trace::TraceOp& op : ops.ops) {
        switch (op.type) {
          case trace::OpType::kInsert:
            EXPECT_TRUE(table->insert(op.key, op.value));
            break;
          case trace::OpType::kDelete:
            EXPECT_TRUE(table->erase(op.key));
            break;
          case trace::OpType::kQuery:
            EXPECT_TRUE(table->find(op.key).has_value());
            break;
        }
        r.op_end_events.push_back(pm.event_count());
        r.ops_completed++;
        // A completed op has made every write durable except the group
        // checksum words, which wait for persist_checksums().
        const std::span<const u64> crc = table->checksum_words();
        EXPECT_EQ(pm.dirty_word_count() - pm.dirty_word_count(crc.data(), crc.size_bytes()), 0u)
            << "op " << r.ops_completed << " left unflushed writes outside the checksum array";
      }
      table->persist_checksums();  // what a clean close does before its mark
    } catch (const SimulatedCrash&) {
      r.crashed = true;
    }
    pm.crash_at_event(ShadowPM::no_crash());
    return r;
  }
};

TEST_P(CrashFuzz, RandomCrashPointsRecoverToOracleState) {
  const trace::OpTrace ops = make_ops();
  const usize bytes = table_required_bytes(config());
  const usize table_span = round_up(bytes, 4096);
  const usize flight_bytes = obs::flight_required_bytes(kFlightRings, kFlightSlots);
  nvm::NvmRegion region =
      nvm::NvmRegion::create_anonymous(table_span + round_up(flight_bytes, 4096));
  auto all = region.bytes();
  auto mem = all.first(round_up(bytes, 8));
  auto flight_mem = all.subspan(table_span, flight_bytes);

  // Dry run: learn the event timeline.
  ShadowPM dry(all);
  const RunResult timeline = run(dry, mem, flight_mem, ops, ShadowPM::no_crash());
  ASSERT_FALSE(timeline.crashed);
  ASSERT_EQ(timeline.ops_completed, ops.ops.size());
  EXPECT_EQ(dry.dirty_word_count(), 0u) << "persist_checksums() left unflushed writes";
  const u64 first_event = timeline.op_end_events.empty() ? 0 : 1;
  const u64 total_events = timeline.op_end_events.back();

  Xoshiro256 rng(GetParam().seed * 1337 + 11);
  constexpr int kCrashes = 12;
  // One crash point leaves a whole SPACE of post-crash images: any subset
  // of the unflushed lines may have been evicted (persisted) before the
  // power died. Sweep several eviction seeds per crash point so a scheme
  // that only survives one lucky eviction order cannot pass.
  constexpr u64 kEvictionSeeds = 8;
  for (int trial = 0; trial < kCrashes; ++trial) {
    const u64 crash_at = first_event + rng.next_below(total_events - first_event);
    std::fill(all.begin(), all.end(), std::byte{0});
    ShadowPM pm(all);
    const RunResult r = run(pm, mem, flight_mem, ops, crash_at);
    if (!r.crashed) continue;  // crash point fell into formatting; skip

    // Oracle: state after the last completed op; the next op is in flight.
    std::unordered_map<u64, u64> oracle;
    for (usize i = 0; i < r.ops_completed; ++i) {
      const trace::TraceOp& op = ops.ops[i];
      if (op.type == trace::OpType::kInsert) oracle[op.key.lo] = op.value;
      if (op.type == trace::OpType::kDelete) oracle.erase(op.key.lo);
    }
    const trace::TraceOp* inflight =
        r.ops_completed < ops.ops.size() ? &ops.ops[r.ops_completed] : nullptr;

    // Materialize every eviction variant BEFORE the first reset: replaying
    // an image and recovering on it mutates the shadow state the images
    // are derived from.
    std::vector<std::vector<std::byte>> images;
    images.reserve(kEvictionSeeds);
    for (u64 ev = 0; ev < kEvictionSeeds; ++ev) {
      images.push_back(pm.materialize_crash_image(CrashMode::kRandomEviction,
                                                  crash_at * 97 + trial * 131 + ev));
    }

    for (u64 ev = 0; ev < kEvictionSeeds; ++ev) {
      SCOPED_TRACE("crash at " + std::to_string(crash_at) + ", eviction seed " +
                   std::to_string(ev));
      pm.reset_to_image(images[ev]);
      // The crash image's flight sidecar must obey the commit-word
      // protocol: slots are old, new or empty — never torn.
      if (obs::kEnabled) {
        const obs::FlightScan fscan = obs::scan_flight(flight_mem);
        ASSERT_TRUE(fscan.valid_header);
        EXPECT_EQ(fscan.records_torn, 0u)
            << "flight commit-word protocol yielded a torn record";
      }
      auto table = make_table(pm, mem, config(), /*format=*/false);
      const auto report = table->recover();

      u64 present = 0;
      for (const auto& [k, v] : oracle) {
        if (inflight != nullptr && inflight->key.lo == k) continue;  // checked below
        const auto found = table->find(Key128{k, 0});
        ASSERT_TRUE(found.has_value()) << "lost committed key " << k;
        EXPECT_EQ(*found, v);
        present++;
      }
      if (inflight != nullptr) {
        const u64 k = inflight->key.lo;
        const auto found = table->find(Key128{k, 0});
        const auto it = oracle.find(k);
        switch (inflight->type) {
          case trace::OpType::kInsert:
            // Absent, or fully inserted with the op's value.
            if (found.has_value()) {
              EXPECT_EQ(*found, inflight->value);
            }
            break;
          case trace::OpType::kDelete:
            // Still present with the pre-op value, or gone.
            if (found.has_value()) {
              ASSERT_NE(it, oracle.end());
              EXPECT_EQ(*found, it->second);
            }
            break;
          case trace::OpType::kQuery:
            // Queries mutate nothing: the key must be exactly as committed.
            ASSERT_EQ(found.has_value(), it != oracle.end());
            if (found.has_value()) {
              EXPECT_EQ(*found, it->second);
            }
            break;
        }
        present += found.has_value() ? 1 : 0;
      }
      EXPECT_EQ(table->count(), present) << "count mismatch";
      EXPECT_EQ(report.recovered_count, present);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CrashFuzz,
    ::testing::Values(FuzzCase{Scheme::kGroup, false, 1}, FuzzCase{Scheme::kGroup, false, 2},
                      FuzzCase{Scheme::kGroup, false, 3},
                      FuzzCase{Scheme::kGroup2H, false, 1},
                      FuzzCase{Scheme::kGroup2H, false, 2},
                      FuzzCase{Scheme::kGroup2H, false, 3},
                      FuzzCase{Scheme::kGroup2H, true, 1},
                      FuzzCase{Scheme::kGroup, true, 1},
                      FuzzCase{Scheme::kLinear, true, 1}, FuzzCase{Scheme::kLinear, true, 2},
                      FuzzCase{Scheme::kPfht, true, 1}, FuzzCase{Scheme::kPath, true, 1},
                      // Wide (Key128) cells: the tag-based commit word has
                      // its own torn-state space; fuzz it on both group
                      // variants (these feed the string map's Cell32 path).
                      FuzzCase{Scheme::kGroup, false, 1, true},
                      FuzzCase{Scheme::kGroup, false, 2, true},
                      FuzzCase{Scheme::kGroup2H, false, 1, true},
                      FuzzCase{Scheme::kGroup2H, false, 2, true},
                      // Per-group checksums: the checksum store is NOT
                      // failure-atomic with the cell commit, so recovery
                      // must rebuild a consistent state from every
                      // crash point × eviction order.
                      FuzzCase{Scheme::kGroup, false, 1, false, true},
                      FuzzCase{Scheme::kGroup, false, 2, false, true},
                      FuzzCase{Scheme::kGroup, false, 1, true, true}),
    case_name);

}  // namespace
}  // namespace gh::hash
