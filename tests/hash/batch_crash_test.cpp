// Crash coverage of the one-window batched mutation paths.
//
// upsert_batch and erase_batch run a whole call as one fence window, and
// their flushes go through a coalescer that, for a batch written in runs,
// merges writes to one cache line and may issue a line's flush long after
// its first store (nvm/flush_coalescer.hpp). Two shapes stress what that changes:
//
//   * one upsert_batch of 48 keys over a small, partly filled table: new
//     keys, in-place updates of committed keys, and duplicates of both
//     inside the batch, all sharing cache lines with one another;
//   * one erase_batch of a completely full group (every level-1 and
//     level-2 cell of group 0) plus a miss and a duplicate.
//
// Both shapes run under both flush localities: Locality::kScattered (the
// service's batches: every flush at once) and Locality::kRuns (migration's:
// the coalescer's window).
//
// ShadowPM crashes the batch at EVERY persistence event; each crash image
// is materialised under three eviction policies (nothing / everything /
// a random subset of dirty 8-byte words). After recovery the table must
// match the oracle: untouched keys intact, every batch key either in its
// pre-batch state or holding a value the batch wrote for it, `count`
// equal to what is reachable, every group checksum valid, and a second
// recovery with nothing left to scrub. A completed batch may leave only
// group checksum words unflushed (they wait for persist_checksums(), which
// then leaves nothing dirty).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "hash/cells.hpp"
#include "hash/group_hashing.hpp"
#include "nvm/region.hpp"
#include "nvm/shadow_pm.hpp"
#include "util/types.hpp"

namespace gh::hash {
namespace {

using nvm::CrashMode;
using nvm::ShadowPM;
using nvm::SimulatedCrash;

template <class Cell>
typename Cell::key_type make_key(u64 i) {
  const u64 lo = ((i + 1) * 0x9e3779b97f4a7c15ull) & Cell16::kMaxKey;
  if constexpr (std::is_same_v<typename Cell::key_type, u64>) {
    return lo;
  } else {
    return Key128{lo, (i + 1) * 0x100000001b3ull};
  }
}

u64 order_key(u64 k) { return k; }
std::pair<u64, u64> order_key(const Key128& k) { return {k.lo, k.hi}; }

template <class Cell>
class BatchCrash : public ::testing::Test {
 protected:
  using Table = GroupHashTable<Cell, ShadowPM>;
  using Key = typename Cell::key_type;
  using OrderKey = decltype(order_key(std::declval<Key>()));

  static constexpr typename Table::Params kParams{
      .level_cells = 64, .group_size = 16, .zero_memory = true, .group_crc = true};

  /// Pre-batch content and, per batch key, every value it may hold after
  /// a crash (nullopt = absent is admissible).
  struct Oracle {
    std::map<OrderKey, std::pair<Key, u64>> committed;
    std::map<OrderKey, std::pair<Key, std::set<std::optional<u64>>>> admissible;
  };

  /// The batch under test; throws SimulatedCrash when the trigger fires.
  using Script = void (*)(Table&, const std::vector<Key>&, const std::vector<u64>&,
                          nvm::Locality);

  struct Setup {
    std::vector<Key> prefill;     ///< committed before the batch
    std::vector<Key> batch_keys;  ///< the batch
    std::vector<u64> batch_values;
  };

  static u64 prefill_value(u64 i) { return 1000 + i; }

  /// Replays format + prefill + batch on `pm`, crashing at `crash_at`
  /// events after the batch starts. Returns {events the batch took, crashed}.
  std::pair<u64, bool> run(ShadowPM& pm, std::span<std::byte> mem, const Setup& setup,
                           Script script, nvm::Locality locality, u64 crash_at) {
    pm.crash_at_event(ShadowPM::no_crash());
    Table t(pm, mem, kParams, /*format=*/true);
    for (usize i = 0; i < setup.prefill.size(); ++i) {
      EXPECT_TRUE(t.insert(setup.prefill[i], prefill_value(i)));
    }
    const u64 start = pm.event_count();
    if (crash_at != ShadowPM::no_crash()) pm.crash_at_event(start + crash_at);
    bool crashed = false;
    try {
      script(t, setup.batch_keys, setup.batch_values, locality);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    pm.crash_at_event(ShadowPM::no_crash());
    return {pm.event_count() - start, crashed};
  }

  void verify(ShadowPM& pm, std::span<std::byte> mem, const Oracle& oracle,
              const std::string& where) {
    Table t = Table::attach(pm, mem);
    const RecoveryReport report = t.recover();
    u64 present = 0;
    for (const auto& [ok, kv] : oracle.committed) {
      if (oracle.admissible.contains(ok)) continue;
      ASSERT_EQ(t.find(kv.first), std::optional<u64>(kv.second))
          << where << ": untouched key damaged";
      present++;
    }
    for (const auto& [ok, entry] : oracle.admissible) {
      const auto found = t.find(entry.first);
      EXPECT_TRUE(entry.second.contains(found))
          << where << ": batch key holds an inadmissible value "
          << (found ? std::to_string(*found) : std::string("<absent>"));
      present += found.has_value() ? 1 : 0;
    }
    EXPECT_EQ(report.recovered_count, present) << where;
    EXPECT_EQ(t.count(), present) << where;
    for (u64 g = 0; g < t.num_groups(); ++g) {
      ASSERT_TRUE(t.verify_group_checksum(0, g)) << where << " level 1 group " << g;
      ASSERT_TRUE(t.verify_group_checksum(1, g)) << where << " level 2 group " << g;
    }
    ASSERT_TRUE(t.verify_tags()) << where;
    const RecoveryReport second = t.recover();
    EXPECT_EQ(second.cells_scrubbed, 0u) << where;
    EXPECT_EQ(second.recovered_count, present) << where;
  }

  /// Crash the batch at every event, under every eviction policy and
  /// both flush localities.
  void sweep(const Setup& setup, const Oracle& oracle, Script script, u64 min_events) {
    for (const nvm::Locality locality : {nvm::Locality::kScattered, nvm::Locality::kRuns}) {
      SCOPED_TRACE(locality == nvm::Locality::kRuns ? "Locality::kRuns" : "Locality::kScattered");
      sweep(setup, oracle, script, locality, min_events);
      if (HasFatalFailure()) return;
    }
  }

  void sweep(const Setup& setup, const Oracle& oracle, Script script, nvm::Locality locality,
             u64 min_events) {
    const usize bytes = Table::required_bytes(kParams);
    nvm::NvmRegion region = nvm::NvmRegion::create_anonymous(round_up(bytes, 4096));
    const auto mem = region.bytes().first(round_up(bytes, 8));

    ShadowPM dry(mem);
    const auto [events, crashed] = run(dry, mem, setup, script, locality, ShadowPM::no_crash());
    ASSERT_FALSE(crashed);
    ASSERT_GE(events, min_events) << "batch too small to be interesting";
    {
      Table t = Table::attach(dry, mem);
      const std::span<const u64> crc = t.checksum_words();
      EXPECT_EQ(dry.dirty_word_count() - dry.dirty_word_count(crc.data(), crc.size_bytes()), 0u)
          << "a completed batch left unflushed writes outside the checksum array";
      t.persist_checksums();
      EXPECT_EQ(dry.dirty_word_count(), 0u) << "persist_checksums() left unflushed writes";
    }
    dry.reset_to_image(dry.materialize_crash_image(CrashMode::kNothingEvicted));
    verify(dry, mem, oracle, "completed batch");

    for (u64 crash_at = 0; crash_at < events; ++crash_at) {
      for (const CrashMode mode :
           {CrashMode::kNothingEvicted, CrashMode::kAllEvicted, CrashMode::kRandomEviction}) {
        std::fill(mem.begin(), mem.end(), std::byte{0});
        ShadowPM pm(mem);
        const auto [_, fired] = run(pm, mem, setup, script, locality, crash_at);
        ASSERT_TRUE(fired) << "crash point " << crash_at << " did not fire";
        pm.reset_to_image(pm.materialize_crash_image(mode, crash_at * 31 + 7));
        verify(pm, mem, oracle,
               "crash_at " + std::to_string(crash_at) + " mode " +
                   std::to_string(static_cast<int>(mode)));
        if (HasFatalFailure()) return;
      }
    }
  }
};

using CellTypes = ::testing::Types<Cell16, Cell32>;
TYPED_TEST_SUITE(BatchCrash, CellTypes);

TYPED_TEST(BatchCrash, UpsertBatchBeyondOldWindowWithSharedLineDuplicatesAndUpdates) {
  using Fixture = BatchCrash<TypeParam>;
  using Key = typename Fixture::Key;
  typename Fixture::Setup setup;
  typename Fixture::Oracle oracle;
  // 40 committed keys over 128 cells: updates and new cells interleave in
  // the same 64-byte lines.
  for (u64 i = 0; i < 40; ++i) {
    setup.prefill.push_back(make_key<TypeParam>(i));
    oracle.committed[order_key(setup.prefill.back())] = {setup.prefill.back(),
                                                         Fixture::prefill_value(i)};
  }
  // 48 entries: 24 new keys interleaved with 12 updates of committed
  // keys, then a second write of 6 of the new keys (re-staged in the same
  // window) and of 6 of the updated keys.
  std::vector<std::pair<Key, u64>> entries;
  for (u64 i = 0; i < 24; ++i) {
    entries.emplace_back(make_key<TypeParam>(100 + i), 5000 + i);
    if (i < 12) entries.emplace_back(make_key<TypeParam>(3 * i), 7000 + i);
  }
  for (u64 i = 0; i < 6; ++i) {
    entries.emplace_back(make_key<TypeParam>(100 + 2 * i), 6000 + i);
    entries.emplace_back(make_key<TypeParam>(6 * i), 8000 + i);
  }
  ASSERT_EQ(entries.size(), 48u);
  for (const auto& [k, v] : entries) {
    setup.batch_keys.push_back(k);
    setup.batch_values.push_back(v);
    auto& [key, allowed] = oracle.admissible[order_key(k)];
    key = k;
    if (allowed.empty()) {
      const auto it = oracle.committed.find(order_key(k));
      allowed.insert(it == oracle.committed.end() ? std::nullopt
                                                  : std::optional<u64>(it->second.second));
    }
    allowed.insert(v);
  }
  ASSERT_GT(setup.batch_keys.size(), 32u);

  auto script = [](typename Fixture::Table& t, const std::vector<Key>& keys,
                   const std::vector<u64>& values, nvm::Locality locality) {
    ASSERT_EQ(t.upsert_batch(keys, values, locality), keys.size());
  };
  this->sweep(setup, oracle, script, /*min_events=*/100);
}

TYPED_TEST(BatchCrash, EraseBatchOfAFullGroup) {
  using Fixture = BatchCrash<TypeParam>;
  using Key = typename Fixture::Key;
  typename Fixture::Setup setup;
  typename Fixture::Oracle oracle;
  // Fill every level-1 and level-2 cell of group 0 (32 cells), plus a few
  // keys of other groups that must survive untouched.
  const SeededHash hash(Fixture::kParams.seed);
  const u64 mask = Fixture::kParams.level_cells - 1;
  const u32 gs = Fixture::kParams.group_size;
  // Keys are inserted in collection order, so the first key of each
  // level-1 slot takes that slot and later ones go to level 2.
  std::set<u64> level1_used;
  u64 level2_used = 0;
  std::vector<Key> group_keys;
  for (u64 i = 0; group_keys.size() < 2 * gs && i < 100000; ++i) {
    const Key k = make_key<TypeParam>(i);
    const u64 slot = hash(k) & mask;
    if (slot / gs != 0) {
      if (setup.prefill.size() < 12) setup.prefill.push_back(k);
    } else if (level1_used.insert(slot).second) {
      group_keys.push_back(k);
    } else if (level2_used < gs) {
      level2_used++;
      group_keys.push_back(k);
    }
  }
  ASSERT_EQ(group_keys.size(), 2u * gs) << "could not fill group 0";
  for (const Key& k : group_keys) setup.prefill.push_back(k);
  for (usize i = 0; i < setup.prefill.size(); ++i) {
    oracle.committed[order_key(setup.prefill[i])] = {setup.prefill[i],
                                                     Fixture::prefill_value(i)};
  }
  // The batch: the whole group, a key that misses, and a duplicate.
  setup.batch_keys = group_keys;
  setup.batch_keys.push_back(make_key<TypeParam>(200000));
  setup.batch_keys.push_back(group_keys[5]);
  setup.batch_values.assign(setup.batch_keys.size(), 0);
  for (const Key& k : setup.batch_keys) {
    auto& [key, allowed] = oracle.admissible[order_key(k)];
    key = k;
    allowed.insert(std::nullopt);
    const auto it = oracle.committed.find(order_key(k));
    if (it != oracle.committed.end()) allowed.insert(it->second.second);
  }

  auto script = [](typename Fixture::Table& t, const std::vector<Key>& keys,
                   const std::vector<u64>&, nvm::Locality locality) {
    ASSERT_EQ(t.erase_batch(keys, {}, locality), keys.size() - 2);
  };
  this->sweep(setup, oracle, script, /*min_events=*/80);
}

}  // namespace
}  // namespace gh::hash
