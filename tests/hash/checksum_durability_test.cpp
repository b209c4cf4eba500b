// Durability rule of the per-group checksums.
//
// Mutations, recovery and scrub store checksum words without flushing
// them; GroupHashTable::persist_checksums() makes the whole array durable
// once, and the map owners call it just before they mark an image clean.
// A clean image is the only one whose checksums a later open trusts — it
// attaches WITHOUT recovery and verifies them.
//
// Each test runs scalar and batched inserts, updates and erases (both
// flush localities) on a ShadowPM table, crashes with nothing evicted, and
// attaches to the crash image without recovery:
//   * after persist_checksums() every group checksum verifies;
//   * without it, exactly the groups whose checksum the ops changed fail —
//     the close-time flush is what makes a clean image's checksums true.
#include <gtest/gtest.h>

#include <type_traits>
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

template <class Cell>
typename Cell::key_type make_key(u64 i) {
  const u64 lo = ((i + 1) * 0x9e3779b97f4a7c15ull) & Cell16::kMaxKey;
  if constexpr (std::is_same_v<typename Cell::key_type, u64>) {
    return lo;
  } else {
    return Key128{lo, (i + 1) * 0x2545f4914f6cdd1dull};
  }
}

template <class Cell>
class ChecksumDurability : public ::testing::Test {
 protected:
  using Table = GroupHashTable<Cell, ShadowPM>;
  using Key = typename Cell::key_type;

  static constexpr typename Table::Params kParams{
      .level_cells = 256, .group_size = 16, .zero_memory = true, .group_crc = true};

  ChecksumDurability()
      : region_(nvm::NvmRegion::create_anonymous(round_up(Table::required_bytes(kParams), 4096))),
        mem_(region_.bytes().first(round_up(Table::required_bytes(kParams), 8))),
        pm_(mem_) {}

  /// Scalar and batched mutations of every kind over a fresh table.
  /// Returns the live checksum words once they are done.
  std::vector<u64> mutate(Table& t) {
    std::vector<Key> keys;
    std::vector<u64> values;
    for (u64 i = 0; i < 120; ++i) {
      keys.push_back(make_key<Cell>(i));
      values.push_back(100 + i);
    }
    for (u64 i = 0; i < 40; ++i) EXPECT_TRUE(t.insert(keys[i], values[i]));
    EXPECT_EQ(t.insert_batch(std::span(keys).subspan(40, 40), std::span(values).subspan(40, 40)),
              40u);
    EXPECT_EQ(t.upsert_batch(std::span(keys).subspan(80, 40), std::span(values).subspan(80, 40),
                             nvm::Locality::kRuns),
              40u);
    for (u64 i = 0; i < 120; i += 7) EXPECT_TRUE(t.update(keys[i], 9000 + i));
    // Disjoint erase sets: scalar (i % 10 == 1), then both batch kinds.
    std::vector<Key> gone;
    std::vector<Key> gone_runs;
    for (u64 i = 0; i < 120; ++i) {
      if (i % 10 == 1) EXPECT_TRUE(t.erase(keys[i]));
      if (i % 10 == 2) gone.push_back(keys[i]);
      if (i % 10 == 3) gone_runs.push_back(keys[i]);
    }
    EXPECT_EQ(t.erase_batch(gone, {}), gone.size());
    EXPECT_EQ(t.erase_batch(gone_runs, {}, nvm::Locality::kRuns), gone_runs.size());
    const auto crc = t.checksum_words();
    return {crc.begin(), crc.end()};
  }

  /// Power fails with no dirty line evicted; reboot onto the image.
  void crash() { pm_.reset_to_image(pm_.materialize_crash_image(CrashMode::kNothingEvicted)); }

  nvm::NvmRegion region_;
  std::span<std::byte> mem_;
  ShadowPM pm_;
};

using CellTypes = ::testing::Types<Cell16, Cell32>;
TYPED_TEST_SUITE(ChecksumDurability, CellTypes);

TYPED_TEST(ChecksumDurability, PersistedChecksumsVerifyAfterACrashWithoutRecovery) {
  using Table = typename TestFixture::Table;
  {
    Table t(this->pm_, this->mem_, TestFixture::kParams, /*format=*/true);
    this->mutate(t);
    const auto crc = t.checksum_words();
    EXPECT_GT(this->pm_.dirty_word_count(crc.data(), crc.size_bytes()), 0u)
        << "mutations are expected to leave checksum words unflushed";
    t.persist_checksums();
    EXPECT_EQ(this->pm_.dirty_word_count(), 0u);
  }
  this->crash();
  const Table t = Table::attach(this->pm_, this->mem_);  // no recovery, as a clean open
  for (u64 g = 0; g < t.num_groups(); ++g) {
    EXPECT_TRUE(t.verify_group_checksum(0, g)) << "level 1 group " << g;
    EXPECT_TRUE(t.verify_group_checksum(1, g)) << "level 2 group " << g;
  }
}

TYPED_TEST(ChecksumDurability, WithoutPersistChecksumsTouchedGroupsFailVerification) {
  using Table = typename TestFixture::Table;
  std::vector<u64> live;
  {
    Table t(this->pm_, this->mem_, TestFixture::kParams, /*format=*/true);
    live = this->mutate(t);
  }
  this->crash();
  const Table t = Table::attach(this->pm_, this->mem_);
  // Format persisted an all-zero array and nothing flushed it since: a
  // group fails exactly when the ops changed its checksum.
  u64 changed = 0;
  for (u64 g = 0; g < t.num_groups(); ++g) {
    for (u32 level = 0; level < 2; ++level) {
      const bool touched = live[level * t.num_groups() + g] != 0;
      changed += touched ? 1 : 0;
      EXPECT_EQ(t.verify_group_checksum(level, g), !touched) << "level " << level + 1
                                                             << " group " << g;
    }
  }
  EXPECT_GT(changed, t.num_groups()) << "the ops should touch most groups";
}

}  // namespace
}  // namespace gh::hash
