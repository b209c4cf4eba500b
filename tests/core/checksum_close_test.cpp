// A clean close makes the group checksums durable.
//
// Mutations store checksum words without flushing them (see
// hash/group_hashing.hpp); a map's close() flushes every checksum array it
// owns before it writes the clean mark, because an open after a clean
// close verifies the checksums instead of rebuilding them. These tests
// count the flushes close() issues — one per line of every checksum array
// (both tables of a split migration image) plus the clean marks — and
// then reopen: no recovery runs and every checksum verifies. (The
// crash-image half of the rule, where skipping the flush leaves stale
// words, is hash/checksum_durability_test.cpp.)
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/group_hash_map.hpp"
#include "core/string_map.hpp"
#include "nvm/persist.hpp"

namespace gh {
namespace {

struct TempFile {
  explicit TempFile(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {
    remove_all();
  }
  ~TempFile() { remove_all(); }
  void remove_all() const {
    for (const char* suffix : {"", ".migrate", ".expand", ".compact", ".flight"}) {
      std::filesystem::remove(path + suffix);
    }
  }
  std::string path;
};

u64 key_of(u64 i) { return 3 * i + 1; }
u64 value_of(u64 i) { return i * 17 + 5; }

template <class Table>
u64 checksum_lines(const Table& t) {
  const auto crc = t.checksum_words();
  return nvm::lines_spanned(crc.data(), crc.size_bytes());
}

TEST(ChecksumClose, SplitImageCloseFlushesBothChecksumArraysAndReopenVerifies) {
  const TempFile file("gh_checksum_close_split.gh");
  MapOptions o;
  o.initial_cells = 256;
  o.group_size = 8;
  o.flush_latency_ns = 0;
  o.online_resize = true;
  o.migrate_groups_per_op = 0;  // the migration stays armed until closed
  o.checksum_groups = true;
  u64 n = 0;
  {
    auto map = GroupHashMap::create(file.path, o);
    while (!map.migration_active() && n < 10'000) {
      map.put(key_of(n), value_of(n));
      ++n;
    }
    ASSERT_TRUE(map.migration_active());
    map.migrate_step(map.snapshot().migration.total_groups / 2);
    // Touch both tables: new keys land in the target, erases hit both.
    for (u64 i = n; i < n + 40; ++i) map.put(key_of(i), value_of(i));
    n += 40;
    for (u64 i = 0; i < n; i += 5) map.put(key_of(i), value_of(i) + 1);
    for (u64 i = 1; i < n; i += 9) map.erase(key_of(i));
    ASSERT_TRUE(map.migration_active());
    ASSERT_TRUE(map.debug_verify_group_checksums());

    const u64 expected = checksum_lines(map.raw_table()) +
                         checksum_lines(*map.migration_table()) + 2;  // + both clean marks
    const u64 before = map.raw_table().pm().stats().lines_flushed.load();
    map.close();
    EXPECT_EQ(map.raw_table().pm().stats().lines_flushed.load() - before, expected);
  }
  auto map = GroupHashMap::open(file.path, o);
  EXPECT_FALSE(map.recovered_on_open()) << "a clean close must not need recovery";
  ASSERT_TRUE(map.migration_active()) << "the split image resumes";
  EXPECT_EQ(map.open_scrub_report().groups_checked, 2 * map.raw_table().num_groups());
  EXPECT_EQ(map.open_scrub_report().crc_mismatches, 0u);
  EXPECT_EQ(map.open_scrub_report().groups_quarantined, 0u);
  EXPECT_TRUE(map.debug_verify_group_checksums());
  for (u64 i = 0; i < n; ++i) {
    const u64 want = i % 5 == 0 ? value_of(i) + 1 : value_of(i);
    ASSERT_EQ(map.get(key_of(i)), i % 9 == 1 ? std::nullopt : std::optional<u64>(want)) << i;
  }
  map.close();
}

TEST(ChecksumClose, StringMapCloseFlushesTheChecksumArrayAndReopenVerifies) {
  const TempFile file("gh_checksum_close_strings.gh");
  StringMapOptions o;
  o.initial_cells = 1 << 10;
  o.group_size = 16;
  o.checksum_groups = true;
  const auto key = [](u64 i) { return "key-" + std::to_string(i); };
  {
    auto map = PersistentStringMap::create(file.path, o);
    for (u64 i = 0; i < 300; ++i) map.put(key(i), i);
    for (u64 i = 0; i < 300; i += 4) map.put(key(i), i + 1000);
    for (u64 i = 1; i < 300; i += 7) map.erase(key(i));
    ASSERT_TRUE(map.debug_verify_group_checksums());
    // Checksum array: two u64 words per group pair, after the cells.
    const obs::Snapshot s = map.snapshot();
    const u64 crc_bytes = s.capacity / o.group_size * sizeof(u64);
    const u64 before = s.persist.lines_flushed;
    map.close();
    const u64 flushed = map.snapshot().persist.lines_flushed - before;
    EXPECT_GE(flushed, crc_bytes / kCachelineSize + 1) << "checksum array + clean mark";
    EXPECT_LE(flushed, crc_bytes / kCachelineSize + 2);
  }
  auto map = PersistentStringMap::open(file.path, o);
  EXPECT_FALSE(map.recovered_on_open());
  EXPECT_TRUE(map.debug_verify_group_checksums());
  for (u64 i = 0; i < 300; ++i) {
    const std::optional<u64> want =
        i % 7 == 1 ? std::nullopt : std::optional<u64>(i % 4 == 0 ? i + 1000 : i);
    ASSERT_EQ(map.get(key(i)), want) << i;
  }
  map.close();
}

}  // namespace
}  // namespace gh
