#include "nvm/flush_coalescer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nvm/direct_pm.hpp"
#include "nvm/region.hpp"
#include "nvm/shadow_pm.hpp"
#include "util/stamped_index.hpp"

namespace gh::nvm {
namespace {

/// Counts only, with a recognisable per-line delay so "one delay per
/// issued line" is visible in delay_ns.
constexpr u64 kDelayNs = 7;
PersistConfig counting_with_delay() {
  return PersistConfig{.flush_latency_ns = kDelayNs, .issue_real_flush = false};
}

TEST(FlushCoalescer, SameLineTwiceBeforeFenceIssuesOneFlushAndOneDelay) {
  DirectPM pm(counting_with_delay());
  FlushCoalescer<DirectPM> c(pm);
  alignas(kCachelineSize) u64 buf[8] = {};
  c.store_u64(&buf[0], 1);
  c.flush(&buf[0], sizeof(u64));
  c.store_u64(&buf[3], 2);
  c.flush(&buf[3], sizeof(u64));  // same line as buf[0]
  EXPECT_EQ(pm.stats().lines_flushed, 0u) << "flush() must only record";
  EXPECT_EQ(c.pending_lines(), 1u);
  c.fence();
  EXPECT_EQ(pm.stats().lines_flushed, 1u);
  EXPECT_EQ(pm.stats().delay_ns, kDelayNs);
  EXPECT_EQ(pm.stats().fences, 1u);
  EXPECT_EQ(pm.stats().stores, 2u) << "stores pass straight through";
  EXPECT_EQ(c.pending_lines(), 0u);
}

TEST(FlushCoalescer, LinesInDifferentFenceEpochsAreEachIssued) {
  DirectPM pm(counting_with_delay());
  FlushCoalescer<DirectPM> c(pm);
  alignas(kCachelineSize) std::byte buf[4 * kCachelineSize] = {};
  c.flush(buf, 8);
  c.flush(buf + kCachelineSize, 8);
  c.fence();
  c.flush(buf, 8);  // flushed again in a new epoch: must be issued again
  c.flush(buf + 60, 8);  // straddles lines 0 and 1
  c.fence();
  EXPECT_EQ(pm.stats().lines_flushed, 2u + 2u);
  EXPECT_EQ(pm.stats().delay_ns, 4 * kDelayNs);
  EXPECT_EQ(pm.stats().fences, 2u);
}

TEST(FlushCoalescer, FenceWithNothingPendingIssuesNoFlush) {
  DirectPM pm(counting_with_delay());
  FlushCoalescer<DirectPM> c(pm);
  c.fence();
  EXPECT_EQ(pm.stats().lines_flushed, 0u);
  EXPECT_EQ(pm.stats().delay_ns, 0u);
  EXPECT_EQ(pm.stats().fences, 1u);
}

TEST(FlushCoalescer, PersistBehavesAsBefore) {
  alignas(kCachelineSize) std::byte buf[4 * kCachelineSize] = {};
  // Nothing pending: the wrapped policy's own persist(), counters included.
  DirectPM direct(counting_with_delay());
  direct.persist(buf + 60, 8);
  DirectPM pm(counting_with_delay());
  FlushCoalescer<DirectPM> c(pm);
  c.persist(buf + 60, 8);
  EXPECT_EQ(pm.stats().persist_calls, direct.stats().persist_calls);
  EXPECT_EQ(pm.stats().lines_flushed, direct.stats().lines_flushed);
  EXPECT_EQ(pm.stats().fences, direct.stats().fences);
  EXPECT_EQ(pm.stats().delay_ns, direct.stats().delay_ns);
  // With lines pending, persist() retires them too and still flushes a
  // shared line once.
  c.flush(buf, 8);
  c.flush(buf + 2 * kCachelineSize, 8);
  c.persist(buf + 8, 8);  // line 0 again
  EXPECT_EQ(pm.stats().lines_flushed, 2u + 2u);
  EXPECT_EQ(pm.stats().fences, 2u);
  EXPECT_EQ(c.pending_lines(), 0u);
}

TEST(FlushCoalescer, ALineLeavingTheWindowIsIssuedThenAndRecordedAgainWhenRewritten) {
  constexpr usize kWindow = FlushCoalescer<DirectPM>::kWindow;
  DirectPM pm(counting_with_delay());
  FlushCoalescer<DirectPM> c(pm);
  NvmRegion region = NvmRegion::create_anonymous(4 * kWindow * kCachelineSize);
  auto line = [&](usize i) { return region.data() + i * kCachelineSize; };
  // A run of writes to kWindow lines, each line written twice in a row:
  // nothing is issued yet.
  for (usize i = 0; i < kWindow; ++i) {
    c.flush(line(i), 8);
    c.flush(line(i) + 16, 8);
  }
  EXPECT_EQ(pm.stats().lines_flushed, 0u);
  EXPECT_EQ(c.pending_lines(), kWindow);
  // One more distinct line pushes the oldest out: it is issued now.
  c.flush(line(kWindow), 8);
  EXPECT_EQ(pm.stats().lines_flushed, 1u);
  // Writing the issued line again records it again — the earlier flush
  // does not cover the later store — and pushes out the next oldest.
  c.flush(line(0), 8);
  EXPECT_EQ(pm.stats().lines_flushed, 2u);
  c.fence();
  EXPECT_EQ(pm.stats().lines_flushed, 2u + kWindow);
  EXPECT_EQ(pm.stats().delay_ns, (2 + kWindow) * kDelayNs);
  EXPECT_EQ(pm.stats().fences, 1u);
  // A long scattered run issues every line exactly once.
  for (usize i = 0; i < 4 * kWindow; ++i) c.flush(line(i), 8);
  c.fence();
  EXPECT_EQ(pm.stats().lines_flushed, 2u + kWindow + 4 * kWindow);
}

TEST(FlushCoalescer, ShadowImageHoldsEveryStoreOfTheEpochOnlyAfterTheFence) {
  // The deferred flush writes the line back as of the fence, so a store
  // made after the first flush() of its line is durable too — never less
  // than per-store flushing would have made durable.
  NvmRegion region = NvmRegion::create_anonymous(4096);
  auto mem = region.bytes().first(4096);
  ShadowPM pm(mem);
  FlushCoalescer<ShadowPM> c(pm);
  auto* words = reinterpret_cast<u64*>(mem.data());
  c.store_u64(&words[0], 11);
  c.flush(&words[0], sizeof(u64));
  c.store_u64(&words[1], 22);
  c.flush(&words[1], sizeof(u64));
  EXPECT_EQ(pm.stats().lines_flushed, 0u);
  {
    const auto image = pm.materialize_crash_image(CrashMode::kNothingEvicted);
    u64 durable[2];
    std::memcpy(durable, image.data(), sizeof(durable));
    EXPECT_EQ(durable[0], 0u) << "nothing is durable before the fence";
    EXPECT_EQ(durable[1], 0u);
  }
  c.fence();
  EXPECT_EQ(pm.stats().lines_flushed, 1u);
  EXPECT_EQ(pm.dirty_word_count(), 0u);
  const auto image = pm.materialize_crash_image(CrashMode::kNothingEvicted);
  u64 durable[2];
  std::memcpy(durable, image.data(), sizeof(durable));
  EXPECT_EQ(durable[0], 11u);
  EXPECT_EQ(durable[1], 22u);
}

TEST(StampedIndex, ClearForgetsEntriesWithoutTouchingStorage) {
  StampedIndex index;
  bool inserted = false;
  for (u64 k = 0; k < 500; ++k) {
    EXPECT_EQ(index.find_or_insert(k * 64, static_cast<u32>(k), inserted), k);
    EXPECT_TRUE(inserted);
  }
  for (u64 k = 0; k < 500; ++k) {
    EXPECT_EQ(index.find_or_insert(k * 64, 999, inserted), k) << "grow kept " << k;
    EXPECT_FALSE(inserted);
  }
  const usize slots = index.slot_count();
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.slot_count(), slots) << "clear() keeps the storage";
  EXPECT_EQ(index.find_or_insert(64, 5, inserted), 5u);
  EXPECT_TRUE(inserted) << "an entry of the previous generation reads as absent";
}

}  // namespace
}  // namespace gh::nvm
