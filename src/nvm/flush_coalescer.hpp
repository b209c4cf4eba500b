// FlushCoalescer — flush a cache line once while a batch keeps writing it.
//
// A flush only has to reach media by the next fence. The batched mutation
// paths often write several cells of one cache line inside one fence
// epoch (group sharing keeps a group's cells adjacent), and flushing per
// cell pays the emulated NVM write latency once per cell instead of once
// per line. Through a coalescer, flush() records the lines it covers in a
// window of the kWindow most recently recorded distinct lines: a line
// already in the window is not recorded again, a line that leaves the
// window is issued then, and fence() issues what is left before the fence
// itself. So a line written in one run of nearby stores is flushed once
// per fence, and the flush of a line the batch has moved past overlaps the
// batch's later probes rather than queueing up at the fence. (Issuing
// everything at the fence read canonical batch_put 24% and batch_erase 46%
// slower with real clflush and no emulated delay: serialized clflushes no
// longer overlapped any work.)
//
// Issuing a flush later than the store it covers is never weaker: the line
// is written back with everything stored to it up to that point. A store
// to a line that has already left the window records the line again, so
// every store of the epoch is followed by a flush of its line before the
// fence. The protocols that use it keep their epochs pure
// (stage→fence→commit→fence, clear→fence→wipe→fence), so no store in an
// epoch has to stay volatile past it.
//
// Holding lines back only pays when the batch comes back to them. A
// batch of scattered keys (the service's puts) rarely writes one line
// twice, and holding its flushes until the fence made 4- and 16-key
// put_batch calls 13% and 21% slower than flushing at once. So the caller
// says what it knows: Locality::kRuns (migration's copy, sorted by target
// home, and its erase of a source group in cell order) gets the window;
// Locality::kScattered issues every flush at once, as a plain policy does.
//
// The coalescer is call-local: it lives on the batch call's stack and
// wraps the caller's policy. A policy shared by several writers (the
// striped concurrent table shares one DirectPM) therefore holds no pending
// state of its own, and every policy — DirectPM, ShadowPM, TracingPM,
// WearPM — sees exactly the flushes that are issued. It exposes the
// store/flush/fence part of the PM interface (nvm/direct_pm.hpp), so the
// cells' staged protocols take it as their PM.
#pragma once

#include <array>

#include "nvm/persist.hpp"
#include "util/types.hpp"

namespace gh::nvm {

/// What the caller of a batched mutation knows about its write order.
enum class Locality {
  kScattered,  ///< no known order: every flush is issued at once
  kRuns,       ///< cells are written in runs of nearby lines: merge in the window
};

template <class PM>
class FlushCoalescer {
 public:
  /// Distinct lines held back at once. Covers the two or three write
  /// streams a sorted batch advances through (level-1 and level-2 cells
  /// of one group) with room to spare.
  static constexpr usize kWindow = 16;

  explicit FlushCoalescer(PM& pm, Locality locality = Locality::kRuns)
      : pm_(&pm), hold_(locality == Locality::kRuns) {}

  void store_u64(u64* dst, u64 v) { pm_->store_u64(dst, v); }
  void atomic_store_u64(u64* dst, u64 v) { pm_->atomic_store_u64(dst, v); }

  /// Record the lines covering [addr, addr+n); a line pushed out of the
  /// window is issued now. Without a window (kScattered) issue them now.
  void flush(const void* addr, usize n) {
    if (!hold_) {
      pm_->flush(addr, n);
      return;
    }
    const u64 lines = lines_spanned(addr, n);
    const std::byte* line = line_begin(addr);
    for (u64 i = 0; i < lines; ++i, line += kCachelineSize) record(line);
  }

  /// Issue every pending line, then the fence. With nothing pending only
  /// the fence is issued.
  void fence() {
    for (usize i = 0; i < pending_; ++i) pm_->flush(window_[i], kCachelineSize);
    pending_ = 0;
    oldest_ = 0;
    pm_->fence();
  }

  /// flush + fence. With nothing pending this is the wrapped policy's own
  /// persist(), counters included.
  void persist(const void* addr, usize n) {
    if (pending_ == 0) {
      pm_->persist(addr, n);
      return;
    }
    flush(addr, n);
    fence();
  }

  [[nodiscard]] usize pending_lines() const { return pending_; }

 private:
  void record(const std::byte* line) {
    for (usize i = 0; i < pending_; ++i) {
      if (window_[i] == line) return;
    }
    if (pending_ < kWindow) {
      window_[pending_++] = line;
      return;
    }
    pm_->flush(window_[oldest_], kCachelineSize);
    window_[oldest_] = line;
    oldest_ = (oldest_ + 1) % kWindow;
  }

  PM* pm_;
  bool hold_;  ///< Locality::kRuns: record lines in the window
  std::array<const std::byte*, kWindow> window_{};
  usize pending_ = 0;  ///< lines held back
  usize oldest_ = 0;   ///< slot of the oldest line once the window is full
};

}  // namespace gh::nvm
