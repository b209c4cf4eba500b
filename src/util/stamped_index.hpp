// StampedIndex — u64 → u32 map for reusable per-call scratch.
//
// The batched mutation paths keep one instance per thread and clear it at
// the start of every call, so clear() must cost nothing and a warm index
// must neither allocate nor zero. Two representations serve that:
//
//   * up to kLinear entries, a small array scanned linearly — the common
//     call (a service visit of a few keys) pays a handful of predictable
//     compares and stays out of the large table below, which an earlier,
//     larger call may have grown far beyond what it needs;
//   * past that, an open-addressed table (linear probing, load ≤ 1/2)
//     whose slots record the generation that wrote them, so a slot of an
//     older generation reads as empty and clear() is O(1).
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "util/types.hpp"

namespace gh {

class StampedIndex {
 public:
  /// Forget every entry.
  void clear() {
    size_ = 0;
    hashed_ = false;
    if (++gen_ == 0) {  // wrapped: a stale stamp could alias, wipe them once
      for (Slot& s : slots_) s.gen = 0;
      gen_ = 1;
    }
  }

  /// The value stored under `key`; when absent, stores `fresh` first.
  /// `inserted` reports which of the two happened. The reference is valid
  /// until the next insertion.
  u32& find_or_insert(u64 key, u32 fresh, bool& inserted) {
    if (!hashed_) {
      for (usize i = 0; i < size_; ++i) {
        if (small_[i].key == key) {
          inserted = false;
          return small_[i].value;
        }
      }
      inserted = true;
      if (size_ < kLinear) {
        small_[size_] = Slot{key, 0, fresh};
        return small_[size_++].value;
      }
      // The linear array is full: move its entries into the table.
      hashed_ = true;
      size_ = 0;
      for (const Slot& s : small_) place(s);
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    const usize mask = slots_.size() - 1;
    for (usize i = mix(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {
        s = Slot{key, gen_, fresh};
        size_++;
        inserted = true;
        return s.value;
      }
      if (s.key == key) {
        inserted = false;
        return s.value;
      }
    }
  }

  [[nodiscard]] usize size() const { return size_; }
  [[nodiscard]] usize slot_count() const { return slots_.size(); }

 private:
  static constexpr usize kLinear = 16;
  static constexpr usize kMinSlots = 64;

  struct Slot {
    u64 key = 0;
    u32 gen = 0;  ///< generation that wrote the slot; 0 = never written
    u32 value = 0;
  };

  /// Line addresses and group slots are sequential; spread them.
  static u64 mix(u64 k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    return k;
  }

  /// Insert an entry known to be absent (the table has room).
  void place(Slot s) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const usize mask = slots_.size() - 1;
    usize i = mix(s.key) & mask;
    while (slots_[i].gen == gen_) i = (i + 1) & mask;
    s.gen = gen_;
    slots_[i] = s;
    size_++;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max(kMinSlots, 2 * old.size()), Slot{});
    size_ = 0;
    for (const Slot& s : old) {
      if (s.gen == gen_) place(s);
    }
  }

  std::array<Slot, kLinear> small_{};
  bool hashed_ = false;
  std::vector<Slot> slots_;
  u32 gen_ = 1;
  usize size_ = 0;  ///< entries of the current call
};

}  // namespace gh
