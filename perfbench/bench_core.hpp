// Pure helpers of the service benchmark: key/value derivation, response
// checking, the fixed-size latency record and its percentiles, and the
// amplification arithmetic. Kept free of threads and files so
// selftest.cpp can check each of them on known data.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "service/service.hpp"
#include "util/types.hpp"

namespace perfbench {

using gh::u32;
using gh::u64;
using gh::usize;

/// Keys are a bijection of their index onto [1, 2^62]: distinct indices
/// give distinct keys, none is 0, and the top bit stays clear for the
/// map's 63-bit key space. The key set does not depend on the run seed —
/// only the request streams do — so every seed sees the same table layout.
inline u64 key_of(u64 index) {
  constexpr u64 kMask = (u64{1} << 62) - 1;
  u64 x = (index + 0x2545f4914f6cdd1dull) & kMask;
  x = (x * 0x9e3779b97f4a7c15ull) & kMask;
  x ^= x >> 31;
  x = (x * 0xbf58476d1ce4e5b9ull) & kMask;
  x ^= x >> 29;
  return x + 1;
}

/// Every stored value is a pure function of its key, so any response can
/// be checked without a reference map, and an update rewrites the same
/// value (the table's contents never depend on request order).
inline u64 value_of(u64 key) {
  u64 x = key ^ 0x94d049bb133111ebull;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x | 1;
}

/// A get carries the value it must read back in Request::value (the
/// service ignores the field for gets), so checking is one compare.
inline gh::service::Request get_request(u64 key) {
  return {gh::service::Op::kGet, key, value_of(key)};
}
inline gh::service::Request put_request(u64 key) {
  return {gh::service::Op::kPut, key, value_of(key)};
}

/// True when `resp` is the correct answer to `req`: every get targets a
/// key known to be present, so kNotFound, a wrong value, kDegraded and
/// kShardDown are all failures; a put must answer kOk.
inline bool response_ok(const gh::service::Request& req, const gh::service::Response& resp) {
  using gh::service::Op;
  using gh::service::Status;
  if (resp.status != Status::kOk) return false;
  return req.op != Op::kGet || resp.value == req.value;
}

/// Counts the wrong responses of one executed batch.
inline u64 count_failures(std::span<const gh::service::Request> reqs,
                          std::span<const gh::service::Response> resps) {
  if (resps.size() != reqs.size()) return reqs.size();
  u64 failed = 0;
  for (usize i = 0; i < reqs.size(); ++i) failed += !response_ok(reqs[i], resps[i]);
  return failed;
}

/// One execute() round trip. Every request of a batch shares the batch's
/// round trip, so a batch is one sample weighted by its per-kind counts:
/// the record grows with batches, not requests. `window` is the
/// measurement window the round trip completed in.
struct BatchSample {
  u64 rtt_ns = 0;
  u32 gets = 0;
  gh::u16 puts = 0;
  gh::u16 window = 0;
};

/// Fixed-capacity latency record: allocated and touched once up front so
/// recording neither allocates nor moves the peak RSS during a run.
class LatencyRecord {
 public:
  explicit LatencyRecord(usize capacity) : samples_(capacity) {}

  /// False when full; the caller ends its measured loop then.
  bool add(const BatchSample& s) {
    if (size_ == samples_.size()) return false;
    samples_[size_++] = s;
    return true;
  }
  [[nodiscard]] std::span<const BatchSample> samples() const { return {samples_.data(), size_}; }
  [[nodiscard]] usize size() const { return size_; }
  [[nodiscard]] usize capacity() const { return samples_.size(); }

 private:
  std::vector<BatchSample> samples_;
  usize size_ = 0;
};

enum class Kind { kGet, kPut, kAny };

inline u64 weight(const BatchSample& s, Kind kind) {
  switch (kind) {
    case Kind::kGet: return s.gets;
    case Kind::kPut: return s.puts;
    case Kind::kAny: return u64{s.gets} + s.puts;
  }
  return 0;
}

/// Exact weighted nearest-rank percentile: the smallest round trip r such
/// that at least ceil(q * N) of the N requests of `kind` saw a round trip
/// <= r. `sorted` must be ordered by rtt_ns. Returns 0 with no samples.
inline u64 percentile_ns(std::span<const BatchSample> sorted, Kind kind, double q) {
  u64 total = 0;
  for (const BatchSample& s : sorted) total += weight(s, kind);
  if (total == 0) return 0;
  const u64 rank = std::max<u64>(1, static_cast<u64>(std::ceil(q * static_cast<double>(total))));
  u64 seen = 0;
  for (const BatchSample& s : sorted) {
    seen += weight(s, kind);
    if (seen >= rank) return s.rtt_ns;
  }
  return sorted.back().rtt_ns;
}

inline void sort_by_rtt(std::vector<BatchSample>& v) {
  std::sort(v.begin(), v.end(),
            [](const BatchSample& a, const BatchSample& b) { return a.rtt_ns < b.rtt_ns; });
}

inline constexpr u64 kCellBytes = 16;  ///< one 8-byte key + 8-byte value
inline constexpr u64 kLineBytes = 64;

/// Bytes flushed to (emulated) NVM per byte of key-value data written.
inline double write_amp(double lines_flushed, u64 puts) {
  return puts == 0 ? 0.0
                   : lines_flushed * kLineBytes / static_cast<double>(puts * kCellBytes);
}

/// Mapped table bytes per byte of live key-value data.
inline double space_amp(u64 mapped_bytes, u64 live_keys) {
  return live_keys == 0 ? 0.0
                        : static_cast<double>(mapped_bytes) /
                              static_cast<double>(live_keys * kCellBytes);
}

inline double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Median of a small sample (copied, not reordered in place).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
