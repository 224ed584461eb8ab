// Log-bucketed latency histogram for response-time reporting.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "common/analysis_annotations.h"
#include "common/types.h"

namespace sias {

/// Records virtual-time durations; reports count/mean/percentiles.
/// Buckets grow geometrically (~4% resolution), covering 1 ns .. ~5000 s.
/// The bounds are one process-wide constant table shared by every instance.
class Histogram {
 public:
  /// Geometric bounds below 5000 s plus the overflow bucket (checked
  /// against the generated table in histogram.cc).
  static constexpr size_t kBuckets = 678;
  /// BucketIndex keys: 64 exact ones, then 32 per bit length from 7 to 64.
  static constexpr size_t kBucketKeys = 64 + 58 * 32;

  void Record(VDuration v);
  void Merge(const Histogram& other);
  /// Adds pre-bucketed samples (counts[i] in bucket BucketIndex order) with
  /// their exact sum and extremes; min/max are ignored when no count is set.
  void AddCounts(const std::array<uint64_t, kBuckets>& counts, double sum,
                 VDuration min, VDuration max);
  void Reset();

  /// Bucket of `v`: the number of bounds <= v, capped at the overflow
  /// bucket. O(1): the key is v itself below 64, else v's bit length and the
  /// five bits after its leading one. A key's value range is at most 1/32 of
  /// its lower end wide while consecutive bounds are more than 4% apart, so
  /// the range holds at most one bound: the key's first bucket plus one
  /// compare against that bucket's bound is exact.
  static size_t BucketIndex(VDuration v) {
    int shift = std::max(static_cast<int>(std::bit_width(v)), 6) - 6;
    size_t key = (static_cast<size_t>(shift) << 5) + (v >> shift);
    size_t i = kFirstBucket[key];
    i += v >= kBounds[i];
    return std::min(i, kBuckets - 1);
  }

  uint64_t count() const { return count_; }
  double Mean() const;
  /// Exact total of recorded values (not bucket-quantized).
  SIAS_DEAD_API_OK("mvcc_test and span_test check recorded totals");
  double Sum() const { return sum_; }
  SIAS_DEAD_API_OK("common_test and epoch_test check the recorded minimum");
  VDuration Min() const { return count_ ? min_ : 0; }
  VDuration Max() const { return max_; }
  /// p in [0, 100].
  VDuration Percentile(double p) const;

  /// "n=..., mean=..ms p50=.. p90=.. p99=.. max=.." summary line.
  std::string Summary() const;

 private:
  /// kBounds[i] is bucket i's exclusive upper bound (the last is ~0).
  static const std::array<VDuration, kBuckets> kBounds;
  /// BucketIndex key -> bucket of the key's lowest value.
  static const std::array<uint16_t, kBucketKeys> kFirstBucket;

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0;
  VDuration min_ = 0;
  VDuration max_ = 0;
};

/// Formats virtual nanoseconds as a human-readable duration.
std::string FormatVDuration(VDuration v);

}  // namespace sias
