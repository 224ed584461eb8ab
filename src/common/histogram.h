// Log-bucketed latency histogram for response-time reporting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/types.h"

namespace sias {

/// Records virtual-time durations; reports count/mean/percentiles.
/// Buckets grow geometrically (~4% resolution), covering 1 ns .. ~5000 s.
class Histogram {
 public:
  Histogram();

  void Record(VDuration v);
  void Merge(const Histogram& other);
  void Reset();

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
  size_t BucketFor(VDuration v) const;

  std::vector<uint64_t> buckets_;
  std::vector<VDuration> bounds_;
  uint64_t count_ = 0;
  double sum_ = 0;
  VDuration min_ = 0;
  VDuration max_ = 0;
};

/// Formats virtual nanoseconds as a human-readable duration.
std::string FormatVDuration(VDuration v);

}  // namespace sias
