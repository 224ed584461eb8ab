#include "common/histogram.h"

#include <cmath>
#include <cstdio>

namespace sias {

namespace {

constexpr std::array<VDuration, Histogram::kBuckets> MakeBounds() {
  // Geometric bounds: next = floor(b * 1.04) + 1, from 1 ns to > 5000 s,
  // then the ~0 overflow sentinel. A count that overshoots kBuckets fails
  // constant evaluation; one that falls short fails the static_assert below.
  std::array<VDuration, Histogram::kBuckets> bounds{};
  size_t n = 0;
  for (VDuration b = 1; b < 5000ull * kVSecond;
       b = static_cast<VDuration>(static_cast<double>(b) * 1.04) + 1) {
    bounds[n++] = b;
  }
  bounds[n] = ~0ull;
  return bounds;
}

constexpr std::array<VDuration, Histogram::kBuckets> kBoundTable = MakeBounds();
static_assert(kBoundTable.back() == ~0ull,
              "Histogram::kBuckets does not match the generated bounds");

constexpr std::array<uint16_t, Histogram::kBucketKeys> MakeFirstBuckets() {
  // Key k covers [lo, lo + 2^shift) with lo = (k - 32 * shift) << shift,
  // the inverse of BucketIndex's key; keys ascend with lo.
  std::array<uint16_t, Histogram::kBucketKeys> first{};
  size_t i = 0;
  for (size_t key = 0; key < first.size(); ++key) {
    size_t shift = key < 64 ? 0 : key / 32 - 1;
    VDuration lo = static_cast<VDuration>(key - 32 * shift) << shift;
    while (kBoundTable[i] <= lo) ++i;
    first[key] = static_cast<uint16_t>(i);
  }
  return first;
}

}  // namespace

constinit const std::array<VDuration, Histogram::kBuckets> Histogram::kBounds =
    kBoundTable;
constinit const std::array<uint16_t, Histogram::kBucketKeys>
    Histogram::kFirstBucket = MakeFirstBuckets();

void Histogram::Record(VDuration v) {
  buckets_[BucketIndex(v)]++;
  count_++;
  sum_ += static_cast<double>(v);
  if (count_ == 1 || v < min_) min_ = v;
  if (v > max_) max_ = v;
}

void Histogram::AddCounts(const std::array<uint64_t, kBuckets>& counts,
                          double sum, VDuration min, VDuration max) {
  uint64_t added = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += counts[i];
    added += counts[i];
  }
  if (added > 0) {
    if (count_ == 0 || min < min_) min_ = min;
    if (max > max_) max_ = max;
  }
  count_ += added;
  sum_ += sum;
}

void Histogram::Merge(const Histogram& other) {
  AddCounts(other.buckets_, other.sum_, other.min_, other.max_);
}

void Histogram::Reset() { *this = Histogram(); }

double Histogram::Mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

VDuration Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  uint64_t target = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (target == 0) target = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    uint64_t before = seen;
    seen += buckets_[i];
    if (seen >= target) {
      // Bucket i holds values in [kBounds[i-1], kBounds[i]) (bucket 0 holds
      // only 0). Interpolate linearly by rank within the bucket instead of
      // returning the lower bound, then clamp into the observed range so the
      // estimate never leaves [min_, max_]. The sentinel overflow bucket is
      // unbounded: report the largest finite bound as before (interpolating
      // toward max_ there would invent values beyond the bucket coverage).
      if (i + 1 == kBuckets) return kBounds[i - 1];
      double lower = i == 0 ? 0.0 : static_cast<double>(kBounds[i - 1]);
      double upper = static_cast<double>(kBounds[i]);
      if (upper < lower) upper = lower;
      double frac = static_cast<double>(target - before) /
                    static_cast<double>(buckets_[i]);
      auto v = static_cast<VDuration>(lower + frac * (upper - lower));
      if (v < min_) v = min_;
      if (v > max_) v = max_;
      return v;
    }
  }
  return max_;
}

std::string FormatVDuration(VDuration v) {
  char buf[64];
  if (v >= kVSecond) {
    snprintf(buf, sizeof(buf), "%.3fs", static_cast<double>(v) / kVSecond);
  } else if (v >= kVMillisecond) {
    snprintf(buf, sizeof(buf), "%.3fms",
             static_cast<double>(v) / kVMillisecond);
  } else if (v >= kVMicrosecond) {
    snprintf(buf, sizeof(buf), "%.2fus",
             static_cast<double>(v) / kVMicrosecond);
  } else {
    snprintf(buf, sizeof(buf), "%lluns", static_cast<unsigned long long>(v));
  }
  return buf;
}

std::string Histogram::Summary() const {
  std::string s = "n=" + std::to_string(count_);
  s += " mean=" + FormatVDuration(static_cast<VDuration>(Mean()));
  s += " p50=" + FormatVDuration(Percentile(50));
  s += " p90=" + FormatVDuration(Percentile(90));
  s += " p99=" + FormatVDuration(Percentile(99));
  s += " max=" + FormatVDuration(max_);
  return s;
}

}  // namespace sias
