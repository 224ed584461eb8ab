// Engine-wide metrics: named counters, gauges and latency histograms,
// collected in a MetricsRegistry and snapshotted as JSON.
//
// Counters are sharded across cache lines so hot-path increments from many
// terminals never contend on one atomic; shards are summed on read
// (read-rarely, write-often). Gauges are single atomics (set-rarely).
// Histograms bucket through common/histogram's constant-time BucketIndex
// into 8 stripes of relaxed atomic counts; recording takes no lock and
// Snapshot() merges the stripes into a Histogram.
//
// The registry hands out stable metric pointers: components look a metric up
// once at construction and then increment through the pointer with no map
// access on the hot path. `MetricsRegistry::Default()` is the process-wide
// registry the engine instruments into; tests that need isolation construct
// their own registry instances.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/latch.h"
#include "common/types.h"

namespace sias {
namespace obs {

inline constexpr size_t kCounterShards = 16;
inline constexpr size_t kHistogramShards = 8;
static_assert(std::has_single_bit(kCounterShards) &&
                  std::has_single_bit(kHistogramShards),
              "shard counts must be powers of two so ThreadShard masks");

namespace internal {
/// The calling thread's shard ordinal; 0 until its first ThreadShard.
inline constinit thread_local size_t thread_ordinal = 0;
/// Gives the calling thread its ordinal (>= 1) and returns it.
size_t AssignThreadOrdinal();
}  // namespace internal

/// Stable per-thread shard index in [0, n).
inline size_t ThreadShard(size_t n) {
  size_t ordinal = internal::thread_ordinal;
  if (ordinal == 0) [[unlikely]] ordinal = internal::AssignThreadOrdinal();
  return ordinal % n;
}

/// Monotone counter, sharded per thread. Increments are wait-free and touch
/// one cache line; Value() sums all shards.
class Counter {
 public:
  void Add(int64_t n) {
    shards_[ThreadShard(kCounterShards)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  int64_t Value() const {
    int64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> v{0};
  };
  std::array<Shard, kCounterShards> shards_;
};

/// Point-in-time value (active transactions, GC horizon lag, queue depths).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Latency distribution. Record() touches one of kHistogramShards stripes
/// (per-thread affinity keeps them uncontended) with relaxed atomics and
/// takes no lock; Snapshot() merges the stripes. Reset() is exact only
/// while no thread records: a racing Record may survive it in part.
class HistogramMetric {
 public:
  void Record(VDuration v) {
    Stripe& s = stripes_[ThreadShard(kHistogramShards)];
    VDuration seen = s.min.load(std::memory_order_relaxed);
    while (v < seen && !s.min.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
    seen = s.max.load(std::memory_order_relaxed);
    while (v > seen && !s.max.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
    s.sum.fetch_add(v, std::memory_order_relaxed);
    // Release: a Snapshot that counts this sample also sees its extremes.
    s.buckets[Histogram::BucketIndex(v)].fetch_add(1,
                                                   std::memory_order_release);
  }

  Histogram Snapshot() const;
  void Reset();

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> sum{0};
    std::atomic<VDuration> min{~0ull};
    std::atomic<VDuration> max{0};
    std::array<std::atomic<uint64_t>, Histogram::kBuckets> buckets{};
  };
  std::array<Stripe, kHistogramShards> stripes_;
};

/// Condensed histogram figures carried in a snapshot.
struct HistogramSummary {
  uint64_t count = 0;
  double mean = 0;
  VDuration p50 = 0;
  VDuration p90 = 0;
  VDuration p99 = 0;
  VDuration p999 = 0;
  VDuration max = 0;
};

/// Builds the condensed figures (count/mean/p50/p90/p99/p999/max) from a
/// merged histogram.
HistogramSummary SummarizeHistogram(const Histogram& h);

/// Point-in-time dump of every registered metric (sorted by name).
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
};

/// Thread-safe name -> metric registry. Lookup interns the metric on first
/// use and returns the same pointer forever after (pointers remain valid for
/// the registry's lifetime).
class MetricsRegistry {
 public:
  /// Runs after Snapshot() builds the registry's own view, outside the
  /// registry mutex, so side aggregators (the span aggregator) can inject
  /// derived series. Augmenters may acquire their own latches but must not
  /// call back into the registry's Get*.
  using SnapshotAugmenter = void (*)(MetricsSnapshot*);
  /// Runs from ResetAll(), outside the registry mutex.
  using ResetHook = void (*)();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  /// Registers a hook for the registry's lifetime (no unregistration).
  void AddSnapshotAugmenter(SnapshotAugmenter fn);
  void AddResetHook(ResetHook fn);

  MetricsSnapshot Snapshot() const;

  /// Zeroes counters and histograms (gauges are overwritten by their owners),
  /// then runs the registered reset hooks.
  void ResetAll();

  /// The process-wide registry the engine reports into.
  static MetricsRegistry& Default();

 private:
  /// Rank kMetricsRegistry: a leaf while held; Snapshot/ResetAll read and
  /// reset metrics under it without taking any other latch.
  mutable Mutex mu_{LatchRank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      SIAS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ SIAS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_
      SIAS_GUARDED_BY(mu_);
  std::vector<SnapshotAugmenter> augmenters_ SIAS_GUARDED_BY(mu_);
  std::vector<ResetHook> reset_hooks_ SIAS_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace sias
