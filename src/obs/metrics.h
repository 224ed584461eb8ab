// Engine-wide metrics: named counters, gauges and latency histograms,
// collected in a MetricsRegistry and snapshotted as JSON.
//
// Counters are sharded across cache lines so hot-path increments from many
// terminals never contend on one atomic; shards are summed on read
// (read-rarely, write-often). Gauges are single atomics (set-rarely).
// Histograms reuse common/histogram and shard a mutex+Histogram pair per
// stripe, merged on snapshot.
//
// The registry hands out stable metric pointers: components look a metric up
// once at construction and then increment through the pointer with no map
// access on the hot path. `MetricsRegistry::Default()` is the process-wide
// registry the engine instruments into; tests that need isolation construct
// their own registry instances.
#pragma once

#include <array>
#include <atomic>
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

/// Stable per-thread shard index in [0, n).
size_t ThreadShard(size_t n);

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

/// Latency distribution. Record() locks one of kHistogramShards stripes
/// (per-thread affinity keeps contention near zero); Snapshot() merges.
class HistogramMetric {
 public:
  void Record(VDuration v) {
    Shard& s = shards_[ThreadShard(kHistogramShards)];
    MutexLock g(&s.mu);
    s.h.Record(v);
  }

  Histogram Snapshot() const {
    Histogram merged;
    for (const auto& s : shards_) {
      MutexLock g(&s.mu);
      merged.Merge(s.h);
    }
    return merged;
  }

  void Reset() {
    for (auto& s : shards_) {
      MutexLock g(&s.mu);
      s.h.Reset();
    }
  }

 private:
  struct alignas(64) Shard {
    /// Rank kMetrics: a terminal leaf — no latch is ever acquired under it.
    mutable Mutex mu{LatchRank::kMetrics};
    Histogram h SIAS_GUARDED_BY(mu);
  };
  std::array<Shard, kHistogramShards> shards_;
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
  /// Rank kMetricsRegistry: Snapshot/ResetAll lock the kMetrics histogram
  /// shards while holding it, so it must sit just below them.
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
