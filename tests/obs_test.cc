// Observability layer tests: metric registration and identity, sharded
// counter aggregation under concurrent writers, histogram summaries and JSON
// snapshots.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace sias {
namespace obs {
namespace {

// Tests construct their own registry instances: Default() is
// process-global and accumulates engine activity from other tests.

TEST(MetricsRegistryTest, LookupInternsAndReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("a.counter");
  Counter* c2 = reg.GetCounter("a.counter");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, reg.GetCounter("b.counter"));

  Gauge* g1 = reg.GetGauge("a.gauge");
  EXPECT_EQ(g1, reg.GetGauge("a.gauge"));
  HistogramMetric* h1 = reg.GetHistogram("a.hist");
  EXPECT_EQ(h1, reg.GetHistogram("a.hist"));

  // Counters, gauges and histograms live in separate namespaces: the same
  // name can denote one of each.
  EXPECT_NE(static_cast<void*>(reg.GetCounter("same")),
            static_cast<void*>(reg.GetGauge("same")));
}

TEST(MetricsRegistryTest, CounterAddAndReset) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("ops");
  EXPECT_EQ(c->Value(), 0);
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42);
  c->Reset();
  EXPECT_EQ(c->Value(), 0);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("depth");
  g->Set(7);
  EXPECT_EQ(g->Value(), 7);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 4);
  g->Set(-1);
  EXPECT_EQ(g->Value(), -1);
}

TEST(MetricsRegistryTest, ShardedCounterAggregatesConcurrentIncrements) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("hot");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kPerThread);
}

TEST(MetricsRegistryTest, ConcurrentLookupsOfSameNameAgree) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      Counter* c = reg.GetCounter("race.me");
      c->Increment();
      seen[t] = c;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->Value(), kThreads);
}

TEST(MetricsRegistryTest, HistogramRecordsUnderConcurrency) {
  MetricsRegistry reg;
  HistogramMetric* h = reg.GetHistogram("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 1; i <= kPerThread; ++i) {
        h->Record(static_cast<VDuration>(i) * kVMicrosecond);
      }
    });
  }
  for (auto& th : threads) th.join();
  Histogram merged = h->Snapshot();
  EXPECT_EQ(merged.count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(merged.Sum(), static_cast<double>(kThreads) * kPerThread *
                              (kPerThread + 1) / 2 * kVMicrosecond);
  EXPECT_EQ(merged.Min(), 1 * kVMicrosecond);
  EXPECT_EQ(merged.Max(), kPerThread * kVMicrosecond);
  EXPECT_GT(merged.Percentile(50), 0);

  // Reset restores the min/max sentinels: a fresh sample is both extremes.
  reg.ResetAll();
  h->Record(42 * kVMicrosecond);
  Histogram fresh = h->Snapshot();
  EXPECT_EQ(fresh.count(), 1u);
  EXPECT_EQ(fresh.Min(), 42 * kVMicrosecond);
  EXPECT_EQ(fresh.Max(), 42 * kVMicrosecond);
}

TEST(MetricsRegistryTest, SnapshotCarriesAllMetricKinds) {
  MetricsRegistry reg;
  reg.GetCounter("c.one")->Add(5);
  reg.GetGauge("g.one")->Set(-2);
  reg.GetHistogram("h.one")->Record(3 * kVMillisecond);

  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.count("c.one"), 1u);
  EXPECT_EQ(snap.counters.at("c.one"), 5);
  ASSERT_EQ(snap.gauges.count("g.one"), 1u);
  EXPECT_EQ(snap.gauges.at("g.one"), -2);
  ASSERT_EQ(snap.histograms.count("h.one"), 1u);
  EXPECT_EQ(snap.histograms.at("h.one").count, 1u);
  EXPECT_GT(snap.histograms.at("h.one").max, 0);

  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"c.one\":5"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"h.one\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, ResetAllZeroesCountersAndHistograms) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Add(9);
  reg.GetHistogram("h")->Record(kVMicrosecond);
  reg.GetGauge("g")->Set(3);
  reg.ResetAll();
  EXPECT_EQ(reg.GetCounter("c")->Value(), 0);
  EXPECT_EQ(reg.GetHistogram("h")->Snapshot().count(), 0u);
  // Gauges are owner-refreshed; ResetAll leaves them alone.
  EXPECT_EQ(reg.GetGauge("g")->Value(), 3);
}

}  // namespace
}  // namespace obs
}  // namespace sias
