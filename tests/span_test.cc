// Causal-span tests: self-time phase attribution (the phase-sum ==
// end-to-end-latency invariant the bench gate relies on), nested and
// re-entrant roots, overflow truncation, the slow-transaction exemplar
// buffer, chrome-trace export, snapshot augmentation, and a concurrent
// span-tree stress for the sanitizer builds.
//
// Spans are hard-wired to MetricsRegistry::Default() (that is what makes
// them free for the engine to use), so these tests measure *deltas* on the
// default registry rather than constructing private instances.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/vclock.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace sias {
namespace obs {
namespace {

struct PhaseTotals {
  uint64_t count[kNumSpanPhases];
  double vns[kNumSpanPhases];
};

PhaseTotals SnapshotPhases() {
  auto& reg = MetricsRegistry::Default();
  PhaseTotals t{};
  for (size_t i = 0; i < kNumSpanPhases; ++i) {
    std::string name =
        std::string("txn.phase.") + SpanPhaseName(static_cast<SpanPhase>(i));
    Histogram h = reg.GetHistogram(name.c_str())->Snapshot();
    t.count[i] = h.count();
    t.vns[i] = h.Sum();
  }
  return t;
}

TEST(SpanTest, InactiveWithoutRootAndFreeToNest) {
  EXPECT_FALSE(SpanRootActive());
  // Scopes with no root are no-ops — must not crash or record anything.
  SPAN_SCOPE("test", "orphan_scope");
  SPAN_SCOPE_PHASE(SpanPhase::kIoWait, "test", "orphan_io");
  EXPECT_FALSE(SpanRootActive());
}

TEST(SpanTest, PhaseSumEqualsEndToEndLatencyExactly) {
  PhaseTotals before = SnapshotPhases();
  Histogram committed_before =
      MetricsRegistry::Default().GetHistogram("txn.latency.committed")
          ->Snapshot();

  VirtualClock clk(1000);
  {
    TxnSpan root("PhaseSumTxn", &clk);
    ASSERT_TRUE(root.active());
    ASSERT_TRUE(SpanRootActive());
    clk.Advance(100);  // root self time -> apply
    {
      SpanScope lock(SpanPhase::kLockWait, "lock", "wait", /*wait_tag=*/7);
      clk.Advance(300);  // -> lock_wait
    }
    clk.Advance(50);  // -> apply
    {
      SpanScope io(SpanPhase::kIoWait, "pool", "fetch_wait");
      clk.Advance(500);  // -> io_wait
      {
        // Nested: traversal time inside the IO wait goes to the inner span.
        SpanScope trav(SpanPhase::kTraversal, "mvcc", "get_visible");
        clk.Advance(200);  // -> traversal
      }
      clk.Advance(40);  // -> io_wait again
    }
    SetSpanXid(42);
    root.set_committed(true);
  }
  EXPECT_FALSE(SpanRootActive());

  PhaseTotals after = SnapshotPhases();
  double phase_sum = 0;
  for (size_t i = 0; i < kNumSpanPhases; ++i) {
    phase_sum += after.vns[i] - before.vns[i];
  }
  // Total virtual time inside the root: 100+300+50+500+200+40 = 1190.
  EXPECT_DOUBLE_EQ(phase_sum, 1190.0);

  // Exact per-phase attribution.
  size_t lock_i = static_cast<size_t>(SpanPhase::kLockWait);
  size_t io_i = static_cast<size_t>(SpanPhase::kIoWait);
  size_t trav_i = static_cast<size_t>(SpanPhase::kTraversal);
  size_t apply_i = static_cast<size_t>(SpanPhase::kApply);
  EXPECT_DOUBLE_EQ(after.vns[lock_i] - before.vns[lock_i], 300.0);
  EXPECT_DOUBLE_EQ(after.vns[io_i] - before.vns[io_i], 540.0);
  EXPECT_DOUBLE_EQ(after.vns[trav_i] - before.vns[trav_i], 200.0);
  EXPECT_DOUBLE_EQ(after.vns[apply_i] - before.vns[apply_i], 150.0);

  // End-to-end latency matches the phase sum: the invariant the
  // phase_sum_within bench gate checks.
  Histogram committed_after =
      MetricsRegistry::Default().GetHistogram("txn.latency.committed")
          ->Snapshot();
  EXPECT_EQ(committed_after.count(), committed_before.count() + 1);
  EXPECT_DOUBLE_EQ(committed_after.Sum() - committed_before.Sum(), 1190.0);
}

TEST(SpanTest, AbortedRootSkipsPhaseHistograms) {
  PhaseTotals before = SnapshotPhases();
  Histogram aborted_before =
      MetricsRegistry::Default().GetHistogram("txn.latency.aborted")
          ->Snapshot();
  VirtualClock clk;
  {
    TxnSpan root("AbortedTxn", &clk);
    SpanScope lock(SpanPhase::kLockWait, "lock", "wait");
    clk.Advance(777);
    // No set_committed(true): the root lands in txn.latency.aborted.
  }
  PhaseTotals after = SnapshotPhases();
  for (size_t i = 0; i < kNumSpanPhases; ++i) {
    EXPECT_EQ(after.count[i], before.count[i]) << "phase " << i;
  }
  Histogram aborted_after =
      MetricsRegistry::Default().GetHistogram("txn.latency.aborted")
          ->Snapshot();
  EXPECT_EQ(aborted_after.count(), aborted_before.count() + 1);
  EXPECT_DOUBLE_EQ(aborted_after.Sum() - aborted_before.Sum(), 777.0);
}

TEST(SpanTest, ReentrantRootIsInertAndCounted) {
  Counter* orphans = MetricsRegistry::Default().GetCounter("obs.span.orphans");
  int64_t before = orphans->Value();
  VirtualClock clk;
  {
    TxnSpan outer("OuterTxn", &clk);
    ASSERT_TRUE(outer.active());
    clk.Advance(10);
    {
      TxnSpan inner("InnerTxn", &clk);
      EXPECT_FALSE(inner.active());
      EXPECT_TRUE(SpanRootActive());  // the outer root keeps the thread
      clk.Advance(20);
    }
    // The inner destructor must not have closed the outer root.
    EXPECT_TRUE(outer.active());
    outer.set_committed(true);
  }
  EXPECT_EQ(orphans->Value(), before + 1);
  EXPECT_FALSE(SpanRootActive());
}

TEST(SpanTest, DepthOverflowTruncatesButKeepsTime) {
  Counter* truncated =
      MetricsRegistry::Default().GetCounter("obs.span.truncated");
  int64_t trunc_before = truncated->Value();
  Histogram committed_before =
      MetricsRegistry::Default().GetHistogram("txn.latency.committed")
          ->Snapshot();
  VirtualClock clk;
  {
    TxnSpan root("DeepTxn", &clk);
    // Recursive nesting far past kMaxSpanDepth: the overflowed levels are
    // inert but virtual time must still be attributed.
    struct Nest {
      static void Go(VirtualClock* c, int depth) {
        if (depth == 0) {
          c->Advance(1000);
          return;
        }
        SpanScope s(SpanPhase::kTraversal, "test", "deep");
        c->Advance(1);
        Go(c, depth - 1);
      }
    };
    Nest::Go(&clk, kMaxSpanDepth + 8);
    root.set_committed(true);
  }
  EXPECT_GT(truncated->Value(), trunc_before);
  Histogram committed_after =
      MetricsRegistry::Default().GetHistogram("txn.latency.committed")
          ->Snapshot();
  // All virtual time accounted: 24 levels x 1 + 1000 at the bottom.
  EXPECT_DOUBLE_EQ(committed_after.Sum() - committed_before.Sum(),
                   static_cast<double>(kMaxSpanDepth + 8) + 1000.0);
}

TEST(SpanTest, FinishClosesEarlyAndDtorIsNoop) {
  Histogram committed_before =
      MetricsRegistry::Default().GetHistogram("txn.latency.committed")
          ->Snapshot();
  VirtualClock clk;
  {
    TxnSpan root("EarlyFinish", &clk);
    clk.Advance(100);
    root.set_committed(true);
    root.Finish();
    EXPECT_FALSE(root.active());
    EXPECT_FALSE(SpanRootActive());
    clk.Advance(5000);  // post-Finish time must stay out of the latency
  }
  Histogram committed_after =
      MetricsRegistry::Default().GetHistogram("txn.latency.committed")
          ->Snapshot();
  EXPECT_EQ(committed_after.count(), committed_before.count() + 1);
  EXPECT_DOUBLE_EQ(committed_after.Sum() - committed_before.Sum(), 100.0);
}

TEST(SpanTest, GcDeferPhaseRecordsUnderRoot) {
  PhaseTotals before = SnapshotPhases();
  VirtualClock clk;
  {
    TxnSpan root("GcInterfered", &clk);
    {
      SpanScope gc(SpanPhase::kGcDefer, "maintenance", "vacuum");
      clk.Advance(900);
    }
    root.set_committed(true);
  }
  PhaseTotals after = SnapshotPhases();
  size_t gc_i = static_cast<size_t>(SpanPhase::kGcDefer);
  EXPECT_DOUBLE_EQ(after.vns[gc_i] - before.vns[gc_i], 900.0);
}

TEST(SpanAggregatorTest, ExemplarBufferKeepsTopKSlowest) {
  SpanAggregator agg;  // private instance: deterministic, no engine noise
  SpanRecord rec;
  rec.category = "txn";
  rec.name = "T";
  VDuration phases[kNumSpanPhases] = {};
  // 20 transactions with latencies 1..20: only 13..20 may survive in the
  // 8-slot buffer.
  for (uint64_t i = 1; i <= 20; ++i) {
    rec.begin = 0;
    rec.end = i;
    phases[static_cast<size_t>(SpanPhase::kApply)] = i;
    agg.RecordCommitted("T", /*xid=*/i, /*begin=*/0, /*latency=*/i, phases,
                        &rec, 1);
  }
  EXPECT_EQ(agg.exemplar_count(), static_cast<size_t>(kSpanExemplarSlots));
  EXPECT_EQ(agg.exemplar_floor(), 13u);

  // A faster transaction must not displace anything.
  agg.RecordCommitted("T", 99, 0, /*latency=*/5, phases, &rec, 1);
  EXPECT_EQ(agg.exemplar_floor(), 13u);

  // A slower one replaces the fastest retained exemplar.
  agg.RecordCommitted("T", 100, 0, /*latency=*/50, phases, &rec, 1);
  EXPECT_EQ(agg.exemplar_floor(), 14u);

  agg.Reset();
  EXPECT_EQ(agg.exemplar_count(), 0u);
  EXPECT_EQ(agg.exemplar_floor(), 0u);
}

TEST(SpanAggregatorTest, ChromeTraceExportShape) {
  SpanAggregator agg;
  SpanRecord recs[2];
  recs[0] = {"txn", "NewOrder", /*begin=*/2000, /*end=*/8000, /*wait_tag=*/0,
             /*depth=*/0, static_cast<uint8_t>(SpanPhase::kApply)};
  recs[1] = {"lock", "wait", /*begin=*/3000, /*end=*/5000, /*wait_tag=*/17,
             /*depth=*/1, static_cast<uint8_t>(SpanPhase::kLockWait)};
  VDuration phases[kNumSpanPhases] = {};
  agg.RecordCommitted("NewOrder", /*xid=*/42, 2000, 6000, phases, recs, 2);

  std::string json = agg.ExemplarsToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"NewOrder\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"lock\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"lock_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"xid\":42"), std::string::npos);
  EXPECT_NE(json.find("\"wait_tag\":17"), std::string::npos);
  // Timestamps are virtual microseconds: 3000ns -> 3.000us, dur 2.000us.
  EXPECT_NE(json.find("\"ts\":3.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);

  agg.Reset();
  EXPECT_EQ(agg.ExemplarsToChromeTraceJson(), "{\"traceEvents\":[]}");
}

TEST(SpanAggregatorTest, AugmenterInjectsPerTypeLatencyIntoSnapshots) {
  VirtualClock clk;
  {
    TxnSpan root("AugmentProbe", &clk);
    clk.Advance(1234);
    root.set_committed(true);
  }
  // The default registry's Snapshot() must carry the per-type histogram
  // (snake_cased) injected by the registered augmenter.
  MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  ASSERT_EQ(snap.histograms.count("txn.latency.augment_probe"), 1u)
      << snap.ToJson();
  const HistogramSummary& s = snap.histograms.at("txn.latency.augment_probe");
  EXPECT_GE(s.count, 1u);
  EXPECT_GT(s.p999, 0u);
  // And it round-trips through JSON with the p999_ns field.
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"txn.latency.augment_probe\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_ns\""), std::string::npos);
}

TEST(SpanTest, ConcurrentSpanTreesStayIndependent) {
  // One root per thread, each on its own virtual clock: per-thread span
  // state must never bleed across threads (TSan checks the aggregator and
  // histogram sharing).
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 200;
  Histogram committed_before =
      MetricsRegistry::Default().GetHistogram("txn.latency.committed")
          ->Snapshot();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      VirtualClock clk(static_cast<VTime>(t) * 1000000);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        TxnSpan root("StressTxn", &clk);
        clk.Advance(10);
        {
          SpanScope lock(SpanPhase::kLockWait, "lock", "wait",
                         static_cast<uint64_t>(t));
          clk.Advance(20);
        }
        {
          SpanScope io(SpanPhase::kIoWait, "pool", "fetch_wait");
          clk.Advance(30);
          SpanScope trav(SpanPhase::kTraversal, "mvcc", "get_visible");
          clk.Advance(40);
        }
        SetSpanXid(static_cast<uint64_t>(t * kTxnsPerThread + i));
        root.set_committed(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  Histogram committed_after =
      MetricsRegistry::Default().GetHistogram("txn.latency.committed")
          ->Snapshot();
  uint64_t n = uint64_t{kThreads} * kTxnsPerThread;
  EXPECT_EQ(committed_after.count() - committed_before.count(), n);
  // Every transaction takes exactly 100 vns; the phase split is fixed.
  EXPECT_DOUBLE_EQ(committed_after.Sum() - committed_before.Sum(),
                   static_cast<double>(n) * 100.0);
  EXPECT_GE(SpanAggregator::Default().exemplar_count(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace sias
