// Tests for the debug-build latch-order validator (src/check/latch_order)
// and the SpinLatch backoff/AssertHeld additions.
//
// The death tests seed real discipline violations (rank inversion,
// same-rank nesting, re-acquisition, an unranked ABBA cycle) and assert the
// checker aborts deterministically — the property that distinguishes it
// from TSan's interleaving-dependent deadlock detection. The documentation
// test pins the global rank table against every acquired-while-held pair
// the engine actually executes (the sequences tests/concurrency_test.cc
// drives), so reordering the table without updating the discipline is a
// test failure, not a runtime surprise.

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/latch_order.h"
#include "common/latch.h"

namespace sias {
namespace {

// The global acquisition order must follow the paper's latch nesting:
// tree < heap/index page < clog/bucket-dir growth. (kVidMapSlot is retired
// — VidMapV reads are epoch-protected RCU now — but its slot in the order
// is pinned so reintroducing a slot latch lands in the right place.)
static_assert(LatchRank::kBTree < LatchRank::kPage);
static_assert(LatchRank::kPage < LatchRank::kVidMapSlot);
static_assert(LatchRank::kVidMapSlot < LatchRank::kBucketDir);
// The epoch queue sits above the storage ranks its deferred callbacks
// re-enter (they run outside the queue mutex) and below the stats leaves.
static_assert(LatchRank::kDeviceStore < LatchRank::kEpochQueue);
static_assert(LatchRank::kEpochQueue < LatchRank::kStats);

#if defined(SIAS_LATCH_CHECK)

TEST(SpinLatchTest, TryLockAndAssertHeld) {
  SpinLatch latch;
  ASSERT_TRUE(latch.TryLock());
  latch.AssertHeld();  // must not abort
  EXPECT_FALSE(latch.TryLock());
  latch.Unlock();
  ASSERT_TRUE(latch.TryLock());
  latch.Unlock();
}

TEST(SpinLatchTest, ContendedBackoffStillExcludes) {
  SpinLatch latch;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        SpinLatchGuard g(latch);
        counter++;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(LatchCheckTest, HeldCountTracksGuards) {
  EXPECT_EQ(check::HeldCount(), 0u);
  Mutex a;
  SpinLatch b;
  {
    MutexLock ga(&a);
    EXPECT_EQ(check::HeldCount(), 1u);
    {
      SpinLatchGuard gb(b);
      EXPECT_EQ(check::HeldCount(), 2u);
      EXPECT_TRUE(check::IsHeld(&a));
      EXPECT_TRUE(check::IsHeld(&b));
    }
    EXPECT_EQ(check::HeldCount(), 1u);
  }
  EXPECT_EQ(check::HeldCount(), 0u);
  EXPECT_FALSE(check::IsHeld(&a));
}

TEST(LatchCheckTest, AscendingRanksAreAdmitted) {
  Mutex outer(LatchRank::kBTree);
  Mutex inner(LatchRank::kWal);
  MutexLock g1(&outer);
  MutexLock g2(&inner);  // higher rank inside lower: fine
  SUCCEED();
}

TEST(LatchCheckTest, TryAcquireIsExemptFromOrdering) {
  Mutex high(LatchRank::kWal);
  Mutex low(LatchRank::kBTree);
  MutexLock g(&high);
  // A blocking acquire of `low` here would abort; a try-acquire cannot
  // block, so the checker admits it (the buffer pool's page-latch tries
  // under the pool mutex rely on this).
  ASSERT_TRUE(low.TryLock());
  low.Unlock();
}

TEST(LatchCheckTest, SameRankPageNestingAllowed) {
  // kPage is the one rank that may nest itself (B+-tree splits latch
  // several pages under the exclusive tree latch).
  EXPECT_TRUE(check::RankAllowsSameRankNesting(LatchRank::kPage));
  EXPECT_FALSE(check::RankAllowsSameRankNesting(LatchRank::kBTree));
  PageLatch a;
  PageLatch b;
  a.Lock();
  b.Lock();  // same rank kPage: admitted
  a.AssertHeld();
  b.AssertHeld();
  b.Unlock();
  a.Unlock();
}

using LatchCheckDeathTest = ::testing::Test;

TEST(LatchCheckDeathTest, RankInversionAbortsDeterministically) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Acquire kWal then kBTree — the inverse of the documented order. This
  // must abort on the FIRST occurrence, with no second thread needed.
  EXPECT_DEATH(
      {
        Mutex wal(LatchRank::kWal);
        Mutex tree(LatchRank::kBTree);
        MutexLock g1(&wal);
        MutexLock g2(&tree);
      },
      "rank inversion");
}

TEST(LatchCheckDeathTest, SameRankNestingAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a(LatchRank::kWal);
        Mutex b(LatchRank::kWal);
        MutexLock g1(&a);
        MutexLock g2(&b);
      },
      "same-rank nesting");
}

TEST(LatchCheckDeathTest, ReacquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpinLatch latch(LatchRank::kVidMapSlot);
        latch.Lock();
        latch.Lock();  // self-deadlock; checker aborts instead of hanging
      },
      "re-acquisition");
}

TEST(LatchCheckDeathTest, UnrankedAbbaCycleAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Unranked latches are exempt from the rank rule but tracked in the
  // instance-level acquired-before graph: A->B then B->A closes a cycle.
  EXPECT_DEATH(
      {
        Mutex a;
        Mutex b;
        {
          MutexLock ga(&a);
          MutexLock gb(&b);
        }
        MutexLock gb(&b);
        MutexLock ga(&a);
      },
      "cycle");
}

TEST(LatchCheckTest, EpochDepthTracksEnterExit) {
  EXPECT_EQ(check::EpochDepth(), 0u);
  check::OnEpochEnter();
  EXPECT_EQ(check::EpochDepth(), 1u);
  check::OnEpochEnter();  // nesting is allowed and counted
  EXPECT_EQ(check::EpochDepth(), 2u);
  check::OnEpochExit();
  check::OnEpochExit();
  EXPECT_EQ(check::EpochDepth(), 0u);
}

TEST(LatchCheckTest, EpochEntryAllowedAboveStorageLayer) {
  // Holding latches that rank BELOW kPage (coarse engine structures) is
  // fine: the deferred-free callbacks never take those.
  Mutex txn(LatchRank::kTxnManager);
  MutexLock g(&txn);
  check::OnEpochEnter();
  check::OnEpochExit();
  SUCCEED();
}

TEST(LatchCheckTest, EpochEntryExemptsTryAcquiredPageLatch) {
  // Try-acquisitions cannot block and are exempt from the rank rule; the
  // epoch rule mirrors that exemption.
  PageLatch page;
  ASSERT_TRUE(page.TryLockShared());
  check::OnEpochEnter();
  check::OnEpochExit();
  page.UnlockShared();
  SUCCEED();
}

TEST(LatchCheckDeathTest, EpochEntryUnderPageLatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Entering an epoch while holding a storage-layer latch (rank >= kPage,
  // blocking-acquired) inverts the epoch discipline: the deferred-free
  // callbacks acquire exactly those latches when they run.
  EXPECT_DEATH(
      {
        PageLatch page;
        page.Lock();
        check::OnEpochEnter();
      },
      "epoch entered under a storage-layer latch");
}

TEST(LatchCheckDeathTest, EpochExitWithoutEnterAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH({ check::OnEpochExit(); }, "epoch exit");
}

TEST(LatchCheckDeathTest, AssertHeldAbortsWhenNotHeld) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpinLatch latch;
        latch.AssertHeld();
      },
      "AssertHeld");
}

// ---------------------------------------------------------------------------
// Rank-table documentation test: every acquired-while-held pair the engine
// executes (the sequences driven by tests/concurrency_test.cc — appends,
// index maintenance, GC, bgwriter/checkpoint passes, commits, recovery).
// If a refactor reorders the rank table, this enumerates exactly which real
// nesting broke.

struct EngineEdge {
  const char* where;
  LatchRank held;
  LatchRank acquired;
  bool try_only;  // acquisition is try-only at this site
};

constexpr EngineEdge kEngineEdges[] = {
    // Maintenance: BgWriterPass / StartPacedCheckpoint walk the catalog and
    // seal append regions while holding maintenance_mu_.
    {"Database::BgWriterPass", LatchRank::kDbMaintenance,
     LatchRank::kDbCatalog, false},
    {"Database::BgWriterPass seal", LatchRank::kDbCatalog,
     LatchRank::kAppendRegion, false},
    {"AppendRegion::SealOpenPage", LatchRank::kAppendRegion,
     LatchRank::kBufferPool, false},
    // Transaction begin allocates an xid, then extends the clog directory.
    {"TransactionManager::Begin", LatchRank::kTxnManager,
     LatchRank::kBucketDir, false},
    // Index maintenance: the tree latch wraps page fetches (pool mutex) and
    // page latches; splits nest further page latches (same rank).
    {"BTree::Insert", LatchRank::kBTree, LatchRank::kBufferPool, false},
    {"BTree::Insert", LatchRank::kBTree, LatchRank::kPage, false},
    {"BTree::SplitAndInsert", LatchRank::kPage, LatchRank::kBufferPool,
     false},
    {"BTree::SplitAndInsert sibling", LatchRank::kPage, LatchRank::kPage,
     false},
    // Appends: the region mutex wraps the page fill; the latched page logs
    // to the WAL; the VidMap slot is updated under the page latch.
    {"AppendRegion::Append", LatchRank::kAppendRegion, LatchRank::kBufferPool,
     false},
    {"AppendRegion::Append", LatchRank::kAppendRegion, LatchRank::kPage,
     false},
    {"AppendRegion::Append wal", LatchRank::kPage, LatchRank::kWal, false},
    // VidMapV installs/reads are latch-free (RCU + epochs); only bucket
    // directory growth still locks, and it nests under nothing ranked.
    // Retiring superseded vectors enqueues under the epoch-queue mutex.
    {"VidMapV::Install retire", LatchRank::kUnranked, LatchRank::kEpochQueue,
     false},
    // SI heap: placement and GC nest the FSM / locator map inside the page
    // latch; the WAL append happens under the page latch too.
    {"SiHeap::PlaceTuple", LatchRank::kPage, LatchRank::kSiHeapFsm, false},
    {"SiHeap::PlaceTuple wal", LatchRank::kPage, LatchRank::kWal, false},
    {"SiHeap::GarbageCollect", LatchRank::kPage, LatchRank::kSiHeapMap,
     false},
    // Buffer pool: flush paths try-latch pages and call the WAL-flush hook
    // and the disk manager under the pool mutex.
    {"BufferPool::WriteFrame", LatchRank::kBufferPool, LatchRank::kPage,
     true},
    {"BufferPool::WriteFrame fpi", LatchRank::kBufferPool, LatchRank::kWal,
     false},
    {"BufferPool::WriteFrame wal hook", LatchRank::kBufferPool,
     LatchRank::kWalFlush, false},
    {"BufferPool::WriteFrame write", LatchRank::kBufferPool, LatchRank::kDisk,
     false},
    // WAL flush: the flusher mutex wraps the tail snapshot and publish
    // (log mutex) and the block writes through the device stack.
    {"WalWriter::FlushTo snapshot", LatchRank::kWalFlush, LatchRank::kWal,
     false},
    {"WalWriter::FlushTo", LatchRank::kWalFlush, LatchRank::kDevice, false},
    // Async I/O: the deferred FIFO executes queued requests through the
    // fault decorator's write cache and on into the device; the base
    // device records each completion (and its lag histogram) under the
    // completion-table mutex.
    {"FaultyDevice::ExecuteThrough", LatchRank::kIoQueue,
     LatchRank::kFaultyDevice, false},
    {"FaultyDevice::ExecuteThrough device", LatchRank::kIoQueue,
     LatchRank::kDevice, false},
    {"FaultyDevice::ExecuteThrough completion", LatchRank::kIoQueue,
     LatchRank::kIoCompletion, false},
    {"StorageDevice::Poll lag", LatchRank::kIoCompletion, LatchRank::kMetrics,
     false},
    {"FlashSsd::Write", LatchRank::kDevice, LatchRank::kDeviceCalendar,
     false},
    // Devices record I/O into trace/stats leaves and the payload store.
    {"StorageDevice trace", LatchRank::kDevice, LatchRank::kStats, false},
    {"FlashSsd store", LatchRank::kDevice, LatchRank::kDeviceStore, false},
    // Metrics: the registry snapshot merges histogram shards.
    {"MetricsRegistry::Snapshot", LatchRank::kMetricsRegistry,
     LatchRank::kMetrics, false},
};

TEST(LatchCheckTest, DocumentedRankOrderAdmitsEngineSequences) {
  for (const EngineEdge& e : kEngineEdges) {
    if (e.try_only) continue;  // try-acquires are exempt by design
    bool admitted =
        e.held < e.acquired ||
        (e.held == e.acquired && check::RankAllowsSameRankNesting(e.held));
    EXPECT_TRUE(admitted) << e.where << ": acquiring "
                          << check::LatchRankName(e.acquired)
                          << " while holding "
                          << check::LatchRankName(e.held);
  }
}

#else  // !SIAS_LATCH_CHECK

TEST(LatchCheckTest, DisabledInThisBuild) {
  GTEST_SKIP() << "latch-order validator is compiled out "
                  "(it is compiled into Debug and sanitizer builds: "
                  "-DCMAKE_BUILD_TYPE=Debug or -DSIAS_SANITIZE=...)";
}

#endif  // SIAS_LATCH_CHECK

}  // namespace
}  // namespace sias
