// Unit tests for the transaction layer: clog, snapshots, transaction
// manager lifecycle, lock manager, first-updater-wins building blocks, and
// end-to-end snapshot-isolation anomaly regression tests (which anomalies SI
// must prevent, and which — write skew — it permits by definition).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/sias_table.h"
#include "device/mem_device.h"
#include "engine/database.h"
#include "mvcc/mvcc_table.h"
#include "mvcc/visibility.h"
#include "txn/clog.h"
#include "txn/lock_manager.h"
#include "txn/snapshot.h"
#include "txn/txn_manager.h"

namespace sias {
namespace {

TEST(ClogTest, LifecycleStatuses) {
  Clog clog;
  clog.Extend(100);
  EXPECT_EQ(clog.Get(50), TxnStatus::kInProgress);
  clog.SetCommitted(50);
  EXPECT_EQ(clog.Get(50), TxnStatus::kCommitted);
  clog.SetAborted(51);
  EXPECT_EQ(clog.Get(51), TxnStatus::kAborted);
  EXPECT_TRUE(clog.IsCommitted(50));
  EXPECT_FALSE(clog.IsCommitted(51));
}

TEST(ClogTest, SpecialXids) {
  Clog clog;
  EXPECT_EQ(clog.Get(kFrozenXid), TxnStatus::kCommitted);
  EXPECT_EQ(clog.Get(kInvalidXid), TxnStatus::kAborted);
}

TEST(ClogTest, GrowsAcrossChunks) {
  Clog clog;
  Xid big = 200000;  // beyond one 65536-entry chunk
  clog.Extend(big);
  clog.SetCommitted(big);
  EXPECT_TRUE(clog.IsCommitted(big));
  EXPECT_EQ(clog.Get(big - 1), TxnStatus::kInProgress);
}

TEST(ClogTest, SerializeRoundTrip) {
  Clog clog;
  clog.Extend(10);
  clog.SetCommitted(3);
  clog.SetAborted(4);
  std::string out;
  clog.Serialize(&out);

  Clog restored;
  ASSERT_TRUE(restored.Deserialize(Slice(out)).ok());
  EXPECT_EQ(restored.Get(3), TxnStatus::kCommitted);
  EXPECT_EQ(restored.Get(4), TxnStatus::kAborted);
  EXPECT_EQ(restored.Get(5), TxnStatus::kInProgress);
}

TEST(ClogTest, ConcurrentSettersAreSafe) {
  Clog clog;
  clog.Extend(40000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (Xid x = 2 + t; x < 40000; x += 4) clog.SetCommitted(x);
    });
  }
  for (auto& th : threads) th.join();
  for (Xid x = 2; x < 40000; ++x) EXPECT_TRUE(clog.IsCommitted(x));
}

TEST(SnapshotTest, ContainsRules) {
  Snapshot snap;
  snap.xid = 10;
  snap.xmax = 12;
  snap.concurrent = {7, 9};
  EXPECT_TRUE(snap.Contains(10));   // self
  EXPECT_TRUE(snap.Contains(5));    // old, not concurrent
  EXPECT_FALSE(snap.Contains(7));   // concurrent
  EXPECT_FALSE(snap.Contains(9));   // concurrent
  EXPECT_TRUE(snap.Contains(8));    // finished before us
  EXPECT_FALSE(snap.Contains(12));  // future
  EXPECT_FALSE(snap.Contains(99));  // future
  EXPECT_TRUE(snap.Contains(kFrozenXid));
  EXPECT_FALSE(snap.Contains(kInvalidXid));
}

TEST(SnapshotTest, OwnerWithoutXidClaimsNoXid) {
  // A read-only transaction's snapshot has xid == kInvalidXid; xid 0 must
  // not pass for "own writes".
  Clog clog;
  clog.Extend(10);
  Snapshot snap;
  snap.xmax = 8;
  EXPECT_FALSE(snap.Contains(kInvalidXid));
  EXPECT_FALSE(snap.CreatorVisible(kInvalidXid, clog));
  clog.SetCommitted(5);
  TupleHeader h;
  h.xmin = 5;
  h.xmax = kInvalidXid;  // never invalidated: still visible
  EXPECT_TRUE(SiTupleVisible(h, snap, clog));
  h.xmax = 6;  // invalidator in progress: still visible
  EXPECT_TRUE(SiTupleVisible(h, snap, clog));
  clog.SetCommitted(6);
  EXPECT_FALSE(SiTupleVisible(h, snap, clog));
}

TEST(SnapshotTest, CreatorVisibleRequiresCommit) {
  Clog clog;
  clog.Extend(10);
  Snapshot snap;
  snap.xid = 10;
  snap.xmax = 11;
  snap.concurrent = {};
  EXPECT_FALSE(snap.CreatorVisible(5, clog));  // in snapshot but not committed
  clog.SetCommitted(5);
  EXPECT_TRUE(snap.CreatorVisible(5, clog));
  clog.SetAborted(6);
  EXPECT_FALSE(snap.CreatorVisible(6, clog));
  EXPECT_TRUE(snap.CreatorVisible(10, clog));  // own writes, uncommitted
}

class TxnManagerTest : public ::testing::Test {
 protected:
  TxnManagerTest() : mgr_(&clog_, &locks_) {}
  Clog clog_;
  LockManager locks_;
  TransactionManager mgr_;
  VirtualClock clk_;
};

TEST_F(TxnManagerTest, XidsAssignedAtFirstWriteInOrder) {
  auto t1 = mgr_.Begin(&clk_);
  auto t2 = mgr_.Begin(&clk_);
  EXPECT_EQ(t1->xid(), kInvalidXid);  // Begin hands out no xid
  EXPECT_EQ(t2->xid(), kInvalidXid);
  EXPECT_EQ(mgr_.ActiveCount(), 2u);
  // Xids follow the order of first writes, not of Begins.
  mgr_.AssignXid(t2.get());
  mgr_.AssignXid(t1.get());
  EXPECT_LT(t2->xid(), t1->xid());
  EXPECT_EQ(t1->snapshot().xid, t1->xid());
  Xid x1 = t1->xid();
  mgr_.AssignXid(t1.get());  // idempotent
  EXPECT_EQ(t1->xid(), x1);
  ASSERT_TRUE(mgr_.Commit(t1.get()).ok());
  ASSERT_TRUE(mgr_.Abort(t2.get()).ok());
  EXPECT_EQ(mgr_.ActiveCount(), 0u);
}

TEST_F(TxnManagerTest, SnapshotSeesPriorCommitsOnly) {
  auto t1 = mgr_.Begin(&clk_);
  mgr_.AssignXid(t1.get());
  Xid x1 = t1->xid();
  auto t2 = mgr_.Begin(&clk_);  // t1 still running: concurrent
  EXPECT_FALSE(t2->snapshot().Contains(x1));
  ASSERT_TRUE(mgr_.Commit(t1.get()).ok());
  // Snapshot is fixed at Begin: still not visible to t2 (repeatable reads).
  EXPECT_FALSE(t2->snapshot().Contains(x1));
  auto t3 = mgr_.Begin(&clk_);
  EXPECT_TRUE(t3->snapshot().CreatorVisible(x1, clog_));
  ASSERT_TRUE(mgr_.Commit(t2.get()).ok());
  ASSERT_TRUE(mgr_.Commit(t3.get()).ok());
}

TEST_F(TxnManagerTest, SnapshotExcludesXidAssignedAfterBegin) {
  // A reader that began before a writer took its xid must not see the
  // writer's commit, although the template was not rebuilt at assignment.
  auto writer = mgr_.Begin(&clk_);
  auto reader = mgr_.Begin(&clk_);
  mgr_.AssignXid(writer.get());
  Xid w = writer->xid();
  ASSERT_TRUE(mgr_.Commit(writer.get()).ok());
  EXPECT_FALSE(reader->snapshot().CreatorVisible(w, clog_));
  auto after = mgr_.Begin(&clk_);
  EXPECT_TRUE(after->snapshot().CreatorVisible(w, clog_));
  ASSERT_TRUE(mgr_.Commit(reader.get()).ok());
  ASSERT_TRUE(mgr_.Commit(after.get()).ok());
}

TEST_F(TxnManagerTest, CommitFlipsClogAndState) {
  auto t = mgr_.Begin(&clk_);
  mgr_.AssignXid(t.get());
  EXPECT_EQ(clog_.Get(t->xid()), TxnStatus::kInProgress);
  ASSERT_TRUE(mgr_.Commit(t.get()).ok());
  EXPECT_EQ(clog_.Get(t->xid()), TxnStatus::kCommitted);
  EXPECT_EQ(t->state(), TxnState::kCommitted);
  EXPECT_FALSE(mgr_.Commit(t.get()).ok());  // double commit rejected
}

TEST_F(TxnManagerTest, ReadOnlyTransactionsTakeNoXid) {
  Xid next = mgr_.NextXid();
  std::string clog_before;
  clog_.Serialize(&clog_before);
  for (int i = 0; i < 10000; ++i) {
    auto t = mgr_.Begin(&clk_);
    EXPECT_EQ(t->xid(), kInvalidXid);
    ASSERT_TRUE((i % 10 == 0 ? mgr_.Abort(t.get()) : mgr_.Commit(t.get()))
                    .ok());
  }
  EXPECT_EQ(mgr_.NextXid(), next);
  std::string clog_after;
  clog_.Serialize(&clog_after);
  EXPECT_EQ(clog_after, clog_before);
  EXPECT_EQ(mgr_.ActiveCount(), 0u);
  EXPECT_EQ(mgr_.GcHorizon(), next);
}

TEST_F(TxnManagerTest, CommittedWriterVisibleToNextBeginOnAnyThread) {
  // Commit's return publishes: a Begin ordered after it on another thread
  // (through `last`) must see the writer, whatever the interleaving.
  constexpr int kWrites = 2000;
  std::atomic<Xid> last{kInvalidXid};
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    VirtualClock clk;
    for (int i = 0; i < kWrites; ++i) {
      auto t = mgr_.Begin(&clk);
      mgr_.AssignXid(t.get());
      EXPECT_TRUE(mgr_.Commit(t.get()).ok());
      last.store(t->xid(), std::memory_order_release);
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      VirtualClock clk;
      bool last_round = false;
      while (!last_round) {
        last_round = done.load();
        Xid w = last.load(std::memory_order_acquire);
        auto t = mgr_.Begin(&clk);
        if (w != kInvalidXid && !t->snapshot().CreatorVisible(w, clog_)) {
          failed.store(true);
        }
        EXPECT_TRUE(mgr_.Commit(t.get()).ok());
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(mgr_.ActiveCount(), 0u);
}

/// A table that only records which logged writes it was asked to undo.
class UndoRecorder : public MvccTable {
 public:
  VersionScheme scheme() const override { return VersionScheme::kSiasV; }
  RelationId relation() const override { return 1; }
  Result<Vid> Insert(Transaction*, Slice, Tid*) override { return Vid{0}; }
  Status Update(Transaction*, Vid, Slice, Tid*) override {
    return Status::OK();
  }
  Status Delete(Transaction*, Vid) override { return Status::OK(); }
  void UndoWrite(const TxnWrite& write) override {
    undone.push_back(write.vid);
  }
  Result<bool> Read(Transaction*, Vid, std::string*, bool*) override {
    return false;
  }
  Status ScanWithTid(Transaction*, const VersionScanCallback&) override {
    return Status::OK();
  }
  Vid vid_bound() const override { return 0; }
  Status GarbageCollect(Xid, VirtualClock*) override {
    return Status::OK();
  }
  Status Rebuild() override { return Status::OK(); }

  std::vector<Vid> undone;
};

TEST_F(TxnManagerTest, AbortUndoesWriteLogNewestFirst) {
  UndoRecorder table;
  auto t = mgr_.Begin(&clk_);
  mgr_.AssignXid(t.get());
  t->LogWrite(&table, 1, Tid{0, 1}, kInvalidTid);
  t->LogWrite(&table, 2, Tid{0, 2}, Tid{0, 0});
  ASSERT_TRUE(mgr_.Abort(t.get()).ok());
  EXPECT_EQ(table.undone, (std::vector<Vid>{2, 1}));
  EXPECT_EQ(clog_.Get(t->xid()), TxnStatus::kAborted);
}

TEST_F(TxnManagerTest, CommitDoesNotUndoWrites) {
  UndoRecorder table;
  auto t = mgr_.Begin(&clk_);
  t->LogWrite(&table, 1, Tid{0, 1}, kInvalidTid);
  ASSERT_TRUE(mgr_.Commit(t.get()).ok());
  EXPECT_TRUE(table.undone.empty());
}

TEST_F(TxnManagerTest, FailedCommitHookAborts) {
  mgr_.set_commit_hook(
      [](Transaction*) { return Status::IoError("wal device gone"); });
  auto t = mgr_.Begin(&clk_);
  mgr_.AssignXid(t.get());
  Status s = mgr_.Commit(t.get());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(t->state(), TxnState::kAborted);
  EXPECT_EQ(clog_.Get(t->xid()), TxnStatus::kAborted);
}

TEST_F(TxnManagerTest, LocksReleasedAtEnd) {
  auto t = mgr_.Begin(&clk_);
  mgr_.AssignXid(t.get());  // row locks are owned by an xid
  ASSERT_TRUE(locks_.AcquireExclusive(1, 42, t->xid(), &clk_).ok());
  t->AddLock(1, 42);
  EXPECT_EQ(locks_.HeldCount(), 1u);
  ASSERT_TRUE(mgr_.Commit(t.get()).ok());
  EXPECT_EQ(locks_.HeldCount(), 0u);
}

TEST_F(TxnManagerTest, OldestActiveXidTracksHorizon) {
  EXPECT_EQ(mgr_.OldestActiveXid(), mgr_.NextXid());
  auto reader = mgr_.Begin(&clk_);  // holds no xid: not "running" here
  auto t1 = mgr_.Begin(&clk_);
  auto t2 = mgr_.Begin(&clk_);
  EXPECT_EQ(mgr_.OldestActiveXid(), mgr_.NextXid());
  mgr_.AssignXid(t1.get());
  mgr_.AssignXid(t2.get());
  EXPECT_EQ(mgr_.OldestActiveXid(), t1->xid());
  EXPECT_LE(mgr_.GcHorizon(), t1->xid());
  ASSERT_TRUE(mgr_.Commit(t1.get()).ok());
  EXPECT_EQ(mgr_.OldestActiveXid(), t2->xid());
  ASSERT_TRUE(mgr_.Commit(t2.get()).ok());
  EXPECT_EQ(mgr_.OldestActiveXid(), mgr_.NextXid());
  // The reader's snapshot predates both commits: it still holds the horizon.
  EXPECT_LT(mgr_.GcHorizon(), mgr_.NextXid());
  ASSERT_TRUE(mgr_.Commit(reader.get()).ok());
  EXPECT_EQ(mgr_.GcHorizon(), mgr_.NextXid());
}

TEST(LockManagerTest, ExclusiveBlocksOtherXid) {
  LockManager locks(/*timeout_ms=*/50);
  VirtualClock clk;
  ASSERT_TRUE(locks.AcquireExclusive(1, 7, 100, &clk).ok());
  Status s = locks.AcquireExclusive(1, 7, 101, &clk);
  EXPECT_TRUE(s.IsLockTimeout());
  locks.Release(1, 7, 100, 0);
  EXPECT_TRUE(locks.AcquireExclusive(1, 7, 101, &clk).ok());
}

TEST(LockManagerTest, ReentrantForSameXid) {
  LockManager locks;
  VirtualClock clk;
  ASSERT_TRUE(locks.AcquireExclusive(1, 7, 100, &clk).ok());
  ASSERT_TRUE(locks.AcquireExclusive(1, 7, 100, &clk).ok());
  EXPECT_EQ(locks.HeldCount(), 1u);
}

TEST(LockManagerTest, TryAcquireFailsFast) {
  LockManager locks;
  ASSERT_TRUE(locks.TryAcquireExclusive(1, 7, 100).ok());
  Status s = locks.TryAcquireExclusive(1, 7, 101);
  EXPECT_TRUE(s.IsSerializationFailure());
}

TEST(LockManagerTest, WaiterWakesOnRelease) {
  LockManager locks(/*timeout_ms=*/5000);
  VirtualClock clk1(0);
  ASSERT_TRUE(locks.AcquireExclusive(1, 7, 100, &clk1).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    VirtualClock clk2(0);
    Status s = locks.AcquireExclusive(1, 7, 101, &clk2);
    EXPECT_TRUE(s.ok());
    // Virtual wait: clk2 advanced to the holder's release time.
    EXPECT_GE(clk2.now(), 5 * kVMillisecond);
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  locks.Release(1, 7, 100, /*release_vtime=*/5 * kVMillisecond);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockManagerTest, DistinctRowsDoNotConflict) {
  LockManager locks;
  VirtualClock clk;
  EXPECT_TRUE(locks.AcquireExclusive(1, 7, 100, &clk).ok());
  EXPECT_TRUE(locks.AcquireExclusive(1, 8, 101, &clk).ok());
  EXPECT_TRUE(locks.AcquireExclusive(2, 7, 102, &clk).ok());
  EXPECT_EQ(locks.HeldCount(), 3u);
}

// ---------------------------------------------------------------------------
// SI anomaly regressions, run against a full Database under every version
// scheme: the in-place SI heap and both SIAS append-storage variants must
// expose identical transaction-level semantics.

class SiAnomalyTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  void SetUp() override {
    data_ = std::make_unique<MemDevice>(1ull << 30);
    wal_ = std::make_unique<MemDevice>(1ull << 30);
    DatabaseOptions opts;
    opts.data_device = data_.get();
    opts.wal_device = wal_.get();
    opts.pool_frames = 256;
    opts.lock_timeout_ms = 20;  // conflicts should fail fast, not hang
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto t = db_->CreateTable(
        "kv", Schema{{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}},
        GetParam());
    ASSERT_TRUE(t.ok());
    kv_ = *t;
  }

  Vid Put(int64_t k, int64_t v) {
    auto txn = db_->Begin(&clk_);
    auto vid = kv_->Insert(txn.get(), Row{{k, v}});
    EXPECT_TRUE(vid.ok()) << vid.status().ToString();
    EXPECT_TRUE(db_->Commit(txn.get()).ok());
    return *vid;
  }

  int64_t Value(Transaction* txn, Vid vid) {
    auto row = kv_->Get(txn, vid);
    EXPECT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_TRUE(row->has_value());
    return (*row)->GetInt(1);
  }

  std::unique_ptr<MemDevice> data_, wal_;
  std::unique_ptr<Database> db_;
  Table* kv_ = nullptr;
  VirtualClock clk_;
};

TEST_P(SiAnomalyTest, FirstCommitterWinsOnWriteWriteConflict) {
  Vid vid = Put(1, 10);
  auto t1 = db_->Begin(&clk_);
  auto t2 = db_->Begin(&clk_);  // concurrent with t1
  ASSERT_TRUE(kv_->Update(t1.get(), vid, Row{{int64_t{1}, int64_t{11}}}).ok());
  ASSERT_TRUE(db_->Commit(t1.get()).ok());
  // t2's snapshot predates t1's commit: its update of the same row must
  // fail with a serialization error, never silently clobber t1's version.
  Status s = kv_->Update(t2.get(), vid, Row{{int64_t{1}, int64_t{12}}});
  EXPECT_TRUE(s.IsSerializationFailure()) << s.ToString();
  ASSERT_TRUE(db_->Abort(t2.get()).ok());
  auto t3 = db_->Begin(&clk_);
  EXPECT_EQ(Value(t3.get(), vid), 11);
  ASSERT_TRUE(db_->Commit(t3.get()).ok());
}

TEST_P(SiAnomalyTest, ConcurrentUpdaterBlocksThenFails) {
  Vid vid = Put(1, 10);
  auto t1 = db_->Begin(&clk_);
  auto t2 = db_->Begin(&clk_);
  ASSERT_TRUE(kv_->Update(t1.get(), vid, Row{{int64_t{1}, int64_t{11}}}).ok());
  // First updater holds the row lock: the second updater must not proceed
  // while t1 is undecided (here the bounded wait times out).
  Status s = kv_->Update(t2.get(), vid, Row{{int64_t{1}, int64_t{12}}});
  EXPECT_TRUE(s.IsRetryable()) << s.ToString();
  ASSERT_TRUE(db_->Abort(t2.get()).ok());
  ASSERT_TRUE(db_->Commit(t1.get()).ok());
}

TEST_P(SiAnomalyTest, NoLostUpdateAfterAbortedFirstUpdater) {
  Vid vid = Put(1, 10);
  auto t1 = db_->Begin(&clk_);
  ASSERT_TRUE(kv_->Update(t1.get(), vid, Row{{int64_t{1}, int64_t{11}}}).ok());
  ASSERT_TRUE(db_->Abort(t1.get()).ok());
  // The aborted update releases the row: a later transaction updates from
  // the original value.
  auto t2 = db_->Begin(&clk_);
  EXPECT_EQ(Value(t2.get(), vid), 10);
  ASSERT_TRUE(kv_->Update(t2.get(), vid, Row{{int64_t{1}, int64_t{20}}}).ok());
  ASSERT_TRUE(db_->Commit(t2.get()).ok());
  auto t3 = db_->Begin(&clk_);
  EXPECT_EQ(Value(t3.get(), vid), 20);
  ASSERT_TRUE(db_->Commit(t3.get()).ok());
}

TEST_P(SiAnomalyTest, RepeatableReadsWithinSnapshot) {
  Vid vid = Put(1, 10);
  auto reader = db_->Begin(&clk_);
  EXPECT_EQ(Value(reader.get(), vid), 10);
  auto writer = db_->Begin(&clk_);
  ASSERT_TRUE(
      kv_->Update(writer.get(), vid, Row{{int64_t{1}, int64_t{99}}}).ok());
  ASSERT_TRUE(db_->Commit(writer.get()).ok());
  // No non-repeatable read: the reader's snapshot is fixed at Begin.
  EXPECT_EQ(Value(reader.get(), vid), 10);
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
  auto after = db_->Begin(&clk_);
  EXPECT_EQ(Value(after.get(), vid), 99);
  ASSERT_TRUE(db_->Commit(after.get()).ok());
}

TEST_P(SiAnomalyTest, WriteSkewIsPermitted) {
  // The classic SI anomaly: two transactions each read both rows (sum 100,
  // constraint "sum >= 0" app-side) and write DIFFERENT rows. No
  // write-write conflict exists, so snapshot isolation commits both —
  // this test documents that the engine is SI, not serializable.
  Vid x = Put(1, 50);
  Vid y = Put(2, 50);
  auto t1 = db_->Begin(&clk_);
  auto t2 = db_->Begin(&clk_);
  int64_t sum1 = Value(t1.get(), x) + Value(t1.get(), y);
  int64_t sum2 = Value(t2.get(), x) + Value(t2.get(), y);
  EXPECT_EQ(sum1, 100);
  EXPECT_EQ(sum2, 100);
  ASSERT_TRUE(
      kv_->Update(t1.get(), x, Row{{int64_t{1}, int64_t{-50}}}).ok());
  ASSERT_TRUE(
      kv_->Update(t2.get(), y, Row{{int64_t{2}, int64_t{-50}}}).ok());
  EXPECT_TRUE(db_->Commit(t1.get()).ok());
  EXPECT_TRUE(db_->Commit(t2.get()).ok());
  auto t3 = db_->Begin(&clk_);
  EXPECT_EQ(Value(t3.get(), x) + Value(t3.get(), y), -100);
  ASSERT_TRUE(db_->Commit(t3.get()).ok());
}

TEST_P(SiAnomalyTest, NoDirtyReads) {
  Vid vid = Put(1, 10);
  auto writer = db_->Begin(&clk_);
  ASSERT_TRUE(
      kv_->Update(writer.get(), vid, Row{{int64_t{1}, int64_t{77}}}).ok());
  // Uncommitted write is invisible to a concurrent reader.
  auto reader = db_->Begin(&clk_);
  EXPECT_EQ(Value(reader.get(), vid), 10);
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
  ASSERT_TRUE(db_->Commit(writer.get()).ok());
}

// ---------------------------------------------------------------------------
// Registration race: Begin publishes its snapshot bounds only after it has
// read the template. GC that runs in between must still count that
// template, through the template pair GcHorizon adds to the published
// slots. The SI instance is the sharp one: SI GC takes no row locks, so the
// writer's still-held lock does not shield the old version there (SIAS GC
// skips the locked item's page).

std::atomic<int> g_race_stage{0};
thread_local int t_race_role = 0;  // 1 = paused reader, 2 = paused writer

void WaitForStage(int stage) {
  while (g_race_stage.load() < stage) std::this_thread::yield();
}

void RacePause(TxnPausePoint point) {
  if (t_race_role == 1 && point == TxnPausePoint::kBeginTemplateLoaded) {
    g_race_stage.store(1);  // template loaded, slot not yet published
    WaitForStage(3);
  } else if (t_race_role == 2 &&
             point == TxnPausePoint::kFinishBeforeRebuild) {
    g_race_stage.store(2);  // clog says committed, template not rebuilt
    WaitForStage(4);
  }
}

TEST_P(SiAnomalyTest, RacingGcKeepsVersionForUnpublishedReader) {
  Vid vid = Put(1, 10);
  auto writer = db_->Begin(&clk_);
  ASSERT_TRUE(
      kv_->Update(writer.get(), vid, Row{{int64_t{1}, int64_t{11}}}).ok());
  g_race_stage.store(0);
  db_->txns()->SetPauseHookForTest(&RacePause);

  int64_t seen = -1;  // stays -1 if GC took the version the reader needs
  std::thread reader_thread([&] {
    t_race_role = 1;
    VirtualClock clk;
    auto reader = db_->Begin(&clk);  // pauses before publishing its slot
    auto row = kv_->Get(reader.get(), vid);
    if (row.ok() && row->has_value()) seen = (*row)->GetInt(1);
    EXPECT_TRUE(db_->Commit(reader.get()).ok());
    g_race_stage.store(5);
  });
  WaitForStage(1);
  std::thread writer_thread([&] {
    t_race_role = 2;
    EXPECT_TRUE(db_->Commit(writer.get()).ok());  // pauses before rebuild
  });
  WaitForStage(2);
  // The writer's commit is in the clog and no published slot holds the
  // reader's bounds; only the template pair keeps the horizon at or below
  // the writer's xid, which invalidated version 10.
  VirtualClock gc_clk;
  ASSERT_TRUE(db_->Vacuum(&gc_clk).ok());
  g_race_stage.store(3);  // reader publishes, validates and reads
  WaitForStage(5);
  EXPECT_EQ(seen, 10);
  g_race_stage.store(4);
  writer_thread.join();
  reader_thread.join();
  db_->txns()->SetPauseHookForTest(nullptr);
  auto after = db_->Begin(&clk_);
  EXPECT_EQ(Value(after.get(), vid), 11);
  ASSERT_TRUE(db_->Commit(after.get()).ok());
}

/// Pauses the reader at its first template load only: its retry after a
/// failed validation runs through.
std::atomic<bool> g_pause_once{false};
void PauseReaderOnce(TxnPausePoint point) {
  if (t_race_role == 1 && point == TxnPausePoint::kBeginTemplateLoaded &&
      g_pause_once.exchange(false)) {
    g_race_stage.store(1);
    WaitForStage(3);
  }
}

// The same registration window against SIAS-V's in-band trimming: a
// writer samples the GC horizon when it takes its xid, and two updates trim
// the item's vector while a reader sits between its template load and its
// slot publication. The template the reader loaded still treats the first
// writer as in progress, and only value 10 is visible under it; 10 is
// trimmed by then. Begin's validation must notice that the template moved,
// so the reader starts over on a snapshot that sees the newest value.
TEST_P(SiAnomalyTest, TrimmingWritersKeepVersionForUnpublishedReader) {
  Vid vid = Put(1, 10);
  auto first = db_->Begin(&clk_);
  ASSERT_TRUE(
      kv_->Update(first.get(), vid, Row{{int64_t{1}, int64_t{11}}}).ok());
  g_race_stage.store(0);
  g_pause_once.store(true);
  db_->txns()->SetPauseHookForTest(&PauseReaderOnce);

  int64_t seen = -1;  // stays -1 if the reader's version was trimmed away
  Xid reader_xmax = kInvalidXid;
  std::thread reader_thread([&] {
    t_race_role = 1;
    VirtualClock clk;
    auto reader = db_->Begin(&clk);  // pauses before publishing its slot
    reader_xmax = reader->snapshot().xmax;
    auto row = kv_->Get(reader.get(), vid);
    if (row.ok() && row->has_value()) seen = (*row)->GetInt(1);
    EXPECT_TRUE(db_->Commit(reader.get()).ok());
    g_race_stage.store(5);
  });
  WaitForStage(1);
  // The paused reader's template lists `first` as in progress.
  ASSERT_TRUE(db_->Commit(first.get()).ok());
  Xid last_writer = kInvalidXid;
  for (int64_t v : {12, 13}) {
    auto w = db_->Begin(&clk_);
    ASSERT_TRUE(kv_->Update(w.get(), vid, Row{{int64_t{1}, v}}).ok());
    last_writer = w->xid();
    ASSERT_TRUE(db_->Commit(w.get()).ok());
  }
  if (GetParam() == VersionScheme::kSiasV) {
    // {13, 12}: versions 11 and 10 were trimmed by the two writers.
    auto* sias = static_cast<SiasTable*>(kv_->heap());
    EXPECT_EQ(sias->vid_map_v().Get(vid).size(), 2u);
  }
  g_race_stage.store(3);  // let the reader publish, validate and read
  WaitForStage(5);
  reader_thread.join();
  db_->txns()->SetPauseHookForTest(nullptr);
  EXPECT_GT(reader_xmax, last_writer) << "reader kept the stale template";
  EXPECT_EQ(seen, 13);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SiAnomalyTest,
                         ::testing::Values(VersionScheme::kSi,
                                           VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         [](const auto& info) {
                           switch (info.param) {
                             case VersionScheme::kSi: return "Si";
                             case VersionScheme::kSiasChains:
                               return "SiasChains";
                             case VersionScheme::kSiasV: return "SiasV";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace sias
