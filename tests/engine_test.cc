// Engine-level tests: row codec, tables with secondary indexes under all
// three schemes, maintenance policies, checkpointing and crash recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "core/sias_table.h"
#include "device/mem_device.h"
#include "engine/database.h"
#include "index/key_codec.h"
#include "mvcc/epoch.h"
#include "mvcc/heap_pages.h"
#include "obs/metrics.h"
#include "tests/test_env.h"

namespace sias {
namespace {

Schema AccountSchema() {
  return Schema{{"id", ColumnType::kInt64},
                {"owner", ColumnType::kString},
                {"balance", ColumnType::kDouble}};
}

Row Account(int64_t id, const std::string& owner, double balance) {
  return Row{{id, owner, balance}};
}

TEST(SchemaTest, RowCodecRoundTrip) {
  Schema schema = AccountSchema();
  Row row = Account(42, "alice", 99.5);
  std::string bytes;
  ASSERT_TRUE(row.Encode(schema, &bytes).ok());
  auto decoded = Row::Decode(schema, Slice(bytes));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
  EXPECT_EQ(decoded->GetInt(0), 42);
  EXPECT_EQ(decoded->GetString(1), "alice");
  EXPECT_DOUBLE_EQ(decoded->GetDouble(2), 99.5);
}

TEST(SchemaTest, CodecRejectsMismatches) {
  Schema schema = AccountSchema();
  std::string bytes;
  Row short_row{{int64_t{1}}};
  EXPECT_FALSE(short_row.Encode(schema, &bytes).ok());  // arity
  Row bad_types{{std::string("x"), std::string("y"), 1.0}};
  EXPECT_FALSE(bad_types.Encode(schema, &bytes).ok());  // type
  EXPECT_FALSE(Row::Decode(schema, Slice("short")).ok());
}

TEST(SchemaTest, EmptyStringAndNegatives) {
  Schema schema = AccountSchema();
  Row row = Account(-7, "", -0.25);
  std::string bytes;
  ASSERT_TRUE(row.Encode(schema, &bytes).ok());
  auto decoded = Row::Decode(schema, Slice(bytes));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
}

class EngineTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  void SetUp() override {
    data_ = std::make_unique<MemDevice>(1ull << 30);
    wal_ = std::make_unique<MemDevice>(1ull << 30);
    Reopen();
  }

  void Reopen() {
    DatabaseOptions opts;
    opts.data_device = data_.get();
    opts.wal_device = wal_.get();
    opts.pool_frames = 512;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    DeclareCatalog();
  }

  void DeclareCatalog() {
    auto t = db_->CreateTable("accounts", AccountSchema(), GetParam());
    ASSERT_TRUE(t.ok());
    accounts_ = *t;
    ASSERT_TRUE(db_->CreateIndex(accounts_, "accounts_by_id",
                                 [](const Row& r) {
                                   return IntKey(r.GetInt(0));
                                 })
                    .ok());
    ASSERT_TRUE(db_->CreateIndex(accounts_, "accounts_by_owner",
                                 [](const Row& r) {
                                   return KeyBuilder()
                                       .AddString(Slice(r.GetString(1)))
                                       .Take();
                                 })
                    .ok());
  }

  Vid InsertAccount(int64_t id, const std::string& owner, double balance) {
    auto txn = db_->Begin(&clk_);
    auto vid = accounts_->Insert(txn.get(), Account(id, owner, balance));
    EXPECT_TRUE(vid.ok()) << vid.status().ToString();
    EXPECT_TRUE(db_->Commit(txn.get()).ok());
    return *vid;
  }

  void UpdateAccount(Vid vid, int64_t id, double balance) {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_
                    ->Update(txn.get(), vid,
                             Account(id, "own" + std::to_string(id), balance))
                    .ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  /// 40 accounts, a checkpoint, then ten rounds of updates to every
  /// account: the oldest heap pages end up holding dead versions only.
  std::vector<Vid> ChurnAccounts() {
    std::vector<Vid> vids;
    for (int i = 0; i < 40; ++i) {
      vids.push_back(InsertAccount(i, "own" + std::to_string(i), 0.0));
    }
    EXPECT_TRUE(db_->Checkpoint(&clk_).ok());
    for (int round = 1; round <= 10; ++round) {
      for (int i = 0; i < 40; ++i) UpdateAccount(vids[i], i, round);
    }
    return vids;
  }

  /// Live tuple versions in the accounts heap, counted page by page.
  size_t LiveHeapVersions() {
    size_t n = 0;
    HeapPages heap(db_->pool(), accounts_->heap()->relation());
    EXPECT_TRUE(heap.Scan(nullptr, [&](const VersionRef&, Slice) {
                      ++n;
                      return true;
                    }).ok());
    return n;
  }

  std::unique_ptr<MemDevice> data_, wal_;
  std::unique_ptr<Database> db_;
  Table* accounts_ = nullptr;
  VirtualClock clk_;
};

TEST_P(EngineTest, InsertGetRoundTrip) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  auto txn = db_->Begin(&clk_);
  auto row = accounts_->Get(txn.get(), vid);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((*row)->GetString(1), "alice");
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, IndexLookupFindsRow) {
  InsertAccount(1, "alice", 10.0);
  InsertAccount(2, "bob", 20.0);
  InsertAccount(3, "alice", 30.0);
  auto txn = db_->Begin(&clk_);
  auto by_id = accounts_->IndexLookup(txn.get(), 0, IntKey(2));
  ASSERT_TRUE(by_id.ok());
  ASSERT_EQ(by_id->size(), 1u);
  EXPECT_EQ((*by_id)[0].second.GetString(1), "bob");

  auto by_owner = accounts_->IndexLookup(
      txn.get(), 1, KeyBuilder().AddString(Slice("alice")).Take());
  ASSERT_TRUE(by_owner.ok());
  EXPECT_EQ(by_owner->size(), 2u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, IndexSeesCommittedUpdates) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(
        accounts_->Update(txn.get(), vid, Account(1, "alice", 55.0)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  auto txn = db_->Begin(&clk_);
  auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(1));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_DOUBLE_EQ((*hits)[0].second.GetDouble(2), 55.0);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, KeyChangingUpdateMovesIndexEntry) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(
        accounts_->Update(txn.get(), vid, Account(1, "carol", 10.0)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  auto txn = db_->Begin(&clk_);
  auto old_hits = accounts_->IndexLookup(
      txn.get(), 1, KeyBuilder().AddString(Slice("alice")).Take());
  ASSERT_TRUE(old_hits.ok());
  EXPECT_TRUE(old_hits->empty());  // stale entry filtered (or absent)
  auto new_hits = accounts_->IndexLookup(
      txn.get(), 1, KeyBuilder().AddString(Slice("carol")).Take());
  ASSERT_TRUE(new_hits.ok());
  EXPECT_EQ(new_hits->size(), 1u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, OldSnapshotStillFindsOldKeyThroughIndex) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  auto old_txn = db_->Begin(&clk_);  // snapshot before the rename
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(
        accounts_->Update(txn.get(), vid, Account(1, "carol", 10.0)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  auto hits = accounts_->IndexLookup(
      old_txn.get(), 1, KeyBuilder().AddString(Slice("alice")).Take());
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u) << "old snapshot must see the old key";
  EXPECT_EQ(hits->at(0).second.GetString(1), "alice");
  ASSERT_TRUE(db_->Commit(old_txn.get()).ok());
}

TEST_P(EngineTest, IndexRangeScansInOrder) {
  for (int64_t i = 10; i > 0; --i) {
    InsertAccount(i, std::string("o").append(std::to_string(i)),
                  1.0 * static_cast<double>(i));
  }
  auto txn = db_->Begin(&clk_);
  std::vector<int64_t> ids;
  ASSERT_TRUE(accounts_
                  ->IndexRange(txn.get(), 0, IntKey(3), IntKey(8),
                               [&](Vid, const Row& row) {
                                 ids.push_back(row.GetInt(0));
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(ids, (std::vector<int64_t>{3, 4, 5, 6, 7}));
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, DeleteHidesFromIndex) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Delete(txn.get(), vid).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  auto txn = db_->Begin(&clk_);
  auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(1));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, TickRunsMaintenanceByVirtualTime) {
  InsertAccount(1, "alice", 10.0);
  uint64_t cps_before = db_->stats().checkpoints;
  clk_.Advance(DatabaseOptions{}.checkpoint_interval + kVSecond);
  ASSERT_TRUE(db_->Tick(&clk_).ok());
  EXPECT_GT(db_->stats().bgwriter_passes, 0u);
  EXPECT_GT(db_->stats().checkpoints, cps_before);
}

TEST_P(EngineTest, VacuumAfterChurnKeepsDataCorrect) {
  std::vector<Vid> vids;
  for (int i = 0; i < 20; ++i) {
    vids.push_back(InsertAccount(i, "own" + std::to_string(i), 1.0));
  }
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      auto txn = db_->Begin(&clk_);
      ASSERT_TRUE(accounts_
                      ->Update(txn.get(), vids[i],
                               Account(i, "own" + std::to_string(i),
                                       round + 0.5))
                      .ok());
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
  }
  CounterDelta discarded("mvcc.gc.versions_discarded");
  ASSERT_TRUE(db_->Vacuum(&clk_).ok());
  EXPECT_GT(discarded(), 0);
  auto txn = db_->Begin(&clk_);
  for (int i = 0; i < 20; ++i) {
    auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(i));
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u) << "id " << i;
    EXPECT_DOUBLE_EQ(hits->at(0).second.GetDouble(2), 4.5);
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, RecoveryAfterCleanCheckpoint) {
  for (int i = 0; i < 50; ++i) {
    InsertAccount(i, "owner" + std::to_string(i), 2.0 * i);
  }
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  // "Crash": drop the Database object, reopen over the same devices.
  db_.reset();
  Reopen();
  ASSERT_TRUE(db_->Recover().ok());
  auto txn = db_->Begin(&clk_);
  int count = 0;
  ASSERT_TRUE(accounts_->Scan(txn.get(), [&](Vid, const Row& row) {
    EXPECT_EQ(row.GetString(1), "owner" + std::to_string(row.GetInt(0)));
    count++;
    return true;
  }).ok());
  EXPECT_EQ(count, 50);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, RecoveryReplaysPostCheckpointWal) {
  for (int i = 0; i < 10; ++i) InsertAccount(i, "pre", 1.0);
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  // Post-checkpoint committed work, never flushed to data pages.
  std::vector<Vid> vids;
  for (int i = 10; i < 20; ++i) {
    vids.push_back(InsertAccount(i, "post", 2.0));
  }
  {  // An update too.
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(
        accounts_->Update(txn.get(), vids[0], Account(10, "post2", 3.0)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  // A transaction in flight at crash time must be aborted by recovery.
  auto in_flight = db_->Begin(&clk_);
  ASSERT_TRUE(
      accounts_->Insert(in_flight.get(), Account(99, "ghost", 0.0)).ok());
  // Crash WITHOUT checkpoint: data pages lost, WAL survives.
  db_.reset();
  Reopen();
  ASSERT_TRUE(db_->Recover().ok());

  auto txn = db_->Begin(&clk_);
  int count = 0;
  bool saw_ghost = false;
  std::string v10_owner;
  ASSERT_TRUE(accounts_->Scan(txn.get(), [&](Vid, const Row& row) {
    count++;
    if (row.GetString(1) == "ghost") saw_ghost = true;
    if (row.GetInt(0) == 10) v10_owner = row.GetString(1);
    return true;
  }).ok());
  EXPECT_EQ(count, 20);
  EXPECT_FALSE(saw_ghost) << "uncommitted insert resurrected";
  EXPECT_EQ(v10_owner, "post2") << "committed update lost";
  // Index lookups work after rebuild.
  auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(15));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());

  // New transactions get fresh xids (no reuse of replayed ones).
  Vid nv = InsertAccount(200, "fresh", 1.0);
  auto txn2 = db_->Begin(&clk_);
  auto row = accounts_->Get(txn2.get(), nv);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->has_value());
  ASSERT_TRUE(db_->Commit(txn2.get()).ok());
}

TEST_P(EngineTest, RecoveryIdempotentAcrossDoubleCrash) {
  for (int i = 0; i < 5; ++i) InsertAccount(i, "x", 1.0);
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());
  InsertAccount(5, "y", 2.0);
  db_.reset();
  Reopen();
  ASSERT_TRUE(db_->Recover().ok());
  // Crash again immediately after recovery (no checkpoint in between).
  db_.reset();
  Reopen();
  ASSERT_TRUE(db_->Recover().ok());
  auto txn = db_->Begin(&clk_);
  int count = 0;
  ASSERT_TRUE(accounts_->Scan(txn.get(), [&](Vid, const Row&) {
    count++;
    return true;
  }).ok());
  EXPECT_EQ(count, 6);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, RecoveryAfterVacuumRestoresTheHeapGcLeft) {
  // Recovery rebuilds the version index from the tuple versions alone
  // (paper §6), so it must find the heap GC left: GC's slot kills are
  // logged, and SI's compaction replays, so later inserts fit again.
  std::vector<Vid> vids = ChurnAccounts();
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Delete(txn.get(), vids[7]).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  CounterDelta discarded("mvcc.gc.versions_discarded");
  ASSERT_TRUE(db_->Vacuum(&clk_).ok());
  ASSERT_GT(discarded(), 0);
  Vid late = InsertAccount(100, "late", 1.0);  // its commit flushes the kills
  const size_t live_before = LiveHeapVersions();

  db_.reset();  // crash without a checkpoint
  Reopen();
  Status recovered = db_->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(LiveHeapVersions(), live_before);
  auto txn = db_->Begin(&clk_);
  for (int i = 0; i < 40; ++i) {
    auto row = accounts_->Get(txn.get(), vids[i]);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    if (i == 7) {
      EXPECT_FALSE(row->has_value()) << "deleted account came back";
      continue;
    }
    ASSERT_TRUE(row->has_value()) << "account " << i;
    EXPECT_DOUBLE_EQ((*row)->GetDouble(2), 10.0) << "account " << i;
  }
  auto row = accounts_->Get(txn.get(), late);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->has_value());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(EngineTest, ReclaimedPagesAreReusedAfterRestart) {
  if (GetParam() == VersionScheme::kSi) {
    GTEST_SKIP() << "SI reuses space by compaction, not by a page free list";
  }
  ChurnAccounts();
  ASSERT_TRUE(db_->Vacuum(&clk_).ok());
  std::vector<PageNumber> reclaimed =
      static_cast<SiasTable*>(accounts_->heap())->region().free_pages();
  ASSERT_FALSE(reclaimed.empty());
  ASSERT_TRUE(db_->Checkpoint(&clk_).ok());

  db_.reset();
  Reopen();
  ASSERT_TRUE(db_->Recover().ok());
  ASSERT_TRUE(db_->Vacuum(&clk_).ok());
  auto* sias = static_cast<SiasTable*>(accounts_->heap());
  std::vector<PageNumber> free = sias->region().free_pages();
  ASSERT_FALSE(free.empty());
  for (PageNumber p : reclaimed) {
    EXPECT_NE(std::find(free.begin(), free.end(), p), free.end())
        << "reclaimed page " << p << " lost across the restart";
  }
  const RelationId rel = sias->relation();
  auto pages_before = db_->disk()->PageCount(rel);
  ASSERT_TRUE(pages_before.ok());
  InsertAccount(100, "late", 1.0);
  auto pages_after = db_->disk()->PageCount(rel);
  ASSERT_TRUE(pages_after.ok());
  EXPECT_EQ(*pages_after, *pages_before) << "the insert grew the relation";
  EXPECT_EQ(sias->region().free_pages().size(), free.size() - 1);
}

/// What RunMidPassActionOnce runs, once, at the next page GarbageCollect
/// reaches.
std::function<void()> g_mid_pass_action;

void RunMidPassActionOnce(PageNumber) {
  if (g_mid_pass_action) {
    std::function<void()> action = std::move(g_mid_pass_action);
    g_mid_pass_action = nullptr;
    action();
  }
}

TEST_P(EngineTest, TickReclaimMidVacuumNeverRecyclesAnOpenPage) {
  if (GetParam() == VersionScheme::kSi) {
    GTEST_SKIP() << "SI reuses space by compaction, not by a page free list";
  }
  auto* sias = static_cast<SiasTable*>(accounts_->heap());
  std::vector<Vid> vids = ChurnAccounts();
  // A thread pinned in an epoch holds the first pass's deferred slot kills
  // back, so its reclaimed pages are still pending when the next pass
  // starts.
  std::atomic<bool> pinned{false}, release{false};
  std::thread pin([&] {
    EpochGuard g;
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  ASSERT_TRUE(db_->Vacuum(&clk_).ok());
  size_t free_before = sias->region().free_pages().size();

  // At the second pass's first page the pin goes, a Tick reclaims on the
  // bgwriter cadence and lists the pending pages free, and updates reopen
  // one of them, filling it with versions the next updates supersede. The
  // pass reaches that page while it is open and must leave it alone.
  g_mid_pass_action = [&] {
    release.store(true);
    pin.join();
    clk_.Advance(DatabaseOptions{}.bgwriter_interval);
    ASSERT_TRUE(db_->Tick(&clk_).ok());
    EXPECT_GT(sias->region().free_pages().size(), free_before);
    for (int i = 1; i <= 30; ++i) UpdateAccount(vids[0], 0, 100 + i);
  };
  SiasTable::SetGcPageHookForTest(&RunMidPassActionOnce);
  Status s = db_->Vacuum(&clk_);
  SiasTable::SetGcPageHookForTest(nullptr);
  if (pin.joinable()) {
    release.store(true);
    pin.join();
  }
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_FALSE(g_mid_pass_action);  // the action ran

  std::vector<PageNumber> free = sias->region().free_pages();
  PageNumber open = sias->region().open_page().page;
  EXPECT_EQ(std::find(free.begin(), free.end(), open), free.end())
      << "open page " << open << " is listed free";
  // Fill the open page and the ones after it: no committed version may be
  // lost to a page re-init.
  for (int i = 1; i <= 200; ++i) UpdateAccount(vids[0], 0, 200 + i);
  auto txn = db_->Begin(&clk_);
  for (size_t i = 0; i < vids.size(); ++i) {
    auto row = accounts_->Get(txn.get(), vids[i]);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(row->has_value()) << "account " << i;
    EXPECT_DOUBLE_EQ((*row)->GetDouble(2), i == 0 ? 400.0 : 10.0);
  }
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

// WAL and commit counters moved by `body`.
struct WalDelta {
  int64_t records, flushes, commits;
};

template <typename Body>
WalDelta MeasureWal(Body body) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  auto now = [&] {
    return WalDelta{reg.GetCounter("wal.records")->Value(),
                    reg.GetCounter("wal.flushes")->Value(),
                    reg.GetCounter("txn.commit")->Value()};
  };
  WalDelta before = now();
  body();
  WalDelta after = now();
  return {after.records - before.records, after.flushes - before.flushes,
          after.commits - before.commits};
}

TEST_P(EngineTest, ReadOnlyTransactionsNeverTouchTheWal) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  InsertAccount(2, "bob", 20.0);
  WalDelta d = MeasureWal([&] {
    auto txn = db_->Begin(&clk_);
    auto row = accounts_->Get(txn.get(), vid);
    ASSERT_TRUE(row.ok());
    ASSERT_TRUE(row->has_value());
    int rows = 0;
    ASSERT_TRUE(accounts_->Scan(txn.get(), [&](Vid, const Row&) {
      rows++;
      return true;
    }).ok());
    EXPECT_EQ(rows, 2);
    EXPECT_TRUE(txn->writes().empty());
    VTime before_commit = clk_.now();
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
    EXPECT_EQ(clk_.now(), before_commit) << "no durability wait to charge";
  });
  EXPECT_EQ(d.records, 0);
  EXPECT_EQ(d.flushes, 0);
  EXPECT_EQ(d.commits, 1);

  // An aborted read appends no abort record either.
  d = MeasureWal([&] {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Get(txn.get(), vid).ok());
    ASSERT_TRUE(db_->Abort(txn.get()).ok());
  });
  EXPECT_EQ(d.records, 0);
  EXPECT_EQ(d.flushes, 0);
}

TEST_P(EngineTest, LockOnlyCommitWritesNoRecordAndReleasesItsLocks) {
  Vid deleted = InsertAccount(1, "gone", 1.0);
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Delete(txn.get(), deleted).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  // `deleted` is gone and `next` is not assigned yet: a heap update of
  // either takes its row lock, then fails with NotFound before any write.
  MvccTable* heap = accounts_->heap();
  Vid next = heap->vid_bound();
  WalDelta d = MeasureWal([&] {
    auto txn = db_->Begin(&clk_);
    EXPECT_TRUE(heap->Update(txn.get(), deleted, Slice("x")).IsNotFound());
    EXPECT_TRUE(heap->Update(txn.get(), next, Slice("y")).IsNotFound());
    EXPECT_EQ(txn->locks().size(), 2u);
    EXPECT_TRUE(txn->writes().empty());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  });
  EXPECT_EQ(d.records, 0);
  EXPECT_EQ(d.flushes, 0);
  EXPECT_EQ(d.commits, 1);
  EXPECT_EQ(db_->txns()->locks()->HeldCount(), 0u);

  // Later writers get both locks at once: a held lock would surface as a
  // lock timeout instead.
  auto txn = db_->Begin(&clk_);
  EXPECT_TRUE(heap->Update(txn.get(), deleted, Slice("x")).IsNotFound());
  auto vid = accounts_->Insert(txn.get(), Account(2, "carol", 5.0));
  ASSERT_TRUE(vid.ok());
  ASSERT_EQ(*vid, next);
  ASSERT_TRUE(accounts_->Update(txn.get(), next, Account(2, "carol", 6.0)).ok());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  auto reader = db_->Begin(&clk_);
  auto row = accounts_->Get(reader.get(), next);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_DOUBLE_EQ((*row)->GetDouble(2), 6.0);
  ASSERT_TRUE(db_->Commit(reader.get()).ok());
}

// ---------------------------------------------------------------------------
// Dead B+-tree entries (docs/INDEXING.md, "Removing dead entries"): under
// SIAS the probe that finds an entry's item gone for every current and
// future snapshot removes the <key, VID> entry; SI's per-version entries
// and MV-PBT's records stay.
// ---------------------------------------------------------------------------

/// Whether the scheme's B+-tree entries are VID-valued and so removable.
bool RemovesDeadEntries(VersionScheme scheme) {
  return scheme != VersionScheme::kSi;
}

/// Rows an index-0 (by id) range scan over every id returns, in a fresh
/// transaction.
int64_t RowsById(Database* db, Table* table, VirtualClock* clk) {
  auto txn = db->Begin(clk);
  int64_t rows = 0;
  EXPECT_TRUE(table
                  ->IndexRange(txn.get(), 0, IntKey(0), IntKey(1 << 20),
                               [&](Vid, const Row&) {
                                 ++rows;
                                 return true;
                               })
                  .ok());
  EXPECT_TRUE(db->Commit(txn.get()).ok());
  return rows;
}

TEST_P(EngineTest, DeadIndexEntryIsRemovedByTheFirstProbeThatResolvesIt) {
  std::vector<Vid> vids;
  for (int i = 0; i < 10; ++i) {
    vids.push_back(InsertAccount(i, "own" + std::to_string(i), 1.0));
  }
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Delete(txn.get(), vids[3]).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  const bool removes = RemovesDeadEntries(GetParam());
  const uint64_t entries = accounts_->index(0)->entries();
  CounterDelta removed("index.dead_entries_removed");
  // SIAS resolves a hit through a VID read (mvcc.reads); SI reads the
  // entry's version by TID, which that counter does not count.
  CounterDelta reads("mvcc.reads");
  EXPECT_EQ(RowsById(db_.get(), accounts_, &clk_), 9);
  EXPECT_EQ(reads(), removes ? 10 : 0);  // the dead entry resolved too
  EXPECT_EQ(removed(), removes ? 1 : 0);
  EXPECT_EQ(accounts_->index(0)->entries(), entries - (removes ? 1 : 0));

  // The second scan resolves no dead hit; the other index is untouched
  // until a probe of its own meets the entry.
  CounterDelta reads_again("mvcc.reads");
  EXPECT_EQ(RowsById(db_.get(), accounts_, &clk_), 9);
  EXPECT_EQ(reads_again(), removes ? 9 : 0);
  EXPECT_EQ(removed(), removes ? 1 : 0);
  EXPECT_EQ(accounts_->index(1)->entries(), 10u);
}

TEST_P(EngineTest, DeadIndexEntryStaysWhileAnOlderSnapshotCanReadTheRow) {
  Vid vid = InsertAccount(1, "alice", 10.0);
  InsertAccount(2, "bob", 20.0);
  auto old_txn = db_->Begin(&clk_);  // snapshot before the delete
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Delete(txn.get(), vid).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  CounterDelta removed("index.dead_entries_removed");
  EXPECT_EQ(RowsById(db_.get(), accounts_, &clk_), 1);
  EXPECT_EQ(removed(), 0);
  EXPECT_EQ(accounts_->index(0)->entries(), 2u);
  auto hits = accounts_->IndexLookup(old_txn.get(), 0, IntKey(1));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u) << "the older snapshot still reads the row";
  EXPECT_EQ(hits->at(0).second.GetString(1), "alice");
  ASSERT_TRUE(db_->Commit(old_txn.get()).ok());

  // With the older snapshot gone, the next probe removes the entry.
  EXPECT_EQ(RowsById(db_.get(), accounts_, &clk_), 1);
  const bool removes = RemovesDeadEntries(GetParam());
  EXPECT_EQ(removed(), removes ? 1 : 0);
  EXPECT_EQ(accounts_->index(0)->entries(), removes ? 1u : 2u);
}

TEST_P(EngineTest, IndexEntryOfAnAbortedInsertIsRemoved) {
  InsertAccount(1, "alice", 10.0);
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(accounts_->Insert(txn.get(), Account(7, "ghost", 0.0)).ok());
    ASSERT_TRUE(db_->Abort(txn.get()).ok());
  }
  EXPECT_EQ(accounts_->index(0)->entries(), 2u);
  CounterDelta removed("index.dead_entries_removed");
  auto txn = db_->Begin(&clk_);
  auto hits = accounts_->IndexLookup(txn.get(), 0, IntKey(7));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  const bool removes = RemovesDeadEntries(GetParam());
  EXPECT_EQ(removed(), removes ? 1 : 0);
  EXPECT_EQ(accounts_->index(0)->entries(), removes ? 1u : 2u);
}

TEST_P(EngineTest, MvPbtRecordsOfDeletedRowsStay) {
  auto t = db_->CreateTable("mv_accounts", AccountSchema(), GetParam());
  ASSERT_TRUE(t.ok());
  Table* table = *t;
  ASSERT_TRUE(db_->CreateIndex(table, "mv_by_id",
                               KeyExtractor::IntColumns({0}),
                               IndexKind::kMvPbt)
                  .ok());
  std::vector<Vid> vids;
  for (int i = 0; i < 5; ++i) {
    auto txn = db_->Begin(&clk_);
    auto vid = table->Insert(txn.get(), Account(i, "mv", 1.0));
    ASSERT_TRUE(vid.ok());
    vids.push_back(*vid);
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  {
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(table->Delete(txn.get(), vids[2]).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  const uint64_t entries = table->index(0)->entries();
  CounterDelta removed("index.dead_entries_removed");
  EXPECT_EQ(RowsById(db_.get(), table, &clk_), 4);
  auto txn = db_->Begin(&clk_);
  auto hits = table->IndexLookup(txn.get(), 0, IntKey(2));
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
  EXPECT_EQ(removed(), 0);
  EXPECT_EQ(table->index(0)->entries(), entries);
}

TEST_P(EngineTest, ConcurrentDeadEntryRemovalBesideInsertsAndAnOldSnapshot) {
  // Readers race to remove the 30 dead entries while a writer inserts into
  // the same leaves and a snapshot taken after the deletes scans: each
  // entry is removed exactly once, and no scan sees a deleted row or a row
  // its snapshot must not see.
  std::vector<Vid> vids;
  for (int i = 0; i < 60; ++i) {
    vids.push_back(InsertAccount(i, "own" + std::to_string(i), 1.0));
  }
  {
    auto txn = db_->Begin(&clk_);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(accounts_->Delete(txn.get(), vids[i]).ok());
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  CounterDelta removed("index.dead_entries_removed");
  VirtualClock old_clk = clk_;
  auto old_txn = db_->Begin(&old_clk);
  constexpr int kInserts = 100;
  constexpr int kScans = 20;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    VirtualClock clk = clk_;
    for (int i = 60; i < 60 + kInserts; ++i) {
      auto txn = db_->Begin(&clk);
      if (!accounts_->Insert(txn.get(), Account(i, "new", 1.0)).ok() ||
          !db_->Commit(txn.get()).ok()) {
        bad++;
      }
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      VirtualClock clk = clk_;
      for (int n = 0; n < kScans; ++n) {
        auto txn = db_->Begin(&clk);
        Status s = accounts_->IndexRange(
            txn.get(), 0, IntKey(0), IntKey(1 << 20), [&](Vid, const Row& row) {
              if (row.GetInt(0) < 30) bad++;
              return true;
            });
        if (!s.ok() || !db_->Commit(txn.get()).ok()) bad++;
      }
    });
  }
  threads.emplace_back([&] {
    for (int n = 0; n < kScans; ++n) {
      int64_t rows = 0;
      Status s = accounts_->IndexRange(old_txn.get(), 0, IntKey(0),
                                       IntKey(1 << 20),
                                       [&](Vid, const Row& row) {
                                         if (row.GetInt(0) < 30 ||
                                             row.GetInt(0) >= 60) {
                                           bad++;
                                         }
                                         ++rows;
                                         return true;
                                       });
      if (!s.ok() || rows != 30) bad++;
    }
  });
  for (auto& t : threads) t.join();
  ASSERT_TRUE(db_->Commit(old_txn.get()).ok());
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(RowsById(db_.get(), accounts_, &clk_), 30 + kInserts);
  const bool removes = RemovesDeadEntries(GetParam());
  EXPECT_EQ(removed(), removes ? 30 : 0);
  EXPECT_EQ(accounts_->index(0)->entries(),
            static_cast<uint64_t>(removes ? 30 + kInserts : 60 + kInserts));
}

/// The most retired-but-unreclaimed epoch callbacks a vacuum-free workload
/// may leave queued. The CI perfbench smoke job checks ycsb_update's
/// mvcc.epoch.pending_end against the same number.
constexpr size_t kEpochPendingCap = 4096;

TEST_P(EngineTest, HotItemStaysBoundedWithTickAndNoVacuum) {
  // Vacuum is off: only in-band trimming bounds the item's vector, and
  // only Tick's reclaim on the bgwriter cadence drains the epoch queue.
  ASSERT_EQ(DatabaseOptions{}.vacuum_interval, 0u);
  Vid vid = InsertAccount(1, "own1", 0.0);
  auto* sias = dynamic_cast<SiasTable*>(accounts_->heap());
  size_t max_vector = 0;
  size_t max_pending = 0;
  for (int i = 1; i <= 10000; ++i) {
    UpdateAccount(vid, 1, i);
    clk_.Advance(kVMillisecond);  // think time: >= 10 s of virtual time
    ASSERT_TRUE(db_->Tick(&clk_).ok());
    if (GetParam() == VersionScheme::kSiasV) {
      max_vector = std::max(max_vector, sias->vid_map_v().Get(vid).size());
    }
    max_pending = std::max(max_pending, EpochManager::Global().pending());
  }
  if (GetParam() == VersionScheme::kSiasV) {
    EXPECT_LE(max_vector, 2u);
  }
  EXPECT_LT(max_pending, kEpochPendingCap);
  auto txn = db_->Begin(&clk_);
  auto row = accounts_->Get(txn.get(), vid);
  ASSERT_TRUE(row.ok() && row->has_value());
  EXPECT_DOUBLE_EQ((*row)->GetDouble(2), 10000.0);
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, EngineTest,
                         ::testing::Values(VersionScheme::kSi,
                                           VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         [](const auto& info) {
                           std::string n = ToString(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace sias
