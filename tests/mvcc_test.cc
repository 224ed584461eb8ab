// Scheme-parameterized MVCC tests: the same battery runs against the SI
// baseline, SIAS-Chains and SIAS-V, checking that all three provide
// identical Snapshot Isolation semantics while differing in their physical
// behaviour (verified by the scheme-specific tests at the bottom).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>

#include "common/random.h"
#include "fault/fault_injector.h"
#include "fault/faulty_device.h"
#include "fault/retry.h"
#include "mvcc/epoch.h"
#include "mvcc/visibility.h"
#include "obs/metrics.h"
#include "tests/test_env.h"

namespace sias {
namespace {

class MvccSchemeTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  void SetUp() override {
    env_ = std::make_unique<TestEnv>();
    table_ = env_->MakeTable(GetParam(), /*relation=*/1);
  }

  std::unique_ptr<Transaction> Begin() { return env_->txns_.Begin(&clk_); }
  Status Commit(Transaction* t) { return env_->txns_.Commit(t); }
  Status Abort(Transaction* t) { return env_->txns_.Abort(t); }

  /// Insert + commit helper; returns the VID.
  Vid InsertCommitted(const std::string& row) {
    auto t = Begin();
    auto vid = table_->Insert(t.get(), Slice(row));
    EXPECT_TRUE(vid.ok());
    EXPECT_TRUE(Commit(t.get()).ok());
    return *vid;
  }

  std::optional<std::string> ReadIn(Transaction* t, Vid vid) {
    auto r = table_->Read(t, vid);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  std::unique_ptr<TestEnv> env_;
  std::unique_ptr<MvccTable> table_;
  VirtualClock clk_;
};

TEST_P(MvccSchemeTest, InsertReadBack) {
  Vid vid = InsertCommitted("row-zero");
  auto t = Begin();
  auto row = ReadIn(t.get(), vid);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(*row, "row-zero");
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, OwnUncommittedWritesVisibleToSelfOnly) {
  auto t1 = Begin();
  auto vid = table_->Insert(t1.get(), Slice("mine"));
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(ReadIn(t1.get(), *vid).value_or(""), "mine");

  auto t2 = Begin();
  EXPECT_FALSE(ReadIn(t2.get(), *vid).has_value());
  ASSERT_TRUE(Commit(t1.get()).ok());
  // t2's snapshot predates the commit: still invisible.
  EXPECT_FALSE(ReadIn(t2.get(), *vid).has_value());
  ASSERT_TRUE(Commit(t2.get()).ok());

  auto t3 = Begin();
  EXPECT_TRUE(ReadIn(t3.get(), *vid).has_value());
  ASSERT_TRUE(Commit(t3.get()).ok());
}

TEST_P(MvccSchemeTest, UpdateCreatesNewVisibleVersion) {
  Vid vid = InsertCommitted("v0");
  auto t = Begin();
  ASSERT_TRUE(table_->Update(t.get(), vid, Slice("v1")).ok());
  EXPECT_EQ(ReadIn(t.get(), vid).value_or(""), "v1");  // own write
  ASSERT_TRUE(Commit(t.get()).ok());

  auto t2 = Begin();
  EXPECT_EQ(ReadIn(t2.get(), vid).value_or(""), "v1");
  ASSERT_TRUE(Commit(t2.get()).ok());
}

TEST_P(MvccSchemeTest, SnapshotReadersSeeOldVersionDuringUpdate) {
  Vid vid = InsertCommitted("old");
  auto reader = Begin();  // snapshot taken now

  auto writer = Begin();
  ASSERT_TRUE(table_->Update(writer.get(), vid, Slice("new")).ok());
  ASSERT_TRUE(Commit(writer.get()).ok());

  // Reader started before the update committed: sees the old version.
  EXPECT_EQ(ReadIn(reader.get(), vid).value_or(""), "old");
  ASSERT_TRUE(Commit(reader.get()).ok());

  auto later = Begin();
  EXPECT_EQ(ReadIn(later.get(), vid).value_or(""), "new");
  ASSERT_TRUE(Commit(later.get()).ok());
}

TEST_P(MvccSchemeTest, RebuildAfterTrimmingWorkloadKeepsFreshReads) {
  // SIAS-V writers trim vectors in-band, but the dropped versions stay on
  // their heap pages, so Rebuild() puts them back below newer committed
  // versions. A fresh snapshot must read the same rows before and after.
  obs::Counter* trimmed = obs::MetricsRegistry::Default().GetCounter(
      "mvcc.vidmap.versions_trimmed");
  int64_t trimmed_before = trimmed->Value();
  std::vector<Vid> vids;
  for (int i = 0; i < 6; ++i) {
    vids.push_back(InsertCommitted(
        std::string("r").append(std::to_string(i)).append(".0")));
  }
  std::unique_ptr<Transaction> pin;  // keeps tails reachable for a while
  for (int round = 1; round <= 8; ++round) {
    if (round == 3) pin = Begin();
    if (round == 6) {
      ASSERT_TRUE(Commit(pin.get()).ok());
    }
    for (size_t i = 0; i < vids.size(); ++i) {
      if (i == 0 && round > 7) continue;  // deleted in round 7
      auto t = Begin();
      const std::string row = std::string("r")
                                  .append(std::to_string(i))
                                  .append(".")
                                  .append(std::to_string(round));
      Status s = i == 0 && round == 7
                     ? table_->Delete(t.get(), vids[i])
                     : table_->Update(t.get(), vids[i], Slice(row));
      ASSERT_TRUE(s.ok()) << s.ToString();
      // Item 1 loses every other write to an abort.
      if (i == 1 && round % 2 == 0) {
        ASSERT_TRUE(Abort(t.get()).ok());
      } else {
        ASSERT_TRUE(Commit(t.get()).ok());
      }
    }
  }
  auto fresh_reads = [&] {
    std::vector<std::optional<std::string>> rows;
    auto t = Begin();
    for (Vid v : vids) rows.push_back(ReadIn(t.get(), v));
    EXPECT_TRUE(Commit(t.get()).ok());
    return rows;
  };
  std::vector<std::optional<std::string>> before = fresh_reads();
  EXPECT_FALSE(before[0].has_value());
  EXPECT_EQ(before[1].value_or(""), "r1.7");
  EXPECT_EQ(before[5].value_or(""), "r5.8");

  auto* sias = dynamic_cast<SiasTable*>(table_.get());
  auto vector_entries = [&] {
    size_t n = 0;
    for (Vid v : vids) n += sias->vid_map_v().Get(v).size();
    return n;
  };
  size_t entries_before = 0;
  if (GetParam() == VersionScheme::kSiasV) {
    EXPECT_GT(trimmed->Value(), trimmed_before);
    entries_before = vector_entries();
  }
  ASSERT_TRUE(table_->Rebuild().ok());
  EXPECT_EQ(fresh_reads(), before);
  if (GetParam() == VersionScheme::kSiasV) {
    // The trimmed versions are back, below the ones every snapshot sees.
    EXPECT_GT(vector_entries(), entries_before);
  }
}

TEST_P(MvccSchemeTest, LongVersionHistoryEachSnapshotSeesItsVersion) {
  Vid vid = InsertCommitted("v0");
  std::vector<std::unique_ptr<Transaction>> readers;
  for (int i = 1; i <= 5; ++i) {
    readers.push_back(Begin());  // snapshot before update i
    auto t = Begin();
    const std::string row = std::string("v").append(std::to_string(i));
    ASSERT_TRUE(table_->Update(t.get(), vid, Slice(row)).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  // Reader i (0-based) was started when version v{i} was newest.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ReadIn(readers[i].get(), vid).value_or(""),
              std::string("v").append(std::to_string(i)));
  }
  for (auto& r : readers) ASSERT_TRUE(Commit(r.get()).ok());
}

TEST_P(MvccSchemeTest, AbortedUpdateInvisible) {
  Vid vid = InsertCommitted("keep");
  auto t = Begin();
  ASSERT_TRUE(table_->Update(t.get(), vid, Slice("discard")).ok());
  ASSERT_TRUE(Abort(t.get()).ok());
  auto t2 = Begin();
  EXPECT_EQ(ReadIn(t2.get(), vid).value_or(""), "keep");
  ASSERT_TRUE(Commit(t2.get()).ok());
}

TEST_P(MvccSchemeTest, AbortedInsertInvisible) {
  auto t = Begin();
  auto vid = table_->Insert(t.get(), Slice("phantom"));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(Abort(t.get()).ok());
  auto t2 = Begin();
  EXPECT_FALSE(ReadIn(t2.get(), *vid).has_value());
  ASSERT_TRUE(Commit(t2.get()).ok());
}

TEST_P(MvccSchemeTest, FirstUpdaterWinsOnConflict) {
  Vid vid = InsertCommitted("base");
  auto t1 = Begin();
  auto t2 = Begin();
  ASSERT_TRUE(table_->Update(t1.get(), vid, Slice("t1-wins")).ok());
  ASSERT_TRUE(Commit(t1.get()).ok());
  // t2 started before t1 committed; its update must fail (SI rules).
  Status s = table_->Update(t2.get(), vid, Slice("t2-loses"));
  EXPECT_TRUE(s.IsSerializationFailure() || s.IsLockTimeout())
      << s.ToString();
  ASSERT_TRUE(Abort(t2.get()).ok());
  auto t3 = Begin();
  EXPECT_EQ(ReadIn(t3.get(), vid).value_or(""), "t1-wins");
  ASSERT_TRUE(Commit(t3.get()).ok());
}

TEST_P(MvccSchemeTest, WaitingUpdaterAbortsAfterHolderCommits) {
  Vid vid = InsertCommitted("base");
  auto t1 = Begin();
  ASSERT_TRUE(table_->Update(t1.get(), vid, Slice("held")).ok());

  std::thread waiter([&] {
    VirtualClock clk;
    auto t2 = env_->txns_.Begin(&clk);
    // Blocks on the row lock until t1 commits, then must lose.
    Status s = table_->Update(t2.get(), vid, Slice("late"));
    EXPECT_TRUE(s.IsSerializationFailure() || s.IsLockTimeout())
        << s.ToString();
    EXPECT_TRUE(env_->txns_.Abort(t2.get()).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(Commit(t1.get()).ok());
  waiter.join();
}

TEST_P(MvccSchemeTest, WaitingUpdaterProceedsAfterHolderAborts) {
  Vid vid = InsertCommitted("base");
  auto t1 = Begin();
  ASSERT_TRUE(table_->Update(t1.get(), vid, Slice("doomed")).ok());

  std::thread waiter([&] {
    VirtualClock clk;
    auto t2 = env_->txns_.Begin(&clk);
    Status s = table_->Update(t2.get(), vid, Slice("winner"));
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(env_->txns_.Commit(t2.get()).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(Abort(t1.get()).ok());
  waiter.join();

  auto t3 = Begin();
  EXPECT_EQ(ReadIn(t3.get(), vid).value_or(""), "winner");
  ASSERT_TRUE(Commit(t3.get()).ok());
}

TEST_P(MvccSchemeTest, DeleteHidesFromNewSnapshotsKeepsForOld) {
  Vid vid = InsertCommitted("to-delete");
  auto old_reader = Begin();
  auto deleter = Begin();
  ASSERT_TRUE(table_->Delete(deleter.get(), vid).ok());
  ASSERT_TRUE(Commit(deleter.get()).ok());

  // Old snapshot still sees the last committed state before the delete.
  EXPECT_EQ(ReadIn(old_reader.get(), vid).value_or(""), "to-delete");
  ASSERT_TRUE(Commit(old_reader.get()).ok());

  auto new_reader = Begin();
  EXPECT_FALSE(ReadIn(new_reader.get(), vid).has_value());
  ASSERT_TRUE(Commit(new_reader.get()).ok());
}

TEST_P(MvccSchemeTest, UpdateOfDeletedItemFails) {
  Vid vid = InsertCommitted("gone");
  auto t = Begin();
  ASSERT_TRUE(table_->Delete(t.get(), vid).ok());
  ASSERT_TRUE(Commit(t.get()).ok());
  auto t2 = Begin();
  Status s = table_->Update(t2.get(), vid, Slice("zombie"));
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  ASSERT_TRUE(Abort(t2.get()).ok());
}

TEST_P(MvccSchemeTest, UpdateNonexistentVidFails) {
  auto t = Begin();
  Status s = table_->Update(t.get(), 424242, Slice("x"));
  EXPECT_TRUE(s.IsNotFound());
  ASSERT_TRUE(Abort(t.get()).ok());
}

TEST_P(MvccSchemeTest, MultipleUpdatesInOneTransaction) {
  Vid vid = InsertCommitted("a");
  auto t = Begin();
  ASSERT_TRUE(table_->Update(t.get(), vid, Slice("b")).ok());
  ASSERT_TRUE(table_->Update(t.get(), vid, Slice("c")).ok());
  ASSERT_TRUE(table_->Update(t.get(), vid, Slice("d")).ok());
  EXPECT_EQ(ReadIn(t.get(), vid).value_or(""), "d");
  ASSERT_TRUE(Commit(t.get()).ok());
  auto t2 = Begin();
  EXPECT_EQ(ReadIn(t2.get(), vid).value_or(""), "d");
  ASSERT_TRUE(Commit(t2.get()).ok());
}

TEST_P(MvccSchemeTest, InsertAndUpdateSameTransaction) {
  auto t = Begin();
  auto vid = table_->Insert(t.get(), Slice("fresh"));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(table_->Update(t.get(), *vid, Slice("updated")).ok());
  ASSERT_TRUE(Commit(t.get()).ok());
  auto t2 = Begin();
  EXPECT_EQ(ReadIn(t2.get(), *vid).value_or(""), "updated");
  ASSERT_TRUE(Commit(t2.get()).ok());
}

TEST_P(MvccSchemeTest, ReadAndReadMultiMatchWriteHistory) {
  // Read and the batched read path (up to io_depth page reads in flight)
  // must both return what the write history dictates, across version
  // histories, tombstones, and an old snapshot that predates the churn.
  constexpr int kItems = 64;
  std::vector<Vid> vids;
  for (int i = 0; i < kItems; ++i) {
    vids.push_back(InsertCommitted("base" + std::to_string(i)));
  }
  auto old_snap = Begin();
  // What a snapshot taken after the churn must see, per item.
  std::vector<std::optional<std::string>> latest(kItems);
  for (int i = 0; i < kItems; ++i) {
    auto t = Begin();
    latest[i] = "base" + std::to_string(i);
    if (i % 5 == 0) {
      ASSERT_TRUE(table_->Delete(t.get(), vids[i]).ok());
      latest[i].reset();
    } else if (i % 2 == 0) {
      latest[i] = "new" + std::to_string(i);
      ASSERT_TRUE(table_->Update(t.get(), vids[i], Slice(*latest[i])).ok());
    }
    ASSERT_TRUE(Commit(t.get()).ok());
  }

  // Batch with repeats and shuffled order, so result[i] must track input
  // order, not storage order.
  std::vector<int> batch_items;
  for (int i = kItems - 1; i >= 0; --i) batch_items.push_back(i);
  for (int i = 0; i < kItems; i += 7) batch_items.push_back(i);
  std::vector<Vid> batch;
  for (int i : batch_items) batch.push_back(vids[i]);

  auto fresh = Begin();
  for (Transaction* reader : {old_snap.get(), fresh.get()}) {
    const bool old = reader == old_snap.get();
    auto expected = [&](int i) -> std::optional<std::string> {
      if (old) return "base" + std::to_string(i);
      return latest[i];
    };
    for (size_t k = 0; k < batch.size(); ++k) {
      EXPECT_EQ(ReadIn(reader, batch[k]), expected(batch_items[k]))
          << "item " << batch_items[k] << " old snapshot " << old;
    }
    for (size_t depth : {size_t{1}, size_t{4}, size_t{8}}) {
      std::vector<std::optional<std::string>> rows;
      ASSERT_TRUE(table_->ReadMulti(reader, batch, depth, &rows).ok());
      ASSERT_EQ(rows.size(), batch.size());
      for (size_t k = 0; k < batch.size(); ++k) {
        EXPECT_EQ(rows[k], expected(batch_items[k]))
            << "item " << batch_items[k] << " depth " << depth
            << " old snapshot " << old;
      }
    }
    ASSERT_TRUE(Commit(reader).ok());
  }
}

TEST_P(MvccSchemeTest, ScanSeesExactlyVisibleItems) {
  Vid a = InsertCommitted("alpha");
  Vid b = InsertCommitted("beta");
  Vid c = InsertCommitted("gamma");
  // Delete b; update c; leave one uncommitted insert.
  {
    auto t = Begin();
    ASSERT_TRUE(table_->Delete(t.get(), b).ok());
    ASSERT_TRUE(table_->Update(t.get(), c, Slice("gamma2")).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  auto pending = Begin();
  ASSERT_TRUE(table_->Insert(pending.get(), Slice("invisible")).ok());

  auto t = Begin();
  std::map<Vid, std::string> seen;
  ASSERT_TRUE(table_
                  ->Scan(t.get(),
                         [&](Vid vid, Slice row) {
                           seen[vid] = row.ToString();
                           return true;
                         })
                  .ok());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[a], "alpha");
  EXPECT_EQ(seen[c], "gamma2");
  ASSERT_TRUE(Commit(t.get()).ok());
  ASSERT_TRUE(Abort(pending.get()).ok());
}

TEST_P(MvccSchemeTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) InsertCommitted("row" + std::to_string(i));
  auto t = Begin();
  int count = 0;
  ASSERT_TRUE(table_->Scan(t.get(), [&](Vid, Slice) {
    return ++count < 3;
  }).ok());
  EXPECT_EQ(count, 3);
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, ManyItemsStressWithInterleavedSnapshots) {
  constexpr int kItems = 200;
  std::vector<Vid> vids;
  for (int i = 0; i < kItems; ++i) {
    vids.push_back(
        InsertCommitted(std::string("i").append(std::to_string(i))));
  }
  auto snap_before = Begin();
  for (int i = 0; i < kItems; i += 2) {
    auto t = Begin();
    const std::string row = std::string("u").append(std::to_string(i));
    ASSERT_TRUE(table_->Update(t.get(), vids[i], Slice(row)).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  // Old snapshot: all originals. New snapshot: evens updated.
  for (int i = 0; i < kItems; i += 37) {
    EXPECT_EQ(ReadIn(snap_before.get(), vids[i]).value_or(""),
              std::string("i").append(std::to_string(i)));
  }
  ASSERT_TRUE(Commit(snap_before.get()).ok());
  auto snap_after = Begin();
  for (int i = 0; i < kItems; i += 37) {
    std::string expect = std::string(i % 2 == 0 ? "u" : "i")
                             .append(std::to_string(i));
    EXPECT_EQ(ReadIn(snap_after.get(), vids[i]).value_or(""), expect);
  }
  ASSERT_TRUE(Commit(snap_after.get()).ok());
}

TEST_P(MvccSchemeTest, GarbageCollectionPreservesVisibleState) {
  constexpr int kItems = 50;
  std::vector<Vid> vids;
  for (int i = 0; i < kItems; ++i) {
    vids.push_back(InsertCommitted("x"));
  }
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < kItems; ++i) {
      auto t = Begin();
      const std::string row = std::string("r")
                                  .append(std::to_string(round))
                                  .append("-")
                                  .append(std::to_string(i));
      ASSERT_TRUE(table_->Update(t.get(), vids[i], Slice(row)).ok());
      ASSERT_TRUE(Commit(t.get()).ok());
    }
  }
  CounterDelta discarded("mvcc.gc.versions_discarded");
  ASSERT_TRUE(table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_).ok());
  EXPECT_GT(discarded(), 0);

  auto t = Begin();
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(ReadIn(t.get(), vids[i]).value_or(""),
              "r5-" + std::to_string(i))
        << "item " << i;
  }
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, GcRespectsOldSnapshots) {
  Vid vid = InsertCommitted("ancient");
  auto old_reader = Begin();  // holds the horizon back
  for (int i = 0; i < 5; ++i) {
    auto t = Begin();
    ASSERT_TRUE(table_->Update(t.get(), vid, Slice("new")).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  ASSERT_TRUE(table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_).ok());
  // The old reader must still see its version.
  EXPECT_EQ(ReadIn(old_reader.get(), vid).value_or(""), "ancient");
  ASSERT_TRUE(Commit(old_reader.get()).ok());
}

TEST_P(MvccSchemeTest, GcRemovesTombstonedItems) {
  Vid vid = InsertCommitted("die");
  {
    auto t = Begin();
    ASSERT_TRUE(table_->Delete(t.get(), vid).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  CounterDelta discarded("mvcc.gc.versions_discarded");
  CounterDelta clears("vidmap.entry_clears");
  ASSERT_TRUE(table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_).ok());
  EXPECT_GT(discarded(), 0);
  // Dropping the item's mapping is one clear on both SIAS schemes; SI has
  // no VID map.
  EXPECT_EQ(clears(), GetParam() == VersionScheme::kSi ? 0 : 1);
  auto t = Begin();
  EXPECT_FALSE(ReadIn(t.get(), vid).has_value());
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, GcKeepsDeletedItemDeletedAfterLongHistory) {
  // A deleted item with a long history: its oldest versions share a page
  // with 50 live rows (mostly live, so GC leaves that page alone), the
  // tombstone sits pages later. Reclaiming the tombstone's page must not
  // expose one of the old versions still on the first page.
  Vid x;
  {
    auto t = Begin();
    auto vid = table_->Insert(t.get(), Slice("x0"));
    ASSERT_TRUE(vid.ok());
    x = *vid;
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(table_->Insert(t.get(), Slice(std::string(100, 'r'))).ok());
    }
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  for (int i = 1; i <= 200; ++i) {
    auto t = Begin();
    const std::string row = std::string("x").append(std::to_string(i));
    ASSERT_TRUE(table_->Update(t.get(), x, Slice(row)).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  {
    auto t = Begin();
    ASSERT_TRUE(table_->Delete(t.get(), x).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  ASSERT_TRUE(table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_).ok());

  auto t = Begin();
  EXPECT_EQ(ReadIn(t.get(), x), std::nullopt);
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, GcLeavesAnUncommittedInsertToItsAbort) {
  // Insert takes no row lock, so GC's item locks do not keep it off an
  // uncommitted insert. Relocating one left the inserter's undo expecting
  // the old TID: on SIAS-Chains the entrypoint stayed on the aborted copy,
  // the next pass killed that slot, and every later read of the item failed
  // with "version walk raced with GC repeatedly".
  Vid x = InsertCommitted("x0");
  for (int i = 1; i <= 20; ++i) {
    auto t = Begin();
    const std::string row = std::string("x").append(std::to_string(i));
    ASSERT_TRUE(table_->Update(t.get(), x, Slice(row)).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  auto inserter = Begin();
  auto y = table_->Insert(inserter.get(), Slice("y"));
  ASSERT_TRUE(y.ok());
  // x's dead versions share a page with the uncommitted insert.
  ASSERT_TRUE(table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_).ok());
  ASSERT_TRUE(Abort(inserter.get()).ok());
  ASSERT_TRUE(table_->GarbageCollect(env_->txns_.GcHorizon(), &clk_).ok());
  EpochManager::Global().Quiesce();  // run the deferred slot kills

  auto t = Begin();
  EXPECT_EQ(ReadIn(t.get(), *y), std::nullopt);
  EXPECT_EQ(ReadIn(t.get(), x), "x20");
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, RebuildOrdersOneTransactionsUpdatesByChain) {
  // One transaction updates an item three times: three versions with one
  // xmin, each pointing at the one before. Rebuilding the version index
  // from the heap must order them by that chain. Ordered by xmin alone the
  // tie is arbitrary; under SI the rotating placement even puts them out of
  // physical order, and the next writer would see a committed xmax on the
  // "newest" version and report the item deleted.
  Vid x;
  {
    auto t = Begin();
    const std::string filler(3000, 'f');  // two per page
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(table_->Insert(t.get(), Slice(filler)).ok());
    }
    auto vid = table_->Insert(t.get(), Slice("x0"));
    ASSERT_TRUE(vid.ok());
    x = *vid;
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  std::vector<Tid> placed;
  {
    auto t = Begin();
    for (int i = 1; i <= 3; ++i) {
      const std::string row = std::string("x").append(std::to_string(i));
      Tid tid;
      ASSERT_TRUE(table_->Update(t.get(), x, Slice(row), &tid).ok());
      placed.push_back(tid);
    }
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  if (GetParam() == VersionScheme::kSi) {
    // Precondition: the last update sits before the first in scan order.
    ASSERT_LT(placed[2].Pack(), placed[0].Pack());
  }
  ASSERT_TRUE(table_->Rebuild().ok());
  auto t = Begin();
  EXPECT_EQ(ReadIn(t.get(), x).value_or(""), "x3");
  Status s = table_->Update(t.get(), x, Slice("x4"));
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(ReadIn(t.get(), x).value_or(""), "x4");
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, ConcurrentDisjointWritersAllSucceed) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::vector<Vid>> vids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      vids[t].push_back(InsertCommitted("init"));
    }
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      VirtualClock clk;
      for (int i = 0; i < kPerThread; ++i) {
        auto txn = env_->txns_.Begin(&clk);
        const std::string row = std::string("t").append(std::to_string(t));
        Status s = table_->Update(txn.get(), vids[t][i], Slice(row));
        if (s.ok()) {
          if (!env_->txns_.Commit(txn.get()).ok()) failures++;
        } else {
          failures++;
          (void)env_->txns_.Abort(txn.get());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto t = Begin();
  for (int th = 0; th < kThreads; ++th) {
    for (int i = 0; i < kPerThread; i += 7) {
      EXPECT_EQ(ReadIn(t.get(), vids[th][i]).value_or(""),
                std::string("t").append(std::to_string(th)));
    }
  }
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, ConcurrentContendedWritersSerialize) {
  Vid vid = InsertCommitted("contended");
  constexpr int kThreads = 4;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      VirtualClock clk;
      for (int i = 0; i < 25; ++i) {
        auto txn = env_->txns_.Begin(&clk);
        Status s = table_->Update(txn.get(), vid, Slice("w"));
        if (s.ok() && env_->txns_.Commit(txn.get()).ok()) {
          committed++;
        } else if (txn->state() == TxnState::kActive) {
          (void)env_->txns_.Abort(txn.get());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // At least some must commit; the item must end in a consistent state.
  EXPECT_GT(committed.load(), 0);
  auto t = Begin();
  EXPECT_EQ(ReadIn(t.get(), vid).value_or(""), "w");
  ASSERT_TRUE(Commit(t.get()).ok());
}

TEST_P(MvccSchemeTest, RegistryCountersMeanTheSameInEveryScheme) {
  // One definition of the mvcc.* and vidmap.* counters serves all three
  // schemes, so the same history and reads must move them the same way.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  auto value = [&reg](const char* name) {
    return reg.GetCounter(name)->Value();
  };
  const bool sias = GetParam() != VersionScheme::kSi;

  // History: `hist` has v2 -> v1 -> v0, `gone` is deleted. SIAS allocates
  // one VID per insert and installs one map entry per version written; SI
  // keeps no VID map.
  const int64_t vids_before = value("vidmap.vids_allocated");
  const int64_t entries_before = value("vidmap.entry_updates");
  Vid hist = InsertCommitted("v0");
  auto old_reader = Begin();  // its snapshot sees v0 only
  for (const char* row : {"v1", "v2"}) {
    auto t = Begin();
    ASSERT_TRUE(table_->Update(t.get(), hist, Slice(row)).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  Vid gone = InsertCommitted("gone");
  {
    auto t = Begin();
    ASSERT_TRUE(table_->Delete(t.get(), gone).ok());
    ASSERT_TRUE(Commit(t.get()).ok());
  }
  EXPECT_EQ(value("vidmap.vids_allocated") - vids_before, sias ? 2 : 0);
  EXPECT_EQ(value("vidmap.entry_updates") - entries_before, sias ? 5 : 0);

  struct Sample {
    int64_t reads, misses, hops;
    uint64_t depth_count;
    double depth_sum;
  };
  auto sample = [&] {
    Histogram depth = reg.GetHistogram("mvcc.traversal_depth")->Snapshot();
    return Sample{value("mvcc.reads"), value("mvcc.read_misses"),
                  value("mvcc.version_hops"), depth.count(), depth.Sum()};
  };
  auto reader = Begin();
  struct Case {
    const char* what;
    Transaction* txn;
    Vid vid;
    std::optional<std::string> row;
    int64_t misses;
    int64_t hops;  ///< versions examined and found invisible
    double depth;  ///< versions examined
  };
  // The deleted item differs by design: SI walks past its xmax-stamped
  // version, SIAS resolves its visible tombstone.
  const Case cases[] = {
      {"walk past v2 and v1", old_reader.get(), hist, "v0", 0, 2, 3},
      {"unknown vid", reader.get(), table_->vid_bound() + 1000,
       std::nullopt, 1, 0, 0},
      {"deleted item", reader.get(), gone, std::nullopt, 1, sias ? 0 : 1, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const Sample before = sample();
    EXPECT_EQ(ReadIn(c.txn, c.vid), c.row);
    const Sample after = sample();
    EXPECT_EQ(after.reads - before.reads, 1);
    EXPECT_EQ(after.misses - before.misses, c.misses);
    EXPECT_EQ(after.hops - before.hops, c.hops);
    EXPECT_EQ(after.depth_count - before.depth_count, 1u);
    EXPECT_EQ(after.depth_sum - before.depth_sum, c.depth);
  }
  ASSERT_TRUE(Commit(reader.get()).ok());
  ASSERT_TRUE(Commit(old_reader.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MvccSchemeTest,
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

// ---------------------------------------------------------------------------
// Scheme-specific physical behaviour.
// ---------------------------------------------------------------------------

class PhysicalBehaviourTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = std::make_unique<TestEnv>(); }
  std::unique_ptr<TestEnv> env_;
  VirtualClock clk_;
};

TEST_F(PhysicalBehaviourTest, SiDirtiesOldPageSiasDoesNot) {
  // The paper's Figure 1 in miniature: after updates, SI must have dirtied
  // the page holding the OLD version (in-place xmax); SIAS must not.
  obs::Counter* inplace = obs::MetricsRegistry::Default().GetCounter(
      "mvcc.inplace_invalidations");
  for (VersionScheme scheme :
       {VersionScheme::kSi, VersionScheme::kSiasChains}) {
    TestEnv env;
    auto table = env.MakeTable(scheme, 1);
    auto t0 = env.txns_.Begin(&clk_);
    auto vid = table->Insert(t0.get(), Slice("v0"));
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(env.txns_.Commit(t0.get()).ok());
    // Flush everything so all pages start clean.
    ASSERT_TRUE(env.pool_.FlushAll(&clk_).ok());
    size_t dirty_before = env.pool_.DirtyPages().size();
    ASSERT_EQ(dirty_before, 0u);

    int64_t before = inplace->Value();
    auto t1 = env.txns_.Begin(&clk_);
    ASSERT_TRUE(table->Update(t1.get(), *vid, Slice("v1")).ok());
    ASSERT_TRUE(env.txns_.Commit(t1.get()).ok());

    size_t dirty_after = env.pool_.DirtyPages().size();
    int64_t invalidations = inplace->Value() - before;
    if (scheme == VersionScheme::kSi) {
      // Old version's page stamped in place + new version placed: the heap
      // page(s) are dirty and an in-place invalidation was recorded.
      EXPECT_GE(invalidations, 1);
      EXPECT_GE(dirty_after, 1u);
    } else {
      // SIAS: only the append page is dirty; zero in-place invalidations.
      EXPECT_EQ(invalidations, 0);
      EXPECT_EQ(dirty_after, 1u);
    }
  }
}

TEST_F(PhysicalBehaviourTest, SiasChainsHaveCorrectStructure) {
  TestEnv env;
  auto table_ptr = env.MakeTable(VersionScheme::kSiasChains, 1);
  auto* table = static_cast<SiasTable*>(table_ptr.get());
  auto t0 = env.txns_.Begin(&clk_);
  auto vid = table->Insert(t0.get(), Slice("v0"));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(env.txns_.Commit(t0.get()).ok());
  for (int i = 1; i <= 4; ++i) {
    auto t = env.txns_.Begin(&clk_);
    const std::string row = std::string("v").append(std::to_string(i));
    ASSERT_TRUE(table->Update(t.get(), *vid, Slice(row)).ok());
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  auto chain = table->ChainOf(*vid, &clk_);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->size(), 5u);  // v4 -> v3 -> v2 -> v1 -> v0
  // Entrypoint is the newest version; creation timestamps strictly decrease
  // along the chain (chronological order invariant).
  Xid prev_xmin = ~0ull;
  for (Tid tid : *chain) {
    auto page = env.pool_.FetchPage(PageId{1, tid.page}, &clk_);
    ASSERT_TRUE(page.ok());
    page->LatchShared();
    TupleHeader h;
    ASSERT_TRUE(DecodeTupleHeader(page->page().GetTuple(tid.slot), &h));
    page->Unlatch();
    EXPECT_LT(h.xmin, prev_xmin);
    prev_xmin = h.xmin;
    EXPECT_EQ(h.vid, *vid);
    EXPECT_EQ(h.xmax, kInvalidXid);  // never stamped: no in-place invalidation
  }
}

TEST_F(PhysicalBehaviourTest, SiasVVectorTracksVersionsNewestFirst) {
  TestEnv env;
  auto table_ptr = env.MakeTable(VersionScheme::kSiasV, 1);
  auto* table = static_cast<SiasTable*>(table_ptr.get());
  obs::Counter* trimmed = obs::MetricsRegistry::Default().GetCounter(
      "mvcc.vidmap.versions_trimmed");
  auto t0 = env.txns_.Begin(&clk_);
  auto vid = table->Insert(t0.get(), Slice("v0"));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(env.txns_.Commit(t0.get()).ok());
  auto update = [&](const std::string& row) {
    auto t = env.txns_.Begin(&clk_);
    ASSERT_TRUE(table->Update(t.get(), *vid, Slice(row)).ok());
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  };
  auto read = [&](Transaction* t) {
    auto row = table->Read(t, *vid);
    EXPECT_TRUE(row.ok());
    return row.ok() ? row->value_or("<none>") : "<error>";
  };

  // An old reader pins v0: no writer may drop anything it can reach.
  auto old_reader = env.txns_.Begin(&clk_);
  int64_t trimmed_before = trimmed->Value();
  for (int i = 1; i <= 3; ++i) {
    update(std::string("v").append(std::to_string(i)));
  }
  std::vector<Tid> vec = table->vid_map_v().Get(*vid);
  ASSERT_EQ(vec.size(), 4u);
  EXPECT_EQ(trimmed->Value(), trimmed_before);
  EXPECT_EQ(read(old_reader.get()), "v0");
  // Newest first: a fresh snapshot resolves the entrypoint, "v3".
  auto t = env.txns_.Begin(&clk_);
  EXPECT_EQ(read(t.get()), "v3");
  ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  ASSERT_TRUE(env.txns_.Commit(old_reader.get()).ok());

  // With the reader gone, every snapshot sees v3: the next writer keeps
  // only its new version and v3, and drops v2, v1 and v0.
  update("v4");
  std::vector<Tid> trimmed_vec = table->vid_map_v().Get(*vid);
  ASSERT_EQ(trimmed_vec.size(), 2u);
  EXPECT_EQ(trimmed_vec[1], vec[0]);
  EXPECT_EQ(trimmed->Value() - trimmed_before, 3);
  auto after = env.txns_.Begin(&clk_);
  EXPECT_EQ(read(after.get()), "v4");
  ASSERT_TRUE(env.txns_.Commit(after.get()).ok());
}

TEST_F(PhysicalBehaviourTest, SiasAbortOfMixedWritesRestoresEveryEntrypoint) {
  // `pinned`: a reader that began before the history was written keeps
  // every old version reachable, so no writer trims and the abort restores
  // each vector exactly. Unpinned, the aborted SIAS-V writer trimmed a0
  // from the first item's vector: the abort restores the entrypoints and
  // every read, and a0 stays dropped.
  for (VersionScheme scheme :
       {VersionScheme::kSiasChains, VersionScheme::kSiasV}) {
    for (bool pinned : {true, false}) {
      SCOPED_TRACE(std::string(ToString(scheme)) +
                   (pinned ? " pinned" : " unpinned"));
      TestEnv env;
      auto table_ptr = env.MakeTable(scheme, 1);
      auto* table = static_cast<SiasTable*>(table_ptr.get());
      std::vector<Vid> vids;
      auto t0 = env.txns_.Begin(&clk_);
      for (const char* row : {"a0", "b0", "c0"}) {
        auto vid = table->Insert(t0.get(), Slice(row));
        ASSERT_TRUE(vid.ok());
        vids.push_back(*vid);
      }
      ASSERT_TRUE(env.txns_.Commit(t0.get()).ok());
      std::unique_ptr<Transaction> pin;
      if (pinned) pin = env.txns_.Begin(&clk_);
      auto t1 = env.txns_.Begin(&clk_);
      ASSERT_TRUE(table->Update(t1.get(), vids[0], Slice("a1")).ok());
      ASSERT_TRUE(env.txns_.Commit(t1.get()).ok());
      auto state = [&](Vid vid) {
        return scheme == VersionScheme::kSiasChains
                   ? std::vector<Tid>{table->vid_map().Get(vid)}
                   : table->vid_map_v().Get(vid);
      };
      std::vector<std::vector<Tid>> before;
      for (Vid v : vids) before.push_back(state(v));

      auto t = env.txns_.Begin(&clk_);
      auto fresh = table->Insert(t.get(), Slice("n0"));
      ASSERT_TRUE(fresh.ok());
      ASSERT_TRUE(table->Update(t.get(), vids[0], Slice("a2")).ok());
      ASSERT_TRUE(table->Update(t.get(), vids[0], Slice("a3")).ok());
      ASSERT_TRUE(table->Delete(t.get(), vids[1]).ok());
      ASSERT_TRUE(table->Update(t.get(), vids[2], Slice("c1")).ok());
      ASSERT_TRUE(table->Delete(t.get(), vids[2]).ok());
      ASSERT_TRUE(table->Update(t.get(), *fresh, Slice("n1")).ok());
      EXPECT_EQ(t->writes().size(), 7u);
      ASSERT_TRUE(env.txns_.Abort(t.get()).ok());

      std::vector<std::vector<Tid>> expected_state = before;
      if (scheme == VersionScheme::kSiasV && !pinned) {
        ASSERT_EQ(before[0].size(), 2u);  // {a1, a0}
        expected_state[0].resize(1);      // {a1}: a0 was trimmed
      }
      for (size_t i = 0; i < vids.size(); ++i) {
        EXPECT_EQ(state(vids[i]), expected_state[i]) << "vid " << vids[i];
      }
      std::vector<Tid> fresh_state = state(*fresh);
      EXPECT_TRUE(fresh_state.empty() ||
                  fresh_state == std::vector<Tid>{Tid{}})
          << "aborted insert still has an entrypoint";
      auto r = env.txns_.Begin(&clk_);
      const char* expected[] = {"a1", "b0", "c0"};
      for (size_t i = 0; i < vids.size(); ++i) {
        auto row = table->Read(r.get(), vids[i]);
        ASSERT_TRUE(row.ok());
        EXPECT_EQ(row->value_or("<none>"), expected[i]);
      }
      auto row = table->Read(r.get(), *fresh);
      ASSERT_TRUE(row.ok());
      EXPECT_FALSE(row->has_value());
      ASSERT_TRUE(env.txns_.Commit(r.get()).ok());
      if (pin != nullptr) {
        auto old = table->Read(pin.get(), vids[0]);
        ASSERT_TRUE(old.ok());
        EXPECT_EQ(old->value_or("<none>"), "a0");
        ASSERT_TRUE(env.txns_.Commit(pin.get()).ok());
      }
    }
  }
}

TEST_F(PhysicalBehaviourTest, SiasCoLocatesRecentVersions) {
  // Versions created together land on the same append page (co-location),
  // while SI scatters them by free space.
  TestEnv env;
  auto table_ptr = env.MakeTable(VersionScheme::kSiasChains, 1);
  auto* table = static_cast<SiasTable*>(table_ptr.get());
  std::vector<Vid> vids;
  auto t = env.txns_.Begin(&clk_);
  for (int i = 0; i < 20; ++i) {
    auto vid = table->Insert(t.get(), Slice("co-located-row"));
    ASSERT_TRUE(vid.ok());
    vids.push_back(*vid);
  }
  ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  std::set<PageNumber> pages;
  for (Vid v : vids) {
    pages.insert(table->vid_map().Get(v).page);
  }
  EXPECT_EQ(pages.size(), 1u);  // all 20 small rows fit one append page
}

TEST_F(PhysicalBehaviourTest, SiasVidMapScanTouchesFewerPagesThanFullScan) {
  TestEnv env;
  auto table_ptr = env.MakeTable(VersionScheme::kSiasChains, 1);
  auto* table = static_cast<SiasTable*>(table_ptr.get());
  // 50 items, 10 update rounds => 550 versions over many pages, only 50 live.
  std::vector<Vid> vids;
  for (int i = 0; i < 50; ++i) {
    auto t = env.txns_.Begin(&clk_);
    auto vid = table->Insert(t.get(), Slice(std::string(300, 'x')));
    ASSERT_TRUE(vid.ok());
    vids.push_back(*vid);
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  for (int round = 0; round < 10; ++round) {
    for (Vid v : vids) {
      auto t = env.txns_.Begin(&clk_);
      ASSERT_TRUE(table->Update(t.get(), v, Slice(std::string(300, 'y'))).ok());
      ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
    }
  }
  auto t1 = env.txns_.Begin(&clk_);
  int vidmap_rows = 0, full_rows = 0;
  ASSERT_TRUE(table->Scan(t1.get(), [&](Vid, Slice) {
    vidmap_rows++;
    return true;
  }).ok());
  ASSERT_TRUE(table->FullRelationScan(t1.get(), [&](Vid, Slice) {
    full_rows++;
    return true;
  }).ok());
  EXPECT_EQ(vidmap_rows, 50);
  EXPECT_EQ(full_rows, 50);
  ASSERT_TRUE(env.txns_.Commit(t1.get()).ok());
}

TEST_F(PhysicalBehaviourTest, SiasWarmReadFetchesTheVisibleVersionOnce) {
  // The snapshot read takes header and payload from one pinned page: a warm
  // read of a single-version item costs exactly one buffer-pool hit.
  for (VersionScheme scheme :
       {VersionScheme::kSiasChains, VersionScheme::kSiasV}) {
    SCOPED_TRACE(ToString(scheme));
    TestEnv env;
    auto table = env.MakeTable(scheme, 1);
    auto writer = env.txns_.Begin(&clk_);
    auto vid = table->Insert(writer.get(), Slice("only"));
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(env.txns_.Commit(writer.get()).ok());

    auto reader = env.txns_.Begin(&clk_);
    ASSERT_TRUE(table->Read(reader.get(), *vid).ok());  // warm the page
    CounterDelta hits("buffer.hits");
    auto row = table->Read(reader.get(), *vid);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(row->value_or(""), "only");
    EXPECT_EQ(hits(), 1);
    ASSERT_TRUE(env.txns_.Commit(reader.get()).ok());
  }
}

TEST_F(PhysicalBehaviourTest, SiasReadLatchAcquisitionsCountColdReadsOnly) {
  // mvcc.read_latch_acquisitions (gated at 0 on the warm read-scaling leg)
  // counts the walker's fetches that took the pool mutex: a read of one
  // cold page adds exactly one, a warm read adds none.
  constexpr size_t kFrames = 16;
  obs::Counter* latched = obs::MetricsRegistry::Default().GetCounter(
      "mvcc.read_latch_acquisitions");
  for (VersionScheme scheme :
       {VersionScheme::kSiasChains, VersionScheme::kSiasV}) {
    SCOPED_TRACE(ToString(scheme));
    TestEnv env(kFrames);
    auto table = env.MakeTable(scheme, 1);
    auto writer = env.txns_.Begin(&clk_);
    auto vid = table->Insert(writer.get(), Slice("cold"));
    ASSERT_TRUE(vid.ok());
    // Fill past the first append page so it is sealed (evictable).
    const std::string filler(200, 'f');
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(table->Insert(writer.get(), Slice(filler)).ok());
    }
    ASSERT_TRUE(env.txns_.Commit(writer.get()).ok());
    ASSERT_TRUE(env.pool_.FlushAll(&clk_).ok());
    ASSERT_TRUE(env.disk_.CreateRelation(2).ok());
    for (size_t i = 0; i < kFrames * 2; ++i) {
      ASSERT_TRUE(env.pool_.NewPage(2, &clk_).ok());
    }

    auto reader = env.txns_.Begin(&clk_);
    int64_t before = latched->Value();
    auto row = table->Read(reader.get(), *vid);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(row->value_or(""), "cold");
    EXPECT_EQ(latched->Value() - before, 1);

    before = latched->Value();
    row = table->Read(reader.get(), *vid);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(row->value_or(""), "cold");
    EXPECT_EQ(latched->Value() - before, 0);
    ASSERT_TRUE(env.txns_.Commit(reader.get()).ok());
  }
}

TEST_F(PhysicalBehaviourTest, SiasGcReclaimsAndRecyclesPages) {
  TestEnv env;
  auto table_ptr = env.MakeTable(VersionScheme::kSiasChains, 1);
  auto* table = static_cast<SiasTable*>(table_ptr.get());
  std::vector<Vid> vids;
  for (int i = 0; i < 30; ++i) {
    auto t = env.txns_.Begin(&clk_);
    auto vid = table->Insert(t.get(), Slice(std::string(200, 'a')));
    ASSERT_TRUE(vid.ok());
    vids.push_back(*vid);
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  for (int round = 0; round < 20; ++round) {
    for (Vid v : vids) {
      auto t = env.txns_.Begin(&clk_);
      ASSERT_TRUE(
          table->Update(t.get(), v, Slice(std::string(200, 'b'))).ok());
      ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
    }
  }
  CounterDelta reclaimed("mvcc.gc.pages_reclaimed");
  CounterDelta discarded("mvcc.gc.versions_discarded");
  ASSERT_TRUE(table->GarbageCollect(env.txns_.GcHorizon(), &clk_).ok());
  EXPECT_GT(reclaimed(), 0);
  EXPECT_GT(discarded(), 100);

  // Recycled pages get reused by further appends.
  uint64_t recycled_before = table->append_stats().pages_recycled;
  for (int i = 0; i < 200; ++i) {
    auto t = env.txns_.Begin(&clk_);
    ASSERT_TRUE(
        table->Update(t.get(), vids[0], Slice(std::string(200, 'c'))).ok());
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  EXPECT_GT(table->append_stats().pages_recycled, recycled_before);

  // All data still correct.
  auto t = env.txns_.Begin(&clk_);
  auto row = table->Read(t.get(), vids[0]);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->value_or(""), std::string(200, 'c'));
  ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
}

// Characterization of the SIAS vacuum pass: a seeded, single-threaded
// history and the exact outcome of two GC passes over it. The history
// yields pages GC relocates, prunes and leaves alone, a wholly deleted item,
// an item whose versions span several pages, an old snapshot that holds
// back mid-vector reclamation (SIAS-V) and the horizon (both), a page with
// an uncommitted insert and an item locked by its writer. The pins are the
// pass's decisions; a restructuring of GarbageCollect must leave them all.
struct GcPassPin {
  int64_t examined, reclaimed, relocated, discarded;
  /// One char per page that existed when the pass began: R relocated,
  /// P pruned, - left alone, . empty before and after, + empty before and
  /// refilled by the pass's own relocations.
  const char* census;
  size_t free_pages;
  /// "vid:page.slot,...;" for every item after the cold ones, newest
  /// version first.
  const char* chains;
};

class SiasGcHistoryTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  void SetUp() override {
    table_ptr_ = env_.MakeTable(GetParam(), 1);
    table_ = static_cast<SiasTable*>(table_ptr_.get());
  }

  Status Update(Vid vid, Random* rng) {
    auto t = env_.txns_.Begin(&clk_);
    std::string row(rng->Uniform(60, 260), static_cast<char>('a' + vid % 26));
    SIAS_RETURN_NOT_OK(table_->Update(t.get(), vid, Slice(row)));
    return env_.txns_.Commit(t.get());
  }

  std::vector<size_t> SlotsPerPage() {
    std::vector<size_t> slots;
    auto count = HeapPages(&env_.pool_, 1).PageCount();
    EXPECT_TRUE(count.ok());
    for (PageNumber p = 0; p < *count; ++p) {
      size_t n = 0;
      EXPECT_TRUE(HeapPages(&env_.pool_, 1)
                      .VisitPage(p, &clk_,
                                 [&](const VersionRef&, Slice) {
                                   ++n;
                                   return true;
                                 })
                      .ok());
      slots.push_back(n);
    }
    return slots;
  }

  std::string Chains() {
    std::string out;
    for (Vid v = 0; v < table_->vid_bound(); ++v) {
      auto chain = table_->ChainOf(v, &clk_);
      EXPECT_TRUE(chain.ok());
      out.append(std::to_string(v)).append(":");
      for (size_t i = 0; i < chain->size(); ++i) {
        const Tid& tid = (*chain)[i];
        out.append(i ? "," : "")
            .append(std::to_string(tid.page))
            .append(".")
            .append(std::to_string(tid.slot));
      }
      out.append(";");
    }
    return out;
  }

  /// Runs one GC pass, lets its deferred kills land and checks it against
  /// `pin`.
  void PassMatches(const GcPassPin& pin) {
    CounterDelta examined("mvcc.gc.pages_examined");
    CounterDelta reclaimed("mvcc.gc.pages_reclaimed");
    CounterDelta relocated("mvcc.gc.versions_relocated");
    CounterDelta discarded("mvcc.gc.versions_discarded");
    std::vector<size_t> before = SlotsPerPage();
    ASSERT_TRUE(table_->GarbageCollect(env_.txns_.GcHorizon(), &clk_).ok());
    EpochManager::Global().Quiesce();
    std::vector<size_t> after = SlotsPerPage();
    std::string census;
    for (size_t p = 0; p < before.size(); ++p) {
      if (before[p] == 0) {
        census += after[p] == 0 ? '.' : '+';
      } else if (after[p] == 0) {
        census += 'R';
      } else {
        census += after[p] < before[p] ? 'P' : '-';
      }
    }
    EXPECT_EQ(examined(), pin.examined);
    EXPECT_EQ(reclaimed(), pin.reclaimed);
    EXPECT_EQ(relocated(), pin.relocated);
    EXPECT_EQ(discarded(), pin.discarded);
    EXPECT_EQ(census, pin.census);
    EXPECT_EQ(table_->region().free_pages().size(), pin.free_pages);
    // The 40 cold items come first, one version each on page 0.
    std::string cold;
    for (int i = 0; i < 40; ++i) {
      cold.append(std::to_string(i))
          .append(":0.")
          .append(std::to_string(i))
          .append(";");
    }
    EXPECT_EQ(Chains(), cold + pin.chains);
  }

  TestEnv env_;
  std::unique_ptr<MvccTable> table_ptr_;
  SiasTable* table_ = nullptr;
  VirtualClock clk_;
};

TEST_P(SiasGcHistoryTest, TwoPassesReclaimExactlyAsPinned) {
  Random rng(2604);
  // 40 cold items, never updated: their pages stay mostly live.
  std::vector<Vid> cold;
  {
    auto t = env_.txns_.Begin(&clk_);
    for (int i = 0; i < 40; ++i) {
      auto vid = table_->Insert(t.get(), Slice(std::string(150, 'c')));
      ASSERT_TRUE(vid.ok());
      cold.push_back(*vid);
    }
    ASSERT_TRUE(env_.txns_.Commit(t.get()).ok());
  }
  // An item updated, then deleted: wholly dead below the horizon.
  Vid gone;
  {
    auto t = env_.txns_.Begin(&clk_);
    auto vid = table_->Insert(t.get(), Slice("gone"));
    ASSERT_TRUE(vid.ok());
    gone = *vid;
    ASSERT_TRUE(env_.txns_.Commit(t.get()).ok());
  }
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(Update(gone, &rng).ok());
  {
    auto t = env_.txns_.Begin(&clk_);
    ASSERT_TRUE(table_->Delete(t.get(), gone).ok());
    ASSERT_TRUE(env_.txns_.Commit(t.get()).ok());
  }
  // A hot item and 12 warm ones: the hot item's versions span pages.
  std::vector<Vid> warm;
  {
    auto t = env_.txns_.Begin(&clk_);
    for (int i = 0; i < 15; ++i) {
      auto vid = table_->Insert(t.get(), Slice("w"));
      ASSERT_TRUE(vid.ok());
      warm.push_back(*vid);
    }
    ASSERT_TRUE(env_.txns_.Commit(t.get()).ok());
  }
  const Vid hot = warm.back();
  warm.pop_back();
  const Vid solo = warm.back();  // a few versions, all on one page
  warm.pop_back();
  const Vid late = warm.back();  // deleted above the first pass's horizon
  warm.pop_back();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(Update(solo, &rng).ok());
  for (int i = 0; i < 260; ++i) {
    Vid v = rng.Uniform(0, 1) ? hot : warm[rng.Uniform(0, warm.size() - 1)];
    ASSERT_TRUE(Update(v, &rng).ok());
  }
  // The old snapshot, then more history above it.
  auto old_reader = env_.txns_.Begin(&clk_);
  auto seen = table_->Read(old_reader.get(), hot);
  ASSERT_TRUE(seen.ok() && seen->has_value());
  for (int i = 0; i < 24; ++i) {
    Vid v = rng.Uniform(0, 2) ? hot : warm[rng.Uniform(0, warm.size() - 1)];
    ASSERT_TRUE(Update(v, &rng).ok());
    if (i == 12) {
      ASSERT_TRUE(Update(late, &rng).ok());
      auto t = env_.txns_.Begin(&clk_);
      ASSERT_TRUE(table_->Delete(t.get(), late).ok());
      ASSERT_TRUE(env_.txns_.Commit(t.get()).ok());
    }
  }
  // A running writer: its update locks `solo` (keeping its page out of the
  // first pass), its insert keeps the page it lands on out of the pass.
  auto writer = env_.txns_.Begin(&clk_);
  ASSERT_TRUE(table_->Update(writer.get(), solo, Slice("solo")).ok());
  ASSERT_TRUE(table_->Insert(writer.get(), Slice("uncommitted")).ok());

  const bool chains = GetParam() == VersionScheme::kSiasChains;
  PassMatches(chains ? GcPassPin{9, 5, 6, 215, "--RRRRRP-", 5,
                                 "40:1.1,1.0,0.42,0.41,0.40;41:8.1,7.25;"
                                 "42:7.34,7.19;43:8.10,9.2;44:7.17;45:7.18;"
                                 "46:7.28;47:8.8,9.0;48:7.31,9.1;"
                                 "49:8.5,7.39,9.4;50:7.8;51:7.36,9.5;52:9.3;"
                                 "53:7.43,7.42,1.14;"
                                 "54:8.11,1.20,1.19,1.18,1.17,1.15;"
                                 "55:8.9,8.7,8.6,8.4,8.3,8.2,8.0,7.41,7.40,"
                                 "7.38,7.37,7.35,7.33,7.32,7.30,7.29,7.27;"
                                 "56:8.12;"}
                     : GcPassPin{9, 6, 17, 226, "--RRRRRR-", 6,
                                 "40:1.1,1.0;41:8.1,9.9;42:9.15,9.14;"
                                 "43:8.10,9.2;44:9.10;45:9.13;46:9.12;"
                                 "47:8.8,9.0;48:9.8,9.1;49:8.5,9.4;50:9.11;"
                                 "51:9.7,9.5;52:9.3;53:9.6,1.14;54:8.11,1.20;"
                                 "55:8.9,9.16;56:8.12;"});
  auto still = table_->Read(old_reader.get(), hot);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(*still, *seen);

  ASSERT_TRUE(env_.txns_.Abort(writer.get()).ok());
  ASSERT_TRUE(env_.txns_.Commit(old_reader.get()).ok());
  PassMatches(chains ? GcPassPin{5, 2, 2, 80, "-R+....PPR", 6,
                                 "40:;41:8.1;42:7.34;43:8.10;44:7.17;45:7.18;"
                                 "46:7.28;47:8.8;48:7.31;49:8.5;50:7.8;"
                                 "51:7.36;52:2.1;53:;54:2.0;55:8.9;56:;"}
                     : GcPassPin{4, 1, 1, 69, "-R+.....PP", 6,
                                 "40:;41:8.1;42:9.15;43:8.10;44:9.10;45:9.13;"
                                 "46:9.12;47:8.8;48:9.8;49:8.5;50:9.11;"
                                 "51:9.7;52:9.3;53:;54:2.0;55:8.9;56:;"});

  auto t = env_.txns_.Begin(&clk_);
  for (Vid v : cold) {
    auto row = table_->Read(t.get(), v);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->value_or(""), std::string(150, 'c'));
  }
  auto row = table_->Read(t.get(), gone);
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE(row->has_value());
  ASSERT_TRUE(env_.txns_.Commit(t.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(SiasSchemes, SiasGcHistoryTest,
                         ::testing::Values(VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         [](const auto& info) {
                           std::string n = ToString(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// The GC page hook is a plain function pointer; the test below arms it
// through these.
fault::FaultInjector* g_read_fault_injector = nullptr;
BufferPool* g_read_fault_pool = nullptr;
PageNumber g_read_fault_page = 0;
uint64_t g_read_fault_offset = 0;

TEST_P(SiasGcHistoryTest, FailedRelocationReadKeepsThePage) {
  // A relocation that cannot read a live version must fail the pass and
  // leave the page whole: killing it would lose the version under the map
  // entries that still name it. Item A's versions span ~20 pages of cold
  // rows (kept by an old snapshot, or at least walked past); its newest
  // version shares page p with dead leftovers of aborted inserts. Planning
  // A walks from p across those pages, which evicts p from the 8-frame pool,
  // so relocation reads p from the device, and that read fails. The slot
  // kill that would follow reads p again, and that read succeeds.
  MemDevice mem(1ull << 30);
  fault::FaultInjector injector(1);
  fault::FaultyDevice device(&mem, &injector);
  DiskManager disk(&device);
  BufferPool pool(&disk, 8);
  Clog clog;
  LockManager locks(200);
  TransactionManager txns(&clog, &locks);
  ASSERT_TRUE(disk.CreateRelation(1).ok());
  SiasTable table(1, TableEnv{&pool, &txns, nullptr}, GetParam());
  auto write = [&](const std::function<Status(Transaction*)>& op) {
    auto t = txns.Begin(&clk_);
    Status s = op(t.get());
    return s.ok() ? txns.Commit(t.get()) : s;
  };
  Vid a = 0;
  ASSERT_TRUE(write([&](Transaction* t) {
                return table.Insert(t, Slice("a0")).status();
              }).ok());
  auto old_reader = txns.Begin(&clk_);
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(write([&](Transaction* t) {
                  for (int r = 0; r < 32; ++r) {
                    SIAS_RETURN_NOT_OK(
                        table.Insert(t, Slice(std::string(240, 'c'))).status());
                  }
                  return Status::OK();
                }).ok());
    const std::string row = std::string("a").append(std::to_string(i));
    ASSERT_TRUE(write([&](Transaction* t) {
                  return table.Update(t, a, Slice(row));
                }).ok());
  }
  table.region().SealOpenPage();
  ASSERT_TRUE(write([&](Transaction* t) {
                return table.Update(t, a, Slice("newest"));
              }).ok());
  {
    auto t = txns.Begin(&clk_);
    for (int r = 0; r < 100; ++r) {
      ASSERT_TRUE(table.Insert(t.get(), Slice("aborted")).ok());
    }
    ASSERT_TRUE(txns.Abort(t.get()).ok());
  }
  auto chain_before = table.ChainOf(a, &clk_);
  ASSERT_TRUE(chain_before.ok());
  const PageNumber p = chain_before->front().page;
  auto slots_on_p = [&] {
    size_t n = 0;
    EXPECT_TRUE(HeapPages(&pool, 1)
                    .VisitPage(p, &clk_,
                               [&](const VersionRef&, Slice) {
                                 ++n;
                                 return true;
                               })
                    .ok());
    return n;
  };
  ASSERT_EQ(slots_on_p(), 101u);

  // As the pass reaches p: make p resident and clean (eviction prefers
  // clean frames), then fail the next device read of p, retries included.
  g_read_fault_injector = &injector;
  g_read_fault_pool = &pool;
  g_read_fault_page = p;
  auto offset = disk.PageOffset(1, p);
  ASSERT_TRUE(offset.ok());
  g_read_fault_offset = *offset;
  SiasTable::SetGcPageHookForTest([](PageNumber page) {
    if (page != g_read_fault_page) return;
    EXPECT_TRUE(HeapPages(g_read_fault_pool, 1)
                    .VisitPage(page, nullptr,
                               [](const VersionRef&, Slice) { return true; })
                    .ok());
    EXPECT_TRUE(g_read_fault_pool->FlushAll(nullptr).ok());
    fault::FaultRule rule;
    rule.op = fault::OpClass::kRead;
    rule.offset_lo = g_read_fault_offset;
    rule.offset_hi = rule.offset_lo + kPageSize - 1;
    rule.repeat = fault::kRetryAttempts;
    g_read_fault_injector->AddRule(rule);
  });
  injector.Arm();
  CounterDelta relocated("mvcc.gc.versions_relocated");
  Status gc = table.GarbageCollect(txns.GcHorizon(), &clk_);
  SiasTable::SetGcPageHookForTest(nullptr);
  injector.Disarm();
  EXPECT_EQ(gc.code(), StatusCode::kIoError) << gc.ToString();
  EXPECT_EQ(relocated(), 0);
  EpochManager::Global().Quiesce();

  // Nothing killed, listed free or republished; the item locks are gone.
  EXPECT_EQ(slots_on_p(), 101u);
  auto free = table.region().free_pages();
  EXPECT_EQ(std::count(free.begin(), free.end(), p), 0);
  auto chain_after = table.ChainOf(a, &clk_);
  ASSERT_TRUE(chain_after.ok());
  EXPECT_EQ(*chain_after, *chain_before);
  auto seen = table.Read(old_reader.get(), a);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(*seen, "a0");
  ASSERT_TRUE(txns.Commit(old_reader.get()).ok());
  ASSERT_TRUE(write([&](Transaction* t) {
                auto row = table.Read(t, a);
                SIAS_RETURN_NOT_OK(row.status());
                EXPECT_EQ(*row, "newest");
                return table.Update(t, a, Slice("after"));
              }).ok());

  // With the device healthy again, the next pass reclaims p.
  ASSERT_TRUE(table.GarbageCollect(txns.GcHorizon(), &clk_).ok());
  EpochManager::Global().Quiesce();
  EXPECT_EQ(slots_on_p(), 0u);
  auto t = txns.Begin(&clk_);
  auto row = table.Read(t.get(), a);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*row, "after");
  ASSERT_TRUE(txns.Commit(t.get()).ok());
}

TEST_F(PhysicalBehaviourTest, SiGcWithFullWalLeavesThePageAsItWas) {
  // GC logs a page's slot kills before it touches the page: when the WAL
  // append fails, GarbageCollect reports it and the page keeps its slots.
  TestEnv env(256, /*with_wal=*/false);
  env.wal_ = std::make_unique<WalWriter>(&env.wal_device_, 0, 1 << 16);
  auto table = env.MakeTable(VersionScheme::kSi, 1);
  std::vector<Vid> vids;
  for (int i = 0; i < 5; ++i) {
    auto t = env.txns_.Begin(&clk_);
    auto vid = table->Insert(t.get(), Slice("v0"));
    ASSERT_TRUE(vid.ok());
    vids.push_back(*vid);
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  for (Vid v : vids) {
    auto t = env.txns_.Begin(&clk_);
    ASSERT_TRUE(table->Update(t.get(), v, Slice("v1")).ok());
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  auto live_versions = [&] {
    size_t n = 0;
    EXPECT_TRUE(HeapPages(&env.pool_, 1)
                    .Scan(nullptr,
                          [&](const VersionRef&, Slice) {
                            ++n;
                            return true;
                          })
                    .ok());
    return n;
  };
  ASSERT_EQ(live_versions(), 10u);
  WalRecord filler;
  filler.type = WalRecordType::kCheckpoint;
  while (env.wal_->Append(filler).ok()) {
  }

  Status s = table->GarbageCollect(env.txns_.GcHorizon(), &clk_);
  EXPECT_EQ(s.code(), StatusCode::kOutOfSpace) << s.ToString();
  EXPECT_EQ(live_versions(), 10u);
  auto t = env.txns_.Begin(&clk_);
  for (Vid v : vids) {
    auto row = table->Read(t.get(), v);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->value_or(""), "v1");
  }
  ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
}

}  // namespace
}  // namespace sias
