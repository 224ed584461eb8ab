// Randomized multi-threaded stress over the full engine: N worker threads
// each run M transactions of mixed reads, increments (read-modify-write)
// and inserts against one shared table, retrying on serialization
// conflicts. Afterwards the test asserts the invariants snapshot isolation
// must provide regardless of interleaving:
//   - no lost updates: every row's final value equals the number of
//     increment transactions that successfully committed against it;
//   - per-thread commit xids of writing transactions are strictly
//     increasing and globally unique; read-only ones take no xid;
//   - GcHorizon() never exceeds OldestActiveXid() (checked while running);
//   - intentionally aborted transactions leave no trace.
// Designed to run under -DSIAS_SANITIZE=thread with zero reports (see
// scripts/sanitize.sh); every cross-thread interaction in the engine is
// exercised: txn manager, lock manager, buffer pool flush/eviction,
// WAL group flush, and both MVCC storage schemes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "device/mem_device.h"
#include "engine/database.h"
#include "tests/test_env.h"

namespace sias {
namespace {

constexpr int kThreads = 4;
constexpr int kTxnsPerThread = 120;
constexpr int kRows = 8;  // few rows -> plenty of write-write conflicts
constexpr int kMaxRetries = 64;

class ConcurrencyTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  void SetUp() override {
    data_ = std::make_unique<MemDevice>(1ull << 30);
    wal_ = std::make_unique<MemDevice>(1ull << 30);
    DatabaseOptions opts;
    opts.data_device = data_.get();
    opts.wal_device = wal_.get();
    // Small pool + short maintenance cadence: evictions, bgwriter passes
    // and checkpoints all happen *during* the stress run.
    opts.pool_frames = 64;
    opts.bgwriter_interval = kVMillisecond;
    opts.checkpoint_interval = 50 * kVMillisecond;
    opts.lock_timeout_ms = 20;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto t = db_->CreateTable(
        "counters",
        Schema{{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}},
        GetParam());
    ASSERT_TRUE(t.ok());
    table_ = *t;

    VirtualClock clk;
    auto txn = db_->Begin(&clk);
    for (int r = 0; r < kRows; ++r) {
      auto vid = table_->Insert(txn.get(), Row{{int64_t{r}, int64_t{0}}});
      ASSERT_TRUE(vid.ok()) << vid.status().ToString();
      vids_.push_back(*vid);
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  std::unique_ptr<MemDevice> data_, wal_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  std::vector<Vid> vids_;
};

TEST_P(ConcurrencyTest, RandomizedMixedWorkloadKeepsSiInvariants) {
  std::array<std::atomic<int64_t>, kRows> committed_increments{};
  std::atomic<int64_t> committed_inserts{0};
  std::atomic<uint64_t> retryable_failures{0};
  std::atomic<bool> horizon_violation{false};
  std::vector<std::vector<Xid>> commit_xids(kThreads);

  auto worker = [&](int tid) {
    Random rng(0x5EED + static_cast<uint64_t>(tid));
    VirtualClock clk;
    int64_t next_insert_key = 1000 + tid * kTxnsPerThread;
    for (int i = 0; i < kTxnsPerThread; ++i) {
      // The GC horizon may never pass the oldest active transaction —
      // sampled continuously while other threads churn.
      Xid horizon = db_->txns()->GcHorizon();
      Xid oldest = db_->txns()->OldestActiveXid();
      if (horizon > oldest) horizon_violation.store(true);

      uint64_t dice = rng.Uniform(0, 100);
      bool committed = false;
      for (int attempt = 0; attempt < kMaxRetries && !committed; ++attempt) {
        auto txn = db_->Begin(&clk);
        Status s;
        int row = -1;
        bool poison = false;  // intentionally abort this attempt
        if (dice < 50) {  // increment one shared row
          row = static_cast<int>(rng.Uniform(0, kRows - 1));
          auto cur = table_->Get(txn.get(), vids_[row]);
          s = cur.status();
          if (s.ok()) {
            ASSERT_TRUE(cur->has_value());
            int64_t v = (*cur)->GetInt(1);
            s = table_->Update(txn.get(), vids_[row],
                               Row{{int64_t{row}, v + 1}});
            poison = s.ok() && rng.Uniform(0, 100) < 5;
          }
        } else if (dice < 80) {  // read-only scan of every row
          for (int r = 0; r < kRows && s.ok(); ++r) {
            auto cur = table_->Get(txn.get(), vids_[r]);
            s = cur.status();
            if (s.ok()) {
              ASSERT_TRUE(cur->has_value());
              ASSERT_GE((*cur)->GetInt(1), 0);
            }
          }
        } else {  // insert a fresh row
          auto vid = table_->Insert(
              txn.get(), Row{{next_insert_key, int64_t{tid}}});
          s = vid.status();
        }

        if (s.ok() && !poison) s = db_->Commit(txn.get());

        if (s.ok() && !poison) {
          committed = true;
          if (dice >= 50 && dice < 80) {
            EXPECT_EQ(txn->xid(), kInvalidXid);  // read-only: no xid
          } else {
            commit_xids[tid].push_back(txn->xid());
          }
          if (dice < 50) {
            committed_increments[static_cast<size_t>(row)].fetch_add(1);
          } else if (dice >= 80) {
            committed_inserts.fetch_add(1);
            next_insert_key++;
          }
        } else {
          if (txn->state() == TxnState::kActive) {
            ASSERT_TRUE(db_->Abort(txn.get()).ok());
          }
          if (poison) {
            committed = true;  // deliberate abort: don't retry
          } else {
            ASSERT_TRUE(s.IsRetryable()) << s.ToString();
            retryable_failures.fetch_add(1);
          }
        }
        ASSERT_TRUE(db_->Tick(&clk).ok());
      }
      ASSERT_TRUE(committed) << "txn starved after " << kMaxRetries
                             << " retries";
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();

  EXPECT_FALSE(horizon_violation.load())
      << "GcHorizon() exceeded OldestActiveXid()";
  EXPECT_EQ(db_->txns()->ActiveCount(), 0u);

  // Per-thread commit xids of writers strictly increase (each thread's
  // transactions write and commit in order) and no xid was handed out twice.
  std::set<Xid> all_xids;
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i + 1 < commit_xids[t].size(); ++i) {
      EXPECT_LT(commit_xids[t][i], commit_xids[t][i + 1]);
    }
    for (Xid x : commit_xids[t]) {
      EXPECT_NE(x, kInvalidXid);
      EXPECT_TRUE(all_xids.insert(x).second) << "duplicate xid " << x;
    }
  }

  // No lost updates: each row's final value equals the number of increment
  // transactions that committed against it.
  VirtualClock clk;
  auto check = db_->Begin(&clk);
  int64_t total_increments = 0;
  for (int r = 0; r < kRows; ++r) {
    auto row = table_->Get(check.get(), vids_[static_cast<size_t>(r)]);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(row->has_value());
    EXPECT_EQ((*row)->GetInt(1),
              committed_increments[static_cast<size_t>(r)].load())
        << "lost update on row " << r;
    total_increments += committed_increments[static_cast<size_t>(r)].load();
  }
  // All committed inserts are visible.
  int64_t visible_inserts = 0;
  ASSERT_TRUE(table_
                  ->Scan(check.get(),
                         [&](Vid, const Row& row) {
                           if (row.GetInt(0) >= 1000) visible_inserts++;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(visible_inserts, committed_inserts.load());
  ASSERT_TRUE(db_->Commit(check.get()).ok());

  // The mix must actually have produced contention for this test to mean
  // anything; with 4 threads hammering 8 rows this never fails in practice.
  EXPECT_GT(total_increments, 0);

  // Maintenance under contention happened and the engine metrics observed
  // the run (tentpole integration: non-zero figures after a stressed run).
  obs::MetricsSnapshot snap = db_->DumpMetrics();
  EXPECT_GT(snap.counters.at("txn.commit"), 0);
  EXPECT_GT(snap.counters.at("mvcc.versions_appended"), 0);
  EXPECT_GT(snap.counters.at("wal.flushes"), 0);
  EXPECT_GT(snap.gauges.at("db.device.write_bytes"), 0);

  // Vacuum after the run: GC must respect the horizon and not disturb
  // visible data.
  ASSERT_TRUE(db_->Vacuum(&clk).ok());
  auto recheck = db_->Begin(&clk);
  for (int r = 0; r < kRows; ++r) {
    auto row = table_->Get(recheck.get(), vids_[static_cast<size_t>(r)]);
    ASSERT_TRUE(row.ok());
    ASSERT_TRUE(row->has_value());
    EXPECT_EQ((*row)->GetInt(1),
              committed_increments[static_cast<size_t>(r)].load());
  }
  ASSERT_TRUE(db_->Commit(recheck.get()).ok());
}

TEST_P(ConcurrencyTest, VacuumRacingTickReclaimsKeepsHotRowsIntact) {
  // Vacuum passes run back to back on one thread while the writers update
  // hot rows and Tick on a 1 ms bgwriter cadence, so epoch reclaims from
  // Tick land in the middle of GC passes: a page whose deferred kill runs
  // mid-pass goes back to the append region and may be reopened before the
  // pass reaches it. EngineTest.TickReclaimMidVacuumNeverRecyclesAnOpenPage
  // pins that schedule down; this runs it at random, under load (and under
  // TSan). Wide rows spread the versions over many pages; the writers' read
  // passes pin epochs without holding row locks.
  constexpr int kWriters = 3;
  constexpr int kUpdatesPerWriter = 3000;
  auto t = db_->CreateTable("hot",
                            Schema{{"k", ColumnType::kInt64},
                                   {"v", ColumnType::kInt64},
                                   {"pad", ColumnType::kString}},
                            GetParam());
  ASSERT_TRUE(t.ok());
  Table* hot = *t;
  const std::string pad(200, 'p');
  std::vector<Vid> vids;
  {
    VirtualClock clk;
    auto txn = db_->Begin(&clk);
    for (int r = 0; r < kRows; ++r) {
      auto vid = hot->Insert(txn.get(), Row{{int64_t{r}, int64_t{0}, pad}});
      ASSERT_TRUE(vid.ok()) << vid.status().ToString();
      vids.push_back(*vid);
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  std::array<std::atomic<int64_t>, kRows> committed_increments{};
  std::atomic<int> writers_done{0};

  auto writer = [&](int tid) {
    Random rng(0xD1CE + static_cast<uint64_t>(tid));
    VirtualClock clk;
    for (int i = 0; i < kUpdatesPerWriter; ++i) {
      size_t row = static_cast<size_t>(rng.Uniform(0, kRows - 1));
      bool committed = false;
      for (int attempt = 0; attempt < kMaxRetries && !committed; ++attempt) {
        auto txn = db_->Begin(&clk);
        auto cur = hot->Get(txn.get(), vids[row]);
        Status s = cur.status();
        if (s.ok()) {
          ASSERT_TRUE(cur->has_value()) << "row " << row << " vanished";
          s = hot->Update(txn.get(), vids[row],
                          Row{{static_cast<int64_t>(row),
                               (*cur)->GetInt(1) + 1, pad}});
        }
        if (s.ok()) s = db_->Commit(txn.get());
        if (s.ok()) {
          committed = true;
          committed_increments[row].fetch_add(1);
        } else {
          if (txn->state() == TxnState::kActive) {
            ASSERT_TRUE(db_->Abort(txn.get()).ok());
          }
          ASSERT_TRUE(s.IsRetryable()) << s.ToString();
        }
        ASSERT_TRUE(db_->Tick(&clk).ok());
      }
      ASSERT_TRUE(committed) << "txn starved after " << kMaxRetries
                             << " retries";
      auto ro = db_->Begin(&clk);
      for (size_t r = 0; r < kRows; ++r) {
        auto cur = hot->Get(ro.get(), vids[r]);
        ASSERT_TRUE(cur.ok()) << cur.status().ToString();
        ASSERT_TRUE(cur->has_value()) << "row " << r << " vanished";
      }
      ASSERT_TRUE(db_->Commit(ro.get()).ok());
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      writer(w);
      writers_done.fetch_add(1);
    });
  }
  CounterDelta examined("mvcc.gc.pages_examined");
  {
    VirtualClock clk;
    while (writers_done.load() < kWriters) {
      Status s = db_->Vacuum(&clk);
      if (!s.ok()) {
        ADD_FAILURE() << "vacuum failed: " << s.ToString();
        break;
      }
    }
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(examined(), 0);

  VirtualClock clk;
  ASSERT_TRUE(db_->Vacuum(&clk).ok());
  auto check = db_->Begin(&clk);
  for (size_t r = 0; r < kRows; ++r) {
    auto row = hot->Get(check.get(), vids[r]);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(row->has_value());
    EXPECT_EQ((*row)->GetInt(1), committed_increments[r].load())
        << "row " << r;
  }
  ASSERT_TRUE(db_->Commit(check.get()).ok());
}

// Pin-free buffer hits racing eviction: four readers Get random rows of a
// SIAS-V table eight times larger than a 16-frame pool, while a fifth thread
// sweeps the table in order so frames are evicted and refilled under the
// readers' hits. A hit validates the frame around one buffer-pointer load
// and reads without a pin; every read must still return its own row (and
// TSan must see no race on a buffer an eviction swapped out).
TEST(PinFreeHitTest, ReadersRacingEvictionsGetTheirOwnRows) {
  constexpr size_t kFrames = 16;
  constexpr int kItems = 4000;  // ~200-byte rows: about 120 pages
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 4000;
  MemDevice data(1ull << 30), wal(1ull << 30);
  DatabaseOptions opts;
  opts.data_device = &data;
  opts.wal_device = &wal;
  opts.pool_frames = kFrames;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok());
  auto t = (*db)->CreateTable("wide",
                              Schema{{"k", ColumnType::kInt64},
                                     {"pad", ColumnType::kString}},
                              VersionScheme::kSiasV);
  ASSERT_TRUE(t.ok());
  Table* table = *t;
  const std::string pad(200, 'p');
  std::vector<Vid> vids;
  {
    VirtualClock clk;
    auto txn = (*db)->Begin(&clk);
    for (int k = 0; k < kItems; ++k) {
      auto vid = table->Insert(txn.get(), Row{{int64_t{k}, pad}});
      ASSERT_TRUE(vid.ok()) << vid.status().ToString();
      vids.push_back(*vid);
    }
    ASSERT_TRUE((*db)->Commit(txn.get()).ok());
  }
  CounterDelta evictions("buffer.evictions");
  CounterDelta hits("buffer.hits");
  std::atomic<int> readers_done{0};
  std::atomic<int> wrong{0};
  auto check = [&](Transaction* txn, int k) {
    auto row = table->Get(txn, vids[static_cast<size_t>(k)]);
    if (!row.ok() || !row->has_value() || (*row)->GetInt(0) != k) wrong++;
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Random rng(0xFEED + static_cast<uint64_t>(r));
      VirtualClock clk;
      for (int i = 0; i < kReadsPerReader; ++i) {
        auto txn = (*db)->Begin(&clk);
        check(txn.get(), static_cast<int>(rng.Uniform(0, kItems - 1)));
        EXPECT_TRUE((*db)->Commit(txn.get()).ok());
      }
      readers_done++;
    });
  }
  threads.emplace_back([&] {
    VirtualClock clk;
    while (readers_done.load() < kReaders) {
      auto txn = (*db)->Begin(&clk);
      for (int k = 0; k < kItems; k += 8) check(txn.get(), k);
      EXPECT_TRUE((*db)->Commit(txn.get()).ok());
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(evictions(), 100);  // the frames really were refilled
  EXPECT_GT(hits(), 1000);      // and the readers really hit
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ConcurrencyTest,
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
