// Oracle-checked concurrency suite for the epoch-based latch-free snapshot
// read path.
//
// Three layers of proof, from probabilistic to deterministic:
//
//  1. VisibilityOracle — randomized concurrent schedules of writers
//     (updates, deletes, and inserts that commit or abort), readers and an
//     aggressive vacuum thread. Every read records its snapshot and
//     result; every write records its xid and final commit verdict. After
//     the threads join, a single-threaded snapshot-isolation oracle replays
//     each recorded read against the full write history: the visible
//     version of a vid under snapshot S is exactly the committed write with
//     the largest xid contained in S (per-item histories have strictly
//     increasing xmin thanks to first-updater-wins, so "largest contained
//     xid" and "newest-first walk" agree). Any divergence — a read served a
//     version GC reclaimed too early, or skipped one it should have seen —
//     fails with the seed needed to replay the schedule.
//
//  2. DeterministicAbaWindow — a schedule-controlling hook
//     (SiasTable::SetReadPauseHookForTest) parks a reader in the exact
//     window the epoch protocol exists for: after the version vector is
//     loaded, before any entry is dereferenced. Vacuum then relocates the
//     version and queues the page wipe; the test asserts the wipe cannot
//     run while the reader is pinned, that the stale pointer still reads
//     the correct bytes, and that everything drains once the reader exits.
//
//  3. ChainOf regression — the dangling-anchor and xmin-monotonicity guards
//     on the (now latch-free) diagnostic chain walk, driven through real GC
//     page recycling so the anchor predecessor genuinely dangles.
//
// Runs under ASan and TSan via scripts/sanitize.sh (whole-ctest legs).
// Seed and iteration count are env-overridable for long soak runs:
//   SIAS_VISIBILITY_SEED=<n>  SIAS_STRESS_ITERS=<n>  ctest -R epoch_visibility

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "device/flash_ssd.h"
#include "mvcc/epoch.h"
#include "obs/metrics.h"
#include "test_env.h"

namespace sias {
namespace {

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

// ---------------------------------------------------------------------------
// 1. Randomized schedules vs. the single-threaded SI oracle.

struct WriteRecord {
  Vid vid;
  Xid xid;
  bool tombstone;
  bool committed;
  std::string value;
};

struct ReadRecord {
  Vid vid;
  Snapshot snapshot;
  std::optional<std::string> result;
};

class EpochVisibilityTest : public ::testing::TestWithParam<VersionScheme> {};

TEST_P(EpochVisibilityTest, RandomScheduleMatchesSiOracle) {
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("SIAS_VISIBILITY_SEED", 0x51A5));
  const int ops = EnvInt("SIAS_STRESS_ITERS", 250);
  SCOPED_TRACE("replay with SIAS_VISIBILITY_SEED=" + std::to_string(seed));

  TestEnv env(/*pool_frames=*/128, /*with_wal=*/true, /*lock_timeout_ms=*/20);
  auto owned = env.MakeTable(GetParam(), 1);
  auto* table = static_cast<SiasTable*>(owned.get());

  constexpr int kItems = 8;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;

  // Seed data: one committed version per item, recorded like any write.
  std::vector<Vid> vids;
  std::vector<WriteRecord> history;
  {
    VirtualClock clk;
    auto txn = env.txns_.Begin(&clk);
    for (int i = 0; i < kItems; ++i) {
      std::string value = "seed" + std::to_string(i);
      auto vid = table->Insert(txn.get(), Slice(value));
      ASSERT_TRUE(vid.ok()) << vid.status().ToString();
      vids.push_back(*vid);
      history.push_back(
          WriteRecord{*vid, txn->xid(), false, true, std::move(value)});
    }
    ASSERT_TRUE(env.txns_.Commit(txn.get()).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> fatal{false};
  std::vector<std::vector<WriteRecord>> writes(kWriters);
  std::vector<std::vector<ReadRecord>> reads(kReaders);

  // Items the writers insert during the run, published as soon as Insert
  // returns: readers and other writers then reach them while the insert is
  // still in flight, and after it commits or aborts. A claimed slot reads
  // kInvalidVid until its vid is stored.
  std::vector<std::atomic<Vid>> inserted(static_cast<size_t>(kWriters * ops));
  for (auto& v : inserted) v.store(kInvalidVid);
  std::atomic<size_t> inserted_count{0};
  auto pick_vid = [&](Random& rng) {
    size_t n = std::min(inserted_count.load(), inserted.size());
    size_t i = rng.Uniform(0, kItems + n - 1);
    if (i < kItems) return vids[i];
    Vid vid = inserted[i - kItems].load();
    return vid != kInvalidVid ? vid : vids[i % kItems];
  };

  auto writer = [&](int id) {
    Random rng(seed ^ 0xA11CEull ^ static_cast<uint64_t>(id * 7919 + 1));
    VirtualClock clk;
    for (int i = 0; i < ops && !fatal.load(); ++i) {
      auto txn = env.txns_.Begin(&clk);
      env.txns_.AssignXid(txn.get());  // the value names its writer's xid
      std::string value = std::string("x").append(std::to_string(txn->xid()));
      Vid vid = kInvalidVid;
      bool tombstone = false;
      Status s;
      if (rng.Uniform(0, 99) < 15) {
        auto v = table->Insert(txn.get(), Slice(value));
        s = v.status();
        if (v.ok()) {
          vid = *v;
          inserted[inserted_count.fetch_add(1)].store(vid);
        }
      } else {
        vid = pick_vid(rng);
        // Only the last seed item ever gets tombstoned, so the other seed
        // items keep producing visibility decisions for the whole run.
        tombstone = vid == vids.back() && rng.Uniform(0, 99) < 10;
        s = tombstone ? table->Delete(txn.get(), vid)
                      : table->Update(txn.get(), vid, Slice(value));
      }
      bool committed = false;
      if (s.ok() && rng.Uniform(0, 99) >= 15) {
        committed = env.txns_.Commit(txn.get()).ok();
      } else {
        // Serialization conflict, lock timeout, deleted or aborted item,
        // or an intentional abort: either way the write must leave no trace.
        (void)env.txns_.Abort(txn.get());
      }
      if (vid == kInvalidVid) {
        ADD_FAILURE() << "insert failed: " << s.ToString();
        fatal.store(true);
        break;
      }
      writes[id].push_back(
          WriteRecord{vid, txn->xid(), tombstone, committed, std::move(value)});
    }
  };

  auto reader = [&](int id) {
    Random rng(seed ^ 0xBEADull ^ static_cast<uint64_t>(id * 104729 + 3));
    VirtualClock clk;
    for (int i = 0; i < ops && !fatal.load(); ++i) {
      auto txn = env.txns_.Begin(&clk);
      for (int k = 0; k < 4; ++k) {
        Vid vid = pick_vid(rng);
        auto r = table->Read(txn.get(), vid);
        if (!r.ok()) {
          ADD_FAILURE() << "read failed: " << r.status().ToString();
          fatal.store(true);
          break;
        }
        reads[id].push_back(ReadRecord{vid, txn->snapshot(), *r});
      }
      (void)env.txns_.Commit(txn.get());
    }
  };

  auto vacuum = [&] {
    VirtualClock clk;
    while (!stop.load()) {
      Status s = table->GarbageCollect(env.txns_.GcHorizon(), &clk);
      if (!s.ok()) {
        ADD_FAILURE() << "vacuum failed: " << s.ToString();
        fatal.store(true);
        return;
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  std::thread vac(vacuum);
  for (auto& t : threads) t.join();
  stop.store(true);
  vac.join();
  ASSERT_FALSE(fatal.load());

  for (auto& w : writes) {
    history.insert(history.end(), w.begin(), w.end());
  }

  // Oracle replay: for each recorded read, the expected result is the
  // committed write with the largest xid the snapshot contains. An inserted
  // item has none before its insert commits, nor ever after an abort.
  size_t checked = 0;
  for (const auto& thread_reads : reads) {
    for (const auto& r : thread_reads) {
      const WriteRecord* visible = nullptr;
      for (const auto& w : history) {
        if (w.vid != r.vid || !w.committed) continue;
        if (!r.snapshot.Contains(w.xid)) continue;
        if (visible == nullptr || w.xid > visible->xid) visible = &w;
      }
      if (visible == nullptr) {
        ASSERT_EQ(std::count(vids.begin(), vids.end(), r.vid), 0)
            << "no committed seed visible to snapshot";
        EXPECT_FALSE(r.result.has_value())
            << "vid " << r.vid << ": no committed insert is visible to the "
            << "snapshot of xid " << r.snapshot.xid << ", read returned "
            << *r.result;
      } else if (visible->tombstone) {
        EXPECT_FALSE(r.result.has_value())
            << "vid " << r.vid << ": tombstone by xid " << visible->xid
            << " should hide the item, read returned " << *r.result;
      } else {
        ASSERT_TRUE(r.result.has_value())
            << "vid " << r.vid << ": expected value of xid " << visible->xid
            << ", read returned nothing (version reclaimed too early?)";
        EXPECT_EQ(*r.result, visible->value)
            << "vid " << r.vid << ": snapshot of xid " << r.snapshot.xid
            << " must see write of xid " << visible->xid;
      }
      checked++;
    }
  }
  EXPECT_GT(checked, 0u);

  // The suite's quiesce invariant: once every thread is done, the deferred
  // queue must drain to exactly zero.
  EpochManager::Global().Quiesce();
  EXPECT_EQ(EpochManager::Global().pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, EpochVisibilityTest,
                         ::testing::Values(VersionScheme::kSiasV,
                                           VersionScheme::kSiasChains),
                         [](const auto& info) {
                           return info.param == VersionScheme::kSiasV
                                      ? "SiasV"
                                      : "SiasChains";
                         });

// ---------------------------------------------------------------------------
// 2. Deterministic interleaving: reader parked inside the ABA window.

std::atomic<Vid> g_pause_target{kInvalidVid};
std::atomic<bool> g_pause_armed{false};
std::atomic<bool> g_reader_paused{false};
std::atomic<bool> g_resume_reader{false};

void PauseReaderHook(Vid vid) {
  if (vid != g_pause_target.load(std::memory_order_seq_cst)) return;
  if (!g_pause_armed.exchange(false, std::memory_order_seq_cst)) return;
  g_reader_paused.store(true, std::memory_order_seq_cst);
  while (!g_resume_reader.load(std::memory_order_seq_cst)) {
    std::this_thread::yield();
  }
}

TEST(EpochAbaWindowTest, VacuumDefersWipeWhileReaderHoldsStaleVector) {
  TestEnv env(/*pool_frames=*/128, /*with_wal=*/true);
  auto owned = env.MakeTable(VersionScheme::kSiasV, 1);
  auto* table = static_cast<SiasTable*>(owned.get());
  VirtualClock clk;

  // Page 0: item x plus three fillers, all committed.
  Vid x;
  std::vector<Vid> fillers;
  {
    auto txn = env.txns_.Begin(&clk);
    auto vx = table->Insert(txn.get(), Slice("A"));
    ASSERT_TRUE(vx.ok());
    x = *vx;
    for (int i = 0; i < 3; ++i) {
      auto vf = table->Insert(txn.get(), Slice("filler"));
      ASSERT_TRUE(vf.ok());
      fillers.push_back(*vf);
    }
    ASSERT_TRUE(env.txns_.Commit(txn.get()).ok());
  }
  // Tombstone the fillers: page 0 is now 1 live out of 7 slots — below the
  // relocate threshold, so GC will move x's version and wipe the page.
  {
    auto txn = env.txns_.Begin(&clk);
    for (Vid f : fillers) ASSERT_TRUE(table->Delete(txn.get(), f).ok());
    ASSERT_TRUE(env.txns_.Commit(txn.get()).ok());
  }

  EpochManager& em = EpochManager::Global();
  em.Quiesce();  // drain setup-time retires for a clean pending() baseline
  ASSERT_EQ(em.pending(), 0u);

  std::vector<Tid> vec_before = table->vid_map_v().Get(x);
  ASSERT_EQ(vec_before.size(), 1u);
  const PageNumber victim_page = vec_before[0].page;

  // Reader transaction whose snapshot sees x = "A". Own clock: the main
  // thread keeps charging `clk` (GC) while the reader thread runs.
  VirtualClock reader_clk;
  auto rtxn = env.txns_.Begin(&reader_clk);

  // Park the reader between the vector load and the first dereference —
  // exactly the window where vacuum can swap the map underneath it.
  g_pause_target.store(x, std::memory_order_seq_cst);
  g_reader_paused.store(false, std::memory_order_seq_cst);
  g_resume_reader.store(false, std::memory_order_seq_cst);
  g_pause_armed.store(true, std::memory_order_seq_cst);
  SiasTable::SetReadPauseHookForTest(&PauseReaderHook);

  Result<std::optional<std::string>> read_result = Status::Internal("not run");
  std::thread reader([&] { read_result = table->Read(rtxn.get(), x); });
  while (!g_reader_paused.load(std::memory_order_seq_cst)) {
    std::this_thread::yield();
  }

  // Vacuum with the reader pinned: relocates x's version off the victim
  // page, unpublishes the page and queues its wipe behind the epoch.
  CounterDelta reclaimed("mvcc.gc.pages_reclaimed");
  CounterDelta relocated("mvcc.gc.versions_relocated");
  ASSERT_TRUE(table->GarbageCollect(env.txns_.GcHorizon(), &clk).ok());
  EXPECT_GE(reclaimed(), 1);
  EXPECT_EQ(relocated(), 1);

  std::vector<Tid> vec_after = table->vid_map_v().Get(x);
  ASSERT_EQ(vec_after.size(), 1u);
  EXPECT_NE(vec_after[0].page, victim_page) << "version was not relocated";

  // The wipe (and the retired vector copies) must NOT run while the reader
  // is pinned: its stale vector still points into the victim page.
  EXPECT_GT(em.pending(), 0u);
  em.Advance();
  EXPECT_EQ(em.TryReclaim(), 0u)
      << "reclaimed a page while a reader was pinned in an older epoch";

  // Unpark. The reader dereferences its stale TID; the bytes must still be
  // intact, so it reads the correct value.
  g_resume_reader.store(true, std::memory_order_seq_cst);
  reader.join();
  SiasTable::SetReadPauseHookForTest(nullptr);
  g_pause_target.store(kInvalidVid, std::memory_order_seq_cst);

  ASSERT_TRUE(read_result.ok()) << read_result.status().ToString();
  ASSERT_TRUE((*read_result).has_value());
  EXPECT_EQ(**read_result, "A");
  ASSERT_TRUE(env.txns_.Commit(rtxn.get()).ok());

  // Reader gone: the deferred wipe may now land, and the queue drains dry.
  em.Advance();
  EXPECT_GT(em.TryReclaim(), 0u);
  EXPECT_EQ(em.pending(), 0u);

  // The wiped page went to the free list only after the drain; the next
  // page the region opens is recycled from it. (Seal first: GC's
  // relocation left a non-full open page behind.)
  table->region().SealOpenPage();
  {
    auto txn = env.txns_.Begin(&clk);
    ASSERT_TRUE(table->Insert(txn.get(), Slice("recycler")).ok());
    ASSERT_TRUE(env.txns_.Commit(txn.get()).ok());
  }
  EXPECT_GE(table->append_stats().pages_recycled, 1u);

  // And x still reads "A" from its relocated home.
  {
    auto txn = env.txns_.Begin(&clk);
    auto r = table->Read(txn.get(), x);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, "A");
    ASSERT_TRUE(env.txns_.Commit(txn.get()).ok());
  }
}

// ---------------------------------------------------------------------------
// 3. ChainOf guards on the latch-free traversal, against real GC recycling.

class ChainGuardTest : public ::testing::Test {
 protected:
  // Builds: x@v1 on page 0, the rest of page 0 filled with
  // committed-then-tombstoned fillers, then x@v2 on page 1. After GC,
  // page 0 is wiped and recycled while v2's predecessor pointer still
  // names v1's old slot — the documented dangling anchor. Page boundaries
  // are discovered from the actual TIDs, not guessed from page capacity.
  void BuildDanglingAnchor() {
    table_owned_ = env_.MakeTable(VersionScheme::kSiasChains, 1);
    table_ = static_cast<SiasTable*>(table_owned_.get());
    {
      auto txn = env_.txns_.Begin(&clk_);
      Tid x_tid;
      auto vx = table_->Insert(txn.get(), Slice("v1"), &x_tid);
      ASSERT_TRUE(vx.ok());
      x_ = *vx;
      ASSERT_EQ(x_tid, (Tid{0, 0}));
      // Fill the rest of page 0 (watching where each version lands); the
      // first filler that spills to page 1 stays alive as a keeper.
      std::string bulk(512, 'f');
      for (int i = 0; i < 64; ++i) {
        Tid ft;
        auto vf = table_->Insert(txn.get(), Slice(bulk), &ft);
        ASSERT_TRUE(vf.ok());
        if (ft.page != 0) break;  // keeper: never deleted
        fillers_.push_back(*vf);
      }
      ASSERT_GT(fillers_.size(), 2u);
      ASSERT_TRUE(env_.txns_.Commit(txn.get()).ok());
    }
    // Tombstone the page-0 fillers (tombstones land on page 1): page 0 is
    // now fully dead except x@v1, which v2 supersedes next.
    {
      auto txn = env_.txns_.Begin(&clk_);
      for (Vid f : fillers_) ASSERT_TRUE(table_->Delete(txn.get(), f).ok());
      ASSERT_TRUE(env_.txns_.Commit(txn.get()).ok());
    }
    {
      auto txn = env_.txns_.Begin(&clk_);
      Tid v2_tid;
      ASSERT_TRUE(table_->Update(txn.get(), x_, Slice("v2"), &v2_tid).ok());
      ASSERT_EQ(v2_tid.page, 1u);
      // Keeper items raise page 1's live share above the relocate AND
      // prune thresholds: GC must leave v2 (and its dangling predecessor
      // pointer) byte-for-byte in place. Page 1 then holds 1 keeper
      // filler + |fillers_| tombstones + v2 + 2*|fillers_| keepers.
      for (size_t i = 0; i < 2 * fillers_.size(); ++i) {
        Tid kt;
        ASSERT_TRUE(table_->Insert(txn.get(), Slice("keep"), &kt).ok());
        ASSERT_EQ(kt.page, 1u) << "keepers spilled off v2's page";
      }
      ASSERT_TRUE(env_.txns_.Commit(txn.get()).ok());
    }
    v1_tid_ = Tid{0, 0};

    CounterDelta reclaimed("mvcc.gc.pages_reclaimed");
    ASSERT_TRUE(table_->GarbageCollect(env_.txns_.GcHorizon(), &clk_).ok());
    ASSERT_EQ(reclaimed(), 1);  // page 0 only; page 1 stays put
    EpochManager::Global().Quiesce();
    ASSERT_EQ(EpochManager::Global().pending(), 0u);
    // v2 must still be where the update appended it.
    ASSERT_EQ(table_->vid_map().Get(x_).page, 1u);
  }

  TestEnv env_{/*pool_frames=*/128, /*with_wal=*/true};
  VirtualClock clk_;
  std::unique_ptr<MvccTable> table_owned_;
  SiasTable* table_ = nullptr;
  Vid x_ = kInvalidVid;
  std::vector<Vid> fillers_;
  Tid v1_tid_;
};

TEST_F(ChainGuardTest, AnchorPredDanglingIntoForeignItemStopsWalk) {
  BuildDanglingAnchor();
  // Recycle page 0 with a *different* item: its first version lands in
  // v1's old slot, so x's anchor predecessor now names a foreign tuple.
  Vid y;
  {
    auto txn = env_.txns_.Begin(&clk_);
    auto vy = table_->Insert(txn.get(), Slice("intruder"), nullptr);
    ASSERT_TRUE(vy.ok());
    y = *vy;
    ASSERT_TRUE(env_.txns_.Commit(txn.get()).ok());
  }
  Tid y_tid = table_->vid_map().Get(y);
  ASSERT_EQ(y_tid, v1_tid_) << "test setup: y must reuse v1's slot";

  auto chain = table_->ChainOf(x_, &clk_);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  // The walk must stop at the anchor (v2): following the dangling pred
  // would hand back y's version under x's vid.
  ASSERT_EQ(chain->size(), 1u);
  EXPECT_NE((*chain)[0], v1_tid_);

  auto txn = env_.txns_.Begin(&clk_);
  auto r = table_->Read(txn.get(), x_);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ(**r, "v2");
  ASSERT_TRUE(env_.txns_.Commit(txn.get()).ok());
}

TEST_F(ChainGuardTest, AnchorPredDanglingIntoSameItemStopsOnXminOrder) {
  BuildDanglingAnchor();
  // Recycle page 0 with the SAME item: x's next version v3 lands in v1's
  // old slot. v2's predecessor pointer now resolves to a tuple of the
  // right vid but a NEWER xmin — without the monotonicity guard the walk
  // v3 -> v2 -> (pred = v3's slot) -> v2 -> ... would cycle forever.
  {
    auto txn = env_.txns_.Begin(&clk_);
    ASSERT_TRUE(table_->Update(txn.get(), x_, Slice("v3")).ok());
    ASSERT_TRUE(env_.txns_.Commit(txn.get()).ok());
  }
  Tid v3_tid = table_->vid_map().Get(x_);
  ASSERT_EQ(v3_tid, v1_tid_) << "test setup: v3 must reuse v1's slot";

  auto chain = table_->ChainOf(x_, &clk_);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->size(), 2u);  // v3, v2 — guard cuts the loop
  EXPECT_EQ((*chain)[0], v3_tid);

  auto txn = env_.txns_.Begin(&clk_);
  auto r = table_->Read(txn.get(), x_);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ(**r, "v3");
  ASSERT_TRUE(env_.txns_.Commit(txn.get()).ok());
}

TEST_F(ChainGuardTest, SameTxnStackedVersionsStayLinked) {
  // One transaction may stack several versions of the same item (a
  // New-Order with a duplicate item id updates the same stock row twice),
  // so the top links of the chain share an xmin. The monotonicity guard
  // must treat equal xmin as a real link: a concurrent snapshot has to
  // walk past BOTH uncommitted versions to the older committed one, not
  // come back empty. (Regression: a >= guard truncated these chains; a
  // crash mid-transaction made the truncation durable, and every
  // post-recovery read of the item missed the committed version.)
  table_owned_ = env_.MakeTable(VersionScheme::kSiasChains, 1);
  table_ = static_cast<SiasTable*>(table_owned_.get());
  Vid x;
  {
    auto txn = env_.txns_.Begin(&clk_);
    auto vx = table_->Insert(txn.get(), Slice("v1"), nullptr);
    ASSERT_TRUE(vx.ok());
    x = *vx;
    ASSERT_TRUE(env_.txns_.Commit(txn.get()).ok());
  }
  auto reader = env_.txns_.Begin(&clk_);  // snapshot: only v1 committed
  auto writer = env_.txns_.Begin(&clk_);
  ASSERT_TRUE(table_->Update(writer.get(), x, Slice("v2")).ok());
  ASSERT_TRUE(table_->Update(writer.get(), x, Slice("v3")).ok());

  // All three versions stay linked (v3 and v2 share the writer's xmin).
  auto chain = table_->ChainOf(x, &clk_);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(chain->size(), 3u);

  // The concurrent snapshot walks the equal-xmin links down to v1.
  {
    auto r = table_->Read(reader.get(), x);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->has_value()) << "walk stopped at an equal-xmin link";
    EXPECT_EQ(**r, "v1");
  }
  ASSERT_TRUE(env_.txns_.Commit(writer.get()).ok());

  // The pre-writer snapshot still resolves v1 after the commit...
  {
    auto r = table_->Read(reader.get(), x);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, "v1");
  }
  ASSERT_TRUE(env_.txns_.Commit(reader.get()).ok());

  // ...and a fresh snapshot sees the newest stacked version.
  {
    auto txn = env_.txns_.Begin(&clk_);
    auto r = table_->Read(txn.get(), x);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, "v3");
    ASSERT_TRUE(env_.txns_.Commit(txn.get()).ok());
  }
}

// ---------------------------------------------------------------------------
// 4. Deterministic out-of-order completions vs. the SI oracle.
//
// The resumable batched read path keeps up to io_depth page reads in flight
// on a multi-channel flash device; channel queuing makes completions land in
// a different order than submissions (a deterministic schedule in virtual
// time). Snapshot visibility must be untouched by that reordering: an old
// snapshot's batch returns exactly the pre-update values, a fresh one the
// post-update values, slot for slot against the sequential Read() oracle.

TEST(OooCompletionTest, ReadMultiUnderReorderedCompletionsMatchesOracle) {
  for (VersionScheme scheme :
       {VersionScheme::kSiasV, VersionScheme::kSiasChains}) {
    SCOPED_TRACE(ToString(scheme));
    // Flash-backed mini engine: 4 channels so queuing reorders completions,
    // a 24-frame pool so batch reads actually miss and hit the device.
    FlashConfig fcfg;
    fcfg.capacity_bytes = 64ull << 20;
    fcfg.num_channels = 4;
    fcfg.pages_per_block = 16;
    FlashSsd device(fcfg);
    MemDevice wal_device(1ull << 30);
    DiskManager disk(&device);
    WalWriter wal(&wal_device, 0, 1ull << 30);
    BufferPool pool(&disk, 24, [&wal](Lsn lsn, VirtualClock* clk) {
      return wal.FlushTo(lsn, clk);
    });
    Clog clog;
    LockManager locks(200);
    TransactionManager txns(&clog, &locks);
    ASSERT_TRUE(disk.CreateRelation(1).ok());
    TableEnv tenv{&pool, &txns, &wal};
    SiasTable table(1, tenv, scheme);

    VirtualClock clk;
    // ~15 tuples per 8 KB page: 600 old + 600 new versions span ~80 pages
    // against 24 frames, so the batched reads genuinely miss to the device.
    constexpr int kItems = 600;
    std::vector<Vid> vids;
    {
      auto txn = txns.Begin(&clk);
      std::string bulk(480, 'p');
      for (int i = 0; i < kItems; ++i) {
        auto vid = table.Insert(txn.get(), Slice("old" + std::to_string(i) +
                                                 bulk));
        ASSERT_TRUE(vid.ok());
        vids.push_back(*vid);
      }
      ASSERT_TRUE(txns.Commit(txn.get()).ok());
    }

    auto old_snap = txns.Begin(&clk);  // snapshot taken before the updates

    {
      auto txn = txns.Begin(&clk);
      std::string bulk(480, 'q');
      for (int i = 0; i < kItems; ++i) {
        ASSERT_TRUE(table.Update(txn.get(), vids[i],
                                 Slice("new" + std::to_string(i) + bulk))
                        .ok());
      }
      ASSERT_TRUE(txns.Commit(txn.get()).ok());
    }
    auto fresh_snap = txns.Begin(&clk);
    ASSERT_TRUE(pool.FlushAll(&clk).ok());

    // Old and new versions interleave across pages and channels; the
    // depth-8 run misses repeatedly, so it genuinely pipelines (and
    // completes out of submission order on the queued channels).
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    int64_t submits_before = reg.GetCounter("io.submits")->Value();

    for (auto [txn, prefix] : {std::pair{old_snap.get(), std::string("old")},
                               std::pair{fresh_snap.get(), std::string("new")}}) {
      std::vector<std::optional<std::string>> rows;
      ASSERT_TRUE(table.ReadMulti(txn, vids, /*io_depth=*/8, &rows).ok());
      ASSERT_EQ(rows.size(), vids.size());
      for (int i = 0; i < kItems; ++i) {
        ASSERT_TRUE(rows[i].has_value()) << "vid " << vids[i];
        EXPECT_EQ(rows[i]->substr(0, prefix.size() + std::to_string(i).size()),
                  prefix + std::to_string(i))
            << "snapshot leaked across the reordered completions";
        auto oracle = table.Read(txn, vids[i]);
        ASSERT_TRUE(oracle.ok());
        EXPECT_EQ(rows[i], *oracle) << "vid " << vids[i];
      }
    }
    EXPECT_GT(reg.GetCounter("io.submits")->Value(), submits_before)
        << "the batch never reached the async submission path (pool too "
           "large or batch too small for a real pipeline)";

    ASSERT_TRUE(txns.Commit(old_snap.get()).ok());
    ASSERT_TRUE(txns.Commit(fresh_snap.get()).ok());
  }
}

}  // namespace
}  // namespace sias
