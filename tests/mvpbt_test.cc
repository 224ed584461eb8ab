// MV-PBT tests: visibility-from-index semantics for all record types,
// flush/merge lifecycle, and a random-schedule oracle check in the style of
// epoch_visibility_test — concurrent writers, readers and maintenance, with
// every probe result compared against a serial SI oracle replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "device/mem_device.h"
#include "index/key_codec.h"
#include "index/mvpbt.h"
#include "mvcc/epoch.h"
#include "storage/disk_manager.h"
#include "txn/clog.h"
#include "txn/snapshot.h"

namespace sias {
namespace {

class MvPbtTest : public ::testing::Test {
 protected:
  MvPbtTest() : device_(1ull << 30), disk_(&device_), pool_(&disk_, 256) {
    EXPECT_TRUE(disk_.CreateRelation(1).ok());
    MvPbtOptions opts;
    opts.max_buffer_entries = 64;
    opts.vacuum_flush_min = 1;
    opts.max_partitions = 2;
    idx_ = std::make_unique<MvPbt>(1, &pool_, &clog_, opts);
    EXPECT_TRUE(idx_->Create(&clk_).ok());
  }

  Xid NewXid() {
    Xid xid = next_xid_++;
    clog_.Extend(xid);
    return xid;
  }

  IndexWriteCtx Ctx(Xid xid, Vid vid) {
    return IndexWriteCtx{xid, Tid{}, vid, &clk_};
  }

  /// Snapshot seeing every xid allocated so far as long as it committed.
  Snapshot SnapAll() {
    Xid xid = NewXid();
    return Snapshot{xid, next_xid_, {}};
  }

  std::vector<std::pair<std::string, Vid>> ProbeAll(const Snapshot& snap) {
    std::vector<std::pair<std::string, Vid>> out;
    EXPECT_TRUE(idx_->ProbeRange(snap, Slice(), Slice(), &clk_,
                                 [&](const IndexHit& hit) {
                                   EXPECT_TRUE(hit.visibility_resolved);
                                   out.emplace_back(hit.key.ToString(), hit.value);
                                   return true;
                                 })
                    .ok());
    return out;
  }

  MemDevice device_;
  DiskManager disk_;
  BufferPool pool_;
  Clog clog_;
  VirtualClock clk_;
  Xid next_xid_ = kFirstNormalXid;
  std::unique_ptr<MvPbt> idx_;
};

TEST_F(MvPbtTest, InsertVisibleOnlyToSnapshotsSeeingTheWriter) {
  Xid w = NewXid();
  ASSERT_TRUE(idx_->OnInsert(Ctx(w, 7), IntKey(10)).ok());

  // Uncommitted: visible to the writer itself, invisible to others.
  Snapshot self{w, next_xid_, {}};
  EXPECT_EQ(ProbeAll(self).size(), 1u);
  Snapshot other = SnapAll();
  EXPECT_TRUE(ProbeAll(other).empty());

  clog_.SetCommitted(w);
  // A snapshot that started before w stays blind (w in concurrent set).
  Snapshot before{next_xid_, next_xid_, {w}};
  EXPECT_TRUE(ProbeAll(before).empty());
  // A later snapshot sees it.
  Snapshot after = SnapAll();
  auto hits = ProbeAll(after);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].first, IntKey(10));
  EXPECT_EQ(hits[0].second, 7u);
}

TEST_F(MvPbtTest, AntiRecordMovesVidBetweenKeys) {
  Xid w1 = NewXid();
  ASSERT_TRUE(idx_->OnInsert(Ctx(w1, 7), IntKey(10)).ok());
  clog_.SetCommitted(w1);
  Snapshot old_snap = SnapAll();

  Xid w2 = NewXid();
  ASSERT_TRUE(idx_->OnUpdate(Ctx(w2, 7), IntKey(10), IntKey(20)).ok());
  clog_.SetCommitted(w2);
  Snapshot new_snap = SnapAll();

  auto old_hits = ProbeAll(old_snap);
  ASSERT_EQ(old_hits.size(), 1u);
  EXPECT_EQ(old_hits[0].first, IntKey(10));
  auto new_hits = ProbeAll(new_snap);
  ASSERT_EQ(new_hits.size(), 1u);
  EXPECT_EQ(new_hits[0].first, IntKey(20));

  // Same-key update posts nothing.
  uint64_t before = idx_->entries();
  ASSERT_TRUE(idx_->OnUpdate(Ctx(NewXid(), 7), IntKey(20), IntKey(20)).ok());
  EXPECT_EQ(idx_->entries(), before);
}

TEST_F(MvPbtTest, DeleteRecordHidesItemAndAbortedWritersAreFiltered) {
  Xid w1 = NewXid();
  ASSERT_TRUE(idx_->OnInsert(Ctx(w1, 7), IntKey(10)).ok());
  clog_.SetCommitted(w1);

  Xid del = NewXid();
  ASSERT_TRUE(idx_->OnDelete(Ctx(del, 7), IntKey(10)).ok());
  clog_.SetCommitted(del);
  EXPECT_TRUE(ProbeAll(SnapAll()).empty());

  // An aborted re-insert never surfaces, without any heap consultation.
  Xid ab = NewXid();
  ASSERT_TRUE(idx_->OnInsert(Ctx(ab, 8), IntKey(11)).ok());
  clog_.SetAborted(ab);
  EXPECT_TRUE(ProbeAll(SnapAll()).empty());
}

TEST_F(MvPbtTest, FlushAndMergePreserveProbeResults) {
  // Three batches with a flush after each -> partition stack of 3.
  std::map<std::string, Vid> expect;
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 20; ++i) {
      int k = batch * 20 + i;
      Xid w = NewXid();
      ASSERT_TRUE(idx_->OnInsert(Ctx(w, k), IntKey(k)).ok());
      clog_.SetCommitted(w);
      expect[IntKey(k)] = static_cast<Vid>(k);
    }
    ASSERT_TRUE(idx_->Flush(&clk_).ok());
  }
  EXPECT_EQ(idx_->num_partitions(), 3u);
  EXPECT_EQ(idx_->buffer_entries(), 0u);

  Snapshot snap = SnapAll();
  auto hits = ProbeAll(snap);
  ASSERT_EQ(hits.size(), expect.size());
  size_t i = 0;
  for (const auto& [k, vid] : expect) {
    EXPECT_EQ(hits[i].first, k);
    EXPECT_EQ(hits[i].second, vid);
    i++;
  }

  // Point probes hit flushed partitions too.
  std::vector<Vid> point;
  ASSERT_TRUE(idx_->Probe(snap, IntKey(42), &clk_,
                          [&](const IndexHit& hit) {
                            point.push_back(hit.value);
                            return true;
                          })
                  .ok());
  ASSERT_EQ(point.size(), 1u);
  EXPECT_EQ(point[0], 42u);

  // Maintain with everything below the horizon: stack of 3 > max (2), so
  // a merge compacts to one partition; probes are unchanged.
  ASSERT_TRUE(idx_->Maintain(next_xid_, &clk_).ok());
  EXPECT_EQ(idx_->num_partitions(), 1u);
  EXPECT_EQ(ProbeAll(snap), hits);
}

TEST_F(MvPbtTest, MergePurgesSupersededAndAbortedRecords) {
  // vid 1: insert, then delete (both committed) -> purged entirely.
  // vid 2: insert committed, anti ABORTED -> anti purged, insert kept.
  // vid 3: insert in-progress -> kept verbatim.
  Xid a = NewXid(), b = NewXid(), c = NewXid(), d = NewXid(), e = NewXid();
  ASSERT_TRUE(idx_->OnInsert(Ctx(a, 1), IntKey(1)).ok());
  ASSERT_TRUE(idx_->OnDelete(Ctx(b, 1), IntKey(1)).ok());
  ASSERT_TRUE(idx_->OnInsert(Ctx(c, 2), IntKey(2)).ok());
  ASSERT_TRUE(idx_->OnUpdate(Ctx(d, 2), IntKey(2), IntKey(3)).ok());
  ASSERT_TRUE(idx_->OnInsert(Ctx(e, 3), IntKey(4)).ok());
  clog_.SetCommitted(a);
  clog_.SetCommitted(b);
  clog_.SetCommitted(c);
  clog_.SetAborted(d);

  // Three flushes to exceed max_partitions and force the merge.
  ASSERT_TRUE(idx_->Flush(&clk_).ok());
  ASSERT_TRUE(idx_->OnInsert(Ctx(NewXid(), 99), IntKey(99)).ok());
  ASSERT_TRUE(idx_->Flush(&clk_).ok());
  ASSERT_TRUE(idx_->OnDelete(Ctx(NewXid(), 99), IntKey(99)).ok());
  ASSERT_TRUE(idx_->Flush(&clk_).ok());

  uint64_t before = idx_->entries();
  ASSERT_TRUE(idx_->Maintain(/*horizon=*/e, &clk_).ok());
  EXPECT_EQ(idx_->num_partitions(), 1u);
  // Purged: vid 1's insert+delete, plus BOTH records of vid 2's aborted
  // update (the anti on key 2 and the insert on key 3). vid 99's pair
  // (in-progress writers) and vid 3's record survive.
  EXPECT_EQ(idx_->entries(), before - 4);

  Snapshot snap = SnapAll();
  auto hits = ProbeAll(snap);
  ASSERT_EQ(hits.size(), 1u);  // only vid 2 under key 2 is visible
  EXPECT_EQ(hits[0].first, IntKey(2));
  EXPECT_EQ(hits[0].second, 2u);
}

// ---------------------------------------------------------------------------
// Random-schedule oracle: concurrent writers post insert/anti/delete events,
// readers probe with consistent snapshots, a maintenance thread flushes,
// merges and advances epochs. Every probe must equal a serial replay of the
// shadow event log under the same snapshot.

struct ShadowEvent {
  int64_t key;
  Vid vid;
  Xid xid;
  bool insert;  // false: anti/delete
};

TEST(MvPbtOracleTest, ConcurrentProbesMatchSerialOracle) {
  MemDevice device(1ull << 30);
  DiskManager disk(&device);
  ASSERT_TRUE(disk.CreateRelation(1).ok());
  BufferPool pool(&disk, 128);
  Clog clog;
  MvPbtOptions opts;
  opts.max_buffer_entries = 48;  // frequent inline flushes
  opts.vacuum_flush_min = 8;
  opts.max_partitions = 2;  // frequent merges
  MvPbt idx(1, &pool, &clog, opts);
  VirtualClock create_clk;
  ASSERT_TRUE(idx.Create(&create_clk).ok());

  // Shadow state. The mutex spans shadow append + index post, so the
  // shadow log order equals the index's internal event order (the engine
  // gets this from per-item row locks).
  std::mutex mu;
  std::vector<ShadowEvent> log;
  std::set<Xid> active;
  std::map<Vid, int64_t> location;  // committed location of each vid
  std::atomic<Xid> next_xid{kFirstNormalXid};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  // Oldest xid each in-flight reader snapshot may still need to tell apart
  // (max = no probe in flight). The engine gets this from the transaction
  // manager's GcHorizon — bare-index readers must export it themselves, or
  // a merge between snapshot construction and probe purges history the
  // snapshot still depends on.
  constexpr Xid kNoFloor = std::numeric_limits<Xid>::max();
  std::array<std::atomic<Xid>, 2> reader_floor{kNoFloor, kNoFloor};

  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 600;
  constexpr int kKeys = 12;

  auto writer = [&](int id) {
    VirtualClock clk;
    Random rng(1000 + id);
    for (int op = 0; op < kOpsPerWriter; ++op) {
      Xid xid;
      {
        std::lock_guard<std::mutex> g(mu);
        xid = next_xid.fetch_add(1);
        clog.Extend(xid);
        active.insert(xid);
      }
      // Each writer owns its vid space: per-item event order is total.
      Vid vid = static_cast<Vid>(id * 1000 + rng.UniformInt(0, 40));
      int64_t key = rng.UniformInt(0, kKeys);
      IndexWriteCtx ctx{xid, Tid{}, vid, &clk};
      std::vector<ShadowEvent> pending;
      Status s;
      {
        std::lock_guard<std::mutex> g(mu);
        auto loc = location.find(vid);
        if (loc == location.end()) {
          s = idx.OnInsert(ctx, IntKey(key));
          pending.push_back({key, vid, xid, true});
        } else if (rng.OneIn(4)) {
          s = idx.OnDelete(ctx, IntKey(loc->second));
          pending.push_back({loc->second, vid, xid, false});
        } else {
          s = idx.OnUpdate(ctx, IntKey(loc->second), IntKey(key));
          if (loc->second != key) {
            pending.push_back({loc->second, vid, xid, false});
            pending.push_back({key, vid, xid, true});
          }
        }
        if (!s.ok()) {
          failures.fetch_add(1);
          return;
        }
        log.insert(log.end(), pending.begin(), pending.end());
      }
      // Commit or abort; terminal status and active-set removal are atomic
      // with respect to snapshot construction (same mutex).
      bool commit = !rng.OneIn(5);
      {
        std::lock_guard<std::mutex> g(mu);
        if (commit) {
          clog.SetCommitted(xid);
          auto loc = location.find(vid);
          if (loc == location.end()) {
            location[vid] = key;
          } else if (!pending.empty() && !pending.back().insert) {
            location.erase(vid);  // delete committed
          } else if (!pending.empty()) {
            location[vid] = key;  // key move committed
          }
        } else {
          clog.SetAborted(xid);
        }
        active.erase(xid);
      }
    }
  };

  auto reader = [&](int id) {
    VirtualClock clk;
    Random rng(2000 + id);
    while (!stop.load()) {
      Snapshot snap;
      std::vector<ShadowEvent> frozen;
      {
        std::lock_guard<std::mutex> g(mu);
        snap.xid = 0;  // pure reader: no own writes
        snap.xmax = next_xid.load();
        snap.concurrent.assign(active.begin(), active.end());
        frozen = log;
        reader_floor[id].store(active.empty() ? snap.xmax : *active.begin());
      }
      // Serial oracle replay: newest event per (key, vid) whose writer the
      // snapshot sees decides.
      std::set<std::pair<int64_t, Vid>> expect;
      std::set<std::pair<int64_t, Vid>> decided;
      for (auto it = frozen.rbegin(); it != frozen.rend(); ++it) {
        if (!snap.CreatorVisible(it->xid, clog)) continue;
        if (!decided.insert({it->key, it->vid}).second) continue;
        if (it->insert) expect.insert({it->key, it->vid});
      }
      std::set<std::pair<int64_t, Vid>> got;
      Status s = idx.ProbeRange(snap, Slice(), Slice(), &clk,
                                [&](const IndexHit& hit) {
                                  // Decode the int key back.
                                  int64_t k = static_cast<int64_t>(
                                      DecodeBigEndian64(Slice(hit.key).data()) -
                                      (1ull << 63));
                                  got.insert({k, hit.value});
                                  return true;
                                });
      reader_floor[id].store(kNoFloor);
      if (!s.ok() || got != expect) {
        failures.fetch_add(1);
        return;
      }
      (void)rng;
    }
  };

  auto maintenance = [&]() {
    VirtualClock clk;
    while (!stop.load()) {
      Xid horizon;
      {
        std::lock_guard<std::mutex> g(mu);
        horizon = active.empty() ? next_xid.load() : *active.begin();
        // Reader floors only move forward (writer xids ascend), so a floor
        // published after this read can never undercut the horizon.
        for (const auto& floor : reader_floor) {
          horizon = std::min(horizon, floor.load());
        }
      }
      if (!idx.Maintain(horizon, &clk).ok()) {
        failures.fetch_add(1);
        return;
      }
      EpochManager::Global().Advance();
      EpochManager::Global().TryReclaim();
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kWriters; ++i) threads.emplace_back(writer, i);
  std::thread m(maintenance);
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) readers.emplace_back(reader, i);

  for (auto& t : threads) t.join();
  stop.store(true);
  m.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);

  // Quiesced final check: a snapshot seeing everything equals the
  // committed `location` map.
  {
    VirtualClock clk;
    Snapshot snap{0, next_xid.load(), {}};
    std::set<std::pair<int64_t, Vid>> expect;
    for (const auto& [vid, key] : location) expect.insert({key, vid});
    std::set<std::pair<int64_t, Vid>> got;
    ASSERT_TRUE(idx.ProbeRange(snap, Slice(), Slice(), &clk,
                               [&](const IndexHit& hit) {
                                 int64_t k = static_cast<int64_t>(
                                     DecodeBigEndian64(Slice(hit.key).data()) -
                                     (1ull << 63));
                                 got.insert({k, hit.value});
                                 return true;
                               })
                    .ok());
    EXPECT_EQ(got, expect);
  }
  EpochManager::Global().Quiesce();
}

}  // namespace
}  // namespace sias
