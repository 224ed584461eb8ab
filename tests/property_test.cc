// Property-based suites (parameterized sweeps) over the core invariants:
//  * snapshot visibility: at most one version of an item is visible per
//    snapshot, and it is exactly the newest version committed before the
//    snapshot began;
//  * chain monotonicity: creation xids strictly decrease along *ptr;
//  * sequential-history equivalence: a randomized concurrent history over
//    the engine matches a sequential reference model replayed from the
//    commit order;
//  * device conservation: bytes in traces equal bytes counted by devices;
//  * channel calendar: reservations never overlap, backfill never
//    reorders an arrival before its arrival time.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "common/random.h"
#include "device/channel_calendar.h"
#include "device/flash_ssd.h"
#include "tests/test_env.h"

using sias::Random;

namespace sias {
namespace {

// ---------------------------------------------------------------------------
// Randomized linearization check: run a random single-threaded history of
// inserts/updates/deletes with interleaved BEGIN/COMMIT/ABORT across several
// open transactions, tracking a reference model keyed by commit order.
// Every snapshot must observe exactly the model state at its begin point.
// ---------------------------------------------------------------------------

class VisibilityPropertyTest
    : public ::testing::TestWithParam<std::tuple<VersionScheme, int>> {};

TEST_P(VisibilityPropertyTest, SnapshotsSeeCommitPrefix) {
  auto [scheme, seed] = GetParam();
  TestEnv env;
  auto table = env.MakeTable(scheme, 1);
  VirtualClock clk;
  Random rng(seed);

  // Committed state: vid -> value (as of each "instant" = commit count).
  std::map<Vid, std::string> committed_state;
  std::vector<Vid> known_vids;

  struct OpenTxn {
    std::unique_ptr<Transaction> txn;
    std::map<Vid, std::string> expected;  // committed state at begin
    std::map<Vid, std::string> own;       // own uncommitted writes
    std::map<Vid, bool> own_deleted;
  };
  std::vector<OpenTxn> open;

  for (int step = 0; step < 400; ++step) {
    int action = static_cast<int>(rng.Uniform(0, 9));
    if (open.empty() || action == 0) {
      // begin
      if (open.size() < 4) {
        OpenTxn ot;
        ot.txn = env.txns_.Begin(&clk);
        ot.expected = committed_state;
        open.push_back(std::move(ot));
      }
      continue;
    }
    size_t pick = rng.Uniform(0, open.size() - 1);
    OpenTxn& ot = open[pick];
    if (action <= 2) {
      // insert
      std::string val = std::string("v").append(std::to_string(step));
      auto vid = table->Insert(ot.txn.get(), Slice(val));
      ASSERT_TRUE(vid.ok());
      ot.own[*vid] = val;
      known_vids.push_back(*vid);
    } else if (action <= 4 && !known_vids.empty()) {
      // update a random item (may conflict -> abort this txn)
      Vid v = known_vids[rng.Uniform(0, known_vids.size() - 1)];
      std::string val = std::string("u").append(std::to_string(step));
      Status s = table->Update(ot.txn.get(), v, Slice(val));
      if (s.ok()) {
        ot.own[v] = val;
        ot.own_deleted.erase(v);
      } else if (s.IsRetryable()) {
        ASSERT_TRUE(env.txns_.Abort(ot.txn.get()).ok());
        open.erase(open.begin() + pick);
      }
      // NotFound is fine: deleted or not yet visible to this snapshot.
    } else if (action == 5 && !known_vids.empty()) {
      // delete
      Vid v = known_vids[rng.Uniform(0, known_vids.size() - 1)];
      Status s = table->Delete(ot.txn.get(), v);
      if (s.ok()) {
        ot.own_deleted[v] = true;
        ot.own.erase(v);
      } else if (s.IsRetryable()) {
        ASSERT_TRUE(env.txns_.Abort(ot.txn.get()).ok());
        open.erase(open.begin() + pick);
      }
    } else if (action == 6) {
      // verify this txn's view: expected state + own writes
      for (Vid v : known_vids) {
        auto r = table->Read(ot.txn.get(), v);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        std::string want;
        bool want_present = false;
        if (ot.own_deleted.count(v)) {
          want_present = false;
        } else if (ot.own.count(v)) {
          want = ot.own[v];
          want_present = true;
        } else if (ot.expected.count(v)) {
          want = ot.expected[v];
          want_present = true;
        }
        ASSERT_EQ(r->has_value(), want_present) << "vid " << v;
        if (want_present) {
          EXPECT_EQ(**r, want) << "vid " << v;
        }
      }
    } else if (action == 7) {
      // abort
      ASSERT_TRUE(env.txns_.Abort(ot.txn.get()).ok());
      open.erase(open.begin() + pick);
    } else {
      // commit: fold own writes into the committed state
      ASSERT_TRUE(env.txns_.Commit(ot.txn.get()).ok());
      for (auto& [v, val] : ot.own) committed_state[v] = val;
      for (auto& [v, dead] : ot.own_deleted) {
        if (dead) committed_state.erase(v);
      }
      open.erase(open.begin() + pick);
    }
  }
  // Final check from a fresh snapshot.
  for (auto& ot : open) ASSERT_TRUE(env.txns_.Abort(ot.txn.get()).ok());
  auto txn = env.txns_.Begin(&clk);
  for (Vid v : known_vids) {
    auto r = table->Read(txn.get(), v);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->has_value(), committed_state.count(v) > 0) << "vid " << v;
    if (r->has_value()) {
      EXPECT_EQ(**r, committed_state[v]);
    }
  }
  ASSERT_TRUE(env.txns_.Commit(txn.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, VisibilityPropertyTest,
    ::testing::Combine(::testing::Values(VersionScheme::kSi,
                                         VersionScheme::kSiasChains,
                                         VersionScheme::kSiasV),
                       ::testing::Values(1, 2, 3, 4, 5)),
    [](const auto& info) {
      std::string n = ToString(std::get<0>(info.param));
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n + "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Chain monotonicity under churn + GC.
// ---------------------------------------------------------------------------

class ChainPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ChainPropertyTest, XidsStrictlyDecreaseAlongChains) {
  TestEnv env;
  auto tp = env.MakeTable(VersionScheme::kSiasChains, 1);
  auto* table = static_cast<SiasTable*>(tp.get());
  VirtualClock clk;
  Random rng(GetParam());
  std::vector<Vid> vids;
  for (int i = 0; i < 60; ++i) {
    auto t = env.txns_.Begin(&clk);
    auto v = table->Insert(t.get(), Slice("x"));
    ASSERT_TRUE(v.ok());
    vids.push_back(*v);
    ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
  }
  for (int round = 0; round < 8; ++round) {
    for (Vid v : vids) {
      if (rng.OneIn(3)) continue;
      auto t = env.txns_.Begin(&clk);
      Status s = table->Update(t.get(), v, Slice("y"));
      if (s.ok()) {
        ASSERT_TRUE(env.txns_.Commit(t.get()).ok());
      } else {
        ASSERT_TRUE(env.txns_.Abort(t.get()).ok());
      }
    }
    if (round % 3 == 2) {
      ASSERT_TRUE(table->GarbageCollect(env.txns_.GcHorizon(), &clk).ok());
    }
    // Invariant: every chain, walked from the entrypoint over reachable
    // versions, has strictly decreasing xmin.
    for (Vid v : vids) {
      auto chain = table->ChainOf(v, &clk);
      ASSERT_TRUE(chain.ok());
      Xid prev = ~0ull;
      for (Tid tid : *chain) {
        auto page = env.pool_.FetchPage(PageId{1, tid.page}, &clk);
        ASSERT_TRUE(page.ok());
        page->LatchShared();
        TupleHeader h;
        bool decoded =
            DecodeTupleHeader(page->page().GetTuple(tid.slot), &h);
        page->Unlatch();
        if (!decoded) break;  // dangling tail beyond a GC anchor
        if (h.vid != v) break;
        ASSERT_LT(h.xmin, prev);
        prev = h.xmin;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainPropertyTest,
                         ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------------------
// Channel calendar properties.
// ---------------------------------------------------------------------------

TEST(ChannelCalendarTest, ReservationsNeverOverlapAndNeverPredateArrival) {
  ChannelCalendar cal;
  Random rng(5);
  std::vector<std::pair<VTime, VTime>> granted;
  for (int i = 0; i < 2000; ++i) {
    VTime at = rng.Uniform(0, 100000);
    VDuration len = rng.Uniform(1, 50);
    VTime start = cal.Reserve(at, len);
    EXPECT_GE(start, at);
    granted.push_back({start, start + len});
  }
  std::sort(granted.begin(), granted.end());
  // Recent reservations must not overlap (the calendar is bounded, so only
  // check pairs within the retained window).
  for (size_t i = granted.size() - 200; i + 1 < granted.size(); ++i) {
    EXPECT_LE(granted[i].second, granted[i + 1].first);
  }
}

TEST(ChannelCalendarTest, BackfillUsesIdleGaps) {
  ChannelCalendar cal;
  // Reserve [100, 200); a request arriving at 0 with len 50 must be served
  // at 0 (idle gap), not queued after 200.
  EXPECT_EQ(cal.Reserve(100, 100), 100u);
  EXPECT_EQ(cal.Reserve(0, 50), 0u);
  // A request at 60 with len 50 does not fit before 100: it starts at 200.
  EXPECT_EQ(cal.Reserve(60, 50), 200u);
  // But a request at 60 with len 40 fits exactly into [60, 100).
  EXPECT_EQ(cal.Reserve(60, 40), 60u);
}

TEST(ChannelCalendarTest, ConcurrentReservationsDisjoint) {
  ChannelCalendar cal;
  std::vector<std::vector<std::pair<VTime, VTime>>> per_thread(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Random rng(t + 1);
      for (int i = 0; i < 500; ++i) {
        VTime at = rng.Uniform(0, 10000);
        VTime start = cal.Reserve(at, 7);
        per_thread[t].push_back({start, start + 7});
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<std::pair<VTime, VTime>> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  // Check the retained window for overlaps.
  for (size_t i = all.size() - 200; i + 1 < all.size(); ++i) {
    EXPECT_LE(all[i].second, all[i + 1].first) << i;
  }
}

// ---------------------------------------------------------------------------
// Trace conservation: device byte counters equal trace totals.
// ---------------------------------------------------------------------------

TEST(TraceConservationTest, TraceMatchesDeviceCounters) {
  FlashConfig fc;
  fc.capacity_bytes = 64ull << 20;
  FlashSsd ssd(fc);
  TraceRecorder trace;
  ssd.set_trace(&trace);
  Random rng(3);
  VirtualClock clk;
  std::vector<uint8_t> buf(kPageSize);
  for (int i = 0; i < 300; ++i) {
    uint64_t page = rng.Uniform(0, (fc.capacity_bytes / kPageSize) - 1);
    if (rng.OneIn(2)) {
      ASSERT_TRUE(
          ssd.Write(page * kPageSize, kPageSize, buf.data(), &clk).ok());
    } else {
      ASSERT_TRUE(
          ssd.Read(page * kPageSize, kPageSize, buf.data(), &clk).ok());
    }
  }
  DeviceStats stats = ssd.stats();
  EXPECT_EQ(stats.bytes_written, trace.total_bytes_written());
  EXPECT_EQ(stats.bytes_read, trace.total_bytes_read());
}

}  // namespace
}  // namespace sias
