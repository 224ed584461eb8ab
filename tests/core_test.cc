// Direct unit tests for the paper's core data structures:
// VidMap (§4.1.2/§4.1.3), VidMapV (the SIAS-V vector map), and the
// AppendRegion (tuple-granular append storage with flush thresholds).
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "core/append_region.h"
#include "core/vid_map.h"
#include "core/vid_map_v.h"
#include "device/mem_device.h"
#include "mvcc/tuple.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"

namespace sias {
namespace {

// ---------------------------------------------------------------------------
// VidMap.
// ---------------------------------------------------------------------------

TEST(VidMapTest, AllocateIsDenseAscending) {
  VidMap map;
  for (Vid expect = 0; expect < 100; ++expect) {
    EXPECT_EQ(map.AllocateVid(), expect);
  }
  EXPECT_EQ(map.bound(), 100u);
}

TEST(VidMapTest, GetOfUnsetSlotIsInvalid) {
  VidMap map;
  Vid v = map.AllocateVid();
  EXPECT_FALSE(map.Get(v).valid());
  EXPECT_FALSE(map.Get(999999).valid());
}

TEST(VidMapTest, SetGetRoundTrip) {
  VidMap map;
  Vid v = map.AllocateVid();
  map.Set(v, Tid{42, 7});
  EXPECT_EQ(map.Get(v), (Tid{42, 7}));
}

TEST(VidMapTest, BucketMathMatchesPaper) {
  // §4.1.3: BucketNr = floor(VID / 1024); one bucket per 1024 VIDs, no
  // overflow buckets.
  VidMap map;
  map.Set(0, Tid{1, 0});
  EXPECT_EQ(map.bucket_count(), 1u);
  map.Set(1023, Tid{1, 1});
  EXPECT_EQ(map.bucket_count(), 1u);
  map.Set(1024, Tid{1, 2});
  EXPECT_EQ(map.bucket_count(), 2u);
  map.Set(10 * 1024, Tid{1, 3});
  EXPECT_EQ(map.bucket_count(), 11u);
  // Footprint: one page-sized bucket per 1024 VIDs.
  EXPECT_EQ(map.memory_bytes(), 11 * kPageSize);
}

TEST(VidMapTest, CompareAndSetSemantics) {
  VidMap map;
  Vid v = map.AllocateVid();
  map.Set(v, Tid{1, 1});
  EXPECT_FALSE(map.CompareAndSet(v, Tid{9, 9}, Tid{2, 2}));  // wrong expect
  EXPECT_EQ(map.Get(v), (Tid{1, 1}));
  EXPECT_TRUE(map.CompareAndSet(v, Tid{1, 1}, Tid{2, 2}));
  EXPECT_EQ(map.Get(v), (Tid{2, 2}));
  // CAS from empty.
  Vid w = map.AllocateVid();
  EXPECT_TRUE(map.CompareAndSet(w, Tid{}, Tid{3, 3}));
  // CAS back to empty (abort undo of an insert).
  EXPECT_TRUE(map.CompareAndSet(w, Tid{3, 3}, Tid{}));
  EXPECT_FALSE(map.Get(w).valid());
}

TEST(VidMapTest, ConcurrentAllocationsAreUnique) {
  VidMap map;
  std::vector<std::vector<Vid>> got(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5000; ++i) got[t].push_back(map.AllocateVid());
    });
  }
  for (auto& th : threads) th.join();
  std::set<Vid> all;
  for (auto& v : got) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 20000u);
  EXPECT_EQ(map.bound(), 20000u);
}

TEST(VidMapTest, ConcurrentCasOnlyOneWinnerPerRound) {
  VidMap map;
  Vid v = map.AllocateVid();
  map.Set(v, Tid{0, 0});
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 1; t <= 4; ++t) {
    threads.emplace_back([&, t] {
      // All contenders try to swing the same expected entry.
      if (map.CompareAndSet(v, Tid{0, 0},
                            Tid{static_cast<PageNumber>(t), 0})) {
        wins++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), 1);
}

// ---------------------------------------------------------------------------
// VidMapV.
// ---------------------------------------------------------------------------

TEST(VidMapVTest, PushFrontBuildsNewestFirst) {
  VidMapV map;
  Vid v = map.AllocateVid();
  EXPECT_TRUE(map.PushFront(v, Tid{}, Tid{1, 0}));
  EXPECT_TRUE(map.PushFront(v, Tid{1, 0}, Tid{2, 0}));
  EXPECT_TRUE(map.PushFront(v, Tid{2, 0}, Tid{3, 0}));
  auto vec = map.Get(v);
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_EQ(vec[0], (Tid{3, 0}));
  EXPECT_EQ(vec[2], (Tid{1, 0}));
  EXPECT_EQ(map.Entrypoint(v), (Tid{3, 0}));
}

TEST(VidMapVTest, PushFrontRejectsStaleExpectation) {
  VidMapV map;
  Vid v = map.AllocateVid();
  ASSERT_TRUE(map.PushFront(v, Tid{}, Tid{1, 0}));
  EXPECT_FALSE(map.PushFront(v, Tid{}, Tid{2, 0}));  // front moved
  EXPECT_EQ(map.Get(v).size(), 1u);
}

TEST(VidMapVTest, PopFrontIfUndo) {
  VidMapV map;
  Vid v = map.AllocateVid();
  ASSERT_TRUE(map.PushFront(v, Tid{}, Tid{1, 0}));
  ASSERT_TRUE(map.PushFront(v, Tid{1, 0}, Tid{2, 0}));
  EXPECT_FALSE(map.PopFrontIf(v, Tid{9, 9}));  // wrong tid: no-op
  EXPECT_TRUE(map.PopFrontIf(v, Tid{2, 0}));
  EXPECT_EQ(map.Entrypoint(v), (Tid{1, 0}));
}

TEST(VidMapVTest, TrimmingPushKeepsOnlyTheReplacedFront) {
  obs::Counter* trimmed = obs::MetricsRegistry::Default().GetCounter(
      "mvcc.vidmap.versions_trimmed");
  VidMapV map;
  Vid v = map.AllocateVid();
  Tid front{};
  for (int i = 1; i <= 4; ++i) {
    Tid t{static_cast<PageNumber>(i), 0};
    ASSERT_TRUE(map.PushFront(v, front, t));
    front = t;
  }
  int64_t before = trimmed->Value();
  // A trimming push over the committed front {4}: {5, 4}; 3, 2, 1 dropped.
  ASSERT_TRUE(map.PushFront(v, Tid{4, 0}, Tid{5, 0}, /*trim=*/true));
  EXPECT_EQ(map.Get(v), (std::vector<Tid>{Tid{5, 0}, Tid{4, 0}}));
  EXPECT_EQ(trimmed->Value() - before, 3);
  // A stale expectation fails and trims nothing.
  EXPECT_FALSE(map.PushFront(v, Tid{4, 0}, Tid{6, 0}, /*trim=*/true));
  EXPECT_EQ(map.Get(v).size(), 2u);
  // Trimming the first version of an item, or a two-entry vector down to
  // two entries, drops nothing.
  Vid w = map.AllocateVid();
  ASSERT_TRUE(map.PushFront(w, Tid{}, Tid{7, 0}, /*trim=*/true));
  ASSERT_TRUE(map.PushFront(w, Tid{7, 0}, Tid{8, 0}, /*trim=*/true));
  EXPECT_EQ(map.Get(w), (std::vector<Tid>{Tid{8, 0}, Tid{7, 0}}));
  EXPECT_EQ(trimmed->Value() - before, 3);
  // Undo of a trimming push leaves the replaced front alone.
  EXPECT_TRUE(map.PopFrontIf(v, Tid{5, 0}));
  EXPECT_EQ(map.Get(v), (std::vector<Tid>{Tid{4, 0}}));
}

// ---------------------------------------------------------------------------
// AppendRegion.
// ---------------------------------------------------------------------------

class AppendRegionTest : public ::testing::Test {
 protected:
  AppendRegionTest()
      : device_(256ull << 20), disk_(&device_), pool_(&disk_, 64),
        region_(1, &pool_, nullptr) {
    EXPECT_TRUE(disk_.CreateRelation(1).ok());
  }

  std::string MakeTuple(size_t payload) {
    TupleHeader h;
    h.xmin = 2;
    h.vid = 1;
    std::string encoded;
    EncodeTuple(h, Slice(std::string(payload, 'p')), &encoded);
    return encoded;
  }

  MemDevice device_;
  DiskManager disk_;
  BufferPool pool_;
  AppendRegion region_;
  VirtualClock clk_;
};

TEST_F(AppendRegionTest, CoLocatesSequentialAppends) {
  std::string tuple = MakeTuple(100);
  std::set<PageNumber> pages;
  for (int i = 0; i < 20; ++i) {
    auto tid = region_.Append(Slice(tuple), 2, &clk_);
    ASSERT_TRUE(tid.ok());
    pages.insert(tid->page);
  }
  EXPECT_EQ(pages.size(), 1u);  // all on the one open page
  EXPECT_EQ(region_.stats().versions_appended, 20u);
}

TEST_F(AppendRegionTest, RollsToNewPageWhenFull) {
  std::string tuple = MakeTuple(2000);
  std::set<PageNumber> pages;
  for (int i = 0; i < 12; ++i) {  // ~4 tuples of 2 KB per 8 KB page
    auto tid = region_.Append(Slice(tuple), 2, &clk_);
    ASSERT_TRUE(tid.ok());
    pages.insert(tid->page);
  }
  EXPECT_GE(pages.size(), 3u);
  EXPECT_GE(region_.stats().pages_sealed, 2u);
}

TEST_F(AppendRegionTest, RecyclesFreedPages) {
  std::string tuple = MakeTuple(3000);
  // Fill and seal a couple of pages.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(region_.Append(Slice(tuple), 2, &clk_).ok());
  }
  region_.SealOpenPage();
  region_.AddFreePage(0);
  uint64_t recycled_before = region_.stats().pages_recycled;
  auto tid = region_.Append(Slice(tuple), 2, &clk_);
  ASSERT_TRUE(tid.ok());
  EXPECT_EQ(tid->page, 0u);  // reused page 0
  EXPECT_EQ(region_.stats().pages_recycled, recycled_before + 1);
}

TEST_F(AppendRegionTest, FreePageIsListedOnce) {
  std::string tuple = MakeTuple(3000);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(region_.Append(Slice(tuple), 2, &clk_).ok());
  }
  region_.SealOpenPage();
  region_.AddFreePage(0);
  region_.AddFreePage(0);
  EXPECT_EQ(region_.free_pages(), (std::vector<PageNumber>{0}));
  // Page 0 is opened once; the next open page is a different one.
  auto first = region_.Append(Slice(tuple), 2, &clk_);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->page, 0u);
  region_.SealOpenPage();
  auto second = region_.Append(Slice(tuple), 2, &clk_);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->page, 0u);
}

TEST_F(AppendRegionTest, TakesAppendsNamesTheOpenAndTheFreePages) {
  std::string tuple = MakeTuple(3000);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(region_.Append(Slice(tuple), 2, &clk_).ok());
  }
  PageNumber open = region_.open_page().page;
  ASSERT_NE(open, 0u);
  EXPECT_TRUE(region_.TakesAppends(open));
  EXPECT_FALSE(region_.TakesAppends(0));  // sealed
  region_.SealOpenPage();
  EXPECT_FALSE(region_.TakesAppends(open));
  region_.AddFreePage(0);
  EXPECT_TRUE(region_.TakesAppends(0));  // listed free
  auto tid = region_.Append(Slice(tuple), 2, &clk_);
  ASSERT_TRUE(tid.ok());
  EXPECT_EQ(tid->page, 0u);
  EXPECT_TRUE(region_.TakesAppends(0));  // open again
  region_.SealOpenPage();
  EXPECT_FALSE(region_.TakesAppends(0));
}

TEST_F(AppendRegionTest, SealedPagesAreEvictionEligibleOpenIsNot) {
  std::string tuple = MakeTuple(100);
  ASSERT_TRUE(region_.Append(Slice(tuple), 2, &clk_).ok());
  PageId open = region_.open_page();
  ASSERT_TRUE(open.valid());
  // Blow the pool: the sticky open page must survive.
  EXPECT_TRUE(disk_.CreateRelation(2).ok());
  for (int i = 0; i < 200; ++i) {
    auto g = pool_.NewPage(2, &clk_);
    ASSERT_TRUE(g.ok());
  }
  uint64_t reads_before = device_.stats().read_ops;
  auto g = pool_.FetchPage(open, &clk_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(device_.stats().read_ops, reads_before);  // still resident
}

TEST_F(AppendRegionTest, OversizedTupleRejected) {
  std::string tuple = MakeTuple(kPageSize);
  auto tid = region_.Append(Slice(tuple), 2, &clk_);
  EXPECT_FALSE(tid.ok());
}

}  // namespace
}  // namespace sias
