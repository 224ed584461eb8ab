// Unit tests for the buffer pool: fetch/new, pinning, eviction, dirty
// write-back, sticky (append-region) frames and WAL-before-data hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/random.h"
#include "device/mem_device.h"
#include "mvcc/epoch.h"
#include "storage/disk_manager.h"
#include "tests/test_env.h"

namespace sias {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  static constexpr size_t kFrames = 16;

  BufferPoolTest()
      : device_(256ull << 20),
        disk_(&device_),
        pool_(&disk_, kFrames) {
    EXPECT_TRUE(disk_.CreateRelation(1).ok());
  }

  /// Frames of the pool SqueezeToOneVictim takes (the pool's minimum).
  static constexpr size_t kSqueezeFrames = 8;

  /// Writes page A ("page A") and seven "page B" pages through `pool`,
  /// pins seven of them in `fillers`, and leaves A resident, clean and
  /// unpinned (the pool's only victim) and B (`*b`) on the device only.
  void SqueezeToOneVictim(BufferPool* pool, PageId* a, PageId* b,
                          std::vector<PageGuard>* fillers) {
    std::vector<PageId> ids;
    for (size_t i = 0; i < kSqueezeFrames + 1; ++i) {
      auto g = pool->NewPage(1, &clk_);
      ASSERT_TRUE(g.ok());
      ids.push_back(g->id());
      g->LatchExclusive();
      g->page().InsertTuple(Slice(i == 0 ? "page A" : "page B"));
      g->MarkDirty();
      g->Unlatch();
    }
    ASSERT_TRUE(pool->FlushAll(&clk_).ok());
    *a = ids[0];
    *b = ids[1];
    for (size_t i = 2; i < ids.size(); ++i) {
      auto g = pool->FetchPage(ids[i], &clk_);
      ASSERT_TRUE(g.ok());
      fillers->push_back(std::move(*g));
    }
    ASSERT_TRUE(pool->FetchPage(*a, &clk_).ok());
  }

  MemDevice device_;
  DiskManager disk_;
  BufferPool pool_;
  VirtualClock clk_;
};

TEST_F(BufferPoolTest, NewPageIsInitialized) {
  auto g = pool_.NewPage(1, &clk_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->id().relation, 1u);
  EXPECT_EQ(g->id().page, 0u);
  SlottedPage sp = g->page();
  EXPECT_EQ(sp.header()->relation, 1u);
  EXPECT_EQ(sp.slot_count(), 0u);
}

TEST_F(BufferPoolTest, FetchHitDoesNotTouchDevice) {
  auto g = pool_.NewPage(1, &clk_);
  ASSERT_TRUE(g.ok());
  PageId id = g->id();
  g->Release();
  uint64_t reads_before = device_.stats().read_ops;
  CounterDelta hits("buffer.hits");
  auto g2 = pool_.FetchPage(id, &clk_);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(device_.stats().read_ops, reads_before);
  EXPECT_EQ(hits(), 1);
}

// State for the pin-window hook below (a plain function pointer).
BufferPool* g_window_pool = nullptr;
PageId g_window_other{};
int g_window_calls = 0;

/// Runs inside PinResident's window, after the hit read the frame's stamp
/// and before it pins: fetches another page into the pool's only unpinned
/// frame, so the frame the hit is about to pin now holds that page.
void ReuseFrameInsidePinWindow(size_t) {
  BufferPool::SetPinPauseHookForTest(nullptr);  // one shot
  g_window_calls++;
  VirtualClock clk;
  auto g = g_window_pool->FetchPage(g_window_other, &clk);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page().GetTuple(0).ToString(), "page B");
}

TEST_F(BufferPoolTest, PinRefusesAFrameReusedBetweenStampLoadAndPin) {
  BufferPool pool(&disk_, kSqueezeFrames);
  PageId a, b;
  std::vector<PageGuard> fillers;
  ASSERT_NO_FATAL_FAILURE(SqueezeToOneVictim(&pool, &a, &b, &fillers));

  g_window_pool = &pool;
  g_window_other = b;
  g_window_calls = 0;
  CounterDelta misses("buffer.misses");
  BufferPool::SetPinPauseHookForTest(&ReuseFrameInsidePinWindow);
  auto g = pool.FetchPage(a, &clk_);
  BufferPool::SetPinPauseHookForTest(nullptr);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g_window_calls, 1);
  // The stamp moved while the hit was in its window, so its pin was
  // refused and the page read again, rather than handing out page B's
  // frame as page A.
  EXPECT_EQ(g->page().GetTuple(0).ToString(), "page A");
  EXPECT_EQ(misses(), 2);  // b inside the window, then a again
}

/// Runs inside FindVictim's window, after its pin and dirty checks passed
/// and before it makes the stamp odd: a writer pins the victim without the
/// mutex, changes the page, marks it dirty and lets go again.
void ChangeVictimInsideEvictionWindow(size_t) {
  BufferPool::SetPinPauseHookForTest(nullptr);  // one shot
  g_window_calls++;
  PageGuard g = g_window_pool->PinIfResident(g_window_other);
  ASSERT_TRUE(g.valid());
  EXPECT_NE(g.page().InsertTuple(Slice("late change")),
            SlottedPage::kInvalidSlot);
  g.MarkDirty();
}

TEST_F(BufferPoolTest, EvictionKeepsAChangeMadeInsideItsWindow) {
  // Seven pinned fillers leave page A's frame the only victim. A hit pins
  // A, changes it and unpins between the evictor's checks and its stamp
  // bump; the evictor must see the change and write A back before it
  // reuses the frame, not drop it.
  BufferPool pool(&disk_, kSqueezeFrames);
  PageId a, b;
  std::vector<PageGuard> fillers;
  ASSERT_NO_FATAL_FAILURE(SqueezeToOneVictim(&pool, &a, &b, &fillers));

  g_window_pool = &pool;
  g_window_other = a;
  g_window_calls = 0;
  BufferPool::SetPinPauseHookForTest(&ChangeVictimInsideEvictionWindow);
  auto gb = pool.FetchPage(b, &clk_);  // evicts A
  BufferPool::SetPinPauseHookForTest(nullptr);
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(g_window_calls, 1);
  gb->Release();
  auto ga = pool.FetchPage(a, &clk_);  // evicts B, reads A back
  ASSERT_TRUE(ga.ok());
  SlottedPage sp = ga->page();
  ASSERT_EQ(sp.slot_count(), 2u) << "the change made in the window was lost";
  EXPECT_EQ(sp.GetTuple(1).ToString(), "late change");
}

TEST_F(BufferPoolTest, PeekRefusesAFrameRefilledBetweenTagCheckAndLoad) {
  // The same squeeze as above, on the pin-free hit: inside PeekResident's
  // window (tag checked, buffer pointer not loaded yet), page A's frame is
  // evicted and refilled with page B. The peek must come back empty, never
  // with B's bytes as A's.
  BufferPool pool(&disk_, kSqueezeFrames);
  PageId a, b;
  std::vector<PageGuard> fillers;
  ASSERT_NO_FATAL_FAILURE(SqueezeToOneVictim(&pool, &a, &b, &fillers));

  EpochGuard epoch;
  const uint8_t* before = pool.PeekResident(a);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(SlottedPage(const_cast<uint8_t*>(before)).GetTuple(0).ToString(),
            "page A");
  g_window_pool = &pool;
  g_window_other = b;
  g_window_calls = 0;
  BufferPool::SetPinPauseHookForTest(&ReuseFrameInsidePinWindow);
  const uint8_t* bytes = pool.PeekResident(a);
  BufferPool::SetPinPauseHookForTest(nullptr);
  EXPECT_EQ(g_window_calls, 1);
  EXPECT_EQ(bytes, nullptr) << "the peek returned the refilled frame's bytes";
  // The buffer the first peek returned is parked, not reused, while this
  // thread's epoch lasts: it still holds page A.
  EXPECT_EQ(SlottedPage(const_cast<uint8_t*>(before)).GetTuple(0).ToString(),
            "page A");
}

TEST_F(BufferPoolTest, ParkedBuffersStayBoundedAfterManyEvictions) {
  // Cycle four times the pool's size in pages through it with no reader
  // inside an epoch: each eviction parks its frame's buffer, and the pool
  // reuses parked buffers (advancing the epoch itself) instead of growing.
  constexpr size_t kPoolFrames = 32;
  constexpr int64_t kBound = 16;  // BufferPool::kParkedAdvance
  constexpr int64_t kKeep = 64;   // BufferPool::kParkedKeep
  BufferPool pool(&disk_, kPoolFrames);
  obs::Gauge* parked =
      obs::MetricsRegistry::Default().GetGauge("buffer.parked");
  std::vector<PageId> ids;
  for (size_t i = 0; i < 4 * kPoolFrames; ++i) {
    auto g = pool.NewPage(1, &clk_);
    ASSERT_TRUE(g.ok());
    ids.push_back(g->id());
  }
  ASSERT_TRUE(pool.FlushAll(&clk_).ok());
  CounterDelta evictions("buffer.evictions");
  for (int round = 0; round < 8; ++round) {
    for (PageId id : ids) {
      ASSERT_TRUE(pool.FetchPage(id, &clk_).ok());
      ASSERT_LE(parked->Value(), kBound);
    }
  }
  EXPECT_GT(evictions(), 800);

  // A reader inside an epoch holds every buffer parked meanwhile: the ring
  // grows past what the pool keeps, then shrinks back once the reader
  // leaves.
  {
    EpochGuard reader;
    for (PageId id : ids) ASSERT_TRUE(pool.FetchPage(id, &clk_).ok());
    EXPECT_GT(parked->Value(), kKeep);
  }
  for (PageId id : ids) ASSERT_TRUE(pool.FetchPage(id, &clk_).ok());
  EXPECT_LE(parked->Value(), kKeep);
}

TEST_F(BufferPoolTest, DataSurvivesEviction) {
  PageId first;
  {
    auto g = pool_.NewPage(1, &clk_);
    ASSERT_TRUE(g.ok());
    first = g->id();
    g->LatchExclusive();
    g->page().InsertTuple(Slice("persist me"));
    g->MarkDirty();
    g->Unlatch();
  }
  // Blow the pool with other pages to force eviction of `first`.
  CounterDelta evictions("buffer.evictions");
  for (size_t i = 0; i < kFrames * 3; ++i) {
    auto g = pool_.NewPage(1, &clk_);
    ASSERT_TRUE(g.ok());
  }
  auto g = pool_.FetchPage(first, &clk_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page().GetTuple(0).ToString(), "persist me");
  EXPECT_GT(evictions(), 0);
  // Nothing flushed explicitly: every device write was an eviction's.
  EXPECT_GT(device_.stats().write_ops, 0u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < kFrames; ++i) {
    auto g = pool_.NewPage(1, &clk_);
    ASSERT_TRUE(g.ok());
    guards.push_back(std::move(*g));
  }
  // All frames pinned: next allocation must fail, not evict.
  auto g = pool_.NewPage(1, &clk_);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfSpace);
  guards.clear();
  auto g2 = pool_.NewPage(1, &clk_);
  EXPECT_TRUE(g2.ok());
}

TEST_F(BufferPoolTest, StickyFramesSurviveEvictionPressure) {
  PageId sticky_id;
  {
    auto g = pool_.NewPage(1, &clk_);
    ASSERT_TRUE(g.ok());
    sticky_id = g->id();
    g->LatchExclusive();
    g->page().InsertTuple(Slice("append-region"));
    g->MarkDirty();
    g->Unlatch();
  }
  ASSERT_TRUE(pool_.SetSticky(sticky_id, true).ok());
  uint64_t writes_before = device_.stats().write_ops;
  for (size_t i = 0; i < kFrames * 3; ++i) {
    auto g = pool_.NewPage(1, &clk_);
    ASSERT_TRUE(g.ok());
  }
  // The sticky page must still be resident (fetch = hit, no device read) and
  // must never have been written out by eviction.
  uint64_t reads_before = device_.stats().read_ops;
  auto g = pool_.FetchPage(sticky_id, &clk_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(device_.stats().read_ops, reads_before);
  EXPECT_EQ(g->page().GetTuple(0).ToString(), "append-region");
  (void)writes_before;
  ASSERT_TRUE(pool_.SetSticky(sticky_id, false).ok());
}

TEST_F(BufferPoolTest, FlushAllWritesEveryDirtyPage) {
  for (int i = 0; i < 5; ++i) {
    auto g = pool_.NewPage(1, &clk_);
    ASSERT_TRUE(g.ok());
    g->MarkDirty();
  }
  EXPECT_EQ(pool_.DirtyPages().size(), 5u);
  ASSERT_TRUE(pool_.FlushAll(&clk_).ok());
  EXPECT_EQ(pool_.DirtyPages().size(), 0u);
  EXPECT_EQ(device_.stats().write_ops, 5u);
}

TEST_F(BufferPoolTest, FlushPageIsIdempotent) {
  auto g = pool_.NewPage(1, &clk_);
  ASSERT_TRUE(g.ok());
  PageId id = g->id();
  g->MarkDirty();
  g->Release();
  ASSERT_TRUE(pool_.FlushPage(id, &clk_).ok());
  uint64_t writes = device_.stats().write_ops;
  ASSERT_TRUE(pool_.FlushPage(id, &clk_).ok());  // clean now: no-op
  EXPECT_EQ(device_.stats().write_ops, writes);
}

TEST_F(BufferPoolTest, WalHookRunsBeforeDataWrite) {
  Lsn flushed_to = 0;
  BufferPool pool(&disk_, kFrames, [&](Lsn lsn, VirtualClock*) {
    flushed_to = std::max(flushed_to, lsn);
    return Status::OK();
  });
  auto g = pool.NewPage(1, &clk_);
  ASSERT_TRUE(g.ok());
  g->MarkDirty(/*lsn=*/777);
  PageId id = g->id();
  g->Release();
  ASSERT_TRUE(pool.FlushPage(id, &clk_).ok());
  EXPECT_EQ(flushed_to, 777u);
}

TEST_F(BufferPoolTest, ChecksumWrittenOnFlushVerifiedOnFetch) {
  auto g = pool_.NewPage(1, &clk_);
  ASSERT_TRUE(g.ok());
  PageId id = g->id();
  g->page().InsertTuple(Slice("checked"));
  g->MarkDirty();
  g->Release();
  ASSERT_TRUE(pool_.FlushPage(id, &clk_).ok());
  // Corrupt the page on the device; a later fetch must detect it.
  for (size_t i = 0; i < kFrames * 3; ++i) {
    auto p = pool_.NewPage(1, &clk_);
    ASSERT_TRUE(p.ok());
  }
  uint64_t offset = *disk_.PageOffset(id.relation, id.page);
  std::vector<uint8_t> raw(kPageSize);
  ASSERT_TRUE(device_.Read(offset, kPageSize, raw.data(), nullptr).ok());
  raw[4000] ^= 1;
  ASSERT_TRUE(device_.Write(offset, kPageSize, raw.data(), nullptr).ok());
  auto fetched = pool_.FetchPage(id, &clk_);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kCorruption);
}

TEST_F(BufferPoolTest, FinishFetchNeverInstallsBytesOlderThanAWriteBack) {
  // Interleaving of two fetches of one page, driven from one thread: read A
  // misses and is in flight; fetch B misses too, installs the page, a writer
  // adds a tuple, and the page is written back and evicted. A's bytes now
  // predate the device copy and must not be installed.
  PageId id;
  {
    auto g = pool_.NewPage(1, &clk_);
    ASSERT_TRUE(g.ok());
    id = g->id();
    g->page().InsertTuple(Slice("first"));
    g->MarkDirty();
  }
  auto evict = [&] {
    ASSERT_TRUE(pool_.FlushAll(&clk_).ok());
    for (size_t i = 0; i < kFrames * 2; ++i) {
      ASSERT_TRUE(pool_.NewPage(1, &clk_).ok());
    }
  };
  evict();
  auto a = pool_.StartFetch(id, &clk_);
  ASSERT_TRUE(a.ok());
  ASSERT_FALSE(a->resident);
  {
    auto b = pool_.FetchPage(id, &clk_);
    ASSERT_TRUE(b.ok());
    b->LatchExclusive();
    b->page().InsertTuple(Slice("second"));
    b->MarkDirty();
    b->Unlatch();
  }
  evict();
  auto g = pool_.FinishFetch(&*a, &clk_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page().slot_count(), 2u);
}

TEST_F(BufferPoolTest, ConcurrentFetchesAreSafe) {
  PageId id;
  {
    auto g = pool_.NewPage(1, &clk_);
    ASSERT_TRUE(g.ok());
    id = g->id();
    g->LatchExclusive();
    g->page().InsertTuple(Slice("shared"));
    g->MarkDirty();
    g->Unlatch();
  }
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      VirtualClock clk;
      for (int i = 0; i < 500; ++i) {
        auto g = pool_.FetchPage(id, &clk);
        if (!g.ok()) continue;
        g->LatchShared();
        if (g->page().GetTuple(0).ToString() == "shared") ok_count++;
        g->Unlatch();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok_count.load(), 2000);
}

/// Allocates (never writes) pages 0.. of relation 1 until `want` of them
/// hash into home slots [home, home + width) of a `frames`-frame pool's page
/// table (power of two >= 4x frames), where `home` is page 0's slot.
std::vector<PageId> CollidingPages(DiskManager* disk, size_t frames,
                                   size_t width, size_t want) {
  size_t slots = 1;
  while (slots < frames * 4) slots <<= 1;
  const size_t home = PageIdHash{}(PageId{1, 0}) & (slots - 1);
  std::vector<PageId> out;
  for (PageNumber p = 0; out.size() < want; ++p) {
    auto allocated = disk->AllocatePage(1);
    EXPECT_TRUE(allocated.ok());
    if (!allocated.ok()) break;
    EXPECT_EQ(*allocated, p);
    PageId id{1, p};
    if (((PageIdHash{}(id) - home) & (slots - 1)) < width) out.push_back(id);
  }
  return out;
}

TEST_F(BufferPoolTest, CollidingResidentPagesAllHitWithoutTheMutex) {
  // 20 pages share one home slot: a cluster longer than the old 16-slot
  // probe window, past which a page was reachable only under the mutex.
  constexpr size_t kPoolFrames = 64;
  BufferPool pool(&disk_, kPoolFrames);
  std::vector<PageId> pages = CollidingPages(&disk_, kPoolFrames, 1, 20);
  ASSERT_EQ(pages.size(), 20u);
  auto expect_hits = [&](size_t stride) {
    CounterDelta misses("buffer.misses");
    for (size_t i = 0; i < pages.size(); i += stride) {
      SCOPED_TRACE(pages[i].ToString());
      EXPECT_TRUE(pool.PinIfResident(pages[i]).valid());
    }
    EXPECT_EQ(misses(), 0);
  };
  for (PageId id : pages) ASSERT_TRUE(pool.FetchPage(id, &clk_).ok());
  expect_hits(1);

  // Evict every other page of the cluster (the rest stay pinned) by cycling
  // other pages through the pool: each eviction shifts the cluster back,
  // and every pinned page must still be found without the mutex.
  std::vector<PageGuard> pinned;
  for (size_t i = 0; i < pages.size(); i += 2) {
    auto g = pool.FetchPage(pages[i], &clk_);
    ASSERT_TRUE(g.ok());
    pinned.push_back(std::move(*g));
  }
  for (PageNumber p = 1; p <= 4 * kPoolFrames; ++p) {
    const PageId other{1, p};
    if (std::find(pages.begin(), pages.end(), other) != pages.end()) continue;
    ASSERT_TRUE(pool.FetchPage(other, &clk_).ok());
  }
  for (size_t i = 1; i < pages.size(); i += 2) {
    auto f = pool.StartFetch(pages[i], &clk_);
    ASSERT_TRUE(f.ok());
    EXPECT_FALSE(f->resident) << pages[i].ToString() << " was not evicted";
    pool.AbandonFetch(&*f);
  }
  expect_hits(2);
}

TEST_F(BufferPoolTest, EvictionChurnOverCollidingPagesKeepsOneFramePerPage) {
  // 128 pages over 8 neighbouring home slots, through 64 frames: every
  // eviction shifts a shared cluster back while other threads probe it
  // without the mutex. Pages are never dirtied, so each miss is exactly
  // one cold fetch (no write-back makes a read stale and re-fetched).
  constexpr size_t kPoolFrames = 64;
  BufferPool pool(&disk_, kPoolFrames);
  std::vector<PageId> pages = CollidingPages(&disk_, kPoolFrames, 8, 128);
  ASSERT_EQ(pages.size(), 128u);
  for (PageId id : pages) {  // stamp each page with its own number
    std::vector<uint8_t> image(kPageSize);
    SlottedPage(image.data()).Init(id.relation, id.page);
    auto offset = disk_.PageOffset(id.relation, id.page);
    ASSERT_TRUE(offset.ok());
    ASSERT_TRUE(device_.Write(*offset, kPageSize, image.data(), nullptr).ok());
  }
  struct Holders {
    const uint8_t* data = nullptr;
    int count = 0;
  };
  std::mutex mu;  // guards holders
  std::vector<Holders> holders(pages.size());
  std::atomic<int64_t> cold{0};
  std::atomic<int> two_frames{0};
  std::atomic<int> wrong_page{0};
  CounterDelta misses("buffer.misses");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      VirtualClock clk;
      Random rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 2000; ++i) {
        size_t k = rng.Uniform(0, pages.size() - 1);
        // FetchPage's two steps, to count the cold fetches.
        Result<PageGuard> g = pool.PinIfResident(pages[k]);
        if (!g->valid()) {
          auto f = pool.StartFetch(pages[k], &clk);
          if (!f.ok()) continue;
          if (!f->resident) cold++;
          g = pool.FinishFetch(&*f, &clk);
        }
        if (!g.ok()) continue;
        if (g->page().header()->page_no != pages[k].page) wrong_page++;
        {
          std::lock_guard<std::mutex> lock(mu);
          Holders& h = holders[k];
          if (h.count++ == 0) {
            h.data = g->data();
          } else if (h.data != g->data()) {
            two_frames++;
          }
        }
        std::this_thread::yield();
        std::lock_guard<std::mutex> lock(mu);
        holders[k].count--;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(two_frames.load(), 0);
  EXPECT_EQ(wrong_page.load(), 0);
  EXPECT_GT(cold.load(), 1000);  // ~half the fetches miss: real churn
  EXPECT_EQ(misses(), cold.load());
}

}  // namespace
}  // namespace sias
