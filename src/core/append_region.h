// Per-relation append region (the paper's LbSM in tuple granularity).
//
// Newly created tuple versions are appended to the relation's currently
// open page, which sits *sticky* in the buffer pool while it fills. Once
// full it is sealed (eviction-eligible, still dirty); a fresh page is
// opened. When the page actually reaches the device is decided by the
// flush-threshold policy (paper §5.2): t1 = background-writer pass,
// t2 = checkpoint piggyback. Pages freed by SIAS garbage collection are
// recycled before new pages are allocated.
#pragma once

#include <deque>
#include <unordered_set>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/analysis_annotations.h"
#include "common/latch.h"
#include "common/result.h"
#include "common/types.h"
#include "mvcc/heap_pages.h"
#include "txn/transaction.h"

namespace sias {

struct AppendRegionStats {
  uint64_t versions_appended = 0;
  uint64_t pages_opened = 0;
  uint64_t pages_sealed = 0;
  uint64_t pages_recycled = 0;
};

/// Thread-safe tuple-version appender for one relation.
class AppendRegion {
 public:
  AppendRegion(RelationId relation, BufferPool* pool, WalWriter* wal)
      : relation_(relation), pool_(pool), heap_(pool, relation, wal) {}

  /// Appends an encoded tuple version; returns its TID. Logs a
  /// kHeapInsert WAL record when WAL is attached.
  Result<Tid> Append(Slice tuple, Xid xid, VirtualClock* clk);

  /// Hands a page with no live slot back for reuse. The page must not be
  /// the open one.
  void AddFreePage(PageNumber page);

  /// Whether appends may land on `page`: it is open or listed free.
  bool TakesAppends(PageNumber page) const;

  /// Currently open (filling) page, if any.
  SIAS_DEAD_API_OK("core_test and engine_test find the page appends fill");
  PageId open_page() const;

  /// Seals the open page (used before clean shutdown).
  void SealOpenPage();

  /// The reclaimed pages the next appends may reopen, in reuse order.
  SIAS_DEAD_API_OK("core_test and engine_test inspect the free list");
  std::vector<PageNumber> free_pages() const;

  AppendRegionStats stats() const;

 private:
  Status OpenNewPageLocked(VirtualClock* clk) SIAS_REQUIRES(mu_);

  RelationId relation_;
  BufferPool* pool_;
  HeapPages heap_;

  /// Rank kAppendRegion: held across the whole append (page fetch + latch +
  /// WAL), so it sits below kPage in the order.
  mutable Mutex mu_{LatchRank::kAppendRegion};
  PageNumber open_page_ SIAS_GUARDED_BY(mu_) = kInvalidPageNumber;
  std::deque<PageNumber> free_pages_ SIAS_GUARDED_BY(mu_);
  /// The pages in free_pages_, for O(1) membership tests.
  std::unordered_set<PageNumber> free_set_ SIAS_GUARDED_BY(mu_);
  AppendRegionStats stats_ SIAS_GUARDED_BY(mu_);
};

}  // namespace sias
