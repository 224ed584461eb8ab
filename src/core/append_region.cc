#include "core/append_region.h"

#include "common/logging.h"
#include "fault/crash_point.h"
#include "fault/debug_ring.h"
#include "storage/page.h"

namespace sias {

Status AppendRegion::OpenNewPageLocked(VirtualClock* clk) {
  // Seal the previous page: it stays dirty in the pool but becomes
  // eviction-eligible; the flush policy decides when it hits the device.
  SIAS_CRASH_POINT("region.pre_seal");
  if (open_page_ != kInvalidPageNumber) {
    (void)pool_->SetSticky(PageId{relation_, open_page_}, false);
    stats_.pages_sealed++;
  }
  // The guard keeps the new open page pinned until it is marked sticky, so
  // a concurrent eviction cannot snatch the frame in between.
  PageGuard guard;
  if (!free_pages_.empty()) {
    // Recycle a GC-reclaimed page.
    PageNumber page = free_pages_.front();
    free_pages_.pop_front();
    auto r = pool_->FetchPage(PageId{relation_, page}, clk);
    if (!r.ok()) return r.status();
    guard = std::move(*r);
    guard.LatchExclusive();
    guard.page().Init(relation_, page, kPageFlagAppendRegion);
    // Un-logged re-initialization: stamp the fresh generation with the
    // current WAL position so a flushed-but-still-empty recycled page
    // outranks the previous generation's redo records (see the matching
    // stamp on the GC reclaim path).
    guard.MarkDirty(wal_ != nullptr ? wal_->current_lsn() : kInvalidLsn);
    fault::DebugRingLog("region_recycle", relation_, page,
                        wal_ != nullptr ? wal_->current_lsn() : 0);
    guard.Unlatch();
    open_page_ = page;
    stats_.pages_recycled++;
  } else {
    auto r = pool_->NewPage(relation_, clk, kPageFlagAppendRegion);
    if (!r.ok()) return r.status();
    guard = std::move(*r);
    open_page_ = guard.id().page;
  }
  stats_.pages_opened++;
  SIAS_RETURN_NOT_OK(pool_->SetSticky(PageId{relation_, open_page_}, true));
  // The fresh open page exists only in memory until a flush policy persists
  // it; a cut here loses the page but not the WAL records that fill it.
  SIAS_CRASH_POINT("region.post_open");
  return Status::OK();
}

Result<Tid> AppendRegion::Append(Slice tuple, Xid xid, VirtualClock* clk) {
  MutexLock g(&mu_);
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (open_page_ == kInvalidPageNumber) {
      SIAS_RETURN_NOT_OK(OpenNewPageLocked(clk));
    }
    auto r = pool_->FetchPage(PageId{relation_, open_page_}, clk);
    if (!r.ok()) return r.status();
    PageGuard guard = std::move(*r);
    guard.LatchExclusive();
    SlottedPage page = guard.page();
    uint16_t slot = page.InsertTuple(tuple);
    if (slot == SlottedPage::kInvalidSlot) {
      guard.Unlatch();
      SIAS_RETURN_NOT_OK(OpenNewPageLocked(clk));
      continue;  // retry on the fresh page
    }
    Tid tid{open_page_, slot};
    Lsn lsn = kInvalidLsn;
    if (wal_ != nullptr) {
      WalRecord rec;
      rec.type = WalRecordType::kHeapInsert;
      rec.xid = xid;
      rec.relation = relation_;
      rec.tid = tid;
      rec.body.assign(reinterpret_cast<const char*>(tuple.data()),
                      tuple.size());
      SIAS_ASSIGN_OR_RETURN(lsn, wal_->Append(rec));
    }
    guard.MarkDirty(lsn);
    guard.Unlatch();
    stats_.versions_appended++;
    return tid;
  }
  return Status::Internal("tuple too large for an append page");
}

void AppendRegion::AddFreePage(PageNumber page) {
  // Recycle-after-epoch-drain invariant: GC hands a reclaimed page to the
  // free list only from its epoch-deferred wipe callback, i.e. after every
  // reader that could still hold a stale pointer into the page has exited
  // its epoch (src/mvcc/epoch.h). New appends may therefore overwrite the
  // page's bytes without racing any latch-free reader.
  MutexLock g(&mu_);
  free_pages_.push_back(page);
}

PageId AppendRegion::open_page() const {
  MutexLock g(&mu_);
  return PageId{relation_, open_page_};
}

void AppendRegion::SealOpenPage() {
  MutexLock g(&mu_);
  if (open_page_ != kInvalidPageNumber) {
    (void)pool_->SetSticky(PageId{relation_, open_page_}, false);
    stats_.pages_sealed++;
    open_page_ = kInvalidPageNumber;
  }
}

std::vector<PageNumber> AppendRegion::free_pages() const {
  MutexLock g(&mu_);
  return {free_pages_.begin(), free_pages_.end()};
}

AppendRegionStats AppendRegion::stats() const {
  MutexLock g(&mu_);
  return stats_;
}

}  // namespace sias
