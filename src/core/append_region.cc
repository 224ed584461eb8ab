#include "core/append_region.h"

#include "common/logging.h"
#include "fault/crash_point.h"

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
    PageNumber page = free_pages_.front();
    free_pages_.pop_front();
    free_set_.erase(page);
    SIAS_ASSIGN_OR_RETURN(guard, heap_.Reinit(page, clk));
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
    SIAS_ASSIGN_OR_RETURN(uint16_t slot,
                          heap_.Insert(open_page_, tuple, xid, clk));
    if (slot != SlottedPage::kInvalidSlot) {
      stats_.versions_appended++;
      return Tid{open_page_, slot};
    }
    SIAS_RETURN_NOT_OK(OpenNewPageLocked(clk));  // retry on the fresh page
  }
  return Status::Internal("tuple too large for an append page");
}

void AppendRegion::AddFreePage(PageNumber page) {
  // Recycle-after-epoch-drain invariant: GC hands a page to the free list
  // only once its slots are dead, and it kills a published slot only from
  // an epoch-deferred callback, i.e. after every reader that could still
  // hold a stale pointer into the page has exited its epoch
  // (src/mvcc/epoch.h). New appends may therefore overwrite the page's
  // bytes without racing any latch-free reader. A page already listed is
  // ignored: a second open would re-init it over the first one's appends.
  // The open page is never handed back: GC skips pages that take appends.
  MutexLock g(&mu_);
  SIAS_CHECK(page != open_page_);
  if (free_set_.insert(page).second) free_pages_.push_back(page);
}

bool AppendRegion::TakesAppends(PageNumber page) const {
  MutexLock g(&mu_);
  return page == open_page_ || free_set_.count(page) != 0;
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
