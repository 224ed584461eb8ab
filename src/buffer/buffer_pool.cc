#include "buffer/buffer_pool.h"

#include <cstdio>
#include <cstring>
#include <cstdlib>

#include <thread>

#include "common/logging.h"
#include "fault/crash_point.h"
#include "fault/debug_ring.h"
#include "fault/retry.h"
#include "mvcc/epoch.h"
#include "obs/span.h"

namespace sias {

namespace {
/// See BufferPool::SetPinPauseHookForTest.
std::atomic<void (*)(size_t)> g_pin_pause_hook{nullptr};
}  // namespace

void BufferPool::SetPinPauseHookForTest(void (*hook)(size_t frame)) {
  g_pin_pause_hook.store(hook, std::memory_order_seq_cst);
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    id_ = other.id_;
    latch_mode_ = other.latch_mode_;
    other.pool_ = nullptr;
    other.latch_mode_ = 0;
  }
  return *this;
}

uint8_t* PageGuard::data() {
  SIAS_CHECK(valid());
  return pool_->frames_[frame_].buf();
}

const uint8_t* PageGuard::data() const {
  SIAS_CHECK(valid());
  return pool_->frames_[frame_].buf();
}

void PageGuard::MarkDirty(Lsn lsn) {
  SIAS_CHECK(valid());
  BufferPool::Frame& f = pool_->frames_[frame_];
  f.dirty.store(true, std::memory_order_release);
  if (lsn != kInvalidLsn && lsn > f.lsn.load(std::memory_order_relaxed)) {
    f.lsn.store(lsn, std::memory_order_relaxed);
    reinterpret_cast<PageHeader*>(data())->lsn = lsn;
  }
}

void PageGuard::LatchShared() {
  SIAS_CHECK(valid() && latch_mode_ == 0);
  pool_->frames_[frame_].latch.LockShared();
  latch_mode_ = 1;
}

void PageGuard::LatchExclusive() {
  SIAS_CHECK(valid() && latch_mode_ == 0);
  pool_->frames_[frame_].latch.Lock();
  latch_mode_ = 2;
}

void PageGuard::Unlatch() {
  SIAS_CHECK(valid());
  if (latch_mode_ == 1) {
    pool_->frames_[frame_].latch.UnlockShared();
  } else if (latch_mode_ == 2) {
    pool_->frames_[frame_].latch.Unlock();
  }
  latch_mode_ = 0;
}

void PageGuard::Release() {
  if (pool_ == nullptr) return;
  Unlatch();
  pool_->Unpin(frame_);
  pool_ = nullptr;
}

BufferPool::BufferPool(DiskManager* disk, size_t num_frames,
                       WalFlushHook wal_flush)
    : disk_(disk), wal_flush_(std::move(wal_flush)), frames_(num_frames) {
  SIAS_CHECK(num_frames >= 8);
  for (auto& f : frames_) {
    f.data.store(new uint8_t[kPageSize](), std::memory_order_relaxed);
  }
  size_t cap = 1;
  while (cap < num_frames * 4) cap <<= 1;
  index_ = std::vector<std::atomic<uint32_t>>(cap);
  index_mask_ = cap - 1;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_hits_ = reg.GetCounter("buffer.hits");
  m_misses_ = reg.GetCounter("buffer.misses");
  m_evictions_ = reg.GetCounter("buffer.evictions");
  m_writebacks_ = reg.GetCounter("buffer.writebacks");
  m_parked_ = reg.GetGauge("buffer.parked");
  m_parked_peak_ = reg.GetGauge("buffer.parked_peak");
}

BufferPool::~BufferPool() {
  for (auto& f : frames_) delete[] f.buf();
  MutexLock lock(&mu_);
  for (const ParkedBuffer& p : parked_) delete[] p.data;
}

void BufferPool::Unpin(size_t frame) {
  frames_[frame].pins.fetch_sub(1, std::memory_order_release);
}

bool BufferPool::EndPendingRead(PageId id, uint64_t start_seq) {
  auto it = pending_reads_.find(id);
  SIAS_CHECK(it != pending_reads_.end());
  bool stale = it->second.written_back > start_seq;
  if (--it->second.count == 0) pending_reads_.erase(it);
  return stale;
}

size_t BufferPool::Lookup(uint64_t tag) const {
  // Bounded by the table size: a mutex-free probe racing shifts must end.
  for (size_t k = 0, i = Home(tag); k <= index_mask_;
       ++k, i = (i + 1) & index_mask_) {
    uint32_t e = index_[i].load(std::memory_order_seq_cst);
    if (e == 0) return kNoFrame;
    if (frames_[e - 1].tag.load(std::memory_order_seq_cst) == tag) return e - 1;
  }
  return kNoFrame;
}

size_t BufferPool::PinResident(PageId id) {
  const uint64_t tag = PackTag(id);
  size_t idx = Lookup(tag);
  if (idx == kNoFrame) return kNoFrame;
  Frame& f = frames_[idx];
  uint64_t s = f.stamp.load(std::memory_order_seq_cst);
  if ((s & 1) != 0 || f.tag.load(std::memory_order_seq_cst) != tag) {
    return kNoFrame;
  }
  if (auto* hook = g_pin_pause_hook.load(std::memory_order_relaxed)) {
    hook(idx);
  }
  // Pin, then re-validate: eviction bumps the stamp odd *before*
  // re-checking pins, so if the stamp is still s here, the evictor is
  // guaranteed to observe this pin and abort (Dekker; Frame comment).
  f.pins.fetch_add(1, std::memory_order_seq_cst);
  if (f.stamp.load(std::memory_order_seq_cst) != s) {
    Unpin(idx);
    return kNoFrame;
  }
  f.referenced.store(true, std::memory_order_relaxed);
  return idx;
}

const uint8_t* BufferPool::PeekResident(PageId id) {
  const uint64_t tag = PackTag(id);
  size_t idx = Lookup(tag);
  if (idx == kNoFrame) return nullptr;
  Frame& f = frames_[idx];
  uint64_t s = f.stamp.load(std::memory_order_seq_cst);
  if ((s & 1) != 0 || f.tag.load(std::memory_order_seq_cst) != tag) {
    return nullptr;
  }
  if (auto* hook = g_pin_pause_hook.load(std::memory_order_relaxed)) {
    hook(idx);
  }
  // Unpublish makes the stamp odd before it swaps the buffer, so an
  // unchanged stamp means the pointer was loaded before any swap: it is the
  // buffer that carried `id`, and the caller's epoch keeps it from reuse.
  const uint8_t* bytes = f.data.load(std::memory_order_seq_cst);
  if (f.stamp.load(std::memory_order_seq_cst) != s) return nullptr;
  if (!f.referenced.load(std::memory_order_relaxed)) {
    f.referenced.store(true, std::memory_order_relaxed);
  }
  m_hits_->Increment();
  return bytes;
}

void BufferPool::PublishFrame(size_t idx, PageId id, Lsn lsn, bool dirty) {
  Frame& f = frames_[idx];
  f.sticky = false;
  f.referenced.store(true, std::memory_order_relaxed);
  f.dirty.store(dirty, std::memory_order_relaxed);
  f.lsn.store(lsn, std::memory_order_relaxed);
  const uint64_t tag = PackTag(id);
  f.tag.store(tag, std::memory_order_seq_cst);
  size_t i = Home(tag);
  while (index_[i].load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & index_mask_;  // <= 25% load: an empty slot always exists
  }
  index_[i].store(static_cast<uint32_t>(idx + 1), std::memory_order_seq_cst);
  uint64_t s = f.stamp.fetch_add(1, std::memory_order_seq_cst);
  SIAS_CHECK((s & 1) == 1);  // frame must have been transitioning
}

void BufferPool::Unpublish(size_t idx) {
  Frame& f = frames_[idx];
  size_t hole = Home(f.tag.load(std::memory_order_relaxed));
  while (index_[hole].load(std::memory_order_relaxed) != idx + 1) {
    hole = (hole + 1) & index_mask_;
  }
  // Backward shift: an entry later in the cluster moves into the hole
  // unless its home lies cyclically in (hole, j], where the probe from its
  // home would no longer cross the hole.
  for (size_t j = (hole + 1) & index_mask_;; j = (j + 1) & index_mask_) {
    uint32_t e = index_[j].load(std::memory_order_relaxed);
    if (e == 0) break;
    size_t home = Home(frames_[e - 1].tag.load(std::memory_order_relaxed));
    if (((j - home) & index_mask_) >= ((j - hole) & index_mask_)) {
      index_[hole].store(e, std::memory_order_seq_cst);
      hole = j;
    }
  }
  index_[hole].store(0, std::memory_order_seq_cst);
  f.tag.store(kNoTag, std::memory_order_seq_cst);
  // Pin-free readers may still be reading the old buffer: park it, stamped
  // with an epoch read after the swap, and refill the frame elsewhere.
  uint8_t* old = f.data.exchange(TakeFreshBuffer(), std::memory_order_seq_cst);
  parked_.push_back(ParkedBuffer{EpochManager::Global().current(), old});
  m_parked_->Set(static_cast<int64_t>(parked_.size()));
  if (parked_.size() > parked_peak_) {
    parked_peak_ = parked_.size();
    m_parked_peak_->Set(static_cast<int64_t>(parked_peak_));
  }
}

uint8_t* BufferPool::TakeFreshBuffer() {
  EpochManager& epochs = EpochManager::Global();
  if (!parked_.empty() && parked_.front().epoch >= reusable_below_) {
    reusable_below_ = epochs.MinActive();
    // The epoch otherwise moves only on the maintenance cadence: once
    // enough buffers wait on it, move it here so they become reusable as
    // soon as the readers inside the current epoch leave.
    if (parked_.front().epoch >= reusable_below_ &&
        parked_.size() >= kParkedAdvance) {
      epochs.Advance();
      reusable_below_ = epochs.MinActive();
    }
  }
  if (parked_.empty() || parked_.front().epoch >= reusable_below_) {
    // Not zeroed: every user fills the whole page before publishing it.
    return new uint8_t[kPageSize];
  }
  uint8_t* fresh = parked_.front().data;
  parked_.pop_front();
  // A long epoch can leave far more parked buffers than the pool needs:
  // free the reusable surplus.
  while (parked_.size() >= kParkedKeep &&
         parked_.front().epoch < reusable_below_) {
    delete[] parked_.front().data;
    parked_.pop_front();
  }
  return fresh;
}

Status BufferPool::WriteFrame(Frame& f, VirtualClock* clk,
                              FlushSource source, bool* busy) {
  // Stabilize the page image: writers modify bytes under the exclusive page
  // latch, so checksumming/writing requires at least the shared latch.
  // Blocking here would invert the page-latch-then-pool-mutex order used by
  // page writers (rank kPage < kBufferPool — a deadlock, and the rank
  // checker would abort), so flush paths only ever *try* under mu_ and
  // retry outside it.
  if (!f.latch.TryLockShared()) {
    if (busy != nullptr) {
      *busy = true;
      return Status::OK();
    }
    // Eviction path: the frame is unpinned, so no latch holder can exist
    // (latches are only taken through pinned guards); the try above can only
    // fail transiently and never against a page writer. Spin — still
    // try-only, so the acquisition order stays deadlock-free.
    SpinBackoff backoff;
    while (!f.latch.TryLockShared()) backoff.Pause();
  }
  // WAL-before-data: the log must be durable up to the page's LSN. The
  // crash points bracket the two halves of that protocol — a cut between
  // them exercises "log durable, data page not".
  const PageId id = UnpackTag(f.tag.load(std::memory_order_relaxed));
  Lsn lsn = f.lsn.load(std::memory_order_relaxed);
  Status s = fault::CrashPoint("buffer.pre_wal_hook");
  // Torn-page protection: log the full image ahead of the in-place write
  // and widen the WAL flush to cover it. If the write below tears, redo
  // restores the page from this image instead of reading the device.
  if (s.ok() && fpi_log_) {
    auto fpi = fpi_log_(id, f.buf(), clk);
    if (!fpi.ok()) {
      s = fpi.status();
    } else if (*fpi != kInvalidLsn) {
      lsn = lsn == kInvalidLsn ? *fpi : std::max(lsn, *fpi);
    }
  }
  if (s.ok() && wal_flush_ && lsn != kInvalidLsn) {
    s = wal_flush_(lsn, clk);
  }
  if (s.ok()) s = fault::CrashPoint("buffer.pre_page_write");
  if (s.ok()) {
    SlottedPage(f.buf()).UpdateChecksum();
    // Maintenance flushes are paced background I/O (StorageDevice::Write);
    // eviction writes sit on the transaction path and pay foreground time.
    // The write goes through the async submit/complete path so transient
    // errors retry by resubmission — each attempt re-reserves the channel
    // calendar at the post-backoff instant.
    bool background = source == FlushSource::kBackgroundWriter ||
                      source == FlushSource::kCheckpoint;
    auto offset = disk_->PageOffset(id.relation, id.page);
    if (!offset.ok()) {
      s = offset.status();
    } else {
      IoRequest req;
      req.op = IoOp::kWrite;
      req.offset = *offset;
      req.len = kPageSize;
      req.data = f.buf();
      req.background = background;
      s = fault::SubmitAndRetry("page writeback", disk_->device(), req, clk);
    }
  }
  if (s.ok()) s = fault::CrashPoint("buffer.post_page_write");
  if (s.ok()) {
    fault::DebugRingLog("write_frame", id.relation, id.page,
                        SlottedPage(f.buf()).slot_count() |
                            (uint64_t(source) << 32),
                        f.lsn.load(std::memory_order_relaxed));
  }
  if (s.ok()) {
    f.dirty.store(false, std::memory_order_release);
    m_writebacks_->Increment();
    auto pending = pending_reads_.find(id);
    if (pending != pending_reads_.end()) {
      pending->second.written_back = ++writeback_seq_;
    }
  }
  f.latch.UnlockShared();
  return s;
}

Result<size_t> BufferPool::FindVictim(VirtualClock* clk) {
  // Clock sweep with clean preference: the first rounds only take clean
  // unreferenced frames (dirty pages are the flush policies' job — t1/t2
  // and checkpoints decide when they reach the device); if the sweep finds
  // no clean victim, it falls back to writing out a dirty one.
  for (int phase = 0; phase < 2; ++phase) {
    bool allow_dirty = phase == 1;
    for (size_t step = 0; step < 2 * frames_.size(); ++step) {
      Frame& f = frames_[clock_hand_];
      size_t idx = clock_hand_;
      clock_hand_ = (clock_hand_ + 1) % frames_.size();
      if (f.tag.load(std::memory_order_relaxed) == kNoTag) {
        // Never-installed (or already-evicted) frame. A pinned untagged
        // frame is privately claimed by an in-flight StartFetch whose read
        // is landing in it — not a victim. The installer expects a
        // transitioning frame, so make sure the stamp is odd.
        if (f.pins.load(std::memory_order_seq_cst) > 0) continue;
        if ((f.stamp.load(std::memory_order_seq_cst) & 1) == 0) {
          f.stamp.fetch_add(1, std::memory_order_seq_cst);
        }
        return idx;
      }
      if (f.pins.load(std::memory_order_acquire) > 0 || f.sticky) continue;
      if (f.referenced.load(std::memory_order_relaxed)) {
        f.referenced.store(false, std::memory_order_relaxed);
        continue;
      }
      if (!allow_dirty && f.dirty.load(std::memory_order_acquire)) continue;
      if (auto* hook = g_pin_pause_hook.load(std::memory_order_relaxed)) {
        hook(idx);
      }
      // Unpublish for lock-free readers: bump the stamp odd, then re-check
      // pins. An optimistic reader pins first and re-reads the stamp, so
      // under seq_cst at most one side proceeds (see Frame).
      f.stamp.fetch_add(1, std::memory_order_seq_cst);
      if (f.pins.load(std::memory_order_seq_cst) > 0) {
        f.stamp.fetch_add(1, std::memory_order_seq_cst);  // back to stable
        continue;
      }
      // Write a dirty victim back only now that no hit can pin it: a hit
      // pins without mu_, so one may have changed a clean frame since the
      // checks above, and its unpin published the dirty bit. Checked
      // earlier, that change would be dropped with the frame.
      if (f.dirty.load(std::memory_order_acquire)) {
        Status s = WriteFrame(f, clk, FlushSource::kEviction);
        if (!s.ok()) {
          f.stamp.fetch_add(1, std::memory_order_seq_cst);  // still resident
          return s;
        }
      }
      Unpublish(idx);
      m_evictions_->Increment();
      return idx;
    }
  }
  return Status::OutOfSpace("buffer pool exhausted (all frames pinned)");
}

Result<PageGuard> BufferPool::FetchPage(PageId id, VirtualClock* clk) {
  PageGuard hit = PinIfResident(id);
  if (hit.valid()) return hit;
  SIAS_ASSIGN_OR_RETURN(AsyncFetch f, StartFetch(id, clk));
  return FinishFetch(&f, clk);
}

PageGuard BufferPool::PinIfResident(PageId id) {
  size_t hit = PinResident(id);
  if (hit == kNoFrame) return PageGuard();
  m_hits_->Increment();
  return PageGuard(this, hit, id);
}

Result<BufferPool::AsyncFetch> BufferPool::StartFetch(PageId id,
                                                      VirtualClock* clk) {
  AsyncFetch out;
  out.id = id;
  out.valid = true;
  uint64_t offset = 0;
  size_t hit = kNoFrame;
  {
    MutexLock lock(&mu_);
    hit = PinResident(id);  // exact: no frame transitions under mu_
    if (hit == kNoFrame) {
      m_misses_->Increment();
      SIAS_ASSIGN_OR_RETURN(offset, disk_->PageOffset(id.relation, id.page));
      SIAS_ASSIGN_OR_RETURN(out.frame, FindVictim(clk));
      // The frame leaves FindVictim private: untagged, stamp odd, absent
      // from the index. The claim pin keeps FindVictim from handing it to a
      // second fetch while the device read below runs outside mu_; it
      // becomes the guard pin once FinishFetch installs the page.
      frames_[out.frame].pins.fetch_add(1, std::memory_order_acq_rel);
      pending_reads_[id].count++;
      out.start_seq = writeback_seq_;
    }
  }
  if (hit != kNoFrame) {
    m_hits_->Increment();
    out.resident = true;
    out.guard = PageGuard(this, hit, id);
    return out;
  }
  IoRequest req;
  req.op = IoOp::kRead;
  req.offset = offset;
  req.len = kPageSize;
  req.out = frames_[out.frame].buf();
  auto h = disk_->device()->Submit(req, clk != nullptr ? clk->now() : 0);
  if (!h.ok()) {
    MutexLock lock(&mu_);
    EndPendingRead(id, out.start_seq);
    Unpin(out.frame);  // frame returns to the victim pool (untagged)
    return h.status();
  }
  out.io = *h;
  return out;
}

Result<PageGuard> BufferPool::FinishFetch(AsyncFetch* fetch,
                                          VirtualClock* clk) {
  SIAS_CHECK(fetch->valid);
  fetch->valid = false;
  if (fetch->resident) return std::move(fetch->guard);
  const PageId id = fetch->id;
  Frame& f = frames_[fetch->frame];
  StorageDevice* dev = disk_->device();
  Status st;
  {
    // The async read's completion wait is the issuing transaction's io_wait
    // phase (the Submit in StartFetch costs no virtual time).
    obs::SpanScope io_span(obs::SpanPhase::kIoWait, "pool", "fetch_wait",
                           id.page);
    // Completion-driven retry: the first attempt's status comes from the
    // async completion; each retry RESUBMITS at the post-backoff instant so
    // the channel calendar is re-reserved (never completing "in the past").
    Status first = dev->Wait(fetch->io, clk);
    st = fault::RetryTransientAfterFailure(
        "page read", clk, std::move(first), [&]() -> Status {
          auto offset = disk_->PageOffset(id.relation, id.page);
          if (!offset.ok()) return offset.status();
          IoRequest req;
          req.op = IoOp::kRead;
          req.offset = *offset;
          req.len = kPageSize;
          req.out = f.buf();
          auto h = dev->Submit(req, clk != nullptr ? clk->now() : 0);
          if (!h.ok()) return h.status();
          return dev->Wait(*h, clk);
        });
  }
  SlottedPage sp(f.buf());
  if (st.ok() && !sp.VerifyChecksum()) {
    st = Status::Corruption("page checksum mismatch " + id.ToString());
  }
  {
    MutexLock lock(&mu_);
    const bool stale = EndPendingRead(id, fetch->start_seq);
    // A racing fetch may have installed the page while our read was in
    // flight: pin the winner; our private frame stays untagged/odd for the
    // next victim scan.
    const size_t winner = st.ok() ? PinResident(id) : kNoFrame;
    if (winner == kNoFrame && st.ok() && !stale) {
      // The claim pin taken in StartFetch becomes the guard pin (no extra
      // pin here); mutex-free hits cannot have pinned the frame meanwhile
      // — its tag was kNoTag until PublishFrame below.
      PublishFrame(fetch->frame, id, sp.header()->lsn, /*dirty=*/false);
      return PageGuard(this, fetch->frame, id);
    }
    Unpin(fetch->frame);
    if (winner != kNoFrame) return PageGuard(this, winner, id);
  }
  if (!st.ok()) return st;
  // A racing fetch installed, dirtied and wrote back the page, and it has
  // since been evicted: our bytes may predate the device copy. Read again.
  return FetchPage(id, clk);
}

void BufferPool::AbandonFetch(AsyncFetch* fetch) {
  if (!fetch->valid) return;
  fetch->valid = false;
  if (fetch->resident) {
    fetch->guard.Release();
    return;
  }
  // Cancel guarantees the read never executes after it returns (deferred
  // queues drop it; eager devices already finished writing into the still-
  // private frame), so the frame can be handed back to the victim pool.
  disk_->device()->Cancel(fetch->io, nullptr);
  MutexLock lock(&mu_);
  EndPendingRead(fetch->id, fetch->start_seq);
  Unpin(fetch->frame);
}

Result<PageGuard> BufferPool::NewPage(RelationId relation, VirtualClock* clk,
                                      uint32_t page_flags) {
  MutexLock lock(&mu_);
  SIAS_ASSIGN_OR_RETURN(PageNumber page_no, disk_->AllocatePage(relation));
  const PageId id{relation, page_no};
  size_t idx = Lookup(PackTag(id));
  if (idx != kNoFrame) {
    // The allocator handed out a page number that is still resident: redo
    // re-extends a relation over a warm pool after the control block rolled
    // the disk map back (a second Recover() on a live engine). Reuse that
    // frame — victimizing a fresh one would leave two frames tagged with
    // the same page, and the two copies diverge.
    Frame& old = frames_[idx];
    old.stamp.fetch_add(1, std::memory_order_seq_cst);  // transitioning
    // Only transient optimistic pins can exist here (recovery is
    // single-threaded; no guard outlives its caller): they re-validate the
    // stamp and unpin, so this drains promptly.
    SpinBackoff backoff;
    while (old.pins.load(std::memory_order_seq_cst) > 0) backoff.Pause();
    Unpublish(idx);
  } else {
    SIAS_ASSIGN_OR_RETURN(idx, FindVictim(clk));
  }
  SlottedPage(frames_[idx].buf()).Init(relation, page_no, page_flags);
  frames_[idx].pins.fetch_add(1, std::memory_order_acq_rel);
  PublishFrame(idx, id, kInvalidLsn, /*dirty=*/true);
  return PageGuard(this, idx, id);
}

Status BufferPool::RestorePage(PageId id, const uint8_t* image,
                               VirtualClock* clk) {
  auto count = disk_->PageCount(id.relation);
  if (!count.ok()) return count.status();
  while (*count <= id.page) {
    // The page's first-ever write was cut before the control block caught
    // up: re-extend the relation so the image has a durable home again.
    SIAS_RETURN_NOT_OK(disk_->AllocatePage(id.relation).status());
    count = disk_->PageCount(id.relation);
    if (!count.ok()) return count.status();
  }
  MutexLock lock(&mu_);
  const Lsn image_lsn = SlottedPage(const_cast<uint8_t*>(image)).header()->lsn;
  size_t idx = Lookup(PackTag(id));
  if (idx == kNoFrame) {
    SIAS_ASSIGN_OR_RETURN(idx, FindVictim(clk));
    std::memcpy(frames_[idx].buf(), image, kPageSize);
    PublishFrame(idx, id, image_lsn, /*dirty=*/true);
    return Status::OK();
  }
  Frame& f = frames_[idx];
  Lsn have = f.lsn.load(std::memory_order_relaxed);
  if (have != kInvalidLsn && have >= image_lsn) return Status::OK();
  std::memcpy(f.buf(), image, kPageSize);
  f.dirty.store(true, std::memory_order_relaxed);
  f.referenced.store(true, std::memory_order_relaxed);
  f.lsn.store(image_lsn, std::memory_order_relaxed);
  return Status::OK();
}

Status BufferPool::FlushPage(PageId id, VirtualClock* clk,
                             FlushSource source) {
  // An in-flight page writer (exclusive latch holder) makes the frame
  // transiently busy; retry outside mu_ — latches are held for microseconds.
  for (;;) {
    {
      MutexLock lock(&mu_);
      size_t idx = Lookup(PackTag(id));
      if (idx == kNoFrame) return Status::OK();
      Frame& f = frames_[idx];
      if (!f.dirty.load(std::memory_order_acquire)) return Status::OK();
      bool busy = false;
      Status s = WriteFrame(f, clk, source, &busy);
      if (!busy) return s;
    }
    std::this_thread::yield();
  }
}

Status BufferPool::FlushAll(VirtualClock* clk, FlushSource source) {
  for (const DirtyPageInfo& info : DirtyPages()) {
    SIAS_RETURN_NOT_OK(FlushPage(info.id, clk, source));
  }
  return Status::OK();
}

Status BufferPool::SetSticky(PageId id, bool sticky) {
  MutexLock lock(&mu_);
  size_t idx = Lookup(PackTag(id));
  if (idx == kNoFrame) return Status::NotFound("page not resident");
  frames_[idx].sticky = sticky;
  return Status::OK();
}

std::vector<BufferPool::DirtyPageInfo> BufferPool::DirtyPages(
    bool clear_referenced) {
  MutexLock lock(&mu_);
  std::vector<DirtyPageInfo> out;
  for (auto& f : frames_) {
    uint64_t tag = f.tag.load(std::memory_order_relaxed);
    if (tag == kNoTag || !f.dirty.load(std::memory_order_acquire)) continue;
    out.push_back(DirtyPageInfo{UnpackTag(tag),
                                f.referenced.load(std::memory_order_relaxed),
                                f.sticky});
    if (clear_referenced) f.referenced.store(false, std::memory_order_relaxed);
  }
  return out;
}

}  // namespace sias
