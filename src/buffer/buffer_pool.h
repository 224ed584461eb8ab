// Buffer pool: fixed set of 8 KB frames with clock-sweep eviction.
//
// SIAS-specific feature (paper: "simplified buffer management"): frames can
// be marked *sticky*. A sticky frame holds a SIAS append-region page that is
// still being filled; it is exempt from eviction until the flush-threshold
// policy (t1 background-writer pass or t2 checkpoint) releases it. Because
// SIAS pages are immutable once flushed, a page is written to the device at
// most once per fill — the buffer manager never writes the same SIAS heap
// page twice.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/latch.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vclock.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace sias {

class BufferPool;

/// Why a page got written to the device. Bgwriter and checkpoint writes are
/// paced background I/O; eviction and explicit flushes pay foreground time.
enum class FlushSource : int {
  kEviction = 0,
  kBackgroundWriter = 1,
  kCheckpoint = 2,
  kExplicit = 3,
};

/// RAII pin + latch over one buffered page. Movable, not copyable.
/// Obtain via BufferPool::FetchPage / NewPage.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }

  /// Raw page bytes. Hold the appropriate latch mode. A pinned frame is
  /// never evicted, so the pointer is stable while the pin lasts, and its
  /// validity ends with it (frames recycle, optimistic fetches revalidate,
  /// GC slot kills are epoch-deferred): sias-epoch-escape
  /// forbids storing it into fields/globals or returning it onward — keep
  /// the PageGuard itself instead, it is the ownership handle.
  SIAS_EPOCH_PROTECTED uint8_t* data();
  SIAS_EPOCH_PROTECTED const uint8_t* data() const;
  SIAS_EPOCH_PROTECTED SlottedPage page() { return SlottedPage(data()); }

  /// Marks the frame dirty and stamps the page LSN (WAL-before-data).
  void MarkDirty(Lsn lsn = kInvalidLsn);

  /// Latch management. A guard starts unlatched; callers latch around
  /// critical sections. Lock ordering: always page latch before VidMap slot.
  void LatchShared();
  void LatchExclusive();
  void Unlatch();

  /// Drops pin + latch early (before destruction).
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, size_t frame, PageId id)
      : pool_(pool), frame_(frame), id_(id) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId id_{};
  int latch_mode_ = 0;  // 0 none, 1 shared, 2 exclusive
};

/// Thread-safe buffer pool over a DiskManager.
class BufferPool {
 public:
  /// `wal_flush` is invoked with a page's LSN before that page is written to
  /// the device, enforcing write-ahead logging. May be empty.
  using WalFlushHook = std::function<Status(Lsn, VirtualClock*)>;

  /// Invoked with a page's id and stabilized image right before the page is
  /// written to the device; appends a full-page-image WAL record and returns
  /// its LSN (or kInvalidLsn to skip, e.g. while recovery replays the log).
  /// The pool then extends the WAL-before-data flush to cover that record,
  /// so a torn in-place page write always has a durable image to recover
  /// from. May be empty.
  using FpiHook = std::function<Result<Lsn>(PageId, const uint8_t*,
                                            VirtualClock*)>;

  BufferPool(DiskManager* disk, size_t num_frames,
             WalFlushHook wal_flush = {});

  /// Installs the full-page-image hook (engine setup, before concurrent
  /// use).
  void SetFpiHook(FpiHook hook) { fpi_log_ = std::move(hook); }
  ~BufferPool();

  /// Fetches an existing page, reading it from the device on a miss:
  /// PinIfResident, else StartFetch + FinishFetch (the device read happens
  /// outside the pool mutex).
  Result<PageGuard> FetchPage(PageId id, VirtualClock* clk);

  /// Pins `id` if it is resident, without the pool mutex, and counts the
  /// hit: the hit path of every fetch. Returns an invalid guard on a miss
  /// or when a race with eviction was lost; the caller then goes through
  /// StartFetch, which takes the mutex.
  PageGuard PinIfResident(PageId id);

  /// The pin-free hit of the SIAS version walk: the bytes of `id` if it is
  /// resident, else nullptr (absent, or a race with eviction was lost).
  /// Takes no pin and makes no atomic read-modify-write: it validates the
  /// frame's stamp and tag around one load of the frame's buffer pointer.
  /// The caller must hold an epoch (EpochGuard), which keeps the buffer
  /// from being reused until it exits even if the frame is evicted
  /// meanwhile; the bytes may then be a stale copy of the page, so the
  /// caller reads them through the atomic slot accessors, as it would a
  /// pinned page. Counts a hit.
  SIAS_EPOCH_PROTECTED const uint8_t* PeekResident(PageId id);

  /// Test-only schedule control: when set, both sides of the stamp
  /// protocol call the hook with the frame index inside their window: a
  /// resident hit between the stamp load and the pin (PinIfResident) or
  /// between the tag check and the buffer-pointer load (PeekResident), and
  /// an eviction between its pin/dirty checks and its stamp bump (under
  /// mu_). Pass nullptr to disarm. Costs one relaxed atomic load per hit
  /// and per eviction candidate when disarmed.
  SIAS_DEAD_API_OK("buffer_test races hits and evictions in their windows");
  static void SetPinPauseHookForTest(void (*hook)(size_t frame));

  /// One in-flight asynchronous page fetch. Either the page was resident
  /// (`resident`, guard pinned) or a device read is in flight into a
  /// private victim frame that no other thread can see yet. Obtain via
  /// StartFetch; consume with FinishFetch or AbandonFetch exactly once.
  struct AsyncFetch {
    bool valid = false;
    bool resident = false;
    PageGuard guard;     ///< pinned guard when resident
    PageId id{};
    size_t frame = 0;    ///< private victim frame index when !resident
    IoHandle io{};       ///< in-flight device read when !resident
    uint64_t start_seq = 0;  ///< pool write-back sequence when read began
  };

  /// Begins fetching `id` under the pool mutex, for a caller whose
  /// PinIfResident failed. Under the mutex the resident probe is exact: a
  /// page that is resident after all (a race with eviction or a page-table
  /// shift was lost) comes back as a resident AsyncFetch.
  /// A miss claims a victim frame under the mutex, then submits the device
  /// read outside it and returns with the I/O in flight. Submit charges the
  /// device channel immediately (arrival-time backfill), so N StartFetch
  /// calls from one terminal overlap on the device — this is the
  /// resumable-traversal building block.
  Result<AsyncFetch> StartFetch(PageId id, VirtualClock* clk);

  /// Completes a StartFetch: waits the read (advancing `clk` to the
  /// completion instant), retries transient errors by RESUBMITTING through
  /// the device (fresh channel reservation per attempt), verifies the
  /// checksum, and installs the frame — unless a racing fetch installed the
  /// same page meanwhile, in which case the private frame is abandoned and
  /// the winner's frame is pinned instead. If the page was written back
  /// while the read was in flight (a racing fetch installed, dirtied and
  /// evicted it), the bytes read may predate the device copy: they are
  /// dropped and the page is fetched again.
  Result<PageGuard> FinishFetch(AsyncFetch* f, VirtualClock* clk);

  /// Discards an unfinished StartFetch (cancels the in-flight read; the
  /// private frame returns to the victim pool).
  void AbandonFetch(AsyncFetch* f);

  /// Allocates a brand new page at the end of `relation` and returns it
  /// initialized and dirty.
  Result<PageGuard> NewPage(RelationId relation, VirtualClock* clk,
                            uint32_t page_flags = 0);

  /// Installs `image` (one full page) as the in-memory state of `id`
  /// without reading the device — recovery's torn-page restore. Extends the
  /// relation if the page was never durably allocated, skips the copy when
  /// a resident frame already carries a newer LSN (un-logged GC
  /// re-initializations must not be regressed), and leaves the frame dirty
  /// so the next flush rewrites the (possibly torn) durable copy. Only
  /// called from single-threaded recovery.
  Status RestorePage(PageId id, const uint8_t* image, VirtualClock* clk);

  /// Writes one dirty page out (no-op if clean or absent).
  Status FlushPage(PageId id, VirtualClock* clk,
                   FlushSource source = FlushSource::kExplicit);

  /// Writes all dirty pages (checkpoint path).
  Status FlushAll(VirtualClock* clk,
                  FlushSource source = FlushSource::kCheckpoint);

  /// Marks/unmarks a page sticky (exempt from eviction). The page must be
  /// resident. Used for SIAS append-region pages being filled.
  Status SetSticky(PageId id, bool sticky);

  /// Resident dirty pages (snapshot; for the flush policies). `referenced`
  /// reports whether the page was touched since the previous sweep; when
  /// `clear_referenced` is set, the bit is consumed so the next call
  /// reports fresh activity (the background writer's LRU test).
  struct DirtyPageInfo {
    PageId id;
    bool referenced;
    bool sticky;  ///< open (still-filling) SIAS append page
  };
  std::vector<DirtyPageInfo> DirtyPages(bool clear_referenced = false);

  DiskManager* disk() { return disk_; }

 private:
  friend class PageGuard;

  /// Frame tag value meaning "no page installed" (never a real PageId).
  static constexpr uint64_t kNoTag = ~0ull;
  static constexpr size_t kNoFrame = ~size_t{0};

  /// Cache-line aligned, with every field a hit touches (stamp, tag,
  /// pins, referenced, data) in the first line: a hit reads one line, and
  /// pinning a hot frame does not invalidate its neighbours' lines. A
  /// pin-free hit (PeekResident) writes nothing to it once `referenced` is
  /// set.
  struct alignas(64) Frame {
    /// Identity validation for mutex-free hits (seq_cst on both sides, with
    /// `tag` and `pins` — the reader/evictor exclusion is Dekker-style):
    /// even = a page is stably installed, odd = the frame is transitioning
    /// (being evicted / refilled). Monotone, so a reader comparing the
    /// stamp before and after its pin can never be fooled by reuse (no
    /// ABA). Eviction bumps it odd *then* re-checks pins; a hit pins
    /// *then* re-reads the stamp — at most one side proceeds. A pin-free
    /// hit (PeekResident) does not hold eviction off: it re-reads the stamp
    /// after loading `data`, which Unpublish swaps only while it is odd.
    std::atomic<uint64_t> stamp{0};
    /// The frame's only identity: the packed PageId of the installed page,
    /// kNoTag when none. Written under mu_ while the stamp is odd
    /// (PublishFrame, Unpublish).
    std::atomic<uint64_t> tag{kNoTag};
    std::atomic<int> pins{0};
    /// Clock-sweep reference bit; also set by mutex-free hits, hence
    /// atomic (relaxed — it is a heuristic, not a correctness bit).
    std::atomic<bool> referenced{false};
    /// dirty/lsn are set by PageGuard::MarkDirty under the page latch (not
    /// the pool mutex) and read by the flush paths under mu_: atomics keep
    /// the two sides race-free without widening any lock.
    std::atomic<bool> dirty{false};
    // sticky is guarded by the pool's mu_; Frame is a nested type, so the
    // analysis cannot name the owning pool's capability here — the rank
    // checker and TSan cover it.
    bool sticky = false;
    std::atomic<Lsn> lsn{kInvalidLsn};
    /// The page bytes (owned). Unpublish swaps in a fresh buffer while the
    /// stamp is odd and parks the old one, so a pin-free reader that loaded
    /// the pointer before the swap keeps reading the page it validated.
    std::atomic<uint8_t*> data{nullptr};
    PageLatch latch;

    /// The buffer, for a pin holder, a holder of mu_ or the owner of a
    /// private frame: the pointer changes only under mu_ with no pins.
    uint8_t* buf() const { return data.load(std::memory_order_acquire); }
  };

  /// A buffer swapped out of an unpublished frame, with the global epoch
  /// read after the swap: a pin-free reader can hold it only while an
  /// epoch at or below `epoch` is active.
  struct ParkedBuffer {
    uint64_t epoch;
    uint8_t* data;
  };
  /// Parked buffers past which the pool advances the global epoch itself
  /// when the oldest is still in reach of a reader.
  static constexpr size_t kParkedAdvance = 16;
  /// Parked buffers above which reusable ones are freed rather than kept.
  /// Readers keep entering epochs, so under load a few buffers past
  /// kParkedAdvance are always in reach of one: freeing at 16 made about
  /// one eviction in eleven allocate a buffer and free another on
  /// perfbench ycsb_update.
  static constexpr size_t kParkedKeep = 4 * kParkedAdvance;

  // Returns frame index or error if pool exhausted.
  Result<size_t> FindVictim(VirtualClock* clk) SIAS_REQUIRES(mu_);
  /// Takes the page latch in shared mode to stabilize the image while
  /// checksumming/writing. If the latch is exclusively held (an in-flight
  /// writer) and `busy` is non-null, sets *busy and returns OK without
  /// writing — the caller retries outside mu_. Eviction victims are
  /// unpinned and therefore never latched (busy == nullptr path).
  Status WriteFrame(Frame& f, VirtualClock* clk, FlushSource source,
                    bool* busy = nullptr) SIAS_REQUIRES(mu_);
  void Unpin(size_t frame);
  /// Ends one in-flight read of `id` begun at write-back sequence
  /// `start_seq`; true when the page was written back since, so the read
  /// may be stale.
  bool EndPendingRead(PageId id, uint64_t start_seq) SIAS_REQUIRES(mu_);

  static uint64_t PackTag(PageId id) {
    return (static_cast<uint64_t>(id.relation) << 32) | id.page;
  }
  static PageId UnpackTag(uint64_t tag) {
    return PageId{static_cast<RelationId>(tag >> 32),
                  static_cast<PageNumber>(tag)};
  }
  size_t Home(uint64_t tag) const {
    return PageIdHash{}(UnpackTag(tag)) & index_mask_;
  }
  /// Frame installed under `tag`, or kNoFrame. Exact under mu_; without
  /// it, a probe that races a backward shift may miss.
  size_t Lookup(uint64_t tag) const;
  /// The one resident-pin routine: Lookup, then pin under the stamp/tag
  /// protocol. Returns the pinned frame, or kNoFrame when `id` is absent
  /// or the race was lost (never under mu_, where no frame transitions).
  size_t PinResident(PageId id);
  /// Installs page `id` in transitioning frame `idx` (stamp odd): fills the
  /// frame state, tags it, indexes it and re-evens the stamp.
  void PublishFrame(size_t idx, PageId id, Lsn lsn, bool dirty)
      SIAS_REQUIRES(mu_);
  /// Removes transitioning frame `idx` from the index (backward-shift
  /// deletion: the rest of its cluster moves back, no tombstones), clears
  /// its tag and gives it a fresh buffer, parking the old one.
  void Unpublish(size_t idx) SIAS_REQUIRES(mu_);
  /// A buffer no reader can still hold: the oldest parked one once
  /// MinActive() is past its epoch, else a new allocation.
  uint8_t* TakeFreshBuffer() SIAS_REQUIRES(mu_);

  DiskManager* disk_;
  WalFlushHook wal_flush_;
  FpiHook fpi_log_;

  mutable Mutex mu_{LatchRank::kBufferPool};
  std::vector<Frame> frames_;
  /// The page table: open-addressed, linear-probed tag -> frame index + 1
  /// (0 = empty), power-of-two size >= 4x frames. Written under mu_;
  /// probed by mutex-free hits too.
  std::vector<std::atomic<uint32_t>> index_;
  size_t index_mask_ = 0;
  size_t clock_hand_ SIAS_GUARDED_BY(mu_) = 0;
  /// Device reads in flight per page (StartFetch misses not yet finished or
  /// abandoned), with the sequence number of the page's latest write-back
  /// while any of them was in flight. Only misses and write-backs touch it.
  struct PendingRead {
    uint32_t count = 0;
    uint64_t written_back = 0;
  };
  std::unordered_map<PageId, PendingRead> pending_reads_ SIAS_GUARDED_BY(mu_);
  uint64_t writeback_seq_ SIAS_GUARDED_BY(mu_) = 0;
  /// Swapped-out buffers, oldest first (epochs non-decreasing: parked
  /// under mu_).
  std::deque<ParkedBuffer> parked_ SIAS_GUARDED_BY(mu_);
  /// A MinActive() read earlier: no reader holds a buffer parked below it.
  uint64_t reusable_below_ SIAS_GUARDED_BY(mu_) = 0;
  size_t parked_peak_ SIAS_GUARDED_BY(mu_) = 0;
  /// The pool's only hit/miss/eviction/write-back tallies (buffer.*).
  obs::Counter* m_hits_;
  obs::Counter* m_misses_;
  obs::Counter* m_evictions_;
  obs::Counter* m_writebacks_;
  obs::Gauge* m_parked_;
  obs::Gauge* m_parked_peak_;
};

}  // namespace sias
