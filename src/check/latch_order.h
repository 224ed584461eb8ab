// Latch-order validator: the global latch rank table and, in debug /
// sanitizer builds (SIAS_LATCH_CHECK), a runtime checker that makes latch
// acquisition order a machine-checked invariant instead of tribal knowledge.
//
// Every capability in the engine (common/latch.h SpinLatch / Mutex /
// SharedMutex) carries a LatchRank. The discipline is:
//
//   a thread may only acquire a latch of HIGHER rank than every ranked
//   latch it already holds (same rank is allowed only where
//   RankAllowsSameRankNesting says so — today just kPage, whose multi-latch
//   sections are serialized by the exclusive B+-tree latch).
//
// Ranks ascend from coarse outer structures to inner leaves, following the
// paper's latch vocabulary (§4.1.3): tree < heap/index page < VidMap slot <
// clog/bucket-directory growth. The full table with the justification for
// each edge is in docs/CONCURRENCY.md.
//
// When SIAS_LATCH_CHECK is defined the wrappers record every acquisition
// into a per-thread held-set (with the acquiring call stack) and a global
// lock-order graph:
//  * acquiring a rank <= a held rank (or re-acquiring a held latch) aborts
//    immediately with BOTH stacks — the current acquire and the one that
//    took the held latch — so an inversion like the old
//    Table::RebuildIndexes heap-vs-btree bug is caught deterministically on
//    first occurrence, not probabilistically by TSan;
//  * unranked latches (rank kUnranked — ad-hoc mutexes in tests, benches,
//    workload drivers) are exempt from the rank rule but tracked in a
//    per-instance acquired-before graph; inserting an edge that closes a
//    cycle (the classic ABBA) aborts the same way.
//
// Try-acquisitions never block, hence cannot deadlock; they are recorded in
// the held-set but exempt from the order checks (this is what lets the
// buffer pool try-latch pages while holding its mutex even though kPage <
// kBufferPool).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/analysis_annotations.h"

namespace sias {

/// Global latch acquisition order (ascending). Values leave gaps so new
/// capabilities can be slotted in without renumbering; names are reported in
/// violation messages. Documented in docs/CONCURRENCY.md.
enum class LatchRank : uint8_t {
  kUnranked = 0,  ///< exempt from rank order; instance-graph checked

  kDbMaintenance = 10,  ///< Database::maintenance_mu_ (bgwriter/checkpoint)
  kDbCatalog = 15,      ///< Database::catalog_mu_ (table map)
  kTxnManager = 20,     ///< TransactionManager::mu_ (xid alloc, active set)
  kBTree = 25,          ///< BTree::tree_latch_ (whole-tree rw latch)
  kMvPbt = 26,          ///< MvPbt::latch_ (buffer partition + partition set)
  kAppendRegion = 30,   ///< AppendRegion::mu_ (open page, free list)
  kPage = 40,           ///< buffer Frame::latch (heap + index pages)
  kSiHeapMap = 45,      ///< SiHeap::map_mu_ (version locators)
  kSiHeapFsm = 50,      ///< SiHeap::fsm_mu_ (free-space map)
  kVidMapSlot = 55,     ///< RETIRED: VidMapV is RCU now (epoch-based, no
                        ///< per-slot latch); value kept for tests/history
  kBufferPool = 60,     ///< BufferPool::mu_ (frame table, clock hand)
  kWalFlush = 62,       ///< WalWriter::flush_mu_ (one log flusher at a time)
  kWal = 65,            ///< WalWriter::mu_ (log tail)
  kBucketDir = 70,      ///< BucketDirectory growth (VidMap/VidMapV/Clog)
  kLockManager = 75,    ///< LockManager::mu_ (row-lock table)
  kDisk = 80,           ///< DiskManager::mu_ (extent table)
  kIoQueue = 82,        ///< fault::FaultyDevice::io_mu_ (deferred async FIFO)
  kFaultyDevice = 83,   ///< fault::FaultyDevice::mu_ (volatile write cache)
  kIoCompletion = 84,   ///< StorageDevice::io_mu_ (async completion table)
  kDevice = 85,         ///< FlashSsd/Hdd::mu_ (FTL / head state)
  kDeviceCalendar = 90, ///< ChannelCalendar::mu_ (busy marks)
  kDeviceStore = 91,    ///< DataStore::mu_ (payload bytes)
  kEpochQueue = 93,     ///< EpochManager::queue_mu_ (deferred-free list)
  kStats = 95,          ///< per-component stats mutexes, TraceRecorder
  kMetricsRegistry = 98,  ///< obs registry map (a leaf while held)
  kSpanAggregator = 99,  ///< span aggregator (per-txn-type latency, exemplars)
};

namespace check {

/// Human-readable rank name for violation reports.
const char* LatchRankName(LatchRank rank);

/// True when holding a latch of `rank` may nest another latch of the SAME
/// rank (today only kPage; see file comment).
bool RankAllowsSameRankNesting(LatchRank rank);

// -- Runtime recording ------------------------------------------------------
// Called by the common/latch.h wrappers, only when SIAS_LATCH_CHECK is
// defined. A violation prints both involved stacks to stderr and aborts.

/// Order-checks (rank rule / re-entry / instance graph) and records a
/// blocking acquisition. Called BEFORE the actual lock so a would-be
/// deadlock aborts instead of hanging.
void OnAcquire(const void* latch, LatchRank rank);

/// Records a successful try-acquisition (no order check; see file comment).
void OnTryAcquire(const void* latch, LatchRank rank);

/// Removes the latch from the calling thread's held-set.
void OnRelease(const void* latch);

/// Whether the calling thread recorded `latch` as held.
bool IsHeld(const void* latch);

/// Aborts (with the current stack) unless the calling thread holds `latch`.
void AssertHeld(const void* latch);

/// Number of latches the calling thread currently holds (tests).
SIAS_DEAD_API_OK("latch_check_test checks the held set it reports");
size_t HeldCount();

// -- Epoch-aware rules ------------------------------------------------------
// The latch-free read path (src/mvcc/epoch.h) pins an epoch instead of
// taking latches. Epochs are not locks — they never block and cannot
// deadlock — but they have an ordering discipline of their own: an epoch
// must be entered *above* the storage layer. Entering one while holding a
// page / pool / region / WAL / device latch would (a) extend the epoch pin
// across arbitrary latch waits, delaying all deferred reclamation, and
// (b) invert the conceptual order, because deferred-free callbacks acquire
// exactly those storage latches when they finally run.

/// Records epoch entry for the calling thread (depth counted). Aborts if
/// the thread holds any blocking-acquired ranked latch of rank >= kPage.
void OnEpochEnter();

/// Records epoch exit for the calling thread.
void OnEpochExit();

/// Epoch nesting depth recorded for the calling thread (tests).
SIAS_DEAD_API_OK("latch_check_test checks the epoch nesting it reports");
size_t EpochDepth();

}  // namespace check
}  // namespace sias
