// SiasTable — the paper's contribution: Snapshot Isolation Append Storage,
// in both published variants.
//
//  * kSiasChains: versions form a singly-linked list through the on-tuple
//    predecessor pointer *ptr; the VidMap holds only the entrypoint
//    (this text's SIAS-Chains).
//  * kSiasV: the VidMap entry holds the vector of live version TIDs, newest
//    first (the EDBT 2014 "SIAS-V in Action" demo variant); reads never
//    follow the predecessor pointer. It is still recorded, so that recovery
//    can order one transaction's versions of an item (mvcc/heap_pages.h).
//
// In both variants:
//  * every modification is executed as an append (paper §1);
//  * creating a successor implicitly invalidates the predecessor — the old
//    version's page is NEVER dirtied (no in-place invalidation);
//  * recently inserted tuple versions are co-located on the open append
//    page;
//  * first-updater-wins is enforced through transaction locks
//    (Algorithm 3) and entrypoint re-validation;
//  * deletes append a tombstone version (§4.2.2).
#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/analysis_annotations.h"
#include "core/append_region.h"
#include "core/vid_map.h"
#include "core/vid_map_v.h"
#include "mvcc/heap_pages.h"
#include "mvcc/mvcc_table.h"
#include "mvcc/tuple.h"

namespace sias {

/// Pseudo-xid used by garbage collection to lock items against writers.
inline constexpr Xid kGcXid = ~0ull;

/// Append-storage multi-version table (SIAS-Chains or SIAS-V).
class SiasTable : public MvccTable {
 public:
  SiasTable(RelationId relation, TableEnv env, VersionScheme scheme);
  /// Drains the global epoch queue: deferred slot kills / vector frees
  /// capture `this`, the buffer pool and the WAL, so they must run while
  /// all are alive. Requires no thread to be inside an epoch.
  ~SiasTable() override;

  VersionScheme scheme() const override { return scheme_; }
  RelationId relation() const override { return relation_; }

  Result<Vid> Insert(Transaction* txn, Slice row,
                     Tid* tid_out = nullptr) override;
  Status Update(Transaction* txn, Vid vid, Slice row,
                Tid* new_tid = nullptr) override;
  Status Delete(Transaction* txn, Vid vid) override;
  /// Restores the entrypoint the write replaced: Chains swing it back from
  /// `new_tid` to `expected_tid`, SIAS-V pops `new_tid` off the vector.
  void UndoWrite(const TxnWrite& write) override;
  using MvccTable::Read;
  Result<bool> Read(Transaction* txn, Vid vid, std::string* row,
                    bool* gone) override;
  /// Pipelined batch read: one ReadTask per VID, the same walker Read()
  /// drives alone. A task that needs a cold page SUBMITS the read
  /// (BufferPool::StartFetch) and suspends; the driver keeps up to
  /// `io_depth` device reads in flight across tasks (depth 0 counts as 1),
  /// so a batch of snapshot reads overlaps its page misses on the flash
  /// channels instead of serializing them. Above depth 1, SIAS-V tasks also
  /// prefetch the next version's page before suspending (in-walk
  /// lookahead). Depth 1 keeps one read in flight: the virtual time of a
  /// sequential Read() loop.
  Status ReadMulti(Transaction* txn, const std::vector<Vid>& vids,
                   size_t io_depth,
                   std::vector<std::optional<std::string>>* rows) override;
  Status ScanWithTid(Transaction* txn,
                     const VersionScanCallback& cb) override;
  Vid vid_bound() const override;
  Status GarbageCollect(Xid horizon, VirtualClock* clk) override;
  /// Rebuilds the VidMap from the committed versions in the heap.
  Status Rebuild() override;

  /// The "traditional" full-relation scan of §4.2.1 (reads every tuple
  /// version and checks each candidate against the chain) — kept as the
  /// comparison path for the scan-strategy experiment (ABL3).
  Status FullRelationScan(Transaction* txn, const ScanCallback& cb);

  /// Fraction of heap pages that are reclaimable/allocated (space metric).
  AppendRegionStats append_stats() const { return region_.stats(); }

  /// Direct access for tests/benches.
  VidMap& vid_map() { return map_; }
  VidMapV& vid_map_v() { return map_v_; }
  AppendRegion& region() { return region_; }

  /// The stored versions of `vid`, newest first, as WalkVersions finds
  /// them (tests / invariant checks).
  Result<std::vector<Tid>> ChainOf(Vid vid, VirtualClock* clk);

  /// Test-only schedule control: when set, the hook is invoked on the read
  /// path *after* the entrypoint / version vector has been loaded but
  /// *before* any version is dereferenced — the window the epoch protocol
  /// must protect against concurrent vacuum reclamation. Pass nullptr to
  /// disarm. Costs one relaxed atomic load per probe when disarmed.
  SIAS_DEAD_API_OK("epoch_visibility_test pauses a reader mid-walk");
  static void SetReadPauseHookForTest(void (*hook)(Vid));

  /// Test-only schedule control: when set, GarbageCollect invokes the hook
  /// as it reaches each page, before deciding whether to skip it, with no
  /// latch or row lock held. Pass nullptr to disarm.
  SIAS_DEAD_API_OK("engine_test reclaims as a GC pass reaches a page");
  static void SetGcPageHookForTest(void (*hook)(PageNumber));

 private:
  HeapPages heap() const {
    return HeapPages(env_.pool, relation_, env_.wal);
  }
  Tid Entrypoint(Vid vid) const;

  /// The snapshot-read walker, for both schemes: one resumable read of one
  /// item (sias_table.cc). Read, the scans and ReadMulti all drive it.
  class ReadTask;

  /// Resolves the version of `vid` visible to txn by driving one ReadTask
  /// to completion. Returns whether a live row is visible, its payload
  /// copied into `*row`. `*tid`, when given, receives the visible version
  /// (a tombstone included; invalid when none), and `*gone`, when given,
  /// whether no current or future snapshot can see the item (MvccTable::
  /// Read).
  Result<bool> ReadOne(Transaction* txn, Vid vid, std::string* row, Tid* tid,
                       bool* gone);

  /// Entry validation for Update/Delete under the row lock
  /// (Algorithm 3 lines 3-6). Returns the base version reference.
  Result<VersionRef> ValidateForWrite(Transaction* txn, Vid vid);

  /// Appends a version, logs it in the transaction's write log and installs
  /// it as the new entrypoint over `base` (ValidateForWrite's result).
  /// SIAS-V drops the vector's tail below `base` when no snapshot can reach
  /// it (VidMapV::PushFront's `trim`).
  Result<Tid> AppendAndInstall(Transaction* txn, Vid vid,
                               const TupleHeader& header, Slice payload,
                               const VersionRef& base);

  /// Visits the stored versions of `vid` newest first (latched Fetch) until
  /// `visit` returns false: SIAS-V's live vector entries, or the Chains walk
  /// from the entrypoint, which stops at the dangling tail GC leaves below
  /// an anchor (a dead slot, another item's slot, a newer "predecessor").
  Status WalkVersions(Vid vid, VirtualClock* clk,
                      const std::function<bool(const VersionRef&)>& visit);

  /// GC plan for one item: its live versions, newest first, cut at the
  /// horizon anchor; empty when the item is wholly dead (even the anchor is
  /// a tombstone older than the horizon). For SIAS-V, `bounds`
  /// (TransactionManager::ActiveSnapshotBounds) additionally enables
  /// mid-vector reclamation: committed versions between the newest and the
  /// anchor that no active snapshot can resolve as its visible version are
  /// dropped from the list (range tracking), and so is every committed
  /// version shadowed by a kept one of the same transaction. Chains keep
  /// the plain anchor cut — dropping a mid-chain version would require
  /// rewriting the predecessor pointer of an older, immutable version.
  Status LiveVersions(Vid vid, Xid horizon,
                      const std::vector<std::pair<Xid, Xid>>& bounds,
                      VirtualClock* clk, std::vector<VersionRef>* live);

  RelationId relation_;
  TableEnv env_;
  VersionScheme scheme_;

  VidMap map_;      ///< used when scheme_ == kSiasChains
  VidMapV map_v_;   ///< used when scheme_ == kSiasV
  AppendRegion region_;

  /// A leaf: nothing is acquired while it is held.
  mutable Mutex gc_mu_{LatchRank::kStats};
  /// Pages whose slot kills are queued behind the epoch horizon. Skipped
  /// by GC page selection (their dead slots are already unpublished —
  /// re-examining would double-reclaim) and recycled into the append region
  /// only by the deferred callback itself.
  std::unordered_set<PageNumber> gc_pending_ SIAS_GUARDED_BY(gc_mu_);
};

}  // namespace sias
