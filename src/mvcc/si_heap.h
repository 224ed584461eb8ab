// Classical Snapshot Isolation heap — the paper's PostgreSQL baseline.
//
// The defining property (paper §3, Figure 1): an update stamps the
// invalidation timestamp (xmax) on the OLD version *in place*, dirtying its
// page, and writes the new version on any page with enough free space
// ("arbitrary" placement via a rotating free-space cursor). Both behaviours
// are exactly what produces SI's scattered small writes on Flash.
//
// Version location: like a PostgreSQL index, SiHeap keeps one locator entry
// per *version*; a read fetches the candidates newest-first and applies
// tuple visibility on each — every check costs a page access, as it does in
// PostgreSQL.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/latch.h"
#include "mvcc/heap_pages.h"
#include "mvcc/mvcc_table.h"
#include "mvcc/tuple.h"
#include "txn/lock_manager.h"

namespace sias {

/// SI (xmin/xmax) multi-version heap table.
class SiHeap : public MvccTable {
 public:
  SiHeap(RelationId relation, TableEnv env);

  VersionScheme scheme() const override { return VersionScheme::kSi; }
  RelationId relation() const override { return relation_; }

  Result<Vid> Insert(Transaction* txn, Slice row,
                     Tid* tid_out = nullptr) override;
  Status Update(Transaction* txn, Vid vid, Slice row,
                Tid* new_tid = nullptr) override;
  Status Delete(Transaction* txn, Vid vid) override;
  /// Nothing to take back: the aborted xid's versions and xmax stamps are
  /// ignored by visibility once the clog says aborted.
  void UndoWrite(const TxnWrite&) override {}
  using MvccTable::Read;
  Result<bool> Read(Transaction* txn, Vid vid, std::string* row,
                    bool* gone) override;
  Result<std::optional<std::string>> ReadAtTid(Transaction* txn, Tid tid,
                                               Vid* vid_out) override;
  Status ScanWithTid(Transaction* txn,
                     const VersionScanCallback& cb) override;
  Vid vid_bound() const override;
  Status GarbageCollect(Xid horizon, VirtualClock* clk) override;
  /// Rebuilds the version locators and the free-space map from the heap.
  Status Rebuild() override;

 private:
  /// Places an encoded tuple on some page with room; returns its TID.
  Result<Tid> PlaceTuple(Slice tuple, Transaction* txn);

  /// Stamps txn's xid as xmax on the version at `tid` (the in-place
  /// invalidation).
  Status StampXmax(Transaction* txn, Tid tid);

  /// Validates the newest version for update/delete under the row lock and
  /// returns its TID. Implements first-updater-wins.
  Result<Tid> ValidateForWrite(Transaction* txn, Vid vid);

  HeapPages heap() const { return HeapPages(env_.pool, relation_, env_.wal); }

  RelationId relation_;
  TableEnv env_;

  /// Locator map; rank kSiHeapMap, above kPage, so nothing here may
  /// fetch/latch a page while holding it.
  mutable Mutex map_mu_{LatchRank::kSiHeapMap};
  /// Per-item versions, oldest..newest.
  std::unordered_map<Vid, std::vector<Tid>> versions_ SIAS_GUARDED_BY(map_mu_);
  Vid next_vid_ SIAS_GUARDED_BY(map_mu_) = 0;

  Mutex fsm_mu_{LatchRank::kSiHeapFsm};
  /// Approximate free bytes per page.
  std::vector<uint16_t> fsm_ SIAS_GUARDED_BY(fsm_mu_);
  size_t fsm_cursor_ SIAS_GUARDED_BY(fsm_mu_) = 0;
};

}  // namespace sias
