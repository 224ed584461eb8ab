// The uniform multi-version table interface implemented by the SI baseline
// (mvcc/si_heap.h) and by the paper's SIAS-Chains / SIAS-V schemes
// (core/sias_table.h). Benchmarks swap implementations behind this
// interface, making every experiment a controlled comparison.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "txn/transaction.h"
#include "txn/txn_manager.h"
#include "wal/wal.h"

namespace sias {

/// Shared plumbing handed to each table implementation.
struct TableEnv {
  BufferPool* pool = nullptr;
  TransactionManager* txns = nullptr;
  WalWriter* wal = nullptr;  ///< may be nullptr (unlogged table)
};

/// CPU cost model (virtual ns) so cached workloads stay CPU-bound.
inline constexpr VDuration kCpuVisibilityCheck = 50;
inline constexpr VDuration kCpuVidMapProbe = 40;
inline constexpr VDuration kCpuTupleCopy = 150;

/// A logical table of data items addressed by VID, storing multiple tuple
/// versions per item. All methods are thread-safe.
class MvccTable {
 public:
  /// Scan callback: (vid, row payload). Return false to stop early.
  using ScanCallback = std::function<bool(Vid, Slice)>;

  virtual ~MvccTable() = default;

  virtual VersionScheme scheme() const = 0;
  virtual RelationId relation() const = 0;

  /// Creates a new data item; returns its VID. `tid_out`, when non-null,
  /// receives the physical location of the created version (the SI index
  /// layer stores one entry per version).
  virtual Result<Vid> Insert(Transaction* txn, Slice row,
                             Tid* tid_out = nullptr) = 0;

  /// Replaces the item's visible version with a new one (first-updater-wins
  /// under write-write conflict: returns SerializationFailure).
  virtual Status Update(Transaction* txn, Vid vid, Slice row,
                        Tid* new_tid = nullptr) = 0;

  /// Deletes the item (SI: xmax stamp; SIAS: tombstone version).
  virtual Status Delete(Transaction* txn, Vid vid) = 0;

  /// Abort: takes back one logged write of this table (TxnWrite), called
  /// newest first while the transaction still holds its row locks.
  virtual void UndoWrite(const TxnWrite& write) = 0;

  /// Snapshot read: copies the payload of the version of `vid` visible to
  /// txn into `*row`, reusing its capacity, and returns true; returns false
  /// when no live row is visible (no version, or a tombstone). `gone`, when
  /// non-null, is set when no current or future snapshot can see the item:
  /// its newest version is a committed tombstone below
  /// TransactionManager::GcHorizon(), or it has no version left (an aborted
  /// insert, or GC removed it). SI leaves it false: its index entries
  /// address versions, not items.
  virtual Result<bool> Read(Transaction* txn, Vid vid, std::string* row,
                            bool* gone) = 0;

  /// Read() into a fresh string: the visible row, or nullopt if none.
  Result<std::optional<std::string>> Read(Transaction* txn, Vid vid) {
    std::optional<std::string> row{std::in_place};
    SIAS_ASSIGN_OR_RETURN(bool live, Read(txn, vid, &*row, nullptr));
    if (!live) row.reset();
    return row;
  }

  /// Batched read: resolves every VID in `vids` against txn's snapshot,
  /// writing one entry per input into `rows` (nullopt = no visible
  /// version). `io_depth` bounds how many page reads the implementation may
  /// keep in flight concurrently on the async device queue; schemes without
  /// a pipelined path fall back to a sequential Read() loop (this default),
  /// which is semantically identical but serializes device time.
  virtual Status ReadMulti(Transaction* txn, const std::vector<Vid>& vids,
                           size_t io_depth,
                           std::vector<std::optional<std::string>>* rows) {
    (void)io_depth;
    rows->clear();
    rows->reserve(vids.size());
    for (Vid v : vids) {
      auto r = Read(txn, v);
      if (!r.ok()) return r.status();
      rows->push_back(std::move(*r));
    }
    return Status::OK();
  }

  /// Reads the version at a physical location if it is visible to txn
  /// (the SI index path: index entries address tuple versions directly).
  /// Schemes that do not address versions individually return NotSupported.
  virtual Result<std::optional<std::string>> ReadAtTid(Transaction* txn,
                                                       Tid tid,
                                                       Vid* vid_out) {
    (void)txn;
    (void)tid;
    (void)vid_out;
    return Status::NotSupported("scheme does not address versions by TID");
  }

  /// Visits every data item visible in txn's snapshot, with the physical
  /// TID of its visible version (index rebuilds after recovery need it).
  using VersionScanCallback = std::function<bool(Vid, Tid, Slice)>;
  virtual Status ScanWithTid(Transaction* txn,
                             const VersionScanCallback& cb) = 0;

  /// ScanWithTid without the TID.
  Status Scan(Transaction* txn, const ScanCallback& cb) {
    return ScanWithTid(txn, [&cb](Vid vid, Tid, Slice row) {
      return cb(vid, row);
    });
  }

  /// One past the largest VID ever assigned.
  virtual Vid vid_bound() const = 0;

  /// Reclaims versions invisible to every snapshot at or after `horizon`.
  /// Outcomes are counted in the mvcc.gc.* registry counters.
  virtual Status GarbageCollect(Xid horizon, VirtualClock* clk) = 0;

  /// Recovery: rebuilds the in-memory version index from the heap once
  /// redo is done ("all information that is required for a reconstruction
  /// is stored on each tuple version", paper §6).
  virtual Status Rebuild() = 0;
};

}  // namespace sias
