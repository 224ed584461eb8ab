// Transaction handle: snapshot, xid (assigned at the first write), held
// locks, the write log and the terminal's virtual clock.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/vclock.h"
#include "txn/snapshot.h"

namespace sias {

class MvccTable;

enum class TxnState {
  kActive,
  kCommitted,
  kAborted,
};

/// One heap write of a transaction. Abort hands it back to `table`
/// (MvccTable::UndoWrite), newest first; Commit only asks whether the log is
/// empty, since a transaction that wrote nothing has nothing to make durable.
struct TxnWrite {
  MvccTable* table;
  Vid vid;
  Tid new_tid;       ///< version the write created (invalid: SI delete)
  Tid expected_tid;  ///< entrypoint it replaced (invalid: insert)
};

/// A running transaction. Created by TransactionManager::Begin and finished
/// by Commit/Abort. Not thread-safe: owned by one terminal.
class Transaction {
 public:
  Transaction(Snapshot snapshot, VirtualClock* clock, uint32_t slot)
      : snapshot_(std::move(snapshot)), clock_(clock), slot_(slot) {}

  /// kInvalidXid until the first write (TransactionManager::AssignXid): a
  /// read-only transaction never takes one.
  Xid xid() const { return xid_; }
  const Snapshot& snapshot() const { return snapshot_; }
  TxnState state() const { return state_; }
  VirtualClock* clock() { return clock_; }

  /// Logs a heap write. Every scheme calls it at its first heap write of an
  /// Insert/Update/Delete, so a non-empty log means "has versions or xmax
  /// stamps that need a commit record". The reference stays valid until the
  /// next LogWrite.
  TxnWrite& LogWrite(MvccTable* table, Vid vid, Tid new_tid,
                     Tid expected_tid) {
    writes_.push_back({table, vid, new_tid, expected_tid});
    return writes_.back();
  }
  const std::vector<TxnWrite>& writes() const { return writes_; }

  /// Registers a row lock for release at end-of-transaction.
  void AddLock(RelationId relation, Vid vid) {
    locks_.push_back({relation, vid});
  }
  const std::vector<std::pair<RelationId, Vid>>& locks() const {
    return locks_;
  }

 private:
  friend class TransactionManager;

  Xid xid_ = kInvalidXid;
  Xid write_horizon_ = kInvalidXid;  ///< TransactionManager::WriteHorizon
  Snapshot snapshot_;
  VirtualClock* clock_;
  uint32_t slot_;  ///< TransactionManager registry slot
  TxnState state_ = TxnState::kActive;
  std::vector<TxnWrite> writes_;
  std::vector<std::pair<RelationId, Vid>> locks_;
};

}  // namespace sias
