// Transaction lifecycle: xid allocation, snapshot construction, commit and
// abort processing.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/latch.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vclock.h"
#include "obs/metrics.h"
#include "txn/clog.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace sias {

/// Thread-safe transaction manager shared by all terminals.
class TransactionManager {
 public:
  /// Hook invoked during Commit *before* the clog flips to committed —
  /// the Database uses it to append + flush the WAL commit record
  /// (durability point), charging the committing terminal's clock. It may
  /// skip both for a transaction whose write log is empty.
  using CommitHook = std::function<Status(Transaction*)>;
  /// Hook invoked during Abort, after the write log is undone and before
  /// the status flips (WAL abort record; need not be flushed).
  using AbortHook = std::function<Status(Transaction*)>;

  TransactionManager(Clog* clog, LockManager* locks);

  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }
  void set_abort_hook(AbortHook hook) { abort_hook_ = std::move(hook); }

  /// Starts a transaction bound to the terminal's virtual clock.
  std::unique_ptr<Transaction> Begin(VirtualClock* clock);

  /// Commits: WAL hook, clog flip, lock release, active-set removal.
  Status Commit(Transaction* txn);

  /// Aborts: write log undone newest first, clog flip, lock release.
  Status Abort(Transaction* txn);

  /// Oldest xid that might still be running: versions superseded before this
  /// horizon are invisible to every current and future snapshot (GC bound).
  Xid OldestActiveXid() const;

  /// Safe GC horizon: the oldest xid any *active snapshot* still considers
  /// in-progress. A version invalidated by a committed xid below this
  /// horizon is invisible to every current and future snapshot.
  Xid GcHorizon() const;

  /// Per-active-transaction snapshot bounds for GC range tracking, one
  /// (lo, hi) pair per active transaction: lo = the oldest xid its snapshot
  /// considers in-progress, hi = xid + 1 (everything at or above hi is
  /// invisible to it). A committed version v shadowed by a newer kept
  /// committed version s is needed by that transaction only if
  /// v.xmin < hi && s.xmin >= lo — GC reclaims mid-vector versions for
  /// which no active pair satisfies this (SIAS-V range tracking).
  std::vector<std::pair<Xid, Xid>> ActiveSnapshotBounds() const;

  /// Next xid to be assigned (tests / metrics).
  Xid NextXid() const;

  /// Raises the xid allocator to at least `next` (crash recovery: replayed
  /// xids must never be reissued).
  void AdvanceNextXid(Xid next);

  size_t ActiveCount() const;

  Clog* clog() { return clog_; }
  LockManager* locks() { return locks_; }

 private:
  void Finish(Transaction* txn);

  Clog* clog_;
  LockManager* locks_;
  CommitHook commit_hook_;
  AbortHook abort_hook_;

  // Observability (see docs/OBSERVABILITY.md for the catalogue).
  obs::Counter* m_begins_;
  obs::Counter* m_commits_;
  obs::Counter* m_aborts_;
  obs::HistogramMetric* m_commit_latency_;
  obs::Gauge* m_active_;

  /// Rank kTxnManager: held only for xid allocation / active-set updates,
  /// never across commit hooks, clog flips or lock releases.
  mutable Mutex mu_{LatchRank::kTxnManager};
  Xid next_xid_ SIAS_GUARDED_BY(mu_) = kFirstNormalXid;
  /// Active xid -> the oldest xid its snapshot considers in-progress.
  std::map<Xid, Xid> active_ SIAS_GUARDED_BY(mu_);
};

}  // namespace sias
