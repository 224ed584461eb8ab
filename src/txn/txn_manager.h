// Transaction lifecycle: snapshot publication, lazy xid assignment, commit
// and abort processing.
//
// A transaction takes an xid only at its first write (AssignXid); a
// read-only transaction never does. Begin copies its snapshot from a
// seqlock-published template {xmax, concurrent[]} and registers the
// snapshot's GC bounds in a per-transaction slot, taking no mutex. The
// template is rebuilt under mu_ only when an xid-holding transaction
// finishes (docs/CONCURRENCY.md, "Snapshot template").
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/latch.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vclock.h"
#include "obs/metrics.h"
#include "txn/clog.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace sias {

/// Where TransactionManager calls its pause hook (SetPauseHookForTest).
enum class TxnPausePoint {
  /// In Begin, after the template is read and before the slot is published.
  kBeginTemplateLoaded,
  /// In Commit/Abort of an xid-holding transaction, after the clog flip and
  /// the slot release, before the template rebuild.
  kFinishBeforeRebuild,
};

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

  /// Registry capacity: transactions running at once, across all threads.
  static constexpr size_t kMaxActive = 1024;

  TransactionManager(Clog* clog, LockManager* locks);

  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }
  void set_abort_hook(AbortHook hook) { abort_hook_ = std::move(hook); }

  /// Starts a transaction bound to the terminal's virtual clock: a snapshot
  /// and a registry slot, but no xid. Takes no mutex.
  std::unique_ptr<Transaction> Begin(VirtualClock* clock);

  /// Gives `txn` an xid if it has none. Every write entry point calls it
  /// before its first write. The new xid is at or above every template's
  /// xmax, so no snapshot can contain it and the template is not rebuilt.
  void AssignXid(Transaction* txn);

  /// Commits: WAL hook, clog flip, slot release, template rebuild, lock
  /// release. Without an xid only the slot is released.
  Status Commit(Transaction* txn);

  /// Aborts: write log undone newest first, clog flip, slot release,
  /// template rebuild, lock release.
  Status Abort(Transaction* txn);

  /// Oldest xid that might still be running: versions superseded before this
  /// horizon are invisible to every current and future snapshot (GC bound).
  Xid OldestActiveXid() const;

  /// Safe GC horizon: the oldest xid any *active snapshot* still considers
  /// in-progress. A version invalidated by a committed xid below this
  /// horizon is invisible to every current and future snapshot.
  Xid GcHorizon() const;

  /// The horizon below which `txn`'s SIAS-V writes trim version vectors:
  /// GcHorizon(), sampled at the first call and reused for the rest of the
  /// transaction (the horizon never falls, so the earlier sample is a safe
  /// lower bound). Requires an xid, so the sample is at most that xid.
  Xid WriteHorizon(Transaction* txn) const;

  /// Snapshot bounds for GC range tracking: one (lo, hi) pair per published
  /// slot plus the current template's pair. lo = the oldest xid the
  /// snapshot considers in-progress, hi = its xmax (everything at or above
  /// hi is invisible to it). A committed version v shadowed by a newer kept
  /// committed version s is needed by that snapshot only if
  /// v.xmin < hi && s.xmin >= lo — GC reclaims mid-vector versions for
  /// which no pair satisfies this (SIAS-V range tracking).
  std::vector<std::pair<Xid, Xid>> ActiveSnapshotBounds() const;

  /// Next xid to be assigned (tests / metrics).
  Xid NextXid() const;

  /// Raises the xid allocator to at least `next` (crash recovery: replayed
  /// xids must never be reissued) and republishes the template, so new
  /// snapshots see every xid below it.
  void AdvanceNextXid(Xid next);

  /// Transactions holding a registry slot.
  size_t ActiveCount() const;

  /// Calls `hook` at each TxnPausePoint, on the thread that reaches it;
  /// nullptr disarms. Costs one relaxed atomic load per point when disarmed.
  SIAS_DEAD_API_OK("txn_test pauses Begin between its publish steps");
  void SetPauseHookForTest(void (*hook)(TxnPausePoint));

  Clog* clog() { return clog_; }
  LockManager* locks() { return locks_; }

 private:
  /// Slot states above every real xid: lo holds one of these or
  /// the published snapshot's lo.
  static constexpr Xid kFreeSlot = ~Xid{0};
  static constexpr Xid kClaimedSlot = ~Xid{0} - 1;

  /// One transaction's published GC bounds, on its own cache line. A slot
  /// is republished only with a newer template, whose bounds are no lower,
  /// and hi is stored before lo: a reader that loads lo and then hi gets a
  /// pair at least as wide as the one published with that lo.
  struct alignas(64) Slot {
    std::atomic<Xid> lo{kFreeSlot};
    std::atomic<Xid> hi{0};
  };

  /// The seqlock-published template head: one shared line read per Begin.
  /// seq is odd while a rebuild is writing.
  struct alignas(64) TemplateHead {
    std::atomic<uint64_t> seq{0};
    std::atomic<Xid> xmax{kFirstNormalXid};
    std::atomic<uint32_t> n_concurrent{0};
  };

  uint32_t ClaimSlot();
  void Finish(Transaction* txn);
  /// Republishes the template from writers_ and next_xid_: O(writers).
  void RebuildTemplate() SIAS_REQUIRES(mu_);
  /// The current template's (lo, xmax).
  std::pair<Xid, Xid> TemplateBounds() const SIAS_REQUIRES(mu_);
  /// Calls fn(lo, hi) for each published slot below the high-water mark.
  template <typename Fn>
  void ForEachPublished(Fn&& fn) const;
  void Pause(TxnPausePoint point) {
    if (void (*hook)(TxnPausePoint) =
            pause_hook_.load(std::memory_order_relaxed)) {
      hook(point);
    }
  }

  Clog* clog_;
  LockManager* locks_;
  CommitHook commit_hook_;
  AbortHook abort_hook_;
  std::atomic<void (*)(TxnPausePoint)> pause_hook_{nullptr};

  // Observability (see docs/OBSERVABILITY.md for the catalogue).
  obs::Counter* m_begins_;
  obs::Counter* m_commits_;
  obs::Counter* m_aborts_;
  obs::HistogramMetric* m_commit_latency_;

  /// Rank kTxnManager: held for xid assignment, template rebuilds and the
  /// GC bound scans, never across commit hooks, clog flips or lock
  /// releases.
  mutable Mutex mu_{LatchRank::kTxnManager};
  Xid next_xid_ SIAS_GUARDED_BY(mu_) = kFirstNormalXid;
  /// Sorted xids of the transactions that hold one and have not finished.
  std::vector<Xid> writers_ SIAS_GUARDED_BY(mu_);

  TemplateHead head_;
  /// Template concurrent set, sorted; written only under mu_ inside an odd
  /// head_.seq, read by Begin under the seqlock.
  std::array<std::atomic<Xid>, kMaxActive> concurrent_{};

  /// Registry: one slot per running transaction. Scans stop at the
  /// high-water mark of claimed slots.
  std::array<Slot, kMaxActive> slots_;
  std::atomic<uint32_t> slot_hwm_{0};
};

}  // namespace sias
