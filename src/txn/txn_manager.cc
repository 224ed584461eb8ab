#include "txn/txn_manager.h"

#include "common/logging.h"
#include "mvcc/mvcc_table.h"
#include "obs/span.h"

namespace sias {

TransactionManager::TransactionManager(Clog* clog, LockManager* locks)
    : clog_(clog), locks_(locks) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_begins_ = reg.GetCounter("txn.begin");
  m_commits_ = reg.GetCounter("txn.commit");
  m_aborts_ = reg.GetCounter("txn.abort");
  m_commit_latency_ = reg.GetHistogram("txn.commit_latency");
  m_active_ = reg.GetGauge("txn.active");
}

std::unique_ptr<Transaction> TransactionManager::Begin(VirtualClock* clock) {
  SPAN_SCOPE("txn", "begin");
  MutexLock g(&mu_);
  Xid xid = next_xid_++;
  clog_->Extend(xid);
  Snapshot snap;
  snap.xid = xid;
  snap.xmax = next_xid_;
  snap.concurrent.reserve(active_.size());
  for (const auto& [axid, _] : active_) snap.concurrent.push_back(axid);
  Xid snap_min = snap.concurrent.empty() ? xid : snap.concurrent.front();
  active_.emplace(xid, snap_min);
  m_begins_->Increment();
  m_active_->Set(static_cast<int64_t>(active_.size()));
  return std::make_unique<Transaction>(xid, std::move(snap), clock);
}

void TransactionManager::Finish(Transaction* txn) {
  {
    MutexLock g(&mu_);
    active_.erase(txn->xid());
    m_active_->Set(static_cast<int64_t>(active_.size()));
  }
  VTime now = txn->clock() ? txn->clock()->now() : 0;
  for (const auto& [relation, vid] : txn->locks_) {
    locks_->Release(relation, vid, txn->xid(), now);
  }
  txn->locks_.clear();
}

Status TransactionManager::Commit(Transaction* txn) {
  SPAN_SCOPE("txn", "commit");
  if (txn->state() != TxnState::kActive) {
    return Status::TxnInvalidState("commit of finished transaction");
  }
  // Commit latency in virtual time: the WAL flush in the commit hook
  // advances the terminal's clock by the durability wait.
  VTime start = txn->clock() != nullptr ? txn->clock()->now() : 0;
  if (commit_hook_) {
    Status s = commit_hook_(txn);
    if (!s.ok()) {
      // Commit could not be made durable: the transaction aborts.
      Status abort_status = Abort(txn);
      (void)abort_status;
      return s;
    }
  }
  clog_->SetCommitted(txn->xid());
  txn->state_ = TxnState::kCommitted;
  Finish(txn);
  m_commits_->Increment();
  if (txn->clock() != nullptr) {
    m_commit_latency_->Record(txn->clock()->now() - start);
  }
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn) {
  SPAN_SCOPE("txn", "abort");
  if (txn->state() != TxnState::kActive) {
    return Status::TxnInvalidState("abort of finished transaction");
  }
  // Take the writes back newest first (e.g. restore VidMap entrypoints).
  for (auto it = txn->writes_.rbegin(); it != txn->writes_.rend(); ++it) {
    it->table->UndoWrite(*it);
  }
  if (abort_hook_) {
    Status s = abort_hook_(txn);
    (void)s;  // abort records are advisory; status flip is authoritative
  }
  clog_->SetAborted(txn->xid());
  txn->state_ = TxnState::kAborted;
  Finish(txn);
  m_aborts_->Increment();
  return Status::OK();
}

Xid TransactionManager::OldestActiveXid() const {
  MutexLock g(&mu_);
  if (active_.empty()) return next_xid_;
  return active_.begin()->first;
}

Xid TransactionManager::GcHorizon() const {
  MutexLock g(&mu_);
  Xid horizon = next_xid_;
  for (const auto& [xid, snap_min] : active_) {
    horizon = std::min(horizon, snap_min);
  }
  return horizon;
}

std::vector<std::pair<Xid, Xid>> TransactionManager::ActiveSnapshotBounds()
    const {
  MutexLock g(&mu_);
  std::vector<std::pair<Xid, Xid>> bounds;
  bounds.reserve(active_.size());
  for (const auto& [xid, snap_min] : active_) {
    bounds.emplace_back(snap_min, xid + 1);
  }
  return bounds;
}

Xid TransactionManager::NextXid() const {
  MutexLock g(&mu_);
  return next_xid_;
}

void TransactionManager::AdvanceNextXid(Xid next) {
  MutexLock g(&mu_);
  next_xid_ = std::max(next_xid_, next);
}

size_t TransactionManager::ActiveCount() const {
  MutexLock g(&mu_);
  return active_.size();
}

}  // namespace sias
