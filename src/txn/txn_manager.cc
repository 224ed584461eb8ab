#include "txn/txn_manager.h"

#include <algorithm>

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
}

uint32_t TransactionManager::ClaimSlot() {
  // A thread that runs one transaction at a time keeps reusing its slot.
  thread_local uint32_t hint = 0;
  for (uint32_t i = hint, scanned = 0; scanned < kMaxActive;
       i = (i + 1) % kMaxActive, ++scanned) {
    Xid expected = kFreeSlot;
    if (!slots_[i].lo.compare_exchange_strong(expected, kClaimedSlot,
                                              std::memory_order_seq_cst)) {
      continue;
    }
    hint = i;
    uint32_t hwm = slot_hwm_.load(std::memory_order_seq_cst);
    while (hwm <= i && !slot_hwm_.compare_exchange_weak(
                           hwm, i + 1, std::memory_order_seq_cst)) {
    }
    return i;
  }
  SIAS_CHECK(false);  // more than kMaxActive transactions at once
  return 0;
}

std::unique_ptr<Transaction> TransactionManager::Begin(VirtualClock* clock) {
  SPAN_SCOPE("txn", "begin");
  uint32_t idx = ClaimSlot();
  Slot& slot = slots_[idx];
  Snapshot snap;
  SpinBackoff backoff;
  for (;;) {
    uint64_t seq = head_.seq.load(std::memory_order_acquire);
    if (seq & 1) {  // a rebuild is writing
      backoff.Pause();
      continue;
    }
    // Acquire loads: a value from a later rebuild makes the seq re-read
    // below see that rebuild's odd store.
    snap.xmax = head_.xmax.load(std::memory_order_acquire);
    snap.concurrent.resize(head_.n_concurrent.load(std::memory_order_acquire));
    for (size_t i = 0; i < snap.concurrent.size(); ++i) {
      snap.concurrent[i] = concurrent_[i].load(std::memory_order_acquire);
    }
    Pause(TxnPausePoint::kBeginTemplateLoaded);
    // Publish, then validate: if the template did not move between the
    // load and the re-read, every GC scan either sees this slot or runs
    // while this template is current and counts its pair.
    slot.hi.store(snap.xmax, std::memory_order_seq_cst);
    slot.lo.store(snap.concurrent.empty() ? snap.xmax : snap.concurrent[0],
                  std::memory_order_seq_cst);
    if (head_.seq.load(std::memory_order_seq_cst) == seq) break;
  }
  m_begins_->Increment();
  return std::make_unique<Transaction>(std::move(snap), clock, idx);
}

void TransactionManager::AssignXid(Transaction* txn) {
  if (txn->xid_ != kInvalidXid) return;
  Xid xid = kInvalidXid;
  {
    MutexLock g(&mu_);
    xid = next_xid_++;
    clog_->Extend(xid);
    writers_.push_back(xid);  // the largest xid yet: stays sorted
  }
  txn->xid_ = xid;
  txn->snapshot_.xid = xid;
  obs::SetSpanXid(xid);
}

void TransactionManager::RebuildTemplate() {
  uint64_t seq = head_.seq.load(std::memory_order_relaxed);
  head_.seq.store(seq + 1, std::memory_order_seq_cst);
  for (size_t i = 0; i < writers_.size(); ++i) {
    concurrent_[i].store(writers_[i], std::memory_order_release);
  }
  head_.n_concurrent.store(static_cast<uint32_t>(writers_.size()),
                           std::memory_order_release);
  head_.xmax.store(next_xid_, std::memory_order_release);
  head_.seq.store(seq + 2, std::memory_order_seq_cst);
}

std::pair<Xid, Xid> TransactionManager::TemplateBounds() const {
  // Only rebuilds write the template, and they hold mu_ too.
  Xid xmax = head_.xmax.load(std::memory_order_relaxed);
  Xid lo = head_.n_concurrent.load(std::memory_order_relaxed) == 0
               ? xmax
               : concurrent_[0].load(std::memory_order_relaxed);
  return {lo, xmax};
}

template <typename Fn>
void TransactionManager::ForEachPublished(Fn&& fn) const {
  uint32_t hwm = slot_hwm_.load(std::memory_order_seq_cst);
  for (uint32_t i = 0; i < hwm; ++i) {
    Xid lo = slots_[i].lo.load(std::memory_order_seq_cst);
    if (lo >= kClaimedSlot) continue;
    fn(lo, slots_[i].hi.load(std::memory_order_seq_cst));
  }
}

void TransactionManager::Finish(Transaction* txn) {
  // A finished transaction reads nothing more: its bounds go first. A
  // reader still holding the template that excludes this xid is covered by
  // the template pair until the rebuild below.
  slots_[txn->slot_].lo.store(kFreeSlot, std::memory_order_release);
  if (txn->xid() != kInvalidXid) {
    Pause(TxnPausePoint::kFinishBeforeRebuild);
    MutexLock g(&mu_);
    writers_.erase(
        std::lower_bound(writers_.begin(), writers_.end(), txn->xid()));
    RebuildTemplate();
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
  if (txn->xid() != kInvalidXid) clog_->SetCommitted(txn->xid());
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
  if (txn->xid() != kInvalidXid) clog_->SetAborted(txn->xid());
  txn->state_ = TxnState::kAborted;
  Finish(txn);
  m_aborts_->Increment();
  return Status::OK();
}

Xid TransactionManager::OldestActiveXid() const {
  MutexLock g(&mu_);
  return writers_.empty() ? next_xid_ : writers_.front();
}

Xid TransactionManager::GcHorizon() const {
  MutexLock g(&mu_);
  // The template's lo is at most next_xid_ and every running writer's xid.
  Xid horizon = TemplateBounds().first;
  ForEachPublished([&](Xid lo, Xid) { horizon = std::min(horizon, lo); });
  return horizon;
}

Xid TransactionManager::WriteHorizon(Transaction* txn) const {
  SIAS_CHECK(txn->xid_ != kInvalidXid);
  if (txn->write_horizon_ == kInvalidXid) txn->write_horizon_ = GcHorizon();
  return txn->write_horizon_;
}

std::vector<std::pair<Xid, Xid>> TransactionManager::ActiveSnapshotBounds()
    const {
  MutexLock g(&mu_);
  std::vector<std::pair<Xid, Xid>> bounds{TemplateBounds()};
  ForEachPublished([&](Xid lo, Xid hi) { bounds.emplace_back(lo, hi); });
  return bounds;
}

Xid TransactionManager::NextXid() const {
  MutexLock g(&mu_);
  return next_xid_;
}

void TransactionManager::AdvanceNextXid(Xid next) {
  MutexLock g(&mu_);
  next_xid_ = std::max(next_xid_, next);
  RebuildTemplate();
}

size_t TransactionManager::ActiveCount() const {
  size_t n = 0;
  uint32_t hwm = slot_hwm_.load(std::memory_order_seq_cst);
  for (uint32_t i = 0; i < hwm; ++i) {
    if (slots_[i].lo.load(std::memory_order_seq_cst) != kFreeSlot) n++;
  }
  return n;
}

void TransactionManager::SetPauseHookForTest(void (*hook)(TxnPausePoint)) {
  pause_hook_.store(hook, std::memory_order_seq_cst);
}

}  // namespace sias
