#include "mvcc/epoch.h"

#include <thread>
#include <vector>

#include "check/latch_order.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace sias {

/// Per-thread pin state. The slot index is claimed lazily on first Enter
/// and handed back when the thread exits (the destructor runs against the
/// leaked Global() instance, so teardown order is never an issue).
struct EpochManager::TlsState {
  EpochManager* owner = nullptr;
  uint32_t idx = 0;
  uint32_t depth = 0;
  ~TlsState() {
    if (owner != nullptr) {
      SIAS_CHECK(depth == 0);  // a thread must not die inside an epoch
      owner->ReleaseSlot(idx);
    }
  }
};

EpochManager::EpochManager() {
  auto& reg = obs::MetricsRegistry::Default();
  m_advances_ = reg.GetCounter("mvcc.epoch.advances");
  m_retired_ = reg.GetCounter("mvcc.epoch.retired");
  m_reclaimed_ = reg.GetCounter("mvcc.epoch.reclaimed");
  m_pending_ = reg.GetGauge("mvcc.epoch.pending");
}

EpochManager& EpochManager::Global() {
  // Leaked: must outlive every engine thread's TlsState destructor and
  // every table's teardown Quiesce.
  static EpochManager* g = new EpochManager();
  return *g;
}

EpochManager::TlsState& EpochManager::Tls() {
  static thread_local TlsState tls;
  if (tls.owner == nullptr) {
    tls.idx = ClaimSlot();
    tls.owner = this;
  }
  return tls;
}

uint32_t EpochManager::ClaimSlot() {
  for (uint32_t i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (claimed_[i].compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
      return i;
    }
  }
  SIAS_CHECK(false);  // > kMaxThreads concurrent threads using epochs
  return 0;
}

void EpochManager::ReleaseSlot(uint32_t idx) {
  slots_[idx].epoch.store(kIdle, std::memory_order_seq_cst);
  claimed_[idx].store(false, std::memory_order_release);
}

uint64_t EpochManager::Enter() {
  TlsState& tls = Tls();
  if (tls.depth++ > 0) {
    return slots_[tls.idx].epoch.load(std::memory_order_relaxed);
  }
#if defined(SIAS_LATCH_CHECK)
  check::OnEpochEnter();
#endif
  uint64_t e = global_.load(std::memory_order_seq_cst);
  for (;;) {
    // Publish the pin, then validate the global did not advance past it
    // while the store was in flight. If it did, a reclaimer may already
    // have scanned the slots without seeing us — re-pin at the new epoch
    // before touching any published pointer.
    slots_[tls.idx].epoch.store(e, std::memory_order_seq_cst);
    uint64_t e2 = global_.load(std::memory_order_seq_cst);
    if (e2 == e) return e;
    e = e2;
  }
}

void EpochManager::Exit() {
  TlsState& tls = Tls();
  SIAS_CHECK(tls.depth > 0);
  if (--tls.depth == 0) {
    slots_[tls.idx].epoch.store(kIdle, std::memory_order_seq_cst);
#if defined(SIAS_LATCH_CHECK)
    check::OnEpochExit();
#endif
  }
}

bool EpochManager::InEpoch() const {
  return const_cast<EpochManager*>(this)->Tls().depth > 0;
}

uint64_t EpochManager::Advance() {
  m_advances_->Increment();
  return global_.fetch_add(1, std::memory_order_seq_cst) + 1;
}

uint64_t EpochManager::MinActive() const {
  uint64_t min = global_.load(std::memory_order_seq_cst);
  for (const Slot& s : slots_) {
    uint64_t e = s.epoch.load(std::memory_order_seq_cst);
    if (e < min) min = e;
  }
  return min;
}

void EpochManager::Retire(std::function<void()> fn) {
  uint64_t e = global_.load(std::memory_order_seq_cst);
  m_retired_->Increment();
  MutexLock g(&queue_mu_);
  queue_.emplace_back(e, std::move(fn));
  m_pending_->Set(static_cast<int64_t>(queue_.size() + taken_));
}

size_t EpochManager::TryReclaim() {
  // Callbacks acquire storage latches (pool, page, WAL); running them with
  // an epoch pinned would hold the pin across latch waits, and a callback
  // must never run while its caller could itself hold a stale pointer.
  SIAS_CHECK(!InEpoch());
  uint64_t min = MinActive();
  // Retire() runs under row locks, so the O(queue) filter must not hold
  // queue_mu_: take the whole queue, filter it privately and splice the
  // unripe entries back into whatever was retired meanwhile.
  std::deque<std::pair<uint64_t, std::function<void()>>> taken;
  {
    MutexLock g(&queue_mu_);
    taken.swap(queue_);
    taken_ += taken.size();
  }
  // Stamps are not strictly sorted (two threads can retire around an
  // advance), so filter the whole queue rather than draining the front.
  std::vector<std::function<void()>> ripe;
  std::deque<std::pair<uint64_t, std::function<void()>>> keep;
  for (auto& entry : taken) {
    if (entry.first < min) {
      ripe.push_back(std::move(entry.second));
    } else {
      keep.push_back(std::move(entry));
    }
  }
  {
    MutexLock g(&queue_mu_);
    // Order does not matter (see above): move the shorter into the longer.
    taken_ -= keep.size();
    if (keep.size() > queue_.size()) queue_.swap(keep);
    for (auto& entry : keep) queue_.push_back(std::move(entry));
  }
  for (auto& fn : ripe) fn();
  m_reclaimed_->Add(static_cast<int64_t>(ripe.size()));
  MutexLock g(&queue_mu_);
  taken_ -= ripe.size();
  m_pending_->Set(static_cast<int64_t>(queue_.size() + taken_));
  return ripe.size();
}

void EpochManager::Quiesce() {
  SIAS_CHECK(!InEpoch());
  // Reclaiming can in principle queue follow-up work, and a TryReclaim on
  // another thread may still hold entries out of the queue: loop until
  // both are dry.
  for (;;) {
    // No thread may still be pinned. Other threads may advance meanwhile,
    // so compare with the epoch this advance made, not with current().
    uint64_t e = Advance();
    SIAS_CHECK(MinActive() >= e);
    if (TryReclaim() > 0) continue;
    {
      MutexLock g(&queue_mu_);
      if (queue_.empty() && taken_ == 0) return;
    }
    std::this_thread::yield();
  }
}

size_t EpochManager::pending() const {
  MutexLock g(&queue_mu_);
  return queue_.size() + taken_;
}

}  // namespace sias
