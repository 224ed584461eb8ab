// Epoch-based reclamation for the latch-free snapshot read path
// (corobase-style, "Practically and Theoretically Efficient Garbage
// Collection for Multiversioning", PAPERS.md).
//
// Readers pin the current global epoch in a per-thread slot before touching
// any atomically published state (VidMapV entry vectors, buffer frames via
// the pin-free hit, append pages awaiting deferred GC slot kills). Writers
// unpublish superseded state with a single atomic store and hand the old
// object to Retire(); the deferred-free queue runs an entry's callback only
// once every epoch that was active at retire time has exited — so a reader
// that copied a stale pointer can always finish dereferencing it.
//
// Memory-order note: the global epoch, the per-thread slots, and every
// published pointer the readers traverse use seq_cst. The proof that a
// reader can never observe a reclaimed object needs a single total order
// over {unpublish store, retire's epoch load, epoch advance, reader's
// Enter() validation load, reader's pointer load}; with seq_cst the
// argument is five lines (docs/CONCURRENCY.md, "Epoch protocol") and TSan
// sees the synchronizes-with edges natively — no suppressions.
//
// Epochs are not locks: Enter()/Exit() never block and cannot deadlock.
// Their one ordering rule (machine-checked via check::OnEpochEnter) is
// that an epoch must be entered above the storage layer — never while
// holding a latch of rank >= kPage — because deferred-free callbacks
// acquire exactly those latches when they run.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "common/analysis_annotations.h"
#include "common/latch.h"

namespace sias {
namespace obs {
class Counter;
class Gauge;
}  // namespace obs

/// Process-wide epoch-based reclamation. All tables share Global(): a
/// deferred free is safe exactly when *no* thread anywhere can still hold a
/// stale pointer, which is a process property, not a per-table one.
class EpochManager {
 public:
  /// Slot value meaning "thread not inside an epoch".
  static constexpr uint64_t kIdle = ~0ull;
  /// Fixed slot table; threads claim a slot on first Enter and release it
  /// at thread exit. Far above any test or bench thread count.
  static constexpr size_t kMaxThreads = 256;

  static EpochManager& Global();

  /// Pins the current global epoch for this thread (re-entrant; nested
  /// entries keep the outermost pin). Returns the pinned epoch.
  uint64_t Enter();

  /// Releases the innermost Enter; the outermost exit unpins the slot.
  void Exit();

  /// Whether the calling thread currently holds an epoch pin.
  bool InEpoch() const;

  /// Bumps the global epoch; called by vacuum after each GC pass, by
  /// Database::Tick on the bgwriter cadence, and by a buffer pool whose
  /// parked buffers wait on the current epoch. Returns the new epoch.
  uint64_t Advance();

  /// Oldest epoch any thread is currently pinned in; equals current() when
  /// no thread is inside an epoch.
  uint64_t MinActive() const;

  /// Queues `fn` to run once every epoch active *now* has exited. The
  /// caller must have already unpublished the state `fn` frees.
  void Retire(std::function<void()> fn);

  /// Runs every deferred callback whose retire epoch is strictly below
  /// MinActive(). Must not be called from inside an epoch (callbacks
  /// acquire storage latches). The queue scan runs outside queue_mu_, so a
  /// concurrent Retire() never waits on it. Returns the number of callbacks
  /// run.
  size_t TryReclaim();

  /// Drains the queue completely (requires no thread inside an epoch); used
  /// at table/database teardown so deferred frees never outlive the
  /// structures they touch. Also waits for a TryReclaim on another thread
  /// to splice back or run the entries it took.
  void Quiesce();

  /// Deferred callbacks retired and not yet run, including those a
  /// TryReclaim holds out of the queue (tests / metrics).
  SIAS_DEAD_API_OK("epoch and engine tests bound the retire queue");
  size_t pending() const;

  /// Current global epoch.
  uint64_t current() const {
    return global_.load(std::memory_order_seq_cst);
  }

 private:
  EpochManager();

  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };

  struct TlsState;
  TlsState& Tls();
  uint32_t ClaimSlot();
  void ReleaseSlot(uint32_t idx);

  std::atomic<uint64_t> global_{1};
  Slot slots_[kMaxThreads];
  std::atomic<bool> claimed_[kMaxThreads] = {};

  /// Rank kEpochQueue: Retire() is called from GC with storage latches
  /// released; only the metrics leaves sit above it.
  mutable Mutex queue_mu_{LatchRank::kEpochQueue};
  std::deque<std::pair<uint64_t, std::function<void()>>> queue_
      SIAS_GUARDED_BY(queue_mu_);
  /// Entries TryReclaim calls have taken out of queue_ and not yet spliced
  /// back or run.
  size_t taken_ SIAS_GUARDED_BY(queue_mu_) = 0;

  // Observability (docs/OBSERVABILITY.md).
  obs::Counter* m_advances_;
  obs::Counter* m_retired_;
  obs::Counter* m_reclaimed_;
  obs::Gauge* m_pending_;
};

/// RAII epoch pin for a latch-free read section.
class EpochGuard {
 public:
  EpochGuard() { EpochManager::Global().Enter(); }
  ~EpochGuard() { EpochManager::Global().Exit(); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;
};

}  // namespace sias
