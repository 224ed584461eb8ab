// Lightweight latches. The VidMap of the paper (§4.1.3) requires "short time
// latches" on single hash slots; SpinLatch provides exactly that, and the
// VidMap additionally offers a CAS path that avoids latching altogether, as
// suggested in the paper ("Latching can be avoided by using atomic
// instructions (e.g. CAS)").
//
// All latches here are Clang thread-safety capabilities
// (common/thread_annotations.h): members they protect carry
// SIAS_GUARDED_BY, and functions that need them held carry SIAS_REQUIRES.
// Each latch also carries a LatchRank (check/latch_order.h); debug /
// sanitizer builds (SIAS_LATCH_CHECK) validate the global acquisition order
// at runtime and abort on inversions with both stacks.
//
// Use the scoped guards (SpinLatchGuard, MutexLock, ReadLock, WriteLock)
// rather than std::lock_guard / std::unique_lock: the std templates are not
// visible to the static analysis, so locking through them silently defeats
// it.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "check/latch_order.h"
#include "common/analysis_annotations.h"
#include "common/thread_annotations.h"

namespace sias {

namespace latch_detail {

// Rank-checker hooks; compiled out unless SIAS_LATCH_CHECK is defined.
inline void RecordAcquire(const void* latch, LatchRank rank) {
#if defined(SIAS_LATCH_CHECK)
  check::OnAcquire(latch, rank);
#else
  (void)latch;
  (void)rank;
#endif
}

inline void RecordTryAcquire(const void* latch, LatchRank rank) {
#if defined(SIAS_LATCH_CHECK)
  check::OnTryAcquire(latch, rank);
#else
  (void)latch;
  (void)rank;
#endif
}

inline void RecordRelease(const void* latch) {
#if defined(SIAS_LATCH_CHECK)
  check::OnRelease(latch);
#else
  (void)latch;
#endif
}

inline void RecordAssertHeld(const void* latch) {
#if defined(SIAS_LATCH_CHECK)
  check::AssertHeld(latch);
#else
  (void)latch;
#endif
}

}  // namespace latch_detail

/// One CPU-relax hint (PAUSE / YIELD), the polite unit of spinning.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Bounded exponential backoff for contended spin loops: bursts of
/// 1, 2, 4, ... CpuRelax() hints, escalating to sched yields once the burst
/// would exceed kMaxRelaxBurst — a long-held latch then costs scheduler
/// cooperation, not a burned core.
class SpinBackoff {
 public:
  void Pause() {
    if (burst_ <= kMaxRelaxBurst) {
      for (uint32_t i = 0; i < burst_; ++i) CpuRelax();
      burst_ <<= 1;
    } else {
      std::this_thread::yield();
    }
  }

 private:
  static constexpr uint32_t kMaxRelaxBurst = 64;
  uint32_t burst_ = 1;
};

/// Test-and-test-and-set spin latch with exponential backoff.
class SIAS_CAPABILITY("spinlatch") SpinLatch {
 public:
  constexpr SpinLatch() = default;
  constexpr explicit SpinLatch(LatchRank rank) : rank_(rank) {}
  SpinLatch(const SpinLatch&) = delete;
  SpinLatch& operator=(const SpinLatch&) = delete;

  void Lock() SIAS_ACQUIRE() {
    // Order check happens before we can block.
    latch_detail::RecordAcquire(this, rank_);
    SpinBackoff backoff;
    for (;;) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) backoff.Pause();
    }
  }

  SIAS_DEAD_API_OK("latch_check_test drives the validator's try-acquire path");
  bool TryLock() SIAS_TRY_ACQUIRE(true) {
    bool acquired = !flag_.exchange(true, std::memory_order_acquire);
    if (acquired) latch_detail::RecordTryAcquire(this, rank_);
    return acquired;
  }

  void Unlock() SIAS_RELEASE() {
    latch_detail::RecordRelease(this);
    flag_.store(false, std::memory_order_release);
  }

  /// Debug assertion (rank-checker backed) that the calling thread holds
  /// this latch; no-op in non-checked builds.
  void AssertHeld() const SIAS_ASSERT_CAPABILITY(this) {
    latch_detail::RecordAssertHeld(this);
  }

 private:
  std::atomic<bool> flag_{false};
  LatchRank rank_{LatchRank::kUnranked};
};

/// RAII guard for SpinLatch.
class SIAS_SCOPED_CAPABILITY SpinLatchGuard {
 public:
  explicit SpinLatchGuard(SpinLatch& latch) SIAS_ACQUIRE(latch)
      : latch_(latch) {
    latch_.Lock();
  }
  ~SpinLatchGuard() SIAS_RELEASE() { latch_.Unlock(); }
  SpinLatchGuard(const SpinLatchGuard&) = delete;
  SpinLatchGuard& operator=(const SpinLatchGuard&) = delete;

 private:
  SpinLatch& latch_;
};

/// std::mutex wrapped as a capability with a rank. Also models
/// BasicLockable (lowercase lock/unlock) so std::condition_variable_any can
/// wait on it directly — see LockManager.
class SIAS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LatchRank rank) : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SIAS_ACQUIRE() {
    latch_detail::RecordAcquire(this, rank_);
    mu_.lock();
  }

  SIAS_DEAD_API_OK("latch_check_test drives the validator's try-acquire path");
  bool TryLock() SIAS_TRY_ACQUIRE(true) {
    bool acquired = mu_.try_lock();
    if (acquired) latch_detail::RecordTryAcquire(this, rank_);
    return acquired;
  }

  void Unlock() SIAS_RELEASE() {
    latch_detail::RecordRelease(this);
    mu_.unlock();
  }

  void AssertHeld() const SIAS_ASSERT_CAPABILITY(this) {
    latch_detail::RecordAssertHeld(this);
  }

  // BasicLockable, for std::condition_variable_any only. A cv wait
  // releases and re-acquires through these, keeping the rank checker's
  // held-set accurate across the block.
  void lock() SIAS_ACQUIRE() {
    latch_detail::RecordAcquire(this, rank_);
    mu_.lock();
  }
  void unlock() SIAS_RELEASE() {
    latch_detail::RecordRelease(this);
    mu_.unlock();
  }

 private:
  std::mutex mu_;
  LatchRank rank_{LatchRank::kUnranked};
};

/// RAII guard for Mutex.
class SIAS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SIAS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() SIAS_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// std::shared_mutex wrapped as a capability with a rank. Deliberately NOT
/// BasicLockable / SharedLockable: lock through ReadLock / WriteLock so the
/// static analysis sees every acquisition.
class SIAS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(LatchRank rank) : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SIAS_ACQUIRE() {
    latch_detail::RecordAcquire(this, rank_);
    mu_.lock();
  }
  SIAS_DEAD_API_OK("latch_check_test drives the validator's try-acquire path");
  bool TryLock() SIAS_TRY_ACQUIRE(true) {
    bool acquired = mu_.try_lock();
    if (acquired) latch_detail::RecordTryAcquire(this, rank_);
    return acquired;
  }
  void Unlock() SIAS_RELEASE() {
    latch_detail::RecordRelease(this);
    mu_.unlock();
  }

  void LockShared() SIAS_ACQUIRE_SHARED() {
    latch_detail::RecordAcquire(this, rank_);
    mu_.lock_shared();
  }
  bool TryLockShared() SIAS_TRY_ACQUIRE_SHARED(true) {
    bool acquired = mu_.try_lock_shared();
    if (acquired) latch_detail::RecordTryAcquire(this, rank_);
    return acquired;
  }
  void UnlockShared() SIAS_RELEASE_SHARED() {
    latch_detail::RecordRelease(this);
    mu_.unlock_shared();
  }

  void AssertHeld() const SIAS_ASSERT_CAPABILITY(this) {
    latch_detail::RecordAssertHeld(this);
  }

 private:
  std::shared_mutex mu_;
  LatchRank rank_{LatchRank::kUnranked};
};

/// RAII shared (reader) lock on a SharedMutex.
class SIAS_SCOPED_CAPABILITY ReadLock {
 public:
  explicit ReadLock(SharedMutex* mu) SIAS_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReadLock() SIAS_RELEASE() { mu_->UnlockShared(); }
  ReadLock(const ReadLock&) = delete;
  ReadLock& operator=(const ReadLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class SIAS_SCOPED_CAPABILITY WriteLock {
 public:
  explicit WriteLock(SharedMutex* mu) SIAS_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriteLock() SIAS_RELEASE() { mu_->Unlock(); }
  WriteLock(const WriteLock&) = delete;
  WriteLock& operator=(const WriteLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Reader-writer latch guarding named members (e.g. the B+-tree latch).
using RwLatch = SharedMutex;

/// Reader-writer latch protecting a buffer frame's page image. The data it
/// guards is untyped (raw page bytes reached through PageGuard), which the
/// static analysis cannot attribute to a capability, and guards may unlatch
/// conditionally at destruction — inexpressible in the capability model. So
/// PageLatch is deliberately NOT a capability: its discipline (rank kPage;
/// try-only acquisition under the pool mutex) is enforced at runtime by the
/// rank checker instead.
class PageLatch {
 public:
  PageLatch() = default;
  PageLatch(const PageLatch&) = delete;
  PageLatch& operator=(const PageLatch&) = delete;

  void Lock() {
    latch_detail::RecordAcquire(this, LatchRank::kPage);
    mu_.lock();
  }
  void Unlock() {
    latch_detail::RecordRelease(this);
    mu_.unlock();
  }
  void LockShared() {
    latch_detail::RecordAcquire(this, LatchRank::kPage);
    mu_.lock_shared();
  }
  bool TryLockShared() {
    bool acquired = mu_.try_lock_shared();
    if (acquired) latch_detail::RecordTryAcquire(this, LatchRank::kPage);
    return acquired;
  }
  void UnlockShared() {
    latch_detail::RecordRelease(this);
    mu_.unlock_shared();
  }
  void AssertHeld() const { latch_detail::RecordAssertHeld(this); }

 private:
  std::shared_mutex mu_;
};

}  // namespace sias
