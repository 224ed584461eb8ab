// Row-level exclusive lock manager with wait queues and timeout-based
// deadlock resolution.
//
// SIAS relies on transaction locks for its first-updater-wins rule
// (Algorithm 3, REQUESTXLOCK): a transaction updating a data item waits for
// the current updater; once granted, the table layer re-validates the
// entrypoint and aborts with a serialization failure if a concurrent
// committed update happened. The SI baseline uses the same manager.
#pragma once

#include <condition_variable>
#include <unordered_map>

#include "common/analysis_annotations.h"
#include "common/latch.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vclock.h"

namespace sias {

/// Exclusive (row, relation) locks. Waiting is real (condition variable);
/// the *virtual* wait duration is modelled by advancing the waiter's clock
/// to the lock holder's release time.
class LockManager {
 public:
  /// `timeout_ms` is the real-time deadlock-resolution timeout.
  explicit LockManager(int timeout_ms = 1000) : timeout_ms_(timeout_ms) {}

  /// Acquires the exclusive lock on (relation, vid) for `xid`, waiting for
  /// the current holder. Re-entrant for the same xid.
  /// Returns LockTimeout if the wait exceeds the deadlock timeout.
  Status AcquireExclusive(RelationId relation, Vid vid, Xid xid,
                          VirtualClock* clk);

  /// Non-blocking variant; returns SerializationFailure when held by
  /// another transaction.
  Status TryAcquireExclusive(RelationId relation, Vid vid, Xid xid);

  /// Releases one lock. `release_vtime` stamps when (in virtual time) the
  /// lock became free so that waiters can advance their clocks.
  void Release(RelationId relation, Vid vid, Xid xid, VTime release_vtime);

  /// Number of currently held locks (tests).
  SIAS_DEAD_API_OK("txn and engine tests check that no lock leaks");
  size_t HeldCount() const;

 private:
  struct Key {
    RelationId relation;
    Vid vid;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t v = (static_cast<uint64_t>(k.relation) << 48) ^ k.vid;
      v *= 0x9e3779b97f4a7c15ull;
      return static_cast<size_t>(v ^ (v >> 29));
    }
  };
  struct LockState {
    Xid holder = kInvalidXid;
    int waiters = 0;
    VTime last_release_vtime = 0;
  };

  int timeout_ms_;
  /// Rank kLockManager; a leaf on the transaction path (never held while
  /// calling into storage). condition_variable_any waits on the Mutex
  /// directly (BasicLockable), keeping the rank checker's held-set accurate
  /// across blocking waits.
  mutable Mutex mu_{LatchRank::kLockManager};
  std::condition_variable_any cv_;
  std::unordered_map<Key, LockState, KeyHash> locks_ SIAS_GUARDED_BY(mu_);
};

}  // namespace sias
