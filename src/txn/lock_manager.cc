#include "txn/lock_manager.h"

#include <chrono>

#include "common/analysis_annotations.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace sias {

namespace {

// Lock-wait telemetry (resolved once; see docs/OBSERVABILITY.md).
struct LockObs {
  obs::Counter* waits;
  obs::Counter* timeouts;
  obs::HistogramMetric* wait_vtime;

  LockObs() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    waits = reg.GetCounter("lock.waits");
    timeouts = reg.GetCounter("lock.timeouts");
    wait_vtime = reg.GetHistogram("lock.wait_vtime");
  }
};

LockObs& Obs() {
  static LockObs* obs = new LockObs();
  return *obs;
}

}  // namespace

Status LockManager::AcquireExclusive(RelationId relation, Vid vid, Xid xid,
                                     VirtualClock* clk) {
  Key key{relation, vid};
  MutexLock lock(&mu_);
  LockState& state = locks_[key];
  if (state.holder == xid) return Status::OK();  // re-entrant
  if (state.holder == kInvalidXid) {
    state.holder = xid;
    return Status::OK();
  }
  // Wait edge for the requester's span tree, tagged with the current
  // holder's xid; closes after AdvanceTo below so the span carries the
  // modeled virtual wait, not the wall-clock block.
  obs::SpanScope lock_wait_span(obs::SpanPhase::kLockWait, "lock", "wait",
                                state.holder);
  Obs().waits->Increment();
  state.waiters++;
  // The cv deadline must be wall-clock: a blocked thread's virtual clock
  // cannot advance, so a virtual deadline would never be reached and a
  // genuine deadlock would hang forever instead of aborting. The *timing
  // model* stays deterministic — the wait duration charged to the txn is
  // derived from last_release_vtime below, never from this clock.
  SIAS_WALLCLOCK_OK(
      "liveness backstop for real thread blocking; wait duration is "
      "modeled in virtual time via last_release_vtime");
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms_);
  // Explicit predicate loop (not the predicate overload): the analysis can
  // only see that mu_ stays held across the wait when the guarded access
  // sits in this scope rather than inside a lambda.
  bool got = false;
  for (;;) {
    if (locks_[key].holder == kInvalidXid) {
      got = true;
      break;
    }
    if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
      got = locks_[key].holder == kInvalidXid;
      break;
    }
  }
  LockState& st = locks_[key];
  st.waiters--;
  if (!got) {
    if (st.holder == kInvalidXid && st.waiters == 0) locks_.erase(key);
    Obs().timeouts->Increment();
    return Status::LockTimeout("row lock wait timed out");
  }
  st.holder = xid;
  // Model the wait in virtual time: the lock was freed at last_release_vtime.
  if (clk != nullptr) {
    VTime wait_start = clk->now();
    clk->AdvanceTo(st.last_release_vtime);
    Obs().wait_vtime->Record(clk->now() - wait_start);
  }
  return Status::OK();
}

Status LockManager::TryAcquireExclusive(RelationId relation, Vid vid,
                                        Xid xid) {
  Key key{relation, vid};
  MutexLock lock(&mu_);
  LockState& state = locks_[key];
  if (state.holder == xid) return Status::OK();
  if (state.holder == kInvalidXid) {
    state.holder = xid;
    return Status::OK();
  }
  if (state.waiters == 0 && state.holder == kInvalidXid) locks_.erase(key);
  return Status::SerializationFailure("row locked by concurrent transaction");
}

void LockManager::Release(RelationId relation, Vid vid, Xid xid,
                          VTime release_vtime) {
  Key key{relation, vid};
  MutexLock lock(&mu_);
  auto it = locks_.find(key);
  if (it == locks_.end() || it->second.holder != xid) return;
  it->second.holder = kInvalidXid;
  it->second.last_release_vtime =
      std::max(it->second.last_release_vtime, release_vtime);
  if (it->second.waiters == 0) {
    locks_.erase(it);
  } else {
    cv_.notify_all();
  }
}

size_t LockManager::HeldCount() const {
  MutexLock lock(&mu_);
  size_t n = 0;
  for (const auto& [k, v] : locks_) {
    if (v.holder != kInvalidXid) n++;
  }
  return n;
}

}  // namespace sias
