// Virtual time.
//
// siasdb measures experiment durations in *virtual* nanoseconds, not wall
// clock: each terminal (worker thread) owns a VirtualClock, and every
// simulated device advances the clock of the requester by the modelled
// queueing + service time of the I/O. Transaction logic runs at real-thread
// speed with genuine lock interleavings; only I/O *duration* is simulated.
// This is how the repository reproduces SSD/HDD results without the paper's
// hardware (DESIGN.md §3.1).
#pragma once

#include <algorithm>
#include <atomic>

#include "common/types.h"

namespace sias {

/// Per-terminal virtual clock. Not thread-safe: exactly one worker advances
/// it. Devices read `now()` and call `AdvanceTo` / `Advance`.
class VirtualClock {
 public:
  explicit VirtualClock(VTime start = 0) : now_(start) {}

  VTime now() const { return now_; }
  void Advance(VDuration d) { now_ += d; }
  void AdvanceTo(VTime t) { now_ = std::max(now_, t); }

  /// Models CPU work (visibility checks, hash probes) in virtual time so
  /// that fully cached workloads remain CPU-bound, as on real hardware.
  void Cpu(VDuration d) { now_ += d; }

 private:
  VTime now_;
};

/// A shared monotone high-water mark, e.g. a device channel's "busy until"
/// instant. Lock-free: concurrent reservations serialize via CAS.
class AtomicVTime {
 public:
  explicit AtomicVTime(VTime init = 0) : t_(init) {}

  VTime load() const { return t_.load(std::memory_order_acquire); }

  /// Reserves the interval [max(at, busy_until), +len) and returns its start.
  /// This is the queueing model: a request arriving at `at` waits until the
  /// resource frees up, then occupies it for `len`.
  VTime Reserve(VTime at, VDuration len) {
    VTime cur = t_.load(std::memory_order_relaxed);
    for (;;) {
      VTime start = std::max(at, cur);
      if (t_.compare_exchange_weak(cur, start + len,
                                   std::memory_order_acq_rel)) {
        return start;
      }
    }
  }

 private:
  std::atomic<VTime> t_;
};

}  // namespace sias
