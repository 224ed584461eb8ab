// Per-channel reservation calendar.
//
// A simulated device channel serves one request at a time. A naive monotone
// "busy until" mark penalizes requesters that are *behind* in virtual time:
// they queue after reservations made for later instants even though the
// channel was idle at their arrival time. The calendar keeps the recent
// reservation intervals and backfills requests into the earliest idle gap
// at or after their arrival, which is how a real device would have served
// them.
#pragma once

#include <algorithm>
#include <deque>

#include "common/latch.h"
#include "common/types.h"

namespace sias {

/// Thread-safe bounded reservation calendar for one serial resource.
class ChannelCalendar {
 public:
  /// Reserves `len` units at the earliest idle instant >= `at`; returns the
  /// reservation start.
  VTime Reserve(VTime at, VDuration len) {
    if (len == 0) return at;
    MutexLock g(&mu_);
    busy_total_ += len;
    // Find the earliest gap of size `len` at or after `at`. Intervals are
    // kept sorted by start and non-overlapping.
    VTime start = at;
    auto it = std::lower_bound(
        intervals_.begin(), intervals_.end(), start,
        [](const Interval& iv, VTime t) { return iv.end <= t; });
    while (it != intervals_.end()) {
      if (it->start >= start + len) break;  // fits in the gap before *it
      start = std::max(start, it->end);
      ++it;
    }
    // Insert, keeping order (it points at the first interval after `start`).
    intervals_.insert(it, Interval{start, start + len});
    if (intervals_.size() > kMaxIntervals) intervals_.pop_front();
    return start;
  }

  /// Cumulative reserved (busy) virtual time across the calendar's lifetime.
  /// Dividing by the makespan yields the channel's utilisation.
  VDuration busy_total() const {
    MutexLock g(&mu_);
    return busy_total_;
  }

 private:
  struct Interval {
    VTime start;
    VTime end;
  };
  static constexpr size_t kMaxIntervals = 256;

  /// Rank kDeviceCalendar: taken inside the device mutex (FlashSsd holds
  /// mu_ while reserving channel time).
  mutable Mutex mu_{LatchRank::kDeviceCalendar};
  std::deque<Interval> intervals_ SIAS_GUARDED_BY(mu_);
  VDuration busy_total_ SIAS_GUARDED_BY(mu_) = 0;
};

}  // namespace sias
