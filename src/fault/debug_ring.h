// Post-mortem event ring for crash debugging.
//
// Crash bugs in this engine are exquisitely sensitive to perturbation: a
// single stderr write during the run can shift library-internal state enough
// to mask a failure (observed in practice with the seeded power-cut fuzz).
// This ring therefore records events with NO allocation and NO I/O — fixed
// POD slots in static storage, a relaxed atomic cursor — and is only
// rendered to text after the interesting part of the run is over.
//
// Recording is off by default and costs one relaxed load on the fast path.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace sias {
namespace fault {

struct DebugEvent {
  char tag[24];
  uint64_t a, b, c, d;
};

/// Enable/disable recording (e.g. around a failing reproduction).
void DebugRingEnable(bool on);

/// Drop all recorded events and reset the cursor.
void DebugRingReset();

/// Record one event. Safe from any thread; no-op while disabled.
void DebugRingLog(const char* tag, uint64_t a = 0, uint64_t b = 0,
                  uint64_t c = 0, uint64_t d = 0);

/// Render the ring (oldest recorded event first) as one line per event.
/// Allocates — call only post-mortem.
std::string DebugRingDump();

}  // namespace fault
}  // namespace sias
