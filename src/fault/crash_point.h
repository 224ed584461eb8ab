// Crash-point registry: named engine locations where the fault-injection
// subsystem can sever execution (power cut) or throw a transient I/O error.
//
// Sites are woven through the flush paths with SIAS_CRASH_POINT("name"):
// WAL group commit, sharp/paced checkpoints, append-region seal/open,
// buffer-pool dirty writeback and the control-block write. The disabled
// cost is one relaxed atomic load and a predicted-not-taken branch, so the
// sites stay compiled into release builds (guarded in CI by the
// bench_microbench fault-overhead gate).
//
// A site registers its name the first time it executes while an injector is
// armed; fault::CrashRunner's discovery pass uses that to enumerate the
// reachable crash points for a given workload. The catalogue of woven sites
// is documented in docs/FAULTS.md.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/status.h"

namespace sias {
namespace fault {

class FaultInjector;

namespace internal {

/// The single armed injector, or nullptr. Relaxed is sufficient: arming
/// happens-before the workload under test by construction (the harness arms
/// before spawning work and disarms after joining it).
extern std::atomic<FaultInjector*> g_armed_injector;

inline FaultInjector* ArmedInjector() {
  return g_armed_injector.load(std::memory_order_relaxed);
}

/// Slow path: registers `name` with the armed injector and asks it for a
/// verdict. Only called when an injector is armed.
Status DispatchCrashPoint(FaultInjector* injector, const char* name);

}  // namespace internal

/// Evaluates the crash point `name` against the armed injector (if any).
/// Returns non-OK when an injected fault severs the calling path; callers
/// unwind through their normal Status plumbing.
inline Status CrashPoint(const char* name) {
  FaultInjector* injector = internal::ArmedInjector();
  if (injector == nullptr) return Status::OK();
  return internal::DispatchCrashPoint(injector, name);
}

}  // namespace fault
}  // namespace sias

/// Weaves a named crash point into a Status-returning function. The early
/// return makes the injected fault behave exactly like a device error at
/// this point in the path.
#define SIAS_CRASH_POINT(name) SIAS_RETURN_NOT_OK(::sias::fault::CrashPoint(name))
