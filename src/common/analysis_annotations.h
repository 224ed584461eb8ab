// Static-analysis markers read by the sias-tidy checks
// (tools/sias-tidy/sias_tidy_lite.py, docs/STATIC_ANALYSIS.md). Complements
// common/thread_annotations.h, which carries the Clang thread-safety
// capability attributes; the sias-tidy checks match these macro names in
// the source text rather than anything the compiler emits.
//
// SIAS_EPOCH_PROTECTED expands to nothing, SIAS_WALLCLOCK_OK and
// SIAS_DEAD_API_OK to a static_assert, so annotating is always free at
// runtime.
#pragma once

// Marks a function or method whose returned pointer (or pointee handle)
// refers to storage reclaimed through the epoch queue (src/mvcc/epoch.h):
// VidMapV entry vectors, published tuple bytes inside buffer frames, and
// the optimistic-fetch frame surface. The sias-epoch-escape check enforces
// the reclamation contract on such pointers:
//
//   * they must not be stored into fields, globals or statics, and
//   * they must not be returned from a function that is not itself
//     SIAS_EPOCH_PROTECTED (returning re-publishes the pointer past the
//     scope whose EpochGuard / pin made it safe).
//
// Holding the pointer in locals and copying the pointee out is fine — that
// is exactly what the latch-free read path does under its EpochGuard.
#define SIAS_EPOCH_PROTECTED

// Audited-waiver marker for the sias-virtual-time check, which bans
// wall-clock and non-deterministic sources (std::chrono::*_clock::now,
// time(), rand(), std::random_device, rdtsc) outside the obs/ exporters:
// virtual-time determinism is what makes SIAS_CRASH_SEED replays and the
// device simulation honest (docs/FAULTS.md, common/vclock.h).
//
// Place the waiver on the line of — or within the five lines preceding —
// the wall-clock call it excuses (the window accommodates a multi-line
// justification), with a non-empty justification string:
//
//   SIAS_WALLCLOCK_OK("liveness backstop; duration modeled in vtime");
//   auto deadline = std::chrono::steady_clock::now() + ...;
//
// One waiver excuses one call site. The justification must say why the
// call cannot perturb simulated timing or seeded replays; empty strings
// fail to compile, and the check rejects waivers it cannot pair with a
// banned call.
#define SIAS_WALLCLOCK_OK(justification)                              \
  static_assert(sizeof(justification) > 1,                            \
                "SIAS_WALLCLOCK_OK requires a non-empty justification \
string")

// Audited-waiver marker for the sias-dead-api check, which flags a function
// declared in a src/ header that nothing in src/, bench/, perfbench/,
// examples/ or tools/ calls: a test calling it does not make it live. A
// deliberate test hook, which exists so tests can steer or observe the
// engine, takes this waiver on its declaration line or within the five
// lines above it, with a justification naming the tests that use it:
//
//   SIAS_DEAD_API_OK("txn_test pauses Begin between its publish steps");
//   void SetPauseHookForTest(void (*hook)(TxnPausePoint));
//
// One waiver excuses one declaration. Empty strings fail to compile, and
// the check reports a waiver as stale once its declaration has a caller
// outside tests, or when no declaration follows it.
#define SIAS_DEAD_API_OK(justification)                               \
  static_assert(sizeof(justification) > 1,                            \
                "SIAS_DEAD_API_OK requires a non-empty justification")
