// Clang thread-safety-analysis attribute macros (capability model).
//
// Under Clang the macros expand to the `capability` attribute family and
// every Clang build enforces them with -Werror=thread-safety (set in the
// root CMakeLists.txt). Under other compilers they expand to nothing, so
// GCC builds see plain code.
//
// The locking vocabulary these macros annotate lives in common/latch.h
// (SpinLatch, Mutex, SharedMutex and their guards); the global acquisition
// order they must respect is in src/check/latch_order.h and
// docs/CONCURRENCY.md.
//
// This header is the ONLY place analysis suppression may appear
// (SIAS_NO_THREAD_SAFETY_ANALYSIS); engine code must not silence the
// analysis ad hoc.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SIAS_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef SIAS_THREAD_ANNOTATION__
#define SIAS_THREAD_ANNOTATION__(x)  // not Clang: no-op
#endif

/// Class attribute: the type is a lockable capability ("mutex").
#define SIAS_CAPABILITY(x) SIAS_THREAD_ANNOTATION__(capability(x))

/// Class attribute: RAII object that acquires in its constructor and
/// releases in its destructor.
#define SIAS_SCOPED_CAPABILITY SIAS_THREAD_ANNOTATION__(scoped_lockable)

/// Data member may only be read/written while holding `x`.
#define SIAS_GUARDED_BY(x) SIAS_THREAD_ANNOTATION__(guarded_by(x))

/// Pointed-to data (not the pointer itself) is protected by `x`.
#define SIAS_PT_GUARDED_BY(x) SIAS_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function requires the listed capabilities held exclusively on entry.
#define SIAS_REQUIRES(...) \
  SIAS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function requires the listed capabilities held (at least) shared.
#define SIAS_REQUIRES_SHARED(...) \
  SIAS_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively and does not release it.
#define SIAS_ACQUIRE(...) \
  SIAS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function acquires the capability shared and does not release it.
#define SIAS_ACQUIRE_SHARED(...) \
  SIAS_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// Function releases an exclusively-held capability.
#define SIAS_RELEASE(...) \
  SIAS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function releases a shared-held capability.
#define SIAS_RELEASE_SHARED(...) \
  SIAS_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Function releases a capability held in either mode (generic guards).
#define SIAS_RELEASE_GENERIC(...) \
  SIAS_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

/// Function attempts the acquisition; holds it iff the return value equals
/// the first macro argument.
#define SIAS_TRY_ACQUIRE(...) \
  SIAS_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

#define SIAS_TRY_ACQUIRE_SHARED(...) \
  SIAS_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrant acquire paths).
#define SIAS_EXCLUDES(...) \
  SIAS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (rank-checker hook);
/// informs the static analysis likewise.
#define SIAS_ASSERT_CAPABILITY(x) \
  SIAS_THREAD_ANNOTATION__(assert_capability(x))

/// Function returns a reference to the capability guarding its result.
#define SIAS_RETURN_CAPABILITY(x) SIAS_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch for code the analysis cannot model. ONLY usable inside
/// common/latch.h wrappers; see file comment.
#define SIAS_NO_THREAD_SAFETY_ANALYSIS \
  SIAS_THREAD_ANNOTATION__(no_thread_safety_analysis)
