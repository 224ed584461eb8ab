// Minimal leveled logging + invariant checking.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace sias {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Log threshold; messages below it are suppressed.
inline constexpr LogLevel kLogLevel = LogLevel::kWarn;

}  // namespace sias

#define SIAS_LOG(level, ...)                                          \
  do {                                                                \
    if (static_cast<int>(level) >=                                    \
        static_cast<int>(::sias::kLogLevel)) {                        \
      fprintf(stderr, "[%s] ",                                        \
              level == ::sias::LogLevel::kDebug  ? "DEBUG"            \
              : level == ::sias::LogLevel::kInfo ? "INFO"             \
              : level == ::sias::LogLevel::kWarn ? "WARN"             \
                                                 : "ERROR");          \
      fprintf(stderr, __VA_ARGS__);                                   \
      fprintf(stderr, "\n");                                          \
    }                                                                 \
  } while (0)

#define SIAS_DEBUG(...) SIAS_LOG(::sias::LogLevel::kDebug, __VA_ARGS__)
#define SIAS_INFO(...) SIAS_LOG(::sias::LogLevel::kInfo, __VA_ARGS__)
#define SIAS_WARN(...) SIAS_LOG(::sias::LogLevel::kWarn, __VA_ARGS__)
#define SIAS_ERROR(...) SIAS_LOG(::sias::LogLevel::kError, __VA_ARGS__)

/// Invariant check that stays on in release builds: storage engines must not
/// continue past corrupted internal state.
#define SIAS_CHECK(cond)                                                  \
  do {                                                                    \
    if (!(cond)) {                                                        \
      fprintf(stderr, "SIAS_CHECK failed at %s:%d: %s\n", __FILE__,       \
              __LINE__, #cond);                                           \
      abort();                                                            \
    }                                                                     \
  } while (0)

#define SIAS_CHECK_MSG(cond, ...)                                         \
  do {                                                                    \
    if (!(cond)) {                                                        \
      fprintf(stderr, "SIAS_CHECK failed at %s:%d: %s: ", __FILE__,       \
              __LINE__, #cond);                                           \
      fprintf(stderr, __VA_ARGS__);                                       \
      fprintf(stderr, "\n");                                              \
      abort();                                                            \
    }                                                                     \
  } while (0)
