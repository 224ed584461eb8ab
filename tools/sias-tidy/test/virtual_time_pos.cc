// sias-virtual-time POSITIVE fixture: un-waived wall-clock reads and a
// stale waiver. Each line marked BAD must be flagged, and no other.

#include <chrono>
#include <cstdlib>

#if defined(__clang__) || defined(__GNUC__)
#define SIAS_WALLCLOCK_OK(justification)                              \
  static_assert(sizeof(justification) > 1,                            \
                "SIAS_WALLCLOCK_OK requires a non-empty justification")
#endif

namespace fixture {

long Stamp() {
  // Wall-clock read without a SIAS_WALLCLOCK_OK waiver.
  return std::chrono::steady_clock::now().time_since_epoch().count();  // BAD
}

int Roll() {
  return std::rand();  // BAD: non-deterministic PRNG
}

void StaleWaiver() {
  SIAS_WALLCLOCK_OK("orphaned: nothing to excuse");  // BAD: pairs with no call
}

}  // namespace fixture
