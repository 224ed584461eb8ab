// sias-virtual-time POSITIVE fixture: other spellings of the banned
// sources. Each line marked BAD must be flagged, and no other.

#include <chrono>
#include <cstdlib>
#include <ctime>

namespace fixture {

using Clock = std::chrono::system_clock;
typedef std::chrono::steady_clock Steady;

long Unqualified() {
  using namespace std::chrono;
  return steady_clock::now().time_since_epoch().count();  // BAD
}

long Aliased() {
  return Clock::now().time_since_epoch().count() +  // BAD
         Steady::now().time_since_epoch().count();  // BAD
}

long Seconds() {
  long a = static_cast<long>(std::time(nullptr));  // BAD
  long b = static_cast<long>(::time(nullptr));  // BAD
  return a + b + ::rand();  // BAD
}

unsigned long long Cycles() {
  return __builtin_ia32_rdtsc();  // BAD
}

}  // namespace fixture
