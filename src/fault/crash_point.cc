#include "fault/crash_point.h"

#include "fault/fault_injector.h"

namespace sias {
namespace fault {
namespace internal {

std::atomic<FaultInjector*> g_armed_injector{nullptr};

Status DispatchCrashPoint(FaultInjector* injector, const char* name) {
  return injector->OnCrashPoint(name);
}

}  // namespace internal
}  // namespace fault
}  // namespace sias
