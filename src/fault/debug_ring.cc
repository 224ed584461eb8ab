#include "fault/debug_ring.h"

#include <cstring>

namespace sias {
namespace fault {

namespace {

constexpr size_t kRingSlots = 1 << 16;

DebugEvent g_ring[kRingSlots];
std::atomic<uint64_t> g_cursor{0};
std::atomic<bool> g_enabled{false};

}  // namespace

void DebugRingEnable(bool on) { g_enabled.store(on, std::memory_order_release); }

void DebugRingReset() { g_cursor.store(0, std::memory_order_release); }

void DebugRingLog(const char* tag, uint64_t a, uint64_t b, uint64_t c,
                  uint64_t d) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  uint64_t i = g_cursor.fetch_add(1, std::memory_order_relaxed);
  DebugEvent& e = g_ring[i % kRingSlots];
  std::strncpy(e.tag, tag, sizeof(e.tag) - 1);
  e.tag[sizeof(e.tag) - 1] = '\0';
  e.a = a;
  e.b = b;
  e.c = c;
  e.d = d;
}

std::string DebugRingDump() {
  uint64_t end = g_cursor.load(std::memory_order_acquire);
  uint64_t begin = end > kRingSlots ? end - kRingSlots : 0;
  std::string out;
  for (uint64_t i = begin; i < end; ++i) {
    const DebugEvent& e = g_ring[i % kRingSlots];
    out += std::to_string(i) + " " + e.tag + " " + std::to_string(e.a) + " " +
           std::to_string(e.b) + " " + std::to_string(e.c) + " " +
           std::to_string(e.d) + "\n";
  }
  return out;
}

}  // namespace fault
}  // namespace sias
