#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace sias {
namespace {

// Table-driven CRC32C (reflected polynomial 0x82f63b78).
constexpr std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0x82f63b78u & (~(crc & 1) + 1));
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = BuildTable();

// Both paths take and return the raw (pre-/post-inverted) register.
uint32_t CrcPortable(const uint8_t* p, size_t n, uint32_t crc) {
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
// SSE4.2 `crc32` computes the same polynomial in hardware. Head bytes up to
// an 8-byte boundary, then one 64-bit step per word, then the tail bytes.
__attribute__((target("sse4.2"))) uint32_t CrcSse42(const uint8_t* p,
                                                    size_t n, uint32_t crc) {
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  uint64_t crc64 = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}
#endif

using CrcFn = uint32_t (*)(const uint8_t*, size_t, uint32_t);

CrcFn ChooseCrc() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // the first call may come from a static initializer
  if (__builtin_cpu_supports("sse4.2")) return CrcSse42;
#endif
  return CrcPortable;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
  static const CrcFn crc = ChooseCrc();
  return ~crc(static_cast<const uint8_t*>(data), n, ~init);
}

uint32_t Crc32cPortableForTest(const void* data, size_t n, uint32_t init) {
  return ~CrcPortable(static_cast<const uint8_t*>(data), n, ~init);
}

}  // namespace sias
