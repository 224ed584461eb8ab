// CRC32C (Castagnoli) used for page and WAL-record checksums.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/analysis_annotations.h"

namespace sias {

/// Computes CRC32C over `data[0..n)`, extending `init` (0 to start fresh):
/// Crc32c(b, Crc32c(a)) == Crc32c(a || b). Uses the SSE4.2 `crc32`
/// instruction when the CPU has it (chosen once, at first call) and a
/// byte-at-a-time table otherwise; both give the same value.
uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0);

/// The table path alone, whatever the CPU supports.
SIAS_DEAD_API_OK("common_test and storage_test check Crc32c against it");
uint32_t Crc32cPortableForTest(const void* data, size_t n, uint32_t init = 0);

/// Masked CRC so that checksums of data containing embedded CRCs stay
/// well-distributed (the RocksDB/LevelDB trick).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

}  // namespace sias
