// CRC32C (Castagnoli) used for page and WAL-record checksums.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sias {

/// Computes CRC32C over `data[0..n)`, extending `init` (0 to start fresh).
uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0);

/// Masked CRC so that checksums of data containing embedded CRCs stay
/// well-distributed (the RocksDB/LevelDB trick).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

}  // namespace sias
