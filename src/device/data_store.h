// Sparse RAM backing store shared by all simulated devices.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/latch.h"

namespace sias {

/// Sparse byte store with 4 KB chunk granularity. Unwritten bytes read as
/// zero. Thread-safe.
class DataStore {
 public:
  static constexpr size_t kChunk = 4096;

  void Read(uint64_t offset, size_t len, uint8_t* out) const {
    MutexLock g(&mu_);
    while (len > 0) {
      uint64_t chunk = offset / kChunk;
      size_t in_off = offset % kChunk;
      size_t n = std::min(len, kChunk - in_off);
      auto it = chunks_.find(chunk);
      if (it == chunks_.end()) {
        memset(out, 0, n);
      } else {
        memcpy(out, it->second.get() + in_off, n);
      }
      out += n;
      offset += n;
      len -= n;
    }
  }

  void Write(uint64_t offset, size_t len, const uint8_t* data) {
    MutexLock g(&mu_);
    while (len > 0) {
      uint64_t chunk = offset / kChunk;
      size_t in_off = offset % kChunk;
      size_t n = std::min(len, kChunk - in_off);
      auto& ptr = chunks_[chunk];
      if (!ptr) {
        ptr = std::make_unique<uint8_t[]>(kChunk);
        memset(ptr.get(), 0, kChunk);
      }
      memcpy(ptr.get() + in_off, data, n);
      data += n;
      offset += n;
      len -= n;
    }
  }

 private:
  /// Rank kDeviceStore: terminal leaf of the device layer.
  mutable Mutex mu_{LatchRank::kDeviceStore};
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> chunks_
      SIAS_GUARDED_BY(mu_);
};

}  // namespace sias
