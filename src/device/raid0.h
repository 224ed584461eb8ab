// Software RAID-0 (striping), as in the paper's 2-SSD and 6-SSD arrays.
#pragma once

#include <memory>
#include <vector>

#include "device/device.h"

namespace sias {

/// Stripes the address space across member devices in fixed-size chunks.
/// A host I/O spanning several stripes fans out to the members; the caller's
/// clock advances to the latest member completion (parallel service).
class Raid0 : public StorageDevice {
 public:
  Raid0(std::vector<std::unique_ptr<StorageDevice>> members,
        uint64_t stripe_bytes = 64 * 1024);

  Status Read(uint64_t offset, size_t len, uint8_t* out,
              VirtualClock* clk) override;
  Status Write(uint64_t offset, size_t len, const uint8_t* data,
               VirtualClock* clk, bool background = false) override;
  Status Trim(uint64_t offset, size_t len) override;
  Status Sync(VirtualClock* clk) override;

  uint64_t capacity_bytes() const override { return capacity_; }
  DeviceStats stats() const override;

  /// Member telemetries merged (channels concatenate in member order).
  DeviceTelemetry telemetry() const override;

 private:
  struct Segment {
    size_t member;
    uint64_t member_offset;
    uint64_t host_offset;
    size_t len;
  };
  std::vector<Segment> Split(uint64_t offset, size_t len) const;

  std::vector<std::unique_ptr<StorageDevice>> members_;
  uint64_t stripe_;
  uint64_t capacity_;
};

}  // namespace sias
