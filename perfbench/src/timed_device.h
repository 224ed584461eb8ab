// TimedDevice: a StorageDevice decorator owned by the benchmark. It wraps the
// data device and the WAL device, forwards every virtual method to the
// wrapped device, and counts operations and bytes. On a traced operation it
// also opens a device span, so device wall time and thread-CPU time are
// measured from outside src/device.
#pragma once

#include <atomic>
#include <cstdint>

#include "device/device.h"
#include "trace.h"

namespace perfbench {

class TimedDevice final : public sias::StorageDevice {
 public:
  /// `inner` must outlive this decorator. `kind` is kDataDevice or
  /// kWalDevice: the span its calls record.
  TimedDevice(sias::StorageDevice* inner, SpanKind kind)
      : inner_(inner), kind_(kind) {}

  sias::Status Read(uint64_t offset, size_t len, uint8_t* out,
                    sias::VirtualClock* clk) override;
  sias::Status Write(uint64_t offset, size_t len, const uint8_t* data,
                     sias::VirtualClock* clk, bool background) override;
  sias::Status Trim(uint64_t offset, size_t len) override;
  sias::Status Sync(sias::VirtualClock* clk) override;
  sias::Result<sias::IoHandle> Submit(const sias::IoRequest& req,
                                      sias::VTime now) override;
  sias::Status Wait(sias::IoHandle h, sias::VirtualClock* clk) override;
  bool Poll(sias::IoHandle h, sias::VTime now, sias::Status* status) override;
  sias::Status Cancel(sias::IoHandle h, sias::VirtualClock* clk) override;
  uint64_t capacity_bytes() const override { return inner_->capacity_bytes(); }
  sias::DeviceStats stats() const override { return inner_->stats(); }
  sias::DeviceTelemetry telemetry() const override {
    return inner_->telemetry();
  }

  /// Cumulative counts since construction. Reads and writes include
  /// asynchronous submissions; wall and CPU time cover every call made
  /// during a traced operation (trim, sync and completions included).
  struct Counts {
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
    int64_t wall_ns = 0;
    int64_t cpu_ns = 0;
  };
  Counts counts() const;

 private:
  class Call;

  void CountRead(size_t len);
  void CountWrite(size_t len);

  sias::StorageDevice* inner_;
  SpanKind kind_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<int64_t> wall_ns_{0};
  std::atomic<int64_t> cpu_ns_{0};
};

}  // namespace perfbench
