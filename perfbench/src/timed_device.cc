#include "timed_device.h"

namespace perfbench {

using sias::IoHandle;
using sias::IoOp;
using sias::IoRequest;
using sias::Result;
using sias::Status;
using sias::VirtualClock;
using sias::VTime;

/// One forwarded call: a device span on traced operations, whose wall and
/// CPU time also accumulate into the decorator's totals.
class TimedDevice::Call {
 public:
  explicit Call(TimedDevice* dev) : dev_(dev), trace_(CurrentTrace()) {
    if (trace_ != nullptr && trace_->active()) {
      idx_ = trace_->Open(dev->kind_);
    } else {
      trace_ = nullptr;
    }
  }
  ~Call() {
    if (trace_ == nullptr) return;
    const Span& s = trace_->Close(idx_);
    dev_->wall_ns_.fetch_add(s.end_ns - s.start_ns, std::memory_order_relaxed);
    dev_->cpu_ns_.fetch_add(s.cpu_ns, std::memory_order_relaxed);
  }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

 private:
  TimedDevice* dev_;
  ThreadTrace* trace_;
  int idx_ = -1;
};

void TimedDevice::CountRead(size_t len) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  read_bytes_.fetch_add(len, std::memory_order_relaxed);
}

void TimedDevice::CountWrite(size_t len) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  write_bytes_.fetch_add(len, std::memory_order_relaxed);
}

Status TimedDevice::Read(uint64_t offset, size_t len, uint8_t* out,
                         VirtualClock* clk) {
  Call c(this);
  CountRead(len);
  return inner_->Read(offset, len, out, clk);
}

Status TimedDevice::Write(uint64_t offset, size_t len, const uint8_t* data,
                          VirtualClock* clk, bool background) {
  Call c(this);
  CountWrite(len);
  return inner_->Write(offset, len, data, clk, background);
}

Status TimedDevice::Trim(uint64_t offset, size_t len) {
  Call c(this);
  return inner_->Trim(offset, len);
}

Status TimedDevice::Sync(VirtualClock* clk) {
  Call c(this);
  return inner_->Sync(clk);
}

Result<IoHandle> TimedDevice::Submit(const IoRequest& req, VTime now) {
  Call c(this);
  if (req.op == IoOp::kRead) {
    CountRead(req.len);
  } else {
    CountWrite(req.len);
  }
  return inner_->Submit(req, now);
}

Status TimedDevice::Wait(IoHandle h, VirtualClock* clk) {
  Call c(this);
  return inner_->Wait(h, clk);
}

bool TimedDevice::Poll(IoHandle h, VTime now, Status* status) {
  Call c(this);
  return inner_->Poll(h, now, status);
}

Status TimedDevice::Cancel(IoHandle h, VirtualClock* clk) {
  Call c(this);
  return inner_->Cancel(h, clk);
}

TimedDevice::Counts TimedDevice::counts() const {
  Counts c;
  c.reads = reads_.load(std::memory_order_relaxed);
  c.writes = writes_.load(std::memory_order_relaxed);
  c.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  c.write_bytes = write_bytes_.load(std::memory_order_relaxed);
  c.wall_ns = wall_ns_.load(std::memory_order_relaxed);
  c.cpu_ns = cpu_ns_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace perfbench
