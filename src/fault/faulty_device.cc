#include "fault/faulty_device.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "fault/debug_ring.h"
#include "obs/metrics.h"

namespace sias {
namespace fault {

FaultyDevice::FaultyDevice(StorageDevice* inner, FaultInjector* injector,
                           Options options)
    : inner_(inner), injector_(injector), options_(std::move(options)) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_cached_writes_ = reg.GetCounter("fault.device.cached_writes");
  m_synced_writes_ = reg.GetCounter("fault.device.synced_writes");
  m_dropped_writes_ = reg.GetCounter("fault.device.dropped_writes");
  if (injector_ != nullptr) injector_->RegisterDevice(this);
}

FaultyDevice::~FaultyDevice() {
  if (injector_ != nullptr) injector_->UnregisterDevice(this);
}

Status FaultyDevice::Read(uint64_t offset, size_t len, uint8_t* out,
                          VirtualClock* clk) {
  // Synchronous ops observe every prior submission: drain the deferred
  // queue first so read-own-writes holds across the sync/async boundary.
  ExecuteThrough(~0ull);
  return ReadImpl(offset, len, out, clk);
}

Status FaultyDevice::ReadImpl(uint64_t offset, size_t len, uint8_t* out,
                              VirtualClock* clk) {
  if (crashed()) return Status::IoError("device is powered off");
  std::optional<AppliedFault> fault;
  if (injector_ != nullptr && injector_->armed()) {
    fault = injector_->OnDeviceOp(OpClass::kRead, options_.tag, offset, len);
  }
  if (fault.has_value()) {
    switch (fault->kind) {
      case FaultKind::kPowerCut:
        injector_->TriggerPowerCut(fault->tear);
        return Status::IoError("power cut during read");
      case FaultKind::kTransientIoError:
        return Status::TransientIoError("injected transient read error");
      case FaultKind::kLatencySpike:
        if (clk != nullptr) clk->Advance(fault->latency);
        break;
      default:
        break;  // kBitFlip applies after the read; torn/partial are write-only
    }
  }
  if (!options_.write_back) {
    // Pass-through mode never has volatile state: no latch on the fast path.
    SIAS_RETURN_NOT_OK(inner_->Read(offset, len, out, clk));
  } else {
    MutexLock g(&mu_);
    SIAS_RETURN_NOT_OK(inner_->Read(offset, len, out, clk));
    // Overlay pending (volatile) writes in FIFO order so the engine
    // observes its own unsynced data.
    for (const PendingWrite& pw : pending_) {
      uint64_t lo = std::max(offset, pw.offset);
      uint64_t hi = std::min(offset + len, pw.offset + pw.data.size());
      if (lo >= hi) continue;
      std::memcpy(out + (lo - offset), pw.data.data() + (lo - pw.offset),
                  hi - lo);
    }
  }
  if (fault.has_value() && fault->kind == FaultKind::kBitFlip && len > 0) {
    out[(fault->arg / 8) % len] ^= uint8_t(1) << (fault->arg % 8);
  }
  return Status::OK();
}

Status FaultyDevice::Write(uint64_t offset, size_t len, const uint8_t* data,
                           VirtualClock* clk, bool background) {
  ExecuteThrough(~0ull);
  return WriteImpl(offset, len, data, clk, background);
}

Status FaultyDevice::WriteImpl(uint64_t offset, size_t len,
                               const uint8_t* data, VirtualClock* clk,
                               bool background) {
  if (crashed()) return Status::IoError("device is powered off");
  SIAS_RETURN_NOT_OK(CheckRange(offset, len));
  std::optional<AppliedFault> fault;
  if (injector_ != nullptr && injector_->armed()) {
    fault = injector_->OnDeviceOp(OpClass::kWrite, options_.tag, offset, len);
  }
  // Data-mutation faults rewrite the payload (or its effective length)
  // before it is cached/forwarded; the op still reports success — that is
  // the point of silent corruption.
  std::vector<uint8_t> mutated;
  size_t effective_len = len;
  if (fault.has_value()) {
    switch (fault->kind) {
      case FaultKind::kPowerCut:
        injector_->TriggerPowerCut(fault->tear);
        return Status::IoError("power cut during write");
      case FaultKind::kTransientIoError:
        return Status::TransientIoError("injected transient write error");
      case FaultKind::kLatencySpike:
        if (clk != nullptr) clk->Advance(fault->latency);
        break;
      case FaultKind::kTornWrite:
        // Keep a sector-aligned prefix; arg is the sector count to keep.
        effective_len = size_t(fault->arg) * kSectorBytes;
        break;
      case FaultKind::kPartialSectorWrite: {
        // Keep `arg` bytes of new data; the rest of that sector keeps its
        // previous contents, so the persisted range stays sector-aligned.
        size_t keep = std::min<size_t>(fault->arg, len);
        size_t rounded = ((keep + kSectorBytes - 1) / kSectorBytes) *
                         kSectorBytes;
        rounded = std::max<size_t>(rounded, kSectorBytes);
        rounded = std::min(rounded, len);
        mutated.resize(rounded);
        {
          MutexLock g(&mu_);
          Status st = inner_->Read(offset, rounded, mutated.data(), nullptr);
          if (!st.ok()) std::memset(mutated.data(), 0, rounded);
          for (const PendingWrite& pw : pending_) {
            uint64_t lo = std::max(offset, pw.offset);
            uint64_t hi =
                std::min(offset + rounded, pw.offset + pw.data.size());
            if (lo >= hi) continue;
            std::memcpy(mutated.data() + (lo - offset),
                        pw.data.data() + (lo - pw.offset), hi - lo);
          }
        }
        std::memcpy(mutated.data(), data, keep);
        data = mutated.data();
        effective_len = rounded;
        break;
      }
      case FaultKind::kBitFlip:
        mutated.assign(data, data + len);
        mutated[(fault->arg / 8) % len] ^= uint8_t(1) << (fault->arg % 8);
        data = mutated.data();
        break;
    }
  }
  if (effective_len == 0) return Status::OK();  // fully torn away
  if (!options_.write_back) {
    return inner_->Write(offset, effective_len, data, clk, background);
  }
  // Write-back: the payload lands in the volatile cache at memory speed;
  // durability (and its virtual-time cost) is deferred to Sync().
  MutexLock g(&mu_);
  DebugRingLog("dev_cache_write", options_.tag.size(), offset, effective_len);
  pending_.push_back(PendingWrite{offset, {data, data + effective_len}});
  m_cached_writes_->Increment();
  return Status::OK();
}

Status FaultyDevice::Trim(uint64_t offset, size_t len) {
  ExecuteThrough(~0ull);
  if (crashed()) return Status::IoError("device is powered off");
  return inner_->Trim(offset, len);
}

Status FaultyDevice::Sync(VirtualClock* clk) {
  // The fsync barrier covers every Write *issued* before it, including
  // asynchronous submissions that have not been waited yet.
  ExecuteThrough(~0ull);
  if (crashed()) return Status::IoError("device is powered off");
  if (injector_ != nullptr && injector_->armed()) {
    std::optional<AppliedFault> fault =
        injector_->OnDeviceOp(OpClass::kSync, options_.tag, 0, 0);
    if (fault.has_value()) {
      switch (fault->kind) {
        case FaultKind::kPowerCut:
          injector_->TriggerPowerCut(fault->tear);
          return Status::IoError("power cut during sync");
        case FaultKind::kTransientIoError:
          return Status::TransientIoError("injected transient sync error");
        case FaultKind::kLatencySpike:
          if (clk != nullptr) clk->Advance(fault->latency);
          break;
        default:
          break;  // data-mutation kinds do not apply to a barrier
      }
    }
  }
  if (!options_.write_back) return inner_->Sync(clk);
  MutexLock g(&mu_);
  DebugRingLog("dev_sync", options_.tag.size(), pending_.size());
  SIAS_RETURN_NOT_OK(FlushPrefixLocked(pending_.size(), 0, clk));
  m_synced_writes_->Add(pending_.size());
  pending_.clear();
  return inner_->Sync(clk);
}

Status FaultyDevice::FlushPrefixLocked(size_t n, size_t tear_sectors,
                                       VirtualClock* clk) {
  for (size_t i = 0; i < n; ++i) {
    const PendingWrite& pw = pending_[i];
    SIAS_RETURN_NOT_OK(
        inner_->Write(pw.offset, pw.data.size(), pw.data.data(), clk));
  }
  if (tear_sectors > 0 && n < pending_.size()) {
    const PendingWrite& pw = pending_[n];
    size_t bytes = std::min(tear_sectors * kSectorBytes, pw.data.size());
    SIAS_RETURN_NOT_OK(inner_->Write(pw.offset, bytes, pw.data.data(), clk));
  }
  return Status::OK();
}

void FaultyDevice::PowerCut(uint64_t plan_seed, bool tear) {
  MutexLock g(&mu_);
  if (crashed_.exchange(true, std::memory_order_acq_rel)) return;
  Random plan(plan_seed);
  const size_t n = pending_.size();
  // The cache controller had already retired some FIFO prefix of the queue;
  // everything after it is lost. Uniform over [0, n] so "nothing survived"
  // and "everything survived" are both reachable.
  const size_t keep = n > 0 ? size_t(plan.Uniform(0, n)) : 0;
  size_t tear_sectors = 0;
  if (tear && keep < n) {
    uint64_t sectors = pending_[keep].data.size() / kSectorBytes;
    if (sectors > 1) tear_sectors = size_t(plan.Uniform(1, sectors - 1));
  }
  DebugRingLog("power_cut", options_.tag.size(), n, keep, tear_sectors);
  Status st = FlushPrefixLocked(keep, tear_sectors, nullptr);
  SIAS_CHECK(st.ok());  // the inner device has no failure mode here
  m_dropped_writes_->Add(n - keep);
  pending_.clear();
}

void FaultyDevice::Revive() {
  {
    // Requests still queued at the cut never reached the cache controller;
    // the revived device must not replay them.
    MutexLock g(&io_pending_mu_);
    io_pending_.clear();
    io_queued_.store(0, std::memory_order_release);
  }
  MutexLock g(&mu_);
  pending_.clear();
  crashed_.store(false, std::memory_order_release);
}

Result<IoHandle> FaultyDevice::Submit(const IoRequest& req, VTime now) {
  // With no armed injector there is nothing to defer for: execute eagerly
  // like the base class, dispatching through the virtual Read/Write so the
  // write-back cache semantics still apply. The deferred queue — a payload
  // copy plus two latch round-trips per request — is paid only when faults
  // can actually fire at completion time; this keeps the disabled decorator
  // inside the bench gate's <=1% overhead budget. Arming the injector takes
  // effect for subsequent submissions, matching the per-op armed() sampling
  // on the synchronous paths. Never overtake requests already queued.
  if ((injector_ == nullptr || !injector_->armed()) &&
      io_queued_.load(std::memory_order_acquire) == 0) {
    return StorageDevice::Submit(req, now);
  }
  const uint64_t id = AllocateIoId();
  PendingIo p;
  p.id = id;
  p.req = req;
  p.submitted = now;
  if (req.op == IoOp::kWrite) {
    // Own the payload: deferred execution outlives the caller's buffer.
    p.payload.assign(req.data, req.data + req.len);
    p.req.data = nullptr;
  }
  MutexLock g(&io_pending_mu_);
  io_pending_.push_back(std::move(p));
  io_queued_.fetch_add(1, std::memory_order_release);
  return IoHandle{id};
}

Status FaultyDevice::Wait(IoHandle h, VirtualClock* clk) {
  ExecuteThrough(h.id);
  return StorageDevice::Wait(h, clk);
}

bool FaultyDevice::Poll(IoHandle h, VTime now, Status* status) {
  ExecuteThrough(h.id);
  return StorageDevice::Poll(h, now, status);
}

Status FaultyDevice::Cancel(IoHandle h, VirtualClock* clk) {
  {
    MutexLock g(&io_pending_mu_);
    for (auto it = io_pending_.begin(); it != io_pending_.end(); ++it) {
      if (it->id != h.id) continue;
      io_pending_.erase(it);
      io_queued_.fetch_sub(1, std::memory_order_release);
      IoCounters().cancelled->Increment();
      IoCounters().inflight->Add(-1);
      return Status::OK();
    }
  }
  return StorageDevice::Cancel(h, clk);
}

void FaultyDevice::ExecuteThrough(uint64_t through_id) {
  // Fast path for purely synchronous workloads: no queued submissions means
  // nothing to drain, and skipping the latch here keeps the disabled
  // decorator inside the bench gate's <=1% overhead budget.
  if (io_queued_.load(std::memory_order_acquire) == 0) return;
  MutexLock g(&io_pending_mu_);
  while (!io_pending_.empty() && io_pending_.front().id <= through_id) {
    PendingIo p = std::move(io_pending_.front());
    io_pending_.pop_front();
    io_queued_.fetch_sub(1, std::memory_order_release);
    // A scratch clock parked at the submission instant: the channel
    // calendar backfills by arrival time, so lazy execution reproduces the
    // reservation an eager dispatch would have made. Injector evaluation
    // happens HERE — faults (crash triggers, transient errors) fire on
    // completions, not submissions, and a power cut taken mid-drain leaves
    // the rest of the queue to fail with "powered off" completions.
    VirtualClock sub(p.submitted);
    Status st =
        p.req.op == IoOp::kRead
            ? ReadImpl(p.req.offset, p.req.len, p.req.out, &sub)
            : WriteImpl(p.req.offset, p.req.len, p.payload.data(), &sub,
                        p.req.background);
    StoreIoCompletion(p.id, std::move(st), p.submitted, sub.now());
  }
}

}  // namespace fault
}  // namespace sias
