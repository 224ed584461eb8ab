// FaultyDevice: a StorageDevice decorator that models a volatile write-back
// cache and delivers injected faults.
//
// In write-back mode (the default for crash tests) every Write lands in a
// FIFO queue of pending writes instead of the inner device; Reads overlay
// the pending data so the engine observes its own writes; Sync() — the
// fsync barrier the WAL and control-block paths issue — drains the queue to
// the inner device and makes it durable. A power cut applies only a FIFO
// *prefix* of the queue (writes the cache controller had already retired),
// optionally tearing the first dropped write at sector granularity, and
// drops the rest; afterwards every op fails with kIoError until Revive().
//
// Because the prefix is FIFO-ordered and WAL blocks are written in LSN
// order within a flush burst, a power cut can only shorten the durable log
// from the tail — which is exactly the torn-tail model WalReader's
// corruption detection relies on (see docs/FAULTS.md).
//
// In write-through mode the decorator forwards every op immediately (no
// volatile state); this is the configuration the bench overhead gate wraps
// around bench_microbench to prove the disabled-injector fast path is free.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/latch.h"
#include "device/device.h"
#include "fault/fault_injector.h"

namespace sias {
namespace fault {

class FaultyDevice : public StorageDevice {
 public:
  struct Options {
    /// Buffer writes in a volatile cache until Sync (crash testing). When
    /// false the device is a transparent pass-through decorator.
    bool write_back = false;
    /// Tag matched against FaultRule::device_tag (e.g. "wal", "data").
    std::string tag;
  };

  /// `inner` and `injector` are borrowed and must outlive this device;
  /// `injector` may be nullptr (pure write-back model, no faults).
  FaultyDevice(StorageDevice* inner, FaultInjector* injector)
      : FaultyDevice(inner, injector, Options()) {}
  FaultyDevice(StorageDevice* inner, FaultInjector* injector, Options options);
  ~FaultyDevice() override;

  Status Read(uint64_t offset, size_t len, uint8_t* out,
              VirtualClock* clk) override;
  Status Write(uint64_t offset, size_t len, const uint8_t* data,
               VirtualClock* clk, bool background = false) override;
  Status Trim(uint64_t offset, size_t len) override;
  Status Sync(VirtualClock* clk) override;

  // -- Deferred asynchronous execution --------------------------------------
  //
  // Unlike the eager base implementation, Submit() only queues the request
  // (write payloads are copied); it executes lazily, in FIFO submission
  // order, when a handle at-or-after it is waited/polled or when any
  // synchronous op needs to observe prior submissions. That moves fault
  // evaluation — injector triggers, crash points, transient errors — to
  // *completion* time, and it means a power cut taken while requests are
  // still queued loses them entirely: they never reach the volatile write
  // cache, so to recovery they are indistinguishable from torn writes.
  Result<IoHandle> Submit(const IoRequest& req, VTime now) override;
  Status Wait(IoHandle h, VirtualClock* clk) override;
  bool Poll(IoHandle h, VTime now, Status* status) override;
  /// Cancels a still-queued request without ever executing it (the write is
  /// lost, the fault that would have fired on it never does); an already
  /// executed one just has its completion discarded.
  Status Cancel(IoHandle h, VirtualClock* clk) override;

  uint64_t capacity_bytes() const override { return inner_->capacity_bytes(); }
  /// Inner-device counters: in write-back mode cached-but-unsynced writes
  /// are not yet counted (they may never become durable).
  DeviceStats stats() const override { return inner_->stats(); }
  DeviceTelemetry telemetry() const override { return inner_->telemetry(); }

  /// Cuts power: durably applies a FIFO prefix of the pending writes (the
  /// prefix length and tear geometry derive deterministically from
  /// `plan_seed`), drops the rest, and fails all subsequent ops. Called by
  /// FaultInjector::TriggerPowerCut; tests may call it directly.
  void PowerCut(uint64_t plan_seed, bool tear);

  /// Clears the crashed flag after a power cut (the volatile cache is
  /// already gone). The next Open()/Recover() runs against the surviving
  /// bytes of the inner device.
  void Revive();

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  const std::string& tag() const { return options_.tag; }

 private:
  struct PendingWrite {
    uint64_t offset;
    std::vector<uint8_t> data;
  };

  /// One deferred asynchronous request (ids ascend in queue order).
  struct PendingIo {
    uint64_t id;
    IoRequest req;
    std::vector<uint8_t> payload;  ///< owned copy of a write's data
    VTime submitted;
  };

  /// Synchronous bodies (fault evaluation + cache/pass-through). The public
  /// Read/Write delegate after draining the deferred queue so synchronous
  /// ops always observe every prior submission.
  Status ReadImpl(uint64_t offset, size_t len, uint8_t* out,
                  VirtualClock* clk);
  Status WriteImpl(uint64_t offset, size_t len, const uint8_t* data,
                   VirtualClock* clk, bool background);

  /// Executes queued requests with id <= `through_id` in FIFO order (pass
  /// ~0ull to drain everything), recording each completion.
  void ExecuteThrough(uint64_t through_id);

  /// Applies `n` whole queued writes (and `tear_bytes` of the following
  /// one) to the inner device. Requires mu_.
  Status FlushPrefixLocked(size_t n, size_t tear_sectors, VirtualClock* clk)
      SIAS_REQUIRES(mu_);

  StorageDevice* const inner_;
  FaultInjector* const injector_;
  const Options options_;

  std::atomic<bool> crashed_{false};

  /// Rank kFaultyDevice: above the engine latches that issue I/O (pool,
  /// WAL, disk) and below the inner device's own latches.
  mutable Mutex mu_{LatchRank::kFaultyDevice};
  std::vector<PendingWrite> pending_ SIAS_GUARDED_BY(mu_);

  /// Rank kIoQueue: held across lazy FIFO execution (which takes mu_ and
  /// the inner device's latches, all of higher rank). A power cut never
  /// touches this queue — still-deferred requests are simply lost.
  mutable Mutex io_pending_mu_{LatchRank::kIoQueue};
  std::deque<PendingIo> io_pending_ SIAS_GUARDED_BY(io_pending_mu_);
  /// Mirror of io_pending_.size(): lets the synchronous fast path (which
  /// the <=1% disabled-injector overhead gate covers) skip io_pending_mu_
  /// entirely when nothing was ever submitted asynchronously. A thread
  /// observes its own submissions in program order; cross-thread races with
  /// a concurrent Submit carry no ordering guarantee, as on real hardware.
  std::atomic<size_t> io_queued_{0};

  obs::Counter* m_cached_writes_;
  obs::Counter* m_synced_writes_;
  obs::Counter* m_dropped_writes_;
};

}  // namespace fault
}  // namespace sias
