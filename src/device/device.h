// Storage device abstraction.
//
// Devices store real bytes (RAM-backed) and model I/O *duration* in virtual
// time: every Read/Write advances the caller's VirtualClock by the modelled
// queueing + service time. Device channels keep "busy until" marks shared
// across all callers, so concurrent terminals contend for the device exactly
// as they would on hardware (see DESIGN.md §3.1).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/latch.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vclock.h"

namespace sias {

class TraceRecorder;

namespace obs {
class Counter;
class Gauge;
class HistogramMetric;
}  // namespace obs

/// Cumulative device counters. Flash-specific fields stay zero on non-flash
/// devices and vice versa.
struct DeviceStats {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t trim_ops = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  // Flash internals. `host_page_programs` counts NAND programs serving host
  // writes; `flash_page_programs` additionally includes GC relocations, so
  // programs/host is the device's write amplification.
  uint64_t flash_page_reads = 0;
  uint64_t flash_page_programs = 0;
  uint64_t host_page_programs = 0;
  uint64_t flash_block_erases = 0;
  uint64_t gc_page_moves = 0;

  // HDD mechanics: random requests pay seek + rotation; sequential
  // continuations pay neither. Durations are virtual-time nanoseconds.
  uint64_t seeks = 0;
  uint64_t sequential_ops = 0;
  uint64_t seek_ns = 0;
  uint64_t rotation_ns = 0;
  uint64_t transfer_ns = 0;

  /// Host-write to flash-program amplification (1.0 = no amplification).
  double WriteAmplification() const;

  DeviceStats& operator+=(const DeviceStats& o);
  std::string ToString() const;
};

/// Point-in-time device internals for telemetry export: space levels, wear
/// (erase-count) distribution and per-channel occupancy. Composites merge
/// their members'. Fields a device does not model stay zero/empty.
struct DeviceTelemetry {
  // Space accounting, in NAND pages (flash) — over-provisioned GC-reserve
  // blocks are what keeps relocation off the host pool.
  uint64_t logical_pages = 0;
  uint64_t physical_pages = 0;
  uint64_t free_pages = 0;
  uint64_t free_blocks = 0;
  uint64_t gc_reserve_blocks = 0;
  uint64_t total_blocks = 0;

  // Erase-count (wear) distribution across blocks. The histogram is
  // log2-bucketed: bucket 0 counts never-erased blocks, bucket i counts
  // blocks with erase_count in [2^(i-1), 2^i).
  uint64_t erase_total = 0;
  uint64_t erase_min = 0;
  uint64_t erase_max = 0;
  double erase_avg = 0.0;
  uint64_t erase_p50 = 0;
  uint64_t erase_p90 = 0;
  uint64_t erase_p99 = 0;
  std::vector<uint64_t> erase_histogram;

  /// Cumulative busy virtual-time per channel (HDD: one entry, the actuator).
  std::vector<uint64_t> channel_busy_ns;

  /// Combines another device's telemetry into this one (RAID aggregation);
  /// channels concatenate, wear percentiles are recomputed from the merged
  /// histogram.
  void Merge(const DeviceTelemetry& o);

  /// Recomputes erase_p50/p90/p99 from erase_histogram (bucket upper bound
  /// is the representative value). Merge() calls this; devices that track
  /// exact percentiles may overwrite them afterwards.
  void RecomputeErasePercentiles();

  /// One self-contained JSON object (space, wear, channels).
  std::string ToJson() const;
};

/// Process-wide device I/O counters (obs registry: device.read_ops,
/// device.write_ops, device.read_bytes, device.write_bytes). Called by leaf
/// devices only — composites like Raid0 delegate, so their members count.
void RecordDeviceRead(uint64_t bytes);
void RecordDeviceWrite(uint64_t bytes);

/// Process-wide flash-internal counters (obs registry, `flash.*`): NAND page
/// reads/programs split host vs GC, block erases, GC relocations, TRIMs.
/// Resolved once; FlashSsd adds to them in batch per host I/O.
struct FlashObsCounters {
  obs::Counter* page_reads;
  obs::Counter* page_programs;
  obs::Counter* host_page_programs;
  obs::Counter* gc_page_moves;
  obs::Counter* block_erases;
  obs::Counter* trims;
};
const FlashObsCounters& FlashCounters();

/// Process-wide HDD mechanics counters (obs registry, `hdd.*`): seek /
/// sequential-continuation counts and the virtual time spent positioning
/// versus transferring.
struct HddObsCounters {
  obs::Counter* seeks;
  obs::Counter* sequential_ops;
  obs::Counter* seek_ns;
  obs::Counter* rotation_ns;
  obs::Counter* transfer_ns;
};
const HddObsCounters& HddCounters();

/// Asynchronous request kind (io_uring opcode analogue).
enum class IoOp : uint8_t { kRead, kWrite };

/// One asynchronous device request. Reads fill `out` (the buffer must stay
/// valid until the handle is reaped); writes take `data` (copied by devices
/// that defer execution, so the caller's buffer only has to survive
/// Submit()). `background` carries the same meaning as the Write parameter.
struct IoRequest {
  IoOp op = IoOp::kRead;
  uint64_t offset = 0;
  size_t len = 0;
  uint8_t* out = nullptr;        ///< kRead destination
  const uint8_t* data = nullptr; ///< kWrite source
  bool background = false;
};

/// Opaque ticket for an in-flight asynchronous request. id 0 = invalid.
struct IoHandle {
  uint64_t id = 0;
  bool valid() const { return id != 0; }
};

/// Process-wide async-I/O counters (obs registry, `io.*`): submissions,
/// completions, cancellations, an in-flight gauge (submitted handles not yet
/// reaped) and the submit->completion virtual-time lag histogram.
struct IoObsCounters {
  obs::Counter* submits;
  obs::Counter* completions;
  obs::Counter* cancelled;
  obs::Gauge* inflight;
  obs::HistogramMetric* completion_lag;
};
const IoObsCounters& IoCounters();

/// Abstract simulated block device.
///
/// Offsets and lengths must be multiples of 512 bytes; the engine only ever
/// issues whole 8 KB pages. All methods are thread-safe.
class StorageDevice {
 public:
  virtual ~StorageDevice() = default;

  /// Reads `len` bytes at `offset` into `out`, charging virtual time to
  /// `clk` (pass nullptr to skip time accounting, e.g. during recovery).
  virtual Status Read(uint64_t offset, size_t len, uint8_t* out,
                      VirtualClock* clk) = 0;

  /// Writes `len` bytes at `offset`, charging virtual time to `clk`.
  /// `background` marks asynchronous maintenance I/O (background writer,
  /// paced checkpointer): it OCCUPIES device time — later foreground
  /// requests queue behind it — but the issuing clock does not wait for
  /// completion. Foreground writes (evictions on the transaction path,
  /// WAL) are synchronous.
  virtual Status Write(uint64_t offset, size_t len, const uint8_t* data,
                       VirtualClock* clk, bool background = false) = 0;

  /// Hints that the range is dead (SSD TRIM). Default: no-op.
  virtual Status Trim(uint64_t offset, size_t len) {
    (void)offset;
    (void)len;
    return Status::OK();
  }

  /// Durability barrier (fsync): every Write issued before the call has
  /// reached stable storage when it returns. The simulated devices persist
  /// writes immediately, so the default is a no-op; volatile write-back
  /// decorators (fault::FaultyDevice) override it to drain their cache, and
  /// composites fan it out to their members.
  virtual Status Sync(VirtualClock* clk) {
    (void)clk;
    return Status::OK();
  }

  // -- Asynchronous submit/complete interface -------------------------------
  //
  // io_uring-shaped: Submit() enqueues a request at virtual instant `now`
  // and returns a handle; Wait() blocks the terminal (advances its clock to
  // the completion instant) and returns the request's status; Poll() reaps
  // the completion only if it has occurred by `now`; Cancel() discards a
  // handle whose result is no longer wanted (devices that defer execution
  // drop still-queued requests entirely).
  //
  // Because channel reservations backfill by arrival time
  // (ChannelCalendar::Reserve / AtomicVTime::Reserve take the request's
  // arrival instant), the default implementation may execute the request
  // eagerly against a scratch clock parked at `now` and merely defer the
  // caller-visible clock advance to Wait(): N requests submitted at the
  // same instant receive overlapping per-channel busy intervals, exactly as
  // if a hardware queue had dispatched them concurrently. Decorators with
  // volatile or fault-injection state (fault::FaultyDevice) instead defer
  // execution to completion time so faults fire on completions.

  /// Enqueues `req` at virtual instant `now`. The caller's clock does not
  /// advance; the modelled service interval is charged to the device's
  /// channel calendar immediately (arrival-time backfill).
  virtual Result<IoHandle> Submit(const IoRequest& req, VTime now);

  /// Blocks the terminal until the request completes: advances `clk` to the
  /// completion instant (pass nullptr to skip time accounting) and returns
  /// the request's status. Each handle may be reaped exactly once.
  virtual Status Wait(IoHandle h, VirtualClock* clk);

  /// Non-blocking reap: if the request has completed by virtual instant
  /// `now`, consumes the handle, stores its status and returns true.
  virtual bool Poll(IoHandle h, VTime now, Status* status);

  /// Discards an in-flight handle. A request that already executed keeps
  /// its device-state effects (the write happened); a still-deferred
  /// request is dropped without ever executing. Idempotent.
  virtual Status Cancel(IoHandle h, VirtualClock* clk);

  virtual uint64_t capacity_bytes() const = 0;
  virtual DeviceStats stats() const = 0;

  /// Point-in-time internals (space levels, wear distribution, channel
  /// occupancy). Default: empty — devices without modelled internals.
  virtual DeviceTelemetry telemetry() const { return DeviceTelemetry{}; }

  /// Attaches a block-trace recorder (may be nullptr to detach). The
  /// recorder sees every host-level I/O with its virtual start time.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 protected:
  /// A recorded (but not yet reaped) asynchronous completion.
  struct IoCompletion {
    Status status;
    VTime submitted = 0;
    VTime completion = 0;
  };

  Status CheckRange(uint64_t offset, size_t len) const;

  /// Allocates a fresh handle id (never 0) and counts the submission.
  uint64_t AllocateIoId();

  /// Records the completion of handle `id` (counts io.completions).
  void StoreIoCompletion(uint64_t id, Status status, VTime submitted,
                         VTime completion);

  /// Removes the completion for `id` if recorded; false when unknown.
  bool ReapIoCompletion(uint64_t id, IoCompletion* out);

  TraceRecorder* trace_ = nullptr;

 private:
  /// Rank kIoCompletion — never held across a device call (completions are
  /// recorded after the modelled op returns, reaped before the caller
  /// advances its clock).
  mutable Mutex io_mu_{LatchRank::kIoCompletion};
  std::unordered_map<uint64_t, IoCompletion> io_table_ SIAS_GUARDED_BY(io_mu_);
  std::atomic<uint64_t> io_next_id_{1};
};

}  // namespace sias
