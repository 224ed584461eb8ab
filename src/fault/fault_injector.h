// Seeded, deterministic fault injector.
//
// A FaultInjector owns a set of composable FaultRules and a xoshiro PRNG
// seeded by the caller; everything it does — which op trips a rule, where a
// bit flips, how much of a volatile cache survives a power cut — derives
// from that seed, so any failing scenario replays exactly from its seed
// (docs/FAULTS.md describes the repro workflow).
//
// Faults are delivered through two channels:
//  * device ops — FaultyDevice consults the injector before every
//    Read/Write/Sync/Trim it forwards (rules with an empty `crash_point`);
//  * crash points — SIAS_CRASH_POINT sites inside the engine dispatch to
//    the armed injector (rules naming that crash point). Crash-point rules
//    support kPowerCut and kTransientIoError; the device-data kinds (torn /
//    partial / bit flip / latency) only make sense on device ops.
//
// A power cut (TriggerPowerCut) cuts every registered FaultyDevice: each
// device durably applies a FIFO prefix of its volatile write cache —
// optionally tearing the first dropped write at sector granularity — and
// then fails all subsequent I/O until Revive()d. All injected events are
// counted in the obs registry under `fault.*`.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/latch.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"

namespace sias {

namespace obs {
class Counter;
}  // namespace obs

namespace fault {

class FaultyDevice;

/// Device sector: the atomic write unit of the simulated devices (the
/// granularity StorageDevice::CheckRange enforces). Torn writes tear on
/// sector boundaries; partial-sector writes tear inside one.
inline constexpr uint64_t kSectorBytes = 512;

enum class FaultKind : uint8_t {
  /// Cut power on every registered FaultyDevice and fail the current op.
  kPowerCut,
  /// Fail the op with StatusCode::kIoErrorTransient (retryable).
  kTransientIoError,
  /// Silently persist only a sector-aligned prefix of the write payload.
  kTornWrite,
  /// Silently persist only a byte prefix of the write payload (a write
  /// torn inside a sector).
  kPartialSectorWrite,
  /// Flip one random bit: in the payload on a write, in the returned
  /// buffer on a read.
  kBitFlip,
  /// Charge `latency` of extra virtual time, then perform the op normally.
  kLatencySpike,
};

/// Which device operations a rule applies to.
enum class OpClass : uint8_t { kAny, kRead, kWrite, kSync };

/// One composable trigger. A rule fires on its matching ops: `nth` selects
/// the nth match (1-based) and `repeat` lets it keep firing on subsequent
/// matches; alternatively `probability` arms a per-match coin flip. Rules
/// with a non-empty `crash_point` fire at that SIAS_CRASH_POINT site
/// instead of on device ops.
struct FaultRule {
  FaultKind kind = FaultKind::kTransientIoError;

  /// Crash-point name (e.g. "wal.pre_fsync"); empty = device-op rule.
  std::string crash_point;

  /// Device-op filters (ignored for crash-point rules).
  OpClass op = OpClass::kAny;
  std::string device_tag;       ///< empty = any registered device
  uint64_t offset_lo = 0;       ///< op must overlap [offset_lo, offset_hi]
  uint64_t offset_hi = ~0ull;

  /// Trigger: fire from the nth matching op on (1-based)...
  uint64_t nth = 1;
  /// ...or, when nth == 0, fire each match with this probability.
  double probability = 0.0;
  /// How many times the rule may fire in total (-1 = unlimited).
  int64_t repeat = 1;

  /// kPowerCut: tear the first dropped cached write at sector granularity
  /// instead of dropping whole writes atomically.
  bool tear = false;
  /// kLatencySpike: extra virtual time charged to the op.
  VDuration latency = 0;
};

/// The decision for one device op: at most one fault applies (first
/// matching rule that fires wins).
struct AppliedFault {
  FaultKind kind;
  /// kTornWrite: sectors to keep; kPartialSectorWrite: bytes to keep;
  /// kBitFlip: bit index into the payload.
  uint64_t arg = 0;
  bool tear = false;
  VDuration latency = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed);
  ~FaultInjector();

  void AddRule(FaultRule rule);
  void ClearRules();

  /// Routes SIAS_CRASH_POINT sites to this injector. At most one injector
  /// may be armed at a time (process-global hook); Arm() aborts if another
  /// is armed. Device-op rules additionally require the devices to be
  /// constructed against this injector.
  void Arm();
  void Disarm();
  bool armed() const;

  /// Record crash-point hits without ever firing a rule (the CrashRunner
  /// discovery pass).
  void set_record_only(bool v) { record_only_.store(v, std::memory_order_relaxed); }

  /// True once a power cut has fired.
  bool power_cut() const { return power_cut_.load(std::memory_order_acquire); }

  /// Crash-point names this injector has seen, sorted.
  std::vector<std::string> seen_crash_points() const;

  /// Cuts power on every registered FaultyDevice (see class comment). With
  /// `tear`, each device may tear its first dropped write mid-sector.
  void TriggerPowerCut(bool tear);

  // -- Internal entry points (crash-point dispatch and FaultyDevice) --

  /// Crash-point verdict; non-OK severs the calling engine path.
  Status OnCrashPoint(const char* name);

  /// Evaluates the device-op rules. Called by FaultyDevice outside its own
  /// latch; returns the fault to apply, if any. kPowerCut is returned to
  /// the device, which calls TriggerPowerCut itself (so no injector lock is
  /// held across the device cut).
  std::optional<AppliedFault> OnDeviceOp(OpClass op, const std::string& tag,
                                         uint64_t offset, size_t len);

  void RegisterDevice(FaultyDevice* device);
  void UnregisterDevice(FaultyDevice* device);

 private:
  struct RuleState {
    FaultRule rule;
    uint64_t matches = 0;  ///< matching ops (or crash-point hits) seen
    int64_t fired = 0;     ///< times the rule has fired
  };

  /// Whether `rs` fires on this match (updates counters). Requires mu_.
  bool RuleFires(RuleState& rs) SIAS_REQUIRES(mu_);

  AppliedFault MakeApplied(const FaultRule& rule, size_t len)
      SIAS_REQUIRES(mu_);

  std::atomic<bool> record_only_{false};
  std::atomic<bool> power_cut_{false};

  /// Rank kStats: acquired from deep inside the engine (under pool/WAL
  /// latches) and from FaultyDevice evaluation, which runs before the
  /// device latch (kFaultyDevice) is taken. Never held across a device
  /// call.
  mutable Mutex mu_{LatchRank::kStats};
  Random rng_ SIAS_GUARDED_BY(mu_);
  std::vector<RuleState> rules_ SIAS_GUARDED_BY(mu_);
  std::vector<FaultyDevice*> devices_ SIAS_GUARDED_BY(mu_);
  std::set<std::string> seen_points_ SIAS_GUARDED_BY(mu_);

  obs::Counter* m_crash_point_hits_;
  obs::Counter* m_power_cuts_;
  obs::Counter* m_injected_transient_;
  obs::Counter* m_injected_torn_;
  obs::Counter* m_injected_partial_;
  obs::Counter* m_injected_bit_flip_;
  obs::Counter* m_injected_latency_;
};

}  // namespace fault
}  // namespace sias
