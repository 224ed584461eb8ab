#include "fault/fault_injector.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/crash_point.h"
#include "fault/faulty_device.h"
#include "obs/metrics.h"

namespace sias {
namespace fault {

FaultInjector::FaultInjector(uint64_t seed) : rng_(seed) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_crash_point_hits_ = reg.GetCounter("fault.crash_point_hits");
  m_power_cuts_ = reg.GetCounter("fault.power_cuts");
  m_injected_transient_ = reg.GetCounter("fault.injected.transient_io");
  m_injected_torn_ = reg.GetCounter("fault.injected.torn_write");
  m_injected_partial_ = reg.GetCounter("fault.injected.partial_write");
  m_injected_bit_flip_ = reg.GetCounter("fault.injected.bit_flip");
  m_injected_latency_ = reg.GetCounter("fault.injected.latency_spike");
}

FaultInjector::~FaultInjector() {
  if (armed()) Disarm();
  MutexLock g(&mu_);
  SIAS_CHECK(devices_.empty());  // devices must not outlive their injector
}

void FaultInjector::AddRule(FaultRule rule) {
  MutexLock g(&mu_);
  rules_.push_back(RuleState{std::move(rule), 0, 0});
}

void FaultInjector::ClearRules() {
  MutexLock g(&mu_);
  rules_.clear();
}

void FaultInjector::Arm() {
  FaultInjector* expected = nullptr;
  bool swapped = internal::g_armed_injector.compare_exchange_strong(
      expected, this, std::memory_order_release);
  SIAS_CHECK(swapped || expected == this);  // one armed injector at a time
}

void FaultInjector::Disarm() {
  FaultInjector* expected = this;
  internal::g_armed_injector.compare_exchange_strong(
      expected, nullptr, std::memory_order_release);
}

bool FaultInjector::armed() const {
  return internal::g_armed_injector.load(std::memory_order_relaxed) == this;
}

std::vector<std::string> FaultInjector::seen_crash_points() const {
  MutexLock g(&mu_);
  return std::vector<std::string>(seen_points_.begin(), seen_points_.end());
}

bool FaultInjector::RuleFires(RuleState& rs) {
  rs.matches++;
  if (rs.rule.repeat >= 0 && rs.fired >= rs.rule.repeat) return false;
  bool fire;
  if (rs.rule.nth > 0) {
    fire = rs.matches >= rs.rule.nth;
  } else {
    fire = rng_.NextDouble() < rs.rule.probability;
  }
  if (fire) rs.fired++;
  return fire;
}

Status FaultInjector::OnCrashPoint(const char* name) {
  m_crash_point_hits_->Increment();
  FaultKind kind{};
  bool tear = false;
  {
    MutexLock g(&mu_);
    seen_points_.insert(name);
    if (record_only_.load(std::memory_order_relaxed)) return Status::OK();
    bool fired = false;
    for (RuleState& rs : rules_) {
      if (rs.rule.crash_point.empty() || rs.rule.crash_point != name) continue;
      if (!RuleFires(rs)) continue;
      kind = rs.rule.kind;
      tear = rs.rule.tear;
      fired = true;
      break;
    }
    if (!fired) return Status::OK();
  }
  // Deliver outside mu_: a power cut takes each device's latch.
  switch (kind) {
    case FaultKind::kPowerCut:
      TriggerPowerCut(tear);
      return Status::IoError(std::string("power cut at crash point ") + name);
    case FaultKind::kTransientIoError:
      m_injected_transient_->Increment();
      return Status::TransientIoError(
          std::string("injected transient error at crash point ") + name);
    default:
      // Data-mutation kinds need a device op to act on; treat a
      // misconfigured rule as a hard error so tests notice.
      return Status::Internal(std::string("crash-point rule with device-only "
                                          "fault kind at ") + name);
  }
}

AppliedFault FaultInjector::MakeApplied(const FaultRule& rule, size_t len) {
  AppliedFault f;
  f.kind = rule.kind;
  f.tear = rule.tear;
  f.latency = rule.latency;
  switch (rule.kind) {
    case FaultKind::kTornWrite: {
      uint64_t sectors = std::max<uint64_t>(1, len / kSectorBytes);
      f.arg = rng_.Uniform(0, sectors - 1);  // keep a strict prefix
      break;
    }
    case FaultKind::kPartialSectorWrite:
      f.arg = len > 0 ? rng_.Uniform(0, len - 1) : 0;
      break;
    case FaultKind::kBitFlip:
      f.arg = len > 0 ? rng_.Uniform(0, len * 8 - 1) : 0;
      break;
    default:
      break;
  }
  return f;
}

std::optional<AppliedFault> FaultInjector::OnDeviceOp(OpClass op,
                                                      const std::string& tag,
                                                      uint64_t offset,
                                                      size_t len) {
  if (record_only_.load(std::memory_order_relaxed)) return std::nullopt;
  std::optional<AppliedFault> applied;
  {
    MutexLock g(&mu_);
    for (RuleState& rs : rules_) {
      const FaultRule& r = rs.rule;
      if (!r.crash_point.empty()) continue;
      if (r.op != OpClass::kAny && r.op != op) continue;
      if (!r.device_tag.empty() && r.device_tag != tag) continue;
      // Zero-length ops (Sync) carry no range; only explicit filters skip them.
      if (len > 0 && (offset > r.offset_hi || offset + len <= r.offset_lo)) {
        continue;
      }
      if (!RuleFires(rs)) continue;
      applied = MakeApplied(r, len);
      break;
    }
  }
  if (applied.has_value()) {
    switch (applied->kind) {
      case FaultKind::kTransientIoError: m_injected_transient_->Increment(); break;
      case FaultKind::kTornWrite: m_injected_torn_->Increment(); break;
      case FaultKind::kPartialSectorWrite: m_injected_partial_->Increment(); break;
      case FaultKind::kBitFlip: m_injected_bit_flip_->Increment(); break;
      case FaultKind::kLatencySpike: m_injected_latency_->Increment(); break;
      case FaultKind::kPowerCut: break;  // counted by TriggerPowerCut
    }
  }
  return applied;
}

void FaultInjector::RegisterDevice(FaultyDevice* device) {
  MutexLock g(&mu_);
  devices_.push_back(device);
}

void FaultInjector::UnregisterDevice(FaultyDevice* device) {
  MutexLock g(&mu_);
  devices_.erase(std::remove(devices_.begin(), devices_.end(), device),
                 devices_.end());
}

void FaultInjector::TriggerPowerCut(bool tear) {
  std::vector<FaultyDevice*> devices;
  std::vector<uint64_t> plans;
  {
    MutexLock g(&mu_);
    if (power_cut_.exchange(true, std::memory_order_acq_rel)) return;
    devices = devices_;
    plans.reserve(devices.size());
    for (size_t i = 0; i < devices.size(); ++i) plans.push_back(rng_.Next());
  }
  m_power_cuts_->Increment();
  // Each device applies its own deterministic durable-prefix plan; the
  // injector lock is not held across the device latches (kStats >
  // kFaultyDevice would invert the order).
  for (size_t i = 0; i < devices.size(); ++i) {
    devices[i]->PowerCut(plans[i], tear);
  }
}

}  // namespace fault
}  // namespace sias
