#include "obs/metrics.h"

#include <cstdio>

namespace sias {
namespace obs {

size_t ThreadShard(size_t n) {
  static std::atomic<size_t> next_thread{0};
  thread_local size_t ordinal =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  return ordinal % n;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock g(&mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock g(&mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock g(&mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>();
  return slot.get();
}

HistogramSummary SummarizeHistogram(const Histogram& h) {
  HistogramSummary s;
  s.count = h.count();
  s.mean = h.Mean();
  s.p50 = h.Percentile(50);
  s.p90 = h.Percentile(90);
  s.p99 = h.Percentile(99);
  s.p999 = h.Percentile(99.9);
  s.max = h.Max();
  return s;
}

void MetricsRegistry::AddSnapshotAugmenter(SnapshotAugmenter fn) {
  MutexLock g(&mu_);
  augmenters_.push_back(fn);
}

void MetricsRegistry::AddResetHook(ResetHook fn) {
  MutexLock g(&mu_);
  reset_hooks_.push_back(fn);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::vector<SnapshotAugmenter> augmenters;
  {
    MutexLock g(&mu_);
    for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
    for (const auto& [name, gg] : gauges_) snap.gauges[name] = gg->Value();
    for (const auto& [name, h] : histograms_) {
      snap.histograms[name] = SummarizeHistogram(h->Snapshot());
    }
    augmenters = augmenters_;
  }
  // Augmenters run with the registry mutex released: they take their own
  // (higher-ranked) latches and must not re-enter the registry.
  for (SnapshotAugmenter fn : augmenters) fn(&snap);
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::vector<ResetHook> hooks;
  {
    MutexLock g(&mu_);
    for (auto& [name, c] : counters_) c->Reset();
    for (auto& [name, h] : histograms_) h->Reset();
    hooks = reset_hooks_;
  }
  for (ResetHook fn : hooks) fn();
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  *out += buf;
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.1f", v);
  *out += buf;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    AppendEscaped(&out, name);
    out += ':';
    AppendInt(&out, v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    AppendEscaped(&out, name);
    out += ':';
    AppendInt(&out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    AppendEscaped(&out, name);
    out += ":{\"count\":";
    AppendInt(&out, static_cast<int64_t>(h.count));
    out += ",\"mean_ns\":";
    AppendDouble(&out, h.mean);
    out += ",\"p50_ns\":";
    AppendInt(&out, h.p50);
    out += ",\"p90_ns\":";
    AppendInt(&out, h.p90);
    out += ",\"p99_ns\":";
    AppendInt(&out, h.p99);
    out += ",\"p999_ns\":";
    AppendInt(&out, h.p999);
    out += ",\"max_ns\":";
    AppendInt(&out, h.max);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace sias
