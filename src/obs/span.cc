#include "obs/span.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace sias {
namespace obs {

const char* SpanPhaseName(SpanPhase p) {
  switch (p) {
    case SpanPhase::kLockWait: return "lock_wait";
    case SpanPhase::kIoWait: return "io_wait";
    case SpanPhase::kWalFlush: return "wal_flush";
    case SpanPhase::kTraversal: return "traversal";
    case SpanPhase::kGcDefer: return "gc_defer";
    case SpanPhase::kApply: return "apply";
  }
  return "?";
}

namespace {

/// Per-thread span state: the open root, the phase stack, and the retained
/// records. Fixed-size — push/pop never allocate, so spans stay safe on
/// crash-point unwind paths.
struct SpanThreadState {
  bool active = false;
  const char* txn_type = nullptr;
  uint64_t xid = 0;
  VirtualClock* clk = nullptr;
  VTime root_begin = 0;
  VTime last_stamp = 0;
  VDuration phase_vns[kNumSpanPhases] = {};
  int depth = 0;  ///< innermost open span; 0 is the root
  uint8_t phase_stack[kMaxSpanDepth] = {};
  SpanRecord records[kMaxSpanRecords];
  uint32_t n_records = 0;
  uint32_t truncated = 0;
};

thread_local SpanThreadState tls_span;

/// Charges the virtual time since the last stamp to the innermost open
/// span's phase. Called on every push/pop so phase sums equal the root's
/// end-to-end latency exactly.
inline void AttributeSelfTime(SpanThreadState* st) {
  VTime now = st->clk->now();
  if (now > st->last_stamp) {
    st->phase_vns[st->phase_stack[st->depth]] += now - st->last_stamp;
  }
  st->last_stamp = now;
}

/// Registry handles resolved once; names are literals so the
/// sias-metric-literal check can match them against docs/OBSERVABILITY.md.
struct SpanObs {
  HistogramMetric* phase[kNumSpanPhases];
  HistogramMetric* committed;
  HistogramMetric* aborted;
  Counter* orphans;
  Counter* truncated;
};

SpanObs& Obs() {
  static SpanObs* obs = [] {
    auto* o = new SpanObs();
    auto& reg = MetricsRegistry::Default();
    o->phase[0] = reg.GetHistogram("txn.phase.lock_wait");
    o->phase[1] = reg.GetHistogram("txn.phase.io_wait");
    o->phase[2] = reg.GetHistogram("txn.phase.wal_flush");
    o->phase[3] = reg.GetHistogram("txn.phase.traversal");
    o->phase[4] = reg.GetHistogram("txn.phase.gc_defer");
    o->phase[5] = reg.GetHistogram("txn.phase.apply");
    o->committed = reg.GetHistogram("txn.latency.committed");
    o->aborted = reg.GetHistogram("txn.latency.aborted");
    o->orphans = reg.GetCounter("obs.span.orphans");
    o->truncated = reg.GetCounter("obs.span.truncated");
    reg.AddSnapshotAugmenter(
        [](MetricsSnapshot* snap) { SpanAggregator::Default().Augment(snap); });
    reg.AddResetHook([] { SpanAggregator::Default().Reset(); });
    return o;
  }();
  return *obs;
}

/// "NewOrder" -> "new_order", "read" -> "read".
std::string SnakeCase(const char* name) {
  std::string out;
  for (const char* p = name; *p; ++p) {
    char c = *p;
    if (c >= 'A' && c <= 'Z') {
      if (!out.empty()) out.push_back('_');
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

SpanScope::SpanScope(SpanPhase phase, const char* category, const char* name,
                     uint64_t wait_tag) {
  SpanThreadState* st = &tls_span;
  if (!st->active) return;
  if (st->depth + 1 >= kMaxSpanDepth) {
    st->truncated++;
    return;
  }
  AttributeSelfTime(st);
  st->depth++;
  st->phase_stack[st->depth] = static_cast<uint8_t>(phase);
  active_ = true;
  if (st->n_records < kMaxSpanRecords) {
    rec_ = static_cast<int>(st->n_records++);
    SpanRecord& r = st->records[rec_];
    r.category = category;
    r.name = name;
    r.begin = st->last_stamp;
    r.end = 0;
    r.wait_tag = wait_tag;
    r.depth = static_cast<uint8_t>(st->depth);
    r.phase = static_cast<uint8_t>(phase);
  } else {
    st->truncated++;
  }
}

SpanScope::~SpanScope() {
  if (!active_) return;
  SpanThreadState* st = &tls_span;
  AttributeSelfTime(st);
  if (rec_ >= 0) st->records[rec_].end = st->last_stamp;
  st->depth--;
}

void SpanScope::set_name(const char* name) {
  if (active_ && rec_ >= 0) tls_span.records[rec_].name = name;
}

TxnSpan::TxnSpan(const char* txn_type, VirtualClock* clk) {
  SpanThreadState* st = &tls_span;
  if (st->active) {
    // Re-entrant root (a nested TxnSpan): the outer transaction keeps the
    // thread; the inner root is inert so attribution stays unambiguous.
    Obs().orphans->Increment();
    return;
  }
  if (txn_type == nullptr || clk == nullptr) return;
  st->active = true;
  st->txn_type = txn_type;
  st->xid = 0;
  st->clk = clk;
  st->root_begin = st->last_stamp = clk->now();
  for (VDuration& v : st->phase_vns) v = 0;
  st->depth = 0;
  st->phase_stack[0] = static_cast<uint8_t>(SpanPhase::kApply);
  st->truncated = 0;
  st->n_records = 1;
  SpanRecord& r = st->records[0];
  r.category = "txn";
  r.name = txn_type;
  r.begin = st->root_begin;
  r.end = 0;
  r.wait_tag = 0;
  r.depth = 0;
  r.phase = static_cast<uint8_t>(SpanPhase::kApply);
  active_ = true;
}

TxnSpan::~TxnSpan() { Finish(); }

void TxnSpan::Finish() {
  if (!active_) return;
  SpanThreadState* st = &tls_span;
  AttributeSelfTime(st);
  st->records[0].end = st->last_stamp;
  st->records[0].wait_tag = st->xid;
  VDuration latency = st->last_stamp - st->root_begin;
  SpanObs& obs = Obs();
  if (st->truncated > 0) obs.truncated->Add(st->truncated);
  if (committed_) {
    for (size_t i = 0; i < kNumSpanPhases; ++i) {
      if (st->phase_vns[i] > 0) obs.phase[i]->Record(st->phase_vns[i]);
    }
    obs.committed->Record(latency);
    SpanAggregator::Default().RecordCommitted(st->txn_type, st->xid,
                                              st->root_begin, latency,
                                              st->phase_vns, st->records,
                                              st->n_records);
  } else {
    obs.aborted->Record(latency);
  }
  st->active = false;
  active_ = false;
}

void SetSpanXid(uint64_t xid) {
  if (tls_span.active) tls_span.xid = xid;
}

void TxnSpan::set_committed(bool committed) {
  if (active_) committed_ = committed;
}

bool SpanRootActive() { return tls_span.active; }

SpanAggregator& SpanAggregator::Default() {
  static SpanAggregator* agg = new SpanAggregator();
  return *agg;
}

void SpanAggregator::RecordCommitted(const char* txn_type, uint64_t xid,
                                     VTime begin, VDuration latency,
                                     const VDuration phase_vns[kNumSpanPhases],
                                     const SpanRecord* records,
                                     uint32_t n_records) {
  MutexLock g(&mu_);
  // Per-type latency: the type set is tiny (TPC-C's five plus YCSB's four),
  // so a linear scan over interned pointers beats any map.
  TypeAgg* agg = nullptr;
  for (int i = 0; i < n_types_; ++i) {
    if (types_[i].type == txn_type ||
        strcmp(types_[i].type, txn_type) == 0) {
      agg = &types_[i];
      break;
    }
  }
  if (agg == nullptr && n_types_ < kMaxTxnTypes) {
    agg = &types_[n_types_++];
    agg->type = txn_type;
  }
  if (agg != nullptr) agg->latency.Record(latency);

  // Exemplars: replace the fastest retained slot once the buffer is full.
  SpanExemplar* slot = nullptr;
  if (n_exemplars_ < kSpanExemplarSlots) {
    slot = &exemplars_[n_exemplars_++];
  } else {
    SpanExemplar* fastest = &exemplars_[0];
    for (int i = 1; i < kSpanExemplarSlots; ++i) {
      if (exemplars_[i].latency < fastest->latency) fastest = &exemplars_[i];
    }
    if (latency > fastest->latency) slot = fastest;
  }
  if (slot != nullptr) {
    slot->txn_type = txn_type;
    slot->xid = xid;
    slot->begin = begin;
    slot->latency = latency;
    for (size_t i = 0; i < kNumSpanPhases; ++i) {
      slot->phase_vns[i] = phase_vns[i];
    }
    slot->n_records = n_records < kMaxSpanRecords
                          ? n_records
                          : static_cast<uint32_t>(kMaxSpanRecords);
    for (uint32_t i = 0; i < slot->n_records; ++i) {
      slot->records[i] = records[i];
    }
  }
}

void SpanAggregator::Augment(MetricsSnapshot* snap) const {
  MutexLock g(&mu_);
  for (int i = 0; i < n_types_; ++i) {
    snap->histograms["txn.latency." + SnakeCase(types_[i].type)] =
        SummarizeHistogram(types_[i].latency);
  }
}

std::string SpanAggregator::ExemplarsToChromeTraceJson() const {
  MutexLock g(&mu_);
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  bool first = true;
  for (int e = 0; e < n_exemplars_; ++e) {
    const SpanExemplar& ex = exemplars_[e];
    for (uint32_t i = 0; i < ex.n_records; ++i) {
      const SpanRecord& r = ex.records[i];
      if (!first) out += ',';
      first = false;
      // Chrome-trace "X" (complete) events in virtual µs;
      // each exemplar gets its own tid so its tree renders as one track.
      snprintf(buf, sizeof(buf),
               "{\"ph\":\"X\",\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.3f,"
               "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"phase\":\"%s\","
               "\"xid\":%llu,\"wait_tag\":%llu}}",
               r.category, r.name,
               static_cast<double>(r.begin) / 1000.0,
               static_cast<double>(r.end - r.begin) / 1000.0, e,
               SpanPhaseName(static_cast<SpanPhase>(r.phase)),
               static_cast<unsigned long long>(ex.xid),
               static_cast<unsigned long long>(r.wait_tag));
      out += buf;
    }
  }
  out += "]}";
  return out;
}

size_t SpanAggregator::exemplar_count() const {
  MutexLock g(&mu_);
  return static_cast<size_t>(n_exemplars_);
}

VDuration SpanAggregator::exemplar_floor() const {
  MutexLock g(&mu_);
  if (n_exemplars_ == 0) return 0;
  VDuration floor = exemplars_[0].latency;
  for (int i = 1; i < n_exemplars_; ++i) {
    floor = std::min(floor, exemplars_[i].latency);
  }
  return floor;
}

void SpanAggregator::Reset() {
  MutexLock g(&mu_);
  for (int i = 0; i < n_types_; ++i) {
    types_[i].type = nullptr;
    types_[i].latency.Reset();
  }
  n_types_ = 0;
  n_exemplars_ = 0;
}

}  // namespace obs
}  // namespace sias
