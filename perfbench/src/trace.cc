#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {
thread_local ThreadTrace* t_current = nullptr;
}  // namespace

const char* SpanName(SpanKind k) {
  switch (k) {
    case SpanKind::kOp: return "op";
    case SpanKind::kBegin: return "engine.begin";
    case SpanKind::kCommit: return "engine.commit";
    case SpanKind::kAbort: return "engine.abort";
    case SpanKind::kTick: return "engine.tick";
    case SpanKind::kGet: return "table.get";
    case SpanKind::kUpdate: return "table.update";
    case SpanKind::kNewOrder: return "tpcc.new_order";
    case SpanKind::kPayment: return "tpcc.payment";
    case SpanKind::kOrderStatus: return "tpcc.order_status";
    case SpanKind::kDelivery: return "tpcc.delivery";
    case SpanKind::kStockLevel: return "tpcc.stock_level";
    case SpanKind::kDataDevice: return "device.data";
    case SpanKind::kWalDevice: return "device.wal";
    case SpanKind::kCount: break;
  }
  return "?";
}

const char* SpanLayer(SpanKind k) {
  switch (k) {
    case SpanKind::kOp: return "unattributed";
    case SpanKind::kBegin:
    case SpanKind::kCommit:
    case SpanKind::kAbort:
    case SpanKind::kTick: return "engine";
    case SpanKind::kGet:
    case SpanKind::kUpdate: return "mvcc";
    case SpanKind::kNewOrder:
    case SpanKind::kPayment:
    case SpanKind::kOrderStatus:
    case SpanKind::kDelivery:
    case SpanKind::kStockLevel: return "workload";
    case SpanKind::kDataDevice:
    case SpanKind::kWalDevice: return "device";
    case SpanKind::kCount: break;
  }
  return "?";
}

ThreadTrace* CurrentTrace() { return t_current; }
void SetCurrentTrace(ThreadTrace* t) { t_current = t; }

void ThreadTrace::BeginOp(bool traced) {
  active_ = traced;
  if (!traced) return;
  spans_.clear();
  open_.clear();
  Open(SpanKind::kOp);
}

int ThreadTrace::Open(SpanKind kind) {
  Span s;
  s.kind = kind;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op_id = traced_ops_;
  // The thread-CPU clock is a system call; reading it inside the wall
  // interval charges its cost to the span that asked for it, not its parent.
  s.start_ns = WallNs();
  s.cpu_ns = ThreadCpuNs();
  spans_.push_back(s);
  int idx = static_cast<int>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

const Span& ThreadTrace::Close(int idx) {
  Span& s = spans_[idx];
  s.cpu_ns = ThreadCpuNs() - s.cpu_ns;
  s.end_ns = WallNs();
  open_.pop_back();
  return s;
}

void ThreadTrace::EndOp() {
  if (!active_) return;
  Close(0);
  active_ = false;
  // Self time = span wall time minus the wall time of its direct children.
  child_ns_.assign(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns_[s.parent] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    KindTotals& t = totals_[static_cast<int>(s.kind)];
    int64_t wall = s.end_ns - s.start_ns;
    t.calls++;
    t.wall_ns += wall;
    t.cpu_ns += s.cpu_ns;
    t.self_ns += wall - child_ns_[i];
    t.max_ns = std::max(t.max_ns, wall);
  }
  if (traced_ops_ < kKeptOps) {
    kept_.insert(kept_.end(), spans_.begin(), spans_.end());
  }
  traced_ops_++;
}

void MergeTotals(const std::vector<const ThreadTrace*>& traces,
                 KindTotals out[kNumSpanKinds]) {
  for (int k = 0; k < kNumSpanKinds; ++k) out[k] = KindTotals{};
  for (const ThreadTrace* tr : traces) {
    for (int k = 0; k < kNumSpanKinds; ++k) {
      const KindTotals& t = tr->totals(static_cast<SpanKind>(k));
      out[k].calls += t.calls;
      out[k].wall_ns += t.wall_ns;
      out[k].cpu_ns += t.cpu_ns;
      out[k].self_ns += t.self_ns;
      out[k].max_ns = std::max(out[k].max_ns, t.max_ns);
    }
  }
}

std::string ChromeTraceJson(const std::vector<const ThreadTrace*>& traces) {
  int64_t origin = INT64_MAX;
  for (const ThreadTrace* tr : traces) {
    for (const Span& s : tr->kept()) origin = std::min(origin, s.start_ns);
  }
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[320];
  for (const ThreadTrace* tr : traces) {
    const std::vector<Span>& spans = tr->kept();
    // Parents are op-relative indices; spans of one op are contiguous and
    // the root comes first, so the op's base index recovers them.
    size_t op_base = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent < 0) op_base = i;
      snprintf(buf, sizeof(buf),
               "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
               "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
               "\"parent\":\"%s\",\"cpu_us\":%.3f}}",
               first ? "" : ",", SpanName(s.kind), SpanLayer(s.kind),
               tr->thread_id(), (s.start_ns - origin) / 1e3,
               (s.end_ns - s.start_ns) / 1e3,
               static_cast<unsigned long long>(s.op_id),
               s.parent < 0 ? "" : SpanName(spans[op_base + s.parent].kind),
               s.cpu_ns / 1e3);
      out += buf;
      first = false;
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
