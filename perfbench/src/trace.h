// In-memory span tracing for the benchmark's traced run.
//
// Spans are recorded only by benchmark code: around every call it makes into
// the engine's public API (Database::Begin/Commit/Abort/Tick, Table::Get/
// Update, TpccExecutor::Run) and inside the TimedDevice decorator that wraps
// the data and WAL devices. Nothing inside src/ is instrumented, so the
// engine is measured exactly as it stands.
//
// Each worker thread owns one ThreadTrace. An operation is one root span
// ("op"); the calls it makes are its children, and device calls nest under
// whichever engine call issued them. When an operation ends its spans are
// folded into per-kind totals (calls, wall, thread CPU, self time), so memory
// stays bounded; only the first kKeptOps operations per thread keep their raw
// spans for the chrome-trace export.
#pragma once

#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  kOp = 0,
  kBegin,
  kCommit,
  kAbort,
  kTick,
  kGet,
  kUpdate,
  kNewOrder,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
  kDataDevice,
  kWalDevice,
  kCount,
};
inline constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kCount);

/// Metric-style name of a span kind ("engine.commit", "tpcc.new_order").
const char* SpanName(SpanKind k);
/// Repo module the span's self time is charged to.
const char* SpanLayer(SpanKind k);

inline int64_t WallNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

inline int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

struct Span {
  SpanKind kind = SpanKind::kOp;
  int32_t parent = -1;  ///< index within the op's span list; -1 for the root
  uint64_t op_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;  ///< thread CPU consumed between start and end
};

/// Per-kind totals folded from finished operations.
struct KindTotals {
  uint64_t calls = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  int64_t self_ns = 0;  ///< wall minus the time covered by child spans
  int64_t max_ns = 0;
};

class ThreadTrace {
 public:
  static constexpr size_t kKeptOps = 2000;

  explicit ThreadTrace(int thread_id) : thread_id_(thread_id) {}

  /// Starts an operation's root span. With `traced` false the operation
  /// records nothing until the next BeginOp.
  void BeginOp(bool traced);
  void EndOp();
  bool active() const { return active_; }

  int Open(SpanKind kind);
  /// Ends span `idx` (the innermost open one) and returns it.
  const Span& Close(int idx);

  int thread_id() const { return thread_id_; }
  uint64_t traced_ops() const { return traced_ops_; }
  const KindTotals& totals(SpanKind k) const {
    return totals_[static_cast<int>(k)];
  }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  int thread_id_;
  bool active_ = false;
  uint64_t traced_ops_ = 0;
  std::vector<Span> spans_;   ///< the current op's spans, in open order
  std::vector<int32_t> open_; ///< stack of open span indices
  std::vector<int64_t> child_ns_;
  KindTotals totals_[kNumSpanKinds];
  std::vector<Span> kept_;
};

/// The calling thread's trace, or nullptr outside a benchmark worker.
ThreadTrace* CurrentTrace();
void SetCurrentTrace(ThreadTrace* t);

/// Times one call into a layer when the current op is traced.
class Timed {
 public:
  explicit Timed(SpanKind kind) : trace_(CurrentTrace()) {
    if (trace_ != nullptr && trace_->active()) {
      idx_ = trace_->Open(kind);
    } else {
      trace_ = nullptr;
    }
  }
  ~Timed() {
    if (trace_ != nullptr) trace_->Close(idx_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  ThreadTrace* trace_;
  int idx_ = -1;
};

/// Sums per-kind totals over threads.
void MergeTotals(const std::vector<const ThreadTrace*>& traces,
                 KindTotals out[kNumSpanKinds]);

/// Chrome trace-event JSON ("X" events, microseconds) of the kept spans.
std::string ChromeTraceJson(const std::vector<const ThreadTrace*>& traces);

}  // namespace perfbench
