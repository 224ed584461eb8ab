// Causal spans: per-transaction latency attribution in virtual time.
//
// A workload executor opens a TxnSpan root for each transaction attempt and
// the engine layers underneath open SPAN_SCOPE children (lock waits, flash
// reads, WAL group commit, version-chain traversal, GC interference). Each
// span carries a phase tag; the elapsed virtual time of a transaction is
// attributed to the innermost open span's phase ("self time"), so the six
// phase accumulators always sum exactly to the root's end-to-end latency —
// that invariant is what the `phase_sum_within` bench gate checks.
//
// On root completion the breakdown is folded into process-wide histograms
// (`txn.phase.*`, `txn.latency.committed|aborted`), a per-txn-type latency
// aggregate (`txn.latency.<type>`, injected into MetricsSnapshot by a
// snapshot augmenter), and a bounded top-K slowest-transaction exemplar
// buffer whose full span trees export as chrome://tracing JSON.
//
// Hot-path cost: one thread_local flag test when no root is active; fixed
// thread-local arrays otherwise. Push/pop never allocate (the DebugRing
// lesson: crash-point unwinds run these destructors), and the aggregator
// mutex (rank kSpanAggregator) is only taken at root completion, when no
// engine latch is held.
#pragma once

#include <cstdint>
#include <string>

#include "common/analysis_annotations.h"
#include "common/histogram.h"
#include "common/latch.h"
#include "common/types.h"
#include "common/vclock.h"
#include "obs/metrics.h"

namespace sias {
namespace obs {

/// Where a slice of a transaction's virtual time went. kApply is the
/// catch-all for the root's own self time (compute + version install).
enum class SpanPhase : uint8_t {
  kLockWait = 0,
  kIoWait = 1,
  kWalFlush = 2,
  kTraversal = 3,
  kGcDefer = 4,
  kApply = 5,
};
inline constexpr size_t kNumSpanPhases = 6;

/// "lock_wait", "io_wait", ... (matches the txn.phase.* metric suffixes).
const char* SpanPhaseName(SpanPhase p);

/// Nesting deeper than this still attributes time (to the enclosing phase)
/// but opens no new span; counted in obs.span.truncated.
inline constexpr int kMaxSpanDepth = 16;
/// Per-transaction cap on retained span records (exemplar tree size). Sized
/// for a TPC-C New-Order: tens of reads plus lock/IO/WAL waits.
inline constexpr int kMaxSpanRecords = 128;
/// Slots in the slowest-transaction exemplar buffer.
inline constexpr int kSpanExemplarSlots = 8;

/// One completed span, POD, preallocated per thread.
struct SpanRecord {
  const char* category = nullptr;  ///< string literal
  const char* name = nullptr;      ///< string literal
  VTime begin = 0;
  VTime end = 0;
  uint64_t wait_tag = 0;  ///< e.g. holder xid on lock waits; 0 = none
  uint8_t depth = 0;      ///< 0 = the root
  uint8_t phase = 0;      ///< SpanPhase
};

/// A retained slow transaction: identity, breakdown, and its span tree.
struct SpanExemplar {
  const char* txn_type = nullptr;
  uint64_t xid = 0;
  VTime begin = 0;
  VDuration latency = 0;
  VDuration phase_vns[kNumSpanPhases] = {};
  SpanRecord records[kMaxSpanRecords];
  uint32_t n_records = 0;
};

/// RAII child span. Free when no TxnSpan root is active on this thread.
/// Category and name must be string literals (stored by pointer).
class SpanScope {
 public:
  SpanScope(SpanPhase phase, const char* category, const char* name,
            uint64_t wait_tag = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Renames the span once the role is known (WAL flush leader vs follower).
  void set_name(const char* name);

 private:
  bool active_ = false;
  int rec_ = -1;  ///< index into the thread's record array, -1 if unrecorded
};

/// RAII per-transaction root. Opened by workload executors (they know the
/// transaction type); everything the engine does on this thread until the
/// destructor runs is attributed to this transaction. Re-entrant roots are
/// inert and counted in obs.span.orphans.
class TxnSpan {
 public:
  /// `txn_type` must be a string literal / stable pointer ("NewOrder", ...).
  TxnSpan(const char* txn_type, VirtualClock* clk);
  ~TxnSpan();
  TxnSpan(const TxnSpan&) = delete;
  TxnSpan& operator=(const TxnSpan&) = delete;

  /// Call before destruction when the transaction committed; uncommitted
  /// roots land in txn.latency.aborted and keep the phase histograms clean.
  void set_committed(bool committed);

  /// Closes the root early (the destructor is then a no-op) so trailing
  /// per-iteration work — e.g. Database::Tick — stays out of the latency.
  void Finish();

  bool active() const { return active_; }

 private:
  bool active_ = false;
  bool committed_ = false;
};

/// True when a TxnSpan root is open on the calling thread.
SIAS_DEAD_API_OK("span_test and crash_test check that roots close");
bool SpanRootActive();

/// Tags the calling thread's open root with the transaction's xid; a no-op
/// without one. TransactionManager::AssignXid calls it, so a read-only
/// transaction's exemplar carries xid 0.
void SetSpanXid(uint64_t xid);

/// Per-txn-type latency aggregation plus the top-K slowest exemplars.
/// Registered as a MetricsRegistry snapshot augmenter: every Snapshot() of
/// the default registry carries `txn.latency.<type>` summaries.
class SpanAggregator {
 public:
  static SpanAggregator& Default();

  /// Folds a committed root in: per-type latency and, if it ranks among the
  /// K slowest, its exemplar tree. `records`/`phase_vns` are copied.
  void RecordCommitted(const char* txn_type, uint64_t xid, VTime begin,
                       VDuration latency,
                       const VDuration phase_vns[kNumSpanPhases],
                       const SpanRecord* records, uint32_t n_records);

  /// Injects `txn.latency.<snake_case(type)>` summaries into `snap`.
  void Augment(MetricsSnapshot* snap) const;

  /// Chrome-trace JSON ({"traceEvents":[...]}) of the exemplar span trees;
  /// each exemplar renders on its own tid, timestamps in virtual µs.
  std::string ExemplarsToChromeTraceJson() const;

  SIAS_DEAD_API_OK("span_test checks how many exemplars are kept");
  size_t exemplar_count() const;
  /// Latency of the fastest retained exemplar (0 when empty).
  SIAS_DEAD_API_OK("span_test checks which exemplars are kept");
  VDuration exemplar_floor() const;

  void Reset();

 private:
  static constexpr int kMaxTxnTypes = 16;
  struct TypeAgg {
    const char* type = nullptr;
    Histogram latency;
  };

  /// Rank kSpanAggregator: above the registry mutex, below nothing it would
  /// take.
  mutable Mutex mu_{LatchRank::kSpanAggregator};
  TypeAgg types_[kMaxTxnTypes] SIAS_GUARDED_BY(mu_);
  int n_types_ SIAS_GUARDED_BY(mu_) = 0;
  SpanExemplar exemplars_[kSpanExemplarSlots] SIAS_GUARDED_BY(mu_);
  int n_exemplars_ SIAS_GUARDED_BY(mu_) = 0;
};

// Two-level expansion so __LINE__ pastes into a unique variable name.
#define SIAS_SPAN_CONCAT_(a, b) a##b
#define SIAS_SPAN_CONCAT(a, b) SIAS_SPAN_CONCAT_(a, b)

/// Opens a child span attributed to the catch-all kApply phase.
#define SPAN_SCOPE(category, name)                                        \
  ::sias::obs::SpanScope SIAS_SPAN_CONCAT(sias_span_, __LINE__)(          \
      ::sias::obs::SpanPhase::kApply, (category), (name))

/// Opens a child span attributed to an explicit phase.
#define SPAN_SCOPE_PHASE(phase, category, name)                           \
  ::sias::obs::SpanScope SIAS_SPAN_CONCAT(sias_span_, __LINE__)(          \
      (phase), (category), (name))

}  // namespace obs
}  // namespace sias
