// CrashRunner — the crash-consistency harness.
//
// Drives a deterministic keyed workload (inserts, updates, aborts, read-only
// transactions, explicit checkpoint / paced-checkpoint / bgwriter / vacuum
// passes) against a Database whose devices are FaultyDevice write-back
// caches, kills the engine at a chosen crash point via an armed
// FaultInjector, reopens on the surviving bytes, runs Recover(), and checks
// the crash-consistency invariant suite:
//
//   1. every committed key is readable through the index with its last
//      committed value;
//   2. nothing uncommitted or aborted is visible (scan = committed set,
//      modulo transactions whose Commit raced the power cut — those may
//      legitimately land either way);
//   3. index and heap agree (every scan row is index-reachable and vice
//      versa);
//   4. under SIAS, every visible item's version chain/vector resolves;
//   5. the xid allocator is past every pre-crash xid.
//
// Everything derives from CrashConfig::seed, so a failing scenario replays
// bit-exactly (docs/FAULTS.md).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/analysis_annotations.h"
#include "device/mem_device.h"
#include "engine/database.h"
#include "fault/fault_injector.h"
#include "fault/faulty_device.h"

namespace sias {
namespace fault {

struct CrashConfig {
  VersionScheme scheme = VersionScheme::kSiasV;
  FlushPolicy flush_policy = FlushPolicy::kT2Checkpoint;
  uint64_t seed = 1;

  /// Crash point to cut power at (empty = no crash-point rule); `nth` picks
  /// which hit of that point fires and `tear` tears the first dropped
  /// cached write mid-sector.
  std::string crash_point;
  uint64_t nth = 1;
  bool tear = false;
  /// Additional injector rules (e.g. device-op power cuts for fuzzing).
  std::vector<FaultRule> extra_rules;

  /// Discovery pass: record crash-point hits, never fire a rule.
  bool record_only = false;

  int txns = 90;  ///< workload length (bounded; maintenance at fixed indices)
  int keys = 16;  ///< key-space size

  /// Secondary-index implementation for "kv_pk". With kMvPbt the Vacuum
  /// pass flushes the index buffer through the mvpbt.flush.* crash points,
  /// so the matrix covers a power cut mid-partition-flush.
  IndexKind index_kind = IndexKind::kBTree;
  /// Small thresholds so the bounded workload actually reaches a flush (the
  /// production defaults would never fill the buffer with `keys` items).
  MvPbtOptions mvpbt{/*max_buffer_entries=*/32, /*vacuum_flush_min=*/1,
                     /*max_partitions=*/2};
};

struct CrashReport {
  bool crashed = false;  ///< the power cut fired mid-workload
  int committed = 0;     ///< transactions whose Commit returned OK
  int aborted = 0;       ///< transactions the workload aborted on purpose
  int uncertain = 0;     ///< Commits that raced the cut (outcome unknown)
  int read_only = 0;     ///< read-only transactions committed and checked
  std::vector<std::string> seen_points;  ///< crash points reached
};

class CrashRunner {
 public:
  explicit CrashRunner(const CrashConfig& cfg);
  ~CrashRunner();

  CrashRunner(const CrashRunner&) = delete;
  CrashRunner& operator=(const CrashRunner&) = delete;

  /// Opens the database and runs the workload until it completes or the
  /// injected power cut kills the engine. Injected failures are absorbed
  /// (see report().crashed); any other failure propagates.
  Status RunWorkload();

  /// Disarms the injector, revives the devices, reopens the database on
  /// the surviving bytes, re-declares the catalog (same creation order)
  /// and runs Recover(ropts).
  SIAS_DEAD_API_OK("crash_test recovers each cut database through it");
  Status ReopenAndRecover(const RecoverOptions& ropts = RecoverOptions{});

  /// Post-recovery invariant suite; non-OK pinpoints the violation.
  SIAS_DEAD_API_OK("crash_test checks every recovered database");
  Status CheckInvariants();

  SIAS_DEAD_API_OK("crash_test reads each run's outcome");
  CrashReport report() const;
  Database* db() { return db_.get(); }
  Table* table() { return table_; }
  FaultInjector* injector() { return &injector_; }
  VirtualClock* clock() { return &clk_; }

 private:
  Status OpenDb();
  /// A read-only transaction: looks `key` up through the index and scans
  /// the table, checks both against the committed set, commits.
  Status ReadOnlyCheck(int64_t key);

  CrashConfig cfg_;
  FaultInjector injector_;
  MemDevice data_mem_;
  MemDevice wal_mem_;
  FaultyDevice data_dev_;
  FaultyDevice wal_dev_;

  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  VirtualClock clk_;

  /// Expected state: last committed value per key, plus per-key values a
  /// cut-racing Commit may or may not have made durable.
  std::map<int64_t, std::string> committed_;
  std::map<int64_t, std::set<std::string>> uncertain_;
  std::map<int64_t, Vid> vids_;
  std::map<int64_t, Vid> crash_vids_;  // pre-crash key->vid, for diagnostics
  Xid last_xid_ = 0;  ///< highest xid whose Commit returned OK pre-crash
  int64_t next_probe_ = 1000000;  ///< post-recovery probe keys

  CrashReport report_;
};

/// Runs the full workload with a record-only injector and returns every
/// crash point it reached (sorted). The crash-matrix test sweeps these.
SIAS_DEAD_API_OK("crash_test sweeps the points it finds");
Result<std::vector<std::string>> DiscoverCrashPoints(CrashConfig cfg);

}  // namespace fault
}  // namespace sias
