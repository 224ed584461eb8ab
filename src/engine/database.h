// Database: the top-level engine facade wiring devices, disk manager,
// buffer pool, WAL, transactions, tables and maintenance policies together.
//
// Flush thresholds (paper §5.2):
//   kT1BackgroundWriter — the PostgreSQL background-writer default: every
//     bgwriter pass writes out ALL dirty pages, including partially-filled
//     SIAS append pages ("sparsely filled pages are persisted too
//     frequently").
//   kT2Checkpoint — append-region pages are only flushed when a checkpoint
//     piggybacks them; they fill completely in memory first.
//
// Maintenance runs in *virtual* time: worker threads call Tick() and the
// first thread to cross a deadline performs the pass, charging its own
// clock (the bandwidth the bgwriter/checkpointer steals from transactions).
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "buffer/buffer_pool.h"
#include "common/analysis_annotations.h"
#include "common/latch.h"
#include "core/sias_table.h"
#include "engine/table.h"
#include "index/mvpbt.h"
#include "mvcc/si_heap.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "txn/txn_manager.h"
#include "wal/wal.h"

namespace sias {

/// When SIAS append pages reach the device (paper §5.2 thresholds).
enum class FlushPolicy {
  kT1BackgroundWriter,
  kT2Checkpoint,
};

struct DatabaseOptions {
  /// Data device (owned by caller; must outlive the Database).
  StorageDevice* data_device = nullptr;
  /// WAL device; if null the WAL is disabled (unlogged database).
  StorageDevice* wal_device = nullptr;

  size_t pool_frames = 4096;              ///< buffer pool size (8 KB frames)
  FlushPolicy flush_policy = FlushPolicy::kT2Checkpoint;
  VDuration bgwriter_interval = 200 * kVMillisecond;
  VDuration checkpoint_interval = 30 * kVSecond;
  /// Engine-driven GC cadence: Tick() runs Vacuum() (version GC + device
  /// TRIM of reclaimed append pages) every `vacuum_interval` of virtual
  /// time. 0 disables it — GC then only runs via explicit Vacuum() calls.
  VDuration vacuum_interval = 0;
  int lock_timeout_ms = 1000;
  uint64_t wal_limit_bytes = 4ull << 30;
};

/// Knobs for Database::Recover. The sabotage knob exists for the crash-test
/// suite: it proves the post-recovery invariant checks actually catch a
/// recovery that silently loses a redo record.
struct RecoverOptions {
  /// Test-only: skip applying the Nth (0-based) heap redo record. The
  /// resulting database must FAIL the crash-consistency invariants.
  int64_t skip_redo_record = -1;
};

/// Per-database totals the process-wide registry cannot give: the data
/// device's own stats and the engine's allocation and maintenance counts.
/// Buffer, WAL and transaction events are counted once, in the buffer.*,
/// wal.* and txn.* registry counters.
struct DatabaseStats {
  DeviceStats device;
  uint64_t heap_allocated_bytes = 0;
  uint64_t checkpoints = 0;
  uint64_t bgwriter_passes = 0;
};

/// The engine. All public methods are thread-safe.
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(const DatabaseOptions& opts);
  ~Database();

  /// Creates a table with the given version scheme. Relation ids are
  /// assigned deterministically in creation order, so re-declaring the same
  /// tables in the same order after a crash binds them to their data.
  Result<Table*> CreateTable(const std::string& name, Schema schema,
                             VersionScheme scheme);

  /// Adds a B+-tree index on `table` (key,TID under SI; key,VID under SIAS).
  Status CreateIndex(Table* table, const std::string& index_name,
                     KeyExtractor extractor);

  /// Adds a secondary index of the chosen implementation. kMvPbt indexes
  /// answer visibility from their own version records (index/mvpbt.h);
  /// `mvpbt` tunes their flush/merge thresholds and is ignored for kBTree.
  Status CreateIndex(Table* table, const std::string& index_name,
                     KeyExtractor extractor, IndexKind kind,
                     const MvPbtOptions& mvpbt = {});

  /// Transactions.
  std::unique_ptr<Transaction> Begin(VirtualClock* clock);
  Status Commit(Transaction* txn);
  Status Abort(Transaction* txn);

  /// Virtual-time maintenance hook; call frequently from worker threads.
  /// Runs the bgwriter pass (and, with it, an epoch advance and reclaim
  /// when the caller is outside an epoch), paced checkpoints and vacuum.
  Status Tick(VirtualClock* clk);

  /// Sharp (synchronous) checkpoint: flush dirty pages + WAL, persist the
  /// control block. Used at shutdown, after loading, and in tests.
  Status Checkpoint(VirtualClock* clk);

  /// Paced checkpoint, PostgreSQL-style (checkpoint_completion_target):
  /// snapshots the dirty-page list; subsequent background-writer passes
  /// drain it incrementally as async device writes, and the control block
  /// is persisted when the drain completes. Triggered by Tick().
  Status StartPacedCheckpoint(VirtualClock* clk);

  /// One background-writer pass under the configured flush policy.
  Status BgWriterPass(VirtualClock* clk);

  /// Garbage-collects every table up to the current GC horizon, then runs
  /// index maintenance (MV-PBT partition flush/merge) and an epoch-reclaim
  /// pass. At most one vacuum runs at a time: SiasTable::GarbageCollect
  /// checks a page against its gc_pending_ set before the page's inventory
  /// but inserts it only at the page's one deferred kill, after the plan,
  /// relocation and republish steps, so two overlapping passes could pick
  /// the same page and double-enqueue its epoch-deferred slot kills. A call
  /// that finds another vacuum in flight returns OK without doing work (the
  /// running pass covers the cadence; single-threaded callers are never
  /// skipped).
  Status Vacuum(VirtualClock* clk);

  /// Crash recovery: restores the control block, replays the WAL, aborts
  /// in-flight transactions, rebuilds VidMaps/locators and indexes.
  /// Call after re-declaring all tables and indexes (same creation order).
  /// Idempotent: redo is LSN-gated per page and the rebuild passes recreate
  /// their structures from scratch, so running it twice (or after a paced
  /// checkpoint died mid-drain) converges to the same state. Progress is
  /// exported through the db.recovery.* gauges.
  Status Recover() { return Recover(RecoverOptions{}); }
  Status Recover(const RecoverOptions& ropts);

  TransactionManager* txns() { return &txns_; }
  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  WalWriter* wal() { return wal_.get(); }
  DatabaseStats stats() const;

  /// Refreshes the `db.*` gauges (device totals, heap allocation, maintenance
  /// passes, active transactions, GC-horizon lag) from engine state and
  /// returns a snapshot
  /// of the process-wide metrics registry. See docs/OBSERVABILITY.md.
  obs::MetricsSnapshot DumpMetrics();

  /// Makespan across all terminal clocks (advanced by Tick / Commit).
  SIAS_DEAD_API_OK("integration_test resumes its bursts at the makespan");
  VTime max_vtime() const;

 private:
  explicit Database(const DatabaseOptions& opts);

  /// Control block, dual-slot ping-pong: writes alternate between two
  /// half-region slots under a monotone sequence number, so a crash mid-
  /// write (torn control block) always leaves the previous slot intact.
  /// ReadControlBlock picks the highest-sequence slot with a valid CRC.
  Status WriteControlBlock(Lsn checkpoint_lsn, VirtualClock* clk);
  Result<Lsn> ReadControlBlock();

  /// Sequence number of the last control block written; the next write
  /// lands in slot (seq+1) % 2.
  std::atomic<uint64_t> control_seq_{0};
  /// Gates full-page-image logging: recovery replays the log with the WAL
  /// writer not yet resumed, so its own evictions/flushes must not append.
  std::atomic<bool> fpi_enabled_{true};

  DatabaseOptions opts_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<WalWriter> wal_;
  Clog clog_;
  LockManager locks_;
  TransactionManager txns_;

  /// Rank kDbCatalog: held while creating tables/indexes and while the
  /// maintenance passes walk the table list (inside kDbMaintenance).
  Mutex catalog_mu_{LatchRank::kDbCatalog};
  RelationId next_relation_ SIAS_GUARDED_BY(catalog_mu_) = 1;
  std::map<std::string, std::unique_ptr<Table>> tables_
      SIAS_GUARDED_BY(catalog_mu_);

  Status DrainCheckpointLocked(VirtualClock* clk)
      SIAS_REQUIRES(maintenance_mu_);
  /// Relation -> flags of its heap pages: the pages of SIAS heaps are
  /// append-region pages, so flush policies and redo need not read page
  /// bytes to tell. Index relations are absent.
  std::unordered_map<RelationId, uint32_t> HeapPageFlags();

  std::atomic<VTime> next_bgwriter_{0};
  std::atomic<VTime> next_checkpoint_{0};
  std::atomic<VTime> next_vacuum_{0};
  /// Single-flight guard for Vacuum (see its doc comment). Distinct
  /// terminals can win the next_vacuum_ CAS for *different* intervals while
  /// an earlier pass is still running; this flag makes the overlap a no-op.
  std::atomic<bool> vacuum_running_{false};
  // Paced-checkpoint state.
  std::deque<PageId> ckpt_queue_ SIAS_GUARDED_BY(maintenance_mu_);
  size_t ckpt_drain_per_pass_ SIAS_GUARDED_BY(maintenance_mu_) = 0;
  Lsn pending_ckpt_lsn_ SIAS_GUARDED_BY(maintenance_mu_) = kInvalidLsn;
  bool ckpt_active_ SIAS_GUARDED_BY(maintenance_mu_) = false;
  /// Per-thread-shard maximum of the clocks seen by Tick / Commit;
  /// max_vtime() folds them. Sharded like obs::Counter so no line is
  /// written by every terminal on every operation.
  struct alignas(64) MakespanShard {
    std::atomic<VTime> v{0};
  };
  std::array<MakespanShard, obs::kCounterShards> makespan_;
  void AdvanceMakespan(VTime now);
  /// Rank kDbMaintenance: the outermost engine latch — bgwriter and
  /// checkpoint passes hold it across catalog walks, region sealing and
  /// pool flushes.
  Mutex maintenance_mu_{LatchRank::kDbMaintenance};

  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> bgwriter_passes_{0};
};

}  // namespace sias
