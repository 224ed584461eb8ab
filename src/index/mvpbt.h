// MV-PBT: multi-version partitioned B-tree secondary index (Riegger &
// Gottstein, PAPERS.md — the successor to this paper's §4.3 index design).
//
// Shape: one mutable in-memory *buffer partition* absorbs all index-record
// posts, and a stack of immutable *flushed partitions* holds older records
// on flash. Index records are version records, not key→value entries:
//
//   kInsert <key, vid, xid, seq>  — xid created the association key↔vid
//   kAnti   <key, vid, xid, seq>  — xid moved vid away from key (update)
//   kDelete <key, vid, xid, seq>  — xid deleted the item
//
// The creating record's xid is the association's xmin; the anti/delete
// record that supersedes it carries the xmax — one record per event, so
// posting is strictly append (no in-place xmax stamping, matching SIAS's
// invalidation model). `seq` is a per-tree monotone counter giving the
// total event order within one (key, vid) group (heap row locks serialize
// writers per item, so concurrent posts to one group cannot interleave).
//
// Visibility from index entries alone: a probe merges the buffer with all
// partitions (newest first), groups records by (key, vid), walks each group
// in descending seq order and lets the FIRST record whose creator the
// snapshot can see (Snapshot::CreatorVisible — in-snapshot AND clog
// committed, so aborted writers filter out automatically) decide: kInsert
// means the vid is visible under the key, kAnti/kDelete means it is not.
// No heap dereference is needed for the visibility verdict; the heap is
// consulted only for attributes not present in the entry.
//
// Flush: when the buffer fills (inline) or vacuum asks (Maintain), the
// buffer is sorted and written through the ordinary BufferPool/WAL stack as
// freshly appended pages — strictly sequential writes that suit flash, each
// covered by a full-page image via the pool's FPI hook, so a torn write at
// a crash can never surface a half-built partition. Merge (also from
// Maintain) compacts all flushed partitions into one, purging records no
// active snapshot can distinguish. Superseded PartitionSet descriptors are
// reclaimed through epoch-based reclamation: probes pin an epoch while
// copying the set, writers retire the old descriptor to
// EpochManager::Retire. Replaced partition *pages* are not recycled — the
// space amplification is documented in docs/INDEXING.md.
//
// Crash recovery mirrors the B+-tree: the index is rebuilt from the heap
// (Create resets all state; Database::Recover reposts visible rows), so
// partitions need no redo logic of their own.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/analysis_annotations.h"
#include "common/latch.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "index/secondary_index.h"
#include "txn/clog.h"

namespace sias {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

/// Tuning knobs, per index. Defaults suit the TPC-C scale used in benches;
/// tests shrink them to force flush/merge activity.
struct MvPbtOptions {
  /// Buffer partition size that triggers an inline flush on post.
  size_t max_buffer_entries = 4096;
  /// Maintain() flushes the buffer when it holds at least this many records
  /// (smaller buffers wait for more posts rather than spraying tiny
  /// partitions).
  size_t vacuum_flush_min = 256;
  /// Maintain() merges all flushed partitions into one when their count
  /// exceeds this (probe cost grows with the partition stack).
  size_t max_partitions = 4;
};

/// Multi-version partitioned B-tree. Thread-safe.
class MvPbt : public SecondaryIndex {
 public:
  /// `clog` outlives the index (it is the Database's commit log; probes
  /// consult it for the committed half of the visibility check).
  MvPbt(RelationId relation, BufferPool* pool, const Clog* clog,
        MvPbtOptions opts = {});
  ~MvPbt() override;

  const char* kind() const override { return "mvpbt"; }

  /// Resets to an empty index (initial creation and recovery rebuild).
  /// Previously flushed pages are abandoned, not reclaimed.
  Status Create(VirtualClock* clk) override;

  Status OnInsert(const IndexWriteCtx& ctx, Slice key) override;
  Status OnUpdate(const IndexWriteCtx& ctx, Slice old_key,
                  Slice new_key) override;
  Status OnDelete(const IndexWriteCtx& ctx, Slice key) override;

  /// Delete must post a kDelete record, which needs the doomed row's key.
  bool wants_delete_events() const override { return true; }

  /// Probe hits are emitted with visibility_resolved=true, in (key, vid)
  /// order, at most one hit per (key, vid) group.
  Status Probe(const Snapshot& snap, Slice key, VirtualClock* clk,
               const HitCallback& cb) override;
  Status ProbeRange(const Snapshot& snap, Slice lo, Slice hi,
                    VirtualClock* clk, const HitCallback& cb) override;

  /// Vacuum hook: flushes a sufficiently full buffer, then merges the
  /// partition stack when it exceeds max_partitions, purging records no
  /// snapshot at or above `horizon` can distinguish.
  Status Maintain(Xid horizon, VirtualClock* clk) override;

  /// Never asked: every hit is visibility-resolved, and superseded records
  /// go in Maintain's merges.
  Result<bool> RemoveDeadEntry(Slice, uint64_t, VirtualClock*) override {
    return false;
  }

  /// Live records (buffer + all flushed partitions, superseded included).
  uint64_t entries() const override;

  // -- Introspection / test hooks -------------------------------------------

  /// Number of flushed partitions currently installed.
  SIAS_DEAD_API_OK("mvpbt_test checks flush and merge activity");
  size_t num_partitions() const;
  /// Records currently in the buffer partition.
  SIAS_DEAD_API_OK("mvpbt_test checks what a flush drains");
  size_t buffer_entries() const;
  /// Forces a buffer flush regardless of thresholds (tests).
  SIAS_DEAD_API_OK("mvpbt_test forces partitions below the thresholds");
  Status Flush(VirtualClock* clk);

  RelationId relation() const { return relation_; }

 private:
  enum class RecordType : uint8_t {
    kInsert = 0,
    kDelete = 1,
    kAnti = 2,
  };

  struct Record {
    std::string key;
    Vid vid = kInvalidVid;
    Xid xid = kInvalidXid;
    uint64_t seq = 0;
    RecordType type = RecordType::kInsert;
  };

  /// One immutable flushed partition: pages hold records sorted by
  /// (key asc, vid asc, seq desc); first_keys[i] is the first key on
  /// pages[i] (page-skip index for probes).
  struct Partition {
    std::vector<PageNumber> pages;
    std::vector<std::string> first_keys;
    uint64_t records = 0;
  };

  /// The installed stack of flushed partitions, newest first. Immutable
  /// once published; replaced wholesale by flush/merge and reclaimed via
  /// the epoch manager.
  struct PartitionSet {
    std::vector<std::shared_ptr<const Partition>> parts;
  };

  Status Post(Slice key, Vid vid, Xid xid, RecordType type,
              VirtualClock* clk);

  /// Sorts and writes `records` as one new partition (appended pages,
  /// FPI-covered explicit flushes). Does not install it.
  Status WritePartition(std::vector<Record> records, VirtualClock* clk,
                        std::shared_ptr<const Partition>* out)
      SIAS_REQUIRES(latch_);

  /// Publishes a new partition stack and epoch-retires the old descriptor.
  void InstallLocked(std::vector<std::shared_ptr<const Partition>> parts)
      SIAS_REQUIRES(latch_);

  Status FlushLocked(VirtualClock* clk) SIAS_REQUIRES(latch_);
  Status MergeLocked(Xid horizon, VirtualClock* clk) SIAS_REQUIRES(latch_);

  /// Appends every record on `part` with lo <= key (< hi when hi is
  /// non-empty; key == lo exactly when `point`) to `out`.
  Status CollectFromPartition(const Partition& part, Slice lo, Slice hi,
                              bool point, VirtualClock* clk,
                              std::vector<Record>* out) const;

  Status ProbeImpl(const Snapshot& snap, Slice lo, Slice hi, bool point,
                   VirtualClock* clk, const HitCallback& cb);

  const RelationId relation_;
  BufferPool* const pool_;
  const Clog* const clog_;
  const MvPbtOptions opts_;

  /// Rank kMvPbt: taken before any page latch / pool mutex (flush writes
  /// pages while holding it exclusively) and compatible with an epoch pin
  /// (kMvPbt < kPage, see check::OnEpochEnter).
  mutable RwLatch latch_{LatchRank::kMvPbt};
  std::vector<Record> buffer_ SIAS_GUARDED_BY(latch_);
  uint64_t next_seq_ SIAS_GUARDED_BY(latch_) = 1;
  uint64_t flushed_records_ SIAS_GUARDED_BY(latch_) = 0;

  /// Written under latch_ (exclusive); read by probes under an epoch pin
  /// (the shared latch_ is also held there, but the epoch is what keeps a
  /// loaded pointer alive past the latch).
  std::atomic<const PartitionSet*> partitions_{nullptr};

  std::atomic<uint64_t> entries_{0};

  // Observability (docs/OBSERVABILITY.md, mvpbt.* rows).
  obs::Counter* m_posted_;
  obs::Counter* m_flushes_;
  obs::Counter* m_merges_;
  obs::Counter* m_pages_written_;
  obs::Counter* m_purged_;
  obs::Counter* m_probes_;
  obs::Gauge* g_buffer_;
  obs::Gauge* g_partitions_;
};

}  // namespace sias
