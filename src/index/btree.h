// Disk-backed B+-tree over the buffer pool.
//
// Index records are <key, value> pairs where the value is a packed TID under
// classical SI (one index entry per tuple *version*) or a VID under SIAS
// (one entry per data *item*) — the indexing change of paper §4.3. The tree
// itself is value-agnostic; engine/table.cc decides what to store.
//
// Design notes:
//  * Keys are order-preserving byte strings (index/key_codec.h) up to 48
//    bytes; entries are fixed-slot for simplicity and speed.
//  * Duplicate keys are allowed; entries order by (key, value).
//  * Deletion is lazy (no rebalancing), like PostgreSQL: emptied pages are
//    simply left for the tree to reuse poorly — acceptable for the workloads
//    reproduced here.
//  * Concurrency: one reader-writer latch for the whole tree. Page-level
//    latch crabbing is deliberately out of scope; the benchmark bottleneck
//    is device I/O, which still overlaps across terminals.
//  * Recovery: indexes are rebuilt from the heap after a crash (see
//    Database::Recover), so index pages need no WAL.
#pragma once

#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/analysis_annotations.h"
#include "common/function_ref.h"
#include "common/latch.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/types.h"

namespace sias {

/// B+-tree index. Thread-safe.
class BTree {
 public:
  static constexpr size_t kMaxKeyLen = 48;

  /// Creates/attaches a tree stored in `relation` (must exist and be empty
  /// for Create; use Attach after recovery rebuilds).
  BTree(RelationId relation, BufferPool* pool);

  /// Initializes an empty tree (allocates meta + root pages).
  Status Create(VirtualClock* clk);

  /// Inserts a <key, value> entry (duplicates by key allowed; the exact
  /// <key,value> pair is deduplicated).
  Status Insert(Slice key, uint64_t value, VirtualClock* clk);

  /// Removes the exact <key, value> entry. NotFound if absent.
  Status Delete(Slice key, uint64_t value, VirtualClock* clk);

  /// Visits entries in (key, value) order; returns false to stop. Both
  /// scans below copy entries out under the tree latch, kScanBatch at a
  /// time, and run the callback with no latch held, so it may read the heap
  /// or write this tree; the next batch resumes after the last entry handed
  /// out.
  using RangeCallback = FunctionRef<bool(Slice key, uint64_t value)>;
  static constexpr size_t kScanBatch = 32;

  /// Visits the entries stored under `key`.
  Status Lookup(Slice key, VirtualClock* clk, RangeCallback cb);

  /// Visits entries with lo <= key < hi. Pass empty `hi` for an unbounded
  /// upper end.
  Status Range(Slice lo, Slice hi, VirtualClock* clk, RangeCallback cb);

  /// Number of entries (maintained counter).
  uint64_t size() const;

  /// Tree height (levels above leaves + 1; tests/metrics).
  SIAS_DEAD_API_OK("btree_test checks that splits grow the tree");
  uint32_t height() const;

  /// Verifies ordering + structure invariants (tests).
  SIAS_DEAD_API_OK("btree_test checks ordering and structure");
  Status CheckInvariants(VirtualClock* clk);

  RelationId relation() const { return relation_; }

 private:
  Status SplitAndInsert(PageGuard leaf, std::vector<PageNumber> path,
                        Slice key, uint64_t value, VirtualClock* clk)
      SIAS_REQUIRES(tree_latch_);

  /// Entries copied out of the leaves by one latched pass of Scan.
  struct Batch;
  /// Lookup (`point`: only keys equal to `lo`) and Range: latched batch
  /// copies, then the callback with the latch released.
  Status Scan(Slice lo, Slice hi, bool point, VirtualClock* clk,
              RangeCallback cb);
  /// Copies up to kScanBatch entries, starting at (lo, lo_value) or, with
  /// `after`, just past it, under the read latch.
  Status CopyBatch(Slice lo, uint64_t lo_value, bool after, Slice hi,
                   bool point, VirtualClock* clk, Batch* out);

  RelationId relation_;
  BufferPool* pool_;

  /// Rank kBTree: acquired before any page latch (split latches several
  /// pages; the exclusive tree latch is what makes that same-rank nesting
  /// safe — see check/latch_order.h).
  mutable RwLatch tree_latch_{LatchRank::kBTree};
  PageNumber root_ SIAS_GUARDED_BY(tree_latch_) = kInvalidPageNumber;
  uint32_t height_ SIAS_GUARDED_BY(tree_latch_) = 0;
  uint64_t size_ SIAS_GUARDED_BY(tree_latch_) = 0;
};

}  // namespace sias
