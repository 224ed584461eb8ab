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

#include <functional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/analysis_annotations.h"
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

  /// All values stored under `key`.
  Result<std::vector<uint64_t>> Lookup(Slice key, VirtualClock* clk);

  /// Visits entries with lo <= key < hi in order; callback returns false to
  /// stop. Pass empty `hi` for an unbounded upper end.
  using RangeCallback = std::function<bool(Slice key, uint64_t value)>;
  Status Range(Slice lo, Slice hi, VirtualClock* clk,
               const RangeCallback& cb);

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
