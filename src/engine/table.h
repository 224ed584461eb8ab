// Table: schema + multi-version heap + secondary indexes.
//
// Indexes sit behind the SecondaryIndex interface (index/secondary_index.h):
// the classical B+-tree of paper §4.3 — <key, TID> per version under SI,
// <key, VID> per item under SIAS, visibility resolved through the heap — or
// MV-PBT (index/mvpbt.h), whose version records answer visibility from the
// index alone. The table feeds every attached index the same write events
// and resolves probe hits against the heap only when the index could not
// (IndexHit::visibility_resolved).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "engine/schema.h"
#include "index/secondary_index.h"
#include "mvcc/mvcc_table.h"

namespace sias {

/// Extracts the index key bytes from a row (see index/key_codec.h): any
/// row -> key function, or IntColumns, whose keys the lookup-time key
/// recheck compares against a row in place, without building one.
class KeyExtractor {
 public:
  template <typename F, typename = std::enable_if_t<std::is_invocable_r_v<
                            std::string, F&, const Row&>>>
  KeyExtractor(F fn) : fn_(std::move(fn)) {}  // NOLINT: a lambda converts

  /// The key KeyBuilder().AddInt(...) builds from these int64 columns, in
  /// this order.
  static KeyExtractor IntColumns(std::vector<size_t> columns);

  std::string operator()(const Row& row) const;
  /// Whether `row`'s key is `key`.
  bool Matches(const Row& row, Slice key) const;

 private:
  KeyExtractor() = default;

  std::function<std::string(const Row&)> fn_;  ///< empty for IntColumns
  std::vector<size_t> int_columns_;
};

/// A logical table with typed rows and optional secondary indexes.
/// Thread-safe (delegates to thread-safe components).
class Table {
 public:
  Table(std::string name, Schema schema, std::unique_ptr<MvccTable> heap)
      : name_(std::move(name)), schema_(std::move(schema)),
        heap_(std::move(heap)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  MvccTable* heap() { return heap_.get(); }
  VersionScheme scheme() const { return heap_->scheme(); }

  /// Attaches a created index as index `index_id` (dense, 0-based).
  void AttachIndex(std::string index_name,
                   std::unique_ptr<SecondaryIndex> index,
                   KeyExtractor extractor);
  SecondaryIndex* index(size_t i) { return indexes_[i].index.get(); }

  Result<Vid> Insert(Transaction* txn, const Row& row);
  Status Update(Transaction* txn, Vid vid, const Row& new_row);
  Status Delete(Transaction* txn, Vid vid);
  Result<std::optional<Row>> Get(Transaction* txn, Vid vid);

  /// Batched Get: resolves all `vids` with up to `io_depth` heap page reads
  /// in flight (MvccTable::ReadMulti); result[i] corresponds to vids[i].
  Result<std::vector<std::optional<Row>>> GetMulti(
      Transaction* txn, const std::vector<Vid>& vids, size_t io_depth);

  /// Visits all rows visible to txn.
  using RowCallback = std::function<bool(Vid, const Row&)>;
  Status Scan(Transaction* txn, const RowCallback& cb);

  /// Equality lookup via index `index_id`; returns visible matches.
  Result<std::vector<std::pair<Vid, Row>>> IndexLookup(Transaction* txn,
                                                       size_t index_id,
                                                       Slice key);

  /// Range scan via index `index_id` over [lo, hi) in key order.
  Status IndexRange(Transaction* txn, size_t index_id, Slice lo, Slice hi,
                    const RowCallback& cb);

  /// Index-only range scan over [lo, hi): emits (key, vid) pairs of visible
  /// items without materializing rows. On an index that resolves visibility
  /// itself (MV-PBT) this touches no heap page; on a B+-tree every
  /// candidate is resolved through the heap version chain, counted in
  /// index.scan_heap_resolves — the HTAP bench's gated counter.
  using KeyVidCallback = std::function<bool(Slice key, Vid vid)>;
  Status IndexOnlyRange(Transaction* txn, size_t index_id, Slice lo,
                        Slice hi, const KeyVidCallback& cb);

  /// Garbage collection of the heap. B+-tree entries are not touched here:
  /// under SIAS, the probe that first finds an entry's item gone for every
  /// snapshot removes the entry (ResolveIndexHit); SI's per-version entries
  /// stay.
  Status GarbageCollect(Xid horizon, VirtualClock* clk);

  /// Vacuum-driven index maintenance (MV-PBT partition flush/merge).
  Status MaintainIndexes(Xid horizon, VirtualClock* clk);

  /// Rebuilds all indexes from the heap (recovery path; caller provides
  /// a quiescent transaction that sees all committed data).
  Status RebuildIndexes(Transaction* txn, VirtualClock* clk);

  /// Backfills one freshly attached index from the rows `txn` sees (an
  /// index created after the table was loaded starts empty).
  Status PopulateIndex(Transaction* txn, size_t index_id, VirtualClock* clk);

 private:
  struct IndexDef {
    std::string name;
    std::unique_ptr<SecondaryIndex> index;
    KeyExtractor extractor;
  };

  /// The one index-hit resolver: the visible (vid, row) behind `hit`
  /// (the index's verdict, or a scheme-dependent heap dereference with a
  /// key recheck), or nullopt when it is invisible, stale or, for an
  /// index-resolved hit, already in `seen`. A B+-tree can emit an item at
  /// most once per probe: one entry at most passes the key recheck, and
  /// under SI one version at most is visible.
  ///
  /// Under SIAS a candidate whose item no current or future snapshot can
  /// see (MvccTable::Read's `gone`) is removed from the index here, with
  /// the tree latch released (index.dead_entries_removed).
  Result<std::optional<std::pair<Vid, Row>>> ResolveIndexHit(
      Transaction* txn, const IndexHit& hit, const IndexDef& index,
      std::unordered_set<Vid>* seen);

  /// Collects (index_id, key, tid, vid) for every row `txn` sees; used by
  /// the rebuild/backfill paths (entries are posted after the heap scan so
  /// index latches never nest inside heap page latches).
  struct BackfillEntry {
    size_t index;
    std::string key;
    Tid tid;
    Vid vid;
  };
  Status CollectBackfill(Transaction* txn, const std::vector<size_t>& ids,
                         std::vector<BackfillEntry>* out);

  std::string name_;
  Schema schema_;
  std::unique_ptr<MvccTable> heap_;
  std::vector<IndexDef> indexes_;
};

}  // namespace sias
