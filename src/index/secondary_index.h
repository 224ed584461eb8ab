// Common secondary-index interface (engine/table.* attaches implementations
// per index, scheme/config-selectable).
//
// Two implementations exist:
//  * BTreeIndex (this header) — the classical value-only B+-tree of paper
//    §4.3: entries are <key, packed TID> under SI (one per version) or
//    <key, VID> under SIAS (one per item). Probes return *candidates*; the
//    table resolves visibility by dereferencing the heap version chain.
//  * MvPbt (index/mvpbt.h) — a multi-version partitioned B-tree whose
//    records carry the writer xid, so probes answer snapshot visibility
//    from index entries alone (hits come back visibility_resolved).
//
// The Table feeds every index the same write events (insert / update /
// delete with old+new keys); each implementation applies its own
// maintenance rule, so the scheme-specific policies live next to the
// structures they belong to instead of in engine/table.cc branches.
#pragma once

#include <memory>
#include <string>

#include "common/function_ref.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vclock.h"
#include "index/btree.h"
#include "txn/snapshot.h"

namespace sias {

/// Which secondary-index implementation Database::CreateIndex attaches.
enum class IndexKind {
  kBTree,
  kMvPbt,
};

/// Context of one heap write, handed to every attached index.
struct IndexWriteCtx {
  Xid xid = kInvalidXid;  ///< writing transaction
  Tid tid{};              ///< placed tuple version (new version on update)
  Vid vid = kInvalidVid;  ///< item identity
  VirtualClock* clk = nullptr;
};

/// One probe hit. `value` is what the implementation stores (packed TID or
/// VID); `visibility_resolved` reports whether the entry was already
/// filtered against the probing snapshot (MV-PBT) or is a raw candidate the
/// caller must resolve through the heap (B+-tree). `key` is valid for the
/// duration of the callback.
struct IndexHit {
  Slice key;
  uint64_t value = 0;
  bool visibility_resolved = false;
};

/// Abstract secondary index. Implementations are thread-safe.
class SecondaryIndex {
 public:
  virtual ~SecondaryIndex() = default;

  /// Implementation tag ("btree" / "mvpbt"), for logs and tests.
  virtual const char* kind() const = 0;

  /// Initializes (or re-initializes, recovery rebuild) an empty index.
  virtual Status Create(VirtualClock* clk) = 0;

  /// Write events, invoked by the owning Table after the heap write.
  virtual Status OnInsert(const IndexWriteCtx& ctx, Slice key) = 0;
  virtual Status OnUpdate(const IndexWriteCtx& ctx, Slice old_key,
                          Slice new_key) = 0;
  virtual Status OnDelete(const IndexWriteCtx& ctx, Slice key) = 0;

  /// Whether Delete events are needed (fetching the doomed row's key costs
  /// a heap read, so the table only does it when an index asks).
  virtual bool wants_delete_events() const = 0;

  /// Point probe / range scan over [lo, hi) ('hi' empty = unbounded) in key
  /// order; the callback returns false to stop. Implementations may buffer
  /// hits internally — the callback runs with no index latch held.
  using HitCallback = FunctionRef<bool(const IndexHit&)>;
  virtual Status Probe(const Snapshot& snap, Slice key, VirtualClock* clk,
                       const HitCallback& cb) = 0;
  virtual Status ProbeRange(const Snapshot& snap, Slice lo, Slice hi,
                            VirtualClock* clk, const HitCallback& cb) = 0;

  /// Vacuum-driven maintenance (MV-PBT partition flush/merge; B+-tree
  /// no-op). `horizon` bounds which superseded records may be purged.
  virtual Status Maintain(Xid horizon, VirtualClock* clk) = 0;

  /// Removes the candidate entry <key, value> of an item that no current or
  /// future snapshot can see (Table::ResolveIndexHit decides; only indexes
  /// whose hits need the heap are asked). An entry already gone is not an
  /// error. Returns whether this call removed it.
  virtual Result<bool> RemoveDeadEntry(Slice key, uint64_t value,
                                       VirtualClock* clk) = 0;

  /// Entry count (maintained; MV-PBT includes superseded records).
  virtual uint64_t entries() const = 0;
};

/// The classical B+-tree behind the common interface. Visibility is NOT
/// resolved here: hits are candidates for Table::ResolveIndexHit.
class BTreeIndex : public SecondaryIndex {
 public:
  BTreeIndex(RelationId relation, BufferPool* pool, VersionScheme scheme)
      : scheme_(scheme), tree_(relation, pool) {}

  const char* kind() const override { return "btree"; }
  Status Create(VirtualClock* clk) override { return tree_.Create(clk); }

  Status OnInsert(const IndexWriteCtx& ctx, Slice key) override {
    uint64_t v = scheme_ == VersionScheme::kSi ? ctx.tid.Pack() : ctx.vid;
    return tree_.Insert(key, v, ctx.clk);
  }

  Status OnUpdate(const IndexWriteCtx& ctx, Slice old_key,
                  Slice new_key) override {
    if (scheme_ == VersionScheme::kSi) {
      // SI: one index entry per version — every update hits every index.
      return tree_.Insert(new_key, ctx.tid.Pack(), ctx.clk);
    }
    // SIAS (§4.3): the index references the VID; only a key-value change
    // needs a new entry. The stale <old_key, VID> entry is filtered by the
    // key recheck on lookup, and removed once the item is gone for every
    // snapshot (RemoveDeadEntry).
    if (old_key != new_key) {
      return tree_.Insert(new_key, ctx.vid, ctx.clk);
    }
    return Status::OK();
  }

  Status OnDelete(const IndexWriteCtx&, Slice) override {
    // The entry stays while a snapshot may still read the row: under SIAS
    // the first probe that finds the item gone for every snapshot removes
    // it (RemoveDeadEntry); SI's per-version entries are never removed.
    return Status::OK();
  }

  bool wants_delete_events() const override { return false; }

  Status Probe(const Snapshot&, Slice key, VirtualClock* clk,
               const HitCallback& cb) override;
  Status ProbeRange(const Snapshot&, Slice lo, Slice hi, VirtualClock* clk,
                    const HitCallback& cb) override;

  Status Maintain(Xid, VirtualClock*) override { return Status::OK(); }
  Result<bool> RemoveDeadEntry(Slice key, uint64_t value,
                               VirtualClock* clk) override;
  uint64_t entries() const override { return tree_.size(); }

 private:
  VersionScheme scheme_;
  BTree tree_;
};

}  // namespace sias
