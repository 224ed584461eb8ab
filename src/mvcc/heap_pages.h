// Page-level access to a relation's tuple versions, shared by SI,
// SIAS-Chains and SIAS-V: all three store encoded tuples (mvcc/tuple.h) in
// slotted heap pages and differ only in how they index them. Recovery needs
// nothing beyond these pages: "all information that is required for a
// reconstruction is stored on each tuple version" (paper §6).
//
// Every change to a heap page goes through this class. Each logged change
// appends its WAL record first, under the page's exclusive latch, and
// touches the page only once the append succeeded; the page is then changed
// by the same apply step `Redo` replays, so a live change and its redo give
// identical page bytes.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "mvcc/tuple.h"
#include "wal/wal.h"

namespace sias {

/// A version's location and decoded header.
struct VersionRef {
  Tid tid;
  TupleHeader header;
};

/// The stored versions of one relation, reached through the buffer pool.
class HeapPages {
 public:
  /// Called per live version in slot order, under the page's shared latch;
  /// `tuple` aliases page bytes. Return false to stop.
  using Visitor = std::function<bool(const VersionRef&, Slice tuple)>;

  /// Changes are logged to `wal` when one is given.
  HeapPages(BufferPool* pool, RelationId relation, WalWriter* wal = nullptr)
      : pool_(pool), relation_(relation), wal_(wal) {}

  /// Reads the header (and the payload, when `payload` is given) of the
  /// version at `tid` under a shared latch. NotFound when the slot is dead.
  Status Fetch(Tid tid, VirtualClock* clk, TupleHeader* header,
               std::string* payload) const;

  /// Visits the live versions of one page; false when `visit` stopped.
  /// `free_space`, when given, receives the page's free space.
  Result<bool> VisitPage(PageNumber page, VirtualClock* clk,
                         const Visitor& visit,
                         size_t* free_space = nullptr) const;

  /// Visits every live version of the relation, page by page.
  Status Scan(VirtualClock* clk, const Visitor& visit) const;

  Result<PageNumber> PageCount() const;

  /// Appends `tuple` to `page` (kHeapInsert, by `xid`). Returns the new
  /// slot, or kInvalidSlot with nothing logged when the page lacks room.
  /// `free_space`, when given, receives the page's free space afterwards.
  Result<uint16_t> Insert(PageNumber page, Slice tuple, Xid xid,
                          VirtualClock* clk,
                          size_t* free_space = nullptr) const;

  /// Rewrites the header of the live version at `tid` (kHeapOverwrite, by
  /// `xid`, logging just the header) with `edit` applied to it. Only header
  /// bytes that change are stored, the pred word with one atomic store, so
  /// latch-free readers never load a torn pointer. NotFound, with nothing
  /// logged, when the slot is dead or not on the page.
  Status RewriteHeader(Tid tid, Xid xid, VirtualClock* clk,
                       const std::function<void(TupleHeader*)>& edit) const;

  /// Kills `slots` of `page` with one kHeapSlotDelete record listing them.
  /// A page outside an append region is then compacted; append pages never
  /// are, because latch-free readers hold offsets into them. `free_space`
  /// as for Insert.
  Status KillSlots(PageNumber page, const std::vector<uint16_t>& slots,
                   VirtualClock* clk, size_t* free_space = nullptr) const;

  /// Empties a reclaimed append page for reuse and returns it pinned,
  /// unlatched. The re-init is not logged: the fresh image is stamped with
  /// the current WAL position, so it outranks every record of the previous
  /// generation, and Redo replays it when a newer insert lands at slot 0.
  Result<PageGuard> Reinit(PageNumber page, VirtualClock* clk) const;

  /// Redo of a kHeapInsert, kHeapOverwrite or kHeapSlotDelete record ending
  /// at `lsn`, gated by the page LSN. Pages redo creates or re-initializes
  /// get `page_flags`. A slot that is already dead makes an overwrite or a
  /// slot kill a no-op; an overwrite of a slot the page never received, a
  /// slot gap or a malformed body is Corruption naming the page and LSNs.
  Status Redo(const WalRecord& rec, Lsn lsn, uint32_t page_flags) const;

 private:
  /// Appends the record (when logging), then applies it to the page `guard`
  /// holds exclusively and dirties it with the record's LSN.
  Status LogAndApply(PageGuard* guard, WalRecordType type, Xid xid, Tid tid,
                     Slice body) const;

  BufferPool* pool_;
  RelationId relation_;
  WalWriter* wal_;
};

/// Orders one item's versions oldest first: by creator xid, then by place in
/// that creator's own predecessor chain (a transaction that writes an item k
/// times leaves k versions with one xmin, each pointing at the one before).
void SortChronologically(std::vector<VersionRef>* versions);

}  // namespace sias
