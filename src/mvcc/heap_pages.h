// Page-level access to a relation's tuple versions, shared by SI,
// SIAS-Chains and SIAS-V: all three store encoded tuples (mvcc/tuple.h) in
// slotted heap pages and differ only in how they index them. Recovery needs
// nothing beyond these pages: "all information that is required for a
// reconstruction is stored on each tuple version" (paper §6).
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

  HeapPages(BufferPool* pool, RelationId relation)
      : pool_(pool), relation_(relation) {}

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

  /// Redo of a kHeapInsert, kHeapOverwrite or kHeapSlotDelete record ending
  /// at `lsn`, gated by the page LSN. Pages redo creates or re-initializes
  /// get `page_flags`. A slot that is already dead makes an overwrite or a
  /// slot delete a no-op.
  Status Redo(const WalRecord& rec, Lsn lsn, uint32_t page_flags) const;

 private:
  BufferPool* pool_;
  RelationId relation_;
};

/// Orders one item's versions oldest first: by creator xid, then by place in
/// that creator's own predecessor chain (a transaction that writes an item k
/// times leaves k versions with one xmin, each pointing at the one before).
void SortChronologically(std::vector<VersionRef>* versions);

}  // namespace sias
