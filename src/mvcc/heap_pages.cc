#include "mvcc/heap_pages.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "mvcc/mvcc_table.h"

namespace sias {

Status HeapPages::Fetch(Tid tid, VirtualClock* clk, TupleHeader* header,
                        std::string* payload) const {
  SIAS_ASSIGN_OR_RETURN(PageGuard guard,
                        pool_->FetchPage(PageId{relation_, tid.page}, clk));
  guard.LatchShared();
  Slice tuple = guard.page().GetTuple(tid.slot);
  if (tuple.empty() || !DecodeTupleHeader(tuple, header)) {
    return Status::NotFound("version slot dead");
  }
  if (payload != nullptr) {
    Slice p = TuplePayload(tuple);
    payload->assign(reinterpret_cast<const char*>(p.data()), p.size());
    if (clk != nullptr) clk->Cpu(kCpuTupleCopy);
  }
  return Status::OK();
}

Result<bool> HeapPages::VisitPage(PageNumber page_no, VirtualClock* clk,
                                  const Visitor& visit,
                                  size_t* free_space) const {
  SIAS_ASSIGN_OR_RETURN(PageGuard guard,
                        pool_->FetchPage(PageId{relation_, page_no}, clk));
  guard.LatchShared();
  SlottedPage page = guard.page();
  if (free_space != nullptr) *free_space = page.FreeSpace();
  for (uint16_t s = 0; s < page.slot_count(); ++s) {
    Slice tuple = page.GetTuple(s);
    VersionRef v{Tid{page_no, s}, {}};
    if (tuple.empty() || !DecodeTupleHeader(tuple, &v.header)) continue;
    if (!visit(v, tuple)) return false;
  }
  return true;
}

Status HeapPages::Scan(VirtualClock* clk, const Visitor& visit) const {
  SIAS_ASSIGN_OR_RETURN(PageNumber count, PageCount());
  for (PageNumber p = 0; p < count; ++p) {
    SIAS_ASSIGN_OR_RETURN(bool more, VisitPage(p, clk, visit));
    if (!more) break;
  }
  return Status::OK();
}

Result<PageNumber> HeapPages::PageCount() const {
  return pool_->disk()->PageCount(relation_);
}

Status HeapPages::Redo(const WalRecord& rec, Lsn lsn,
                       uint32_t page_flags) const {
  const Tid tid = rec.tid;
  const Slice tuple(rec.body);
  // An insert may name a page beyond the relation's durable end.
  while (rec.type == WalRecordType::kHeapInsert) {
    SIAS_ASSIGN_OR_RETURN(PageNumber count, PageCount());
    if (count > tid.page) break;
    SIAS_RETURN_NOT_OK(
        pool_->NewPage(relation_, nullptr, page_flags).status());
  }
  SIAS_ASSIGN_OR_RETURN(PageGuard guard,
                        pool_->FetchPage(PageId{relation_, tid.page}, nullptr));
  guard.LatchExclusive();
  SlottedPage page = guard.page();
  if (page.header()->lsn >= lsn) return Status::OK();  // already applied

  Status s;
  if (rec.type == WalRecordType::kHeapOverwrite) {
    s = page.OverwriteTuple(tid.slot, tuple);
    if (s.IsNotFound()) return Status::OK();
  } else if (rec.type == WalRecordType::kHeapSlotDelete) {
    s = page.DeleteTuple(tid.slot);
    if (s.IsNotFound()) s = Status::OK();
  } else {
    // GC recycling re-Init()s an emptied append page without a WAL record.
    // An insert at slot 0 newer than the surviving non-empty image means
    // the page was recycled in between: replay the re-init, or the old
    // generation's slots shadow the new one's. (This cannot fire for SI: it
    // appends at slot_count and Compact keeps slot numbers.) A page that
    // reads back all-zero — allocated, its only flush lost in the device
    // cache — also starts fresh; its creating inserts are still ahead.
    if ((tid.slot == 0 && page.slot_count() > 0) ||
        page.header()->lower == 0) {
      page.Init(relation_, tid.page, page_flags);
    }
    if (tid.slot < page.slot_count()) {
      s = page.OverwriteTuple(tid.slot, tuple);  // page flushed mid-sequence
    } else if (tid.slot != page.slot_count() ||
               page.InsertTuple(tuple) != tid.slot) {
      s = Status::Corruption(std::string("redo slot gap at ")
                                 .append(tid.ToString())
                                 .append(" slot_count=")
                                 .append(std::to_string(page.slot_count()))
                                 .append(" page_lsn=")
                                 .append(std::to_string(page.header()->lsn))
                                 .append(" rec_lsn=")
                                 .append(std::to_string(lsn)));
    }
  }
  if (s.ok()) guard.MarkDirty(lsn);
  return s;
}

void SortChronologically(std::vector<VersionRef>* versions) {
  std::unordered_map<uint64_t, const TupleHeader*> at;
  for (const VersionRef& v : *versions) at.emplace(v.tid.Pack(), &v.header);
  // Key: (xmin, same-xmin predecessors below). The depth bound stops a
  // walk that a recycled slot turned into a cycle.
  std::vector<std::pair<std::pair<Xid, size_t>, VersionRef>> keyed;
  keyed.reserve(versions->size());
  for (const VersionRef& v : *versions) {
    size_t depth = 0;
    for (auto it = at.find(v.header.pred().Pack());
         it != at.end() && it->second->xmin == v.header.xmin &&
         depth < at.size();
         it = at.find(it->second->pred().Pack())) {
      ++depth;
    }
    keyed.push_back({{v.header.xmin, depth}, v});
  }
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < keyed.size(); ++i) (*versions)[i] = keyed[i].second;
}

}  // namespace sias
