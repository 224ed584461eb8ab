#include "mvcc/heap_pages.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/coding.h"
#include "fault/debug_ring.h"
#include "mvcc/mvcc_table.h"

namespace sias {

namespace {

// The apply step of each heap record type: the live change and its redo
// both run it on the exclusively latched page. A page image is only taken
// under its latch, so its LSN covers every slot it holds.

Status ApplyInsert(SlottedPage page, uint16_t slot, Slice tuple) {
  if (slot == page.slot_count() && page.InsertTuple(tuple) == slot) {
    return Status::OK();
  }
  return Status::Corruption("heap slot gap");
}

// `header` is the encoded 32-byte tuple header. Stores only the header bytes
// that differ: a pred-word rewrite must not plainly store bytes that
// latch-free readers load. NotFound only for a dead slot the page has; a
// slot it never received is Corruption, like a wrong-length record.
Status ApplyOverwrite(SlottedPage page, uint16_t slot, Slice header) {
  if (slot >= page.slot_count()) {
    return Status::Corruption("header rewrite beyond slot_count");
  }
  Slice stored = page.GetTuple(slot);
  if (stored.empty()) return Status::NotFound("dead slot");
  TupleHeader h;
  if (header.size() != kTupleHeaderSize || stored.size() < kTupleHeaderSize ||
      !DecodeTupleHeader(header, &h)) {
    return Status::Corruption("header rewrite is not one tuple header");
  }
  constexpr size_t kPredWord = 24;  // offset of (pred_page, pred_slot, flags)
  uint8_t* dst = const_cast<uint8_t*>(stored.data());
  if (memcmp(dst, header.data(), kPredWord) != 0) {
    memcpy(dst, header.data(), kPredWord);
  }
  if (memcmp(dst + kPredWord, header.data() + kPredWord, 8) != 0) {
    OverwritePredWord(dst, h.pred_page, h.pred_slot, h.flags);
  }
  return Status::OK();
}

// `body` lists the slots, fixed16 each. Already dead slots stay dead.
Status ApplySlotDelete(SlottedPage page, Slice body) {
  if (body.size() % 2 != 0) return Status::Corruption("odd slot list");
  for (size_t i = 0; i < body.size(); i += 2) {
    Status s = page.DeleteTuple(DecodeFixed16(body.data() + i));
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  if ((page.header()->flags & kPageFlagAppendRegion) == 0) page.Compact();
  return Status::OK();
}

Status Apply(SlottedPage page, WalRecordType type, uint16_t slot,
             Slice body) {
  switch (type) {
    case WalRecordType::kHeapInsert:
      return ApplyInsert(page, slot, body);
    case WalRecordType::kHeapOverwrite:
      return ApplyOverwrite(page, slot, body);
    case WalRecordType::kHeapSlotDelete:
      return ApplySlotDelete(page, body);
    default:
      return Status::InvalidArgument("not a heap record");
  }
}

}  // namespace

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

Result<uint16_t> HeapPages::Insert(PageNumber page_no, Slice tuple, Xid xid,
                                   VirtualClock* clk,
                                   size_t* free_space) const {
  SIAS_ASSIGN_OR_RETURN(PageGuard guard,
                        pool_->FetchPage(PageId{relation_, page_no}, clk));
  guard.LatchExclusive();
  SlottedPage page = guard.page();
  uint16_t slot = SlottedPage::kInvalidSlot;
  if (tuple.size() <= page.FreeSpace()) {
    slot = page.slot_count();
    SIAS_RETURN_NOT_OK(LogAndApply(&guard, WalRecordType::kHeapInsert, xid,
                                   Tid{page_no, slot}, tuple));
  }
  if (free_space != nullptr) *free_space = page.FreeSpace();
  return slot;
}

Status HeapPages::RewriteHeader(
    Tid tid, Xid xid, VirtualClock* clk,
    const std::function<void(TupleHeader*)>& edit) const {
  SIAS_ASSIGN_OR_RETURN(PageGuard guard,
                        pool_->FetchPage(PageId{relation_, tid.page}, clk));
  guard.LatchExclusive();
  Slice stored = guard.page().GetTuple(tid.slot);
  TupleHeader h;
  if (stored.empty() || !DecodeTupleHeader(stored, &h)) {
    return Status::NotFound("version slot dead");
  }
  edit(&h);
  std::string header;
  EncodeTuple(h, Slice(), &header);
  return LogAndApply(&guard, WalRecordType::kHeapOverwrite, xid, tid,
                     Slice(header));
}

Status HeapPages::KillSlots(PageNumber page_no,
                            const std::vector<uint16_t>& slots,
                            VirtualClock* clk, size_t* free_space) const {
  if (slots.empty()) return Status::OK();
  std::string body;
  for (uint16_t s : slots) PutFixed16(&body, s);
  SIAS_ASSIGN_OR_RETURN(PageGuard guard,
                        pool_->FetchPage(PageId{relation_, page_no}, clk));
  guard.LatchExclusive();
  SIAS_RETURN_NOT_OK(LogAndApply(&guard, WalRecordType::kHeapSlotDelete,
                                 kInvalidXid, Tid{page_no, 0}, Slice(body)));
  fault::DebugRingLog("heap_kill", relation_, page_no, slots.size());
  if (free_space != nullptr) *free_space = guard.page().FreeSpace();
  return Status::OK();
}

Result<PageGuard> HeapPages::Reinit(PageNumber page_no,
                                    VirtualClock* clk) const {
  SIAS_ASSIGN_OR_RETURN(PageGuard guard,
                        pool_->FetchPage(PageId{relation_, page_no}, clk));
  guard.LatchExclusive();
  SlottedPage page = guard.page();
  page.Init(relation_, page_no, kPageFlagAppendRegion);
  // Stamped directly: MarkDirty only raises the LSN, and the page's last
  // record may be the current position itself.
  const Lsn stamp = wal_ != nullptr ? wal_->current_lsn() : kInvalidLsn;
  page.header()->lsn = stamp;
  guard.MarkDirty(stamp);
  fault::DebugRingLog("region_recycle", relation_, page_no, stamp);
  guard.Unlatch();
  return guard;
}

Status HeapPages::LogAndApply(PageGuard* guard, WalRecordType type, Xid xid,
                              Tid tid, Slice body) const {
  Lsn lsn = kInvalidLsn;
  if (wal_ != nullptr) {
    WalRecord rec;
    rec.type = type;
    rec.xid = xid;
    rec.relation = relation_;
    rec.tid = tid;
    rec.body.assign(reinterpret_cast<const char*>(body.data()), body.size());
    SIAS_ASSIGN_OR_RETURN(lsn, wal_->Append(rec));
  }
  SIAS_RETURN_NOT_OK(Apply(guard->page(), type, tid.slot, body));
  guard->MarkDirty(lsn);
  return Status::OK();
}

Status HeapPages::Redo(const WalRecord& rec, Lsn lsn,
                       uint32_t page_flags) const {
  const Tid tid = rec.tid;
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

  // Reinit is not logged. An insert at slot 0 newer than the surviving
  // non-empty image means the page was recycled in between: replay the
  // re-init, or the old generation's slots shadow the new one's. (This
  // cannot fire for SI: it appends at slot_count and compaction keeps slot
  // numbers.) A page that reads back all-zero — allocated, its only flush
  // lost in the device cache — also starts fresh; its creating inserts are
  // still ahead.
  if (rec.type == WalRecordType::kHeapInsert &&
      ((tid.slot == 0 && page.slot_count() > 0) ||
       page.header()->lower == 0)) {
    page.Init(relation_, tid.page, page_flags);
  }
  Status s = Apply(page, rec.type, tid.slot, Slice(rec.body));
  if (s.IsNotFound()) s = Status::OK();  // header rewrite of a dead slot
  if (s.code() == StatusCode::kCorruption) {
    return Status::Corruption(
        "redo: " + s.message() + " at " + tid.ToString() + " slot_count=" +
        std::to_string(page.slot_count()) + " page_lsn=" +
        std::to_string(page.header()->lsn) + " rec_lsn=" + std::to_string(lsn));
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
