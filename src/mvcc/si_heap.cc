#include "mvcc/si_heap.h"

#include <algorithm>

#include "common/logging.h"
#include "mvcc/mvcc_counters.h"
#include "mvcc/visibility.h"
#include "obs/span.h"

namespace sias {

SiHeap::SiHeap(RelationId relation, TableEnv env)
    : relation_(relation), env_(env) {}

Result<Tid> SiHeap::PlaceTuple(Slice tuple, Transaction* txn) {
  VirtualClock* clk = txn->clock();
  size_t need = tuple.size() + SlottedPage::kSlotSize;
  for (;;) {
    PageNumber target = kInvalidPageNumber;
    {
      MutexLock g(&fsm_mu_);
      // Rotating cursor: "SI writes the new version on any (arbitrary) page
      // that contains enough free space" — placement scatters over the
      // relation instead of clustering at the tail.
      size_t n = fsm_.size();
      for (size_t i = 0; i < n; ++i) {
        size_t idx = (fsm_cursor_ + i) % n;
        if (fsm_[idx] >= need) {
          target = static_cast<PageNumber>(idx);
          fsm_cursor_ = (idx + 1) % n;
          break;
        }
      }
    }
    PageGuard fresh;  // pins a new page until the insert lands on it
    if (target == kInvalidPageNumber) {
      SIAS_ASSIGN_OR_RETURN(fresh, env_.pool->NewPage(relation_, clk));
      target = fresh.id().page;
      MutexLock g(&fsm_mu_);
      if (fsm_.size() <= target) fsm_.resize(target + 1, 0);
    }
    size_t free_space = 0;
    SIAS_ASSIGN_OR_RETURN(
        uint16_t slot,
        heap().Insert(target, tuple, txn->xid(), clk, &free_space));
    {
      MutexLock g(&fsm_mu_);
      fsm_[target] =
          static_cast<uint16_t>(std::min<size_t>(free_space, 0xffff));
    }
    if (slot != SlottedPage::kInvalidSlot) return Tid{target, slot};
    // The FSM was stale; try another page.
  }
}

Result<Vid> SiHeap::Insert(Transaction* txn, Slice row, Tid* tid_out) {
  env_.txns->AssignXid(txn);
  Vid vid;
  {
    MutexLock g(&map_mu_);
    vid = next_vid_++;
  }
  TupleHeader h;
  h.xmin = txn->xid();
  h.xmax = kInvalidXid;
  h.vid = vid;
  std::string encoded;
  EncodeTuple(h, row, &encoded);
  SIAS_ASSIGN_OR_RETURN(Tid tid, PlaceTuple(Slice(encoded), txn));
  txn->LogWrite(this, vid, tid, kInvalidTid);
  {
    MutexLock g(&map_mu_);
    versions_[vid].push_back(tid);
  }
  MvccObs().versions_appended->Increment();
  if (tid_out != nullptr) *tid_out = tid;
  return vid;
}

Result<bool> SiHeap::Read(Transaction* txn, Vid vid, std::string* row,
                          bool* gone) {
  if (gone != nullptr) *gone = false;
  obs::SpanScope trav_span(obs::SpanPhase::kTraversal, "mvcc", "si_read", vid);
  MvccObs().reads->Increment();
  std::vector<Tid> candidates;  // none for an unknown VID: a miss
  {
    MutexLock g(&map_mu_);
    auto it = versions_.find(vid);
    if (it != versions_.end()) candidates = it->second;
  }
  // Newest-first: mirrors an index scan returning the latest entry first.
  size_t examined = 0;
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    TupleHeader h;
    Status s = heap().Fetch(*it, txn->clock(), &h, row);
    if (s.IsNotFound()) continue;  // vacuumed under us
    SIAS_RETURN_NOT_OK(s);
    examined++;
    txn->clock()->Cpu(kCpuVisibilityCheck);
    MvccObs().visibility_checks->Increment();
    if (SiTupleVisible(h, txn->snapshot(), *env_.txns->clog())) {
      MvccObs().traversal_depth->Record(static_cast<VDuration>(examined));
      return true;
    }
    MvccObs().version_hops->Increment();
  }
  MvccObs().traversal_depth->Record(static_cast<VDuration>(examined));
  MvccObs().read_misses->Increment();
  return false;
}

Result<std::optional<std::string>> SiHeap::ReadAtTid(Transaction* txn,
                                                     Tid tid, Vid* vid_out) {
  TupleHeader h;
  std::string payload;
  Status s = heap().Fetch(tid, txn->clock(), &h, &payload);
  if (s.IsNotFound()) return std::optional<std::string>{};  // vacuumed
  SIAS_RETURN_NOT_OK(s);
  txn->clock()->Cpu(kCpuVisibilityCheck);
  if (vid_out != nullptr) *vid_out = h.vid;
  if (!SiTupleVisible(h, txn->snapshot(), *env_.txns->clog())) {
    return std::optional<std::string>{};
  }
  return std::optional<std::string>{std::move(payload)};
}

Result<Tid> SiHeap::ValidateForWrite(Transaction* txn, Vid vid) {
  std::vector<Tid> candidates;
  {
    MutexLock g(&map_mu_);
    auto it = versions_.find(vid);
    if (it == versions_.end() || it->second.empty()) {
      return Status::NotFound("no such data item");
    }
    candidates = it->second;
  }
  // Walk newest-first for the first version whose creator is decided.
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    TupleHeader h;
    Status s = heap().Fetch(*it, txn->clock(), &h, nullptr);
    if (s.IsNotFound()) continue;
    SIAS_RETURN_NOT_OK(s);
    const Clog& clog = *env_.txns->clog();
    TxnStatus creator = clog.Get(h.xmin);
    if (creator == TxnStatus::kAborted) continue;  // dead branch
    // We hold the row lock, so no in-progress creator other than us exists.
    if (!SiTupleVisible(h, txn->snapshot(), clog)) {
      if (h.xmin != txn->xid() && clog.IsCommitted(h.xmin) &&
          txn->snapshot().Contains(h.xmin) && h.xmax != kInvalidXid &&
          clog.IsCommitted(h.xmax) && txn->snapshot().Contains(h.xmax)) {
        // Deleted before our snapshot: the item simply no longer exists.
        return Status::NotFound("data item deleted");
      }
      // Otherwise a concurrent transaction created or invalidated the
      // newest version after we started: first-updater-wins => we lose.
      MvccObs().ww_conflicts->Increment();
      return Status::SerializationFailure(
          "tuple updated by concurrent transaction");
    }
    if (h.xmax != kInvalidXid && h.xmax != txn->xid() &&
        clog.Get(h.xmax) != TxnStatus::kAborted) {
      MvccObs().ww_conflicts->Increment();
      return Status::SerializationFailure("tuple already invalidated");
    }
    return *it;
  }
  return Status::NotFound("no live version");
}

Status SiHeap::StampXmax(Transaction* txn, Tid tid) {
  // The in-place invalidation: only 8 header bytes change, but the whole
  // page is now dirty and will be rewritten on the device.
  Xid xmax = txn->xid();
  SIAS_RETURN_NOT_OK(heap().RewriteHeader(
      tid, xmax, txn->clock(), [xmax](TupleHeader* h) { h->xmax = xmax; }));
  MvccObs().inplace_invalidations->Increment();
  return Status::OK();
}

Status SiHeap::Update(Transaction* txn, Vid vid, Slice row, Tid* new_tid) {
  env_.txns->AssignXid(txn);
  SIAS_RETURN_NOT_OK(env_.txns->locks()->AcquireExclusive(
      relation_, vid, txn->xid(), txn->clock()));
  txn->AddLock(relation_, vid);
  SIAS_ASSIGN_OR_RETURN(Tid old_tid, ValidateForWrite(txn, vid));
  // 1) invalidate old version in place (logged now: the stamp needs a
  // commit record even if placing the new version fails);
  SIAS_RETURN_NOT_OK(StampXmax(txn, old_tid));
  TxnWrite& write = txn->LogWrite(this, vid, kInvalidTid, old_tid);
  // 2) create the new version on an arbitrary page.
  TupleHeader h;
  h.xmin = txn->xid();
  h.xmax = kInvalidXid;
  h.vid = vid;
  h.set_pred(old_tid);
  std::string encoded;
  EncodeTuple(h, row, &encoded);
  SIAS_ASSIGN_OR_RETURN(Tid tid, PlaceTuple(Slice(encoded), txn));
  write.new_tid = tid;
  {
    MutexLock g(&map_mu_);
    versions_[vid].push_back(tid);
  }
  MvccObs().versions_appended->Increment();
  if (new_tid != nullptr) *new_tid = tid;
  return Status::OK();
}

Status SiHeap::Delete(Transaction* txn, Vid vid) {
  env_.txns->AssignXid(txn);
  SIAS_RETURN_NOT_OK(env_.txns->locks()->AcquireExclusive(
      relation_, vid, txn->xid(), txn->clock()));
  txn->AddLock(relation_, vid);
  SIAS_ASSIGN_OR_RETURN(Tid old_tid, ValidateForWrite(txn, vid));
  SIAS_RETURN_NOT_OK(StampXmax(txn, old_tid));
  txn->LogWrite(this, vid, kInvalidTid, old_tid);
  return Status::OK();
}

Status SiHeap::ScanWithTid(Transaction* txn,
                           const VersionScanCallback& cb) {
  // The "traditional scan" (paper §4.2.1): read the WHOLE relation, check
  // every tuple version individually.
  const Clog& clog = *env_.txns->clog();
  return heap().Scan(txn->clock(), [&](const VersionRef& v, Slice tuple) {
    txn->clock()->Cpu(kCpuVisibilityCheck);
    if (!SiTupleVisible(v.header, txn->snapshot(), clog)) return true;
    return cb(v.header.vid, v.tid, TuplePayload(tuple));
  });
}

Vid SiHeap::vid_bound() const {
  MutexLock g(&map_mu_);
  return next_vid_;
}

Status SiHeap::GarbageCollect(Xid horizon, VirtualClock* clk) {
  // Inventory under the shared latch, then one logged kill per page. Safe
  // without holding the latch in between: a dead SI version stays dead, and
  // SI never reuses a slot number (appends take slot_count, compaction keeps
  // slot numbers).
  const Clog& clog = *env_.txns->clog();
  SIAS_ASSIGN_OR_RETURN(PageNumber count, heap().PageCount());
  for (PageNumber p = 0; p < count; ++p) {
    std::vector<VersionRef> dead;
    auto visited = heap().VisitPage(p, clk, [&](const VersionRef& v, Slice) {
      const TupleHeader& h = v.header;
      if (clog.Get(h.xmin) == TxnStatus::kAborted ||  // never visible
          (h.xmax != kInvalidXid && h.xmax < horizon &&
           clog.IsCommitted(h.xmax))) {  // invalidated before every snapshot
        dead.push_back(v);
      }
      return true;
    });
    if (!visited.ok()) return visited.status();
    MvccObs().gc_pages_examined->Increment();
    if (dead.empty()) continue;

    std::vector<uint16_t> slots;
    slots.reserve(dead.size());
    for (const VersionRef& v : dead) slots.push_back(v.tid.slot);
    size_t free_space = 0;
    SIAS_RETURN_NOT_OK(heap().KillSlots(p, slots, clk, &free_space));
    MvccObs().gc_versions_discarded->Add(static_cast<int64_t>(dead.size()));
    {
      MutexLock g(&map_mu_);
      for (const VersionRef& v : dead) {
        auto it = versions_.find(v.header.vid);
        if (it == versions_.end()) continue;
        it->second.erase(
            std::remove(it->second.begin(), it->second.end(), v.tid),
            it->second.end());
        if (it->second.empty()) versions_.erase(it);
      }
    }
    MutexLock g(&fsm_mu_);
    if (fsm_.size() <= p) fsm_.resize(p + 1, 0);
    fsm_[p] = static_cast<uint16_t>(std::min<size_t>(free_space, 0xffff));
  }
  return Status::OK();
}

Status SiHeap::Rebuild() {
  // Build into locals with NO member mutex held: the heap scan fetches and
  // latches pages, and the rank order is kPage < kSiHeapMap < kSiHeapFsm —
  // holding map_mu_ across the scan is exactly the rank inversion the latch
  // checker aborts on. Recovery is single-threaded today, but it shares the
  // latch discipline with steady-state code.
  SIAS_ASSIGN_OR_RETURN(PageNumber count, heap().PageCount());
  std::unordered_map<Vid, std::vector<VersionRef>> found;
  Vid max_vid = 0;
  std::vector<uint16_t> free_bytes(count, 0);
  for (PageNumber p = 0; p < count; ++p) {
    size_t free_space = 0;
    auto r = heap().VisitPage(
        p, nullptr,
        [&](const VersionRef& v, Slice) {
          found[v.header.vid].push_back(v);
          max_vid = std::max(max_vid, v.header.vid + 1);
          return true;
        },
        &free_space);
    if (!r.ok()) return r.status();
    free_bytes[p] =
        static_cast<uint16_t>(std::min<size_t>(free_space, 0xffff));
  }
  // Chronological order keeps newest-first iteration correct.
  std::unordered_map<Vid, std::vector<Tid>> rebuilt;
  for (auto& [vid, versions] : found) {
    SortChronologically(&versions);
    std::vector<Tid>& tids = rebuilt[vid];
    for (const VersionRef& v : versions) tids.push_back(v.tid);
  }
  {
    MutexLock g(&map_mu_);
    versions_ = std::move(rebuilt);
    next_vid_ = max_vid;
  }
  MutexLock fg(&fsm_mu_);
  fsm_ = std::move(free_bytes);
  return Status::OK();
}

}  // namespace sias
