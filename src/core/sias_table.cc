#include "core/sias_table.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <span>
#include <unordered_set>

#include "common/logging.h"
#include "mvcc/epoch.h"
#include "mvcc/mvcc_counters.h"
#include "mvcc/visibility.h"
#include "obs/span.h"

namespace sias {

namespace {
/// See SiasTable::SetReadPauseHookForTest.
std::atomic<void (*)(Vid)> g_read_pause_hook{nullptr};
/// See SiasTable::SetGcPageHookForTest.
std::atomic<void (*)(PageNumber)> g_gc_page_hook{nullptr};

inline void ReadPausePoint(Vid vid) {
  if (void (*hook)(Vid) = g_read_pause_hook.load(std::memory_order_relaxed)) {
    hook(vid);
  }
}
}  // namespace

void SiasTable::SetReadPauseHookForTest(void (*hook)(Vid)) {
  g_read_pause_hook.store(hook, std::memory_order_seq_cst);
}

void SiasTable::SetGcPageHookForTest(void (*hook)(PageNumber)) {
  g_gc_page_hook.store(hook, std::memory_order_seq_cst);
}

SiasTable::SiasTable(RelationId relation, TableEnv env, VersionScheme scheme)
    : relation_(relation),
      env_(env),
      scheme_(scheme),
      region_(relation, env.pool, env.wal) {
  SIAS_CHECK(scheme == VersionScheme::kSiasChains ||
             scheme == VersionScheme::kSiasV);
}

SiasTable::~SiasTable() {
  // Run every deferred slot kill / vector free while this table, its append
  // region, the buffer pool and the WAL are still alive. The queue is
  // global, so this also drains other tables' work — safe, because every
  // table drains before it dies.
  EpochManager::Global().Quiesce();
}

Tid SiasTable::Entrypoint(Vid vid) const {
  return scheme_ == VersionScheme::kSiasChains ? map_.Get(vid)
                                               : map_v_.Entrypoint(vid);
}

namespace {
/// What the tasks of one snapshot-read batch share: the reader and the
/// window of device reads they keep in flight.
struct ReadBatch {
  Transaction* txn;
  size_t io_depth;
  size_t inflight = 0;  ///< cold-page reads outstanding (demand + lookahead)
};
}  // namespace

// Algorithm 1 for SIAS-Chains (start at the entrypoint, follow *ptr until
// visible) and its SIAS-V form (walk the version vector newest-first). Where
// a blocking read would wait on a cold page, the task SUBMITS the read and
// suspends; its next Run() completes the read in FinishFetch.
//
// Pages are never latched, and resident ones are not pinned either (a miss
// pins the frame it fills): every read below goes through the
// atomic tuple accessors or targets bytes that are immutable while the page
// is reachable. Slot publication is an atomic slot-count release store, slot
// kills are one atomic word, and chain GC rewrites the header's pred word
// atomically (tuple.h); payload bytes never change between publication and
// the page's reuse. The driver's epoch pin keeps the published version
// vector walked below (in place: a published vector is immutable), every
// page it references and every predecessor those versions point at
// physically intact — vacuum's slot kills and vector frees queue behind it
// (src/mvcc/epoch.h), and so does the reuse of a buffer that eviction
// swapped out of a frame under a pin-free hit (buffer/buffer_pool.h). A
// task never outlives its driver's EpochGuard.
class SiasTable::ReadTask {
 public:
  ReadTask() = default;
  ReadTask(const ReadTask&) = delete;
  ReadTask& operator=(const ReadTask&) = delete;
  ~ReadTask() {
    if (table_ == nullptr) return;
    table_->env_.pool->AbandonFetch(&fetch_);
    table_->env_.pool->AbandonFetch(&lookahead_);
  }

  /// Begins resolving `vid`; the visible payload is copied into `*row`.
  void Start(SiasTable* table, ReadBatch* batch, Vid vid, std::string* row) {
    table_ = table;
    batch_ = batch;
    vid_ = vid;
    row_ = row;
    LoadMap();
  }

  /// Advances the walk until it resolves the item or suspends on a cold
  /// page. Returns an error only for hard failures (the driver unwinds).
  Status Run();

  bool done() const { return done_; }
  /// Whether a live row was found (its payload is in the task's row).
  bool live() const { return live_; }
  /// The visible version, a tombstone included; invalid when none.
  Tid visible() const { return visible_; }
  /// MvccTable::Read's `gone`: the map holds no version of the item, or
  /// its newest version is a tombstone the reader sees (so committed) below
  /// the GC horizon. Every current and future snapshot sees that delete,
  /// and nothing writes a deleted item again.
  bool gone() const {
    return no_versions_ ||
           (newest_tombstone_ != kInvalidXid &&
            newest_tombstone_ < table_->env_.txns->GcHorizon());
  }

 private:
  bool chains() const { return table_->scheme_ == VersionScheme::kSiasChains; }
  VirtualClock* clk() const { return batch_->txn->clock(); }

  /// Loads (or reloads, after a raced walk) the item's map state.
  void LoadMap() {
    if (clk() != nullptr) clk()->Cpu(kCpuVidMapProbe);
    if (chains()) {
      tid_ = table_->map_.Get(vid_);
    } else {
      versions_ = table_->map_v_.Versions(vid_);
      pos_ = 0;
    }
    ReadPausePoint(vid_);
    first_ = true;
    newer_xmin_ = kInvalidXid;
  }

  /// A lookahead that outlives its usefulness (item resolved, walk ended or
  /// restarted from a fresh map load) is cancelled so its window slot and
  /// claim pin free up immediately.
  void DropLookahead() {
    if (lookahead_.valid && !lookahead_.resident) batch_->inflight--;
    table_->env_.pool->AbandonFetch(&lookahead_);
  }

  /// Traversal telemetry: depth = versions examined before resolving (or
  /// exhausting) the walk.
  void Finish() {
    done_ = true;
    DropLookahead();
    MvccObs().traversal_depth->Record(static_cast<VDuration>(examined_));
  }

  /// Raced-walk restart (stale anchor / pruned slot): reload the map, up to
  /// three attempts in all.
  Status Restart() {
    DropLookahead();
    if (++retries_ >= 3) {
      Finish();
      return Status::Internal("version walk raced with GC repeatedly");
    }
    LoadMap();
    return Status::OK();
  }

  /// In-walk lookahead (SIAS-V): while the demand read of `page` is in
  /// flight, also submit the NEXT version's page, so that an invisible
  /// version does not cost a second full device latency. A failed submit is
  /// not an error: the walk fetches the page on demand if it gets there.
  void Prefetch(PageId page) {
    if (chains() || lookahead_.valid ||
        batch_->inflight >= batch_->io_depth ||
        pos_ + 1 >= versions_.size()) {
      return;
    }
    const PageId next{table_->relation_, versions_[pos_ + 1].page};
    if (next.page == page.page) return;
    if (table_->env_.pool->PeekResident(next) != nullptr) return;  // a hit
    auto lf = table_->env_.pool->StartFetch(next, clk());
    if (!lf.ok()) return;
    if (lf->resident) {
      lf->guard.Release();
      lf->valid = false;
    } else {
      lookahead_ = std::move(*lf);
      batch_->inflight++;
    }
  }

  SiasTable* table_ = nullptr;
  ReadBatch* batch_ = nullptr;
  Vid vid_ = 0;
  std::string* row_ = nullptr;
  /// SIAS-V: the published vector, newest first, walked in place. Valid
  /// while the driver's epoch pin lasts, which outlives the task.
  SIAS_EPOCH_PROTECTED std::span<const Tid> versions_;
  size_t pos_ = 0;             ///< SIAS-V cursor
  Tid tid_{};                  ///< SIAS-Chains cursor
  bool first_ = true;
  Xid newer_xmin_ = kInvalidXid;
  int retries_ = 0;
  size_t examined_ = 0;
  Tid visible_{};
  bool live_ = false;
  bool no_versions_ = false;               ///< the first map load was empty
  Xid newest_tombstone_ = kInvalidXid;     ///< see gone()
  bool done_ = false;
  BufferPool::AsyncFetch fetch_;      ///< demand read the task waits on
  BufferPool::AsyncFetch lookahead_;  ///< SIAS-V next-version prefetch
};

Status SiasTable::ReadTask::Run() {
  BufferPool* pool = table_->env_.pool;
  while (!done_) {
    // Current version to examine; an exhausted walk is a miss.
    Tid tid = tid_;
    if (!chains()) tid = pos_ < versions_.size() ? versions_[pos_] : Tid{};
    if (!tid.valid()) {
      no_versions_ = first_;
      Finish();
      return Status::OK();
    }

    // Reach the version's page: a finished demand read, the matching
    // lookahead, a resident hit, or — cold — submit the read and suspend.
    // A hit takes no pin: the driver's epoch keeps the buffer it read from
    // reuse (BufferPool::PeekResident). Only fetches that took the pool
    // mutex (StartFetch) count as latch acquisitions.
    const PageId page_id{table_->relation_, tid.page};
    PageGuard guard;
    const uint8_t* bytes = nullptr;
    if (fetch_.valid) {
      SIAS_CHECK(fetch_.id == page_id);
      SIAS_ASSIGN_OR_RETURN(guard, pool->FinishFetch(&fetch_, clk()));
      batch_->inflight--;
    } else if (lookahead_.valid && lookahead_.id == page_id) {
      SIAS_ASSIGN_OR_RETURN(guard, pool->FinishFetch(&lookahead_, clk()));
      batch_->inflight--;
    } else {
      bytes = pool->PeekResident(page_id);
      if (bytes == nullptr) {
        MvccObs().read_latch_acquisitions->Increment();
        auto f = pool->StartFetch(page_id, clk());
        if (!f.ok()) return f.status();
        if (!f->resident) {
          fetch_ = std::move(*f);
          batch_->inflight++;
          Prefetch(page_id);
          return Status::OK();  // suspended
        }
        guard = std::move(f->guard);
      }
    }
    if (bytes == nullptr) bytes = guard.data();

    Slice tuple =
        SlottedPage(const_cast<uint8_t*>(bytes)).GetTupleAtomic(tid.slot);
    TupleHeader h;
    if (tuple.empty() || !DecodeTupleHeaderAtomic(tuple, &h) ||
        h.vid != vid_) {
      // A dead or foreign entrypoint / SIAS-V entry means the map load
      // raced with a concurrent prune: restart from the map. A chain
      // *predecessor* resolving dead or foreign is the durable dangling-tail
      // state (the anchor's pred may point into a reclaimed, even recycled,
      // page by design; ChainOf has the same guard): nothing visible there.
      if (chains() && !first_) {
        Finish();
        return Status::OK();
      }
      SIAS_RETURN_NOT_OK(Restart());
      continue;
    }
    if (chains()) {
      if (newer_xmin_ != kInvalidXid && h.xmin > newer_xmin_) {
        // A predecessor is never newer; this is a recycled slot holding the
        // item again. Equal xmin is a real link — one transaction may stack
        // several versions of the same item (e.g. a New-Order with a
        // duplicate item id updates the same stock row twice).
        Finish();
        return Status::OK();
      }
      newer_xmin_ = h.xmin;
    }
    examined_++;
    if (clk() != nullptr) clk()->Cpu(kCpuVisibilityCheck);
    MvccObs().visibility_checks->Increment();
    if (SiasVersionVisible(h, batch_->txn->snapshot(),
                           *table_->env_.txns->clog())) {
      visible_ = tid;
      if (h.is_tombstone()) {
        if (first_) newest_tombstone_ = h.xmin;
      } else {
        Slice p = TuplePayload(tuple);
        row_->assign(reinterpret_cast<const char*>(p.data()), p.size());
        live_ = true;
      }
      // Charged for a visible tombstone too: the read model copies the
      // resolved version whatever it holds.
      if (clk() != nullptr) clk()->Cpu(kCpuTupleCopy);
      Finish();
      return Status::OK();
    }
    MvccObs().version_hops->Increment();
    first_ = false;
    if (chains()) {
      tid_ = h.pred();
    } else {
      pos_++;
    }
  }
  return Status::OK();
}

Result<bool> SiasTable::ReadOne(Transaction* txn, Vid vid, std::string* row,
                                Tid* tid, bool* gone) {
  // Version-walk span: whatever virtual time the walk spends outside nested
  // io_wait spans is this transaction's traversal phase.
  obs::SpanScope trav_span(obs::SpanPhase::kTraversal, "mvcc", "read", vid);
  EpochGuard epoch;
  ReadBatch batch{txn, /*io_depth=*/1};
  ReadTask task;
  task.Start(this, &batch, vid, row);
  while (!task.done()) SIAS_RETURN_NOT_OK(task.Run());
  if (tid != nullptr) *tid = task.visible();
  if (gone != nullptr) *gone = task.gone();
  return task.live();
}

Result<Vid> SiasTable::Insert(Transaction* txn, Slice row, Tid* tid_out) {
  env_.txns->AssignXid(txn);
  Vid vid = scheme_ == VersionScheme::kSiasChains ? map_.AllocateVid()
                                                  : map_v_.AllocateVid();
  TupleHeader h;
  h.xmin = txn->xid();
  h.vid = vid;
  // No older version: *ptr = NULL (Algorithm 2).
  std::string encoded;
  EncodeTuple(h, row, &encoded);
  SIAS_ASSIGN_OR_RETURN(
      Tid tid, region_.Append(Slice(encoded), txn->xid(), txn->clock()));
  txn->LogWrite(this, vid, tid, kInvalidTid);
  if (scheme_ == VersionScheme::kSiasChains) {
    map_.Set(vid, tid);
  } else {
    SIAS_CHECK(map_v_.PushFront(vid, Tid{}, tid));
  }
  MvccObs().versions_appended->Increment();
  if (tid_out != nullptr) *tid_out = tid;
  return vid;
}

Result<VersionRef> SiasTable::ValidateForWrite(Transaction* txn, Vid vid) {
  // Under the row lock: the entrypoint can only be an aborted leftover (a
  // racing abort's undo runs before its lock release, so by the time we got
  // the lock the map is restored), our own version, or a committed version.
  const Clog& clog = *env_.txns->clog();
  Tid tid = Entrypoint(vid);
  if (!tid.valid()) return Status::NotFound("no such data item");
  TupleHeader h;
  Status s = heap().Fetch(tid, txn->clock(), &h, nullptr);
  if (s.IsNotFound()) return Status::NotFound("data item vanished");
  SIAS_RETURN_NOT_OK(s);

  if (h.xmin != txn->xid()) {
    TxnStatus creator = clog.Get(h.xmin);
    if (creator == TxnStatus::kInProgress) {
      // Item being inserted by a concurrent transaction: not ours to see.
      return Status::NotFound("data item not yet committed");
    }
    if (creator == TxnStatus::kAborted) {
      return Status::NotFound("data item creation aborted");
    }
    // Committed: first-updater-wins (Algorithm 3 line 4): the entrypoint
    // must be visible in our snapshot, otherwise a concurrent transaction
    // committed a newer version after we started and we must roll back.
    if (!txn->snapshot().Contains(h.xmin)) {
      MvccObs().ww_conflicts->Increment();
      return Status::SerializationFailure(
          "entrypoint updated by concurrent transaction");
    }
  }
  if (h.is_tombstone()) {
    return Status::NotFound("data item deleted");
  }
  return VersionRef{tid, h};
}

Result<Tid> SiasTable::AppendAndInstall(Transaction* txn, Vid vid,
                                        const TupleHeader& header,
                                        Slice payload, const VersionRef& base) {
  std::string encoded;
  EncodeTuple(header, payload, &encoded);
  SIAS_ASSIGN_OR_RETURN(
      Tid tid, region_.Append(Slice(encoded), txn->xid(), txn->clock()));
  // Logged before the install: undoing a failed install is a no-op, since
  // the map never held `tid`.
  txn->LogWrite(this, vid, tid, base.tid);
  if (scheme_ == VersionScheme::kSiasChains) {
    if (!map_.CompareAndSet(vid, base.tid, tid)) {
      return Status::Internal("entrypoint CAS failed under row lock");
    }
  } else {
    // In-band trimming: a committed base below the horizon is visible to
    // every current and future snapshot (each one's oldest in-progress xid
    // is above it), so none can resolve past it and the new vector is
    // {tid, base}. This is LiveVersions' range rule with the base as the
    // shadow, and it reads no heap page. Our own uncommitted base is never
    // below the horizon, which is sampled after our xid was assigned.
    bool trim = base.header.xmin < env_.txns->WriteHorizon(txn);
    if (!map_v_.PushFront(vid, base.tid, tid, trim)) {
      return Status::Internal("vector push failed under row lock");
    }
  }
  return tid;
}

void SiasTable::UndoWrite(const TxnWrite& write) {
  // Conditional on `new_tid` still being the entrypoint, so the undo cannot
  // clobber anything installed after it.
  if (scheme_ == VersionScheme::kSiasChains) {
    map_.CompareAndSet(write.vid, write.new_tid, write.expected_tid);
  } else {
    map_v_.PopFrontIf(write.vid, write.new_tid);
  }
}

Status SiasTable::Update(Transaction* txn, Vid vid, Slice row, Tid* new_tid) {
  // Algorithm 3: lock (first-updater-wins), validate entrypoint, append.
  env_.txns->AssignXid(txn);
  SIAS_RETURN_NOT_OK(env_.txns->locks()->AcquireExclusive(
      relation_, vid, txn->xid(), txn->clock()));
  txn->AddLock(relation_, vid);
  SIAS_ASSIGN_OR_RETURN(VersionRef base, ValidateForWrite(txn, vid));

  TupleHeader h;
  h.xmin = txn->xid();
  h.vid = vid;
  h.set_pred(base.tid);  // *ptr -> old entrypoint (Algorithm 3 line 11)
  auto r = AppendAndInstall(txn, vid, h, row, base);
  SIAS_RETURN_NOT_OK(r.status());
  if (new_tid != nullptr) *new_tid = *r;
  MvccObs().versions_appended->Increment();
  return Status::OK();
}

Status SiasTable::Delete(Transaction* txn, Vid vid) {
  // §4.2.2: deletion appends a tombstone version; older versions stay
  // reachable for transactions that still need them.
  env_.txns->AssignXid(txn);
  SIAS_RETURN_NOT_OK(env_.txns->locks()->AcquireExclusive(
      relation_, vid, txn->xid(), txn->clock()));
  txn->AddLock(relation_, vid);
  SIAS_ASSIGN_OR_RETURN(VersionRef base, ValidateForWrite(txn, vid));

  TupleHeader h;
  h.xmin = txn->xid();
  h.vid = vid;
  h.flags = kTupleFlagTombstone;
  h.set_pred(base.tid);
  auto r = AppendAndInstall(txn, vid, h, Slice(), base);
  SIAS_RETURN_NOT_OK(r.status());
  return Status::OK();
}

Result<bool> SiasTable::Read(Transaction* txn, Vid vid, std::string* row,
                             bool* gone) {
  MvccObs().reads->Increment();
  SIAS_ASSIGN_OR_RETURN(bool live, ReadOne(txn, vid, row, nullptr, gone));
  if (!live) MvccObs().read_misses->Increment();
  return live;
}

Status SiasTable::ReadMulti(Transaction* txn, const std::vector<Vid>& vids,
                            size_t io_depth,
                            std::vector<std::optional<std::string>>* rows) {
  obs::SpanScope trav_span(obs::SpanPhase::kTraversal, "mvcc", "read_multi",
                           vids.size());
  MvccObs().reads->Add(static_cast<int64_t>(vids.size()));
  rows->assign(vids.size(), std::optional<std::string>{std::in_place});

  // One task per VID, all under one epoch pin. The driver admits tasks
  // until `io_depth` device reads are in flight, then resumes suspended
  // tasks in submit order (virtual-time completions are reaped by Wait, so
  // FIFO resume is both simple and deterministic). All reads submitted
  // while the terminal's clock stands still receive overlapping channel
  // reservations (arrival-time backfill), which is exactly the
  // hardware-queue overlap the async device models.
  EpochGuard epoch;
  ReadBatch batch{txn, std::max<size_t>(io_depth, 1)};
  std::vector<ReadTask> tasks(vids.size());
  std::deque<size_t> suspended;
  size_t next_admit = 0;
  while (true) {
    while (next_admit < tasks.size() && batch.inflight < batch.io_depth) {
      ReadTask& t = tasks[next_admit];
      t.Start(this, &batch, vids[next_admit], &*(*rows)[next_admit]);
      SIAS_RETURN_NOT_OK(t.Run());
      if (!t.done()) suspended.push_back(next_admit);
      next_admit++;
    }
    if (suspended.empty()) {
      if (next_admit >= tasks.size()) break;
      continue;  // window was full of lookaheads; admission resumes above
    }
    size_t i = suspended.front();
    suspended.pop_front();
    SIAS_RETURN_NOT_OK(tasks[i].Run());
    if (!tasks[i].done()) suspended.push_back(i);
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!tasks[i].live()) (*rows)[i].reset();
  }
  MvccObs().read_misses->Add(
      std::count(rows->begin(), rows->end(), std::nullopt));
  return Status::OK();
}

Status SiasTable::FullRelationScan(Transaction* txn, const ScanCallback& cb) {
  // The traditional scan path described in §4.2.1: fetch ALL tuple
  // versions; each becomes a candidate whose visibility is decided by
  // resolving its data item's visible version and comparing.
  SIAS_ASSIGN_OR_RETURN(PageNumber count, heap().PageCount());
  std::vector<VersionRef> candidates;
  for (PageNumber p = 0; p < count; ++p) {
    candidates.clear();
    auto r = heap().VisitPage(p, txn->clock(), [&](const VersionRef& v, Slice) {
      candidates.push_back(v);
      return true;
    });
    if (!r.ok()) return r.status();
    std::string row;
    for (const VersionRef& c : candidates) {
      Tid visible;
      SIAS_ASSIGN_OR_RETURN(
          bool live, ReadOne(txn, c.header.vid, &row, &visible, nullptr));
      if (!live) continue;
      if (visible == c.tid) {  // this candidate IS the visible version
        if (!cb(c.header.vid, Slice(row))) return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status SiasTable::ScanWithTid(Transaction* txn,
                              const VersionScanCallback& cb) {
  // Algorithm 1: iterate the VidMap; for each VID resolve the visible
  // version. More selective I/O than reading the full relation.
  Vid bound = vid_bound();
  std::string row;
  for (Vid v = 0; v < bound; ++v) {
    Tid visible;
    SIAS_ASSIGN_OR_RETURN(bool live, ReadOne(txn, v, &row, &visible, nullptr));
    if (!live) continue;
    if (!cb(v, visible, Slice(row))) return Status::OK();
  }
  return Status::OK();
}

Vid SiasTable::vid_bound() const {
  return scheme_ == VersionScheme::kSiasChains ? map_.bound()
                                               : map_v_.bound();
}

Status SiasTable::WalkVersions(
    Vid vid, VirtualClock* clk,
    const std::function<bool(const VersionRef&)>& visit) {
  if (scheme_ == VersionScheme::kSiasV) {
    // GC keeps the vector in sync with the heap, so it never dangles. A
    // version a writer trimmed is no longer visited: GC classifies it dead.
    for (Tid tid : map_v_.Get(vid)) {
      VersionRef v{tid, {}};
      Status s = heap().Fetch(tid, clk, &v.header, nullptr);
      if (s.IsNotFound()) continue;
      SIAS_RETURN_NOT_OK(s);
      if (!visit(v)) break;
    }
    return Status::OK();
  }
  size_t hops = 0;
  Xid newer_xmin = kInvalidXid;  // xmin of the previously visited version
  Tid tid = map_.Get(vid);
  while (tid.valid()) {
    VersionRef v{tid, {}};
    Status s = heap().Fetch(tid, clk, &v.header, nullptr);
    if (s.IsNotFound()) break;  // dangling tail: rest already reclaimed
    SIAS_RETURN_NOT_OK(s);
    // The anchor's pred may dangle into a page GC reclaimed and recycled:
    // the slot then holds another item, or the same item again but newer (a
    // predecessor never is; equal xmin stays a link, as one transaction can
    // stack versions). Either is a reclaimed tail, not a link.
    if (v.header.vid != vid && hops == 0) {
      return Status::Corruption("vid map entry resolves to wrong item");
    }
    if (v.header.vid != vid ||
        (newer_xmin != kInvalidXid && v.header.xmin > newer_xmin)) {
      break;
    }
    if (++hops > 1u << 20) return Status::Corruption("version chain cycle");
    if (!visit(v)) break;
    newer_xmin = v.header.xmin;
    tid = v.header.pred();
  }
  return Status::OK();
}

Result<std::vector<Tid>> SiasTable::ChainOf(Vid vid, VirtualClock* clk) {
  // The epoch pin keeps recycling out while the guards judge the tail.
  EpochGuard epoch;
  std::vector<Tid> chain;
  SIAS_RETURN_NOT_OK(WalkVersions(vid, clk, [&](const VersionRef& v) {
    chain.push_back(v.tid);
    return true;
  }));
  return chain;
}

Status SiasTable::LiveVersions(Vid vid, Xid horizon,
                               const std::vector<std::pair<Xid, Xid>>& bounds,
                               VirtualClock* clk,
                               std::vector<VersionRef>* live) {
  live->clear();
  const Clog& clog = *env_.txns->clog();

  // Walk newest-to-oldest and STOP at the horizon anchor: the predecessor
  // pointer of the anchor may dangle into a page reclaimed by an earlier GC
  // cycle (by design — no live snapshot ever walks past its anchor), so the
  // walk must never follow it.
  SIAS_RETURN_NOT_OK(WalkVersions(vid, clk, [&](const VersionRef& v) {
    TxnStatus creator = clog.Get(v.header.xmin);
    if (creator == TxnStatus::kAborted) return true;  // unreachable leftover
    live->push_back(v);
    // Anchor: first committed version below the horizon. Everything older
    // is invisible to every live and future snapshot.
    if (creator == TxnStatus::kCommitted && v.header.xmin < horizon) {
      // The item is deleted and no snapshot can see pre-delete versions:
      // even the tombstone can go.
      if (v.header.is_tombstone() && live->size() == 1) live->clear();
      return false;
    }
    return true;
  }));

  // Mid-vector reclamation (range tracking): a committed version v that has
  // a newer kept committed version s is the visible version of an active
  // transaction (lo = oldest xid its snapshot holds in-progress,
  // hi = xid + 1) only if v could be visible (v.xmin < hi) while s might
  // not definitely shadow it (s.xmin >= lo; s.xmin < lo means s committed
  // before every transaction that snapshot considers concurrent, so s is
  // certainly visible and hides v). Future snapshots always resolve to s
  // or newer. If no active pair needs v, it is dead despite sitting above
  // the horizon anchor — this also retires the anchor itself once nothing
  // old enough remains. A shadow with v's own xmin hides v from every
  // snapshot (both commit together), so v always goes: kept, a relocated v
  // could tie with its successor when recovery orders the item's versions.
  // The newest version is always kept.
  if (scheme_ == VersionScheme::kSiasV && live->size() > 1) {
    std::vector<VersionRef> kept;
    kept.reserve(live->size());
    kept.push_back(live->front());
    // Index into `kept` of the newest kept committed version, if any.
    size_t shadow = clog.Get(live->front().header.xmin) ==
                            TxnStatus::kCommitted
                        ? 0
                        : SIZE_MAX;
    for (size_t i = 1; i < live->size(); ++i) {
      const VersionRef& v = (*live)[i];
      bool committed = clog.Get(v.header.xmin) == TxnStatus::kCommitted;
      bool drop = false;
      if (committed && shadow != SIZE_MAX) {
        Xid s_xmin = kept[shadow].header.xmin;
        drop = true;
        for (const auto& [lo, hi] : bounds) {
          if (v.header.xmin != s_xmin && v.header.xmin < hi &&
              s_xmin >= lo) {
            drop = false;
            break;
          }
        }
      }
      if (!drop) {
        kept.push_back(v);
        if (committed) shadow = kept.size() - 1;
      }
    }
    *live = std::move(kept);
  }
  return Status::OK();
}

namespace {
/// The row locks GC holds on the items of one page, released whichever way
/// the page's step ends.
class ItemLocks {
 public:
  ItemLocks(LockManager* locks, RelationId relation)
      : locks_(locks), relation_(relation) {}
  ItemLocks(const ItemLocks&) = delete;
  ItemLocks& operator=(const ItemLocks&) = delete;
  ~ItemLocks() {
    for (Vid vid : held_) locks_->Release(relation_, vid, kGcXid, 0);
  }

  /// False when a writer holds `vid`'s lock.
  bool TryHold(Vid vid) {
    if (!locks_->TryAcquireExclusive(relation_, vid, kGcXid).ok()) {
      return false;
    }
    held_.push_back(vid);
    return true;
  }

 private:
  LockManager* locks_;
  RelationId relation_;
  std::vector<Vid> held_;
};
}  // namespace

Status SiasTable::GarbageCollect(Xid horizon, VirtualClock* clk) {
  // §6 Space Reclamation: (i) pick victim pages, (ii) re-insert live
  // versions, (iii) discard dead versions; reclaimed pages are recycled by
  // the append region. Each page the pass may touch takes one straight-line
  // step: inventory, skip checks, lock the page's items, plan, relocate (only
  // when relocating), republish each item once, one deferred kill.
  SIAS_ASSIGN_OR_RETURN(PageNumber count, heap().PageCount());
  // Seal the open append page so every page is GC-eligible; the next append
  // opens a fresh page. That page comes from the free list, or is new and
  // beyond `count`. GC must not examine a page that appends may land on
  // while it runs: versions appended after the page's inventory would be
  // killed or lost with it. So each page is checked when the pass reaches
  // it, gc_pending_ first and then the region. The free list gains pages
  // only from this pass and from the deferred kills of pending pages, and
  // those run whenever any thread reclaims (Database::Tick does on the
  // bgwriter cadence, so also in the middle of this pass). A kill lists its
  // page before it leaves gc_pending_, so a page that is neither pending
  // nor taking appends when checked stays out of the append region until
  // this pass itself lists it.
  region_.SealOpenPage();
  const Clog& clog = *env_.txns->clog();

  for (PageNumber p = 0; p < count; ++p) {
    if (void (*hook)(PageNumber) =
            g_gc_page_hook.load(std::memory_order_relaxed)) {
      hook(p);
    }
    bool pending;
    {
      MutexLock g(&gc_mu_);
      pending = gc_pending_.count(p) != 0;
    }
    // Unpublished, slot kills still queued behind the epoch horizon:
    // re-examining would double-reclaim.
    if (pending || region_.TakesAppends(p)) continue;

    // Inventory.
    std::vector<VersionRef> slots;
    auto inventory = heap().VisitPage(p, clk, [&](const VersionRef& v, Slice) {
      slots.push_back(v);
      return true;
    });
    if (!inventory.ok()) return inventory.status();
    MvccObs().gc_pages_examined->Increment();
    if (slots.empty()) {
      // Nothing live, nothing published: reusable at once. This is how a
      // page reclaimed before a restart (all its slots dead) comes back.
      region_.AddFreePage(p);
      continue;
    }

    // Skip checks. Insert takes no row lock, so the item locks below do not
    // keep GC off an uncommitted insert: relocating it would leave the
    // inserter's abort undoing against the old TID, and the entrypoint on
    // the aborted copy. Skip a page holding a version whose creator is still
    // running (retry on the next GC cycle). A creator that has finished
    // stays finished, so checking the inventory once is enough.
    if (std::any_of(slots.begin(), slots.end(), [&](const VersionRef& s) {
          return clog.Get(s.header.xmin) == TxnStatus::kInProgress;
        })) {
      continue;
    }

    // Lock the page's items: every item the page holds a version of. Skip
    // the page if any is being written right now (retry on the next GC
    // cycle). `live` is the plan: each item's live versions, newest first.
    std::unordered_map<Vid, std::vector<VersionRef>> live;
    for (const auto& s : slots) live.try_emplace(s.header.vid);
    ItemLocks locked(env_.txns->locks(), relation_);
    if (!std::all_of(live.begin(), live.end(), [&](const auto& item) {
          return locked.TryHold(item.first);
        })) {
      continue;
    }

    // Active snapshot bounds for SIAS-V mid-vector reclamation, sampled
    // only now that the page's items are locked: no newer version of them
    // can commit until they are unlocked, so a transaction starting after
    // this sample resolves to a version GC keeps. A sample taken before the
    // locks would miss a transaction that began in between and still needs
    // the version a later commit shadowed.
    std::vector<std::pair<Xid, Xid>> bounds =
        env_.txns->ActiveSnapshotBounds();

    // Plan: the live versions of each item, and which of them sit on p.
    std::unordered_set<uint64_t> live_here;  // Tid::Pack() of p's live slots
    for (auto& [vid, versions] : live) {
      SIAS_RETURN_NOT_OK(LiveVersions(vid, horizon, bounds, clk, &versions));
      for (const auto& v : versions) {
        if (v.tid.page == p) live_here.insert(v.tid.Pack());
      }
    }
    auto is_live = [&](const VersionRef& s) {
      return live_here.count(s.tid.Pack()) != 0;
    };
    size_t live_on_page =
        static_cast<size_t>(std::count_if(slots.begin(), slots.end(), is_live));
    // Policy: reclaim the whole page when its live share is small enough to
    // be worth relocating. Prune dead slots in place only when the page is
    // already mostly dead (trending toward reclamation): pruning dirties a
    // sealed page — an 8 KB device rewrite at the next flush — yet frees no
    // appendable space, so touching mostly-live pages every vacuum cycle
    // would multiply the write volume GC is supposed to save.
    bool relocate = live_on_page * 4 <= slots.size();
    if (live_on_page * 2 > slots.size()) continue;  // left alone

    // Relocate: re-insert the page's live versions, oldest first per item so
    // predecessor pointers can be remapped.
    std::unordered_map<uint64_t, Tid> remap;  // old Tid::Pack() -> new home
    auto moved = [&](Tid tid) {
      auto rm = remap.find(tid.Pack());
      return rm == remap.end() ? tid : rm->second;
    };
    if (relocate) {
      for (auto& [vid, versions] : live) {
        for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
          if (it->tid.page != p) continue;
          // A read that fails leaves the page as it is: killing it would lose
          // this live version under the map entries that still name it.
          TupleHeader h;
          std::string payload;
          SIAS_RETURN_NOT_OK(heap().Fetch(it->tid, clk, &h, &payload));
          h.set_pred(moved(h.pred()));
          std::string encoded;
          EncodeTuple(h, Slice(payload), &encoded);
          SIAS_ASSIGN_OR_RETURN(Tid new_tid,
                                region_.Append(Slice(encoded), h.xmin, clk));
          remap[it->tid.Pack()] = new_tid;
          MvccObs().gc_versions_relocated->Increment();
          // Chains: point the successor at the copy — the entrypoint for
          // the newest live version, else the next-newer one's pred, fixed
          // in place (a maintenance write).
          if (scheme_ != VersionScheme::kSiasChains) continue;
          if (it + 1 == versions.rend()) {
            map_.CompareAndSet(vid, it->tid, new_tid);
          } else {
            Status fix = heap().RewriteHeader(
                moved((it + 1)->tid), kInvalidXid, clk,
                [new_tid](TupleHeader* sh) { sh->set_pred(new_tid); });
            if (!fix.ok() && !fix.IsNotFound()) return fix;
          }
        }
      }
    }

    // Republish each item once, after which no map path references a slot
    // the kill below takes. SIAS-V: the vector becomes exactly the item's
    // live list, remapped. Dropping only this page's entries is not enough:
    // mid-vector reclamation can punch holes anywhere, and a wholly dead
    // item (empty live list) may still have older versions on mostly-live
    // pages GC leaves alone — left in the vector, one of them would become
    // its front and bring the deleted row back. Chains: a wholly dead item
    // loses an entrypoint that sits on p.
    for (const auto& [vid, versions] : live) {
      if (scheme_ == VersionScheme::kSiasV) {
        std::vector<Tid> vec;
        vec.reserve(versions.size());
        for (const auto& v : versions) vec.push_back(moved(v.tid));
        map_v_.Set(vid, std::move(vec));
      } else if (versions.empty()) {
        Tid entry = map_.Get(vid);
        if (entry.valid() && entry.page == p) map_.Clear(vid);
      }
    }

    // One deferred kill: every slot when relocating, only the dead ones when
    // pruning; either way at least one. Counted at enqueue: the reclamation
    // decision is made here.
    std::vector<uint16_t> kill;
    for (const auto& s : slots) {
      if (relocate || !is_live(s)) kill.push_back(s.tid.slot);
    }
    MvccObs().gc_versions_discarded->Add(
        static_cast<int64_t>(slots.size() - live_on_page));
    if (relocate) MvccObs().gc_pages_reclaimed->Increment();
    // Unpublished slots die only behind the epoch horizon: a reader pinned
    // in an older epoch may still hold a stale vector copy or chain pointer
    // into them. Until the deferred kill lands, the page keeps its bytes
    // (stale readers see consistent data), stays out of the append region's
    // free list and is skipped by GC via gc_pending_. A kill that fails
    // leaves the page unchanged and unrecycled; the erase lets the next
    // pass retry it (its map references are gone, so its slots classify as
    // dead again).
    {
      MutexLock g(&gc_mu_);
      bool inserted = gc_pending_.insert(p).second;
      SIAS_CHECK(inserted);
    }
    EpochManager::Global().Retire([this, p, kill = std::move(kill),
                                   relocate] {
      if (heap().KillSlots(p, kill, nullptr).ok() && relocate) {
        // §6: GC is deterministic and engine-driven; hint the FTL that the
        // old physical blocks are dead so device GC need not relocate them
        // ("transfers yet more control over the Flash storage into the
        // MV-DBMS").
        auto offset = env_.pool->disk()->PageOffset(relation_, p);
        if (offset.ok()) {
          (void)env_.pool->disk()->device()->Trim(*offset, kPageSize);
        }
        region_.AddFreePage(p);
      }
      MutexLock g(&gc_mu_);
      gc_pending_.erase(p);
    });
  }
  // Eager cleanup when no reader is pinned: single-threaded vacuums (and
  // the existing GC tests) observe reclamation immediately; with pinned
  // readers the work simply stays queued for the next reclaim point.
  EpochManager::Global().Advance();
  EpochManager::Global().TryReclaim();
  return Status::OK();
}

Status SiasTable::Rebuild() {
  // Committed versions only: crashed and aborted writes are garbage.
  const Clog& clog = *env_.txns->clog();
  std::unordered_map<Vid, std::vector<VersionRef>> items;
  Vid max_vid = 0;
  SIAS_RETURN_NOT_OK(heap().Scan(nullptr, [&](const VersionRef& v, Slice) {
    max_vid = std::max(max_vid, v.header.vid + 1);
    if (clog.IsCommitted(v.header.xmin)) items[v.header.vid].push_back(v);
    return true;
  }));
  for (auto& [vid, versions] : items) {
    SortChronologically(&versions);
    if (scheme_ == VersionScheme::kSiasChains) {
      map_.Set(vid, versions.back().tid);
    } else {
      std::vector<Tid> vec;
      vec.reserve(versions.size());
      for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
        vec.push_back(it->tid);
      }
      map_v_.Set(vid, std::move(vec));
    }
  }
  // Preserve the VID allocation high-water mark even for fully-aborted vids.
  if (max_vid > 0) {
    if (scheme_ == VersionScheme::kSiasChains) {
      if (map_.bound() < max_vid) {
        map_.Set(max_vid - 1, map_.Get(max_vid - 1));
      }
    } else if (map_v_.bound() < max_vid) {
      map_v_.Set(max_vid - 1, map_v_.Get(max_vid - 1));
    }
  }
  return Status::OK();
}

}  // namespace sias
