#include "engine/database.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "fault/crash_point.h"
#include "fault/debug_ring.h"
#include "fault/retry.h"
#include "mvcc/epoch.h"
#include "mvcc/heap_pages.h"
#include "obs/span.h"

namespace sias {

namespace {
constexpr uint64_t kControlMagic = 0x534941534442ull;  // "SIASDB"
/// Reserved control region at the start of the data device.
constexpr uint64_t kControlRegionBytes = 4ull << 20;
/// Non-append dirty pages flushed per bgwriter pass. The PostgreSQL-era
/// budget is tiny — the bulk of write traffic comes from checkpoints and
/// dirty evictions, which is what the paper's Table 1 measures. Append pages
/// (SIAS) are exempt from the budget: draining sealed pages is the
/// flush-threshold policy itself.
constexpr size_t kBgWriterPagesPerPass = 16;

// Control-block slot layout:
//   [magic u64][seq u64][ckpt_lsn u64][dm_len u32][dm bytes]
//   [clog_len u32][clog bytes][next_xid u64][crc u32 over everything before]
constexpr size_t kControlFixedHead = 8 + 8 + 8 + 4;  // magic..dm_len
}

Database::Database(const DatabaseOptions& opts)
    : opts_(opts), locks_(opts.lock_timeout_ms), txns_(&clog_, &locks_) {}

Database::~Database() {
  // Deferred GC work (epoch-queued slot kills, version-vector frees)
  // references the tables, the buffer pool and the WAL; drain it while
  // everything is alive. Table destructors quiesce again — idempotent.
  EpochManager::Global().Quiesce();
}

Result<std::unique_ptr<Database>> Database::Open(const DatabaseOptions& opts) {
  if (opts.data_device == nullptr) {
    return Status::InvalidArgument("data device required");
  }
  std::unique_ptr<Database> db(new Database(opts));
  db->disk_ = std::make_unique<DiskManager>(opts.data_device,
                                            kControlRegionBytes);
  if (opts.wal_device != nullptr) {
    db->wal_ = std::make_unique<WalWriter>(opts.wal_device, 0,
                                           opts.wal_limit_bytes);
  }
  WalWriter* wal = db->wal_.get();
  db->pool_ = std::make_unique<BufferPool>(
      db->disk_.get(), opts.pool_frames,
      wal != nullptr
          ? BufferPool::WalFlushHook([wal](Lsn lsn, VirtualClock* clk) {
              return wal->FlushTo(lsn, clk);
            })
          : BufferPool::WalFlushHook{});
  if (wal != nullptr) {
    // Full-page images ahead of every in-place page write (torn-page
    // protection; see WalRecordType::kPageImage). Disabled while recovery
    // itself runs — the writer is not resumed yet, and redo restores pages
    // from the images already in the log.
    db->pool_->SetFpiHook([db = db.get()](PageId id, const uint8_t* image,
                                          VirtualClock* clk) -> Result<Lsn> {
      (void)clk;
      if (!db->fpi_enabled_.load(std::memory_order_acquire)) {
        return kInvalidLsn;
      }
      WalRecord rec;
      rec.type = WalRecordType::kPageImage;
      rec.relation = id.relation;
      rec.tid = Tid{id.page, 0};
      rec.body.assign(reinterpret_cast<const char*>(image), kPageSize);
      SIAS_ASSIGN_OR_RETURN(Lsn lsn, db->wal_->Append(rec));
      obs::MetricsRegistry::Default().GetCounter("wal.fpi_records")
          ->Increment();
      return lsn;
    });
  }

  // Commit hook: append the commit record and group-commit flush it —
  // the transaction's durability point. A transaction with an empty write
  // log has none (DESIGN.md §3, item 6): everything it read was made
  // durable before it became visible, and recovery treats its xid, which
  // left nothing behind, as aborted.
  db->txns_.set_commit_hook([db = db.get()](Transaction* txn) {
    if (db->wal_ == nullptr || txn->writes().empty()) return Status::OK();
    WalRecord rec;
    rec.type = WalRecordType::kTxnCommit;
    rec.xid = txn->xid();
    SIAS_ASSIGN_OR_RETURN(Lsn lsn, db->wal_->Append(rec));
    // A cut between these two points is the classic lost-commit window: the
    // commit record is appended but not durable, so recovery must abort the
    // transaction; after the flush it must be visible.
    SIAS_CRASH_POINT("txn.commit.pre_flush");
    SIAS_RETURN_NOT_OK(db->wal_->FlushTo(lsn, txn->clock()));
    SIAS_CRASH_POINT("txn.commit.post_flush");
    return Status::OK();
  });
  db->txns_.set_abort_hook([db = db.get()](Transaction* txn) {
    if (db->wal_ == nullptr || txn->writes().empty()) return Status::OK();
    WalRecord rec;
    rec.type = WalRecordType::kTxnAbort;
    rec.xid = txn->xid();
    return db->wal_->Append(rec).status();
  });
  return db;
}

Result<Table*> Database::CreateTable(const std::string& name, Schema schema,
                                     VersionScheme scheme) {
  MutexLock g(&catalog_mu_);
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  RelationId relation = next_relation_++;
  SIAS_RETURN_NOT_OK(disk_->CreateRelation(relation));
  TableEnv env{pool_.get(), &txns_, wal_.get()};
  std::unique_ptr<MvccTable> heap;
  if (scheme == VersionScheme::kSi) {
    heap = std::make_unique<SiHeap>(relation, env);
  } else {
    heap = std::make_unique<SiasTable>(relation, env, scheme);
  }
  auto table =
      std::make_unique<Table>(name, std::move(schema), std::move(heap));
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Status Database::CreateIndex(Table* table, const std::string& index_name,
                             KeyExtractor extractor) {
  return CreateIndex(table, index_name, std::move(extractor),
                     IndexKind::kBTree);
}

Status Database::CreateIndex(Table* table, const std::string& index_name,
                             KeyExtractor extractor, IndexKind kind,
                             const MvPbtOptions& mvpbt) {
  MutexLock g(&catalog_mu_);
  RelationId relation = next_relation_++;
  SIAS_RETURN_NOT_OK(disk_->CreateRelation(relation));
  std::unique_ptr<SecondaryIndex> index;
  if (kind == IndexKind::kMvPbt) {
    index = std::make_unique<MvPbt>(relation, pool_.get(), txns_.clog(),
                                    mvpbt);
  } else {
    index = std::make_unique<BTreeIndex>(relation, pool_.get(),
                                         table->scheme());
  }
  VirtualClock clk;
  SIAS_RETURN_NOT_OK(index->Create(&clk));
  table->AttachIndex(index_name, std::move(index), std::move(extractor));
  return Status::OK();
}

std::unique_ptr<Transaction> Database::Begin(VirtualClock* clock) {
  return txns_.Begin(clock);
}

Status Database::Commit(Transaction* txn) {
  Status s = txns_.Commit(txn);
  if (txn->clock() != nullptr) AdvanceMakespan(txn->clock()->now());
  return s;
}

Status Database::Abort(Transaction* txn) { return txns_.Abort(txn); }

void Database::AdvanceMakespan(VTime now) {
  std::atomic<VTime>& shard =
      makespan_[obs::ThreadShard(obs::kCounterShards)].v;
  VTime cur = shard.load(std::memory_order_relaxed);
  while (cur < now && !shard.compare_exchange_weak(cur, now,
                                                   std::memory_order_relaxed)) {
  }
}

VTime Database::max_vtime() const {
  VTime max = 0;
  for (const auto& shard : makespan_) {
    max = std::max(max, shard.v.load(std::memory_order_relaxed));
  }
  return max;
}

Status Database::Tick(VirtualClock* clk) {
  VTime now = clk->now();
  AdvanceMakespan(now);
  // Claim-and-run each maintenance deadline at most once.
  VTime bg = next_bgwriter_.load(std::memory_order_relaxed);
  if (now >= bg &&
      next_bgwriter_.compare_exchange_strong(bg, now +
                                                     opts_.bgwriter_interval)) {
    SIAS_RETURN_NOT_OK(BgWriterPass(clk));
    // Epoch reclaim rides the bgwriter cadence, so the vectors SIAS-V
    // writers retire are freed without vacuum. Reclaim callbacks take
    // storage latches, so a caller pinned in an epoch skips it.
    EpochManager& epochs = EpochManager::Global();
    if (!epochs.InEpoch()) {
      epochs.Advance();
      epochs.TryReclaim();
    }
  }
  VTime cp = next_checkpoint_.load(std::memory_order_relaxed);
  if (now >= cp &&
      next_checkpoint_.compare_exchange_strong(
          cp, now + opts_.checkpoint_interval)) {
    SIAS_RETURN_NOT_OK(StartPacedCheckpoint(clk));
  }
  if (opts_.vacuum_interval > 0) {
    VTime vac = next_vacuum_.load(std::memory_order_relaxed);
    if (now >= vac &&
        next_vacuum_.compare_exchange_strong(
            vac, now + opts_.vacuum_interval)) {
      SIAS_RETURN_NOT_OK(Vacuum(clk));
    }
  }
  return Status::OK();
}

Status Database::BgWriterPass(VirtualClock* clk) {
  MutexLock g(&maintenance_mu_);
  SIAS_CRASH_POINT("bgwriter.pass");
  bgwriter_passes_.fetch_add(1, std::memory_order_relaxed);
  SIAS_RETURN_NOT_OK(DrainCheckpointLocked(clk));

  // Under t1, the bgwriter persists append pages on its cadence — which
  // requires SEALING the (possibly sparsely filled) open page first, the
  // very behaviour the paper blames for t1's wasted space and extra writes.
  if (opts_.flush_policy == FlushPolicy::kT1BackgroundWriter) {
    MutexLock cg(&catalog_mu_);
    for (auto& [name, table] : tables_) {
      if (table->scheme() != VersionScheme::kSi) {
        static_cast<SiasTable*>(table->heap())->region().SealOpenPage();
      }
    }
  }

  const std::unordered_map<RelationId, uint32_t> page_flags = HeapPageFlags();
  size_t budget = kBgWriterPagesPerPass;
  for (const auto& info : pool_->DirtyPages(/*clear_referenced=*/true)) {
    auto flags = page_flags.find(info.id.relation);
    bool append_page = flags != page_flags.end() &&
                       (flags->second & kPageFlagAppendRegion) != 0;
    if (append_page) {
      // Sealed append pages are full and immutable: writing them now is the
      // paper's optimal threshold ("maximum filling degree") and costs the
      // same bytes as the checkpoint piggyback, so both policies drain them
      // outside the bgwriter budget. The OPEN (sticky) page is where t1 and
      // t2 differ: t1 sealed it above and writes it (possibly sparsely
      // filled); t2 leaves it to keep filling until the checkpoint.
      if (info.sticky && opts_.flush_policy == FlushPolicy::kT2Checkpoint) {
        continue;
      }
    } else {
      if (info.referenced) {
        // PostgreSQL-style write-behind: pages still hot (e.g. the
        // rightmost index leaf) wait for the checkpoint.
        continue;
      }
      if (budget == 0) continue;
      budget--;
    }
    SIAS_RETURN_NOT_OK(pool_->FlushPage(info.id, clk,
                                        FlushSource::kBackgroundWriter));
  }
  return Status::OK();
}

std::unordered_map<RelationId, uint32_t> Database::HeapPageFlags() {
  MutexLock g(&catalog_mu_);
  std::unordered_map<RelationId, uint32_t> flags;
  for (auto& [name, table] : tables_) {
    flags[table->heap()->relation()] = table->scheme() == VersionScheme::kSi
                                           ? kPageFlagNone
                                           : kPageFlagAppendRegion;
  }
  return flags;
}

Status Database::Checkpoint(VirtualClock* clk) {
  MutexLock g(&maintenance_mu_);
  SIAS_CRASH_POINT("ckpt.begin");
  fault::DebugRingLog("ckpt_sharp", wal_ != nullptr ? wal_->current_lsn() : 0);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  // A sharp checkpoint subsumes any paced one in flight.
  ckpt_queue_.clear();
  ckpt_active_ = false;
  Lsn checkpoint_lsn = wal_ != nullptr ? wal_->current_lsn() : 0;
  SIAS_RETURN_NOT_OK(pool_->FlushAll(clk, FlushSource::kCheckpoint));
  if (wal_ != nullptr) {
    SIAS_RETURN_NOT_OK(wal_->FlushTo(wal_->current_lsn(), clk));
  }
  // Pages and log are out; a cut here leaves the previous control block
  // ruling, so redo re-covers this checkpoint's window.
  SIAS_CRASH_POINT("ckpt.pages_flushed");
  return WriteControlBlock(checkpoint_lsn, clk);
}

Status Database::StartPacedCheckpoint(VirtualClock* clk) {
  MutexLock g(&maintenance_mu_);
  if (ckpt_active_) return Status::OK();  // previous drain still running
  SIAS_CRASH_POINT("ckpt.paced.start");
  fault::DebugRingLog("ckpt_paced", wal_ != nullptr ? wal_->current_lsn() : 0);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  pending_ckpt_lsn_ = wal_ != nullptr ? wal_->current_lsn() : 0;
  ckpt_queue_.clear();
  for (const auto& info : pool_->DirtyPages()) {
    ckpt_queue_.push_back(info.id);
  }
  // Drain across the bgwriter passes of roughly half the interval.
  uint64_t passes = std::max<uint64_t>(
      1, opts_.checkpoint_interval / 2 / std::max<VDuration>(
                                              1, opts_.bgwriter_interval));
  ckpt_drain_per_pass_ =
      std::max<size_t>(1, (ckpt_queue_.size() + passes - 1) / passes);
  ckpt_active_ = true;
  return DrainCheckpointLocked(clk);
}

Status Database::DrainCheckpointLocked(VirtualClock* clk) {
  if (!ckpt_active_) return Status::OK();
  SIAS_CRASH_POINT("ckpt.paced.drain_pass");
  size_t n = std::min(ckpt_drain_per_pass_, ckpt_queue_.size());
  for (size_t i = 0; i < n; ++i) {
    PageId id = ckpt_queue_.front();
    ckpt_queue_.pop_front();
    SIAS_RETURN_NOT_OK(
        pool_->FlushPage(id, clk, FlushSource::kCheckpoint));
  }
  if (ckpt_queue_.empty()) {
    ckpt_active_ = false;
    if (wal_ != nullptr) {
      SIAS_RETURN_NOT_OK(wal_->FlushTo(wal_->current_lsn(), clk));
    }
    // A cut here kills the checkpoint after its pages went out but before
    // it is declared: recovery must still replay from the previous one.
    SIAS_CRASH_POINT("ckpt.paced.pre_complete");
    SIAS_RETURN_NOT_OK(WriteControlBlock(pending_ckpt_lsn_, clk));
  }
  return Status::OK();
}

Status Database::WriteControlBlock(Lsn checkpoint_lsn, VirtualClock* clk) {
  // Barrier first: the checkpointed data pages (and on a write-back device,
  // everything still sitting in its volatile cache) must be durable before
  // a control block that claims redo can start past them.
  SIAS_CRASH_POINT("control.pre_sync");
  SIAS_RETURN_NOT_OK(fault::RetryTransient("control-block pre-sync", clk, [&] {
    return opts_.data_device->Sync(clk);
  }));

  uint64_t seq = control_seq_.load(std::memory_order_relaxed) + 1;
  std::string blob;
  PutFixed64(&blob, kControlMagic);
  PutFixed64(&blob, seq);
  PutFixed64(&blob, checkpoint_lsn);
  std::string dm;
  disk_->Serialize(&dm);
  PutFixed32(&blob, static_cast<uint32_t>(dm.size()));
  blob += dm;
  std::string cl;
  clog_.Serialize(&cl);
  PutFixed32(&blob, static_cast<uint32_t>(cl.size()));
  blob += cl;
  PutFixed64(&blob, txns_.NextXid());
  PutFixed32(&blob, MaskCrc(Crc32c(blob.data(), blob.size())));
  const uint64_t slot_bytes = kControlRegionBytes / 2;
  if (blob.size() > slot_bytes) {
    return Status::OutOfSpace("control block exceeds its slot");
  }
  // Ping-pong: a crash while this slot is being written (torn or lost in a
  // volatile cache) leaves the other slot — the previous checkpoint —
  // intact and newest-by-sequence.
  SIAS_CRASH_POINT("control.pre_write");
  uint64_t slot_offset = (seq % 2) * slot_bytes;
  size_t padded = (blob.size() + kPageSize - 1) / kPageSize * kPageSize;
  std::vector<uint8_t> buf(padded, 0);
  memcpy(buf.data(), blob.data(), blob.size());
  SIAS_RETURN_NOT_OK(fault::RetryTransient("control-block write", clk, [&] {
    return opts_.data_device->Write(slot_offset, padded, buf.data(), clk);
  }));
  SIAS_RETURN_NOT_OK(fault::RetryTransient("control-block sync", clk, [&] {
    return opts_.data_device->Sync(clk);
  }));
  control_seq_.store(seq, std::memory_order_relaxed);
  fault::DebugRingLog("control_block", seq, checkpoint_lsn);
  SIAS_CRASH_POINT("control.post_write");
  return Status::OK();
}

Result<Lsn> Database::ReadControlBlock() {
  // Parse both slots; the highest-sequence one with a valid CRC wins. A
  // fresh device has neither; a crash mid-write leaves at most the slot
  // being written invalid.
  const uint64_t slot_bytes = kControlRegionBytes / 2;
  struct Parsed {
    uint64_t seq;
    Lsn lsn;
    uint32_t dm_len, clog_len;
    std::vector<uint8_t> bytes;
  };
  std::optional<Parsed> best;
  for (int slot = 0; slot < 2; ++slot) {
    uint64_t off = slot * slot_bytes;
    std::vector<uint8_t> head(kPageSize);
    SIAS_RETURN_NOT_OK(fault::RetryTransient("control-block read", nullptr,
                                             [&] {
      return opts_.data_device->Read(off, kPageSize, head.data(), nullptr);
    }));
    if (DecodeFixed64(head.data()) != kControlMagic) continue;
    uint32_t dm_len = DecodeFixed32(head.data() + 24);
    uint64_t need = kControlFixedHead + dm_len + 4;
    if (need + 12 > slot_bytes) continue;  // garbage length
    std::vector<uint8_t> blob((need + kPageSize - 1) / kPageSize * kPageSize);
    SIAS_RETURN_NOT_OK(
        opts_.data_device->Read(off, blob.size(), blob.data(), nullptr));
    uint32_t clog_len = DecodeFixed32(blob.data() + kControlFixedHead + dm_len);
    uint64_t total = kControlFixedHead + dm_len + 4 + clog_len + 8 + 4;
    if (total > slot_bytes) continue;
    std::vector<uint8_t> full((total + kPageSize - 1) / kPageSize * kPageSize);
    SIAS_RETURN_NOT_OK(
        opts_.data_device->Read(off, full.size(), full.data(), nullptr));
    uint32_t crc = DecodeFixed32(full.data() + total - 4);
    if (MaskCrc(Crc32c(full.data(), total - 4)) != crc) continue;  // torn slot
    uint64_t seq = DecodeFixed64(full.data() + 8);
    if (!best.has_value() || seq > best->seq) {
      best = Parsed{seq, DecodeFixed64(full.data() + 16), dm_len, clog_len,
                    std::move(full)};
    }
  }
  if (!best.has_value()) {
    return Status::NotFound("no control block (fresh database)");
  }
  const uint8_t* p = best->bytes.data();
  SIAS_RETURN_NOT_OK(
      disk_->Deserialize(Slice(p + kControlFixedHead, best->dm_len)));
  SIAS_RETURN_NOT_OK(clog_.Deserialize(
      Slice(p + kControlFixedHead + best->dm_len + 4, best->clog_len)));
  txns_.AdvanceNextXid(
      DecodeFixed64(p + kControlFixedHead + best->dm_len + 4 + best->clog_len));
  control_seq_.store(best->seq, std::memory_order_relaxed);
  return best->lsn;
}

Status Database::Recover(const RecoverOptions& ropts) {
  if (opts_.wal_device == nullptr) {
    return Status::NotSupported("recovery requires a WAL device");
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("db.recovery.runs")->Increment();
  // Flushes issued by recovery itself (evictions, the prepass seeding)
  // must not append page images: the WAL writer is not resumed yet.
  fpi_enabled_.store(false, std::memory_order_release);
  struct FpiReenable {
    std::atomic<bool>* flag;
    ~FpiReenable() { flag->store(true, std::memory_order_release); }
  } fpi_reenable{&fpi_enabled_};
  // Recovery clock: redo and rebuild I/O is charged here so the run's
  // virtual-time cost is observable (db.recovery.vtime_ns).
  VirtualClock clk;

  // 0) Discard any paced-checkpoint state: the drain that was in flight
  // when the engine died must not resume against the recovered pool (its
  // queued page ids may no longer be dirty — or exist).
  {
    MutexLock g(&maintenance_mu_);
    ckpt_queue_.clear();
    ckpt_active_ = false;
    pending_ckpt_lsn_ = kInvalidLsn;
  }

  // 1) Control block: disk map + clog snapshot + checkpoint LSN.
  Lsn start_lsn = 0;
  auto cb = ReadControlBlock();
  if (cb.ok()) {
    start_lsn = *cb;
  } else if (cb.status().code() != StatusCode::kNotFound) {
    return cb.status();
  }
  fault::DebugRingLog("recover_start", start_lsn);

  // Flags of the pages redo creates. Records of relations missing here are
  // skipped.
  const std::unordered_map<RelationId, uint32_t> page_flags = HeapPageFlags();

  // 2a) Torn-page prepass: collect the newest full-page image per page in
  // the redo window and seed the pool with it. WAL-before-data guarantees
  // that any torn in-place write left a durable image here, so after this
  // pass every page the redo loop touches reads clean — a checksum mismatch
  // that still surfaces is real, unrecoverable corruption and stays loud.
  uint64_t pages_restored = 0;
  {
    std::unordered_map<PageId, std::string> images;
    WalReader prepass(opts_.wal_device, 0, opts_.wal_limit_bytes, start_lsn);
    for (;;) {
      auto rec = prepass.Next();
      if (!rec.ok()) return rec.status();
      if (!rec->has_value()) break;
      WalRecord& r = **rec;
      if (r.type != WalRecordType::kPageImage) continue;
      if (r.body.size() != kPageSize) {
        return Status::Corruption("page-image record of wrong size");
      }
      images[PageId{r.relation, r.tid.page}] = std::move(r.body);
    }
    for (auto& [id, body] : images) {
      SIAS_RETURN_NOT_OK(pool_->RestorePage(
          id, reinterpret_cast<const uint8_t*>(body.data()), &clk));
      pages_restored++;
      fault::DebugRingLog("fpi_restore", id.relation, id.page);
    }
  }

  // 2b) Redo pass.
  WalReader reader(opts_.wal_device, 0, opts_.wal_limit_bytes, start_lsn);
  Xid max_seen_xid = kFirstNormalXid;
  uint64_t records_replayed = 0;
  int64_t heap_redo_index = 0;
  for (;;) {
    auto rec = reader.Next();
    if (!rec.ok()) return rec.status();
    if (!rec->has_value()) break;
    const WalRecord& r = **rec;
    records_replayed++;
    fault::DebugRingLog("redo", uint64_t(r.type) | (r.xid << 8), r.relation,
                        r.tid.Pack(), reader.lsn());
    if (r.xid != kInvalidXid) {
      max_seen_xid = std::max(max_seen_xid, r.xid);
      clog_.Extend(r.xid);
    }
    switch (r.type) {
      case WalRecordType::kTxnCommit:
        clog_.SetCommitted(r.xid);
        break;
      case WalRecordType::kTxnAbort:
        clog_.SetAborted(r.xid);
        break;
      case WalRecordType::kHeapInsert:
      case WalRecordType::kHeapOverwrite:
      case WalRecordType::kHeapSlotDelete: {
        // Sabotage knob (crash tests): drop this heap redo record on the
        // floor to prove the invariant suite catches a recovery that loses
        // work.
        if (heap_redo_index++ == ropts.skip_redo_record) break;
        auto it = page_flags.find(r.relation);
        if (it == page_flags.end()) break;  // dropped/undeclared relation
        SIAS_RETURN_NOT_OK(HeapPages(pool_.get(), r.relation)
                               .Redo(r, reader.lsn(), it->second));
        break;
      }
      case WalRecordType::kCheckpoint:
      case WalRecordType::kIndexInsert:
        break;
      case WalRecordType::kPageImage:
        // Applied by the prepass (newest image per page wins; older images
        // must not regress un-logged GC re-initializations).
        break;
    }
  }

  // Resume the writer at the end of the valid log so new records extend it.
  SIAS_RETURN_NOT_OK(wal_->Resume(reader.lsn()));

  // 3) Crashed transactions never commit: every xid still marked
  // in-progress (whether its records were replayed or flushed before the
  // checkpoint) is aborted.
  txns_.AdvanceNextXid(max_seen_xid + 1);
  clog_.Extend(txns_.NextXid());
  uint64_t xids_aborted = 0;
  for (Xid x = kFirstNormalXid; x < txns_.NextXid(); ++x) {
    if (clog_.Get(x) == TxnStatus::kInProgress) {
      clog_.SetAborted(x);
      xids_aborted++;
    }
  }

  // 4) Rebuild in-memory access structures from the heap ("all information
  // required for a reconstruction is stored on each tuple version", §6).
  // Table::RebuildIndexes posts MV-PBT records under the recovery
  // transaction's xid, so it takes one up front.
  auto recovery_txn = txns_.Begin(&clk);
  txns_.AssignXid(recovery_txn.get());
  {
    MutexLock g(&catalog_mu_);
    for (auto& [name, table] : tables_) {
      SIAS_RETURN_NOT_OK(table->heap()->Rebuild());
      SIAS_RETURN_NOT_OK(table->RebuildIndexes(recovery_txn.get(), &clk));
    }
  }
  Status done = txns_.Commit(recovery_txn.get());
  reg.GetGauge("db.recovery.records_replayed")
      ->Set(static_cast<int64_t>(records_replayed));
  reg.GetGauge("db.recovery.pages_restored")
      ->Set(static_cast<int64_t>(pages_restored));
  reg.GetGauge("db.recovery.xids_aborted")
      ->Set(static_cast<int64_t>(xids_aborted));
  reg.GetGauge("db.recovery.vtime_ns")->Set(static_cast<int64_t>(clk.now()));
  return done;
}

Status Database::Vacuum(VirtualClock* clk) {
  bool expected = false;
  if (!vacuum_running_.compare_exchange_strong(expected, true)) {
    return Status::OK();  // another pass is in flight; see header comment
  }
  struct Release {
    std::atomic<bool>* flag;
    ~Release() { flag->store(false); }
  } release{&vacuum_running_};
  // When vacuum runs on a terminal's clock inside an open transaction root
  // (inline GC), its virtual time is that transaction's gc_defer phase —
  // the deferred-kill interference the span model is meant to expose.
  obs::SpanScope gc_span(obs::SpanPhase::kGcDefer, "maintenance", "vacuum");
  SIAS_CRASH_POINT("vacuum.begin");
  Xid horizon = txns_.GcHorizon();
  std::vector<Table*> tables;
  {
    MutexLock g(&catalog_mu_);
    for (auto& [name, table] : tables_) tables.push_back(table.get());
  }
  for (Table* t : tables) {
    SIAS_RETURN_NOT_OK(t->GarbageCollect(horizon, clk));
    // MV-PBT partition flush/merge rides the vacuum cadence (B+-trees
    // no-op here).
    SIAS_RETURN_NOT_OK(t->MaintainIndexes(horizon, clk));
  }
  // One more reclaim pass over work the per-table collections deferred:
  // with no pinned readers everything lands now; otherwise it stays queued
  // until the pinning epochs exit.
  {
    obs::SpanScope reclaim_span(obs::SpanPhase::kGcDefer, "maintenance",
                                "epoch_reclaim");
    EpochManager::Global().Advance();
    EpochManager::Global().TryReclaim();
  }
  return Status::OK();
}

DatabaseStats Database::stats() const {
  DatabaseStats s;
  s.device = opts_.data_device->stats();
  s.heap_allocated_bytes = disk_->allocated_bytes();
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.bgwriter_passes = bgwriter_passes_.load(std::memory_order_relaxed);
  return s;
}

obs::MetricsSnapshot Database::DumpMetrics() {
  // Gauges are refreshed from authoritative engine state on every dump, so
  // the registry lookup cost (cold path) doesn't matter here. Per-database
  // device figures come from the configured devices' own stats — the shared
  // `device.*` counters aggregate across every device in the process.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  DatabaseStats s = stats();
  reg.GetGauge("db.device.read_ops")->Set(static_cast<int64_t>(s.device.read_ops));
  reg.GetGauge("db.device.write_ops")->Set(static_cast<int64_t>(s.device.write_ops));
  reg.GetGauge("db.device.read_bytes")->Set(static_cast<int64_t>(s.device.bytes_read));
  reg.GetGauge("db.device.write_bytes")->Set(static_cast<int64_t>(s.device.bytes_written));
  reg.GetGauge("db.heap_allocated_bytes")
      ->Set(static_cast<int64_t>(s.heap_allocated_bytes));
  reg.GetGauge("db.checkpoints")->Set(static_cast<int64_t>(s.checkpoints));
  reg.GetGauge("db.bgwriter_passes")
      ->Set(static_cast<int64_t>(s.bgwriter_passes));
  reg.GetGauge("db.txn.active")
      ->Set(static_cast<int64_t>(txns_.ActiveCount()));
  Xid oldest = txns_.OldestActiveXid();
  Xid horizon = txns_.GcHorizon();
  reg.GetGauge("db.txn.gc_horizon_lag")
      ->Set(oldest >= horizon ? static_cast<int64_t>(oldest - horizon) : 0);

  // Flash-path figures: write amplification (scaled ×1000 — gauges are
  // integral), the host/GC program split, and the wear + space levels from
  // the device's telemetry (RAID members merge).
  reg.GetGauge("db.device.write_amplification_milli")
      ->Set(static_cast<int64_t>(s.device.WriteAmplification() * 1000.0));
  reg.GetGauge("db.device.flash_page_programs")
      ->Set(static_cast<int64_t>(s.device.flash_page_programs));
  reg.GetGauge("db.device.host_page_programs")
      ->Set(static_cast<int64_t>(s.device.host_page_programs));
  reg.GetGauge("db.device.gc_page_moves")
      ->Set(static_cast<int64_t>(s.device.gc_page_moves));
  reg.GetGauge("db.device.flash_block_erases")
      ->Set(static_cast<int64_t>(s.device.flash_block_erases));
  DeviceTelemetry t = opts_.data_device->telemetry();
  reg.GetGauge("db.device.wear.total_erases")
      ->Set(static_cast<int64_t>(t.erase_total));
  reg.GetGauge("db.device.wear.max_block_erases")
      ->Set(static_cast<int64_t>(t.erase_max));
  reg.GetGauge("db.device.wear.avg_block_erases_milli")
      ->Set(static_cast<int64_t>(t.erase_avg * 1000.0));
  reg.GetGauge("db.device.free_pages")
      ->Set(static_cast<int64_t>(t.free_pages));
  reg.GetGauge("db.device.free_blocks")
      ->Set(static_cast<int64_t>(t.free_blocks));
  reg.GetGauge("db.device.gc_reserve_blocks")
      ->Set(static_cast<int64_t>(t.gc_reserve_blocks));

  // VID-map footprint across every SIAS table (PR-1 gap: the maps were
  // invisible). Chains tables report the packed-slot map, V tables the
  // vector map.
  uint64_t vidmap_buckets = 0;
  uint64_t vidmap_bytes = 0;
  {
    MutexLock g(&catalog_mu_);
    for (const auto& [name, table] : tables_) {
      if (table->scheme() == VersionScheme::kSi) continue;
      auto* sias = static_cast<SiasTable*>(table->heap());
      if (table->scheme() == VersionScheme::kSiasChains) {
        vidmap_buckets += sias->vid_map().bucket_count();
        vidmap_bytes += sias->vid_map().memory_bytes();
      } else {
        vidmap_buckets += sias->vid_map_v().bucket_count();
        vidmap_bytes += sias->vid_map_v().memory_bytes();
      }
    }
  }
  reg.GetGauge("db.vidmap.buckets")
      ->Set(static_cast<int64_t>(vidmap_buckets));
  reg.GetGauge("db.vidmap.memory_bytes")
      ->Set(static_cast<int64_t>(vidmap_bytes));
  return reg.Snapshot();
}

}  // namespace sias
