#include "index/mvpbt.h"

#include <algorithm>
#include <utility>

#include "common/coding.h"
#include "fault/crash_point.h"
#include "mvcc/epoch.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/page.h"

namespace sias {

namespace {

/// On-page record layout (one slotted tuple per record):
///   klen u16 | type u8 | vid u64 | xid u64 | seq u64 | key bytes
constexpr size_t kRecordHeader = 2 + 1 + 8 + 8 + 8;

/// Partition order: key asc, vid asc, seq DESC — so a probe walking a
/// (key, vid) group front-to-back sees the newest event first.
struct RecordLess {
  template <typename R>
  bool operator()(const R& a, const R& b) const {
    int c = Slice(a.key).Compare(Slice(b.key));
    if (c != 0) return c < 0;
    if (a.vid != b.vid) return a.vid < b.vid;
    return a.seq > b.seq;
  }
};

}  // namespace

MvPbt::MvPbt(RelationId relation, BufferPool* pool, const Clog* clog,
             MvPbtOptions opts)
    : relation_(relation), pool_(pool), clog_(clog), opts_(opts) {
  auto& reg = obs::MetricsRegistry::Default();
  m_posted_ = reg.GetCounter("mvpbt.records_posted");
  m_flushes_ = reg.GetCounter("mvpbt.flushes");
  m_merges_ = reg.GetCounter("mvpbt.merges");
  m_pages_written_ = reg.GetCounter("mvpbt.pages_written");
  m_purged_ = reg.GetCounter("mvpbt.records_purged");
  m_probes_ = reg.GetCounter("mvpbt.probes");
  g_buffer_ = reg.GetGauge("mvpbt.buffer_entries");
  g_partitions_ = reg.GetGauge("mvpbt.partitions");
}

MvPbt::~MvPbt() {
  // No concurrent users by contract; retired descriptors queued earlier are
  // self-contained and drain through EpochManager::Quiesce at teardown.
  delete partitions_.load(std::memory_order_seq_cst);
  partitions_.store(nullptr, std::memory_order_seq_cst);
}

Status MvPbt::Create(VirtualClock* clk) {
  (void)clk;  // no persistent bootstrap state: partitions appear on flush
  WriteLock lock(&latch_);
  buffer_.clear();
  next_seq_ = 1;
  flushed_records_ = 0;
  entries_.store(0, std::memory_order_relaxed);
  InstallLocked({});
  g_buffer_->Set(0);
  return Status::OK();
}

Status MvPbt::Post(Slice key, Vid vid, Xid xid, RecordType type,
                   VirtualClock* clk) {
  if (key.size() > BTree::kMaxKeyLen) {
    return Status::InvalidArgument("index key too long");
  }
  WriteLock lock(&latch_);
  Record rec;
  rec.key = key.ToString();
  rec.vid = vid;
  rec.xid = xid;
  rec.seq = next_seq_++;
  rec.type = type;
  buffer_.push_back(std::move(rec));
  entries_.fetch_add(1, std::memory_order_relaxed);
  m_posted_->Increment();
  g_buffer_->Set(static_cast<int64_t>(buffer_.size()));
  if (buffer_.size() >= opts_.max_buffer_entries) {
    return FlushLocked(clk);
  }
  return Status::OK();
}

Status MvPbt::OnInsert(const IndexWriteCtx& ctx, Slice key) {
  return Post(key, ctx.vid, ctx.xid, RecordType::kInsert, ctx.clk);
}

Status MvPbt::OnUpdate(const IndexWriteCtx& ctx, Slice old_key,
                       Slice new_key) {
  // Same-key updates change nothing the index asserts (the key↔vid
  // association persists; version selection happens in the heap).
  if (old_key == new_key) return Status::OK();
  SIAS_RETURN_NOT_OK(
      Post(old_key, ctx.vid, ctx.xid, RecordType::kAnti, ctx.clk));
  return Post(new_key, ctx.vid, ctx.xid, RecordType::kInsert, ctx.clk);
}

Status MvPbt::OnDelete(const IndexWriteCtx& ctx, Slice key) {
  return Post(key, ctx.vid, ctx.xid, RecordType::kDelete, ctx.clk);
}

Status MvPbt::WritePartition(std::vector<Record> records, VirtualClock* clk,
                             std::shared_ptr<const Partition>* out) {
  SIAS_CRASH_POINT("mvpbt.flush.begin");
  std::sort(records.begin(), records.end(), RecordLess{});
  auto part = std::make_shared<Partition>();
  part->records = records.size();

  PageGuard guard;
  std::string tuple;
  for (const Record& rec : records) {
    uint8_t hdr[kRecordHeader];
    EncodeFixed16(hdr, static_cast<uint16_t>(rec.key.size()));
    hdr[2] = static_cast<uint8_t>(rec.type);
    EncodeFixed64(hdr + 3, rec.vid);
    EncodeFixed64(hdr + 11, rec.xid);
    EncodeFixed64(hdr + 19, rec.seq);
    tuple.assign(reinterpret_cast<char*>(hdr), kRecordHeader);
    tuple.append(rec.key);
    // A fresh page always fits one record (keys are <= kMaxKeyLen), so the
    // retry after a full page succeeds on the newly opened one.
    for (;;) {
      if (!guard.valid()) {
        auto g = pool_->NewPage(relation_, clk);
        if (!g.ok()) return g.status();
        guard = std::move(*g);
        guard.LatchExclusive();
        part->pages.push_back(guard.id().page);
        part->first_keys.push_back(rec.key);
      }
      uint16_t slot = guard.page().InsertTuple(Slice(tuple));
      if (slot != SlottedPage::kInvalidSlot) {
        guard.MarkDirty();
        break;
      }
      guard.Unlatch();
      guard.Release();
    }
  }
  if (guard.valid()) {
    guard.Unlatch();
    guard.Release();
  }

  // Durability: explicit flushes through the pool; with WAL enabled each
  // write is preceded by a full-page image (pool FPI hook), so a torn write
  // severed between these points cannot surface at recovery.
  for (PageNumber page : part->pages) {
    SIAS_CRASH_POINT("mvpbt.flush.page");
    SIAS_RETURN_NOT_OK(pool_->FlushPage(PageId{relation_, page}, clk,
                                        FlushSource::kExplicit));
    m_pages_written_->Increment();
  }
  *out = std::move(part);
  return Status::OK();
}

void MvPbt::InstallLocked(
    std::vector<std::shared_ptr<const Partition>> parts) {
  const PartitionSet* old = partitions_.load(std::memory_order_seq_cst);
  const PartitionSet* next =
      parts.empty() ? nullptr : new PartitionSet{std::move(parts)};
  partitions_.store(next, std::memory_order_seq_cst);
  g_partitions_->Set(next ? static_cast<int64_t>(next->parts.size()) : 0);
  if (old != nullptr) {
    EpochManager::Global().Retire([old] { delete old; });
  }
}

Status MvPbt::FlushLocked(VirtualClock* clk) {
  if (buffer_.empty()) return Status::OK();
  obs::SpanScope span(obs::SpanPhase::kApply, "mvpbt", "flush");

  std::shared_ptr<const Partition> part;
  SIAS_RETURN_NOT_OK(WritePartition(buffer_, clk, &part));

  std::vector<std::shared_ptr<const Partition>> parts;
  parts.push_back(std::move(part));
  if (const PartitionSet* set = partitions_.load(std::memory_order_seq_cst)) {
    parts.insert(parts.end(), set->parts.begin(), set->parts.end());
  }
  flushed_records_ += buffer_.size();
  InstallLocked(std::move(parts));
  buffer_.clear();
  g_buffer_->Set(0);
  m_flushes_->Increment();
  return Status::OK();
}

Status MvPbt::MergeLocked(Xid horizon, VirtualClock* clk) {
  const PartitionSet* set = partitions_.load(std::memory_order_seq_cst);
  if (set == nullptr || set->parts.size() <= opts_.max_partitions) {
    return Status::OK();
  }
  obs::SpanScope span(obs::SpanPhase::kApply, "mvpbt", "merge");

  std::vector<Record> all;
  for (const auto& part : set->parts) {
    SIAS_RETURN_NOT_OK(CollectFromPartition(*part, Slice(), Slice(),
                                            /*point=*/false, clk, &all));
  }
  std::sort(all.begin(), all.end(), RecordLess{});

  // Purge rule, per (key, vid) group in descending seq order: records from
  // aborted writers go unconditionally; the newest record whose writer
  // committed below the horizon is the version every snapshot agrees on —
  // everything older is unreachable, and the decider itself is only worth
  // keeping when it asserts presence (kInsert).
  std::vector<Record> kept;
  kept.reserve(all.size());
  uint64_t purged = 0;
  size_t i = 0;
  while (i < all.size()) {
    size_t j = i;
    bool decided = false;
    for (; j < all.size() && all[j].key == all[i].key &&
           all[j].vid == all[i].vid;
         ++j) {
      TxnStatus st = clog_->Get(all[j].xid);
      if (st == TxnStatus::kAborted) {
        purged++;
        continue;
      }
      if (decided) {
        purged++;
        continue;
      }
      if (all[j].xid < horizon && st == TxnStatus::kCommitted) {
        decided = true;
        if (all[j].type == RecordType::kInsert) {
          kept.push_back(all[j]);
        } else {
          purged++;
        }
      } else {
        kept.push_back(all[j]);
      }
    }
    i = j;
  }

  std::vector<std::shared_ptr<const Partition>> parts;
  if (!kept.empty()) {
    std::shared_ptr<const Partition> merged;
    SIAS_RETURN_NOT_OK(WritePartition(kept, clk, &merged));
    parts.push_back(std::move(merged));
  }
  flushed_records_ = kept.size();
  entries_.store(buffer_.size() + flushed_records_,
                 std::memory_order_relaxed);
  InstallLocked(std::move(parts));
  m_merges_->Increment();
  m_purged_->Add(static_cast<int64_t>(purged));
  return Status::OK();
}

Status MvPbt::Maintain(Xid horizon, VirtualClock* clk) {
  WriteLock lock(&latch_);
  if (buffer_.size() >= opts_.vacuum_flush_min) {
    SIAS_RETURN_NOT_OK(FlushLocked(clk));
  }
  return MergeLocked(horizon, clk);
}

Status MvPbt::Flush(VirtualClock* clk) {
  WriteLock lock(&latch_);
  return FlushLocked(clk);
}

Status MvPbt::CollectFromPartition(const Partition& part, Slice lo, Slice hi,
                                   bool point, VirtualClock* clk,
                                   std::vector<Record>* out) const {
  if (part.pages.empty()) return Status::OK();
  // Page-skip: start at the last page whose first key is <= lo.
  size_t start = 0;
  if (!lo.empty()) {
    auto it = std::upper_bound(
        part.first_keys.begin(), part.first_keys.end(), lo,
        [](Slice l, const std::string& fk) { return l.Compare(Slice(fk)) < 0; });
    start = it == part.first_keys.begin()
                ? 0
                : static_cast<size_t>(it - part.first_keys.begin()) - 1;
  }
  bool done = false;
  for (size_t p = start; p < part.pages.size() && !done; ++p) {
    auto g = pool_->FetchPage(PageId{relation_, part.pages[p]}, clk);
    if (!g.ok()) return g.status();
    PageGuard guard = std::move(*g);
    guard.LatchShared();
    SlottedPage page = guard.page();
    for (uint16_t s = 0; s < page.slot_count(); ++s) {
      Slice tuple = page.GetTuple(s);
      if (tuple.size() < kRecordHeader) {
        guard.Unlatch();
        return Status::Corruption("mvpbt record too short");
      }
      uint16_t klen = DecodeFixed16(tuple.data());
      if (tuple.size() < kRecordHeader + klen) {
        guard.Unlatch();
        return Status::Corruption("mvpbt record truncated");
      }
      Slice key(tuple.data() + kRecordHeader, klen);
      if (!lo.empty() && key.Compare(lo) < 0) continue;
      if (point ? key.Compare(lo) > 0
                : (!hi.empty() && key.Compare(hi) >= 0)) {
        done = true;  // records are globally sorted: nothing further matches
        break;
      }
      Record rec;
      rec.key = key.ToString();
      rec.type = static_cast<RecordType>(tuple.data()[2]);
      rec.vid = DecodeFixed64(tuple.data() + 3);
      rec.xid = DecodeFixed64(tuple.data() + 11);
      rec.seq = DecodeFixed64(tuple.data() + 19);
      out->push_back(std::move(rec));
    }
    guard.Unlatch();
  }
  return Status::OK();
}

Status MvPbt::ProbeImpl(const Snapshot& snap, Slice lo, Slice hi, bool point,
                        VirtualClock* clk, const HitCallback& cb) {
  m_probes_->Increment();
  std::vector<Record> recs;
  std::vector<std::shared_ptr<const Partition>> parts;
  {
    // Epoch pin first (forbidden under storage latches; kMvPbt < kPage so
    // this order is legal), then the shared latch: the buffer snapshot and
    // the partition-set load happen in one critical section, so a record
    // can never fall between the buffer we saw and the partitions we saw.
    // The copied shared_ptrs keep partitions alive after the pin drops.
    EpochGuard epoch;
    ReadLock lock(&latch_);
    for (const Record& rec : buffer_) {
      Slice key(rec.key);
      if (!lo.empty() && key.Compare(lo) < 0) continue;
      if (point ? key.Compare(lo) != 0
                : (!hi.empty() && key.Compare(hi) >= 0)) {
        continue;
      }
      recs.push_back(rec);
    }
    const PartitionSet* set =
        partitions_.load(std::memory_order_seq_cst);
    if (set != nullptr) parts = set->parts;
  }
  for (const auto& part : parts) {
    SIAS_RETURN_NOT_OK(
        CollectFromPartition(*part, lo, hi, point, clk, &recs));
  }
  std::sort(recs.begin(), recs.end(), RecordLess{});

  // Resolve per (key, vid) group: the newest record whose creator the
  // snapshot sees (committed per clog, or own write) decides. A record
  // sighted twice (buffer + freshly installed partition) dedups by seq.
  size_t i = 0;
  while (i < recs.size()) {
    size_t j = i;
    const Record* decider = nullptr;
    uint64_t prev_seq = 0;
    bool have_prev = false;
    for (; j < recs.size() && recs[j].key == recs[i].key &&
           recs[j].vid == recs[i].vid;
         ++j) {
      if (decider != nullptr) continue;
      if (have_prev && recs[j].seq == prev_seq) continue;
      prev_seq = recs[j].seq;
      have_prev = true;
      if (snap.CreatorVisible(recs[j].xid, *clog_)) {
        decider = &recs[j];
      }
    }
    if (decider != nullptr && decider->type == RecordType::kInsert) {
      IndexHit hit;
      hit.key = Slice(recs[i].key);
      hit.value = recs[i].vid;
      hit.visibility_resolved = true;
      if (!cb(hit)) return Status::OK();
    }
    i = j;
  }
  return Status::OK();
}

Status MvPbt::Probe(const Snapshot& snap, Slice key, VirtualClock* clk,
                    const HitCallback& cb) {
  return ProbeImpl(snap, key, Slice(), /*point=*/true, clk, cb);
}

Status MvPbt::ProbeRange(const Snapshot& snap, Slice lo, Slice hi,
                         VirtualClock* clk, const HitCallback& cb) {
  return ProbeImpl(snap, lo, hi, /*point=*/false, clk, cb);
}

uint64_t MvPbt::entries() const {
  return entries_.load(std::memory_order_relaxed);
}

size_t MvPbt::num_partitions() const {
  EpochGuard epoch;
  const PartitionSet* set = partitions_.load(std::memory_order_seq_cst);
  return set == nullptr ? 0 : set->parts.size();
}

size_t MvPbt::buffer_entries() const {
  ReadLock lock(&latch_);
  return buffer_.size();
}

}  // namespace sias
