#include "engine/table.h"

#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "index/key_codec.h"
#include "obs/metrics.h"

namespace sias {

namespace {

/// Heap dereferences made to resolve index-only scan candidates (zero on an
/// MV-PBT leg — the bench-gated invariant; see docs/INDEXING.md).
obs::Counter* ScanHeapResolves() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("index.scan_heap_resolves");
  return c;
}

/// B+-tree entries removed because their item is gone for every snapshot.
obs::Counter* DeadEntriesRemoved() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "index.dead_entries_removed");
  return c;
}

/// The calling thread's heap read buffer: a row is read into it and decoded
/// at once, so every read reuses its capacity.
std::string& ReadBuffer() {
  thread_local std::string buf;
  return buf;
}

}  // namespace

KeyExtractor KeyExtractor::IntColumns(std::vector<size_t> columns) {
  KeyExtractor e;
  e.int_columns_ = std::move(columns);
  return e;
}

std::string KeyExtractor::operator()(const Row& row) const {
  if (fn_) return fn_(row);
  KeyBuilder key;
  for (size_t c : int_columns_) key.AddInt(row.GetInt(c));
  return key.Take();
}

bool KeyExtractor::Matches(const Row& row, Slice key) const {
  if (fn_) return Slice(fn_(row)) == key;
  if (key.size() != 8 * int_columns_.size()) return false;
  const uint8_t* p = key.data();
  for (size_t c : int_columns_) {
    uint8_t field[8];
    EncodeIntKeyField(field, row.GetInt(c));
    if (memcmp(field, p, 8) != 0) return false;
    p += 8;
  }
  return true;
}

void Table::AttachIndex(std::string index_name,
                        std::unique_ptr<SecondaryIndex> index,
                        KeyExtractor extractor) {
  indexes_.push_back(
      IndexDef{std::move(index_name), std::move(index), std::move(extractor)});
}

Result<Vid> Table::Insert(Transaction* txn, const Row& row) {
  std::string encoded;
  SIAS_RETURN_NOT_OK(row.Encode(schema_, &encoded));
  Tid tid;
  SIAS_ASSIGN_OR_RETURN(Vid vid, heap_->Insert(txn, Slice(encoded), &tid));
  // Index maintenance: every index sees the insert event.
  IndexWriteCtx ctx{txn->xid(), tid, vid, txn->clock()};
  for (auto& idx : indexes_) {
    std::string key = idx.extractor(row);
    SIAS_RETURN_NOT_OK(idx.index->OnInsert(ctx, Slice(key)));
  }
  return vid;
}

Status Table::Update(Transaction* txn, Vid vid, const Row& new_row) {
  // Fetch the currently visible row first (needed for key-change detection).
  SIAS_ASSIGN_OR_RETURN(std::optional<Row> old_row, Get(txn, vid));
  if (!old_row.has_value()) return Status::NotFound("no visible row");

  std::string encoded;
  SIAS_RETURN_NOT_OK(new_row.Encode(schema_, &encoded));
  Tid new_tid;
  SIAS_RETURN_NOT_OK(heap_->Update(txn, vid, Slice(encoded), &new_tid));

  IndexWriteCtx ctx{txn->xid(), new_tid, vid, txn->clock()};
  for (auto& idx : indexes_) {
    // The old key is built only when it changed (MV-PBT posts an
    // anti-record under it); an unchanged one is passed as the new key.
    std::string new_key = idx.extractor(new_row);
    const bool same_key = idx.extractor.Matches(*old_row, Slice(new_key));
    std::string old_key = same_key ? std::string() : idx.extractor(*old_row);
    SIAS_RETURN_NOT_OK(idx.index->OnUpdate(
        ctx, Slice(same_key ? new_key : old_key), Slice(new_key)));
  }
  return Status::OK();
}

Status Table::Delete(Transaction* txn, Vid vid) {
  // Version-aware indexes need a delete record carrying the doomed row's
  // key; fetch it only when one asks. A B+-tree entry stays until a probe
  // finds its item gone for every snapshot (ResolveIndexHit).
  bool need_keys = false;
  for (auto& idx : indexes_) {
    need_keys = need_keys || idx.index->wants_delete_events();
  }
  std::optional<Row> row;
  if (need_keys) {
    SIAS_ASSIGN_OR_RETURN(row, Get(txn, vid));
    if (!row.has_value()) return Status::NotFound("no visible row");
  }
  SIAS_RETURN_NOT_OK(heap_->Delete(txn, vid));
  if (need_keys) {
    IndexWriteCtx ctx{txn->xid(), Tid{}, vid, txn->clock()};
    for (auto& idx : indexes_) {
      if (!idx.index->wants_delete_events()) continue;
      std::string key = idx.extractor(*row);
      SIAS_RETURN_NOT_OK(idx.index->OnDelete(ctx, Slice(key)));
    }
  }
  return Status::OK();
}

Result<std::optional<Row>> Table::Get(Transaction* txn, Vid vid) {
  std::string& bytes = ReadBuffer();
  SIAS_ASSIGN_OR_RETURN(bool live, heap_->Read(txn, vid, &bytes, nullptr));
  if (!live) return std::optional<Row>{};
  SIAS_ASSIGN_OR_RETURN(Row row, Row::Decode(schema_, Slice(bytes)));
  return std::optional<Row>{std::move(row)};
}

Result<std::vector<std::optional<Row>>> Table::GetMulti(
    Transaction* txn, const std::vector<Vid>& vids, size_t io_depth) {
  std::vector<std::optional<std::string>> raw;
  SIAS_RETURN_NOT_OK(heap_->ReadMulti(txn, vids, io_depth, &raw));
  std::vector<std::optional<Row>> out;
  out.reserve(raw.size());
  for (const auto& bytes : raw) {
    if (!bytes.has_value()) {
      out.emplace_back();
      continue;
    }
    SIAS_ASSIGN_OR_RETURN(Row row, Row::Decode(schema_, Slice(*bytes)));
    out.emplace_back(std::move(row));
  }
  return out;
}

Status Table::Scan(Transaction* txn, const RowCallback& cb) {
  Status decode_status;
  Status s = heap_->Scan(txn, [&](Vid vid, Slice bytes) {
    auto row = Row::Decode(schema_, bytes);
    if (!row.ok()) {
      decode_status = row.status();
      return false;
    }
    return cb(vid, *row);
  });
  SIAS_RETURN_NOT_OK(decode_status);
  return s;
}

Result<std::optional<std::pair<Vid, Row>>> Table::ResolveIndexHit(
    Transaction* txn, const IndexHit& hit, const IndexDef& index,
    std::unordered_set<Vid>* seen) {
  std::optional<std::pair<Vid, Row>> out;
  if (hit.visibility_resolved) {
    // The index already decided visibility; the heap read only
    // materializes attributes not present in the entry.
    if (!seen->insert(hit.value).second) return out;
    SIAS_ASSIGN_OR_RETURN(std::optional<Row> row, Get(txn, hit.value));
    if (row.has_value()) out.emplace(hit.value, std::move(*row));
  } else if (scheme() == VersionScheme::kSi) {
    Tid tid = Tid::Unpack(hit.value);
    Vid vid = kInvalidVid;
    SIAS_ASSIGN_OR_RETURN(std::optional<std::string> bytes,
                          heap_->ReadAtTid(txn, tid, &vid));
    if (bytes.has_value()) {
      SIAS_ASSIGN_OR_RETURN(Row row, Row::Decode(schema_, Slice(*bytes)));
      out.emplace(vid, std::move(row));
    }
  } else {
    // SIAS: value is the VID; resolve through the VidMap, then recheck the
    // key (the entry may predate a key-changing update).
    std::string& bytes = ReadBuffer();
    bool gone = false;
    SIAS_ASSIGN_OR_RETURN(bool live,
                          heap_->Read(txn, hit.value, &bytes, &gone));
    if (gone) {
      SIAS_ASSIGN_OR_RETURN(
          bool removed,
          index.index->RemoveDeadEntry(hit.key, hit.value, txn->clock()));
      if (removed) DeadEntriesRemoved()->Increment();
    }
    if (live) {
      SIAS_ASSIGN_OR_RETURN(Row row, Row::Decode(schema_, Slice(bytes)));
      if (index.extractor.Matches(row, hit.key)) {
        out.emplace(hit.value, std::move(row));
      }
    }
  }
  return out;
}

Result<std::vector<std::pair<Vid, Row>>> Table::IndexLookup(Transaction* txn,
                                                            size_t index_id,
                                                            Slice key) {
  if (index_id >= indexes_.size()) {
    return Status::InvalidArgument("no such index");
  }
  IndexDef& idx = indexes_[index_id];
  // Hit callbacks run latch-free (SecondaryIndex contract), so rows are
  // resolved inline.
  std::vector<std::pair<Vid, Row>> out;
  std::unordered_set<Vid> seen;
  Status inner;
  Status s = idx.index->Probe(
      txn->snapshot(), key, txn->clock(), [&](const IndexHit& hit) {
        auto r = ResolveIndexHit(txn, hit, idx, &seen);
        if (!r.ok()) {
          inner = r.status();
          return false;
        }
        if (r->has_value()) out.push_back(std::move(**r));
        return true;
      });
  SIAS_RETURN_NOT_OK(inner);
  SIAS_RETURN_NOT_OK(s);
  return out;
}

Status Table::IndexRange(Transaction* txn, size_t index_id, Slice lo,
                         Slice hi, const RowCallback& cb) {
  if (index_id >= indexes_.size()) {
    return Status::InvalidArgument("no such index");
  }
  IndexDef& idx = indexes_[index_id];
  std::unordered_set<Vid> seen;
  Status inner;
  Status s = idx.index->ProbeRange(
      txn->snapshot(), lo, hi, txn->clock(), [&](const IndexHit& hit) {
        auto r = ResolveIndexHit(txn, hit, idx, &seen);
        if (!r.ok()) {
          inner = r.status();
          return false;
        }
        return !r->has_value() || cb((*r)->first, (*r)->second);
      });
  SIAS_RETURN_NOT_OK(inner);
  return s;
}

Status Table::IndexOnlyRange(Transaction* txn, size_t index_id, Slice lo,
                             Slice hi, const KeyVidCallback& cb) {
  if (index_id >= indexes_.size()) {
    return Status::InvalidArgument("no such index");
  }
  IndexDef& idx = indexes_[index_id];
  std::unordered_set<Vid> seen;
  Status inner;
  Status s = idx.index->ProbeRange(
      txn->snapshot(), lo, hi, txn->clock(), [&](const IndexHit& hit) {
        if (hit.visibility_resolved) {
          // Index-covered: the verdict and both outputs come from the
          // entry; no heap page is touched.
          return cb(hit.key, hit.value);
        }
        // Candidate entry: visibility lives in the heap version chain.
        ScanHeapResolves()->Increment();
        auto r = ResolveIndexHit(txn, hit, idx, &seen);
        if (!r.ok()) {
          inner = r.status();
          return false;
        }
        return !r->has_value() || cb(hit.key, (*r)->first);
      });
  SIAS_RETURN_NOT_OK(inner);
  return s;
}

Status Table::GarbageCollect(Xid horizon, VirtualClock* clk) {
  return heap_->GarbageCollect(horizon, clk);
}

Status Table::MaintainIndexes(Xid horizon, VirtualClock* clk) {
  for (auto& idx : indexes_) {
    SIAS_RETURN_NOT_OK(idx.index->Maintain(horizon, clk));
  }
  return Status::OK();
}

Status Table::CollectBackfill(Transaction* txn,
                              const std::vector<size_t>& ids,
                              std::vector<BackfillEntry>* out) {
  // Collect entries under the scan's page latches and post afterwards:
  // index writes acquire the index latch and then page latches, so calling
  // them from inside the callback (heap page latch held) inverts that
  // order.
  Status inner;
  Status s = heap_->ScanWithTid(txn, [&](Vid vid, Tid tid, Slice bytes) {
    auto row = Row::Decode(schema_, bytes);
    if (!row.ok()) {
      inner = row.status();
      return false;
    }
    for (size_t i : ids) {
      out->push_back(BackfillEntry{i, indexes_[i].extractor(*row), tid, vid});
    }
    return true;
  });
  SIAS_RETURN_NOT_OK(inner);
  return s;
}

Status Table::RebuildIndexes(Transaction* txn, VirtualClock* clk) {
  // Used after crash recovery, under quiescence: re-create every index and
  // repopulate it from the visible version of each item. (No snapshot is
  // older than the recovery point, so visible versions are sufficient.)
  for (auto& idx : indexes_) {
    SIAS_RETURN_NOT_OK(idx.index->Create(clk));
  }
  if (indexes_.empty()) return Status::OK();
  std::vector<size_t> ids;
  for (size_t i = 0; i < indexes_.size(); ++i) ids.push_back(i);
  std::vector<BackfillEntry> entries;
  SIAS_RETURN_NOT_OK(CollectBackfill(txn, ids, &entries));
  for (const BackfillEntry& e : entries) {
    IndexWriteCtx ctx{txn->xid(), e.tid, e.vid, clk};
    SIAS_RETURN_NOT_OK(
        indexes_[e.index].index->OnInsert(ctx, Slice(e.key)));
  }
  return Status::OK();
}

Status Table::PopulateIndex(Transaction* txn, size_t index_id,
                            VirtualClock* clk) {
  if (index_id >= indexes_.size()) {
    return Status::InvalidArgument("no such index");
  }
  std::vector<BackfillEntry> entries;
  SIAS_RETURN_NOT_OK(CollectBackfill(txn, {index_id}, &entries));
  for (const BackfillEntry& e : entries) {
    IndexWriteCtx ctx{txn->xid(), e.tid, e.vid, clk};
    SIAS_RETURN_NOT_OK(
        indexes_[e.index].index->OnInsert(ctx, Slice(e.key)));
  }
  return Status::OK();
}

}  // namespace sias
