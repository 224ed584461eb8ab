// Write-ahead log: append-only record stream with CRC-framed records,
// group-committed flushing that writes each 512-byte sector once (only the
// sector a flush ended inside is written again), and sequential read-back
// for redo recovery.
//
// The paper (§6 Recovery) notes that SIAS does not impinge on the WAL-based
// recovery of the MV-DBMS: the flush threshold only delays *data* pages; the
// log is flushed at commit as usual. This module serves both SI and SIAS
// tables identically.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/latch.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "device/device.h"
#include "obs/metrics.h"

namespace sias {

enum class WalRecordType : uint8_t {
  kTxnCommit = 1,
  kTxnAbort = 2,
  /// A tuple version placed at `tid` of `relation` (insert or new version of
  /// an update; the tuple header inside `body` carries xmin/VID/pointer).
  kHeapInsert = 3,
  /// Header rewrite of the tuple at `tid` (SI xmax stamp, SIAS-Chains GC
  /// pred fix); `body` holds the rewritten 32-byte tuple header.
  kHeapOverwrite = 4,
  /// GC slot kills on page `tid.page`; `body` lists the slots, fixed16 each.
  kHeapSlotDelete = 5,
  /// Checkpoint: body holds the engine metadata snapshot.
  kCheckpoint = 6,
  /// Index insert: body = key bytes, value in tid/aux.
  kIndexInsert = 7,
  /// Full page image, logged right before a data-page write hits the
  /// device (torn-page protection). `relation`/`tid.page` name the page and
  /// `body` holds its complete 8 KB image. Because WAL-before-data flushes
  /// the log through this record before the page write is issued, every
  /// torn in-place write is covered by a durable image in the redo window.
  kPageImage = 8,
};

/// One logical WAL record.
struct WalRecord {
  WalRecordType type;
  Xid xid = kInvalidXid;
  RelationId relation = kInvalidRelation;
  Tid tid{};
  uint64_t aux = 0;  ///< type-specific (e.g. VID)
  std::string body;
};

/// Appends records to an in-memory tail and flushes to a device the 512-byte
/// sectors it does not hold yet: a flush starts at the first sector the
/// device does not hold in full and ends at the sector holding its lsn, in
/// pieces of at most one 8 KB block. LSN = byte offset of the record start + record size,
/// i.e. the LSN returned by Append is the position *after* the record
/// (flush-to-LSN makes the record durable).
class WalWriter {
 public:
  /// Log occupies `[base_offset, base_offset + limit_bytes)` on `device`.
  WalWriter(StorageDevice* device, uint64_t base_offset, uint64_t limit_bytes);

  /// Appends a record; returns its end LSN. Thread-safe.
  Result<Lsn> Append(const WalRecord& record);

  /// Positions the writer at `lsn` (the end of the valid log found by
  /// recovery) so new records extend the existing stream instead of
  /// overwriting it. Re-reads the frontier block from the device and keeps
  /// its bytes from the frontier's sector start as the tail, then
  /// zeroes any stale blocks from a longer previous log generation beyond
  /// the frontier and syncs. That restores the invariant WalReader's
  /// corruption detection depends on: past the valid tail the region is
  /// zeros, so any intact record found after damage proves the damage sits
  /// *inside* the durable log (see Next()).
  Status Resume(Lsn lsn);

  /// Makes the log durable up to `lsn` (group commit: a single flush covers
  /// every record appended before it). Charges `clk` for the device writes.
  /// Appends from other threads proceed while the sectors are written; a
  /// concurrent FlushTo waits, then returns at once if this flush covered
  /// its lsn. A flush writes through the end of `lsn`'s sector, so the
  /// bytes appended before it up to there are durable too.
  Status FlushTo(Lsn lsn, VirtualClock* clk);

  /// The logical end of the log: every byte appended so far.
  Lsn current_lsn() const;
  SIAS_DEAD_API_OK("wal_test checks the durable end after a flush");
  Lsn flushed_lsn() const;

 private:
  StorageDevice* device_;
  uint64_t base_;
  uint64_t limit_;

  /// Rank kWalFlush: serializes flushers (and Resume). Held across the
  /// device write and sync; appends never take it, so they do not wait on
  /// the log device. Nested inside the pool mutex (WAL-before-data hook).
  Mutex flush_mu_{LatchRank::kWalFlush};
  /// FlushTo's snapshot of the sectors it writes, reused across flushes.
  std::vector<uint8_t> stage_ SIAS_GUARDED_BY(flush_mu_);

  /// Rank kWal: nested inside page latches (appends under an exclusive
  /// page latch), the pool mutex (full-page images) and flush_mu_. Held
  /// only for the append itself and for a flush's snapshot and publish.
  mutable Mutex mu_{LatchRank::kWal};
  /// Logical byte position of the next record.
  Lsn next_lsn_ SIAS_GUARDED_BY(mu_) = 0;
  /// End of the bytes the last flush made durable: the end of its
  /// snapshot, which can lie past the lsn it was asked for.
  Lsn flushed_lsn_ SIAS_GUARDED_BY(mu_) = 0;
  /// Bytes in [tail_start_, next_lsn_): the last sector a flush ended
  /// inside (its head is on the device already) and every byte after it.
  std::vector<uint8_t> tail_ SIAS_GUARDED_BY(mu_);
  /// Logical offset of tail_[0]; always sector-aligned.
  Lsn tail_start_ SIAS_GUARDED_BY(mu_) = 0;

  obs::Counter* m_records_;
  obs::Counter* m_appended_bytes_;
  obs::Counter* m_flushes_;
  obs::Counter* m_written_bytes_;
  obs::HistogramMetric* m_flush_latency_;
  /// Group-commit role split: a FlushTo that writes sectors led the group; one
  /// that finds its lsn already durable rode a leader's flush.
  obs::Counter* m_gc_leader_;
  obs::Counter* m_gc_follower_;
};

/// Sequential reader over the log region. A parse or CRC failure is
/// classified before the reader gives up: a benign torn tail (the crash cut
/// the log mid-record; nothing valid follows) ends iteration quietly, while
/// damage *before* the last durable record — bit rot, a skipped block —
/// surfaces as kCorruption so recovery fails loudly instead of silently
/// truncating committed history.
class WalReader {
 public:
  WalReader(StorageDevice* device, uint64_t base_offset, uint64_t limit_bytes,
            Lsn start_lsn = 0);

  /// Returns the next record, std::nullopt at end-of-log (region end or a
  /// benign torn tail), or kCorruption when intact records exist beyond the
  /// first damaged one.
  Result<std::optional<WalRecord>> Next();

  /// LSN after the last successfully read record.
  Lsn lsn() const { return lsn_; }

 private:
  Status Refill(size_t need);

  /// Called when the record at lsn_ fails to parse or CRC-check: scans the
  /// look-ahead window for any intact record. One found → the damage is
  /// mid-log → kCorruption; none → benign torn tail → nullopt.
  Result<std::optional<WalRecord>> StopAtDamage(const char* why);

  StorageDevice* device_;
  uint64_t base_;
  uint64_t limit_;
  Lsn lsn_;
  std::vector<uint8_t> buf_;
  Lsn buf_start_ = 0;
};

/// Encodes `record` into `out` (exposed for tests).
void EncodeWalRecord(const WalRecord& record, std::string* out);

}  // namespace sias
