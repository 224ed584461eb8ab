#include "wal/wal.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "fault/crash_point.h"
#include "fault/debug_ring.h"
#include "fault/retry.h"
#include "obs/span.h"

namespace sias {

namespace {
// Record frame: [total_len u32][crc u32][type u8][xid u64][relation u32]
//               [page u32][slot u16][aux u64][body ...]
constexpr size_t kFrameHeader = 4 + 4;
constexpr size_t kFixedFields = 1 + 8 + 4 + 4 + 2 + 8;

/// How far past a damaged record the reader searches for intact records
/// before declaring the damage a benign torn tail. Any mid-log damage is
/// followed immediately by the rest of the durable log, so a modest window
/// suffices; it only bounds the cost of the (rare) failure path.
constexpr size_t kCorruptionLookahead = 256 * 1024;

/// Stale-block sweep in Resume(): stop zeroing after this many consecutive
/// all-zero blocks. One interior block of a giant record body could be all
/// zeros; two in a row cannot (bodies are at most a page).
constexpr int kZeroRunStop = 2;

/// The log device's I/O unit (StorageDevice::CheckRange): a flush writes
/// whole sectors, starting at the first one the device does not hold yet.
constexpr Lsn kSectorSize = 512;
}  // namespace

void EncodeWalRecord(const WalRecord& record, std::string* out) {
  // The frame is written straight into `out`; the CRC field is patched once
  // the payload after it is in place.
  const size_t start = out->size();
  const size_t total = kFrameHeader + kFixedFields + record.body.size();
  out->reserve(start + total);
  PutFixed32(out, static_cast<uint32_t>(total));
  PutFixed32(out, 0);
  out->push_back(static_cast<char>(record.type));
  PutFixed64(out, record.xid);
  PutFixed32(out, record.relation);
  PutFixed32(out, record.tid.page);
  PutFixed16(out, record.tid.slot);
  PutFixed64(out, record.aux);
  *out += record.body;
  uint8_t* frame = reinterpret_cast<uint8_t*>(out->data()) + start;
  EncodeFixed32(frame + 4, MaskCrc(Crc32c(frame + kFrameHeader,
                                          total - kFrameHeader)));
}

WalWriter::WalWriter(StorageDevice* device, uint64_t base_offset,
                     uint64_t limit_bytes)
    : device_(device), base_(base_offset), limit_(limit_bytes) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  m_records_ = reg.GetCounter("wal.records");
  m_appended_bytes_ = reg.GetCounter("wal.appended_bytes");
  m_flushes_ = reg.GetCounter("wal.flushes");
  m_written_bytes_ = reg.GetCounter("wal.written_bytes");
  m_flush_latency_ = reg.GetHistogram("wal.flush_latency");
  m_gc_leader_ = reg.GetCounter("wal.group_commit.leader");
  m_gc_follower_ = reg.GetCounter("wal.group_commit.follower");
}

Result<Lsn> WalWriter::Append(const WalRecord& record) {
  std::string encoded;
  EncodeWalRecord(record, &encoded);
  MutexLock g(&mu_);
  if (next_lsn_ + encoded.size() > limit_) {
    return Status::OutOfSpace("WAL region full");
  }
  tail_.insert(tail_.end(), encoded.begin(), encoded.end());
  next_lsn_ += encoded.size();
  m_records_->Increment();
  m_appended_bytes_->Add(static_cast<int64_t>(encoded.size()));
  return next_lsn_;
}

Status WalWriter::Resume(Lsn lsn) {
  MutexLock flusher(&flush_mu_);
  MutexLock g(&mu_);
  const Lsn block_start = lsn / kPageSize * kPageSize;
  const Lsn sector_start = lsn / kSectorSize * kSectorSize;
  std::vector<uint8_t> block(kPageSize, 0);
  if (lsn > block_start) {
    SIAS_RETURN_NOT_OK(
        device_->Read(base_ + block_start, kPageSize, block.data(), nullptr));
    // Truncate on disk too: stale record bytes of a previous generation may
    // sit between `lsn` and the block end, fully inside this block.
    std::fill(block.begin() + static_cast<size_t>(lsn - block_start),
              block.end(), 0);
    SIAS_RETURN_NOT_OK(
        device_->Write(base_ + block_start, kPageSize, block.data(), nullptr));
  }
  // Keep only the frontier's sector: the next flush rewrites it with the
  // records appended after `lsn`, and the sectors before it stay as they are.
  tail_.assign(block.begin() + static_cast<size_t>(sector_start - block_start),
               block.begin() + static_cast<size_t>(lsn - block_start));
  tail_start_ = sector_start;
  next_lsn_ = lsn;
  flushed_lsn_ = lsn;
  // Zero stale blocks beyond the frontier: if a previous, longer log
  // generation wrote past `lsn`, its leftover records would later look like
  // "intact records past the damage" to WalReader's corruption check. The
  // sweep stops at the first run of all-zero blocks (nothing staler
  // follows, by this same invariant) and the writes are synced so a power
  // cut cannot resurrect the stale bytes. Recovery-time I/O, so no clock.
  Lsn sweep = (lsn + kPageSize - 1) / kPageSize * kPageSize;
  const std::vector<uint8_t> zeros(kPageSize, 0);
  int zero_run = 0;
  for (; sweep + kPageSize <= limit_ && zero_run < kZeroRunStop;
       sweep += kPageSize) {
    SIAS_RETURN_NOT_OK(
        device_->Read(base_ + sweep, kPageSize, block.data(), nullptr));
    if (block == zeros) {
      zero_run++;
      continue;
    }
    zero_run = 0;
    SIAS_RETURN_NOT_OK(
        device_->Write(base_ + sweep, kPageSize, zeros.data(), nullptr));
  }
  return device_->Sync(nullptr);
}

Status WalWriter::FlushTo(Lsn lsn, VirtualClock* clk) {
  // Group-commit span: renamed leader/follower once the role is known (a
  // follower's lsn was already made durable by another terminal's flush).
  obs::SpanScope flush_span(obs::SpanPhase::kWalFlush, "wal", "flush");
  // One flusher at a time. Appends only take mu_, which is held just long
  // enough to snapshot the sectors to write and, afterwards, to publish the
  // result: the device write and the sync run without it.
  MutexLock flusher(&flush_mu_);
  Lsn write_begin = 0;
  Lsn write_end = 0;
  Lsn snapshot_end = 0;
  {
    MutexLock g(&mu_);
    if (lsn <= flushed_lsn_) {
      flush_span.set_name("flush_follower");
      m_gc_follower_->Increment();
      return Status::OK();
    }
    lsn = std::min<Lsn>(lsn, next_lsn_);
    // Write the sectors from tail_start_ (the first one the device does not
    // hold in full) up to the sector containing `lsn`.
    write_begin = tail_start_;
    write_end = (lsn + kSectorSize - 1) / kSectorSize * kSectorSize;
    SIAS_CHECK(write_begin % kSectorSize == 0);  // tail starts on a sector
    size_t n = std::min<size_t>(tail_.size(),
                                static_cast<size_t>(write_end - write_begin));
    snapshot_end = write_begin + n;
    stage_.resize(static_cast<size_t>(write_end - write_begin));
    memcpy(stage_.data(), tail_.data(), n);
  }
  // Zero-pad the partial last sector of the snapshot.
  const size_t staged = static_cast<size_t>(snapshot_end - write_begin);
  memset(stage_.data() + staged, 0, stage_.size() - staged);
  // The group-commit fsync: virtual time from here to the last piece write
  // is what a committing terminal waits on the log device.
  VTime flush_start = clk != nullptr ? clk->now() : 0;
  {
    // The device-write burst is the WAL's "fsync": the log is not durable
    // until the last piece lands. The burst is cut at block boundaries into
    // pieces of at most one block; only the first can start mid-block. It
    // is pipelined through the async submit/complete interface — all
    // pieces are submitted up front (their channel reservations overlap,
    // group commit), then waited in LSN order. Devices either execute the
    // payload during Submit or copy it, and stage_ is not touched until the
    // burst is done.
    SIAS_CRASH_POINT("wal.pre_block_write");
    // Piece p covers [edge(p), edge(p + 1)).
    const Lsn first_block = write_begin / kPageSize * kPageSize;
    const size_t npieces =
        write_end > write_begin
            ? static_cast<size_t>(
                  (write_end - first_block + kPageSize - 1) / kPageSize)
            : 0;
    auto edge = [&](size_t p) {
      return std::clamp<Lsn>(first_block + p * kPageSize, write_begin,
                             write_end);
    };
    if (npieces == 1) {
      // One-piece burst — the common small-commit case. There is nothing
      // to overlap, so the submit/complete bookkeeping (handle allocation,
      // completion-table round-trip) buys nothing: issue it synchronously.
      // This keeps the commit fast path at its pre-pipeline cost.
      SIAS_RETURN_NOT_OK(fault::RetryTransient("wal block write", clk, [&] {
        return device_->Write(base_ + write_begin, stage_.size(),
                              stage_.data(), clk);
      }));
    } else if (npieces > 1) {
      std::vector<IoHandle> handles(npieces);
      auto submit_piece = [&](size_t p) -> Result<IoHandle> {
        IoRequest req;
        req.op = IoOp::kWrite;
        req.offset = base_ + edge(p);
        req.len = static_cast<size_t>(edge(p + 1) - edge(p));
        req.data = stage_.data() + static_cast<size_t>(edge(p) - write_begin);
        return device_->Submit(req, clk != nullptr ? clk->now() : 0);
      };
      auto submit_from = [&](size_t from) -> Status {
        for (size_t p = from; p < npieces; ++p) {
          auto h = submit_piece(p);
          if (!h.ok()) {
            for (size_t c = from; c < p; ++c) device_->Cancel(handles[c], clk);
            return h.status();
          }
          handles[p] = *h;
        }
        return Status::OK();
      };
      SIAS_RETURN_NOT_OK(submit_from(0));
      for (size_t p = 0; p < npieces; ++p) {
        Status st = device_->Wait(handles[p], clk);
        if (st.IsTransientIoError()) {
          // A retried piece must not be overtaken by later pieces — the
          // volatile write-back cache is FIFO and recovery's torn-tail model
          // relies on prefix durability — so cancel the still-unwaited tail
          // (deferred requests are dropped without executing), retry this
          // piece by RESUBMISSION (fresh channel reservation per attempt),
          // then resubmit the tail in order.
          for (size_t c = p + 1; c < npieces; ++c) {
            device_->Cancel(handles[c], clk);
          }
          st = fault::RetryTransientAfterFailure(
              "wal block write", clk, std::move(st), [&]() -> Status {
                auto h = submit_piece(p);
                if (!h.ok()) return h.status();
                return device_->Wait(*h, clk);
              });
          if (st.ok() && p + 1 < npieces) {
            SIAS_RETURN_NOT_OK(submit_from(p + 1));
          }
        } else if (!st.ok()) {
          for (size_t c = p + 1; c < npieces; ++c) {
            device_->Cancel(handles[c], clk);
          }
        }
        SIAS_RETURN_NOT_OK(st);
      }
    }
  }
  // The barrier that makes the burst durable: a power cut before the Sync
  // loses (a suffix of) this flush; after it, the log is safe to `lsn`.
  SIAS_CRASH_POINT("wal.pre_fsync");
  SIAS_RETURN_NOT_OK(fault::RetryTransient(
      "wal fsync", clk, [&] { return device_->Sync(clk); }));
  SIAS_CRASH_POINT("wal.post_fsync");
  const uint64_t bytes_written = stage_.size();
  if (bytes_written > 0) {
    m_flushes_->Increment();
    m_written_bytes_->Add(static_cast<int64_t>(bytes_written));
    if (clk != nullptr) m_flush_latency_->Record(clk->now() - flush_start);
  }
  flush_span.set_name("flush_leader");
  m_gc_leader_->Increment();
  fault::DebugRingLog("wal_flush", lsn, bytes_written);
  MutexLock g(&mu_);
  // The burst made every byte up to snapshot_end durable, not only those up
  // to `lsn`: a later FlushTo inside them is a follower.
  flushed_lsn_ = snapshot_end;
  // Drop the sectors the device now holds in full; keep the last one
  // buffered if the snapshot ended inside it, so the next flush rewrites it
  // with the records appended since. The test is on the snapshot, not on
  // next_lsn_: appends that landed in that sector during the write are not
  // on the device yet.
  Lsn new_tail_start = snapshot_end < write_end ? write_end - kSectorSize
                                                : write_end;
  if (new_tail_start > tail_start_) {
    size_t drop = static_cast<size_t>(new_tail_start - tail_start_);
    tail_.erase(tail_.begin(), tail_.begin() + drop);
    tail_start_ = new_tail_start;
  }
  return Status::OK();
}

Lsn WalWriter::current_lsn() const {
  MutexLock g(&mu_);
  return next_lsn_;
}

Lsn WalWriter::flushed_lsn() const {
  MutexLock g(&mu_);
  return flushed_lsn_;
}

WalReader::WalReader(StorageDevice* device, uint64_t base_offset,
                     uint64_t limit_bytes, Lsn start_lsn)
    : device_(device), base_(base_offset), limit_(limit_bytes),
      lsn_(start_lsn) {
  buf_start_ = start_lsn;
}

Status WalReader::Refill(size_t need) {
  // Ensure buf_ holds [lsn_, lsn_ + need).
  size_t have_off = static_cast<size_t>(lsn_ - buf_start_);
  size_t have = buf_.size() > have_off ? buf_.size() - have_off : 0;
  if (have >= need) return Status::OK();
  // Read forward in 64 KB chunks.
  Lsn read_from = buf_start_ + buf_.size();
  size_t want = std::max<size_t>(need - have, 64 * 1024);
  // Align the device read.
  Lsn aligned_from = read_from / kPageSize * kPageSize;
  size_t lead = static_cast<size_t>(read_from - aligned_from);
  size_t aligned_len = (lead + want + kPageSize - 1) / kPageSize * kPageSize;
  if (base_ + aligned_from + aligned_len > base_ + limit_) {
    if (aligned_from >= limit_) return Status::OK();  // at end
    aligned_len = static_cast<size_t>(limit_ - aligned_from);
  }
  if (aligned_len == 0) return Status::OK();
  std::vector<uint8_t> chunk(aligned_len);
  SIAS_RETURN_NOT_OK(
      device_->Read(base_ + aligned_from, aligned_len, chunk.data(), nullptr));
  buf_.insert(buf_.end(), chunk.begin() + lead, chunk.end());
  return Status::OK();
}

Result<std::optional<WalRecord>> WalReader::StopAtDamage(const char* why) {
  // Pull in the look-ahead window (a short read near the region end just
  // shrinks it), then try every byte offset as a candidate record start.
  // The log region is zeros past the valid tail (WalWriter::Resume restores
  // that invariant after each recovery), so after a benign torn tail no
  // candidate can CRC-check; an intact record here means the damage sits
  // inside the durable log and redo must not silently truncate at it.
  SIAS_RETURN_NOT_OK(Refill(kCorruptionLookahead));
  size_t off = static_cast<size_t>(lsn_ - buf_start_);
  size_t end = std::min(buf_.size(), off + kCorruptionLookahead);
  for (size_t c = off + 1; c + kFrameHeader + kFixedFields <= end; ++c) {
    uint32_t total = DecodeFixed32(buf_.data() + c);
    if (total < kFrameHeader + kFixedFields || total > 1u << 24) continue;
    if (c + total > end) continue;
    uint32_t crc = DecodeFixed32(buf_.data() + c + 4);
    if (MaskCrc(Crc32c(buf_.data() + c + kFrameHeader,
                       total - kFrameHeader)) == crc) {
      return Status::Corruption(
          "WAL record at lsn " + std::to_string(lsn_) + " is damaged (" +
          why + ") but an intact record follows at lsn " +
          std::to_string(buf_start_ + c) +
          ": mid-log corruption, refusing to recover past it");
    }
  }
  return std::optional<WalRecord>{};  // torn tail: end of valid log
}

Result<std::optional<WalRecord>> WalReader::Next() {
  SIAS_RETURN_NOT_OK(Refill(kFrameHeader));
  size_t off = static_cast<size_t>(lsn_ - buf_start_);
  if (buf_.size() < off + kFrameHeader) return std::optional<WalRecord>{};
  uint32_t total = DecodeFixed32(buf_.data() + off);
  if (total < kFrameHeader + kFixedFields || total > 1u << 24) {
    return StopAtDamage("implausible length");
  }
  SIAS_RETURN_NOT_OK(Refill(total));
  off = static_cast<size_t>(lsn_ - buf_start_);
  if (buf_.size() < off + total) return StopAtDamage("truncated record");
  uint32_t crc = DecodeFixed32(buf_.data() + off + 4);
  const uint8_t* payload = buf_.data() + off + kFrameHeader;
  size_t payload_len = total - kFrameHeader;
  if (MaskCrc(Crc32c(payload, payload_len)) != crc) {
    return StopAtDamage("checksum mismatch");
  }
  WalRecord rec;
  const uint8_t* p = payload;
  rec.type = static_cast<WalRecordType>(*p);
  p += 1;
  rec.xid = DecodeFixed64(p);
  p += 8;
  rec.relation = DecodeFixed32(p);
  p += 4;
  rec.tid.page = DecodeFixed32(p);
  p += 4;
  rec.tid.slot = DecodeFixed16(p);
  p += 2;
  rec.aux = DecodeFixed64(p);
  p += 8;
  rec.body.assign(reinterpret_cast<const char*>(p),
                  payload_len - kFixedFields);
  lsn_ += total;
  // Trim consumed prefix occasionally to bound memory.
  if (lsn_ - buf_start_ > (1u << 20)) {
    size_t drop = static_cast<size_t>(lsn_ - buf_start_);
    buf_.erase(buf_.begin(), buf_.begin() + drop);
    buf_start_ = lsn_;
  }
  return std::optional<WalRecord>{std::move(rec)};
}

}  // namespace sias
