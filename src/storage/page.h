// 8 KB database page with a PostgreSQL-style slotted layout.
//
// Layout:
//   [PageHeader (32 B)] [slot array ->] ... free ... [<- tuple space]
//
// Slots grow upward from the header; tuple bodies grow downward from the end
// of the page. A slot stores (offset, length); length 0 marks a dead slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "common/analysis_annotations.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace sias {

/// On-page header, exactly 32 bytes at offset 0.
struct PageHeader {
  uint32_t checksum;    ///< masked CRC32C of the page (checksum field zeroed)
  uint32_t relation;    ///< owning relation (sanity check on read)
  uint32_t page_no;     ///< page number within the relation
  uint32_t flags;       ///< PageFlags
  uint64_t lsn;         ///< WAL LSN of the last change (WAL-before-data rule)
  uint16_t lower;       ///< byte offset of the end of the slot array
  uint16_t upper;       ///< byte offset of the start of used tuple space
  uint16_t slot_count;  ///< number of slots (live + dead)
  uint16_t reserved;
};
static_assert(sizeof(PageHeader) == 32);

enum PageFlags : uint32_t {
  kPageFlagNone = 0,
  /// Page belongs to a SIAS append region: immutable once flushed.
  kPageFlagAppendRegion = 1u << 0,
};

/// A view over one 8 KB page buffer providing slotted-tuple operations.
/// SlottedPage does not own the buffer; the buffer pool does.
class SlottedPage {
 public:
  static constexpr size_t kHeaderSize = sizeof(PageHeader);
  static constexpr size_t kSlotSize = 4;
  static constexpr uint16_t kInvalidSlot = 0xffff;

  explicit SlottedPage(uint8_t* data) : data_(data) {}

  /// Formats a fresh page.
  void Init(RelationId relation, PageNumber page_no, uint32_t flags = 0);

  PageHeader* header() { return reinterpret_cast<PageHeader*>(data_); }
  const PageHeader* header() const {
    return reinterpret_cast<const PageHeader*>(data_);
  }
  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }

  uint16_t slot_count() const { return header()->slot_count; }

  /// Contiguous free space available for one more tuple (incl. its slot).
  size_t FreeSpace() const;

  /// Fraction of the tuple space in use: the "filling degree" the paper's
  /// flush thresholds are defined over (§5.2).
  SIAS_DEAD_API_OK("storage_test checks the filling degree");
  double FillFraction() const;

  /// Appends a tuple; returns its slot or kInvalidSlot when full.
  ///
  /// Publication order (the latch-free read protocol depends on it): tuple
  /// bytes and the slot entry are written first, then `slot_count` is
  /// release-stored. A reader that admits slot s via slot_count_acquire()
  /// therefore sees the complete slot entry and tuple image. Tuple starts
  /// are 8-byte aligned so the version header's pred word can be accessed
  /// with std::atomic_ref.
  uint16_t InsertTuple(Slice tuple);

  /// Returns the tuple bytes at `slot` (empty Slice for dead slot).
  Slice GetTuple(uint16_t slot) const;

  /// slot_count with acquire ordering: the admission check of the
  /// latch-free read path (pairs with InsertTuple's release publish).
  uint16_t slot_count_acquire() const {
    return std::atomic_ref<uint16_t>(
               const_cast<PageHeader*>(header())->slot_count)
        .load(std::memory_order_acquire);
  }

  /// GetTuple for latch-free readers: slot admission and the (offset, len)
  /// slot entry are read with atomic acquire loads, so a concurrent append
  /// (publishing a later slot) or a concurrent GC slot-kill can never hand
  /// back a torn entry. The caller must hold a validated frame pin, a page
  /// latch, or an epoch over a buffer from BufferPool::PeekResident, so the
  /// underlying buffer is not concurrently reused.
  Slice GetTupleAtomic(uint16_t slot) const;

  /// Marks a slot dead (used by vacuum / garbage collection). The slot
  /// entry is killed with one atomic 32-bit store so latch-free readers
  /// observe either the live entry or the dead one, never a torn mix.
  Status DeleteTuple(uint16_t slot);

  /// Compacts tuple space, squeezing out dead tuples; slots of live tuples
  /// keep their numbers (TIDs remain stable).
  void Compact();

  /// Checksums (to be called right before the page goes to the device).
  void UpdateChecksum();
  bool VerifyChecksum() const;

 private:
  /// Masked CRC32C of the page with the checksum field taken as zero.
  uint32_t ComputeChecksum() const;

  uint16_t SlotOffset(uint16_t slot) const {
    return static_cast<uint16_t>(kHeaderSize + slot * kSlotSize);
  }
  void ReadSlot(uint16_t slot, uint16_t* offset, uint16_t* len) const {
    *offset = DecodeFixed16(data_ + SlotOffset(slot));
    *len = DecodeFixed16(data_ + SlotOffset(slot) + 2);
  }
  void WriteSlot(uint16_t slot, uint16_t offset, uint16_t len) {
    EncodeFixed16(data_ + SlotOffset(slot), offset);
    EncodeFixed16(data_ + SlotOffset(slot) + 2, len);
  }

  uint8_t* data_;
};

}  // namespace sias
