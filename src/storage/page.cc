#include "storage/page.h"

#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace sias {

void SlottedPage::Init(RelationId relation, PageNumber page_no,
                       uint32_t flags) {
  memset(data_, 0, kPageSize);
  PageHeader* h = header();
  h->relation = relation;
  h->page_no = page_no;
  h->flags = flags;
  h->lsn = kInvalidLsn;
  h->lower = static_cast<uint16_t>(kHeaderSize);
  h->upper = static_cast<uint16_t>(kPageSize);
  h->slot_count = 0;
}

size_t SlottedPage::FreeSpace() const {
  // Conservative: one slot entry plus up to 7 bytes lost to the 8-byte
  // tuple alignment InsertTuple applies (see header comment there).
  const PageHeader* h = header();
  size_t gap = h->upper - h->lower;
  constexpr size_t kReserve = kSlotSize + 7;
  return gap >= kReserve ? gap - kReserve : 0;
}

double SlottedPage::FillFraction() const {
  const PageHeader* h = header();
  size_t usable = kPageSize - kHeaderSize;
  size_t used = (h->lower - kHeaderSize) + (kPageSize - h->upper);
  return static_cast<double>(used) / static_cast<double>(usable);
}

uint16_t SlottedPage::InsertTuple(Slice tuple) {
  PageHeader* h = header();
  if (tuple.size() > FreeSpace() || tuple.size() > 0xffff) {
    return kInvalidSlot;
  }
  uint16_t slot = h->slot_count;
  // 8-byte-aligned tuple start (atomic_ref on the version header's pred
  // word needs natural alignment; FreeSpace reserves the padding, and the
  // rounding is deterministic so WAL redo reproduces identical layouts).
  uint16_t new_upper =
      static_cast<uint16_t>((h->upper - tuple.size()) & ~size_t{7});
  memcpy(data_ + new_upper, tuple.data(), tuple.size());
  WriteSlot(slot, new_upper, static_cast<uint16_t>(tuple.size()));
  h->upper = new_upper;
  h->lower = static_cast<uint16_t>(h->lower + kSlotSize);
  // Publish: pairs with slot_count_acquire() on the latch-free read path,
  // ordering the tuple bytes and the slot entry before the new count.
  std::atomic_ref<uint16_t>(h->slot_count)
      .store(static_cast<uint16_t>(slot + 1), std::memory_order_release);
  return slot;
}

Slice SlottedPage::GetTuple(uint16_t slot) const {
  if (slot >= slot_count()) return Slice();
  uint16_t offset, len;
  ReadSlot(slot, &offset, &len);
  if (len == 0) return Slice();
  return Slice(data_ + offset, len);
}

Slice SlottedPage::GetTupleAtomic(uint16_t slot) const {
  if (slot >= slot_count_acquire()) return Slice();
  uint32_t entry =
      std::atomic_ref<uint32_t>(*reinterpret_cast<uint32_t*>(
                                    const_cast<uint8_t*>(data_) +
                                    SlotOffset(slot)))
          .load(std::memory_order_acquire);
  // Slot entries are little-endian (offset, len) fixed16 pairs; decode the
  // 32-bit image the same way regardless of host order.
  uint8_t raw[4];
  memcpy(raw, &entry, sizeof(raw));
  uint16_t offset = DecodeFixed16(raw);
  uint16_t len = DecodeFixed16(raw + 2);
  if (len == 0) return Slice();
  return Slice(data_ + offset, len);
}

Status SlottedPage::DeleteTuple(uint16_t slot) {
  if (slot >= slot_count()) {
    return Status::InvalidArgument("slot out of range");
  }
  uint16_t offset, len;
  ReadSlot(slot, &offset, &len);
  if (len == 0) return Status::NotFound("dead slot");
  // One atomic store of the whole (offset, len) entry: a latch-free reader
  // sees the slot either live or dead, never half-cleared.
  std::atomic_ref<uint32_t>(
      *reinterpret_cast<uint32_t*>(data_ + SlotOffset(slot)))
      .store(0, std::memory_order_release);
  return Status::OK();
}

void SlottedPage::Compact() {
  PageHeader* h = header();
  // Collect live tuples, then rebuild the tuple space from the top.
  struct Live {
    uint16_t slot;
    std::vector<uint8_t> bytes;
  };
  std::vector<Live> live;
  for (uint16_t s = 0; s < h->slot_count; ++s) {
    uint16_t offset, len;
    ReadSlot(s, &offset, &len);
    if (len == 0) continue;
    live.push_back(Live{s, std::vector<uint8_t>(data_ + offset,
                                                data_ + offset + len)});
  }
  h->upper = static_cast<uint16_t>(kPageSize);
  for (const auto& t : live) {
    h->upper = static_cast<uint16_t>(h->upper - t.bytes.size());
    memcpy(data_ + h->upper, t.bytes.data(), t.bytes.size());
    WriteSlot(t.slot, h->upper, static_cast<uint16_t>(t.bytes.size()));
  }
}

uint32_t SlottedPage::ComputeChecksum() const {
  // The CRC of the page with its checksum field read as zero: four zero
  // bytes, then the rest of the page in place.
  static_assert(offsetof(PageHeader, checksum) == 0);
  constexpr uint8_t kZeroField[sizeof(PageHeader::checksum)] = {};
  uint32_t crc = Crc32c(kZeroField, sizeof(kZeroField));
  crc = Crc32c(data_ + sizeof(kZeroField), kPageSize - sizeof(kZeroField),
               crc);
  return MaskCrc(crc);
}

void SlottedPage::UpdateChecksum() {
  header()->checksum = ComputeChecksum();
}

bool SlottedPage::VerifyChecksum() const {
  uint32_t stored = header()->checksum;
  if (stored == 0) return true;  // never checksummed (fresh page)
  return ComputeChecksum() == stored;
}

}  // namespace sias
