// On-tuple version header shared by all version schemes (paper §4.1.1).
//
// Every tuple version stored in a heap page is framed as:
//   [TupleHeader (32 B)] [row payload bytes]
//
// SI uses xmin + xmax (in-place invalidation). SIAS uses xmin + VID +
// predecessor pointer and keeps xmax permanently unset: "There is explicitly
// no invalidation information stored on each tuple version" — invalidation
// is coded by the chain structure. Every scheme records the predecessor:
// SIAS-Chains reads through it; SI and SIAS-V keep it so that recovery can
// order one transaction's versions of an item (mvcc/heap_pages.h).
#pragma once

#include <atomic>
#include <cstring>
#include <string>

#include "common/analysis_annotations.h"
#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace sias {

enum TupleFlags : uint16_t {
  kTupleFlagNone = 0,
  /// Deletion tombstone (paper §4.2.2): the data item is deleted as of the
  /// creating transaction; older versions stay reachable for old snapshots.
  kTupleFlagTombstone = 1u << 0,
};

/// Fixed-size tuple version header.
struct TupleHeader {
  Xid xmin = kInvalidXid;   ///< creation timestamp (inserting txn)
  Xid xmax = kInvalidXid;   ///< SI only: invalidation timestamp; 0 = live
  Vid vid = kInvalidVid;    ///< data-item id, equal across all versions
  PageNumber pred_page = kInvalidPageNumber;  ///< *ptr to predecessor
  uint16_t pred_slot = 0;
  uint16_t flags = 0;

  Tid pred() const { return Tid{pred_page, pred_slot}; }
  void set_pred(Tid t) {
    pred_page = t.page;
    pred_slot = t.slot;
  }
  bool is_tombstone() const { return flags & kTupleFlagTombstone; }
};

inline constexpr size_t kTupleHeaderSize = 8 + 8 + 8 + 4 + 2 + 2;
static_assert(kTupleHeaderSize == 32);

/// Serializes header + payload into `out` (cleared first).
inline void EncodeTuple(const TupleHeader& h, Slice payload,
                        std::string* out) {
  out->clear();
  out->reserve(kTupleHeaderSize + payload.size());
  PutFixed64(out, h.xmin);
  PutFixed64(out, h.xmax);
  PutFixed64(out, h.vid);
  PutFixed32(out, h.pred_page);
  PutFixed16(out, h.pred_slot);
  PutFixed16(out, h.flags);
  out->append(reinterpret_cast<const char*>(payload.data()), payload.size());
}

/// Parses the header of an encoded tuple; returns false if too short.
inline bool DecodeTupleHeader(Slice tuple, TupleHeader* h) {
  if (tuple.size() < kTupleHeaderSize) return false;
  const uint8_t* p = tuple.data();
  h->xmin = DecodeFixed64(p);
  h->xmax = DecodeFixed64(p + 8);
  h->vid = DecodeFixed64(p + 16);
  h->pred_page = DecodeFixed32(p + 24);
  h->pred_slot = DecodeFixed16(p + 28);
  h->flags = DecodeFixed16(p + 30);
  return true;
}

/// Row payload of an encoded tuple. The slice aliases page bytes whose
/// reclamation is epoch-deferred (slot kills, frame recycling):
/// sias-epoch-escape requires it to stay within the guard/pin scope —
/// copy the bytes out, never store the slice itself.
SIAS_EPOCH_PROTECTED
inline Slice TuplePayload(Slice tuple) {
  return Slice(tuple.data() + kTupleHeaderSize,
               tuple.size() - kTupleHeaderSize);
}

// -- Latch-free header access (SIAS read path) ------------------------------
// SIAS version headers are immutable after publication except for the
// final 8 bytes — (pred_page, pred_slot, flags) — which chain GC rewrites
// when it relocates a predecessor. That word is therefore accessed as one
// aligned 64-bit atomic on both sides: GC swings it with a single store,
// and latch-free traversal loads it without ever seeing a torn pointer.
// Tuple starts are 8-byte aligned by SlottedPage::InsertTuple, so the word
// at offset 24 has natural alignment.

/// Packs (pred_page, pred_slot, flags) into the header's trailing word,
/// byte-identical to what EncodeTuple wrote there.
inline uint64_t PackPredWord(PageNumber pred_page, uint16_t pred_slot,
                             uint16_t flags) {
  uint8_t raw[8];
  EncodeFixed32(raw, pred_page);
  EncodeFixed16(raw + 4, pred_slot);
  EncodeFixed16(raw + 6, flags);
  uint64_t w;
  memcpy(&w, raw, sizeof(w));
  return w;
}

/// Atomically redirects a published header's predecessor pointer (flags
/// are preserved by the caller passing them back in). Used by chain GC
/// under the exclusive page latch; readers use DecodeTupleHeaderAtomic.
inline void OverwritePredWord(uint8_t* tuple_bytes, PageNumber pred_page,
                              uint16_t pred_slot, uint16_t flags) {
  std::atomic_ref<uint64_t>(
      *reinterpret_cast<uint64_t*>(tuple_bytes + 24))
      .store(PackPredWord(pred_page, pred_slot, flags),
             std::memory_order_seq_cst);
}

/// DecodeTupleHeader for latch-free readers: xmin/xmax/vid are immutable
/// after the slot publishes (plain loads ordered by the slot-count
/// acquire), while the mutable pred word is read with one atomic load.
inline bool DecodeTupleHeaderAtomic(Slice tuple, TupleHeader* h) {
  if (tuple.size() < kTupleHeaderSize) return false;
  const uint8_t* p = tuple.data();
  h->xmin = DecodeFixed64(p);
  h->xmax = DecodeFixed64(p + 8);
  h->vid = DecodeFixed64(p + 16);
  uint64_t w = std::atomic_ref<uint64_t>(
                   *reinterpret_cast<uint64_t*>(
                       const_cast<uint8_t*>(p) + 24))
                   .load(std::memory_order_seq_cst);
  uint8_t raw[8];
  memcpy(raw, &w, sizeof(raw));
  h->pred_page = DecodeFixed32(raw);
  h->pred_slot = DecodeFixed16(raw + 4);
  h->flags = DecodeFixed16(raw + 6);
  return true;
}

}  // namespace sias
