// VidMap — the paper's central data structure (§4.1.2/§4.1.3).
//
// Maps each VID to the TID of the data item's *entrypoint* (newest version).
// Requirements from the paper: O(1) exact-match lookup, low memory
// footprint, fast updates, short-time latches — and the observation that
// "latching can be avoided by using atomic instructions (e.g. CAS)", which
// is exactly how this implementation updates entries.
//
// Layout follows §4.1.3: the map is an array of buckets the size of a
// database page; VIDs are dense ascending, so
//     bucket  = VID / kEntriesPerBucket        (the DIFF operation)
//     slot    = VID % kEntriesPerBucket        (the MOD operation)
// There are no overflow buckets; each VID has exactly one slot. The paper
// stores 1024 TIDs per 8 KB bucket; we match that constant (an 8-byte
// atomic slot holds the packed 48-bit TID with room to spare).
#pragma once

#include <array>
#include <atomic>

#include "common/bucket_dir.h"
#include "common/types.h"

namespace sias {

/// Entrypoint map for SIAS-Chains: one packed TID per VID.
class VidMap {
 public:
  static constexpr size_t kEntriesPerBucket = 1024;  // paper §4.1.2 (iv)
  /// Slot value meaning "no entrypoint".
  static constexpr uint64_t kEmpty = ~0ull;

  VidMap() = default;

  /// Assigns the next VID (dense ascending), growing the bucket array.
  Vid AllocateVid();

  /// Entrypoint of `vid`, or invalid Tid if unset / out of range.
  Tid Get(Vid vid) const;

  /// Unconditional store (bootstrap, recovery).
  void Set(Vid vid, Tid tid);

  /// Atomic entrypoint swing: succeeds iff the slot still holds `expected`.
  /// This is the lock-free update path the paper suggests instead of
  /// latching the slot.
  bool CompareAndSet(Vid vid, Tid expected, Tid desired);

  /// Clears the slot (GC of fully-dead items).
  void Clear(Vid vid);

  /// One past the largest allocated VID.
  Vid bound() const { return next_vid_.load(std::memory_order_acquire); }

  /// Number of allocated buckets (the paper allocates one per 1024 VIDs).
  size_t bucket_count() const;

  /// Approximate resident bytes (footprint metric).
  size_t memory_bytes() const { return bucket_count() * kPageSize; }

 private:
  struct Bucket {
    Bucket() {
      for (auto& s : slots) s.store(kEmpty, std::memory_order_relaxed);
    }
    std::array<std::atomic<uint64_t>, kEntriesPerBucket> slots;
  };

  const Bucket* BucketFor(Vid vid) const;
  Bucket* EnsureBucket(Vid vid);

  BucketDirectory<Bucket> dir_;
  std::atomic<Vid> next_vid_{0};
};

}  // namespace sias
