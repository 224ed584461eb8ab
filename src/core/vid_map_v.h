// VidMapV — the SIAS-V ("Vectors") variant of the VidMap, the structure the
// EDBT 2014 demo gives the system its name.
//
// Instead of storing only the entrypoint and chaining versions through an
// on-tuple predecessor pointer, each VID slot holds the *vector* of the live
// version TIDs, newest first. Version traversal is then an in-memory array
// walk (no pointer chasing through heap pages to find a predecessor's
// address). The writer that installs a version drops the tail no snapshot
// can reach (PushFront's `trim`), so without vacuum a vector holds the
// versions still needed plus at most the ones the next write drops.
//
// The map is read-copy-update: each slot is one atomic pointer to an
// immutable, heap-allocated vector. Readers load the pointer and walk the
// vector with no latch at all — the paper's "short time latch" per bucket
// is gone entirely. Writers build a fresh vector, install it with a single
// compare-and-swap, and hand the superseded vector to the epoch queue
// (src/mvcc/epoch.h), which frees it once no pinned reader can still hold
// the old pointer.
//
// Concurrency contract: callers of Get()/Versions()/Entrypoint() must
// either hold an epoch pin (the read path) or be the slot's serialized
// mutator (write/GC paths run under the row lock, which prevents the current
// pointer from being superseded-and-retired underneath them). Mutators
// never require an epoch: per-VID mutations are serialized by row locks, so
// the loaded pointer is always the live one.
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/bucket_dir.h"
#include "common/types.h"

namespace sias {

/// Version-vector map for SIAS-V. Thread-safe; latch-free readers over
/// atomically published immutable vectors (see file comment).
class VidMapV {
 public:
  static constexpr size_t kEntriesPerBucket = 1024;

  VidMapV() = default;
  ~VidMapV();

  Vid AllocateVid();

  /// The version vector of `vid`, newest first (copy; GC, tests).
  std::vector<Tid> Get(Vid vid) const;

  /// The published version vector of `vid`, newest first, in place (empty
  /// when the item has none). Published vectors are immutable, so the view
  /// stays valid and unchanged for as long as the caller's epoch pin: a
  /// write that supersedes it retires it through the epoch queue.
  SIAS_EPOCH_PROTECTED std::span<const Tid> Versions(Vid vid) const;

  /// Entrypoint = front of the vector.
  Tid Entrypoint(Vid vid) const;

  /// Pushes a new entrypoint. Returns false if `expected_front` no longer
  /// matches (concurrent update detected), mirroring VidMap::CompareAndSet.
  /// Pass invalid Tid as `expected_front` for the first version. With
  /// `trim`, the new vector is just {tid, expected_front}: the caller has
  /// established that every current and future snapshot sees
  /// `expected_front` or newer, so the older tail is dropped (counted in
  /// mvcc.vidmap.versions_trimmed).
  bool PushFront(Vid vid, Tid expected_front, Tid tid, bool trim = false);

  /// Removes the current front if it equals `tid` (abort undo).
  bool PopFrontIf(Vid vid, Tid tid);

  /// Unconditional overwrite (recovery, GC republish). An empty vector over
  /// a non-empty one drops the item's mapping: it counts in
  /// vidmap.entry_clears, as VidMap::Clear does.
  void Set(Vid vid, std::vector<Tid> versions);

  Vid bound() const;
  size_t bucket_count() const;
  size_t memory_bytes() const;

 private:
  using VersionVector = std::vector<Tid>;

  struct Bucket {
    /// nullptr = no versions. Seq_cst on both sides: the epoch
    /// reclamation proof needs unpublish stores and reader loads in one
    /// total order with the epoch counter (src/mvcc/epoch.h).
    std::atomic<const VersionVector*> entries[kEntriesPerBucket] = {};
  };

  /// Loads the slot for `vid`, or nullptr when the bucket doesn't exist.
  /// The slot (and any VersionVector pointer loaded from it) is reclaimed
  /// through the epoch queue: sias-epoch-escape forbids storing or
  /// re-returning it past the pin/serialization scope (file comment).
  SIAS_EPOCH_PROTECTED
  const std::atomic<const VersionVector*>* SlotFor(Vid vid) const;
  SIAS_EPOCH_PROTECTED
  std::atomic<const VersionVector*>* SlotForMutable(Vid vid);

  /// CAS-installs `next` (may be nullptr = empty) over `cur` and retires
  /// `cur` through the epoch queue. Returns false (and frees `next`) if
  /// the slot no longer holds `cur`.
  static bool Install(std::atomic<const VersionVector*>* slot,
                      const VersionVector* cur, const VersionVector* next);

  Bucket* EnsureBucket(Vid vid);
  const Bucket* BucketFor(Vid vid) const;

  BucketDirectory<Bucket> dir_;
  std::atomic<Vid> next_vid_{0};
};

}  // namespace sias
