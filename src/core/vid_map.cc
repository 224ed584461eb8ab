#include "core/vid_map.h"

#include <array>

#include "mvcc/mvcc_counters.h"

namespace sias {

VidMap::Bucket* VidMap::EnsureBucket(Vid vid) {
  return dir_.Ensure(static_cast<size_t>(vid / kEntriesPerBucket));
}

const VidMap::Bucket* VidMap::BucketFor(Vid vid) const {
  return dir_.Lookup(static_cast<size_t>(vid / kEntriesPerBucket));
}

Vid VidMap::AllocateVid() {
  Vid vid = next_vid_.fetch_add(1, std::memory_order_acq_rel);
  EnsureBucket(vid);
  MvccObs().vids_allocated->Increment();
  return vid;
}

Tid VidMap::Get(Vid vid) const {
  const Bucket* b = BucketFor(vid);
  if (b == nullptr) return kInvalidTid;
  uint64_t v = b->slots[vid % kEntriesPerBucket].load(std::memory_order_acquire);
  if (v == kEmpty) return kInvalidTid;
  return Tid::Unpack(v);
}

void VidMap::Set(Vid vid, Tid tid) {
  Bucket* b = EnsureBucket(vid);
  b->slots[vid % kEntriesPerBucket].store(tid.Pack(),
                                          std::memory_order_release);
  MvccObs().entry_updates->Increment();
  // Recovery may Set beyond the allocation high-water mark; keep it in sync.
  Vid cur = next_vid_.load(std::memory_order_relaxed);
  while (cur <= vid && !next_vid_.compare_exchange_weak(
                           cur, vid + 1, std::memory_order_acq_rel)) {
  }
}

bool VidMap::CompareAndSet(Vid vid, Tid expected, Tid desired) {
  Bucket* b = EnsureBucket(vid);
  uint64_t exp = expected.valid() ? expected.Pack() : kEmpty;
  uint64_t des = desired.valid() ? desired.Pack() : kEmpty;
  bool ok = b->slots[vid % kEntriesPerBucket].compare_exchange_strong(
      exp, des, std::memory_order_acq_rel);
  if (ok) MvccObs().entry_updates->Increment();
  return ok;
}

void VidMap::Clear(Vid vid) {
  Bucket* b = EnsureBucket(vid);
  b->slots[vid % kEntriesPerBucket].store(kEmpty, std::memory_order_release);
  MvccObs().entry_clears->Increment();
}

size_t VidMap::bucket_count() const { return dir_.count(); }

}  // namespace sias
