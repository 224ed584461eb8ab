#include "core/vid_map_v.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/logging.h"
#include "mvcc/epoch.h"
#include "mvcc/mvcc_counters.h"

namespace sias {

VidMapV::~VidMapV() {
  // The owning table Quiesces the epoch queue before members are
  // destroyed, so every retired vector is already freed; only the
  // currently published ones remain.
  Vid n = bound();
  for (Vid v = 0; v < n; ++v) {
    const Bucket* b = BucketFor(v);
    if (b == nullptr) continue;
    delete b->entries[v % kEntriesPerBucket].load(
        std::memory_order_relaxed);
  }
}

VidMapV::Bucket* VidMapV::EnsureBucket(Vid vid) {
  return dir_.Ensure(static_cast<size_t>(vid / kEntriesPerBucket));
}

const VidMapV::Bucket* VidMapV::BucketFor(Vid vid) const {
  return dir_.Lookup(static_cast<size_t>(vid / kEntriesPerBucket));
}

const std::atomic<const VidMapV::VersionVector*>* VidMapV::SlotFor(
    Vid vid) const {
  const Bucket* b = BucketFor(vid);
  if (b == nullptr) return nullptr;
  return &b->entries[vid % kEntriesPerBucket];
}

std::atomic<const VidMapV::VersionVector*>* VidMapV::SlotForMutable(
    Vid vid) {
  Bucket* b = EnsureBucket(vid);
  return &b->entries[vid % kEntriesPerBucket];
}

bool VidMapV::Install(std::atomic<const VersionVector*>* slot,
                      const VersionVector* cur, const VersionVector* next) {
  const VersionVector* expected = cur;
  if (!slot->compare_exchange_strong(expected, next,
                                     std::memory_order_seq_cst)) {
    delete next;  // never published
    return false;
  }
  if (cur != nullptr) {
    // A pinned reader may still hold `cur`; the epoch queue frees it once
    // every epoch active now has exited.
    EpochManager::Global().Retire([cur] { delete cur; });
  }
  return true;
}

Vid VidMapV::AllocateVid() {
  Vid vid = next_vid_.fetch_add(1, std::memory_order_acq_rel);
  EnsureBucket(vid);
  MvccObs().vids_allocated->Increment();
  return vid;
}

std::vector<Tid> VidMapV::Get(Vid vid) const {
  const auto* slot = SlotFor(vid);
  if (slot == nullptr) return {};
  const VersionVector* vec = slot->load(std::memory_order_seq_cst);
  return vec == nullptr ? VersionVector{} : *vec;
}

std::span<const Tid> VidMapV::Versions(Vid vid) const {
  const auto* slot = SlotFor(vid);
  if (slot == nullptr) return {};
  const VersionVector* vec = slot->load(std::memory_order_seq_cst);
  if (vec == nullptr) return {};
  return std::span<const Tid>(vec->data(), vec->size());
}

Tid VidMapV::Entrypoint(Vid vid) const {
  const auto* slot = SlotFor(vid);
  if (slot == nullptr) return kInvalidTid;
  const VersionVector* vec = slot->load(std::memory_order_seq_cst);
  return (vec == nullptr || vec->empty()) ? kInvalidTid : vec->front();
}

bool VidMapV::PushFront(Vid vid, Tid expected_front, Tid tid, bool trim) {
  auto* slot = SlotForMutable(vid);
  const VersionVector* cur = slot->load(std::memory_order_seq_cst);
  Tid front = (cur == nullptr || cur->empty()) ? kInvalidTid : cur->front();
  if (front != expected_front) return false;
  // `cur` is retired by Install and this thread holds no epoch pin, so
  // everything read from it is read before the install.
  size_t size = cur == nullptr ? 0 : cur->size();
  size_t kept = trim ? std::min<size_t>(size, 1) : size;  // {tid, front}
  auto* next = new VersionVector();
  next->reserve(kept + 1);
  next->push_back(tid);
  if (kept > 0) {
    next->insert(next->end(), cur->begin(),
                 cur->begin() + static_cast<std::ptrdiff_t>(kept));
  }
  if (!Install(slot, cur, next)) return false;
  MvccObs().entry_updates->Increment();
  if (size > kept) {
    MvccObs().versions_trimmed->Add(static_cast<int64_t>(size - kept));
  }
  return true;
}

bool VidMapV::PopFrontIf(Vid vid, Tid tid) {
  auto* slot = SlotForMutable(vid);
  const VersionVector* cur = slot->load(std::memory_order_seq_cst);
  if (cur == nullptr || cur->empty() || cur->front() != tid) return false;
  const VersionVector* next =
      cur->size() == 1
          ? nullptr
          : new VersionVector(cur->begin() + 1, cur->end());
  if (!Install(slot, cur, next)) return false;
  MvccObs().entry_updates->Increment();
  return true;
}

void VidMapV::Set(Vid vid, std::vector<Tid> versions) {
  auto* slot = SlotForMutable(vid);
  const VersionVector* cur = slot->load(std::memory_order_seq_cst);
  const VersionVector* next =
      versions.empty() ? nullptr : new VersionVector(std::move(versions));
  // Recovery and GC republishes are serialized per VID; Install cannot
  // fail against a concurrent mutator, only assert that it did not.
  bool ok = Install(slot, cur, next);
  SIAS_CHECK(ok);
  bool cleared = cur != nullptr && next == nullptr;
  (cleared ? MvccObs().entry_clears : MvccObs().entry_updates)->Increment();
  Vid bump = next_vid_.load(std::memory_order_relaxed);
  while (bump <= vid && !next_vid_.compare_exchange_weak(
                            bump, vid + 1, std::memory_order_acq_rel)) {
  }
}

Vid VidMapV::bound() const {
  return next_vid_.load(std::memory_order_acquire);
}

size_t VidMapV::bucket_count() const { return dir_.count(); }

size_t VidMapV::memory_bytes() const {
  EpochGuard pin;  // walking every published vector
  size_t bytes = bucket_count() * sizeof(Bucket);
  Vid n = bound();
  for (Vid v = 0; v < n; ++v) {
    const auto* slot = SlotFor(v);
    if (slot == nullptr) continue;
    const VersionVector* vec = slot->load(std::memory_order_seq_cst);
    if (vec != nullptr) {
      bytes += sizeof(VersionVector) + vec->capacity() * sizeof(Tid);
    }
  }
  return bytes;
}

}  // namespace sias
