#include "index/secondary_index.h"

namespace sias {

Status BTreeIndex::Probe(const Snapshot&, Slice key, VirtualClock* clk,
                         const HitCallback& cb) {
  IndexHit hit;
  hit.key = key;
  return tree_.Lookup(key, clk, [&](Slice, uint64_t v) {
    hit.value = v;
    return cb(hit);
  });
}

Status BTreeIndex::ProbeRange(const Snapshot&, Slice lo, Slice hi,
                              VirtualClock* clk, const HitCallback& cb) {
  // BTree::Range runs the callback with the tree latch released, as the
  // interface promises: callers resolve hits against the heap (page
  // latches would invert the kBTree < kPage order on re-entry) and may
  // remove dead entries.
  IndexHit hit;
  return tree_.Range(lo, hi, clk, [&](Slice k, uint64_t v) {
    hit.key = k;
    hit.value = v;
    return cb(hit);
  });
}

Result<bool> BTreeIndex::RemoveDeadEntry(Slice key, uint64_t value,
                                         VirtualClock* clk) {
  // No WAL: indexes are rebuilt from the heap on recovery (btree.h).
  Status s = tree_.Delete(key, value, clk);
  if (s.IsNotFound()) return false;  // another reader removed it first
  SIAS_RETURN_NOT_OK(s);
  return true;
}

}  // namespace sias
