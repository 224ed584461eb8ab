// Transaction snapshots for Snapshot Isolation.
//
// A snapshot captures which transactions were concurrent with (or later
// than) the owner at start time. The paper's visibility rule (Algorithm 1,
// line 19):   visible(Xv)  :=  Xv.create <= tx_id  AND
//                              Xv.create NOT IN tx_concurrent
// together with "the transaction committed" is expressed here in the
// PostgreSQL formulation: an xid is in-snapshot iff it is below the
// snapshot horizon, not in the concurrent set, and committed in the clog.
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.h"
#include "txn/clog.h"

namespace sias {

/// Immutable view of the transaction landscape at snapshot time.
struct Snapshot {
  /// Owner: its own writes are always visible. kInvalidXid until the owner's
  /// first write, and for good in a read-only transaction.
  Xid xid = kInvalidXid;
  Xid xmax = kInvalidXid; ///< first xid NOT visible (next to be assigned)
  std::vector<Xid> concurrent;  ///< sorted: in-progress xids at start

  /// True if `other`'s effects are contained in this snapshot provided the
  /// clog reports it committed.
  bool Contains(Xid other) const {
    // kInvalidXid first: an owner without an xid must not claim xid 0.
    if (other == kInvalidXid) return false;
    if (other == xid) return true;        // own writes
    if (other == kFrozenXid) return true; // bootstrap data
    if (other >= xmax) return false;      // started after us
    return !std::binary_search(concurrent.begin(), concurrent.end(), other);
  }

  /// Full visibility-of-creator check: in-snapshot AND committed.
  /// (Own in-progress writes are visible to self.)
  bool CreatorVisible(Xid creator, const Clog& clog) const {
    if (!Contains(creator)) return false;
    return creator == xid || clog.IsCommitted(creator);
  }
};

}  // namespace sias
