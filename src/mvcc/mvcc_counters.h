// The process-wide mvcc.* and vidmap.* registry counters, defined once for
// every scheme: SiHeap, SiasTable, VidMap and VidMapV all report into the
// same names, so bench comparisons between SI, SIAS-Chains and SIAS-V read
// one set of numbers (docs/OBSERVABILITY.md has the catalogue).
#pragma once

#include "obs/metrics.h"

namespace sias {

struct MvccCounters {
  /// Point reads (Read / ReadMulti entries); scans count none.
  obs::Counter* reads;
  /// Point reads that returned no row: unknown VID, no visible version, or
  /// a visible tombstone.
  obs::Counter* read_misses;
  /// SIAS snapshot-read page fetches that took the pool mutex (cold page,
  /// or a hit that raced eviction). 0 on a warm read-only workload.
  obs::Counter* read_latch_acquisitions;
  obs::Counter* versions_appended;
  /// Versions a read examined and found invisible.
  obs::Counter* version_hops;
  obs::Counter* visibility_checks;
  obs::Counter* ww_conflicts;
  /// SI only: xmax stamped in place on an old version, dirtying its page.
  obs::Counter* inplace_invalidations;
  /// Versions examined per read, the visible one included.
  obs::HistogramMetric* traversal_depth;
  obs::Counter* gc_pages_examined;
  obs::Counter* gc_pages_reclaimed;
  obs::Counter* gc_versions_discarded;
  obs::Counter* gc_versions_relocated;
  obs::Counter* vids_allocated;
  obs::Counter* entry_updates;
  obs::Counter* entry_clears;
  /// SIAS-V: versions a writer dropped from an item's vector because every
  /// current and future snapshot sees the version it replaced.
  obs::Counter* versions_trimmed;
};

/// The one instance, registered in the default registry on first use.
const MvccCounters& MvccObs();

}  // namespace sias
