#include "mvcc/mvcc_counters.h"

namespace sias {

const MvccCounters& MvccObs() {
  static const MvccCounters* c = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    auto* m = new MvccCounters();
    m->reads = reg.GetCounter("mvcc.reads");
    m->read_misses = reg.GetCounter("mvcc.read_misses");
    m->read_latch_acquisitions =
        reg.GetCounter("mvcc.read_latch_acquisitions");
    m->versions_appended = reg.GetCounter("mvcc.versions_appended");
    m->version_hops = reg.GetCounter("mvcc.version_hops");
    m->visibility_checks = reg.GetCounter("mvcc.visibility_checks");
    m->ww_conflicts = reg.GetCounter("mvcc.ww_conflicts");
    m->inplace_invalidations = reg.GetCounter("mvcc.inplace_invalidations");
    m->traversal_depth = reg.GetHistogram("mvcc.traversal_depth");
    m->gc_pages_examined = reg.GetCounter("mvcc.gc.pages_examined");
    m->gc_pages_reclaimed = reg.GetCounter("mvcc.gc.pages_reclaimed");
    m->gc_versions_discarded = reg.GetCounter("mvcc.gc.versions_discarded");
    m->gc_versions_relocated = reg.GetCounter("mvcc.gc.versions_relocated");
    m->vids_allocated = reg.GetCounter("vidmap.vids_allocated");
    m->entry_updates = reg.GetCounter("vidmap.entry_updates");
    m->entry_clears = reg.GetCounter("vidmap.entry_clears");
    m->versions_trimmed = reg.GetCounter("mvcc.vidmap.versions_trimmed");
    return m;
  }();
  return *c;
}

}  // namespace sias
