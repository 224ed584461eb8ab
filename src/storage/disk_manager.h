// DiskManager: maps (relation, page_no) to device byte offsets.
//
// Space is allocated in extents of 256 pages (2 MB). Each relation owns a
// private list of extents, so different relations live at different device
// locations — the property behind the paper's observation that "appends to
// each relation form swimlanes" (§5.1) and that relation separation reduces
// contention (§5.2).
#pragma once

#include <vector>

#include "common/analysis_annotations.h"
#include "common/latch.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "device/device.h"

namespace sias {

/// Thread-safe page-granular space manager over one StorageDevice.
class DiskManager {
 public:
  static constexpr uint32_t kPagesPerExtent = 256;

  /// `reserved_bytes` at the start of the device are left untouched (used by
  /// the Database for its bootstrap/catalog snapshot).
  explicit DiskManager(StorageDevice* device, uint64_t reserved_bytes = 0);

  /// Registers a relation. Relation ids are assigned by the caller (catalog)
  /// and must be dense-ish small integers.
  Status CreateRelation(RelationId relation);
  SIAS_DEAD_API_OK("storage_test checks the restored catalog");
  bool HasRelation(RelationId relation) const;

  /// Extends the relation by one page; returns its page number.
  Result<PageNumber> AllocatePage(RelationId relation);

  /// Number of pages ever allocated to the relation.
  Result<PageNumber> PageCount(RelationId relation) const;

  /// Device byte offset of a page (exposed for trace interpretation).
  Result<uint64_t> PageOffset(RelationId relation, PageNumber page_no) const;

  /// Total device bytes occupied by allocated extents: the paper's "occupied
  /// space" metric (Table 1 discussion).
  uint64_t allocated_bytes() const;

  StorageDevice* device() { return device_; }

  /// Serializes the allocation table into `out` (checkpoint metadata).
  void Serialize(std::string* out) const;
  /// Restores the allocation table written by Serialize.
  Status Deserialize(Slice in);

 private:
  struct RelationMap {
    bool exists = false;
    uint32_t pages = 0;                ///< pages allocated so far
    std::vector<uint64_t> extents;     ///< device byte offset of each extent
  };

  Result<uint64_t> PageOffsetLocked(RelationId relation,
                                    PageNumber page_no) const;

  StorageDevice* device_;
  uint64_t reserved_bytes_;
  /// Rank kDisk: released before any device call (kDevice nests after, not
  /// inside — see disk_manager.cc).
  mutable Mutex mu_{LatchRank::kDisk};
  uint64_t next_free_offset_ SIAS_GUARDED_BY(mu_);
  std::vector<RelationMap> relations_ SIAS_GUARDED_BY(mu_);
};

}  // namespace sias
