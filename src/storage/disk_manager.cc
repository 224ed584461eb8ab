#include "storage/disk_manager.h"

#include "common/coding.h"
#include "common/logging.h"

namespace sias {

DiskManager::DiskManager(StorageDevice* device, uint64_t reserved_bytes)
    : device_(device), reserved_bytes_(reserved_bytes) {
  // Round the reserved region up to an extent boundary.
  uint64_t extent_bytes = static_cast<uint64_t>(kPagesPerExtent) * kPageSize;
  next_free_offset_ =
      (reserved_bytes + extent_bytes - 1) / extent_bytes * extent_bytes;
}

Status DiskManager::CreateRelation(RelationId relation) {
  MutexLock g(&mu_);
  if (relation == kInvalidRelation) {
    return Status::InvalidArgument("invalid relation id");
  }
  if (relations_.size() <= relation) relations_.resize(relation + 1);
  if (relations_[relation].exists) {
    return Status::AlreadyExists("relation exists");
  }
  relations_[relation].exists = true;
  return Status::OK();
}

bool DiskManager::HasRelation(RelationId relation) const {
  MutexLock g(&mu_);
  return relation < relations_.size() && relations_[relation].exists;
}

Result<PageNumber> DiskManager::AllocatePage(RelationId relation) {
  MutexLock g(&mu_);
  if (relation >= relations_.size() || !relations_[relation].exists) {
    return Status::NotFound("unknown relation");
  }
  RelationMap& rel = relations_[relation];
  uint64_t extent_bytes = static_cast<uint64_t>(kPagesPerExtent) * kPageSize;
  if (rel.pages % kPagesPerExtent == 0) {
    // Need a new extent.
    if (next_free_offset_ + extent_bytes > device_->capacity_bytes()) {
      return Status::OutOfSpace("device full");
    }
    rel.extents.push_back(next_free_offset_);
    next_free_offset_ += extent_bytes;
  }
  return rel.pages++;
}

Result<PageNumber> DiskManager::PageCount(RelationId relation) const {
  MutexLock g(&mu_);
  if (relation >= relations_.size() || !relations_[relation].exists) {
    return Status::NotFound("unknown relation");
  }
  return relations_[relation].pages;
}

Result<uint64_t> DiskManager::PageOffsetLocked(RelationId relation,
                                               PageNumber page_no) const {
  if (relation >= relations_.size() || !relations_[relation].exists) {
    return Status::NotFound("unknown relation");
  }
  const RelationMap& rel = relations_[relation];
  if (page_no >= rel.pages) {
    return Status::InvalidArgument("page beyond relation end");
  }
  uint64_t extent = page_no / kPagesPerExtent;
  uint64_t in_extent = page_no % kPagesPerExtent;
  return rel.extents[extent] + in_extent * kPageSize;
}

Result<uint64_t> DiskManager::PageOffset(RelationId relation,
                                         PageNumber page_no) const {
  MutexLock g(&mu_);
  return PageOffsetLocked(relation, page_no);
}

uint64_t DiskManager::allocated_bytes() const {
  MutexLock g(&mu_);
  uint64_t total = 0;
  for (const auto& rel : relations_) {
    // Count actually used pages, not whole extents, to mirror the paper's
    // occupied-space measurements.
    total += static_cast<uint64_t>(rel.pages) * kPageSize;
  }
  return total;
}

void DiskManager::Serialize(std::string* out) const {
  MutexLock g(&mu_);
  PutFixed64(out, next_free_offset_);
  PutFixed32(out, static_cast<uint32_t>(relations_.size()));
  for (const auto& rel : relations_) {
    PutFixed32(out, rel.exists ? 1 : 0);
    PutFixed32(out, rel.pages);
    PutFixed32(out, static_cast<uint32_t>(rel.extents.size()));
    for (uint64_t e : rel.extents) PutFixed64(out, e);
  }
}

Status DiskManager::Deserialize(Slice in) {
  MutexLock g(&mu_);
  const uint8_t* p = in.data();
  const uint8_t* end = in.data() + in.size();
  auto need = [&](size_t n) { return p + n <= end; };
  if (!need(12)) return Status::Corruption("disk manager meta truncated");
  next_free_offset_ = DecodeFixed64(p);
  p += 8;
  uint32_t count = DecodeFixed32(p);
  p += 4;
  relations_.assign(count, RelationMap{});
  for (uint32_t i = 0; i < count; ++i) {
    if (!need(12)) return Status::Corruption("disk manager meta truncated");
    relations_[i].exists = DecodeFixed32(p) != 0;
    p += 4;
    relations_[i].pages = DecodeFixed32(p);
    p += 4;
    uint32_t extents = DecodeFixed32(p);
    p += 4;
    if (!need(8ull * extents)) {
      return Status::Corruption("disk manager meta truncated");
    }
    for (uint32_t e = 0; e < extents; ++e) {
      relations_[i].extents.push_back(DecodeFixed64(p));
      p += 8;
    }
  }
  return Status::OK();
}

}  // namespace sias
