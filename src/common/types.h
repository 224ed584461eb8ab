// Core identifier types shared by every module of siasdb.
//
// The layout mirrors the PostgreSQL-shaped primitives the SIAS paper builds
// on: 8 KB pages, 6-byte tuple identifiers (page number + slot offset) and
// 32/64-bit transaction identifiers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace sias {

/// Size of every database page, WAL block and VidMap bucket (paper §4.1.2).
inline constexpr size_t kPageSize = 8192;

/// Transaction identifier ("timestamp" in the paper's terminology).
/// Xids are assigned from a monotonically increasing counter, so comparing
/// two xids orders the transactions by start time.
using Xid = uint64_t;

/// Sentinel: no transaction / "NULL timestamp".
inline constexpr Xid kInvalidXid = 0;
/// Bootstrap transaction id; versions created by it are visible to everyone.
inline constexpr Xid kFrozenXid = 1;
/// First xid handed out to user transactions.
inline constexpr Xid kFirstNormalXid = 2;

/// Log sequence number (byte offset into the WAL stream).
using Lsn = uint64_t;
inline constexpr Lsn kInvalidLsn = 0;

/// Virtual ID: the per-data-item identifier shared by all versions of a data
/// item (paper §4). VIDs are ascending positive numbers, dense per relation.
using Vid = uint64_t;
inline constexpr Vid kInvalidVid = std::numeric_limits<Vid>::max();

/// Identifies a relation (heap, index, or VidMap file) inside a database.
using RelationId = uint32_t;
inline constexpr RelationId kInvalidRelation = 0;

/// Page number within a relation file.
using PageNumber = uint32_t;
inline constexpr PageNumber kInvalidPageNumber =
    std::numeric_limits<PageNumber>::max();

/// Tuple identifier: the physical address of one tuple version.
/// Mirrors PostgreSQL's 6-byte ctid: 32-bit block number + 16-bit slot.
struct Tid {
  PageNumber page = kInvalidPageNumber;
  uint16_t slot = 0;

  constexpr bool valid() const { return page != kInvalidPageNumber; }
  constexpr bool operator==(const Tid&) const = default;
  constexpr bool operator!=(const Tid&) const = default;

  /// Packs the Tid into a single integer, e.g. for atomic CAS in the VidMap.
  constexpr uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static constexpr Tid Unpack(uint64_t v) {
    return Tid{static_cast<PageNumber>(v >> 16),
               static_cast<uint16_t>(v & 0xffff)};
  }

  std::string ToString() const {
    return std::string("(")
        .append(std::to_string(page))
        .append(",")
        .append(std::to_string(slot))
        .append(")");
  }
};

inline constexpr Tid kInvalidTid{};

/// A buffer-pool-wide page address: relation + page number.
struct PageId {
  RelationId relation = kInvalidRelation;
  PageNumber page = kInvalidPageNumber;

  constexpr bool valid() const {
    return relation != kInvalidRelation && page != kInvalidPageNumber;
  }
  constexpr bool operator==(const PageId&) const = default;

  std::string ToString() const {
    return std::to_string(relation) + "/" + std::to_string(page);
  }
};

struct PageIdHash {
  size_t operator()(const PageId& id) const {
    uint64_t v = (static_cast<uint64_t>(id.relation) << 32) | id.page;
    v *= 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(v ^ (v >> 32));
  }
};

/// Virtual time in nanoseconds. All device latencies and workload metrics
/// are expressed in virtual time (see DESIGN.md §3.1).
using VTime = uint64_t;
using VDuration = uint64_t;

inline constexpr VDuration kVMicrosecond = 1000;
inline constexpr VDuration kVMillisecond = 1000 * kVMicrosecond;
inline constexpr VDuration kVSecond = 1000 * kVMillisecond;

/// Which multi-version scheme a table uses. This is the experimental knob of
/// the whole repository: identical engine, different invalidation model.
enum class VersionScheme {
  /// Classical Snapshot Isolation: on-tuple xmin/xmax, in-place invalidation
  /// (the PostgreSQL baseline of the paper's evaluation).
  kSi,
  /// SIAS-Chains: append-only storage, singly-linked version chains through
  /// an on-tuple predecessor pointer; VidMap holds the entrypoint only.
  kSiasChains,
  /// SIAS-V (the EDBT'14 demo variant): append-only storage; the VidMap
  /// entry holds the vector of all live version TIDs, newest first.
  kSiasV,
};

const char* ToString(VersionScheme scheme);

}  // namespace sias

template <>
struct std::hash<sias::PageId> {
  size_t operator()(const sias::PageId& id) const {
    return sias::PageIdHash{}(id);
  }
};
