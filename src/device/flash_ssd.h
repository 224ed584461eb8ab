// Flash SSD simulator.
//
// Models the device properties the SIAS paper exploits (its §1 list):
//   (i)  read/write asymmetry  — program latency >> read latency;
//   (ii) high I/O parallelism  — independent channels with own busy marks;
//   (iii) poor random writes   — page-mapped FTL with erase-before-rewrite
//                                and greedy garbage collection whose cost
//                                lands on the host I/O path;
//   (iv) endurance/wear        — per-block erase counts, WA accounting.
//
// Calibrated to the paper's Intel X25-E class SLC flash (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/latch.h"
#include "device/channel_calendar.h"
#include "device/data_store.h"
#include "device/device.h"
#include "device/trace.h"

namespace sias {

/// Geometry and latency model of one SSD.
struct FlashConfig {
  uint64_t capacity_bytes = 1ull << 32;  ///< exported (logical) capacity: 4 GB
  uint32_t flash_page_size = 4096;       ///< NAND page
  uint32_t pages_per_block = 64;         ///< NAND pages per erase block
  uint32_t num_channels = 10;            ///< parallel channels
  double overprovision = 0.10;           ///< physical spare fraction
  double gc_free_fraction = 0.0625;      ///< GC kicks in below this free share

  // SLC-class latencies.
  VDuration page_read_latency = 85 * kVMicrosecond;
  VDuration page_program_latency = 250 * kVMicrosecond;
  VDuration block_erase_latency = 1500 * kVMicrosecond;
};

/// Wear summary for endurance reporting (paper §6 "Flash Endurance").
struct WearStats {
  uint64_t total_erases = 0;
  uint64_t max_block_erases = 0;
  double avg_block_erases = 0.0;
};

/// Page-mapped FTL SSD with greedy GC.
class FlashSsd : public StorageDevice {
 public:
  explicit FlashSsd(const FlashConfig& config);

  Status Read(uint64_t offset, size_t len, uint8_t* out,
              VirtualClock* clk) override;
  Status Write(uint64_t offset, size_t len, const uint8_t* data,
               VirtualClock* clk, bool background = false) override;
  Status Trim(uint64_t offset, size_t len) override;

  uint64_t capacity_bytes() const override { return config_.capacity_bytes; }
  DeviceStats stats() const override;
  WearStats wear() const;

  /// Space levels, erase-count distribution and per-channel busy time.
  DeviceTelemetry telemetry() const override;

  const FlashConfig& config() const { return config_; }

  /// Internal consistency probe for tests: checks that the logical->physical
  /// mapping is injective and agrees with the reverse map.
  SIAS_DEAD_API_OK("device_test and integration_test check the FTL maps");
  Status CheckFtlInvariants() const;

 private:
  static constexpr uint32_t kUnmapped = 0xffffffffu;

  struct Block {
    uint32_t channel = 0;
    uint32_t next_free = 0;   ///< next unwritten page index within block
    uint32_t valid_count = 0;
    uint32_t erase_count = 0;
  };

  struct Channel {
    ChannelCalendar busy;             ///< channel occupancy in virtual time
    std::vector<uint32_t> free_blocks;   ///< erased blocks for host writes
    uint32_t active_block = kUnmapped;   ///< block host writes fill
    uint64_t free_pages = 0;             ///< host-visible free pages
    // GC operates from a dedicated reserve so relocation can never exhaust
    // the host pool (the classic over-provisioned FTL design).
    std::vector<uint32_t> gc_reserve;    ///< erased blocks reserved for GC
    uint32_t gc_active = kUnmapped;      ///< block GC relocations fill
  };

  // All FTL state is guarded by mu_; the per-channel busy marks are atomic
  // so completion-time math does not serialize on the mutex.
  uint32_t AllocatePage(uint32_t channel_hint, VTime now, VTime* completion,
                        bool background);  // returns ppn
  void InvalidatePpn(uint32_t ppn);
  void MaybeGc(uint32_t channel, VTime now, bool background);
  uint32_t PickGcVictim(uint32_t channel);
  uint64_t GcCapacity(const Channel& ch) const;

  FlashConfig config_;
  uint64_t logical_pages_;
  uint64_t physical_pages_;
  uint32_t num_blocks_;

  /// Rank kDevice: held across FTL mapping updates and channel-calendar
  /// reservations (kDeviceCalendar nests inside).
  mutable Mutex mu_{LatchRank::kDevice};
  /// lpn -> ppn (kUnmapped if none).
  std::vector<uint32_t> l2p_ SIAS_GUARDED_BY(mu_);
  /// ppn -> lpn (kUnmapped if free/invalid).
  std::vector<uint32_t> p2l_ SIAS_GUARDED_BY(mu_);
  /// ppn -> currently-valid flag.
  std::vector<uint8_t> page_valid_ SIAS_GUARDED_BY(mu_);
  std::vector<Block> blocks_ SIAS_GUARDED_BY(mu_);
  std::vector<Channel> channels_ SIAS_GUARDED_BY(mu_);

  DataStore store_;  ///< payload kept by LPN (mapping is timing/WA model)

  // Counters (guarded by mu_ except host byte counters).
  DeviceStats stats_ SIAS_GUARDED_BY(mu_);
};

}  // namespace sias
