// Block-level tracing: the blktrace/blkparse substitute used by the paper's
// Figures 3 & 4 (I/O scatter plots) and Table 1 (write amounts).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/latch.h"
#include "common/status.h"
#include "common/types.h"

namespace sias {

enum class TraceOp : uint8_t { kRead = 0, kWrite = 1, kTrim = 2 };

/// One host-level I/O, as blktrace would record it.
struct TraceEvent {
  VTime time;       ///< virtual start time of the request
  uint64_t offset;  ///< byte offset on the device
  uint32_t length;  ///< bytes
  TraceOp op;
};

/// Thread-safe append-only trace buffer.
class TraceRecorder {
 public:
  /// `max_events` bounds memory; once full, further events are counted but
  /// not stored (totals stay exact).
  explicit TraceRecorder(size_t max_events = 1u << 22);

  void Record(VTime time, uint64_t offset, uint32_t length, TraceOp op);
  void Clear();

  std::vector<TraceEvent> events() const;
  SIAS_DEAD_API_OK("device_test and property_test check traced volume");
  uint64_t total_bytes_written() const;
  SIAS_DEAD_API_OK("device_test and property_test check traced volume");
  uint64_t total_bytes_read() const;
  SIAS_DEAD_API_OK("device_test checks the trace ring's overflow count");
  uint64_t dropped_events() const;

  /// Writes a CSV ("time_ms,offset_mb,len,op") usable for scatter plots like
  /// the paper's Figures 3/4.
  Status ToCsv(const std::string& path) const;

 private:
  /// Rank kStats: leaf below the device mutexes that record into it.
  mutable Mutex mu_{LatchRank::kStats};
  std::vector<TraceEvent> events_ SIAS_GUARDED_BY(mu_);
  size_t max_events_;
  uint64_t bytes_written_ SIAS_GUARDED_BY(mu_) = 0;
  uint64_t bytes_read_ SIAS_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ SIAS_GUARDED_BY(mu_) = 0;
};

/// blkparse-style aggregate over a trace.
struct TraceAnalysis {
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// Fraction of write ops whose offset directly follows the previous write
  /// (per device): 1.0 = pure append stream, ~0 = scattered in-place writes.
  double write_sequentiality = 0.0;
  /// Number of distinct 1 MB regions touched by writes (spread of the
  /// write working set over the address space).
  uint64_t write_regions_1mb = 0;
  /// Same for reads.
  uint64_t read_regions_1mb = 0;

  std::string ToString() const;
};

TraceAnalysis AnalyzeTrace(const std::vector<TraceEvent>& events);

}  // namespace sias
