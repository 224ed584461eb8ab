// The benchmark's three SIAS-V workloads, driven through the engine's public
// API (Database, Table, tpcc::TpccExecutor). NOTES.md records why each one
// exists and the evidence behind its sizing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device/mem_device.h"
#include "engine/database.h"
#include "timed_device.h"
#include "trace.h"

namespace perfbench {

/// Derives an independent 64-bit seed from (seed, salt) (splitmix64).
uint64_t Mix(uint64_t seed, uint64_t salt);

/// Keeps at most kCapacity samples with reservoir replacement, so memory is
/// fixed however many operations a run completes. The replacement stream is
/// seeded, so equal inputs keep equal samples.
class Reservoir {
 public:
  static constexpr size_t kCapacity = 1 << 18;

  explicit Reservoir(uint64_t seed) : state_(seed | 1) {
    samples_.reserve(kCapacity);
  }
  void Add(int64_t v);
  void Clear() {
    samples_.clear();
    seen_ = 0;
  }
  uint64_t seen() const { return seen_; }
  std::vector<int64_t>& samples() { return samples_; }

 private:
  std::vector<int64_t> samples_;
  uint64_t seen_ = 0;
  uint64_t state_;
};

/// Shared state of one measured round: a fixed budget of operations that
/// the workers claim one at a time.
struct Phase {
  std::atomic<int64_t> remaining{0};
  /// Whether operations starting now are traced (the traced run alternates
  /// traced and untraced slices to measure the tracing overhead).
  std::atomic<bool> traced{false};

  bool Claim() { return remaining.fetch_sub(1, std::memory_order_relaxed) > 0; }
};

/// Per-thread results of one measured phase.
struct ThreadStats {
  explicit ThreadStats(uint64_t seed)
      : headline_wall(seed), headline_virtual(seed ^ 0x5bd1e995) {}
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;       ///< errors plus conflicts that ran out of retries
  uint64_t user_aborts = 0;  ///< TPC-C's intended New-Order rollbacks
  uint64_t retries = 0;      ///< conflict retries
  /// Loop iterations and their wall time, split by whether they were
  /// traced: the tracing overhead is the difference in mean iteration time.
  uint64_t iterations[2] = {0, 0};
  int64_t iteration_ns[2] = {0, 0};
  Reservoir headline_wall;     ///< ns, headline operation incl. retries
  Reservoir headline_virtual;  ///< virtual ns, same operations
  bool correct = true;
  std::string first_problem;

  void CountIteration(bool traced, int64_t ns) {
    iterations[traced]++;
    iteration_ns[traced] += ns;
  }

  void Problem(const std::string& what) {
    if (correct) first_problem = what;
    correct = false;
  }
};

/// Virtual-time totals of one measured round.
struct VirtualWindow {
  uint64_t committed = 0;
  uint64_t new_orders = 0;
  double vseconds = 0;
  uint64_t data_write_bytes = 0;
};

/// Devices plus database. Members are declared so the database is
/// destroyed before the devices it writes to.
struct Engine {
  std::unique_ptr<sias::StorageDevice> data_raw;
  std::unique_ptr<sias::MemDevice> wal_raw;
  std::unique_ptr<TimedDevice> data;
  std::unique_ptr<TimedDevice> wal;
  std::unique_ptr<sias::Database> db;
};

/// A workload runs in rounds: set up a fresh engine, then run a fixed number
/// of operations. Rounds repeat until the run's time is used, so memory and
/// version-chain depth stay those of one round however fast the engine is.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the engine, loads it and runs the warm-up; inputs come from
  /// `seed` only.
  virtual sias::Status Setup(uint64_t seed) = 0;
  virtual int threads() const = 0;
  /// Operations in one measured round.
  virtual int64_t round_ops() const = 0;
  /// Headline-operation name, for the summary line.
  virtual const char* headline() const = 0;
  /// Aligns the client clocks and records the counters a phase starts from.
  virtual void BeginPhase() = 0;
  /// Runs thread `t`'s closed loop while `phase` has operations left.
  virtual void Worker(int t, Phase& phase, ThreadStats* st) = 0;
  /// Consistency checks after the measured phase; "" when all hold.
  virtual std::string Verify() = 0;
  /// Virtual-time results of the round that committed `committed` ops.
  virtual VirtualWindow Window(uint64_t committed) const = 0;

  Engine& engine() { return eng_; }

 protected:
  Engine eng_;
};

/// "tpcc", "ycsb_read" or "ycsb_update"; nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench
