// Shared wiring for MVCC-layer tests: device + disk + pool + txn machinery,
// a factory producing a table of any version scheme, and a reader for the
// registry counters the engine counts its events in.
#pragma once

#include <memory>

#include "buffer/buffer_pool.h"
#include "core/sias_table.h"
#include "device/mem_device.h"
#include "mvcc/mvcc_table.h"
#include "mvcc/si_heap.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "txn/clog.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "wal/wal.h"

namespace sias {

/// How far one process-wide registry counter (docs/OBSERVABILITY.md) has
/// moved since construction. Engine events are counted only there, so a
/// test reads GC outcomes, buffer hits or WAL bytes as the benches do:
///   CounterDelta relocated("mvcc.gc.versions_relocated");
///   ...
///   EXPECT_EQ(relocated(), 1);
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : counter_(obs::MetricsRegistry::Default().GetCounter(name)),
        start_(counter_->Value()) {}

  int64_t operator()() const { return counter_->Value() - start_; }

 private:
  obs::Counter* counter_;
  int64_t start_;
};

/// Self-contained mini engine for tests.
class TestEnv {
 public:
  explicit TestEnv(size_t pool_frames = 256, bool with_wal = true,
                   int lock_timeout_ms = 200)
      : device_(1ull << 30),
        wal_device_(1ull << 30),
        disk_(&device_),
        pool_(&disk_, pool_frames,
              [this](Lsn lsn, VirtualClock* clk) {
                return wal_ ? wal_->FlushTo(lsn, clk) : Status::OK();
              }),
        locks_(lock_timeout_ms),
        txns_(&clog_, &locks_) {
    if (with_wal) {
      wal_ = std::make_unique<WalWriter>(&wal_device_, 0, 1ull << 30);
    }
  }

  std::unique_ptr<MvccTable> MakeTable(VersionScheme scheme,
                                       RelationId relation) {
    EXPECT_TRUE(disk_.CreateRelation(relation).ok());
    TableEnv env{&pool_, &txns_, wal_.get()};
    if (scheme == VersionScheme::kSi) {
      return std::make_unique<SiHeap>(relation, env);
    }
    return std::make_unique<SiasTable>(relation, env, scheme);
  }

  MemDevice device_;
  MemDevice wal_device_;
  DiskManager disk_;
  BufferPool pool_;
  Clog clog_;
  LockManager locks_;
  TransactionManager txns_;
  std::unique_ptr<WalWriter> wal_;
};

}  // namespace sias
