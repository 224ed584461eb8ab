// Microbenchmarks (google-benchmark) for the core data structures, plus the
// ABL2 ablation: SIAS-Chains pointer walk vs SIAS-V vector walk as a
// function of version depth, and the VidMap access costs C_R / C_W of
// paper §4.1.3.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "bench/bench_common.h"
#include "buffer/buffer_pool.h"
#include "common/logging.h"
#include "common/random.h"
#include "engine/database.h"
#include "core/sias_table.h"
#include "core/vid_map.h"
#include "core/vid_map_v.h"
#include "device/flash_ssd.h"
#include "device/mem_device.h"
#include "fault/fault_injector.h"
#include "fault/faulty_device.h"
#include "index/btree.h"
#include "index/key_codec.h"
#include "mvcc/tuple.h"
#include "mvcc/visibility.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "txn/clog.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace sias {
namespace {

// ---------------------------------------------------------------------------
// VidMap access cost: C_R (lookup) and C_W (entrypoint swing), paper §4.1.3.
// ---------------------------------------------------------------------------

void BM_VidMapGet(benchmark::State& state) {
  VidMap map;
  for (int i = 0; i < 100000; ++i) {
    Vid v = map.AllocateVid();
    map.Set(v, Tid{static_cast<PageNumber>(i), 0});
  }
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Get(rng.Uniform(0, 99999)));
  }
}
BENCHMARK(BM_VidMapGet);

void BM_VidMapCompareAndSet(benchmark::State& state) {
  VidMap map;
  for (int i = 0; i < 100000; ++i) {
    Vid v = map.AllocateVid();
    map.Set(v, Tid{static_cast<PageNumber>(i), 0});
  }
  Random rng(1);
  uint16_t gen = 0;
  for (auto _ : state) {
    Vid v = rng.Uniform(0, 99999);
    Tid cur = map.Get(v);
    benchmark::DoNotOptimize(
        map.CompareAndSet(v, cur, Tid{cur.page, static_cast<uint16_t>(++gen)}));
  }
}
BENCHMARK(BM_VidMapCompareAndSet);

void BM_VidMapVGet(benchmark::State& state) {
  VidMapV map;
  int depth = static_cast<int>(state.range(0));
  for (int i = 0; i < 10000; ++i) {
    Vid v = map.AllocateVid();
    Tid front{};
    for (int d = 0; d < depth; ++d) {
      Tid t{static_cast<PageNumber>(i * 16 + d), 0};
      map.PushFront(v, front, t);
      front = t;
    }
  }
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Get(rng.Uniform(0, 9999)));
  }
}
BENCHMARK(BM_VidMapVGet)->Arg(1)->Arg(4)->Arg(16);

// ---------------------------------------------------------------------------
// Visibility kernels.
// ---------------------------------------------------------------------------

void BM_SiVisibilityCheck(benchmark::State& state) {
  Clog clog;
  for (Xid x = 2; x < 1000; ++x) clog.SetCommitted(x);
  Snapshot snap;
  snap.xid = 900;
  snap.xmax = 901;
  snap.concurrent = {850, 870, 880};
  TupleHeader h;
  h.xmin = 500;
  h.xmax = 860;  // concurrent invalidator: visible
  for (auto _ : state) {
    benchmark::DoNotOptimize(SiTupleVisible(h, snap, clog));
  }
}
BENCHMARK(BM_SiVisibilityCheck);

void BM_SiasVisibilityCheck(benchmark::State& state) {
  Clog clog;
  for (Xid x = 2; x < 1000; ++x) clog.SetCommitted(x);
  Snapshot snap;
  snap.xid = 900;
  snap.xmax = 901;
  snap.concurrent = {850, 870, 880};
  TupleHeader h;
  h.xmin = 500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SiasVersionVisible(h, snap, clog));
  }
}
BENCHMARK(BM_SiasVisibilityCheck);

// ---------------------------------------------------------------------------
// Tuple codec.
// ---------------------------------------------------------------------------

void BM_TupleEncodeDecode(benchmark::State& state) {
  TupleHeader h;
  h.xmin = 42;
  h.vid = 1234;
  std::string payload(state.range(0), 'p');
  std::string encoded;
  for (auto _ : state) {
    EncodeTuple(h, Slice(payload), &encoded);
    TupleHeader out;
    benchmark::DoNotOptimize(DecodeTupleHeader(Slice(encoded), &out));
  }
}
BENCHMARK(BM_TupleEncodeDecode)->Arg(64)->Arg(256)->Arg(1024);

// ---------------------------------------------------------------------------
// B+-tree.
// ---------------------------------------------------------------------------

struct BTreeFixture {
  MemDevice device{1ull << 30};
  DiskManager disk{&device};
  BufferPool pool{&disk, 4096};
  BTree tree{1, &pool};
  VirtualClock clk;

  explicit BTreeFixture(int n) {
    SIAS_CHECK(disk.CreateRelation(1).ok());
    SIAS_CHECK(tree.Create(&clk).ok());
    Random rng(7);
    for (int i = 0; i < n; ++i) {
      SIAS_CHECK(tree.Insert(IntKey(rng.UniformInt(0, 1 << 24)), i, &clk).ok());
    }
  }
};

void BM_BTreeLookup(benchmark::State& state) {
  BTreeFixture f(static_cast<int>(state.range(0)));
  Random rng(3);
  for (auto _ : state) {
    uint64_t found = 0;
    benchmark::DoNotOptimize(
        f.tree.Lookup(IntKey(rng.UniformInt(0, 1 << 24)), &f.clk,
                      [&](Slice, uint64_t v) {
                        found += v;
                        return true;
                      }));
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_BTreeLookup)->Arg(10000)->Arg(100000);

void BM_BTreeInsert(benchmark::State& state) {
  BTreeFixture f(10000);
  Random rng(3);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree.Insert(IntKey(rng.UniformInt(0, 1 << 28)), i++, &f.clk));
  }
}
BENCHMARK(BM_BTreeInsert);

// ---------------------------------------------------------------------------
// ABL2: read cost vs version depth — Chains (pointer walk through heap
// pages) vs SIAS-V (vector walk). The reader's snapshot predates all
// updates, so every read walks the full depth.
// ---------------------------------------------------------------------------

struct SchemeDepthFixture {
  MemDevice device{1ull << 30};
  MemDevice wal{1ull << 30};
  std::unique_ptr<Database> db;
  Table* table = nullptr;
  std::vector<Vid> vids;
  std::unique_ptr<Transaction> old_snapshot;
  VirtualClock clk;

  SchemeDepthFixture(VersionScheme scheme, int items, int depth) {
    DatabaseOptions opts;
    opts.data_device = &device;
    opts.wal_device = &wal;
    opts.pool_frames = 65536;  // fully cached: isolates traversal CPU cost
    auto d = Database::Open(opts);
    SIAS_CHECK(d.ok());
    db = std::move(*d);
    auto t = db->CreateTable("t", Schema{{"v", ColumnType::kInt64}}, scheme);
    SIAS_CHECK(t.ok());
    table = *t;
    for (int i = 0; i < items; ++i) {
      auto txn = db->Begin(&clk);
      auto vid = table->Insert(txn.get(), Row{{int64_t{i}}});
      SIAS_CHECK(vid.ok());
      vids.push_back(*vid);
      SIAS_CHECK(db->Commit(txn.get()).ok());
    }
    old_snapshot = db->Begin(&clk);  // sees only version 0 of everything
    for (int d2 = 1; d2 < depth; ++d2) {
      for (Vid v : vids) {
        auto txn = db->Begin(&clk);
        SIAS_CHECK(table->Update(txn.get(), v, Row{{int64_t{d2}}}).ok());
        SIAS_CHECK(db->Commit(txn.get()).ok());
      }
    }
  }
};

void DepthReadLoop(benchmark::State& state, VersionScheme scheme) {
  SchemeDepthFixture f(scheme, 512, static_cast<int>(state.range(0)));
  Random rng(9);
  for (auto _ : state) {
    Vid v = f.vids[rng.Uniform(0, f.vids.size() - 1)];
    auto row = f.table->Get(f.old_snapshot.get(), v);
    benchmark::DoNotOptimize(row);
  }
}

void BM_OldSnapshotRead_Chains(benchmark::State& state) {
  DepthReadLoop(state, VersionScheme::kSiasChains);
}
BENCHMARK(BM_OldSnapshotRead_Chains)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_OldSnapshotRead_Vectors(benchmark::State& state) {
  DepthReadLoop(state, VersionScheme::kSiasV);
}
BENCHMARK(BM_OldSnapshotRead_Vectors)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

// ---------------------------------------------------------------------------
// Device models.
// ---------------------------------------------------------------------------

void BM_FlashSsdWrite8k(benchmark::State& state) {
  FlashConfig fc;
  fc.capacity_bytes = 1ull << 30;
  FlashSsd ssd(fc);
  std::vector<uint8_t> page(kPageSize, 7);
  VirtualClock clk;
  uint64_t pages = fc.capacity_bytes / kPageSize;
  Random rng(5);
  for (auto _ : state) {
    uint64_t p = rng.Uniform(0, pages - 1);
    benchmark::DoNotOptimize(
        ssd.Write(p * kPageSize, kPageSize, page.data(), &clk));
  }
}
BENCHMARK(BM_FlashSsdWrite8k);

void BM_LockAcquireRelease(benchmark::State& state) {
  LockManager locks;
  VirtualClock clk;
  Random rng(5);
  for (auto _ : state) {
    Vid v = rng.Uniform(0, 1 << 20);
    benchmark::DoNotOptimize(locks.AcquireExclusive(1, v, 42, &clk));
    locks.Release(1, v, 42, 0);
  }
}
BENCHMARK(BM_LockAcquireRelease);

// ---------------------------------------------------------------------------
// Metric recording on the engine's hot paths: one histogram sample (bucket
// lookup plus the stripe's atomics) and one sharded counter add. The
// metrics are local, so they stay out of the registry dump below.
// ---------------------------------------------------------------------------

void BM_HistogramRecord(benchmark::State& state) {
  static obs::HistogramMetric hist;  // shared by all benchmark threads
  // Log-uniform samples from 1 ns to ~1 s, drawn per thread.
  Random rng(7 + static_cast<uint64_t>(state.thread_index()));
  std::vector<VDuration> samples(1024);
  for (VDuration& v : samples) {
    v = rng.Uniform(1, VDuration{1} << rng.Uniform(0, 30));
  }
  size_t i = 0;
  for (auto _ : state) {
    hist.Record(samples[i++ & 1023]);
  }
  benchmark::ClobberMemory();
}
BENCHMARK(BM_HistogramRecord)->Threads(1)->Threads(4);

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter counter;
  int64_t n = state.range(0);
  for (auto _ : state) {
    counter.Add(n);
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_CounterAdd)->Arg(1);

}  // namespace

// ---------------------------------------------------------------------------
// Fault-injection overhead gate (--fault-overhead): the disabled-injector
// fast path (one relaxed atomic load per SIAS_CRASH_POINT site plus the
// FaultyDevice pass-through) must be free. Measures wall-clock throughput
// of an update-transaction loop with raw MemDevices vs the same loop behind
// write-through FaultyDevices with a constructed-but-never-armed injector;
// scripts/bench_baseline.json gates wrapped/baseline >= 0.99.
// ---------------------------------------------------------------------------

namespace {

double FaultOverheadPass(bool wrapped) {
  constexpr int kKeys = 256;
  constexpr int kTxns = 10000;
  MemDevice data(1ull << 30);
  MemDevice wal(1ull << 30);
  fault::FaultInjector injector(1);  // never armed: the production state
  fault::FaultyDevice fdata(&data, &injector,
                            fault::FaultyDevice::Options{false, "data"});
  fault::FaultyDevice fwal(&wal, &injector,
                           fault::FaultyDevice::Options{false, "wal"});
  DatabaseOptions opts;
  opts.data_device = wrapped ? static_cast<StorageDevice*>(&fdata) : &data;
  opts.wal_device = wrapped ? static_cast<StorageDevice*>(&fwal) : &wal;
  auto d = Database::Open(opts);
  SIAS_CHECK(d.ok());
  std::unique_ptr<Database> db = std::move(*d);
  auto t = db->CreateTable(
      "kv", Schema{{"k", ColumnType::kInt64}, {"v", ColumnType::kString}},
      VersionScheme::kSiasV);
  SIAS_CHECK(t.ok());
  Table* table = *t;
  VirtualClock clk;
  std::vector<Vid> vids;
  for (int64_t k = 0; k < kKeys; ++k) {
    auto txn = db->Begin(&clk);
    auto vid = table->Insert(txn.get(), Row{{k, std::string("seed")}});
    SIAS_CHECK(vid.ok());
    vids.push_back(*vid);
    SIAS_CHECK(db->Commit(txn.get()).ok());
  }
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kTxns; ++i) {
    auto txn = db->Begin(&clk);
    int64_t k = i % kKeys;
    SIAS_CHECK(
        table->Update(txn.get(), vids[k], Row{{k, "u" + std::to_string(i)}})
            .ok());
    SIAS_CHECK(db->Commit(txn.get()).ok());
  }
  auto secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  return static_cast<double>(kTxns) / secs;
}

void RunFaultOverhead(bench::BenchMetricsWriter* out) {
  // Interleaved best-of-N: wall-clock noise hits both sides equally and the
  // best rep approximates the contention-free cost.
  constexpr int kReps = 7;
  double base = 0, wrap = 0;
  FaultOverheadPass(false);  // warm-up (allocator, page cache)
  for (int r = 0; r < kReps; ++r) {
    base = std::max(base, FaultOverheadPass(false));
    wrap = std::max(wrap, FaultOverheadPass(true));
  }
  printf("fault-overhead: baseline %.0f txn/s, wrapped %.0f txn/s "
         "(ratio %.4f)\n",
         base, wrap, wrap / base);
  // Conforming `<bench>.<scheme>.<variant>` labels (the old hand-rolled
  // "microbench.fault_overhead.baseline" put a non-scheme token in the
  // scheme segment; see bench_common.h MetricsLabel).
  out->Add(bench::MetricsLabel("microbench", VersionScheme::kSiasV,
                               "fault_overhead_baseline"),
           "SIAS-V", nullptr, obs::MetricsRegistry::Default().Snapshot(),
           {{"ops_per_sec", base}});
  out->Add(bench::MetricsLabel("microbench", VersionScheme::kSiasV,
                               "fault_overhead_wrapped"),
           "SIAS-V", nullptr, obs::MetricsRegistry::Default().Snapshot(),
           {{"ops_per_sec", wrap}});
}

}  // namespace
}  // namespace sias

// Custom main instead of BENCHMARK_MAIN(): supports the shared
// `--metrics-out=<file>` contract — after the google-benchmark run, the
// process-global metrics registry (vidmap.*, flash.*, btree traversals the
// kernels above exercised) is dumped as one experiment. `--fault-overhead`
// runs the injector-overhead measurement instead of the kernel suite.
int main(int argc, char** argv) {
  sias::bench::BenchMetricsWriter out("microbench", &argc, argv);
  bool fault_overhead = false;
  {
    int keep = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--fault-overhead") == 0) {
        fault_overhead = true;
      } else {
        argv[keep++] = argv[i];
      }
    }
    argc = keep;
  }
  if (fault_overhead) {
    sias::RunFaultOverhead(&out);
    out.Write();
    return 0;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  // The kernel suite exercises every scheme's structures in one process:
  // a mixed-scheme label (`<bench>.mixed.<variant>`, see bench_common.h).
  out.Add(sias::bench::MixedSchemeLabel("microbench", "all"), "mixed",
          nullptr, sias::obs::MetricsRegistry::Default().Snapshot(), {});
  out.Write();
  return 0;
}
