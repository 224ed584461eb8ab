// ABL4 — update-share ablation on a YCSB-style key-value workload.
//
// The paper's write-reduction claim hinges on the share of modifications in
// the workload: every SI update is an in-place page invalidation + an
// arbitrary-placement write, every SIAS update is an append. Sweeping the
// YCSB read/update mix (workloads C, B, A, and a write-heavy 5/95 point)
// makes the crossover explicit: at 0% updates the schemes converge; the
// more update-heavy the mix, the wider SIAS's advantage in device writes
// and throughput.
//
// Usage: bench_ycsb [records] [operations] [--metrics-out=<file>]
#include <cstdlib>

#include "bench/bench_common.h"
#include "workload/ycsb.h"

using namespace sias;
using namespace sias::bench;

namespace {

struct Cell {
  double ops_per_vsec;
  double written_mb;
  double read_p99_ms;
};

Cell RunMix(VersionScheme scheme, int read_pct, uint64_t records,
            uint64_t operations, BenchMetricsWriter* out) {
  FlashConfig fc;
  fc.capacity_bytes = 4ull << 30;
  FlashSsd ssd(fc);
  MemDevice wal(4ull << 30, 20 * kVMicrosecond, 60 * kVMicrosecond);
  DatabaseOptions opts;
  opts.data_device = &ssd;
  opts.wal_device = &wal;
  opts.pool_frames = 1024;
  opts.checkpoint_interval = 4 * kVSecond;
  opts.bgwriter_interval = 20 * kVMillisecond;
  opts.flush_policy = scheme == VersionScheme::kSi
                          ? FlushPolicy::kT1BackgroundWriter
                          : FlushPolicy::kT2Checkpoint;
  auto db = Database::Open(opts);
  SIAS_CHECK(db.ok());
  auto table = ycsb::YcsbRunner::CreateTable(db->get(), scheme);
  SIAS_CHECK(table.ok());

  ycsb::YcsbConfig cfg;
  cfg.records = records;
  cfg.operations = operations;
  cfg.read_pct = read_pct;
  cfg.update_pct = 100 - read_pct;
  ycsb::YcsbRunner runner(db->get(), *table, cfg);
  VirtualClock load_clk;
  SIAS_CHECK(runner.Load(&load_clk).ok());
  // Scope the process-global metric counters to this mix's measurement.
  obs::MetricsRegistry::Default().ResetAll();

  uint64_t written_before = ssd.stats().bytes_written;
  auto result = runner.Run(load_clk.now());
  SIAS_CHECK_MSG(result.ok(), "%s", result.status().ToString().c_str());
  if (result->errors > 0) {
    fprintf(stderr, "  [warn] %llu errors: %s\n",
            static_cast<unsigned long long>(result->errors),
            result->first_error.ToString().c_str());
  }
  // Flush any trailing dirty state so both schemes account all their bytes.
  VirtualClock flush_clk(load_clk.now() + result->makespan);
  SIAS_CHECK((*db)->Checkpoint(&flush_clk).ok());
  std::string label =
      MetricsLabel("ycsb", scheme,
                   std::string("r").append(std::to_string(read_pct)));
  EmitMetricsLine(label, db->get());
  Cell cell;
  cell.ops_per_vsec = result->OpsPerVSecond();
  cell.written_mb = Mb(ssd.stats().bytes_written - written_before);
  cell.read_p99_ms =
      static_cast<double>(result->latency[0].Percentile(99)) / kVMillisecond;
  std::map<std::string, double> numbers;
  numbers["read_pct"] = read_pct;
  numbers["ops_per_vsec"] = cell.ops_per_vsec;
  numbers["written_mb"] = cell.written_mb;
  numbers["read_p99_ms"] = cell.read_p99_ms;
  out->Add(label, SchemeName(scheme), &ssd, (*db)->DumpMetrics(), numbers);
  return cell;
}

// io-depth axis: SIAS-V, read-only mix, multi-get batches of 8 over a pool
// that cannot hold the table — sweeping io_depth at fixed batch isolates
// the async pipelining (depth 1 resolves the identical batches
// sequentially, so it is the sync baseline for the throughput gate).
double RunDepth(size_t io_depth, uint64_t records, uint64_t operations,
                BenchMetricsWriter* out) {
  FlashConfig fc;
  fc.capacity_bytes = 4ull << 30;
  FlashSsd ssd(fc);
  MemDevice wal(4ull << 30, 20 * kVMicrosecond, 60 * kVMicrosecond);
  DatabaseOptions opts;
  opts.data_device = &ssd;
  opts.wal_device = &wal;
  opts.pool_frames = 128;
  opts.checkpoint_interval = 4 * kVSecond;
  opts.bgwriter_interval = 20 * kVMillisecond;
  opts.flush_policy = FlushPolicy::kT2Checkpoint;
  auto db = Database::Open(opts);
  SIAS_CHECK(db.ok());
  auto table = ycsb::YcsbRunner::CreateTable(db->get(), VersionScheme::kSiasV);
  SIAS_CHECK(table.ok());

  ycsb::YcsbConfig cfg;
  cfg.records = records;
  cfg.operations = operations;
  cfg.read_pct = 100;
  cfg.update_pct = 0;
  cfg.read_batch = 8;
  cfg.io_depth = io_depth;
  cfg.threads = 2;
  ycsb::YcsbRunner runner(db->get(), *table, cfg);
  VirtualClock load_clk;
  SIAS_CHECK(runner.Load(&load_clk).ok());
  obs::MetricsRegistry::Default().ResetAll();

  auto result = runner.Run(load_clk.now());
  SIAS_CHECK_MSG(result.ok(), "%s", result.status().ToString().c_str());
  std::string label =
      MetricsLabel("ycsb", VersionScheme::kSiasV,
                   std::string("d").append(std::to_string(io_depth)));
  EmitMetricsLine(label, db->get());
  std::map<std::string, double> numbers;
  numbers["io_depth"] = static_cast<double>(io_depth);
  numbers["ops_per_vsec"] = result->OpsPerVSecond();
  numbers["read_p99_ms"] =
      static_cast<double>(result->latency[0].Percentile(99)) / kVMillisecond;
  out->Add(label, SchemeName(VersionScheme::kSiasV), &ssd,
           (*db)->DumpMetrics(), numbers);
  return result->OpsPerVSecond();
}

}  // namespace

int main(int argc, char** argv) {
  BenchMetricsWriter out("ycsb", &argc, argv);
  uint64_t records = argc > 1 ? strtoull(argv[1], nullptr, 10) : 20000;
  uint64_t operations = argc > 2 ? strtoull(argv[2], nullptr, 10) : 40000;

  printf("ABL4: YCSB read/update mix sweep — %llu records, %llu ops, "
         "zipfian\n",
         static_cast<unsigned long long>(records),
         static_cast<unsigned long long>(operations));
  printf("%-18s | %12s %10s | %12s %10s | %10s\n", "mix (read/update)",
         "SI ops/vs", "SI MB", "SIAS ops/vs", "SIAS MB", "write red");
  struct MixPoint {
    const char* name;
    int read_pct;
  };
  for (MixPoint mix : {MixPoint{"C 100/0", 100}, MixPoint{"B 95/5", 95},
                       MixPoint{"A 50/50", 50}, MixPoint{"W 5/95", 5}}) {
    Cell si =
        RunMix(VersionScheme::kSi, mix.read_pct, records, operations, &out);
    Cell sias = RunMix(VersionScheme::kSiasChains, mix.read_pct, records,
                       operations, &out);
    double red = si.written_mb > 0
                     ? 100.0 * (1.0 - sias.written_mb / si.written_mb)
                     : 0.0;
    printf("%-18s | %12.0f %10.1f | %12.0f %10.1f | %9.0f%%\n", mix.name,
           si.ops_per_vsec, si.written_mb, sias.ops_per_vsec,
           sias.written_mb, red);
  }
  printf("\nExpected shape: the write-volume gap between SI and SIAS opens "
         "with the update share and vanishes on the read-only mix.\n");

  printf("\nio-depth axis: SIAS-V read-only multi-get (batch 8), small "
         "pool, flash-resident\n");
  printf("%8s | %14s | %8s\n", "depth", "ops/vs", "vs d1");
  double d1 = 0.0;
  for (size_t depth : {1ul, 4ul, 8ul}) {
    double ops = RunDepth(depth, records, operations, &out);
    if (depth == 1) d1 = ops;
    printf("%8zu | %14.0f | %7.2fx\n", depth, ops,
           d1 > 0 ? ops / d1 : 0.0);
  }
  out.Write();
  return 0;
}
