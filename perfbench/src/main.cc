// perfbench: the repository benchmark driver.
//
//   perfbench --workload <tpcc|ycsb_read|ycsb_update> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the same workload with traced and untraced slices alternating, reports the
// per-layer metrics and writes a per-layer self-time table plus a chrome
// trace into --out-dir. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is 1 when any correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 600) return false;
    } else if (k == "--trace") {
      if (strcmp(v, "0") != 0 && strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

double ProcessCpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

/// Linear interpolation between closest ranks.
double Percentile(std::vector<int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }


class MetricsOut {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", value);
    if (!json_.empty()) json_ += ",";
    json_ += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" + unit +
             "\"}";
    printf("  %-36s %16.6f %s\n", name.c_str(), value, unit);
  }
  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

/// Wall-clock results of one measured round.
struct RoundResult {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t committed = 0;
  double p50_us = 0;  ///< headline operation
  double p99_us = 0;
  double virtual_p99_ms = 0;
};

/// Totals over a run's measured rounds.
struct RunTotals {
  double wall_s = 0;
  uint64_t headline_samples = 0;
  std::vector<RoundResult> rounds;
  std::vector<std::unique_ptr<ThreadStats>> stats;
  std::vector<std::unique_ptr<ThreadTrace>> traces;
  std::vector<VirtualWindow> windows;
  TimedDevice::Counts data;  ///< device deltas over the measured rounds
  TimedDevice::Counts wal;
  std::map<std::string, int64_t> counters;  ///< registry counter deltas
  std::vector<double> depth_p99;            ///< per round
  int64_t epoch_pending_end = 0;            ///< at the end of the last round
};

void AddCounts(const TimedDevice::Counts& before,
               const TimedDevice::Counts& after, TimedDevice::Counts* sum) {
  sum->reads += after.reads - before.reads;
  sum->writes += after.writes - before.writes;
  sum->read_bytes += after.read_bytes - before.read_bytes;
  sum->write_bytes += after.write_bytes - before.write_bytes;
  sum->wall_ns += after.wall_ns - before.wall_ns;
  sum->cpu_ns += after.cpu_ns - before.cpu_ns;
}

/// Runs one measured round on the freshly set-up engine: `threads()`
/// workers in a closed loop until the round's operations are used up. With
/// tracing, the traced flag flips every kSlice so traced and untraced
/// operations see the same engine state.
void RunRound(Workload* w, const Args& args, RunTotals* r) {
  constexpr auto kSlice = std::chrono::milliseconds(100);
  Phase phase;
  phase.remaining = w->round_ops();
  const int n = w->threads();
  std::atomic<int> running{n};
  std::vector<std::chrono::steady_clock::time_point> ends(n);
  uint64_t committed0 = 0;
  for (const auto& st : r->stats) committed0 += st->committed;
  Engine& eng = w->engine();
  TimedDevice::Counts data0 = eng.data->counts();
  TimedDevice::Counts wal0 = eng.wal->counts();
  w->BeginPhase();
  auto& registry = sias::obs::MetricsRegistry::Default();
  registry.ResetAll();
  double cpu0 = ProcessCpuSeconds();
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < n; ++t) {
    workers.emplace_back([&, t] {
      SetCurrentTrace(r->traces[t].get());
      w->Worker(t, phase, r->stats[t].get());
      SetCurrentTrace(nullptr);
      ends[t] = std::chrono::steady_clock::now();
      running.fetch_sub(1);
    });
  }
  while (args.trace && running.load() > 0) {
    std::this_thread::sleep_for(kSlice);
    phase.traced.store(!phase.traced.load());
  }
  for (auto& th : workers) th.join();
  auto t1 = *std::max_element(ends.begin(), ends.end());
  RoundResult round;
  round.wall_s = std::chrono::duration<double>(t1 - t0).count();
  round.cpu_s = ProcessCpuSeconds() - cpu0;
  r->wall_s += round.wall_s;
  std::vector<int64_t> lat, vlat;
  for (const auto& st : r->stats) {
    r->headline_samples += st->headline_wall.seen();
    lat.insert(lat.end(), st->headline_wall.samples().begin(),
               st->headline_wall.samples().end());
    vlat.insert(vlat.end(), st->headline_virtual.samples().begin(),
                st->headline_virtual.samples().end());
    st->headline_wall.Clear();
    st->headline_virtual.Clear();
  }
  round.p50_us = Percentile(lat, 50) / 1e3;
  round.p99_us = Percentile(lat, 99) / 1e3;
  round.virtual_p99_ms = Percentile(vlat, 99) / 1e6;

  sias::obs::MetricsSnapshot snap = registry.Snapshot();
  for (const auto& [name, v] : snap.counters) r->counters[name] += v;
  auto depth = snap.histograms.find("mvcc.traversal_depth");
  r->depth_p99.push_back(depth == snap.histograms.end() ? 0
                                                         : depth->second.p99);
  auto pending = snap.gauges.find("mvcc.epoch.pending");
  r->epoch_pending_end = pending == snap.gauges.end() ? 0 : pending->second;
  AddCounts(data0, eng.data->counts(), &r->data);
  AddCounts(wal0, eng.wal->counts(), &r->wal);
  for (const auto& st : r->stats) round.committed += st->committed;
  round.committed -= committed0;
  r->windows.push_back(w->Window(round.committed));
  r->rounds.push_back(round);
}

int64_t Counter(const RunTotals& r, const char* name) {
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

/// Per-layer metrics of a traced run, plus the self-time table and chrome
/// trace files.
void ReportLayers(const Args& args, const RunTotals& r, uint64_t committed,
                  const VirtualWindow& virt, MetricsOut* out) {
  std::vector<const ThreadTrace*> traces;
  for (const auto& t : r.traces) traces.push_back(t.get());
  KindTotals k[kNumSpanKinds];
  MergeTotals(traces, k);
  auto kt = [&](SpanKind s) -> const KindTotals& {
    return k[static_cast<int>(s)];
  };
  const double ops = static_cast<double>(committed);
  const KindTotals& root = kt(SpanKind::kOp);
  const double traced_ops = static_cast<double>(root.calls);

  struct Call {
    SpanKind kind;
    const char* metric;
  };
  for (Call c : {Call{SpanKind::kBegin, "engine.begin"},
                 Call{SpanKind::kCommit, "engine.commit"},
                 Call{SpanKind::kGet, "table.get"},
                 Call{SpanKind::kUpdate, "table.update"},
                 Call{SpanKind::kNewOrder, "tpcc.new_order"},
                 Call{SpanKind::kPayment, "tpcc.payment"},
                 Call{SpanKind::kOrderStatus, "tpcc.order_status"},
                 Call{SpanKind::kDelivery, "tpcc.delivery"},
                 Call{SpanKind::kStockLevel, "tpcc.stock_level"}}) {
    const KindTotals& t = kt(c.kind);
    out->Add(std::string(c.metric) + "_ns", Ratio(t.wall_ns, t.calls), "ns");
    out->Add(std::string(c.metric) + "_cpu_ns", Ratio(t.cpu_ns, t.calls),
             "ns");
  }
  const KindTotals& tick = kt(SpanKind::kTick);
  out->Add("engine.tick_ns", Ratio(tick.wall_ns, tick.calls), "ns");
  out->Add("engine.tick_max_ms", tick.max_ns / 1e6, "ms");
  out->Add("engine.tick_share", Ratio(tick.wall_ns, root.wall_ns), "ratio");

  double hits = Counter(r, "buffer.hits");
  double misses = Counter(r, "buffer.misses");
  out->Add("buffer.hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Add("buffer.misses_per_op", Ratio(misses, ops), "count");
  out->Add("buffer.evictions_per_op",
           Ratio(Counter(r, "buffer.evictions"), ops), "count");
  out->Add("buffer.writebacks_per_op",
           Ratio(Counter(r, "buffer.writebacks"), ops), "count");
  out->Add("wal.records_per_op", Ratio(Counter(r, "wal.records"), ops),
           "count");
  out->Add("wal.kb_per_op",
           Ratio(Counter(r, "wal.appended_bytes") / 1024.0, ops), "KB");
  out->Add("wal.fpi_per_op", Ratio(Counter(r, "wal.fpi_records"), ops),
           "count");
  out->Add("wal.flushes_per_op", Ratio(Counter(r, "wal.flushes"), ops),
           "count");

  out->Add("device.data.ns_per_op", Ratio(r.data.wall_ns, traced_ops), "ns");
  out->Add("device.data.reads_per_op", Ratio(r.data.reads, ops), "count");
  out->Add("device.wal.ns_per_op", Ratio(r.wal.wall_ns, traced_ops), "ns");
  out->Add("device.wal.write_kb_per_op",
           Ratio(r.wal.write_bytes / 1024.0, ops), "KB");

  out->Add("mvcc.version_hops_per_read",
           Ratio(Counter(r, "mvcc.version_hops"), Counter(r, "mvcc.reads")),
           "count");
  out->Add("mvcc.traversal_depth_p99", Median(r.depth_p99), "count");
  out->Add("mvcc.epoch.pending_end", r.epoch_pending_end, "count");
  out->Add("mvcc.gc.versions_discarded",
           Counter(r, "mvcc.gc.versions_discarded"), "count");

  uint64_t retries = 0;
  for (const auto& st : r.stats) retries += st->retries;
  out->Add("txn.retries_per_op", Ratio(retries, ops), "count");
  out->Add("tpcc.notpm", Ratio(virt.new_orders, virt.vseconds / 60), "1/min");

  // Self time per layer, per traced op; the root's self time is the part of
  // each op no layer span covers.
  const char* layers[] = {"workload", "engine", "mvcc", "device"};
  double layer_self[4] = {0, 0, 0, 0};
  for (int l = 0; l < 4; ++l) {
    for (int i = 0; i < kNumSpanKinds; ++i) {
      if (strcmp(SpanLayer(static_cast<SpanKind>(i)), layers[l]) == 0) {
        layer_self[l] += k[i].self_ns;
      }
    }
    out->Add(std::string("self.") + layers[l] + "_ns_per_op",
             Ratio(layer_self[l], traced_ops), "ns");
  }
  out->Add("trace.unattributed_ns_per_op", Ratio(root.self_ns, traced_ops),
           "ns");
  out->Add("trace.attributed_share", 1.0 - Ratio(root.self_ns, root.wall_ns),
           "ratio");
  // Throughput lost to tracing: 1 - traced / untraced iterations per second
  // of a client's time.
  double n[2] = {0, 0}, ns[2] = {0, 0};
  for (const auto& st : r.stats) {
    for (int i = 0; i < 2; ++i) {
      n[i] += st->iterations[i];
      ns[i] += st->iteration_ns[i];
    }
  }
  double traced_rate = Ratio(n[1], ns[1]);
  double untraced_rate = Ratio(n[0], ns[0]);
  out->Add("trace.overhead",
           untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0, "ratio");

  std::string table;
  char line[256];
  snprintf(line, sizeof(line), "%-18s %-12s %10s %12s %12s %12s %8s\n",
           "span", "layer", "calls", "wall_ns/call", "cpu_ns/call",
           "self_ns/op", "self%");
  table += line;
  for (int i = 0; i < kNumSpanKinds; ++i) {
    if (k[i].calls == 0) continue;
    snprintf(line, sizeof(line),
             "%-18s %-12s %10llu %12.0f %12.0f %12.0f %7.2f%%\n",
             SpanName(static_cast<SpanKind>(i)),
             SpanLayer(static_cast<SpanKind>(i)),
             static_cast<unsigned long long>(k[i].calls),
             Ratio(k[i].wall_ns, k[i].calls), Ratio(k[i].cpu_ns, k[i].calls),
             Ratio(k[i].self_ns, traced_ops),
             100 * Ratio(k[i].self_ns, root.wall_ns));
    table += line;
  }
  snprintf(line, sizeof(line), "\n%-18s %12s %8s\n", "layer", "self_ns/op",
           "self%");
  table += line;
  for (int l = 0; l < 4; ++l) {
    snprintf(line, sizeof(line), "%-18s %12.0f %7.2f%%\n", layers[l],
             Ratio(layer_self[l], traced_ops),
             100 * Ratio(layer_self[l], root.wall_ns));
    table += line;
  }
  snprintf(line, sizeof(line), "%-18s %12.0f %7.2f%%\n", "unattributed",
           Ratio(root.self_ns, traced_ops),
           100 * Ratio(root.self_ns, root.wall_ns));
  table += line;
  std::filesystem::create_directories(args.out_dir);
  std::string base = args.out_dir + "/" + args.workload + "-seed" +
                     std::to_string(args.seed);
  std::ofstream(base + ".selftime.txt") << table;
  std::ofstream(base + ".trace.json") << ChromeTraceJson(traces);
  printf("self time over %.0f traced ops (the op row is the unattributed "
         "remainder):\n%s",
         traced_ops, table.c_str());
  printf("wrote %s.selftime.txt and %s.trace.json\n", base.c_str(),
         base.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: perfbench --workload <tpcc|ycsb_read|ycsb_update> "
            "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  RunTotals r;
  for (int t = 0; t < w->threads(); ++t) {
    r.stats.push_back(std::make_unique<ThreadStats>(args.seed * 131 + t));
    r.traces.push_back(std::make_unique<ThreadTrace>(t));
  }
  // Rounds of set-up plus a fixed measured round repeat until the measured
  // time reaches --seconds. Round i runs on inputs from (seed, i), so a run
  // averages over several input sets; virtual-time results use the first
  // kVirtualRounds rounds only, which every run completes, so they repeat
  // exactly for a seed on the single-threaded workload.
  constexpr size_t kVirtualRounds = 4;
  std::vector<double> setup_s;
  bool correct = true;
  std::string problem;
  auto fail = [&](const std::string& what) {
    if (correct) problem = what;
    correct = false;
  };
  while (r.wall_s < args.seconds || r.rounds.size() < kVirtualRounds) {
    auto s0 = std::chrono::steady_clock::now();
    sias::Status s = w->Setup(Mix(args.seed, r.rounds.size()));
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - s0)
                          .count());
    if (!s.ok()) {
      fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    RunRound(w.get(), args, &r);
    std::string verify = w->Verify();
    if (!verify.empty()) fail(verify);
  }

  uint64_t attempted = 0, committed = 0, failed = 0, user_aborts = 0,
           retries = 0;
  for (const auto& st : r.stats) {
    attempted += st->attempted;
    committed += st->committed;
    failed += st->failed;
    user_aborts += st->user_aborts;
    retries += st->retries;
    if (!st->correct) fail(st->first_problem);
  }
  if (committed == 0) fail("no operation committed");
  VirtualWindow total;
  for (size_t i = 0; i < kVirtualRounds; ++i) {
    const VirtualWindow& v = r.windows[i];
    total.committed += v.committed;
    total.new_orders += v.new_orders;
    total.vseconds += v.vseconds;
    total.data_write_bytes += v.data_write_bytes;
  }
  std::vector<double> tput, cpu, p50, p99, vp99;
  for (size_t i = 0; i < r.rounds.size(); ++i) {
    const RoundResult& x = r.rounds[i];
    tput.push_back(Ratio(x.committed, x.wall_s));
    cpu.push_back(Ratio(x.cpu_s * 1e6, x.committed));
    p50.push_back(x.p50_us);
    p99.push_back(x.p99_us);
    if (i < kVirtualRounds) vp99.push_back(x.virtual_p99_ms);
  }

  printf("workload %s seed %llu: %zu round(s) of %lld ops, %.2f s measured, "
         "%d thread(s), %llu attempted, %llu committed, %llu failed, "
         "%llu user aborts, %llu retries\n",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         r.windows.size(), static_cast<long long>(w->round_ops()), r.wall_s,
         w->threads(), static_cast<unsigned long long>(attempted),
         static_cast<unsigned long long>(committed),
         static_cast<unsigned long long>(failed),
         static_cast<unsigned long long>(user_aborts),
         static_cast<unsigned long long>(retries));
  std::vector<double> sorted = tput;
  std::sort(sorted.begin(), sorted.end());
  printf("per-round throughput: min %.0f, median %.0f, max %.0f ops/s\n",
         sorted.front(), Median(sorted), sorted.back());
  printf("headline op %s: %llu samples; virtual (first %zu rounds): %.3f vs, "
         "%llu new-orders, notpm %.1f, p99 %.3f ms\n",
         w->headline(), static_cast<unsigned long long>(r.headline_samples),
         kVirtualRounds, total.vseconds,
         static_cast<unsigned long long>(total.new_orders),
         Ratio(total.new_orders, total.vseconds / 60), Median(vp99));
  if (!correct) fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());

  MetricsOut out;
  // Wall-clock metrics are medians over rounds, so a round disturbed by
  // another process on the machine does not move them.
  if (!args.trace) {
    out.Add("throughput_ops_s", Median(tput), "1/s");
    out.Add("op_p50_us", Median(p50), "us");
    out.Add("op_p99_us", Median(p99), "us");
    out.Add("cpu_us_per_op", Median(cpu), "us");
    out.Add("virtual_throughput", Ratio(total.committed, total.vseconds),
            "1/s");
    out.Add("device_write_kb_per_op",
            Ratio(total.data_write_bytes / 1024.0, total.committed), "KB");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.Add("setup_s", Median(setup_s), "s");
  } else {
    out.Add("virtual_op_p99_ms", Median(vp99), "ms");
    ReportLayers(args, r, committed, total, &out);
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         correct ? "true" : "false", static_cast<unsigned long long>(attempted),
         static_cast<unsigned long long>(failed), out.json().c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
