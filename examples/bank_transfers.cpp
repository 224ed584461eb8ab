// Concurrent bank transfers under Snapshot Isolation.
//
// Demonstrates:
//   * genuine multi-threaded transactions with first-updater-wins conflict
//     handling and retries,
//   * the money-conservation invariant surviving concurrency,
//   * the physical difference between the SI baseline and SIAS on the same
//     workload (in-place invalidations vs appends).
//
//   build/examples/bank_transfers [accounts] [transfers_per_thread]
//
// Exits non-zero if money is not conserved, if SI reports no in-place
// invalidation, or if a SIAS scheme reports any.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/random.h"
#include "device/flash_ssd.h"
#include "device/mem_device.h"
#include "engine/database.h"
#include "index/key_codec.h"
#include "obs/metrics.h"

using namespace sias;

namespace {

struct RunOutcome {
  double total_balance;
  uint64_t committed;
  uint64_t conflicts;
  uint64_t inplace_invalidations;
  DeviceStats device;
};

RunOutcome RunBank(VersionScheme scheme, int accounts, int per_thread) {
  FlashConfig flash;
  flash.capacity_bytes = 4ull << 30;
  FlashSsd ssd(flash);
  MemDevice wal_device(1ull << 30);
  DatabaseOptions options;
  options.data_device = &ssd;
  options.wal_device = &wal_device;
  options.pool_frames = 128;  // small pool: writes actually reach the SSD
  options.lock_timeout_ms = 100;
  auto db = Database::Open(options);
  Table* accounts_table = *(*db)->CreateTable(
      "accounts",
      Schema{{"id", ColumnType::kInt64}, {"balance", ColumnType::kDouble}},
      scheme);

  // Seed accounts with 100.0 each.
  std::vector<Vid> vids;
  VirtualClock clock;
  {
    auto txn = (*db)->Begin(&clock);
    for (int i = 0; i < accounts; ++i) {
      vids.push_back(
          *accounts_table->Insert(txn.get(), Row{{int64_t{i}, 100.0}}));
    }
    (void)(*db)->Commit(txn.get());
  }

  // The registry counter is process-wide: count the transfers' share.
  obs::Counter* inplace = obs::MetricsRegistry::Default().GetCounter(
      "mvcc.inplace_invalidations");
  const int64_t inplace_before = inplace->Value();
  std::atomic<uint64_t> committed{0}, conflicts{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(1000 + t);
      VirtualClock clk;
      for (int i = 0; i < per_thread; ++i) {
        Vid from = vids[rng.Uniform(0, vids.size() - 1)];
        Vid to = vids[rng.Uniform(0, vids.size() - 1)];
        if (from == to) continue;
        double amount = static_cast<double>(rng.Uniform(1, 10));
        auto txn = (*db)->Begin(&clk);
        auto src = accounts_table->Get(txn.get(), from);
        auto dst = accounts_table->Get(txn.get(), to);
        if (!src.ok() || !dst.ok() || !src->has_value() ||
            !dst->has_value()) {
          (void)(*db)->Abort(txn.get());
          continue;
        }
        Row s = **src, d = **dst;
        s.Set(1, s.GetDouble(1) - amount);
        d.Set(1, d.GetDouble(1) + amount);
        Status s1 = accounts_table->Update(txn.get(), from, s);
        Status s2 = s1.ok() ? accounts_table->Update(txn.get(), to, d)
                            : s1;
        if (s1.ok() && s2.ok() && (*db)->Commit(txn.get()).ok()) {
          committed++;
        } else {
          conflicts++;
          if (txn->state() == TxnState::kActive) {
            (void)(*db)->Abort(txn.get());
          }
        }
        (void)(*db)->Tick(&clk);  // run maintenance in virtual time
      }
    });
  }
  for (auto& th : threads) th.join();
  const int64_t inplace_delta = inplace->Value() - inplace_before;

  // Verify conservation of money.
  RunOutcome out{};
  auto txn = (*db)->Begin(&clock);
  (void)accounts_table->Scan(txn.get(), [&](Vid, const Row& row) {
    out.total_balance += row.GetDouble(1);
    return true;
  });
  (void)(*db)->Commit(txn.get());
  VirtualClock flush_clock(clock.now());
  (void)(*db)->Checkpoint(&flush_clock);

  out.committed = committed.load();
  out.conflicts = conflicts.load();
  out.inplace_invalidations = static_cast<uint64_t>(inplace_delta);
  out.device = ssd.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int accounts = argc > 1 ? atoi(argv[1]) : 200;
  int per_thread = argc > 2 ? atoi(argv[2]) : 2000;

  printf("Concurrent transfers: %d accounts, 4 threads x %d transfers\n\n",
         accounts, per_thread);
  bool ok = true;
  for (VersionScheme scheme :
       {VersionScheme::kSi, VersionScheme::kSiasChains,
        VersionScheme::kSiasV}) {
    RunOutcome out = RunBank(scheme, accounts, per_thread);
    double expected = 100.0 * accounts;
    bool conserved = out.total_balance == expected;
    bool appends_only = out.inplace_invalidations == 0;
    ok = ok && conserved &&
         appends_only == (scheme != VersionScheme::kSi);
    printf("%-12s committed=%llu conflicts=%llu  total=%.2f (%s)\n",
           ToString(scheme), static_cast<unsigned long long>(out.committed),
           static_cast<unsigned long long>(out.conflicts),
           out.total_balance,
           conserved ? "conserved ✓" : "LOST MONEY ✗");
    printf("             in-place invalidations=%llu  flash: %s\n\n",
           static_cast<unsigned long long>(out.inplace_invalidations),
           out.device.ToString().c_str());
  }
  printf("Note how the SI baseline performs one in-place invalidation per "
         "update while both SIAS variants perform none — every SIAS "
         "modification is an append (paper, Figure 1).\n");
  if (!ok) {
    fprintf(stderr, "FAILED: money lost, or in-place invalidations do not "
                    "match the scheme\n");
  }
  return ok ? 0 : 1;
}
