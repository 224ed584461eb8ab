// Time travel through version chains.
//
// Builds a data item with a long version history, keeps snapshots open at
// several points of that history, and shows each snapshot reading "its"
// version — then walks and prints the physical SIAS-Chains structure
// (entrypoint + backward pointers, paper §4.1) and finally garbage-collects
// the versions no live snapshot needs.
//
//   build/examples/time_travel
#include <cstdio>
#include <vector>

#include "core/sias_table.h"
#include "device/flash_ssd.h"
#include "device/mem_device.h"
#include "engine/database.h"
#include "obs/metrics.h"

using namespace sias;

int main() {
  FlashConfig flash;
  flash.capacity_bytes = 1ull << 30;
  FlashSsd ssd(flash);
  MemDevice wal_device(1ull << 30);
  DatabaseOptions options;
  options.data_device = &ssd;
  options.wal_device = &wal_device;
  options.pool_frames = 256;
  auto db = Database::Open(options);
  Table* docs = *(*db)->CreateTable(
      "documents",
      Schema{{"revision", ColumnType::kInt64}, {"text", ColumnType::kString}},
      VersionScheme::kSiasChains);
  auto* sias = static_cast<SiasTable*>(docs->heap());

  VirtualClock clock;
  Vid vid;
  {
    auto txn = (*db)->Begin(&clock);
    vid = *docs->Insert(txn.get(),
                        Row{{int64_t{0}, std::string("draft zero")}});
    (void)(*db)->Commit(txn.get());
  }

  // Five revisions; a snapshot parked before each one.
  std::vector<std::unique_ptr<Transaction>> snapshots;
  const char* texts[] = {"first edit", "second edit", "third edit",
                         "final text", "post-final tweak"};
  for (int rev = 1; rev <= 5; ++rev) {
    snapshots.push_back((*db)->Begin(&clock));  // sees revision rev-1
    auto txn = (*db)->Begin(&clock);
    (void)docs->Update(txn.get(), vid,
                       Row{{int64_t{rev}, std::string(texts[rev - 1])}});
    (void)(*db)->Commit(txn.get());
  }

  printf("Each snapshot reads the revision that was current when it "
         "started:\n");
  for (size_t i = 0; i < snapshots.size(); ++i) {
    auto row = docs->Get(snapshots[i].get(), vid);
    printf("  snapshot %zu -> rev %lld: \"%s\"\n", i,
           static_cast<long long>((*row)->GetInt(0)),
           (*row)->GetString(1).c_str());
  }

  // The physical chain: newest first, linked by the on-tuple *ptr.
  auto chain = sias->ChainOf(vid, &clock);
  printf("\nPhysical version chain (entrypoint first): ");
  for (Tid t : *chain) printf("%s ", t.ToString().c_str());
  printf("\n  %zu versions; the VidMap points at the entrypoint; no version "
         "was ever modified in place.\n",
         chain->size());

  // Release every snapshot; the GC horizon then passes all old versions
  // and vacuum truncates the chain down to the newest committed version.
  // The engine counts what GC does in the metrics registry.
  for (auto& snap : snapshots) (void)(*db)->Commit(snap.get());
  obs::Counter* discarded = obs::MetricsRegistry::Default().GetCounter(
      "mvcc.gc.versions_discarded");
  const int64_t discarded_before = discarded->Value();
  (void)(*db)->Vacuum(&clock);
  auto after = sias->ChainOf(vid, &clock);
  printf("\nAfter releasing all snapshots and garbage collection: chain has "
         "%zu reachable version(s), %lld version(s) were discarded "
         "(mvcc.gc.versions_discarded).\n",
         after->size(),
         static_cast<long long>(discarded->Value() - discarded_before));
  auto txn = (*db)->Begin(&clock);
  auto row = docs->Get(txn.get(), vid);
  printf("The current revision is intact: rev %lld \"%s\"\n",
         static_cast<long long>((*row)->GetInt(0)),
         (*row)->GetString(1).c_str());
  (void)(*db)->Commit(txn.get());
  return 0;
}
