// Randomized robustness suites for the WAL and the recovery path:
//  * arbitrary corruption anywhere in the log must never crash the reader
//    or yield a record that was not written (CRC integrity property) — and
//    corruption *inside* the log (intact records follow the damage) must be
//    reported loudly as kCorruption, never silently truncated;
//  * randomized crash points (device snapshots mid-run) must always recover
//    to a committed-prefix state.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "device/mem_device.h"
#include "engine/database.h"
#include "index/key_codec.h"
#include "wal/wal.h"

namespace sias {
namespace {

class WalCorruptionTest : public ::testing::TestWithParam<int> {};

TEST_P(WalCorruptionTest, ReaderSurvivesArbitraryCorruption) {
  Random rng(GetParam());
  MemDevice device(16ull << 20);
  WalWriter writer(&device, 0, 16ull << 20);
  VirtualClock clk;

  // Write a few hundred records with recognizable bodies.
  std::vector<std::string> bodies;
  Lsn last = 0;
  Lsn last_record_start = 0;
  for (int i = 0; i < 300; ++i) {
    WalRecord rec;
    rec.type = WalRecordType::kHeapInsert;
    rec.xid = 2 + i;
    rec.relation = 1;
    rec.tid = Tid{static_cast<PageNumber>(i), 0};
    rec.body = "body-" + std::to_string(i) +
               std::string(rng.Uniform(0, 200), 'x');
    bodies.push_back(rec.body);
    last_record_start = last;
    auto l = writer.Append(rec);
    ASSERT_TRUE(l.ok());
    last = *l;
  }
  ASSERT_TRUE(writer.FlushTo(last, &clk).ok());

  // Corrupt a handful of random bytes, tracking whether any landed strictly
  // before the final record (= unambiguously mid-log).
  bool hit_mid_log = false;
  for (int hit = 0; hit < 5; ++hit) {
    uint64_t offset = rng.Uniform(0, last - 1) / 512 * 512;
    std::vector<uint8_t> blk(512);
    ASSERT_TRUE(device.Read(offset, 512, blk.data(), nullptr).ok());
    uint64_t byte = rng.Uniform(0, 511);
    blk[byte] ^= static_cast<uint8_t>(rng.Uniform(1, 255));
    ASSERT_TRUE(device.Write(offset, 512, blk.data(), nullptr).ok());
    if (offset + byte < last_record_start) hit_mid_log = true;
  }

  // The reader must return a prefix of the written records, bit-exact, and
  // then stop at the first damaged one. Damage planted mid-log (valid
  // records follow it) must surface as kCorruption; only damage in the very
  // last record can legitimately read as a benign torn tail.
  WalReader reader(&device, 0, 16ull << 20);
  size_t i = 0;
  bool corruption_reported = false;
  for (;;) {
    auto rec = reader.Next();
    if (!rec.ok()) {
      EXPECT_EQ(rec.status().code(), StatusCode::kCorruption)
          << rec.status().ToString();
      corruption_reported = true;
      break;
    }
    if (!rec->has_value()) break;
    ASSERT_LT(i, bodies.size());
    EXPECT_EQ((*rec)->body, bodies[i]) << "record " << i;
    i++;
  }
  // No garbage came through, and the reader stopped at (or before) the
  // damage...
  EXPECT_LE(i, bodies.size());
  // ...loudly whenever a flip landed before the final record: valid records
  // follow such damage, so reading past it quietly (or stopping at it as a
  // "torn tail") would silently truncate durable history.
  if (hit_mid_log) {
    EXPECT_TRUE(corruption_reported)
        << "mid-log corruption was not reported (read " << i << "/"
        << bodies.size() << " records)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalCorruptionTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Randomized crash points: run committed work, snapshot the devices at an
// arbitrary moment ("power cut"), recover from the snapshot, verify that
// exactly the committed prefix (plus nothing else) is visible.
// ---------------------------------------------------------------------------

class CrashPointTest
    : public ::testing::TestWithParam<std::tuple<VersionScheme, int>> {};

TEST_P(CrashPointTest, RecoversCommittedPrefix) {
  auto [scheme, seed] = GetParam();
  Random rng(seed);
  auto data = std::make_unique<MemDevice>(1ull << 30);
  auto wal = std::make_unique<MemDevice>(1ull << 30);

  auto open_db = [&](std::unique_ptr<Database>* db, Table** table) {
    DatabaseOptions opts;
    opts.data_device = data.get();
    opts.wal_device = wal.get();
    opts.pool_frames = 64;  // tiny: forces evictions => data pages on device
    auto d = Database::Open(opts);
    ASSERT_TRUE(d.ok());
    *db = std::move(*d);
    auto t = (*db)->CreateTable(
        "kv", Schema{{"k", ColumnType::kInt64}, {"v", ColumnType::kString}},
        scheme);
    ASSERT_TRUE(t.ok());
    *table = *t;
    ASSERT_TRUE((*db)->CreateIndex(*table, "kv_pk", [](const Row& r) {
      return IntKey(r.GetInt(0));
    }).ok());
  };

  std::unique_ptr<Database> db;
  Table* table = nullptr;
  open_db(&db, &table);

  VirtualClock clk;
  std::map<int64_t, std::string> committed;  // key -> value
  std::map<int64_t, Vid> vids;
  int ops = static_cast<int>(rng.Uniform(30, 150));
  int checkpoint_at = static_cast<int>(rng.Uniform(0, ops));
  for (int i = 0; i < ops; ++i) {
    if (i == checkpoint_at) {
      ASSERT_TRUE(db->Checkpoint(&clk).ok());
    }
    int64_t key = static_cast<int64_t>(rng.Uniform(0, 19));
    std::string val = std::string("v").append(std::to_string(i));
    auto txn = db->Begin(&clk);
    Status s;
    if (vids.count(key)) {
      s = table->Update(txn.get(), vids[key], Row{{key, val}});
    } else {
      auto vid = table->Insert(txn.get(), Row{{key, val}});
      ASSERT_TRUE(vid.ok());
      vids[key] = *vid;
      s = Status::OK();
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (rng.OneIn(5)) {
      ASSERT_TRUE(db->Abort(txn.get()).ok());
      if (committed.count(key) == 0) vids.erase(key);
    } else {
      ASSERT_TRUE(db->Commit(txn.get()).ok());
      committed[key] = val;
    }
  }
  // Power cut: drop the Database (loses the buffer pool + in-memory maps).
  db.reset();

  open_db(&db, &table);
  ASSERT_TRUE(db->Recover().ok());

  // Every committed key readable with its last committed value via index.
  auto txn = db->Begin(&clk);
  for (const auto& [key, val] : committed) {
    auto hits = table->IndexLookup(txn.get(), 0, Slice(IntKey(key)));
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    ASSERT_EQ(hits->size(), 1u) << "key " << key;
    EXPECT_EQ((*hits)[0].second.GetString(1), val) << "key " << key;
  }
  // And nothing extra.
  int count = 0;
  ASSERT_TRUE(table->Scan(txn.get(), [&](Vid, const Row& row) {
    EXPECT_TRUE(committed.count(row.GetInt(0)) > 0);
    count++;
    return true;
  }).ok());
  EXPECT_EQ(count, static_cast<int>(committed.size()));
  ASSERT_TRUE(db->Commit(txn.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, CrashPointTest,
    ::testing::Combine(::testing::Values(VersionScheme::kSi,
                                         VersionScheme::kSiasChains,
                                         VersionScheme::kSiasV),
                       ::testing::Values(7, 13, 21, 34)),
    [](const auto& info) {
      std::string n = ToString(std::get<0>(info.param));
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sias
