// Tests for the YCSB workload module: Zipfian distribution, loader, and
// the runner's correctness under all three version schemes.
#include <gtest/gtest.h>

#include <map>

#include "device/mem_device.h"
#include "obs/metrics.h"
#include "workload/ycsb.h"

namespace sias {
namespace ycsb {
namespace {

TEST(ZipfianTest, InRangeAndSkewed) {
  Random rng(5);
  ZipfianGenerator zipf(1000, 0.99);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // The head must be much hotter than the tail: the top item should get
  // far more than the uniform share (20 hits).
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 400);
  // And a large fraction of keys drawn at least once (not degenerate).
  EXPECT_GT(counts.size(), 200u);
}

TEST(ZipfianTest, ThetaZeroIsNearUniform) {
  Random rng(5);
  ZipfianGenerator zipf(100, 0.01);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[zipf.Next(rng)]++;
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_LT(max_count, 3 * 20000 / 100);  // within 3x of uniform share
}

class YcsbTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  void SetUp() override {
    data_ = std::make_unique<MemDevice>(1ull << 30);
    wal_ = std::make_unique<MemDevice>(1ull << 30);
    DatabaseOptions opts;
    opts.data_device = data_.get();
    opts.wal_device = wal_.get();
    opts.pool_frames = 512;
    opts.lock_timeout_ms = 200;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto table = YcsbRunner::CreateTable(db_.get(), GetParam());
    ASSERT_TRUE(table.ok());
    table_ = *table;
  }

  std::unique_ptr<MemDevice> data_, wal_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
};

TEST_P(YcsbTest, LoadAndMixedRun) {
  YcsbConfig cfg;
  cfg.records = 500;
  cfg.operations = 2000;
  cfg.read_pct = 45;
  cfg.update_pct = 45;
  cfg.insert_pct = 5;
  cfg.scan_pct = 5;
  cfg.threads = 2;
  YcsbRunner runner(db_.get(), table_, cfg);
  VirtualClock clk;
  ASSERT_TRUE(runner.Load(&clk).ok());

  auto result = runner.Run(clk.now());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->errors, 0u) << result->first_error.ToString();
  uint64_t total = 0;
  for (uint64_t c : result->completed) total += c;
  EXPECT_GT(total, cfg.operations * 9 / 10);  // few conflicts allowed
  EXPECT_GT(result->OpsPerVSecond(), 0.0);

  // Every loaded key still resolvable; inserts appended beyond the range.
  VirtualClock check_clk(clk.now() + result->makespan);
  auto txn = db_->Begin(&check_clk);
  int count = 0;
  ASSERT_TRUE(table_->Scan(txn.get(), [&](Vid, const Row&) {
    count++;
    return true;
  }).ok());
  EXPECT_GE(count, static_cast<int>(cfg.records));
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_P(YcsbTest, UpdateOnlyMixStressesInvalidation) {
  YcsbConfig cfg;
  cfg.records = 200;
  cfg.operations = 1500;
  cfg.read_pct = 0;
  cfg.update_pct = 100;
  cfg.threads = 2;
  cfg.zipf_theta = 0.99;  // hot keys => real write-write conflicts
  YcsbRunner runner(db_.get(), table_, cfg);
  VirtualClock clk;
  ASSERT_TRUE(runner.Load(&clk).ok());
  obs::Counter* inplace = obs::MetricsRegistry::Default().GetCounter(
      "mvcc.inplace_invalidations");
  const int64_t before = inplace->Value();
  auto result = runner.Run(clk.now());
  ASSERT_TRUE(result.ok());
  const int64_t invalidations = inplace->Value() - before;
  EXPECT_EQ(result->errors, 0u) << result->first_error.ToString();
  // Under SI semantics with a hot zipfian head, some conflicts are expected
  // but most operations must succeed.
  uint64_t updates = result->completed[static_cast<int>(OpType::kUpdate)];
  EXPECT_GT(updates, cfg.operations / 2);
  if (GetParam() != VersionScheme::kSi) {
    EXPECT_EQ(invalidations, 0);
  } else {
    EXPECT_GT(invalidations, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, YcsbTest,
                         ::testing::Values(VersionScheme::kSi,
                                           VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         [](const auto& info) {
                           std::string n = sias::ToString(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace ycsb
}  // namespace sias
