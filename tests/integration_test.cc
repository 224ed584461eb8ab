// Cross-module integration tests: TPC-C over the full engine with crash
// recovery, GC-then-crash interactions, and SIAS structures rebuilt from
// simulated-device state.
#include <gtest/gtest.h>

#include <memory>

#include "device/flash_ssd.h"
#include "device/mem_device.h"
#include "workload/tpcc_driver.h"
#include "workload/tpcc_gen.h"

namespace sias {
namespace {

class IntegrationTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  static constexpr int kWarehouses = 2;

  void SetUp() override {
    FlashConfig fc;
    fc.capacity_bytes = 2ull << 30;
    ssd_ = std::make_unique<FlashSsd>(fc);
    wal_ = std::make_unique<MemDevice>(2ull << 30);
    Reopen();
    scale_.customers_per_district = 12;
    scale_.items = 100;
    scale_.orders_per_district = 12;
    Random rng(3);
    ASSERT_TRUE(
        tpcc::LoadTpcc(db_.get(), tables_, scale_, kWarehouses, rng, &clk_)
            .ok());
  }

  void Reopen() {
    DatabaseOptions opts;
    opts.data_device = ssd_.get();
    opts.wal_device = wal_.get();
    opts.pool_frames = 1024;
    opts.lock_timeout_ms = 200;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto tables = tpcc::CreateTpccTables(db_.get(), GetParam());
    ASSERT_TRUE(tables.ok());
    tables_ = *tables;
  }

  /// Runs a short concurrent TPC-C burst.
  tpcc::TpccResult RunBurst(VTime start) {
    tpcc::TpccConfig cfg;
    cfg.warehouses = kWarehouses;
    cfg.scale = scale_;
    tpcc::TpccExecutor exec(db_.get(), tables_, cfg);
    tpcc::DriverConfig dcfg;
    dcfg.terminals = 4;
    dcfg.threads = 2;
    dcfg.duration = kVSecond / 4;
    dcfg.start_time = start;
    tpcc::TpccDriver driver(db_.get(), &exec, dcfg);
    auto r = driver.Run();
    EXPECT_TRUE(r.ok());
    return *r;
  }

  /// Sums committed order counts per district consistency (TPC-C cond. 1).
  void CheckDistrictOrderConsistency() {
    VirtualClock clk(db_->max_vtime());
    auto txn = db_->Begin(&clk);
    for (int64_t w = 1; w <= kWarehouses; ++w) {
      for (int64_t d = 1; d <= scale_.districts_per_wh; ++d) {
        auto dist = tables_.district->IndexLookup(
            txn.get(), tpcc::TpccTables::kDistrictPk,
            Slice(tpcc::DistrictKey(w, d)));
        ASSERT_TRUE(dist.ok());
        ASSERT_EQ(dist->size(), 1u) << "w" << w << " d" << d;
        int64_t next_o = (*dist)[0].second.GetInt(tpcc::dcol::kNextOid);
        int64_t max_o = 0;
        ASSERT_TRUE(tables_.orders
                        ->IndexRange(txn.get(), tpcc::TpccTables::kOrdersPk,
                                     Slice(tpcc::OrderKey(w, d, 0)),
                                     Slice(tpcc::OrderKey(w, d + 1, 0)),
                                     [&](Vid, const Row& row) {
                                       max_o = std::max(
                                           max_o,
                                           row.GetInt(tpcc::ocol::kId));
                                       return true;
                                     })
                        .ok());
        EXPECT_EQ(next_o, max_o + 1) << "w" << w << " d" << d;
      }
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  std::unique_ptr<FlashSsd> ssd_;
  std::unique_ptr<MemDevice> wal_;
  std::unique_ptr<Database> db_;
  tpcc::TpccTables tables_;
  tpcc::TpccScale scale_;
  VirtualClock clk_;
};

TEST_P(IntegrationTest, CrashAfterBurstRecoversConsistently) {
  auto r1 = RunBurst(db_->max_vtime());
  EXPECT_EQ(r1.errors, 0u) << r1.first_error.ToString();
  EXPECT_GT(r1.TotalCommitted(), 0u);
  // Crash without checkpoint: buffer pool contents are lost; the WAL and
  // whatever reached the simulated SSD survive.
  db_.reset();
  Reopen();
  { Status rs = db_->Recover(); ASSERT_TRUE(rs.ok()) << rs.ToString(); }
  CheckDistrictOrderConsistency();
  // The engine keeps working after recovery.
  auto r2 = RunBurst(db_->max_vtime() + kVSecond);
  EXPECT_EQ(r2.errors, 0u) << r2.first_error.ToString();
  EXPECT_GT(r2.TotalCommitted(), 0u);
  CheckDistrictOrderConsistency();
}

TEST_P(IntegrationTest, CrashAfterVacuumRecovers) {
  auto r1 = RunBurst(db_->max_vtime());
  EXPECT_GT(r1.TotalCommitted(), 0u);
  VirtualClock clk(db_->max_vtime());
  ASSERT_TRUE(db_->Vacuum(&clk).ok());
  ASSERT_TRUE(db_->Checkpoint(&clk).ok());
  db_.reset();
  Reopen();
  { Status rs = db_->Recover(); ASSERT_TRUE(rs.ok()) << rs.ToString(); }
  CheckDistrictOrderConsistency();
  auto r2 = RunBurst(db_->max_vtime() + kVSecond);
  EXPECT_EQ(r2.errors, 0u) << r2.first_error.ToString();
  CheckDistrictOrderConsistency();
}

TEST_P(IntegrationTest, FtlSurvivesFullLifecycle) {
  auto r1 = RunBurst(db_->max_vtime());
  EXPECT_GT(r1.TotalCommitted(), 0u);
  VirtualClock clk(db_->max_vtime());
  ASSERT_TRUE(db_->Checkpoint(&clk).ok());
  EXPECT_TRUE(ssd_->CheckFtlInvariants().ok());
  WearStats w = ssd_->wear();
  DeviceStats d = ssd_->stats();
  EXPECT_GT(d.flash_page_programs, 0u);
  EXPECT_GE(d.WriteAmplification(), 1.0);
  (void)w;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, IntegrationTest,
                         ::testing::Values(VersionScheme::kSi,
                                           VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         [](const auto& info) {
                           std::string n = ToString(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace sias
