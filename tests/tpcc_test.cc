// TPC-C workload tests: loader cardinalities, transaction profiles, the
// driver, and TPC-C consistency conditions (spec §3.3.2) after a run —
// executed under all three version schemes.
#include <gtest/gtest.h>

#include <memory>

#include "device/mem_device.h"
#include "workload/tpcc_driver.h"
#include "workload/tpcc_gen.h"

namespace sias {
namespace tpcc {
namespace {

TEST(TpccGenTest, LastNameSyllables) {
  EXPECT_EQ(LastName(0), "BARBARBAR");
  EXPECT_EQ(LastName(371), "PRICALLYOUGHT");
  EXPECT_EQ(LastName(999), "EINGEINGEING");
}

class TpccTest : public ::testing::TestWithParam<VersionScheme> {
 protected:
  static constexpr int kWarehouses = 2;

  void SetUp() override {
    data_ = std::make_unique<MemDevice>(2ull << 30);
    wal_ = std::make_unique<MemDevice>(2ull << 30);
    DatabaseOptions opts;
    opts.data_device = data_.get();
    opts.wal_device = wal_.get();
    opts.pool_frames = 2048;
    opts.lock_timeout_ms = 200;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);

    auto tables = CreateTpccTables(db_.get(), GetParam());
    ASSERT_TRUE(tables.ok()) << tables.status().ToString();
    tables_ = *tables;

    scale_.customers_per_district = 12;
    scale_.items = 100;
    scale_.orders_per_district = 12;

    Random rng(7);
    VirtualClock clk;
    ASSERT_TRUE(
        LoadTpcc(db_.get(), tables_, scale_, kWarehouses, rng, &clk).ok());
  }

  int64_t CountRows(Table* table) {
    VirtualClock clk;
    auto txn = db_->Begin(&clk);
    int64_t n = 0;
    EXPECT_TRUE(table->Scan(txn.get(), [&](Vid, const Row&) {
      n++;
      return true;
    }).ok());
    EXPECT_TRUE(db_->Commit(txn.get()).ok());
    return n;
  }

  /// TPC-C consistency condition 1: d_next_o_id - 1 equals the max o_id in
  /// ORDERS and NEW_ORDER for every district.
  void CheckConsistency() {
    VirtualClock clk;
    auto txn = db_->Begin(&clk);
    for (int64_t w = 1; w <= kWarehouses; ++w) {
      for (int64_t d = 1; d <= scale_.districts_per_wh; ++d) {
        auto dist = tables_.district->IndexLookup(
            txn.get(), TpccTables::kDistrictPk, Slice(DistrictKey(w, d)));
        ASSERT_TRUE(dist.ok());
        ASSERT_EQ(dist->size(), 1u);
        int64_t next_o = (*dist)[0].second.GetInt(dcol::kNextOid);

        int64_t max_o = 0;
        ASSERT_TRUE(tables_.orders
                        ->IndexRange(txn.get(), TpccTables::kOrdersPk,
                                     Slice(OrderKey(w, d, 0)),
                                     Slice(OrderKey(w, d + 1, 0)),
                                     [&](Vid, const Row& row) {
                                       max_o = std::max(max_o,
                                                        row.GetInt(ocol::kId));
                                       return true;
                                     })
                        .ok());
        EXPECT_EQ(next_o, max_o + 1) << "w=" << w << " d=" << d;

        // Condition 3-ish: every NEW_ORDER has a matching ORDERS row.
        ASSERT_TRUE(tables_.new_order
                        ->IndexRange(txn.get(), TpccTables::kNewOrderPk,
                                     Slice(NewOrderKey(w, d, 0)),
                                     Slice(NewOrderKey(w, d + 1, 0)),
                                     [&](Vid, const Row& row) {
                                       int64_t o = row.GetInt(nocol::kOid);
                                       auto ord = tables_.orders->IndexLookup(
                                           txn.get(), TpccTables::kOrdersPk,
                                           Slice(OrderKey(w, d, o)));
                                       EXPECT_TRUE(ord.ok() &&
                                                   ord->size() == 1);
                                       return true;
                                     })
                        .ok());
      }
    }
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }

  std::unique_ptr<MemDevice> data_, wal_;
  std::unique_ptr<Database> db_;
  TpccTables tables_;
  TpccScale scale_;
};

TEST_P(TpccTest, LoaderCardinalities) {
  EXPECT_EQ(CountRows(tables_.warehouse), kWarehouses);
  EXPECT_EQ(CountRows(tables_.district),
            kWarehouses * scale_.districts_per_wh);
  EXPECT_EQ(CountRows(tables_.customer),
            kWarehouses * scale_.districts_per_wh *
                scale_.customers_per_district);
  EXPECT_EQ(CountRows(tables_.item), scale_.items);
  EXPECT_EQ(CountRows(tables_.stock), kWarehouses * scale_.items);
  EXPECT_EQ(CountRows(tables_.orders),
            kWarehouses * scale_.districts_per_wh *
                scale_.orders_per_district);
  // A third of initial orders are undelivered.
  EXPECT_EQ(CountRows(tables_.new_order),
            kWarehouses * scale_.districts_per_wh *
                (scale_.orders_per_district -
                 scale_.orders_per_district * 2 / 3));
  CheckConsistency();
}

TEST_P(TpccTest, EachProfileRunsCleanly) {
  TpccConfig cfg;
  cfg.warehouses = kWarehouses;
  cfg.scale = scale_;
  TpccExecutor exec(db_.get(), tables_, cfg);
  Random rng(11);
  VirtualClock clk;
  for (TxnType type :
       {TxnType::kNewOrder, TxnType::kPayment, TxnType::kOrderStatus,
        TxnType::kDelivery, TxnType::kStockLevel}) {
    for (int i = 0; i < 10; ++i) {
      Status error;
      TxnOutcome out = exec.Run(type, 1 + (i % kWarehouses), rng, &clk,
                                &error);
      EXPECT_NE(out, TxnOutcome::kError)
          << ToString(type) << ": " << error.ToString();
    }
  }
  CheckConsistency();
}

TEST_P(TpccTest, NewOrderAdvancesDistrictAndWritesLines) {
  TpccConfig cfg;
  cfg.warehouses = kWarehouses;
  cfg.scale = scale_;
  TpccExecutor exec(db_.get(), tables_, cfg);
  Random rng(13);
  VirtualClock clk;

  int committed = 0;
  for (int i = 0; i < 30; ++i) {
    if (exec.Run(TxnType::kNewOrder, 1, rng, &clk) ==
        TxnOutcome::kCommitted) {
      committed++;
    }
  }
  EXPECT_GT(committed, 20);  // only ~1% user aborts expected

  // Orders grew by `committed`.
  EXPECT_EQ(CountRows(tables_.orders),
            kWarehouses * scale_.districts_per_wh *
                    scale_.orders_per_district + committed);
  CheckConsistency();
}

TEST_P(TpccTest, DriverProducesThroughput) {
  TpccConfig cfg;
  cfg.warehouses = kWarehouses;
  cfg.scale = scale_;
  TpccExecutor exec(db_.get(), tables_, cfg);

  DriverConfig dcfg;
  dcfg.terminals = 4;
  dcfg.threads = 2;
  dcfg.duration = kVSecond / 2;
  TpccDriver driver(db_.get(), &exec, dcfg);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->errors, 0u) << result->first_error.ToString();
  EXPECT_GT(result->TotalCommitted(), 0u);
  EXPECT_GT(result->Notpm(), 0.0);
  EXPECT_GE(result->makespan, dcfg.duration);
  CheckConsistency();
}

TEST_P(TpccTest, DriverWithVacuumAndCheckpointStaysConsistent) {
  TpccConfig cfg;
  cfg.warehouses = kWarehouses;
  cfg.scale = scale_;
  TpccExecutor exec(db_.get(), tables_, cfg);

  DriverConfig dcfg;
  dcfg.terminals = 2;
  dcfg.threads = 2;
  dcfg.duration = kVSecond / 2;
  TpccDriver driver(db_.get(), &exec, dcfg);
  auto r1 = driver.Run();
  ASSERT_TRUE(r1.ok());
  VirtualClock clk;
  ASSERT_TRUE(db_->Checkpoint(&clk).ok());
  ASSERT_TRUE(db_->Vacuum(&clk).ok());
  auto r2 = driver.Run();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->errors, 0u) << r2->first_error.ToString();
  CheckConsistency();
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TpccTest,
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
}  // namespace tpcc
}  // namespace sias
