// Allocation budgets of the snapshot read path: this binary replaces the
// global operator new to count calls, and pins how many one resident index
// lookup, one resident SIAS-V read and one same-key update make. A change
// that brings heap churn back into these paths (a copied version vector, a
// result vector per probe, a std::function whose captures spill to the
// heap, a throwaway key string for a comparison) fails here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/sias_table.h"
#include "device/mem_device.h"
#include "engine/database.h"
#include "index/key_codec.h"

namespace {

/// operator new calls made by the calling thread.
thread_local int64_t t_news = 0;

void* CountedNew(std::size_t n) {
  ++t_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedNew(std::size_t n, std::align_val_t al) {
  ++t_news;
  std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedNew(n); }
void* operator new[](std::size_t n) { return CountedNew(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_news;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++t_news;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedNew(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedNew(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sias {
namespace {

// The budgets, at the counts this read path reaches (Release, Debug and
// sanitizer builds alike). What is left is the result itself: the lookup's
// result vector, the row's value vector and its one string column.
constexpr int64_t kIndexLookupBudget = 3;
constexpr int64_t kSiasReadBudget = 0;
// An update of one row with an unchanged key builds that key once (a second
// build, of the old row's key, only to compare the two cost one more).
constexpr int64_t kUpdateBudget = 14;

/// A resident SIAS-V table of TPC-C-shaped rows: a 3-int key (24 bytes, past
/// the short-string buffer) and a string column longer than it.
class AllocBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = std::make_unique<MemDevice>(64ull << 20);
    wal_ = std::make_unique<MemDevice>(64ull << 20);
    DatabaseOptions opts;
    opts.data_device = data_.get();
    opts.wal_device = wal_.get();
    opts.pool_frames = 64;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto t = db_->CreateTable("customer",
                              Schema{{"w", ColumnType::kInt64},
                                     {"d", ColumnType::kInt64},
                                     {"c", ColumnType::kInt64},
                                     {"data", ColumnType::kString},
                                     {"balance", ColumnType::kDouble}},
                              VersionScheme::kSiasV);
    ASSERT_TRUE(t.ok());
    table_ = *t;
    ASSERT_TRUE(db_->CreateIndex(table_, "customer_pk",
                                 KeyExtractor::IntColumns({0, 1, 2}))
                    .ok());
    for (int64_t c = 1; c <= 20; ++c) {
      auto txn = db_->Begin(&clk_);
      auto vid = table_->Insert(
          txn.get(), Row{{int64_t{1}, int64_t{2}, c,
                          std::string("a customer data field of 40 bytes"),
                          1.5}});
      ASSERT_TRUE(vid.ok());
      vids_.push_back(*vid);
      ASSERT_TRUE(db_->Commit(txn.get()).ok());
    }
  }

  static std::string Key(int64_t c) {
    return KeyBuilder().AddInt(1).AddInt(2).AddInt(c).Take();
  }

  std::unique_ptr<MemDevice> data_, wal_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;
  std::vector<Vid> vids_;
  VirtualClock clk_;
};

TEST_F(AllocBudgetTest, IndexLookupOfOneResidentSiasVRow) {
  auto txn = db_->Begin(&clk_);
  const std::string key = Key(7);
  // Warm-up: first-use statics, thread-local buffers, resident pages.
  ASSERT_TRUE(table_->IndexLookup(txn.get(), 0, Slice(key)).ok());
  int64_t before = t_news;
  auto hits = table_->IndexLookup(txn.get(), 0, Slice(key));
  int64_t news = t_news - before;
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ(hits->at(0).second.GetInt(2), 7);
  EXPECT_LE(news, kIndexLookupBudget) << "operator new calls per lookup";
  RecordProperty("operator_new_calls", static_cast<int>(news));
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(AllocBudgetTest, SiasTableReadOfOneResidentItem) {
  auto txn = db_->Begin(&clk_);
  std::string row;
  ASSERT_TRUE(table_->heap()->Read(txn.get(), vids_[7], &row, nullptr).ok());
  int64_t before = t_news;
  auto live = table_->heap()->Read(txn.get(), vids_[7], &row, nullptr);
  int64_t news = t_news - before;
  ASSERT_TRUE(live.ok());
  EXPECT_TRUE(*live);
  EXPECT_LE(news, kSiasReadBudget) << "operator new calls per read";
  RecordProperty("operator_new_calls", static_cast<int>(news));
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

TEST_F(AllocBudgetTest, UpdateOfOneResidentSiasVRow) {
  // A TPC-C-style update: the key columns stay, the balance changes.
  auto row = [](int64_t c, double balance) {
    return Row{{int64_t{1}, int64_t{2}, c,
                std::string("a customer data field of 40 bytes"), balance}};
  };
  {
    // Warm-up on another row: first-use statics, thread-local buffers.
    auto txn = db_->Begin(&clk_);
    ASSERT_TRUE(table_->Update(txn.get(), vids_[6], row(7, 2.5)).ok());
    ASSERT_TRUE(db_->Commit(txn.get()).ok());
  }
  auto txn = db_->Begin(&clk_);
  const Row next = row(8, 2.5);
  int64_t before = t_news;
  Status st = table_->Update(txn.get(), vids_[7], next);
  int64_t news = t_news - before;
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_LE(news, kUpdateBudget) << "operator new calls per update";
  RecordProperty("operator_new_calls", static_cast<int>(news));
  ASSERT_TRUE(db_->Commit(txn.get()).ok());
}

}  // namespace
}  // namespace sias
