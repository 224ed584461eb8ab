// B+-tree tests: ordering, splits across multiple levels, duplicates,
// deletes, range scans, persistence through the buffer pool and randomized
// property checks against a reference model.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "device/mem_device.h"
#include "index/btree.h"
#include "index/key_codec.h"

namespace sias {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest()
      : device_(1ull << 30), disk_(&device_), pool_(&disk_, 512) {
    EXPECT_TRUE(disk_.CreateRelation(1).ok());
    tree_ = std::make_unique<BTree>(1, &pool_);
    EXPECT_TRUE(tree_->Create(&clk_).ok());
  }

  /// The values stored under `key`, in order.
  Result<std::vector<uint64_t>> Lookup(Slice key) {
    std::vector<uint64_t> out;
    Status s = tree_->Lookup(key, &clk_, [&](Slice k, uint64_t v) {
      EXPECT_EQ(k, key);
      out.push_back(v);
      return true;
    });
    if (!s.ok()) return s;
    return out;
  }

  MemDevice device_;
  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<BTree> tree_;
  VirtualClock clk_;
};

TEST_F(BTreeTest, EmptyLookup) {
  auto r = Lookup(IntKey(42));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(tree_->size(), 0u);
}

TEST_F(BTreeTest, InsertAndLookup) {
  ASSERT_TRUE(tree_->Insert(IntKey(5), 500, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(3), 300, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(7), 700, &clk_).ok());
  auto r = Lookup(IntKey(3));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], 300u);
  EXPECT_EQ(tree_->size(), 3u);
  EXPECT_TRUE(tree_->CheckInvariants(&clk_).ok());
}

TEST_F(BTreeTest, DuplicateKeysAllValuesReturned) {
  for (uint64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(tree_->Insert(IntKey(9), v * 10, &clk_).ok());
  }
  auto r = Lookup(IntKey(9));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
  EXPECT_EQ(std::set<uint64_t>(r->begin(), r->end()),
            (std::set<uint64_t>{10, 20, 30, 40, 50}));
}

TEST_F(BTreeTest, ExactPairInsertIsIdempotent) {
  ASSERT_TRUE(tree_->Insert(IntKey(1), 11, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(1), 11, &clk_).ok());
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BTreeTest, DeleteExactPair) {
  ASSERT_TRUE(tree_->Insert(IntKey(1), 11, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(IntKey(1), 12, &clk_).ok());
  ASSERT_TRUE(tree_->Delete(IntKey(1), 11, &clk_).ok());
  auto r = Lookup(IntKey(1));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], 12u);
  EXPECT_TRUE(tree_->Delete(IntKey(1), 11, &clk_).IsNotFound());
  EXPECT_TRUE(tree_->Delete(IntKey(99), 1, &clk_).IsNotFound());
}

TEST_F(BTreeTest, SplitsGrowTheTree) {
  // Enough sequential entries to force multiple leaf and internal splits.
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), static_cast<uint64_t>(i), &clk_).ok());
  }
  EXPECT_EQ(tree_->size(), static_cast<uint64_t>(kN));
  EXPECT_GE(tree_->height(), 2u);
  EXPECT_TRUE(tree_->CheckInvariants(&clk_).ok());
  for (int i = 0; i < kN; i += 101) {
    auto r = Lookup(IntKey(i));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), 1u) << i;
    EXPECT_EQ((*r)[0], static_cast<uint64_t>(i));
  }
}

TEST_F(BTreeTest, ReverseInsertionOrder) {
  constexpr int kN = 2000;
  for (int i = kN - 1; i >= 0; --i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), static_cast<uint64_t>(i), &clk_).ok());
  }
  EXPECT_TRUE(tree_->CheckInvariants(&clk_).ok());
  int count = 0;
  int expect = 0;
  ASSERT_TRUE(tree_
                  ->Range(IntKey(0), Slice(), &clk_,
                          [&](Slice, uint64_t v) {
                            EXPECT_EQ(v, static_cast<uint64_t>(expect++));
                            count++;
                            return true;
                          })
                  .ok());
  EXPECT_EQ(count, kN);
}

TEST_F(BTreeTest, RangeScanBounds) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), static_cast<uint64_t>(i), &clk_).ok());
  }
  std::vector<uint64_t> got;
  ASSERT_TRUE(tree_
                  ->Range(IntKey(10), IntKey(20), &clk_,
                          [&](Slice, uint64_t v) {
                            got.push_back(v);
                            return true;
                          })
                  .ok());
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), 10u);
  EXPECT_EQ(got.back(), 19u);
}

TEST_F(BTreeTest, RangeEarlyStop) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_->Insert(IntKey(i), static_cast<uint64_t>(i), &clk_).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree_->Range(IntKey(0), Slice(), &clk_, [&](Slice, uint64_t) {
    return ++count < 5;
  }).ok());
  EXPECT_EQ(count, 5);
}

TEST_F(BTreeTest, CompositeStringKeysOrderCorrectly) {
  auto key = [](int w, const std::string& last) {
    return KeyBuilder().AddInt(w).AddString(last).Take();
  };
  ASSERT_TRUE(tree_->Insert(key(1, "SMITH"), 1, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(key(1, "SMITHSON"), 2, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(key(2, "ADAMS"), 3, &clk_).ok());
  ASSERT_TRUE(tree_->Insert(key(1, "ADAMS"), 4, &clk_).ok());
  std::vector<uint64_t> order;
  ASSERT_TRUE(tree_->Range(key(1, ""), Slice(), &clk_,
                           [&](Slice, uint64_t v) {
                             order.push_back(v);
                             return true;
                           })
                  .ok());
  // (1,ADAMS) < (1,SMITH) < (1,SMITHSON) < (2,ADAMS)
  EXPECT_EQ(order, (std::vector<uint64_t>{4, 1, 2, 3}));
  // Exact lookup does not confuse SMITH with SMITHSON.
  auto r = Lookup(key(1, "SMITH"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0], 1u);
}

TEST_F(BTreeTest, KeyTooLongRejected) {
  std::string long_key(BTree::kMaxKeyLen + 1, 'k');
  EXPECT_FALSE(tree_->Insert(Slice(long_key), 1, &clk_).ok());
}

TEST_F(BTreeTest, ManyDuplicatesAcrossLeafSplits) {
  // 1000 entries under ten keys forces duplicate runs to span leaves.
  for (int k = 0; k < 10; ++k) {
    for (uint64_t v = 0; v < 100; ++v) {
      ASSERT_TRUE(tree_->Insert(IntKey(k), k * 1000 + v, &clk_).ok());
    }
  }
  EXPECT_TRUE(tree_->CheckInvariants(&clk_).ok());
  for (int k = 0; k < 10; ++k) {
    auto r = Lookup(IntKey(k));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 100u) << "key " << k;
  }
}

TEST_F(BTreeTest, CallbacksRunUnlatchedAndMayDeleteWhatTheyVisit) {
  // 300 entries span several leaves and ten scan batches; the callback
  // deletes every even value it is handed (it would self-deadlock on the
  // tree latch if the scan still held it) and must still see each entry
  // once, in order.
  constexpr uint64_t kN = 300;
  for (uint64_t v = 0; v < kN; ++v) {
    ASSERT_TRUE(tree_->Insert(IntKey(static_cast<int64_t>(v / 100)), v, &clk_)
                    .ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->Range(IntKey(0), Slice(), &clk_,
                           [&](Slice k, uint64_t v) {
                             seen.push_back(v);
                             if (v % 2 == 0) {
                               EXPECT_TRUE(tree_->Delete(k, v, &clk_).ok());
                             }
                             return true;
                           })
                  .ok());
  ASSERT_EQ(seen.size(), kN);
  for (uint64_t v = 0; v < kN; ++v) EXPECT_EQ(seen[v], v);
  EXPECT_EQ(tree_->size(), kN / 2);
  auto r = Lookup(IntKey(1));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 50u);
  EXPECT_EQ(r->front(), 101u);
  EXPECT_TRUE(tree_->CheckInvariants(&clk_).ok());
}

// Randomized model check, parameterized over operation mixes.
class BTreeRandomTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BTreeRandomTest, MatchesReferenceModel) {
  auto [seed, ops] = GetParam();
  MemDevice device(1ull << 30);
  DiskManager disk(&device);
  ASSERT_TRUE(disk.CreateRelation(1).ok());
  BufferPool pool(&disk, 256);
  BTree tree(1, &pool);
  VirtualClock clk;
  ASSERT_TRUE(tree.Create(&clk).ok());

  Random rng(seed);
  std::set<std::pair<int64_t, uint64_t>> model;
  for (int i = 0; i < ops; ++i) {
    int64_t k = rng.UniformInt(0, 300);
    uint64_t v = rng.Uniform(0, 3);
    if (rng.OneIn(3) && !model.empty()) {
      // Delete a random existing pair half the time, a random pair else.
      if (rng.OneIn(2)) {
        auto it = model.lower_bound({k, v});
        if (it == model.end()) it = model.begin();
        ASSERT_TRUE(tree.Delete(IntKey(it->first), it->second, &clk).ok());
        model.erase(it);
      } else {
        Status s = tree.Delete(IntKey(k), v, &clk);
        bool existed = model.erase({k, v}) > 0;
        EXPECT_EQ(s.ok(), existed);
      }
    } else {
      ASSERT_TRUE(tree.Insert(IntKey(k), v, &clk).ok());
      model.insert({k, v});
    }
  }
  ASSERT_TRUE(tree.CheckInvariants(&clk).ok());
  EXPECT_EQ(tree.size(), model.size());
  // Full scan must equal the model exactly.
  std::vector<std::pair<std::string, uint64_t>> scanned;
  ASSERT_TRUE(tree.Range(IntKey(-1000), Slice(), &clk,
                         [&](Slice key, uint64_t v) {
                           scanned.emplace_back(key.ToString(), v);
                           return true;
                         })
                  .ok());
  ASSERT_EQ(scanned.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(scanned[i].first, IntKey(k));
    EXPECT_EQ(scanned[i].second, v);
    i++;
  }
}

INSTANTIATE_TEST_SUITE_P(Mixes, BTreeRandomTest,
                         ::testing::Values(std::make_tuple(1, 500),
                                           std::make_tuple(2, 2000),
                                           std::make_tuple(3, 5000),
                                           std::make_tuple(4, 8000)));

}  // namespace
}  // namespace sias
