// Unit tests for src/common: Status/Result, Slice, Random, CRC32C,
// Histogram, virtual clocks and core ID types.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/latch.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vclock.h"

namespace sias {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing tuple");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing tuple");
  EXPECT_EQ(s.ToString(), "NotFound: missing tuple");
}

TEST(StatusTest, RetryableClassification) {
  EXPECT_TRUE(Status::SerializationFailure("x").IsRetryable());
  EXPECT_TRUE(Status::LockTimeout("x").IsRetryable());
  EXPECT_FALSE(Status::Corruption("x").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::IoError("disk gone");
  Status b = a;
  EXPECT_EQ(b.message(), "disk gone");
  EXPECT_EQ(b.code(), StatusCode::kIoError);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, ValueAndError) {
  auto good = ParsePositive(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);

  auto bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SliceTest, CompareIsMemcmpOrder) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("") < Slice("a"));
}

TEST(SliceTest, Views) {
  std::string s = "hello";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 5u);
  EXPECT_EQ(sl.ToString(), "hello");
}

TEST(TidTest, PackRoundTrip) {
  Tid t{123456, 789};
  Tid u = Tid::Unpack(t.Pack());
  EXPECT_EQ(t, u);
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(kInvalidTid.valid());
}

TEST(PageIdTest, HashSpreads) {
  std::set<size_t> hashes;
  for (uint32_t r = 1; r < 5; ++r) {
    for (uint32_t p = 0; p < 100; ++p) {
      hashes.insert(std::hash<PageId>{}(PageId{r, p}));
    }
  }
  EXPECT_GT(hashes.size(), 390u);  // near-zero collisions expected
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, NURandInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.NURand(255, 0, 999, 123);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 999);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Crc32cTest, KnownVector) {
  // CRC32C("123456789") == 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

// RFC 3720 (iSCSI) appendix B.4 vectors, on both paths.
TEST(Crc32cTest, Rfc3720Vectors) {
  std::vector<uint8_t> zeros(32, 0x00), ones(32, 0xff), ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  for (auto crc : {&Crc32c, &Crc32cPortableForTest}) {
    EXPECT_EQ(crc(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    EXPECT_EQ(crc(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending.data(), ascending.size(), 0), 0x46DD794Eu);
  }
}

// Crc32c takes the SSE4.2 path on CPUs that have it; it must agree with
// the table path on every length and alignment (head, words, tail).
TEST(Crc32cTest, HardwarePathMatchesPortable) {
  Random r(2024);
  std::vector<uint8_t> buf(9000 + 16);
  for (auto& b : buf) b = static_cast<uint8_t>(r.Next());
  for (int i = 0; i < 500; ++i) {
    size_t offset = r.Uniform(0, 15);
    size_t len = r.Uniform(0, 9000);
    uint32_t init = i % 2 == 0 ? 0 : static_cast<uint32_t>(r.Next());
    ASSERT_EQ(Crc32c(buf.data() + offset, len, init),
              Crc32cPortableForTest(buf.data() + offset, len, init))
        << "offset " << offset << " len " << len << " init " << init;
  }
}

TEST(Crc32cTest, InitChainsSplits) {
  Random r(99);
  std::vector<uint8_t> buf(3000);
  for (auto& b : buf) b = static_cast<uint8_t>(r.Next());
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{4}, size_t{7},
                       size_t{8}, size_t{1001}, buf.size()}) {
    uint32_t a = Crc32c(buf.data(), split);
    EXPECT_EQ(Crc32c(buf.data() + split, buf.size() - split, a), whole)
        << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsBitFlip) {
  std::string data(1024, 'x');
  uint32_t base = Crc32c(data.data(), data.size());
  data[100] ^= 1;
  EXPECT_NE(base, Crc32c(data.data(), data.size()));
}

TEST(Crc32cTest, MaskChangesTheCrc) {
  uint32_t crc = Crc32c("siasdb", 6);
  EXPECT_NE(MaskCrc(crc), crc);
}

TEST(CodingTest, FixedRoundTrip) {
  uint8_t buf[8];
  EncodeFixed64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(DecodeFixed64(buf), 0x0123456789abcdefull);
  EncodeFixed32(buf, 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed32(buf), 0xdeadbeefu);
  EncodeFixed16(buf, 0xbeefu);
  EXPECT_EQ(DecodeFixed16(buf), 0xbeefu);
}

TEST(CodingTest, BigEndianPreservesOrder) {
  uint8_t a[8], b[8];
  EncodeBigEndian64(a, 100);
  EncodeBigEndian64(b, 200);
  EXPECT_LT(memcmp(a, b, 8), 0);
  EXPECT_EQ(DecodeBigEndian64(a), 100u);
}

TEST(VClockTest, AdvanceSemantics) {
  VirtualClock c(100);
  c.Advance(50);
  EXPECT_EQ(c.now(), 150u);
  c.AdvanceTo(120);  // never goes backwards
  EXPECT_EQ(c.now(), 150u);
  c.AdvanceTo(300);
  EXPECT_EQ(c.now(), 300u);
}

TEST(AtomicVTimeTest, ReserveQueues) {
  AtomicVTime busy(0);
  // Two back-to-back reservations at t=0 must serialize.
  VTime s1 = busy.Reserve(0, 100);
  VTime s2 = busy.Reserve(0, 100);
  EXPECT_EQ(s1, 0u);
  EXPECT_EQ(s2, 100u);
  // A late arrival starts at its own arrival time.
  VTime s3 = busy.Reserve(1000, 10);
  EXPECT_EQ(s3, 1000u);
}

TEST(AtomicVTimeTest, ConcurrentReservationsNeverOverlap) {
  AtomicVTime busy(0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::vector<VTime>> starts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        starts[t].push_back(busy.Reserve(0, 7));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<VTime> all;
  for (auto& v : starts) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
  // Intervals are length 7 and disjoint: consecutive starts differ by >= 7.
  VTime prev = ~0ull;
  for (VTime s : all) {
    if (prev != ~0ull) {
      EXPECT_GE(s, prev + 7);
    }
    prev = s;
  }
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * kVMillisecond);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.Mean(), 50.5 * kVMillisecond, 2.0 * kVMillisecond);
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50.0 * kVMillisecond,
              5.0 * kVMillisecond);
  EXPECT_GE(h.Max(), 100 * kVMillisecond);
  EXPECT_LE(h.Min(), 1 * kVMillisecond + kVMillisecond / 10);
}

TEST(HistogramTest, MergeAddsUp) {
  Histogram a, b;
  a.Record(10 * kVMicrosecond);
  b.Record(30 * kVMicrosecond);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.Mean(), 20.0 * kVMicrosecond, kVMicrosecond);
}

TEST(HistogramTest, EmptyIsSane) {
  // A fresh histogram and one reset after a sample must both report zeroes.
  Histogram fresh;
  Histogram reset;
  reset.Record(3 * kVSecond);
  reset.Reset();
  for (const Histogram* h : {&fresh, &reset}) {
    EXPECT_EQ(h->count(), 0u);
    EXPECT_EQ(h->Mean(), 0.0);
    EXPECT_EQ(h->Min(), 0u);
    EXPECT_EQ(h->Max(), 0u);
    for (double p : {0.0, 50.0, 99.0, 100.0}) {
      EXPECT_EQ(h->Percentile(p), 0u) << "p=" << p;
    }
  }
}

TEST(HistogramTest, SingleSampleDominatesEveryQuantile) {
  Histogram h;
  const VDuration v = 7 * kVMillisecond;
  h.Record(v);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Min(), v);
  EXPECT_EQ(h.Max(), v);
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(v));
  // Buckets are geometric (~4%): every quantile lands in the sample's
  // bucket, whose reported lower bound is at most one bucket below v.
  for (double p : {0.0, 50.0, 99.0, 100.0}) {
    VDuration q = h.Percentile(p);
    EXPECT_LE(q, v) << "p=" << p;
    EXPECT_GE(static_cast<double>(q), static_cast<double>(v) / 1.05)
        << "p=" << p;
  }
}

TEST(HistogramTest, SmallestRepresentableValueHitsFirstBucket) {
  Histogram h;
  h.Record(1);
  EXPECT_EQ(h.Percentile(50), 1u);
  h.Record(0);  // below the first bound; must not underflow the bucket index
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_LE(h.Percentile(50), 1u);
}

TEST(HistogramTest, OverflowValuesLandInFinalBucket) {
  Histogram h;
  // Both are far beyond the ~5000 s bucket coverage; they must be retained
  // (counted, reflected in max/mean) rather than dropped or misfiled.
  const VDuration huge = 100000ull * kVSecond;
  h.Record(huge);
  h.Record(~0ull);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Max(), ~0ull);
  EXPECT_EQ(h.Min(), huge);
  // The overflow bucket reports the largest finite bucket bound (the last
  // geometric step below the 5000 s coverage limit), not a wrapped or
  // truncated value.
  EXPECT_GE(h.Percentile(50), 4000ull * kVSecond);
  EXPECT_LE(h.Percentile(50), 5000ull * kVSecond);
}

TEST(HistogramTest, QuantilesAreMonotoneInP) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(static_cast<VDuration>(i) * kVMicrosecond);
  }
  VDuration prev = 0;
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    VDuration q = h.Percentile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
  EXPECT_LE(h.Percentile(100), h.Max());
}

// Intra-bucket interpolation: tail percentiles must track the true sample
// quantile to well under the ~4% geometric bucket width, instead of
// snapping to a bucket edge.

TEST(HistogramTest, InterpolatedTailOnUniformDistribution) {
  Histogram h;
  for (int i = 1; i <= 100000; ++i) h.Record(static_cast<VDuration>(i));
  // True p999 of 1..100000 uniform is 99900; allow 2% (half the bucket).
  EXPECT_NEAR(static_cast<double>(h.Percentile(99.9)), 99900.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 99000.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50000.0, 1500.0);
}

TEST(HistogramTest, InterpolatedTailOnBimodalDistribution) {
  // 990 fast ops at ~10ms, 10 slow ops at 1s: p50 must sit in the fast
  // mode, p999 and max must see the slow mode's bucket (within 5%).
  Histogram h;
  for (int i = 0; i < 990; ++i) h.Record(10 * kVMillisecond);
  for (int i = 0; i < 10; ++i) h.Record(1 * kVSecond);
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)),
              10.0 * kVMillisecond, 0.5 * kVMillisecond);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99.9)),
              1.0 * kVSecond, 0.05 * kVSecond);
  EXPECT_EQ(h.Max(), 1 * kVSecond);
}

TEST(HistogramTest, PercentilesStayWithinObservedRange) {
  // Interpolation must never extrapolate past the recorded min/max.
  Histogram h;
  h.Record(7 * kVMicrosecond);
  h.Record(7 * kVMicrosecond);
  EXPECT_EQ(h.Percentile(0.1), 7 * kVMicrosecond);
  EXPECT_EQ(h.Percentile(99.9), 7 * kVMicrosecond);
}

TEST(HistogramTest, BucketIndexMatchesBinarySearch) {
  // Reference: the geometric bounds built at run time, searched with
  // upper_bound and capped at the overflow bucket.
  std::vector<VDuration> bounds;
  for (VDuration b = 1; b < 5000ull * kVSecond;
       b = static_cast<VDuration>(static_cast<double>(b) * 1.04) + 1) {
    bounds.push_back(b);
  }
  bounds.push_back(~0ull);
  ASSERT_EQ(bounds.size(), Histogram::kBuckets);
  auto expected = [&](VDuration v) {
    size_t i = static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
    return std::min(i, bounds.size() - 1);
  };
  size_t mismatches = 0;
  auto check = [&](VDuration v) {
    if (Histogram::BucketIndex(v) != expected(v) && ++mismatches <= 10) {
      ADD_FAILURE() << "v=" << v << " BucketIndex="
                    << Histogram::BucketIndex(v) << " want " << expected(v);
    }
  };
  for (VDuration v = 0; v < (VDuration{1} << 21); ++v) check(v);
  for (VDuration b : bounds) {
    check(b - 1);
    check(b);
    check(b + 1);
  }
  check(~0ull);
  // Every bit length gets the same share of a 10.24 M-value seeded sweep.
  Random rng(29);
  for (int i = 0; i < 10240000; ++i) {
    int bits = i % 64 + 1;
    VDuration v = (VDuration{1} << (bits - 1)) |
                  (rng.Next() & ((VDuration{1} << (bits - 1)) - 1));
    check(v);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(LatchTest, SpinLatchMutualExclusion) {
  SpinLatch latch;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        SpinLatchGuard g(latch);
        counter++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 40000);
}

TEST(FormatTest, VDuration) {
  EXPECT_EQ(FormatVDuration(5 * kVSecond), "5.000s");
  EXPECT_EQ(FormatVDuration(2 * kVMillisecond), "2.000ms");
  EXPECT_EQ(FormatVDuration(3 * kVMicrosecond), "3.00us");
  EXPECT_EQ(FormatVDuration(42), "42ns");
}

TEST(VersionSchemeTest, Names) {
  EXPECT_STREQ(ToString(VersionScheme::kSi), "SI");
  EXPECT_STREQ(ToString(VersionScheme::kSiasChains), "SIAS-Chains");
  EXPECT_STREQ(ToString(VersionScheme::kSiasV), "SIAS-V");
}

}  // namespace
}  // namespace sias
