// Unit tests for the WAL: record codec, append/flush semantics, group
// commit, torn-tail detection and reader iteration; and the heap redo
// routine all version schemes recover through (HeapPages::Redo).
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/coding.h"
#include "device/mem_device.h"
#include "mvcc/heap_pages.h"
#include "storage/disk_manager.h"
#include "tests/test_env.h"
#include "wal/wal.h"

namespace sias {
namespace {

WalRecord MakeInsert(Xid xid, RelationId rel, Tid tid, const std::string& body,
                     uint64_t aux = 0) {
  WalRecord r;
  r.type = WalRecordType::kHeapInsert;
  r.xid = xid;
  r.relation = rel;
  r.tid = tid;
  r.aux = aux;
  r.body = body;
  return r;
}

class WalTest : public ::testing::Test {
 protected:
  WalTest() : device_(64ull << 20), writer_(&device_, 0, 64ull << 20) {}
  MemDevice device_;
  WalWriter writer_;
  VirtualClock clk_;
};

TEST_F(WalTest, AppendFlushReadRoundTrip) {
  auto lsn1 = writer_.Append(MakeInsert(10, 1, Tid{5, 2}, "tuple-a", 42));
  auto lsn2 = writer_.Append(MakeInsert(11, 2, Tid{6, 3}, "tuple-bb", 43));
  ASSERT_TRUE(lsn1.ok());
  ASSERT_TRUE(lsn2.ok());
  EXPECT_GT(*lsn2, *lsn1);
  ASSERT_TRUE(writer_.FlushTo(*lsn2, &clk_).ok());
  EXPECT_EQ(writer_.flushed_lsn(), *lsn2);

  WalReader reader(&device_, 0, 64ull << 20);
  auto r1 = reader.Next();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r1->has_value());
  EXPECT_EQ((*r1)->xid, 10u);
  EXPECT_EQ((*r1)->relation, 1u);
  EXPECT_EQ((*r1)->tid, (Tid{5, 2}));
  EXPECT_EQ((*r1)->aux, 42u);
  EXPECT_EQ((*r1)->body, "tuple-a");
  auto r2 = reader.Next();
  ASSERT_TRUE(r2.ok() && r2->has_value());
  EXPECT_EQ((*r2)->body, "tuple-bb");
  auto r3 = reader.Next();
  ASSERT_TRUE(r3.ok());
  EXPECT_FALSE(r3->has_value());  // end of log
  EXPECT_EQ(reader.lsn(), *lsn2);
}

TEST_F(WalTest, UnflushedRecordsInvisibleToReader) {
  auto lsn1 = writer_.Append(MakeInsert(1, 1, Tid{0, 0}, "flushed"));
  ASSERT_TRUE(writer_.FlushTo(*lsn1, &clk_).ok());
  ASSERT_TRUE(writer_.Append(MakeInsert(2, 1, Tid{0, 1}, "buffered")).ok());

  WalReader reader(&device_, 0, 64ull << 20);
  auto r1 = reader.Next();
  ASSERT_TRUE(r1.ok() && r1->has_value());
  EXPECT_EQ((*r1)->body, "flushed");
  auto r2 = reader.Next();
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->has_value());
}

TEST_F(WalTest, GroupCommitFlushesEverythingBelow) {
  std::vector<Lsn> lsns;
  for (int i = 0; i < 10; ++i) {
    auto l = writer_.Append(MakeInsert(i + 2, 1, Tid{0, 0}, "r"));
    ASSERT_TRUE(l.ok());
    lsns.push_back(*l);
  }
  // One flush to the last LSN covers all ten records.
  ASSERT_TRUE(writer_.FlushTo(lsns.back(), &clk_).ok());
  WalReader reader(&device_, 0, 64ull << 20);
  int count = 0;
  for (;;) {
    auto r = reader.Next();
    ASSERT_TRUE(r.ok());
    if (!r->has_value()) break;
    count++;
  }
  EXPECT_EQ(count, 10);
}

TEST_F(WalTest, FlushToIsMonotoneAndIdempotent) {
  auto l1 = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, "x"));
  ASSERT_TRUE(writer_.FlushTo(*l1, &clk_).ok());
  CounterDelta written("wal.written_bytes");
  ASSERT_TRUE(writer_.FlushTo(*l1, &clk_).ok());  // no-op
  ASSERT_TRUE(writer_.FlushTo(5, &clk_).ok());    // below: no-op
  EXPECT_EQ(written(), 0);
}

TEST_F(WalTest, LargeBodiesSpanBlocks) {
  std::string big(3 * kPageSize, 'z');
  auto l = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, big));
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(writer_.FlushTo(*l, &clk_).ok());
  WalReader reader(&device_, 0, 64ull << 20);
  auto r = reader.Next();
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ((*r)->body, big);
}

TEST_F(WalTest, TornTailStopsReader) {
  auto l1 = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, "good"));
  auto l2 = writer_.Append(MakeInsert(3, 1, Tid{0, 1}, "will-be-torn"));
  ASSERT_TRUE(writer_.FlushTo(*l2, &clk_).ok());
  // Corrupt a byte inside the second record on the device.
  uint64_t torn_offset = *l1 + 12;
  std::vector<uint8_t> blk(kPageSize);
  ASSERT_TRUE(device_.Read(0, kPageSize, blk.data(), nullptr).ok());
  blk[static_cast<size_t>(torn_offset)] ^= 0xff;
  ASSERT_TRUE(device_.Write(0, kPageSize, blk.data(), nullptr).ok());

  WalReader reader(&device_, 0, 64ull << 20);
  auto r1 = reader.Next();
  ASSERT_TRUE(r1.ok() && r1->has_value());
  EXPECT_EQ((*r1)->body, "good");
  auto r2 = reader.Next();
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->has_value());  // CRC mismatch ends the log
  EXPECT_EQ(reader.lsn(), *l1);
}

TEST_F(WalTest, MidLogCorruptionIsLoud) {
  // Damage *before* the last synced record must not read as a torn tail:
  // silently truncating there would lose durable commits. Regression test
  // for the reader classifying every CRC failure as end-of-log.
  auto l1 = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, "first"));
  auto l2 = writer_.Append(MakeInsert(3, 1, Tid{0, 1}, "second"));
  auto l3 = writer_.Append(MakeInsert(4, 1, Tid{0, 2}, "third"));
  ASSERT_TRUE(writer_.FlushTo(*l3, &clk_).ok());
  // Corrupt a byte inside the FIRST record; two intact records follow.
  std::vector<uint8_t> blk(kPageSize);
  ASSERT_TRUE(device_.Read(0, kPageSize, blk.data(), nullptr).ok());
  blk[12] ^= 0xff;
  ASSERT_TRUE(device_.Write(0, kPageSize, blk.data(), nullptr).ok());
  (void)l1;
  (void)l2;

  WalReader reader(&device_, 0, 64ull << 20);
  auto r = reader.Next();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
      << r.status().ToString();
}

TEST_F(WalTest, ResumeZeroesStaleTailForCorruptionDetection) {
  // A shorter recovered log must not leave the previous generation's
  // records beyond its end — they would later read as "intact records past
  // the damage" and turn every benign torn tail into a false corruption
  // report. Resume() zeroes them.
  std::string big(3000, 'z');
  std::vector<Lsn> ends;
  for (int i = 0; i < 10; ++i) {
    auto l = writer_.Append(MakeInsert(2 + i, 1, Tid{0, 0}, big));
    ASSERT_TRUE(l.ok());
    ends.push_back(*l);
  }
  ASSERT_TRUE(writer_.FlushTo(ends.back(), &clk_).ok());

  // Pretend recovery only found the first four records valid.
  WalWriter resumed(&device_, 0, 64ull << 20);
  ASSERT_TRUE(resumed.Resume(ends[3]).ok());

  // The reader now sees records 1-4, then a benign end of log — record 5's
  // head may survive in the resume block, but nothing valid follows it.
  WalReader reader(&device_, 0, 64ull << 20);
  int n = 0;
  for (;;) {
    auto r = reader.Next();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (!r->has_value()) break;
    n++;
  }
  EXPECT_EQ(n, 4);
}

TEST_F(WalTest, RegionFullReported) {
  WalWriter tiny(&device_, 0, 256);
  auto l1 = tiny.Append(MakeInsert(2, 1, Tid{0, 0}, std::string(100, 'a')));
  EXPECT_TRUE(l1.ok());
  auto l2 = tiny.Append(MakeInsert(3, 1, Tid{0, 0}, std::string(200, 'b')));
  EXPECT_FALSE(l2.ok());
  EXPECT_EQ(l2.status().code(), StatusCode::kOutOfSpace);
}

TEST_F(WalTest, SmallFlushesWriteEachSectorOnce) {
  // Two tiny flushes into one block write one 512-byte sector each: the
  // second rewrites only the sector the first ended inside, and leaves the
  // rest of the block alone.
  constexpr size_t kSector = 512;
  CounterDelta written("wal.written_bytes");
  auto l1 = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, "a"));
  ASSERT_TRUE(writer_.FlushTo(*l1, &clk_).ok());
  EXPECT_EQ(written(), static_cast<int64_t>(kSector));
  // A marker in the block's second sector: a flush that rewrote the whole
  // block would zero it.
  const std::vector<uint8_t> marker(kSector, 0xab);
  ASSERT_TRUE(device_.Write(kSector, kSector, marker.data(), nullptr).ok());
  auto l2 = writer_.Append(MakeInsert(3, 1, Tid{0, 0}, "b"));
  ASSERT_LT(*l2, kSector);
  ASSERT_TRUE(writer_.FlushTo(*l2, &clk_).ok());
  EXPECT_EQ(written(), static_cast<int64_t>(2 * kSector));
  std::vector<uint8_t> second(kSector);
  ASSERT_TRUE(device_.Read(kSector, kSector, second.data(), nullptr).ok());
  EXPECT_EQ(second, marker);

  WalReader reader(&device_, 0, 64ull << 20);
  std::vector<std::string> bodies;
  for (;;) {
    auto r = reader.Next();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (!r->has_value()) break;
    bodies.push_back((*r)->body);
  }
  EXPECT_EQ(bodies, (std::vector<std::string>{"a", "b"}));
}

TEST_F(WalTest, ResumeMidSectorThenAppendReadsBack) {
  // The recovered frontier sits inside a sector of the second block; the
  // resumed writer's first flush rewrites that sector from its start, so the
  // bytes before the frontier must come back from the device unchanged.
  std::vector<std::string> bodies{std::string(9000, 'p'), "q"};
  Lsn frontier = 0;
  for (const std::string& body : bodies) {
    auto l = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, body));
    ASSERT_TRUE(l.ok());
    frontier = *l;
  }
  ASSERT_TRUE(writer_.FlushTo(frontier, &clk_).ok());
  ASSERT_NE(frontier % 512, 0u);
  ASSERT_NE(frontier % kPageSize, 0u);

  WalWriter resumed(&device_, 0, 64ull << 20);
  ASSERT_TRUE(resumed.Resume(frontier).ok());
  // Tiny, sector-crossing and block-crossing records, each flushed on its
  // own so every flush starts mid-sector or mid-block.
  Lsn end = frontier;
  for (const std::string& body :
       {std::string("r"), std::string(700, 's'), std::string("t"),
        std::string(2 * kPageSize, 'u'), std::string(40, 'v')}) {
    auto l = resumed.Append(MakeInsert(3, 1, Tid{0, 1}, body));
    ASSERT_TRUE(l.ok());
    ASSERT_TRUE(resumed.FlushTo(*l, &clk_).ok());
    bodies.push_back(body);
    end = *l;
  }

  WalReader reader(&device_, 0, 64ull << 20);
  std::vector<std::string> read;
  for (;;) {
    auto r = reader.Next();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (!r->has_value()) break;
    read.push_back((*r)->body);
  }
  EXPECT_EQ(read, bodies);
  EXPECT_EQ(reader.lsn(), end);
}

TEST_F(WalTest, ReaderStartsMidLog) {
  auto l1 = writer_.Append(MakeInsert(2, 1, Tid{0, 0}, "first"));
  auto l2 = writer_.Append(MakeInsert(3, 1, Tid{0, 0}, "second"));
  ASSERT_TRUE(writer_.FlushTo(*l2, &clk_).ok());
  WalReader reader(&device_, 0, 64ull << 20, /*start_lsn=*/*l1);
  auto r = reader.Next();
  ASSERT_TRUE(r.ok() && r->has_value());
  EXPECT_EQ((*r)->body, "second");
}

// A MemDevice whose next Write, once armed, parks until Release(): holds a
// WAL flush inside its device write.
class ParkingDevice : public StorageDevice {
 public:
  explicit ParkingDevice(uint64_t capacity) : inner_(capacity) {}

  Status Read(uint64_t offset, size_t len, uint8_t* out,
              VirtualClock* clk) override {
    return inner_.Read(offset, len, out, clk);
  }
  Status Write(uint64_t offset, size_t len, const uint8_t* data,
               VirtualClock* clk, bool background = false) override {
    {
      std::unique_lock<std::mutex> l(mu_);
      if (armed_) {
        armed_ = false;
        parked_ = true;
        cv_.notify_all();
        cv_.wait(l, [&] { return released_; });
      }
    }
    return inner_.Write(offset, len, data, clk, background);
  }
  Status Sync(VirtualClock* clk) override { return inner_.Sync(clk); }
  uint64_t capacity_bytes() const override { return inner_.capacity_bytes(); }
  DeviceStats stats() const override { return inner_.stats(); }

  void Arm() {
    std::lock_guard<std::mutex> l(mu_);
    armed_ = true;
  }
  bool WaitParked() {
    std::unique_lock<std::mutex> l(mu_);
    return cv_.wait_for(l, std::chrono::seconds(10), [&] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  MemDevice inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
  bool released_ = false;
};

// Appends do not wait on the log device: while one flush is parked in its
// block write, another thread's appends return. A second flush waits for the
// first, then leads (its lsn is past the first flush) or follows (it is
// not). The records appended during the write land in the block the first
// flush wrote partly, and extend past it: that block must stay buffered and
// be rewritten, or they are lost.
TEST(WalConcurrencyTest, AppendsProceedWhileAFlushWrites) {
  constexpr uint64_t kRegion = 1ull << 20;
  ParkingDevice device(kRegion);
  WalWriter writer(&device, 0, kRegion);
  auto l1 = writer.Append(MakeInsert(2, 1, Tid{0, 0}, "first"));
  ASSERT_TRUE(l1.ok());
  CounterDelta leaders("wal.group_commit.leader");
  CounterDelta followers("wal.group_commit.follower");

  device.Arm();
  auto flush = [&](Lsn lsn) {
    return std::async(std::launch::async, [&writer, lsn] {
      VirtualClock clk;
      return writer.FlushTo(lsn, &clk);
    });
  };
  auto first = flush(*l1);
  if (!device.WaitParked()) {
    device.Release();
    FAIL() << "the first flush never reached its device write";
  }

  const std::string body2(5000, 'b'), body3(5000, 'c');
  auto appends = std::async(std::launch::async, [&] {
    auto l2 = writer.Append(MakeInsert(3, 1, Tid{0, 1}, body2));
    auto l3 = writer.Append(MakeInsert(4, 1, Tid{0, 2}, body3));
    return l2.ok() && l3.ok() ? *l3 : Lsn{0};
  });
  if (appends.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    device.Release();
    FAIL() << "Append waited on a flush's device write";
  }
  const Lsn l3 = appends.get();
  ASSERT_GT(l3, kPageSize);  // the appends ran past the parked block

  auto second = flush(l3);   // leads once the first is done
  auto third = flush(*l1);   // the first flush covers it: follows
  EXPECT_EQ(second.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_EQ(third.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  device.Release();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  EXPECT_TRUE(third.get().ok());
  EXPECT_EQ(leaders(), 2);
  EXPECT_EQ(followers(), 1);
  EXPECT_EQ(writer.flushed_lsn(), l3);

  WalReader reader(&device, 0, kRegion);
  std::vector<std::string> bodies;
  for (;;) {
    auto r = reader.Next();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (!r->has_value()) break;
    bodies.push_back((*r)->body);
  }
  EXPECT_EQ(bodies, (std::vector<std::string>{"first", body2, body3}));
  EXPECT_EQ(reader.lsn(), l3);
}

// ---------------------------------------------------------------------------
// HeapPages::Redo
// ---------------------------------------------------------------------------

class HeapRedoTest : public ::testing::Test {
 protected:
  static constexpr RelationId kRel = 1;

  HeapRedoTest()
      : device_(64ull << 20), disk_(&device_), pool_(&disk_, 16) {
    EXPECT_TRUE(disk_.CreateRelation(kRel).ok());
  }

  /// For kHeapSlotDelete, `slot` becomes the one slot its body lists.
  Status Redo(WalRecordType type, uint16_t slot, const std::string& body,
              Lsn lsn, uint32_t flags = kPageFlagNone) {
    WalRecord r = MakeInsert(2, kRel, Tid{0, slot}, body);
    r.type = type;
    if (type == WalRecordType::kHeapSlotDelete) {
      r.tid.slot = 0;
      r.body.clear();
      PutFixed16(&r.body, slot);
    }
    return heap_.Redo(r, lsn, flags);
  }

  /// An encoded tuple header (the kHeapOverwrite body) with xmax `xmax`.
  static std::string Header(Xid xmax) {
    TupleHeader h;
    h.xmin = 2;
    h.xmax = xmax;
    std::string out;
    EncodeTuple(h, Slice(), &out);
    return out;
  }

  /// Runs `check` on page 0 under a shared latch.
  template <typename F>
  void WithPage(F check) {
    auto g = pool_.FetchPage(PageId{kRel, 0}, nullptr);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    g->LatchShared();
    check(g->page());
  }

  MemDevice device_;
  DiskManager disk_;
  BufferPool pool_;
  HeapPages heap_{&pool_, kRel};
};

TEST_F(HeapRedoTest, RecordAtOrBelowPageLsnIsNoOp) {
  ASSERT_TRUE(Redo(WalRecordType::kHeapInsert, 0, "aaaa", 100).ok());
  EXPECT_TRUE(Redo(WalRecordType::kHeapOverwrite, 0, Header(7), 100).ok());
  EXPECT_TRUE(Redo(WalRecordType::kHeapOverwrite, 0, Header(8), 50).ok());
  EXPECT_TRUE(Redo(WalRecordType::kHeapSlotDelete, 0, "", 99).ok());
  EXPECT_TRUE(Redo(WalRecordType::kHeapInsert, 1, "dddd", 100).ok());
  WithPage([](SlottedPage page) {
    EXPECT_EQ(page.header()->lsn, 100u);
    EXPECT_EQ(page.slot_count(), 1u);
    EXPECT_EQ(page.GetTuple(0).ToString(), "aaaa");
  });
}

TEST_F(HeapRedoTest, NewerSlotZeroInsertReinitsNonEmptyPageWithGivenFlags) {
  // A recycled append page is re-initialized without a WAL record; redo
  // replays that re-init when an insert at slot 0 outranks the page image.
  for (uint32_t flags : {uint32_t{kPageFlagNone},
                         uint32_t{kPageFlagAppendRegion}}) {
    SCOPED_TRACE(flags);
    const uint32_t other = flags ^ kPageFlagAppendRegion;
    const Lsn base = flags == kPageFlagNone ? 0 : 100;
    ASSERT_TRUE(
        Redo(WalRecordType::kHeapInsert, 0, "old0", base + 10, other).ok());
    ASSERT_TRUE(
        Redo(WalRecordType::kHeapInsert, 1, "old1", base + 20, other).ok());
    WithPage([&](SlottedPage page) {
      EXPECT_EQ(page.slot_count(), 2u);
      EXPECT_EQ(page.header()->flags, other);
    });
    ASSERT_TRUE(
        Redo(WalRecordType::kHeapInsert, 0, "new0", base + 30, flags).ok());
    WithPage([&](SlottedPage page) {
      EXPECT_EQ(page.slot_count(), 1u);
      EXPECT_EQ(page.GetTuple(0).ToString(), "new0");
      EXPECT_EQ(page.header()->flags, flags);
      EXPECT_EQ(page.header()->lsn, base + 30);
    });
  }
}

TEST_F(HeapRedoTest, SlotGapIsCorruption) {
  ASSERT_TRUE(Redo(WalRecordType::kHeapInsert, 0, "aaaa", 10).ok());
  Status s = Redo(WalRecordType::kHeapInsert, 2, "cccc", 20);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

TEST_F(HeapRedoTest, OverwriteOfSlotThePageNeverHadIsCorruption) {
  // A lost insert must fail recovery loudly, not drop the rewrite.
  std::string tuple = Header(0) + "payload";
  ASSERT_TRUE(Redo(WalRecordType::kHeapInsert, 0, tuple, 10).ok());
  Status s = Redo(WalRecordType::kHeapOverwrite, 99, Header(5), 20);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("page_lsn=10"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("rec_lsn=20"), std::string::npos) << s.message();
  WithPage([](SlottedPage page) { EXPECT_EQ(page.header()->lsn, 10u); });
}

TEST_F(HeapRedoTest, OverwriteThatIsNotOneHeaderIsCorruption) {
  std::string tuple = Header(0) + "payload";
  ASSERT_TRUE(Redo(WalRecordType::kHeapInsert, 0, tuple, 10).ok());
  // The whole tuple, or a short header: neither is a header rewrite.
  EXPECT_EQ(Redo(WalRecordType::kHeapOverwrite, 0, Header(5) + "payload", 20)
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(Redo(WalRecordType::kHeapOverwrite, 0, "short", 21).code(),
            StatusCode::kCorruption);
  ASSERT_TRUE(Redo(WalRecordType::kHeapOverwrite, 0, Header(5), 22).ok());
  WithPage([&](SlottedPage page) {
    TupleHeader h;
    ASSERT_TRUE(DecodeTupleHeader(page.GetTuple(0), &h));
    EXPECT_EQ(h.xmax, 5u);
    EXPECT_EQ(TuplePayload(page.GetTuple(0)).ToString(), "payload");
    EXPECT_EQ(page.header()->lsn, 22u);
  });
}

TEST_F(HeapRedoTest, OverwriteOfDeadSlotIsOk) {
  std::string tuple = Header(0) + "payload";
  ASSERT_TRUE(Redo(WalRecordType::kHeapInsert, 0, tuple, 10).ok());
  ASSERT_TRUE(Redo(WalRecordType::kHeapSlotDelete, 0, "", 20).ok());
  EXPECT_TRUE(Redo(WalRecordType::kHeapOverwrite, 0, Header(5), 30).ok());
  WithPage([](SlottedPage page) { EXPECT_TRUE(page.GetTuple(0).empty()); });
}

TEST_F(HeapRedoTest, SlotDeleteOfDeadSlotIsOk) {
  ASSERT_TRUE(Redo(WalRecordType::kHeapInsert, 0, "aaaa", 10).ok());
  ASSERT_TRUE(Redo(WalRecordType::kHeapSlotDelete, 0, "", 20).ok());
  EXPECT_TRUE(Redo(WalRecordType::kHeapSlotDelete, 0, "", 30).ok());
  WithPage([](SlottedPage page) {
    EXPECT_TRUE(page.GetTuple(0).empty());
    EXPECT_EQ(page.header()->lsn, 30u);
  });
}

TEST_F(HeapRedoTest, SlotDeleteKillsEveryListedSlot) {
  for (uint16_t s = 0; s < 3; ++s) {
    ASSERT_TRUE(Redo(WalRecordType::kHeapInsert, s, "tuple", 10 + s).ok());
  }
  WalRecord kill = MakeInsert(kInvalidXid, kRel, Tid{0, 0}, "");
  kill.type = WalRecordType::kHeapSlotDelete;
  PutFixed16(&kill.body, 0);
  PutFixed16(&kill.body, 2);
  ASSERT_TRUE(heap_.Redo(kill, 20, kPageFlagAppendRegion).ok());
  WithPage([](SlottedPage page) {
    EXPECT_EQ(page.slot_count(), 3u);
    EXPECT_TRUE(page.GetTuple(0).empty());
    EXPECT_EQ(page.GetTuple(1).ToString(), "tuple");
    EXPECT_TRUE(page.GetTuple(2).empty());
  });
  kill.body = "odd";
  EXPECT_EQ(heap_.Redo(kill, 30, kPageFlagNone).code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// A live HeapPages change and the Redo of its record give identical pages.
// ---------------------------------------------------------------------------

class HeapApplyTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static constexpr RelationId kRel = 1;

  /// One device + pool holding relation kRel.
  struct Store {
    Store() : device(4ull << 20), disk(&device), pool(&disk, 16) {
      EXPECT_TRUE(disk.CreateRelation(kRel).ok());
    }
    std::string Page(PageNumber p) {
      auto g = pool.FetchPage(PageId{kRel, p}, nullptr);
      EXPECT_TRUE(g.ok()) << g.status().ToString();
      g->LatchShared();
      return std::string(reinterpret_cast<const char*>(g->data()),
                         kPageSize);
    }
    MemDevice device;
    DiskManager disk;
    BufferPool pool;
  };

  HeapApplyTest() : wal_device_(4ull << 20), wal_(&wal_device_, 0, 4ull << 20) {
    auto g = live_.pool.NewPage(kRel, nullptr, GetParam());
    EXPECT_TRUE(g.ok());
  }

  static std::string Tuple(Xid xmin, Vid vid, const std::string& payload) {
    TupleHeader h;
    h.xmin = xmin;
    h.vid = vid;
    std::string out;
    EncodeTuple(h, Slice(payload), &out);
    return out;
  }

  void InsertThree() {
    for (Vid v = 0; v < 3; ++v) {
      auto slot = heap_.Insert(0, Slice(Tuple(5 + v, v, "payload")), 5 + v,
                               nullptr);
      ASSERT_TRUE(slot.ok()) << slot.status().ToString();
      ASSERT_EQ(*slot, v);
    }
  }

  /// Redoes the whole log into a fresh store; compares page 0 byte for byte.
  void ExpectRedoMatchesLive() {
    ASSERT_TRUE(wal_.FlushTo(wal_.current_lsn(), nullptr).ok());
    Store replay;
    HeapPages redo(&replay.pool, kRel);
    WalReader reader(&wal_device_, 0, 4ull << 20);
    for (;;) {
      auto rec = reader.Next();
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      if (!rec->has_value()) break;
      ASSERT_TRUE(redo.Redo(**rec, reader.lsn(), GetParam()).ok());
    }
    EXPECT_EQ(replay.Page(0), live_.Page(0));
  }

  Store live_;
  MemDevice wal_device_;
  WalWriter wal_;
  HeapPages heap_{&live_.pool, kRel, &wal_};
};

TEST_P(HeapApplyTest, InsertMatchesItsRedo) {
  InsertThree();
  ExpectRedoMatchesLive();
}

TEST_P(HeapApplyTest, RewriteHeaderMatchesItsRedo) {
  InsertThree();
  ASSERT_TRUE(heap_
                  .RewriteHeader(Tid{0, 1}, 9, nullptr,
                                 [](TupleHeader* h) {
                                   h->xmax = 9;
                                   h->set_pred(Tid{4, 2});
                                 })
                  .ok());
  TupleHeader h;
  ASSERT_TRUE(heap_.Fetch(Tid{0, 1}, nullptr, &h, nullptr).ok());
  EXPECT_EQ(h.xmax, 9u);
  EXPECT_EQ(h.pred(), (Tid{4, 2}));
  // Nothing to rewrite: nothing is logged.
  const Lsn before = wal_.current_lsn();
  EXPECT_TRUE(heap_.RewriteHeader(Tid{0, 7}, 9, nullptr, [](TupleHeader*) {})
                  .IsNotFound());
  EXPECT_EQ(wal_.current_lsn(), before);
  ExpectRedoMatchesLive();
}

TEST_P(HeapApplyTest, KillSlotsMatchesItsRedo) {
  InsertThree();
  size_t free_before = 0, free_after = 0;
  ASSERT_TRUE(heap_.VisitPage(0, nullptr, [](const VersionRef&, Slice) {
    return true;
  }, &free_before).ok());
  ASSERT_TRUE(heap_.KillSlots(0, {0, 2}, nullptr, &free_after).ok());
  // Only pages outside an append region are compacted.
  if (GetParam() == kPageFlagAppendRegion) {
    EXPECT_EQ(free_after, free_before);
  } else {
    EXPECT_GT(free_after, free_before);
  }
  std::vector<Tid> live;
  ASSERT_TRUE(heap_.Scan(nullptr, [&](const VersionRef& v, Slice) {
    live.push_back(v.tid);
    return true;
  }).ok());
  EXPECT_EQ(live, (std::vector<Tid>{Tid{0, 1}}));
  // A later insert keeps the slot numbering and lands in the freed space.
  auto slot = heap_.Insert(0, Slice(Tuple(9, 3, "after")), 9, nullptr);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(*slot, 3u);
  ExpectRedoMatchesLive();
}

INSTANTIATE_TEST_SUITE_P(PageKinds, HeapApplyTest,
                         ::testing::Values(uint32_t{kPageFlagNone},
                                           uint32_t{kPageFlagAppendRegion}),
                         [](const auto& info) {
                           return info.param == kPageFlagNone
                                      ? std::string("Heap")
                                      : std::string("AppendRegion");
                         });

}  // namespace
}  // namespace sias
