// Unit tests for the storage layer: slotted page operations, checksums,
// compaction, and DiskManager extent allocation / persistence.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "common/crc32c.h"
#include "device/mem_device.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace sias {
namespace {

class SlottedPageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    buf_.resize(kPageSize);
    page_ = std::make_unique<SlottedPage>(buf_.data());
    page_->Init(/*relation=*/7, /*page_no=*/3);
  }
  std::vector<uint8_t> buf_;
  std::unique_ptr<SlottedPage> page_;
};

TEST_F(SlottedPageTest, InitSetsHeader) {
  EXPECT_EQ(page_->header()->relation, 7u);
  EXPECT_EQ(page_->header()->page_no, 3u);
  EXPECT_EQ(page_->slot_count(), 0u);
  EXPECT_GT(page_->FreeSpace(), kPageSize - 100);
  EXPECT_DOUBLE_EQ(page_->FillFraction(), 0.0);
}

TEST_F(SlottedPageTest, InsertAndGet) {
  uint16_t s0 = page_->InsertTuple(Slice("hello"));
  uint16_t s1 = page_->InsertTuple(Slice("world!"));
  ASSERT_NE(s0, SlottedPage::kInvalidSlot);
  ASSERT_NE(s1, SlottedPage::kInvalidSlot);
  EXPECT_EQ(page_->GetTuple(s0).ToString(), "hello");
  EXPECT_EQ(page_->GetTuple(s1).ToString(), "world!");
  EXPECT_EQ(page_->slot_count(), 2u);
}

TEST_F(SlottedPageTest, FillsUpAndRejects) {
  std::string tuple(100, 'x');
  int count = 0;
  while (page_->InsertTuple(Slice(tuple)) != SlottedPage::kInvalidSlot) {
    count++;
    ASSERT_LT(count, 100);
  }
  // 8160 usable / 104 per tuple ≈ 78.
  EXPECT_GE(count, 70);
  EXPECT_GT(page_->FillFraction(), 0.95);
}

TEST_F(SlottedPageTest, DeleteMarksDead) {
  uint16_t s0 = page_->InsertTuple(Slice("dead"));
  uint16_t s1 = page_->InsertTuple(Slice("alive"));
  ASSERT_TRUE(page_->DeleteTuple(s0).ok());
  EXPECT_TRUE(page_->GetTuple(s0).empty());
  EXPECT_EQ(page_->GetTuple(s1).ToString(), "alive");
  EXPECT_FALSE(page_->DeleteTuple(s0).ok());  // already dead
}

TEST_F(SlottedPageTest, CompactReclaimsSpaceKeepsSlots) {
  uint16_t s0 = page_->InsertTuple(Slice(std::string(2000, 'a')));
  uint16_t s1 = page_->InsertTuple(Slice("keep-me"));
  uint16_t s2 = page_->InsertTuple(Slice(std::string(2000, 'b')));
  size_t before = page_->FreeSpace();
  ASSERT_TRUE(page_->DeleteTuple(s0).ok());
  ASSERT_TRUE(page_->DeleteTuple(s2).ok());
  page_->Compact();
  EXPECT_GT(page_->FreeSpace(), before + 3900);
  EXPECT_EQ(page_->GetTuple(s1).ToString(), "keep-me");  // TID stable
}

TEST_F(SlottedPageTest, ChecksumDetectsCorruption) {
  page_->InsertTuple(Slice("payload"));
  page_->UpdateChecksum();
  EXPECT_TRUE(page_->VerifyChecksum());
  buf_[5000] ^= 0x40;
  EXPECT_FALSE(page_->VerifyChecksum());
}

// VerifyChecksum covers every byte of the page, the checksum field too.
TEST_F(SlottedPageTest, ChecksumCoversHeaderSlotsFieldAndLastByte) {
  page_->InsertTuple(Slice("payload"));
  page_->InsertTuple(Slice("second"));
  page_->UpdateChecksum();
  ASSERT_TRUE(page_->VerifyChecksum());
  const size_t positions[] = {
      offsetof(PageHeader, page_no),        // a header field
      sizeof(PageHeader) + 1,               // the slot array
      offsetof(PageHeader, checksum) + 2,   // the checksum itself
      kPageSize - 1,                        // the last byte of the page
  };
  for (size_t pos : positions) {
    buf_[pos] ^= 0x10;
    EXPECT_FALSE(page_->VerifyChecksum()) << "flip at byte " << pos;
    buf_[pos] ^= 0x10;
    EXPECT_TRUE(page_->VerifyChecksum());
  }
}

// The on-disk format: the stored value is the masked CRC32C of the page with
// its checksum field zeroed, computed here on a copy by the table path.
TEST_F(SlottedPageTest, StoredChecksumIsMaskedCrcOfZeroedCopy) {
  page_->InsertTuple(Slice("format"));
  page_->UpdateChecksum();
  std::vector<uint8_t> copy = buf_;
  reinterpret_cast<PageHeader*>(copy.data())->checksum = 0;
  EXPECT_EQ(page_->header()->checksum,
            MaskCrc(Crc32cPortableForTest(copy.data(), copy.size())));
}

TEST_F(SlottedPageTest, FreshPageVerifies) {
  // Never-checksummed page (checksum 0) must pass verification.
  EXPECT_TRUE(page_->VerifyChecksum());
}

class DiskManagerTest : public ::testing::Test {
 protected:
  DiskManagerTest()
      : device_(256ull << 20), disk_(&device_, /*reserved_bytes=*/65536) {}
  MemDevice device_;
  DiskManager disk_;
};

TEST_F(DiskManagerTest, CreateAndAllocate) {
  ASSERT_TRUE(disk_.CreateRelation(1).ok());
  EXPECT_TRUE(disk_.HasRelation(1));
  EXPECT_FALSE(disk_.HasRelation(2));
  EXPECT_FALSE(disk_.CreateRelation(1).ok());  // duplicate

  auto p0 = disk_.AllocatePage(1);
  auto p1 = disk_.AllocatePage(1);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(*disk_.PageCount(1), 2u);
}

TEST_F(DiskManagerTest, UnknownRelationRejected) {
  EXPECT_FALSE(disk_.AllocatePage(9).ok());
  EXPECT_FALSE(disk_.PageOffset(9, 0).ok());
}

TEST_F(DiskManagerTest, PageBeyondEndRejected) {
  ASSERT_TRUE(disk_.CreateRelation(1).ok());
  ASSERT_TRUE(disk_.AllocatePage(1).ok());
  EXPECT_TRUE(disk_.PageOffset(1, 0).ok());
  EXPECT_FALSE(disk_.PageOffset(1, 1).ok());
}

TEST_F(DiskManagerTest, RelationsLiveInDisjointExtents) {
  ASSERT_TRUE(disk_.CreateRelation(1).ok());
  ASSERT_TRUE(disk_.CreateRelation(2).ok());
  ASSERT_TRUE(disk_.AllocatePage(1).ok());
  ASSERT_TRUE(disk_.AllocatePage(2).ok());
  uint64_t o1 = *disk_.PageOffset(1, 0);
  uint64_t o2 = *disk_.PageOffset(2, 0);
  // Different relations get different 2 MB extents (the trace "swimlanes").
  EXPECT_GE(o1, 65536u);  // respects the reserved region
  uint64_t extent = DiskManager::kPagesPerExtent * kPageSize;
  EXPECT_EQ(o1 / extent != o2 / extent, true);
}

TEST_F(DiskManagerTest, SequentialPagesAreContiguous) {
  ASSERT_TRUE(disk_.CreateRelation(1).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(disk_.AllocatePage(1).ok());
  for (int i = 0; i + 1 < 10; ++i) {
    EXPECT_EQ(*disk_.PageOffset(1, i) + kPageSize, *disk_.PageOffset(1, i + 1));
  }
}

TEST_F(DiskManagerTest, AllocatedBytesTracksPages) {
  ASSERT_TRUE(disk_.CreateRelation(1).ok());
  EXPECT_EQ(disk_.allocated_bytes(), 0u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(disk_.AllocatePage(1).ok());
  EXPECT_EQ(disk_.allocated_bytes(), 5 * kPageSize);
}

TEST_F(DiskManagerTest, SerializeRestoresMapping) {
  ASSERT_TRUE(disk_.CreateRelation(1).ok());
  ASSERT_TRUE(disk_.CreateRelation(3).ok());
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(disk_.AllocatePage(1).ok());
  ASSERT_TRUE(disk_.AllocatePage(3).ok());
  uint64_t off_1_299 = *disk_.PageOffset(1, 299);
  uint64_t off_3_0 = *disk_.PageOffset(3, 0);

  std::string meta;
  disk_.Serialize(&meta);

  DiskManager restored(&device_, 65536);
  ASSERT_TRUE(restored.Deserialize(Slice(meta)).ok());
  EXPECT_TRUE(restored.HasRelation(1));
  EXPECT_TRUE(restored.HasRelation(3));
  EXPECT_FALSE(restored.HasRelation(2));
  EXPECT_EQ(*restored.PageCount(1), 300u);
  EXPECT_EQ(*restored.PageOffset(1, 299), off_1_299);
  EXPECT_EQ(*restored.PageOffset(3, 0), off_3_0);
  // New allocations continue beyond the restored high-water mark.
  auto p = restored.AllocatePage(3);
  ASSERT_TRUE(p.ok());
  uint64_t extent = DiskManager::kPagesPerExtent * kPageSize;
  EXPECT_NE(*restored.PageOffset(3, 1) / extent, off_1_299 / extent);
}

TEST_F(DiskManagerTest, DeserializeRejectsGarbage) {
  DiskManager fresh(&device_, 0);
  EXPECT_FALSE(fresh.Deserialize(Slice("abc")).ok());
}

}  // namespace
}  // namespace sias
