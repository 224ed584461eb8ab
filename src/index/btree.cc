#include "index/btree.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"
#include "common/logging.h"
#include "storage/page.h"

namespace sias {

namespace {

// Node layout after the 32-byte PageHeader:
//   level u16 (0 = leaf) | count u16 | right u32 | leftmost u32 | pad
// Entries start at byte 48; each entry is 64 bytes:
//   klen u16 | key[48] | value u64 | child u32 | pad u16
constexpr size_t kNodeHeader = 48;
constexpr size_t kEntrySize = 64;
constexpr size_t kEntryCapacity = (kPageSize - kNodeHeader) / kEntrySize;

struct NodeView {
  uint8_t* data;

  uint16_t level() const { return DecodeFixed16(data + 32); }
  void set_level(uint16_t v) { EncodeFixed16(data + 32, v); }
  uint16_t count() const { return DecodeFixed16(data + 34); }
  void set_count(uint16_t v) { EncodeFixed16(data + 34, v); }
  PageNumber right() const { return DecodeFixed32(data + 36); }
  void set_right(PageNumber v) { EncodeFixed32(data + 36, v); }
  PageNumber leftmost() const { return DecodeFixed32(data + 40); }
  void set_leftmost(PageNumber v) { EncodeFixed32(data + 40, v); }

  bool is_leaf() const { return level() == 0; }

  uint8_t* entry(size_t i) { return data + kNodeHeader + i * kEntrySize; }
  const uint8_t* entry(size_t i) const {
    return data + kNodeHeader + i * kEntrySize;
  }

  Slice key(size_t i) const {
    return Slice(entry(i) + 2, DecodeFixed16(entry(i)));
  }
  uint64_t value(size_t i) const { return DecodeFixed64(entry(i) + 50); }
  PageNumber child(size_t i) const { return DecodeFixed32(entry(i) + 58); }

  void set_entry(size_t i, Slice k, uint64_t v, PageNumber c) {
    uint8_t* e = entry(i);
    EncodeFixed16(e, static_cast<uint16_t>(k.size()));
    memcpy(e + 2, k.data(), k.size());
    if (k.size() < BTree::kMaxKeyLen) {
      memset(e + 2 + k.size(), 0, BTree::kMaxKeyLen - k.size());
    }
    EncodeFixed64(e + 50, v);
    EncodeFixed32(e + 58, c);
    EncodeFixed16(e + 62, 0);
  }

  void init(uint16_t lvl) {
    set_level(lvl);
    set_count(0);
    set_right(kInvalidPageNumber);
    set_leftmost(kInvalidPageNumber);
  }
};

int ComparePair(Slice ak, uint64_t av, Slice bk, uint64_t bv) {
  int c = ak.Compare(bk);
  if (c != 0) return c;
  if (av < bv) return -1;
  if (av > bv) return 1;
  return 0;
}

/// Index of the first entry with (key,value) >= (k,v).
size_t LowerBound(const NodeView& node, Slice k, uint64_t v) {
  size_t lo = 0, hi = node.count();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (ComparePair(node.key(mid), node.value(mid), k, v) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Child pointer to follow in an internal node for (k,v): the child of the
/// last entry <= (k,v), or leftmost if (k,v) precedes every entry.
PageNumber DescendChild(const NodeView& node, Slice k, uint64_t v) {
  size_t pos = LowerBound(node, k, v);
  if (pos < node.count() &&
      ComparePair(node.key(pos), node.value(pos), k, v) == 0) {
    return node.child(pos);
  }
  if (pos == 0) return node.leftmost();
  return node.child(pos - 1);
}

}  // namespace

BTree::BTree(RelationId relation, BufferPool* pool)
    : relation_(relation), pool_(pool) {}

Status BTree::Create(VirtualClock* clk) {
  WriteLock lock(&tree_latch_);
  auto g = pool_->NewPage(relation_, clk);
  if (!g.ok()) return g.status();
  g->LatchExclusive();
  NodeView node{g->data()};
  node.init(/*lvl=*/0);
  g->MarkDirty();
  g->Unlatch();
  root_ = g->id().page;
  height_ = 1;
  size_ = 0;
  return Status::OK();
}

Status BTree::Insert(Slice key, uint64_t value, VirtualClock* clk) {
  if (key.size() > kMaxKeyLen) {
    return Status::InvalidArgument("index key too long");
  }
  WriteLock lock(&tree_latch_);
  // Descend, remembering the path of internal pages.
  std::vector<PageNumber> path;
  PageNumber current = root_;
  for (;;) {
    auto g = pool_->FetchPage(PageId{relation_, current}, clk);
    if (!g.ok()) return g.status();
    PageGuard guard = std::move(*g);
    guard.LatchExclusive();
    NodeView node{guard.data()};
    if (!node.is_leaf()) {
      path.push_back(current);
      PageNumber next = DescendChild(node, key, value);
      guard.Unlatch();
      current = next;
      continue;
    }
    // Leaf reached.
    size_t pos = LowerBound(node, key, value);
    if (pos < node.count() &&
        ComparePair(node.key(pos), node.value(pos), key, value) == 0) {
      guard.Unlatch();
      return Status::OK();  // exact duplicate: idempotent
    }
    if (node.count() < kEntryCapacity) {
      memmove(node.entry(pos + 1), node.entry(pos),
              (node.count() - pos) * kEntrySize);
      node.set_entry(pos, key, value, kInvalidPageNumber);
      node.set_count(node.count() + 1);
      guard.MarkDirty();
      guard.Unlatch();
      size_++;
      return Status::OK();
    }
    // Leaf full: split.
    return SplitAndInsert(std::move(guard), std::move(path), key, value, clk);
  }
}

Status BTree::SplitAndInsert(PageGuard leaf, std::vector<PageNumber> path,
                             Slice key, uint64_t value, VirtualClock* clk) {
  // leaf is exclusively latched. Allocate the right sibling.
  auto ng = pool_->NewPage(relation_, clk);
  if (!ng.ok()) {
    leaf.Unlatch();
    return ng.status();
  }
  PageGuard right_guard = std::move(*ng);
  right_guard.LatchExclusive();
  NodeView left{leaf.data()};
  NodeView right{right_guard.data()};
  right.init(/*lvl=*/0);

  size_t split = left.count() / 2;
  size_t moved = left.count() - split;
  memcpy(right.entry(0), left.entry(split), moved * kEntrySize);
  right.set_count(static_cast<uint16_t>(moved));
  left.set_count(static_cast<uint16_t>(split));
  right.set_right(left.right());
  left.set_right(right_guard.id().page);

  // Insert the new entry into the proper half.
  std::string sep_key = right.key(0).ToString();
  uint64_t sep_val = right.value(0);
  NodeView* target =
      ComparePair(key, value, Slice(sep_key), sep_val) < 0 ? &left : &right;
  size_t pos = LowerBound(*target, key, value);
  memmove(target->entry(pos + 1), target->entry(pos),
          (target->count() - pos) * kEntrySize);
  target->set_entry(pos, key, value, kInvalidPageNumber);
  target->set_count(target->count() + 1);
  size_++;

  // Refresh the separator (the right node's first pair).
  sep_key = right.key(0).ToString();
  sep_val = right.value(0);
  PageNumber right_page = right_guard.id().page;
  leaf.MarkDirty();
  right_guard.MarkDirty();
  leaf.Unlatch();
  right_guard.Unlatch();
  leaf.Release();
  right_guard.Release();

  // Propagate the separator upward. Internal entries carry (key, value,
  // child) so duplicate keys route deterministically.
  std::string up_key = sep_key;
  uint64_t up_val = sep_val;
  PageNumber up_child = right_page;
  while (true) {
    if (path.empty()) {
      // Split reached the root: grow the tree.
      auto rg = pool_->NewPage(relation_, clk);
      if (!rg.ok()) return rg.status();
      PageGuard root_guard = std::move(*rg);
      root_guard.LatchExclusive();
      NodeView newroot{root_guard.data()};
      newroot.init(static_cast<uint16_t>(height_));
      newroot.set_leftmost(root_);
      newroot.set_entry(0, Slice(up_key), up_val, up_child);
      newroot.set_count(1);
      root_guard.MarkDirty();
      root_guard.Unlatch();
      root_ = root_guard.id().page;
      height_++;
      return Status::OK();
    }
    PageNumber parent_no = path.back();
    path.pop_back();
    auto pg = pool_->FetchPage(PageId{relation_, parent_no}, clk);
    if (!pg.ok()) return pg.status();
    PageGuard parent = std::move(*pg);
    parent.LatchExclusive();
    NodeView pnode{parent.data()};
    size_t pos = LowerBound(pnode, Slice(up_key), up_val);
    if (pnode.count() < kEntryCapacity) {
      memmove(pnode.entry(pos + 1), pnode.entry(pos),
              (pnode.count() - pos) * kEntrySize);
      pnode.set_entry(pos, Slice(up_key), up_val, up_child);
      pnode.set_count(pnode.count() + 1);
      parent.MarkDirty();
      parent.Unlatch();
      return Status::OK();
    }
    // Split the internal node.
    auto ig = pool_->NewPage(relation_, clk);
    if (!ig.ok()) {
      parent.Unlatch();
      return ig.status();
    }
    PageGuard iright_guard = std::move(*ig);
    iright_guard.LatchExclusive();
    NodeView ileft{parent.data()};
    NodeView iright{iright_guard.data()};
    iright.init(ileft.level());

    size_t isplit = ileft.count() / 2;
    // The middle entry moves UP; its child becomes the right node's
    // leftmost.
    std::string mid_key = ileft.key(isplit).ToString();
    uint64_t mid_val = ileft.value(isplit);
    PageNumber mid_child = ileft.child(isplit);
    size_t imoved = ileft.count() - isplit - 1;
    memcpy(iright.entry(0), ileft.entry(isplit + 1), imoved * kEntrySize);
    iright.set_count(static_cast<uint16_t>(imoved));
    iright.set_leftmost(mid_child);
    ileft.set_count(static_cast<uint16_t>(isplit));

    // Insert the pending separator into the correct half.
    NodeView* itarget =
        ComparePair(Slice(up_key), up_val, Slice(mid_key), mid_val) < 0
            ? &ileft
            : &iright;
    size_t ipos = LowerBound(*itarget, Slice(up_key), up_val);
    memmove(itarget->entry(ipos + 1), itarget->entry(ipos),
            (itarget->count() - ipos) * kEntrySize);
    itarget->set_entry(ipos, Slice(up_key), up_val, up_child);
    itarget->set_count(itarget->count() + 1);

    parent.MarkDirty();
    iright_guard.MarkDirty();
    PageNumber iright_page = iright_guard.id().page;
    parent.Unlatch();
    iright_guard.Unlatch();

    up_key = mid_key;
    up_val = mid_val;
    up_child = iright_page;
  }
}

Status BTree::Delete(Slice key, uint64_t value, VirtualClock* clk) {
  WriteLock lock(&tree_latch_);
  PageNumber current = root_;
  for (;;) {
    auto g = pool_->FetchPage(PageId{relation_, current}, clk);
    if (!g.ok()) return g.status();
    PageGuard guard = std::move(*g);
    guard.LatchExclusive();
    NodeView node{guard.data()};
    if (!node.is_leaf()) {
      PageNumber next = DescendChild(node, key, value);
      guard.Unlatch();
      current = next;
      continue;
    }
    size_t pos = LowerBound(node, key, value);
    if (pos >= node.count() ||
        ComparePair(node.key(pos), node.value(pos), key, value) != 0) {
      guard.Unlatch();
      return Status::NotFound("index entry absent");
    }
    memmove(node.entry(pos), node.entry(pos + 1),
            (node.count() - pos - 1) * kEntrySize);
    node.set_count(node.count() - 1);
    guard.MarkDirty();
    guard.Unlatch();
    size_--;
    return Status::OK();
  }
}

struct BTree::Batch {
  struct Entry {
    uint16_t key_len;
    uint8_t key[kMaxKeyLen];
    uint64_t value;
    Slice key_slice() const { return Slice(key, key_len); }
  };
  Entry entries[kScanBatch];
  size_t n = 0;
  bool more = false;  ///< stopped at kScanBatch, not at the end of the scan
};

Status BTree::Lookup(Slice key, VirtualClock* clk, RangeCallback cb) {
  return Scan(key, Slice(), /*point=*/true, clk, cb);
}

Status BTree::Range(Slice lo, Slice hi, VirtualClock* clk, RangeCallback cb) {
  return Scan(lo, hi, /*point=*/false, clk, cb);
}

Status BTree::Scan(Slice lo, Slice hi, bool point, VirtualClock* clk,
                   RangeCallback cb) {
  Batch batch;
  SIAS_RETURN_NOT_OK(CopyBatch(lo, 0, /*after=*/false, hi, point, clk, &batch));
  for (;;) {
    for (size_t i = 0; i < batch.n; ++i) {
      const Batch::Entry& e = batch.entries[i];
      if (!cb(e.key_slice(), e.value)) return Status::OK();
    }
    if (!batch.more) return Status::OK();
    // Resume after the last entry: copy it out first, CopyBatch refills
    // the array it lives in.
    Batch::Entry last = batch.entries[batch.n - 1];
    SIAS_RETURN_NOT_OK(CopyBatch(last.key_slice(), last.value,
                                 /*after=*/true, hi, point, clk, &batch));
  }
}

Status BTree::CopyBatch(Slice lo, uint64_t lo_value, bool after, Slice hi,
                        bool point, VirtualClock* clk, Batch* out) {
  out->n = 0;
  out->more = false;
  ReadLock lock(&tree_latch_);
  PageNumber current = root_;
  for (;;) {
    auto g = pool_->FetchPage(PageId{relation_, current}, clk);
    if (!g.ok()) return g.status();
    PageGuard guard = std::move(*g);
    guard.LatchShared();
    NodeView node{guard.data()};
    if (!node.is_leaf()) {
      PageNumber next = DescendChild(node, lo, lo_value);
      guard.Unlatch();
      current = next;
      continue;
    }
    // Walk leaves from here.
    size_t pos = LowerBound(node, lo, lo_value);
    if (after && pos < node.count() &&
        ComparePair(node.key(pos), node.value(pos), lo, lo_value) == 0) {
      pos++;
    }
    for (;;) {
      for (; pos < node.count(); ++pos) {
        Slice k = node.key(pos);
        if (point ? k.Compare(lo) != 0 : !hi.empty() && k.Compare(hi) >= 0) {
          guard.Unlatch();
          return Status::OK();
        }
        if (out->n == kScanBatch) {
          out->more = true;
          guard.Unlatch();
          return Status::OK();
        }
        Batch::Entry& e = out->entries[out->n++];
        e.key_len = static_cast<uint16_t>(k.size());
        memcpy(e.key, k.data(), k.size());
        e.value = node.value(pos);
      }
      PageNumber next = node.right();
      guard.Unlatch();
      if (next == kInvalidPageNumber) return Status::OK();
      auto ng = pool_->FetchPage(PageId{relation_, next}, clk);
      if (!ng.ok()) return ng.status();
      guard = std::move(*ng);
      guard.LatchShared();
      node = NodeView{guard.data()};
      pos = 0;
    }
  }
}

uint64_t BTree::size() const {
  ReadLock lock(&tree_latch_);
  return size_;
}

uint32_t BTree::height() const {
  ReadLock lock(&tree_latch_);
  return height_;
}

Status BTree::CheckInvariants(VirtualClock* clk) {
  ReadLock lock(&tree_latch_);
  // Walk down the leftmost spine, then scan the leaf chain checking global
  // (key, value) ordering and the maintained size counter.
  PageNumber current = root_;
  uint32_t depth = 1;
  for (;;) {
    auto g = pool_->FetchPage(PageId{relation_, current}, clk);
    if (!g.ok()) return g.status();
    PageGuard guard = std::move(*g);
    guard.LatchShared();
    NodeView node{guard.data()};
    if (node.is_leaf()) {
      guard.Unlatch();
      break;
    }
    PageNumber next = node.leftmost();
    if (next == kInvalidPageNumber) {
      guard.Unlatch();
      return Status::Corruption("internal node without leftmost child");
    }
    guard.Unlatch();
    current = next;
    depth++;
  }
  if (depth != height_) return Status::Corruption("height mismatch");

  uint64_t counted = 0;
  std::string prev_key;
  uint64_t prev_val = 0;
  bool have_prev = false;
  while (current != kInvalidPageNumber) {
    auto g = pool_->FetchPage(PageId{relation_, current}, clk);
    if (!g.ok()) return g.status();
    PageGuard guard = std::move(*g);
    guard.LatchShared();
    NodeView node{guard.data()};
    if (!node.is_leaf()) {
      guard.Unlatch();
      return Status::Corruption("non-leaf in leaf chain");
    }
    for (size_t i = 0; i < node.count(); ++i) {
      if (have_prev &&
          ComparePair(Slice(prev_key), prev_val, node.key(i),
                      node.value(i)) >= 0) {
        guard.Unlatch();
        return Status::Corruption("leaf entries out of order");
      }
      prev_key = node.key(i).ToString();
      prev_val = node.value(i);
      have_prev = true;
      counted++;
    }
    PageNumber next = node.right();
    guard.Unlatch();
    current = next;
  }
  if (counted != size_) return Status::Corruption("size counter mismatch");
  return Status::OK();
}

}  // namespace sias
