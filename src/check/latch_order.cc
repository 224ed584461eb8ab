#include "check/latch_order.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define SIAS_HAVE_BACKTRACE 1
#endif
#endif

namespace sias {
namespace check {
namespace {

constexpr int kMaxFrames = 24;

struct HeldEntry {
  const void* latch;
  LatchRank rank;
  bool try_only;  // acquired via try-lock; exempt from ordering
#if defined(SIAS_HAVE_BACKTRACE)
  void* stack[kMaxFrames];
  int depth;
#endif
};

// Per-thread stack of held latches, in acquisition order. A plain vector:
// threads hold a handful of latches at a time.
thread_local std::vector<HeldEntry> tl_held;

void CaptureStack(HeldEntry* e) {
#if defined(SIAS_HAVE_BACKTRACE)
  e->depth = backtrace(e->stack, kMaxFrames);
#else
  (void)e;
#endif
}

void PrintStack(const char* label, const HeldEntry* e) {
  std::fprintf(stderr, "--- %s ---\n", label);
#if defined(SIAS_HAVE_BACKTRACE)
  if (e != nullptr && e->depth > 0) {
    backtrace_symbols_fd(e->stack, e->depth, 2);
    return;
  }
#endif
  if (e == nullptr) {
    HeldEntry cur{};
    CaptureStack(&cur);
#if defined(SIAS_HAVE_BACKTRACE)
    backtrace_symbols_fd(cur.stack, cur.depth, 2);
    return;
#endif
  }
  std::fprintf(stderr, "  (no backtrace available)\n");
}

[[noreturn]] void Violation(const char* what, const void* latch,
                            LatchRank rank, const HeldEntry* held) {
  std::fprintf(stderr,
               "\n=== sias latch-order violation: %s ===\n"
               "acquiring latch %p rank %u (%s)\n",
               what, latch, static_cast<unsigned>(rank), LatchRankName(rank));
  if (held != nullptr) {
    std::fprintf(stderr, "while holding latch %p rank %u (%s)\n", held->latch,
                 static_cast<unsigned>(held->rank),
                 LatchRankName(held->rank));
  }
  PrintStack("current acquisition stack", nullptr);
  if (held != nullptr) {
    PrintStack("conflicting latch was acquired at", held);
  }
  std::fprintf(stderr,
               "rank table & discipline: docs/CONCURRENCY.md / "
               "src/check/latch_order.h\n");
  std::fflush(stderr);
  std::abort();
}

// ---------------------------------------------------------------------------
// Instance-level acquired-before graph for UNRANKED latches (mini-lockdep).
// Edge A->B means "B was acquired while A was held"; inserting an edge that
// makes the graph cyclic is an ABBA deadlock pattern.

struct OrderGraph {
  std::mutex mu;
  // adjacency: latch -> set of latches acquired while it was held
  std::unordered_map<const void*, std::unordered_set<const void*>> edges;

  // Is `to` already ordered before `from` (i.e. would from->to close a
  // cycle)? DFS over a graph bounded by the number of distinct unranked
  // latch instances — tiny in practice.
  bool ReachableLocked(const void* from, const void* to) {
    if (from == to) return true;
    std::vector<const void*> work{from};
    std::unordered_set<const void*> seen{from};
    while (!work.empty()) {
      const void* cur = work.back();
      work.pop_back();
      auto it = edges.find(cur);
      if (it == edges.end()) continue;
      for (const void* next : it->second) {
        if (next == to) return true;
        if (seen.insert(next).second) work.push_back(next);
      }
    }
    return false;
  }
};

OrderGraph& Graph() {
  static OrderGraph* g = new OrderGraph();  // leaked: outlives all threads
  return *g;
}

void CheckUnrankedEdge(const HeldEntry& held, const void* latch) {
  OrderGraph& g = Graph();
  std::lock_guard<std::mutex> guard(g.mu);
  if (g.edges[held.latch].insert(latch).second) {
    // New edge; a cycle can only appear when an edge is first inserted.
    if (g.ReachableLocked(latch, held.latch)) {
      Violation("acquired-before cycle between unranked latches", latch,
                LatchRank::kUnranked, &held);
    }
  }
}

}  // namespace

const char* LatchRankName(LatchRank rank) {
  switch (rank) {
    case LatchRank::kUnranked: return "unranked";
    case LatchRank::kDbMaintenance: return "db-maintenance";
    case LatchRank::kDbCatalog: return "db-catalog";
    case LatchRank::kTxnManager: return "txn-manager";
    case LatchRank::kBTree: return "btree";
    case LatchRank::kMvPbt: return "mvpbt";
    case LatchRank::kAppendRegion: return "append-region";
    case LatchRank::kPage: return "page";
    case LatchRank::kSiHeapMap: return "si-heap-map";
    case LatchRank::kSiHeapFsm: return "si-heap-fsm";
    case LatchRank::kVidMapSlot: return "vidmap-slot";
    case LatchRank::kBufferPool: return "buffer-pool";
    case LatchRank::kWalFlush: return "wal-flush";
    case LatchRank::kWal: return "wal";
    case LatchRank::kBucketDir: return "bucket-dir";
    case LatchRank::kLockManager: return "lock-manager";
    case LatchRank::kDisk: return "disk";
    case LatchRank::kIoQueue: return "io-queue";
    case LatchRank::kFaultyDevice: return "faulty-device";
    case LatchRank::kIoCompletion: return "io-completion";
    case LatchRank::kDevice: return "device";
    case LatchRank::kDeviceCalendar: return "device-calendar";
    case LatchRank::kDeviceStore: return "device-store";
    case LatchRank::kEpochQueue: return "epoch-queue";
    case LatchRank::kStats: return "stats";
    case LatchRank::kMetricsRegistry: return "metrics-registry";
    case LatchRank::kSpanAggregator: return "span-aggregator";
  }
  return "?";
}

bool RankAllowsSameRankNesting(LatchRank rank) {
  // Page latches nest (split holds a leaf while latching siblings / new
  // pages); those sections are serialized by the exclusive tree latch, so
  // same-rank page nesting cannot deadlock. No other rank may nest itself.
  return rank == LatchRank::kPage;
}

void OnAcquire(const void* latch, LatchRank rank) {
  HeldEntry entry{};
  entry.latch = latch;
  entry.rank = rank;
  entry.try_only = false;
  CaptureStack(&entry);

  for (const HeldEntry& held : tl_held) {
    if (held.latch == latch) {
      Violation("re-acquisition of a latch the thread already holds", latch,
                rank, &held);
    }
    if (held.try_only) continue;  // try-acquires impose no order
    if (rank == LatchRank::kUnranked) {
      if (held.rank == LatchRank::kUnranked) CheckUnrankedEdge(held, latch);
      continue;  // unranked is exempt from the rank rule
    }
    if (held.rank == LatchRank::kUnranked) continue;
    if (static_cast<uint8_t>(held.rank) > static_cast<uint8_t>(rank)) {
      Violation("rank inversion (acquiring lower/equal rank than held)",
                latch, rank, &held);
    }
    if (held.rank == rank && !RankAllowsSameRankNesting(rank)) {
      Violation("same-rank nesting not allowed for this rank", latch, rank,
                &held);
    }
  }
  tl_held.push_back(entry);
}

void OnTryAcquire(const void* latch, LatchRank rank) {
  HeldEntry entry{};
  entry.latch = latch;
  entry.rank = rank;
  entry.try_only = true;
  CaptureStack(&entry);
  tl_held.push_back(entry);
}

void OnRelease(const void* latch) {
  for (auto it = tl_held.rbegin(); it != tl_held.rend(); ++it) {
    if (it->latch == latch) {
      tl_held.erase(std::next(it).base());
      return;
    }
  }
  // Release of a latch this thread never recorded: tolerated (e.g. a latch
  // handed between threads would do this; the engine has no such latch, but
  // the checker should not turn a benign pattern into an abort).
}

bool IsHeld(const void* latch) {
  for (const HeldEntry& held : tl_held) {
    if (held.latch == latch) return true;
  }
  return false;
}

void AssertHeld(const void* latch) {
  if (!IsHeld(latch)) {
    Violation("AssertHeld on a latch the thread does not hold", latch,
              LatchRank::kUnranked, nullptr);
  }
}

size_t HeldCount() { return tl_held.size(); }

namespace {
thread_local size_t tl_epoch_depth = 0;
}  // namespace

void OnEpochEnter() {
  if (tl_epoch_depth++ > 0) return;  // nested entries pin nothing new
  for (const HeldEntry& held : tl_held) {
    if (held.try_only) continue;  // try-acquires never block an epoch pin
    if (held.rank == LatchRank::kUnranked) continue;
    if (static_cast<uint8_t>(held.rank) >=
        static_cast<uint8_t>(LatchRank::kPage)) {
      Violation("epoch entered under a storage-layer latch (rank >= kPage)",
                nullptr, held.rank, &held);
    }
  }
}

void OnEpochExit() {
  if (tl_epoch_depth == 0) {
    Violation("epoch exit without a matching enter", nullptr,
              LatchRank::kUnranked, nullptr);
  }
  tl_epoch_depth--;
}

size_t EpochDepth() { return tl_epoch_depth; }

}  // namespace check
}  // namespace sias
