// EpochManager unit tests and the reclamation stress suite (run under ASan
// and TSan by scripts/sanitize.sh, which executes the whole ctest suite per
// sanitizer leg).
//
// The stress tests exercise the exact protocol the engine relies on:
// readers pin an epoch, load an atomically published pointer and keep
// dereferencing it while a writer installs replacements and retires the
// superseded objects. A use-after-free here is the bug class the epoch
// queue exists to prevent — ASan turns it into a hard failure — and the
// drain-to-zero assertions prove reclamation is not just safe but complete.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mvcc/epoch.h"

namespace sias {
namespace {

/// Iteration scaling: SIAS_STRESS_ITERS overrides the default for the
/// long 1000-iteration sanitizer runs (see docs/CONCURRENCY.md).
int StressIters(int fallback) {
  if (const char* env = std::getenv("SIAS_STRESS_ITERS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

TEST(EpochTest, EnterPinsAndExitUnpins) {
  EpochManager& em = EpochManager::Global();
  ASSERT_FALSE(em.InEpoch());
  uint64_t e = em.Enter();
  EXPECT_TRUE(em.InEpoch());
  EXPECT_EQ(e, em.current());
  EXPECT_LE(em.MinActive(), e);
  em.Exit();
  EXPECT_FALSE(em.InEpoch());
}

TEST(EpochTest, NestedEnterKeepsOutermostPin) {
  EpochManager& em = EpochManager::Global();
  uint64_t outer = em.Enter();
  em.Advance();
  uint64_t inner = em.Enter();  // re-entrant: must keep the outer pin
  EXPECT_EQ(inner, outer);
  EXPECT_EQ(em.MinActive(), outer);
  em.Exit();
  EXPECT_TRUE(em.InEpoch());  // still pinned by the outer enter
  em.Exit();
  EXPECT_FALSE(em.InEpoch());
}

TEST(EpochTest, MinActiveEqualsCurrentWhenIdle) {
  EpochManager& em = EpochManager::Global();
  ASSERT_FALSE(em.InEpoch());
  em.Quiesce();  // also drains any leftovers from sibling tests
  EXPECT_EQ(em.MinActive(), em.current());
}

TEST(EpochTest, MinActiveTracksOldestPinnedThread) {
  EpochManager& em = EpochManager::Global();
  std::atomic<uint64_t> pinned_epoch{0};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    pinned_epoch.store(em.Enter(), std::memory_order_seq_cst);
    while (!release.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
    em.Exit();
  });
  while (pinned_epoch.load(std::memory_order_seq_cst) == 0) {
    std::this_thread::yield();
  }
  uint64_t old_epoch = pinned_epoch.load(std::memory_order_seq_cst);
  em.Advance();
  em.Advance();
  EXPECT_EQ(em.MinActive(), old_epoch);  // the pinned thread holds it back
  release.store(true, std::memory_order_seq_cst);
  reader.join();
  EXPECT_GT(em.MinActive(), old_epoch);
}

TEST(EpochTest, RetireWaitsForPinnedReaderThenReclaims) {
  EpochManager& em = EpochManager::Global();
  em.Quiesce();
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    em.Enter();
    entered.store(true, std::memory_order_seq_cst);
    while (!release.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
    em.Exit();
  });
  while (!entered.load(std::memory_order_seq_cst)) std::this_thread::yield();

  std::atomic<int> freed{0};
  em.Retire([&freed] { freed.fetch_add(1, std::memory_order_seq_cst); });
  EXPECT_EQ(em.pending(), 1u);
  em.Advance();
  // The reader is pinned in an epoch <= the retire stamp: nothing may run.
  EXPECT_EQ(em.TryReclaim(), 0u);
  EXPECT_EQ(freed.load(std::memory_order_seq_cst), 0);
  EXPECT_EQ(em.pending(), 1u);

  release.store(true, std::memory_order_seq_cst);
  reader.join();
  em.Advance();
  EXPECT_EQ(em.TryReclaim(), 1u);
  EXPECT_EQ(freed.load(std::memory_order_seq_cst), 1);
  EXPECT_EQ(em.pending(), 0u);
}

TEST(EpochTest, ReclaimHandlesOutOfOrderStamps) {
  // Two threads can retire around a concurrent Advance, so queue stamps are
  // not sorted. A ripe entry sitting behind a fresher one must still run.
  EpochManager& em = EpochManager::Global();
  em.Quiesce();
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  em.Retire([&first] { first.fetch_add(1, std::memory_order_seq_cst); });
  em.Advance();
  {
    // Pin the *new* epoch so only the first entry is ripe after the next
    // advance; the second entry's stamp is >= our pin.
    EpochGuard pin;
    em.Retire([&second] { second.fetch_add(1, std::memory_order_seq_cst); });
  }
  std::atomic<int> third{0};
  em.Retire([&third] { third.fetch_add(1, std::memory_order_seq_cst); });
  em.Advance();
  EXPECT_EQ(em.TryReclaim(), 3u);
  EXPECT_EQ(first.load(std::memory_order_seq_cst), 1);
  EXPECT_EQ(second.load(std::memory_order_seq_cst), 1);
  EXPECT_EQ(third.load(std::memory_order_seq_cst), 1);
}

TEST(EpochTest, QuiesceDrainsEverything) {
  EpochManager& em = EpochManager::Global();
  int freed = 0;
  for (int i = 0; i < 16; ++i) {
    em.Retire([&freed] { freed++; });
    if (i % 3 == 0) em.Advance();
  }
  em.Quiesce();
  EXPECT_EQ(freed, 16);
  EXPECT_EQ(em.pending(), 0u);
}

TEST(EpochTest, QuiesceWaitsForCallbacksAnotherReclaimIsRunning) {
  // A callback another thread's TryReclaim took out of the queue still
  // counts as pending until it has run, and Quiesce waits for it: teardown
  // must not free what that callback touches while it runs.
  EpochManager& em = EpochManager::Global();
  em.Quiesce();
  std::atomic<bool> running{false}, release{false}, done{false};
  em.Retire([&] {
    running.store(true);
    while (!release.load()) std::this_thread::yield();
    done.store(true);
  });
  em.Advance();
  std::thread reclaimer([&] { EXPECT_EQ(em.TryReclaim(), 1u); });
  while (!running.load()) std::this_thread::yield();
  EXPECT_EQ(em.pending(), 1u);
  std::atomic<bool> quiesced{false};
  std::thread quiescer([&] {
    em.Quiesce();
    EXPECT_TRUE(done.load());
    quiesced.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(quiesced.load());
  release.store(true);
  quiescer.join();
  reclaimer.join();
  EXPECT_EQ(em.pending(), 0u);
}

TEST(EpochTest, SlotsAreReleasedAtThreadExitAndReused) {
  // More sequential threads than slots: each must claim, use and release a
  // slot, or ClaimSlot would run out and abort.
  EpochManager& em = EpochManager::Global();
  for (size_t i = 0; i < EpochManager::kMaxThreads + 16; ++i) {
    std::thread t([&em] {
      EpochGuard pin;
      EXPECT_TRUE(em.InEpoch());
    });
    t.join();
  }
  EXPECT_EQ(em.MinActive(), em.current());
}

// ---------------------------------------------------------------------------
// Reclamation stress: RCU-style publish/retire under concurrent pinned
// readers. ASan converts any premature free into a hard failure; the final
// quiesce asserts the deferred queue drains to zero.

TEST(EpochStressTest, PinnedReadersNeverSeeReclaimedMemory) {
  EpochManager& em = EpochManager::Global();
  em.Quiesce();

  struct Node {
    uint64_t generation;
    // Redundant payload so a use-after-free has bytes to corrupt and the
    // self-check below has something to validate.
    uint64_t check[8];
  };
  auto make = [](uint64_t gen) {
    Node* n = new Node();
    n->generation = gen;
    for (uint64_t& c : n->check) c = gen * 1315423911ull;
    return n;
  };

  std::atomic<Node*> published{make(0)};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  const int kReaders = 4;
  const int iters = StressIters(300);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_seq_cst)) {
        EpochGuard pin;
        Node* n = published.load(std::memory_order_seq_cst);
        // Dereference repeatedly while pinned: if the writer's retire queue
        // freed this node early, ASan flags it right here.
        for (int spin = 0; spin < 8; ++spin) {
          uint64_t gen = n->generation;
          for (uint64_t c : n->check) {
            ASSERT_EQ(c, gen * 1315423911ull) << "torn or reclaimed node";
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer + aggressive vacuum: every install retires the predecessor, and
  // every few installs we advance and reclaim as hard as possible.
  for (int i = 1; i <= iters; ++i) {
    Node* next = make(static_cast<uint64_t>(i));
    Node* old = published.exchange(next, std::memory_order_seq_cst);
    em.Retire([old] { delete old; });
    if (i % 4 == 0) {
      em.Advance();
      em.TryReclaim();
    }
  }
  // Keep churning until every reader got scheduled at least once — on a
  // single-core box the fixed-iteration loop above can finish before any
  // reader ran, and the race being tested needs them overlapping.
  uint64_t extra_gen = static_cast<uint64_t>(iters);
  while (reads.load(std::memory_order_seq_cst) <
         static_cast<uint64_t>(kReaders)) {
    Node* next = make(++extra_gen);
    Node* old = published.exchange(next, std::memory_order_seq_cst);
    em.Retire([old] { delete old; });
    em.Advance();
    em.TryReclaim();
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_seq_cst);
  for (auto& t : readers) t.join();
  EXPECT_GE(reads.load(std::memory_order_relaxed),
            static_cast<uint64_t>(kReaders));

  // Quiesce: with every reader gone the queue must drain to exactly zero.
  em.Quiesce();
  EXPECT_EQ(em.pending(), 0u);
  delete published.load(std::memory_order_seq_cst);
}

TEST(EpochStressTest, RetiresDuringConcurrentReclaimsRunExactlyOnce) {
  // TryReclaim filters the queue outside its mutex and splices the unripe
  // entries back: callbacks retired while two reclaimers are filtering
  // must be neither lost nor run twice, nor missed by a Quiesce.
  EpochManager& em = EpochManager::Global();
  em.Quiesce();
  const int kRetirers = 3;
  const int per_thread = StressIters(300) * 10;
  std::atomic<int64_t> ran{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_seq_cst)) {
        em.Advance();
        em.TryReclaim();
      }
    });
  }
  std::vector<std::thread> retirers;
  for (int t = 0; t < kRetirers; ++t) {
    retirers.emplace_back([&] {
      for (int i = 0; i < per_thread; ++i) {
        // Some retires come from pinned threads, so their entries stay
        // unripe across several reclaims and get spliced back.
        if (i % 7 == 0) {
          EpochGuard pin;
          em.Retire([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        } else {
          em.Retire([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
      }
    });
  }
  for (auto& t : retirers) t.join();
  // Quiesce while the reclaimers still run: it must wait for the entries
  // they hold out of the queue.
  em.Quiesce();
  EXPECT_EQ(ran.load(), static_cast<int64_t>(kRetirers) * per_thread);
  EXPECT_EQ(em.pending(), 0u);
  stop.store(true, std::memory_order_seq_cst);
  for (auto& t : threads) t.join();
}

TEST(EpochStressTest, ReaderPinnedInOldEpochBlocksOnlyItsGeneration) {
  // One reader camps in an old epoch while the writer churns: retires
  // stamped after the camper's epoch must stay queued, everything older
  // reclaims, and the backlog drains the moment the camper leaves.
  EpochManager& em = EpochManager::Global();
  em.Quiesce();

  std::atomic<bool> camped{false};
  std::atomic<bool> release{false};
  std::thread camper([&] {
    EpochGuard pin;
    camped.store(true, std::memory_order_seq_cst);
    while (!release.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
  });
  while (!camped.load(std::memory_order_seq_cst)) std::this_thread::yield();

  std::atomic<int> freed{0};
  const int iters = StressIters(300);
  for (int i = 0; i < iters; ++i) {
    em.Retire([&freed] { freed.fetch_add(1, std::memory_order_seq_cst); });
    em.Advance();
    em.TryReclaim();
  }
  // Every retire was stamped at-or-after the camper's pinned epoch: none
  // may have run.
  EXPECT_EQ(freed.load(std::memory_order_seq_cst), 0);
  EXPECT_EQ(em.pending(), static_cast<size_t>(iters));

  release.store(true, std::memory_order_seq_cst);
  camper.join();
  em.Advance();
  EXPECT_EQ(em.TryReclaim(), static_cast<size_t>(iters));
  EXPECT_EQ(freed.load(std::memory_order_seq_cst), iters);
  EXPECT_EQ(em.pending(), 0u);
}

}  // namespace
}  // namespace sias
