// sias-latch-rank POSITIVE fixture: a latch declared through a type alias
// (common/latch.h's RwLatch) still carries its rank. Each line marked BAD
// must be flagged, and no other.

namespace fixture {

enum class LatchRank : unsigned char {
  kBTree = 25,
  kBufferPool = 60,
};

struct Mutex {
  explicit Mutex(LatchRank) {}
};
struct SharedMutex {
  explicit SharedMutex(LatchRank) {}
};
using RwLatch = SharedMutex;

struct MutexLock {
  explicit MutexLock(Mutex*) {}
};
struct ReadLock {
  explicit ReadLock(RwLatch*) {}
};

struct Index {
  Mutex pool_mu_{LatchRank::kBufferPool};
  RwLatch tree_latch_{LatchRank::kBTree};

  void PoolThenTree() {
    MutexLock pool(&pool_mu_);    // rank 60 first...
    ReadLock tree(&tree_latch_);  // BAD: rank 25 acquired below held 60
  }
};

}  // namespace fixture
