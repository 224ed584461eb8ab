// sias-latch-rank POSITIVE fixture: nested acquisitions that violate the
// rank order (inner rank <= outer rank); each line marked BAD must be
// flagged. Enumerator names and values match src/check/latch_order.h,
// whose rank table the check reads.

namespace fixture {

enum class LatchRank : unsigned char {
  kBufferPool = 60,
  kWal = 65,
};

struct Mutex {
  Mutex() = default;
  explicit Mutex(LatchRank) {}
};

struct MutexLock {
  explicit MutexLock(Mutex*) {}
};

struct Engine {
  Mutex pool_mu_{LatchRank::kBufferPool};
  Mutex wal_mu_{LatchRank::kWal};

  void DescendingOrder() {
    MutexLock wal(&wal_mu_);    // rank 65 first...
    MutexLock pool(&pool_mu_);  // BAD: rank 60 acquired below held rank 65
  }

  void SelfNesting() {
    MutexLock a(&wal_mu_);
    MutexLock b(&wal_mu_);  // BAD: same rank nested (kWal is not kPage)
  }
};

}  // namespace fixture
