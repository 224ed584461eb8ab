#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include "device/flash_ssd.h"
#include "device/raid0.h"
#include "workload/tpcc_gen.h"
#include "workload/tpcc_txn.h"
#include "workload/ycsb.h"

namespace perfbench {

using namespace sias;

namespace {


void ResetEngine(Engine* e) {
  e->db.reset();
  e->wal.reset();
  e->data.reset();
  e->wal_raw.reset();
  e->data_raw.reset();
}

/// SIAS-V on a 2-member flash RAID-0 with the WAL on its own fast device,
/// t2 flush (append pages reach flash with checkpoints), bgwriter every
/// 20 ms and checkpoints every 4 s of virtual time. Vacuum stays off: with
/// it on, tpcc fails TPC-C consistency condition 2 (see NOTES.md).
Status OpenEngine(Engine* e, size_t pool_frames) {
  ResetEngine(e);
  std::vector<std::unique_ptr<StorageDevice>> members;
  for (int i = 0; i < 2; ++i) {
    FlashConfig fc;
    fc.capacity_bytes = 1ull << 30;
    members.push_back(std::make_unique<FlashSsd>(fc));
  }
  e->data_raw = std::make_unique<Raid0>(std::move(members));
  e->wal_raw = std::make_unique<MemDevice>(8ull << 30, 20 * kVMicrosecond,
                                           60 * kVMicrosecond);
  e->data = std::make_unique<TimedDevice>(e->data_raw.get(),
                                          SpanKind::kDataDevice);
  e->wal = std::make_unique<TimedDevice>(e->wal_raw.get(),
                                         SpanKind::kWalDevice);
  DatabaseOptions opts;
  opts.data_device = e->data.get();
  opts.wal_device = e->wal.get();
  opts.pool_frames = pool_frames;
  opts.flush_policy = FlushPolicy::kT2Checkpoint;
  opts.bgwriter_interval = 20 * kVMillisecond;
  opts.checkpoint_interval = 4 * kVSecond;
  SIAS_ASSIGN_OR_RETURN(e->db, Database::Open(opts));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// tpcc: one driver thread round-robins four terminals, so every virtual
// count is a function of the seed alone.
// ---------------------------------------------------------------------------

class TpccWorkload final : public Workload {
 public:
  static constexpr int kWarehouses = 4;
  static constexpr int kTerminals = 4;
  static constexpr int kMaxRetries = 5;
  static constexpr uint64_t kWarmupTxns = 1000;
  static constexpr int64_t kRoundTxns = 6000;

  Status Setup(uint64_t seed) override {
    exec_.reset();
    SIAS_RETURN_NOT_OK(OpenEngine(&eng_, 1024));
    SIAS_ASSIGN_OR_RETURN(tables_, tpcc::CreateTpccTables(
                                       eng_.db.get(), VersionScheme::kSiasV));
    tpcc::TpccConfig cfg;
    cfg.warehouses = kWarehouses;
    cfg.scale.customers_per_district = 150;
    cfg.scale.items = 2000;
    Random rng(Mix(seed, 1));
    VirtualClock load;
    SIAS_RETURN_NOT_OK(tpcc::LoadTpcc(eng_.db.get(), tables_, cfg.scale,
                                      kWarehouses, rng, &load));
    SIAS_RETURN_NOT_OK(eng_.db->Checkpoint(&load));
    exec_ = std::make_unique<tpcc::TpccExecutor>(eng_.db.get(), tables_, cfg);
    for (int i = 0; i < kTerminals; ++i) {
      terms_[i].clock = VirtualClock(load.now());
      terms_[i].rng.Seed(Mix(seed, 100 + i));
      terms_[i].w_id = i % kWarehouses + 1;
    }
    deck_rng_.Seed(Mix(seed, 2));
    deck_.clear();
    Phase warm;
    ThreadStats scratch(seed);
    for (uint64_t n = 0; n < kWarmupTxns; ++n) {
      RunOne(terms_[n % kTerminals], warm, &scratch);
    }
    if (!scratch.correct) return Status::Corruption(scratch.first_problem);
    return Status::OK();
  }

  int threads() const override { return 1; }
  int64_t round_ops() const override { return kRoundTxns; }
  const char* headline() const override { return "new_order"; }

  void BeginPhase() override {
    VTime start = 0;
    for (const Terminal& t : terms_) start = std::max(start, t.clock.now());
    for (Terminal& t : terms_) t.clock.AdvanceTo(start);
    start_ = start;
    new_orders_ = 0;
    data_bytes_start_ = eng_.data->counts().write_bytes;
  }

  void Worker(int, Phase& phase, ThreadStats* st) override {
    for (uint64_t n = 0; phase.Claim(); ++n) {
      RunOne(terms_[n % kTerminals], phase, st);
    }
  }

  VirtualWindow Window(uint64_t committed) const override {
    VirtualWindow w;
    VTime end = 0;
    for (const Terminal& t : terms_) end = std::max(end, t.clock.now());
    w.committed = committed;
    w.new_orders = new_orders_;
    w.vseconds = static_cast<double>(end - start_) / kVSecond;
    w.data_write_bytes = eng_.data->counts().write_bytes - data_bytes_start_;
    return w;
  }

  std::string Verify() override;

 private:
  struct Terminal {
    VirtualClock clock;
    Random rng{0};
    int64_t w_id = 1;
  };

  static SpanKind KindOf(tpcc::TxnType t) {
    switch (t) {
      case tpcc::TxnType::kNewOrder: return SpanKind::kNewOrder;
      case tpcc::TxnType::kPayment: return SpanKind::kPayment;
      case tpcc::TxnType::kOrderStatus: return SpanKind::kOrderStatus;
      case tpcc::TxnType::kDelivery: return SpanKind::kDelivery;
      case tpcc::TxnType::kStockLevel: return SpanKind::kStockLevel;
    }
    return SpanKind::kNewOrder;
  }

  /// Transaction types come from a shuffled deck of 100 cards in the
  /// standard mix (45/43/4/4/4), as TPC-C clause 5.2.4.2 allows, so every
  /// round runs the same mix and only the transactions' contents vary.
  tpcc::TxnType NextType() {
    if (deck_.empty()) {
      const tpcc::TpccConfig& c = exec_->config();
      const std::pair<tpcc::TxnType, int> mix[] = {
          {tpcc::TxnType::kNewOrder, c.pct_new_order},
          {tpcc::TxnType::kPayment, c.pct_payment},
          {tpcc::TxnType::kOrderStatus, c.pct_order_status},
          {tpcc::TxnType::kDelivery, c.pct_delivery},
          {tpcc::TxnType::kStockLevel, c.pct_stock_level}};
      for (const auto& [type, cards] : mix) {
        deck_.insert(deck_.end(), cards, type);
      }
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[deck_rng_.Uniform(0, i)]);
      }
    }
    tpcc::TxnType t = deck_.back();
    deck_.pop_back();
    return t;
  }

  void RunOne(Terminal& term, Phase& phase, ThreadStats* st) {
    const int64_t start = WallNs();
    tpcc::TxnType type = NextType();
    ThreadTrace* trace = CurrentTrace();
    bool traced = phase.traced.load(std::memory_order_relaxed);
    if (trace != nullptr) trace->BeginOp(traced);
    int64_t w0 = WallNs();
    VTime v0 = term.clock.now();
    tpcc::TxnOutcome outcome = tpcc::TxnOutcome::kConflictAbort;
    Status error;
    for (int attempt = 0; attempt <= kMaxRetries &&
                          outcome == tpcc::TxnOutcome::kConflictAbort;
         ++attempt) {
      {
        Timed t(KindOf(type));
        outcome = exec_->Run(type, term.w_id, term.rng, &term.clock, &error);
      }
      if (outcome == tpcc::TxnOutcome::kConflictAbort) {
        st->retries++;
        term.clock.Advance(kVMillisecond);  // virtual backoff, as TpccDriver
      }
    }
    int64_t w1 = WallNs();
    st->attempted++;
    bool new_order = type == tpcc::TxnType::kNewOrder;
    switch (outcome) {
      case tpcc::TxnOutcome::kCommitted:
        st->committed++;
        if (new_order) {
          st->headline_wall.Add(w1 - w0);
          st->headline_virtual.Add(static_cast<int64_t>(term.clock.now() - v0));
          new_orders_++;
        }
        break;
      case tpcc::TxnOutcome::kUserAbort:
        st->user_aborts++;
        break;
      case tpcc::TxnOutcome::kConflictAbort:
        st->failed++;
        break;
      case tpcc::TxnOutcome::kError:
        st->failed++;
        st->Problem("tpcc error: " + error.ToString());
        break;
    }
    {
      Timed t(SpanKind::kTick);
      Status ts = eng_.db->Tick(&term.clock);
      if (!ts.ok()) st->Problem("tick: " + ts.ToString());
    }
    if (trace != nullptr) trace->EndOp();
    st->CountIteration(traced, WallNs() - start);
  }

  tpcc::TpccTables tables_;
  std::unique_ptr<tpcc::TpccExecutor> exec_;
  Terminal terms_[kTerminals];
  Random deck_rng_{0};
  std::vector<tpcc::TxnType> deck_;
  VTime start_ = 0;
  uint64_t new_orders_ = 0;
  uint64_t data_bytes_start_ = 0;
};

std::string TpccWorkload::Verify() {
  VTime now = 0;
  for (const Terminal& t : terms_) now = std::max(now, t.clock.now());
  VirtualClock clk(now);
  auto txn = eng_.db->Begin(&clk);
  std::map<int64_t, double> w_ytd;
  std::map<int64_t, double> d_ytd_sum;
  std::map<std::pair<int64_t, int64_t>, int64_t> next_o, max_o, max_no;
  auto scan = [&](Table* t, const Table::RowCallback& cb) {
    return t->Scan(txn.get(), cb);
  };
  Status s = scan(tables_.warehouse, [&](Vid, const Row& r) {
    w_ytd[r.GetInt(tpcc::wcol::kId)] = r.GetDouble(tpcc::wcol::kYtd);
    return true;
  });
  if (s.ok()) {
    s = scan(tables_.district, [&](Vid, const Row& r) {
      int64_t w = r.GetInt(tpcc::dcol::kWid);
      d_ytd_sum[w] += r.GetDouble(tpcc::dcol::kYtd);
      next_o[{w, r.GetInt(tpcc::dcol::kId)}] = r.GetInt(tpcc::dcol::kNextOid);
      return true;
    });
  }
  if (s.ok()) {
    s = scan(tables_.orders, [&](Vid, const Row& r) {
      int64_t& m =
          max_o[{r.GetInt(tpcc::ocol::kWid), r.GetInt(tpcc::ocol::kDid)}];
      m = std::max(m, r.GetInt(tpcc::ocol::kId));
      return true;
    });
  }
  if (s.ok()) {
    s = scan(tables_.new_order, [&](Vid, const Row& r) {
      int64_t& m =
          max_no[{r.GetInt(tpcc::nocol::kWid), r.GetInt(tpcc::nocol::kDid)}];
      m = std::max(m, r.GetInt(tpcc::nocol::kOid));
      return true;
    });
  }
  Status cs = eng_.db->Commit(txn.get());
  if (!s.ok()) return "consistency scan failed: " + s.ToString();
  if (!cs.ok()) return "consistency commit failed: " + cs.ToString();
  if (static_cast<int>(w_ytd.size()) != kWarehouses) {
    return "warehouse count " + std::to_string(w_ytd.size());
  }
  char buf[200];
  for (const auto& [w, ytd] : w_ytd) {
    double sum = d_ytd_sum[w];
    if (std::fabs(ytd - sum) > 1e-9 * std::fabs(ytd) + 0.005) {
      snprintf(buf, sizeof(buf),
               "condition 1: W_YTD %.2f != sum(D_YTD) %.2f for warehouse %lld",
               ytd, sum, static_cast<long long>(w));
      return buf;
    }
  }
  for (const auto& [wd, next] : next_o) {
    // Clause 3.3.2.2 exempts the NEW-ORDER part for a district with no
    // outstanding new orders (all delivered).
    bool has_new_orders = max_no.count(wd) > 0;
    if (next - 1 != max_o[wd] || (has_new_orders && next - 1 != max_no[wd])) {
      snprintf(buf, sizeof(buf),
               "condition 2: D_NEXT_O_ID-1 %lld, max(O_ID) %lld, "
               "max(NO_O_ID) %lld for district (%lld,%lld)",
               static_cast<long long>(next - 1),
               static_cast<long long>(max_o[wd]),
               static_cast<long long>(max_no[wd]),
               static_cast<long long>(wd.first),
               static_cast<long long>(wd.second));
      return buf;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// ycsb_read / ycsb_update: four closed-loop clients over one "usertable".
// ---------------------------------------------------------------------------

class YcsbWorkload final : public Workload {
 public:
  static constexpr size_t kValueSize = 200;
  static constexpr int kMaxRetries = 20;
  static constexpr int64_t kWarmupOps = 20000;

  // ycsb_update runs 3 clients, not one per core: with 4 lock-contending
  // clients on a 4-core machine, any other runnable thread preempts a lock
  // holder, and update p99 varied by 9-19% between runs (3 clients: 5%).
  explicit YcsbWorkload(bool updates)
      : updates_(updates),
        records_(updates ? 40000 : 20000),
        threads_(updates ? 3 : 4),
        pool_frames_(updates ? 1024 : 4096),
        round_ops_(updates ? 100000 : 500000) {}

  Status Setup(uint64_t seed) override {
    clients_.clear();
    SIAS_RETURN_NOT_OK(OpenEngine(&eng_, pool_frames_));
    SIAS_ASSIGN_OR_RETURN(table_, ycsb::YcsbRunner::CreateTable(
                                      eng_.db.get(), VersionScheme::kSiasV));
    VirtualClock load;
    vids_.clear();
    vids_.reserve(records_);
    std::unique_ptr<Transaction> txn;
    for (uint64_t k = 0; k < records_; ++k) {
      if (!txn) txn = eng_.db->Begin(&load);
      Row row{{static_cast<int64_t>(k), Value(seed, k)}};
      SIAS_ASSIGN_OR_RETURN(Vid vid, table_->Insert(txn.get(), row));
      vids_.push_back(vid);
      if ((k + 1) % 256 == 0) {
        SIAS_RETURN_NOT_OK(eng_.db->Commit(txn.get()));
        txn.reset();
      }
    }
    if (txn) SIAS_RETURN_NOT_OK(eng_.db->Commit(txn.get()));
    SIAS_RETURN_NOT_OK(eng_.db->Checkpoint(&load));
    for (int t = 0; t < threads_; ++t) {
      clients_.push_back(std::make_unique<Client>(records_, load.now()));
      clients_.back()->rng.Seed(Mix(seed, 200 + t));
      clients_.back()->value.assign(kValueSize,
                                    static_cast<char>('A' + (seed + t) % 26));
    }
    Phase warm;
    warm.remaining = kWarmupOps;
    std::vector<std::unique_ptr<ThreadStats>> scratch;
    std::vector<std::thread> threads;
    for (int t = 0; t < threads_; ++t) {
      scratch.push_back(std::make_unique<ThreadStats>(seed));
      threads.emplace_back([this, t, &warm, st = scratch.back().get()] {
        while (warm.Claim()) RunOne(t, warm, st);
      });
    }
    for (auto& th : threads) th.join();
    for (const auto& st : scratch) {
      if (!st->correct) return Status::Corruption(st->first_problem);
    }
    return Status::OK();
  }

  int threads() const override { return threads_; }
  int64_t round_ops() const override { return round_ops_; }
  const char* headline() const override { return updates_ ? "update" : "read"; }

  void BeginPhase() override {
    start_ = 0;
    for (const auto& c : clients_) start_ = std::max(start_, c->clk.now());
    for (auto& c : clients_) c->clk.AdvanceTo(start_);
    data_bytes_start_ = eng_.data->counts().write_bytes;
  }

  void Worker(int t, Phase& phase, ThreadStats* st) override {
    while (phase.Claim()) RunOne(t, phase, st);
  }

  VirtualWindow Window(uint64_t committed) const override {
    VirtualWindow w;
    VTime end = 0;
    for (const auto& c : clients_) end = std::max(end, c->clk.now());
    w.committed = committed;
    w.vseconds = static_cast<double>(end - start_) / kVSecond;
    w.data_write_bytes = eng_.data->counts().write_bytes - data_bytes_start_;
    return w;
  }

  std::string Verify() override { return ""; }  // reads are checked inline

 private:
  struct Client {
    Client(uint64_t records, VTime start) : clk(start), zipf(records, 0.99) {}
    VirtualClock clk;
    Random rng{0};
    ycsb::ZipfianGenerator zipf;
    std::string value;
  };

  static std::string Value(uint64_t seed, uint64_t k) {
    return std::string(kValueSize, static_cast<char>('a' + (seed + k) % 26));
  }

  /// One YCSB operation, retried on conflicts: Begin, Get or Update, Commit.
  void RunOne(int t, Phase& phase, ThreadStats* st) {
    const int64_t start = WallNs();
    Client& c = *clients_[t];
    bool update = updates_ && c.rng.UniformInt(1, 100) <= 50;
    uint64_t k = c.zipf.Next(c.rng) % records_;
    ThreadTrace* trace = CurrentTrace();
    bool traced = phase.traced.load(std::memory_order_relaxed);
    if (trace != nullptr) trace->BeginOp(traced);
    int64_t w0 = WallNs();
    VTime v0 = c.clk.now();
    Status s;
    for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
      if (attempt > 0) st->retries++;
      s = Attempt(c, update, k, st);
      if (s.ok() || !s.IsRetryable()) break;
    }
    int64_t w1 = WallNs();
    st->attempted++;
    if (s.ok()) {
      st->committed++;
      if (update == updates_) {
        st->headline_wall.Add(w1 - w0);
        st->headline_virtual.Add(static_cast<int64_t>(c.clk.now() - v0));
      }
    } else {
      st->failed++;
      if (!s.IsRetryable()) st->Problem("ycsb error: " + s.ToString());
    }
    {
      Timed tick(SpanKind::kTick);
      Status ts = eng_.db->Tick(&c.clk);
      if (!ts.ok()) st->Problem("tick: " + ts.ToString());
    }
    if (trace != nullptr) trace->EndOp();
    st->CountIteration(traced, WallNs() - start);
  }

  Status Attempt(Client& c, bool update, uint64_t k, ThreadStats* st) {
    std::unique_ptr<Transaction> txn;
    {
      Timed t(SpanKind::kBegin);
      txn = eng_.db->Begin(&c.clk);
    }
    Status s;
    if (update) {
      Timed t(SpanKind::kUpdate);
      s = table_->Update(txn.get(), vids_[k],
                         Row{{static_cast<int64_t>(k), c.value}});
    } else {
      Result<std::optional<Row>> r = [&] {
        Timed t(SpanKind::kGet);
        return table_->Get(txn.get(), vids_[k]);
      }();
      s = r.status();
      if (s.ok()) {
        const std::optional<Row>& row = *r;
        if (!row.has_value() || row->GetInt(0) != static_cast<int64_t>(k) ||
            row->GetString(1).size() != kValueSize) {
          st->Problem("read of key " + std::to_string(k) +
                      " returned the wrong row");
        }
      }
    }
    if (!s.ok()) {
      if (txn->state() == TxnState::kActive) {
        Timed t(SpanKind::kAbort);
        (void)eng_.db->Abort(txn.get());
      }
      return s;
    }
    Timed t(SpanKind::kCommit);
    return eng_.db->Commit(txn.get());
  }

  bool updates_;
  uint64_t records_;
  int threads_;
  size_t pool_frames_;
  int64_t round_ops_;
  Table* table_ = nullptr;
  std::vector<Vid> vids_;
  std::vector<std::unique_ptr<Client>> clients_;
  VTime start_ = 0;
  uint64_t data_bytes_start_ = 0;
};

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Reservoir::Add(int64_t v) {
  seen_++;
  if (samples_.size() < kCapacity) {
    samples_.push_back(v);
    return;
  }
  // xorshift64*: a cheap seeded stream for replacement slots.
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  uint64_t slot = (state_ * 0x2545f4914f6cdd1dull) % seen_;
  if (slot < kCapacity) samples_[slot] = v;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpcc") return std::make_unique<TpccWorkload>();
  if (name == "ycsb_read") return std::make_unique<YcsbWorkload>(false);
  if (name == "ycsb_update") return std::make_unique<YcsbWorkload>(true);
  return nullptr;
}

}  // namespace perfbench
