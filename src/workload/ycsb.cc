#include "workload/ycsb.h"

#include <cstdio>
#include <thread>

#include "common/logging.h"
#include "index/key_codec.h"
#include "obs/span.h"

namespace sias {
namespace ycsb {

namespace {
double Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}
}  // namespace

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  SIAS_CHECK(n > 0);
  zetan_ = Zeta(n, theta);
  zeta2_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
}

uint64_t ZipfianGenerator::Next(Random& rng) {
  double u = rng.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  return static_cast<uint64_t>(
      static_cast<double>(n_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
}

const char* ToString(OpType t) {
  switch (t) {
    case OpType::kRead:
      return "read";
    case OpType::kUpdate:
      return "update";
    case OpType::kInsert:
      return "insert";
    case OpType::kScan:
      return "scan";
  }
  return "?";
}

double YcsbResult::OpsPerVSecond() const {
  if (makespan == 0) return 0;
  uint64_t total = 0;
  for (uint64_t c : completed) total += c;
  return static_cast<double>(total) /
         (static_cast<double>(makespan) / kVSecond);
}

std::string YcsbResult::Summary() const {
  char buf[256];
  uint64_t total = 0;
  for (uint64_t c : completed) total += c;
  snprintf(buf, sizeof(buf),
           "ops=%llu (%.0f ops/vs) conflicts=%llu errors=%llu "
           "read p99=%s update p99=%s",
           static_cast<unsigned long long>(total), OpsPerVSecond(),
           static_cast<unsigned long long>(conflicts),
           static_cast<unsigned long long>(errors),
           FormatVDuration(latency[0].Percentile(99)).c_str(),
           FormatVDuration(latency[1].Percentile(99)).c_str());
  return buf;
}

YcsbRunner::YcsbRunner(Database* db, Table* table, YcsbConfig config)
    : db_(db), table_(table), cfg_(config) {
  SIAS_CHECK(cfg_.read_pct + cfg_.update_pct + cfg_.insert_pct +
                 cfg_.scan_pct ==
             100);
}

Result<Table*> YcsbRunner::CreateTable(Database* db, VersionScheme scheme) {
  SIAS_ASSIGN_OR_RETURN(
      Table * table,
      db->CreateTable("usertable",
                      Schema{{"key", ColumnType::kInt64},
                             {"value", ColumnType::kString}},
                      scheme));
  SIAS_RETURN_NOT_OK(
      db->CreateIndex(table, "usertable_pk", KeyExtractor::IntColumns({0})));
  return table;
}

Status YcsbRunner::Load(VirtualClock* clk) {
  Random rng(cfg_.seed);
  vids_.reserve(cfg_.records);
  std::unique_ptr<Transaction> txn;
  for (uint64_t k = 0; k < cfg_.records; ++k) {
    if (!txn) txn = db_->Begin(clk);
    auto vid = table_->Insert(
        txn.get(),
        Row{{static_cast<int64_t>(k),
             std::string(cfg_.value_size, static_cast<char>('a' + k % 26))}});
    if (!vid.ok()) return vid.status();
    vids_.push_back(*vid);
    if ((k + 1) % 256 == 0) {
      SIAS_RETURN_NOT_OK(db_->Commit(txn.get()));
      txn.reset();
    }
  }
  if (txn) SIAS_RETURN_NOT_OK(db_->Commit(txn.get()));
  return db_->Checkpoint(clk);
}

OpType YcsbRunner::PickOp(Random& rng) const {
  int64_t r = rng.UniformInt(1, 100);
  if (r <= cfg_.read_pct) return OpType::kRead;
  r -= cfg_.read_pct;
  if (r <= cfg_.update_pct) return OpType::kUpdate;
  r -= cfg_.update_pct;
  if (r <= cfg_.insert_pct) return OpType::kInsert;
  return OpType::kScan;
}

Result<YcsbResult> YcsbRunner::Run(VTime start_time) {
  YcsbResult result;
  Mutex result_mu;  // unranked: joins worker results outside the engine
  std::vector<std::thread> threads;
  uint64_t per_thread = cfg_.operations / cfg_.threads;
  std::atomic<int64_t> next_key{static_cast<int64_t>(cfg_.records)};

  for (int t = 0; t < cfg_.threads; ++t) {
    threads.emplace_back([&, t] {
      YcsbResult local;
      Random rng(cfg_.seed * 31 + t);
      ZipfianGenerator zipf(cfg_.records, cfg_.zipf_theta);
      VirtualClock clk(start_time);
      std::string value(cfg_.value_size, 'z');
      for (uint64_t i = 0; i < per_thread; ++i) {
        OpType op = PickOp(rng);
        VTime begin = clk.now();
        obs::TxnSpan root(ToString(op), &clk);
        auto txn = db_->Begin(&clk);
        Status s;
        switch (op) {
          case OpType::kRead: {
            if (cfg_.read_batch > 1) {
              std::vector<Vid> batch(cfg_.read_batch);
              for (Vid& v : batch) v = vids_[zipf.Next(rng) % vids_.size()];
              auto r = table_->GetMulti(txn.get(), batch, cfg_.io_depth);
              s = r.status();
            } else {
              Vid vid = vids_[zipf.Next(rng) % vids_.size()];
              auto r = table_->Get(txn.get(), vid);
              s = r.status();
            }
            break;
          }
          case OpType::kUpdate: {
            uint64_t k = zipf.Next(rng) % vids_.size();
            s = table_->Update(txn.get(), vids_[k],
                               Row{{static_cast<int64_t>(k), value}});
            break;
          }
          case OpType::kInsert: {
            int64_t k = next_key.fetch_add(1);
            auto r = table_->Insert(txn.get(), Row{{k, value}});
            s = r.status();
            break;
          }
          case OpType::kScan: {
            int64_t k = static_cast<int64_t>(zipf.Next(rng) % vids_.size());
            int64_t len = rng.UniformInt(1, cfg_.max_scan_len);
            int n = 0;
            s = table_->IndexRange(txn.get(), 0, Slice(IntKey(k)),
                                   Slice(IntKey(k + len)),
                                   [&](Vid, const Row&) {
                                     n++;
                                     return true;
                                   });
            break;
          }
        }
        if (s.ok()) {
          Status cs = db_->Commit(txn.get());
          if (cs.ok()) {
            root.set_committed(true);
            local.completed[static_cast<int>(op)]++;
            local.latency[static_cast<int>(op)].Record(clk.now() - begin);
          } else if (cs.IsRetryable()) {
            local.conflicts++;
          } else {
            local.errors++;
            if (local.first_error.ok()) local.first_error = cs;
          }
        } else {
          if (txn->state() == TxnState::kActive) {
            (void)db_->Abort(txn.get());
          }
          if (s.IsRetryable()) {
            local.conflicts++;
          } else if (!s.IsNotFound()) {
            local.errors++;
            if (local.first_error.ok()) local.first_error = s;
          }
        }
        root.Finish();
        (void)db_->Tick(&clk);
      }
      MutexLock g(&result_mu);
      for (int o = 0; o < kNumOpTypes; ++o) {
        result.completed[o] += local.completed[o];
        result.latency[o].Merge(local.latency[o]);
      }
      result.conflicts += local.conflicts;
      result.errors += local.errors;
      if (result.first_error.ok() && !local.first_error.ok()) {
        result.first_error = local.first_error;
      }
      result.makespan = std::max(result.makespan, clk.now() - start_time);
    });
  }
  for (auto& th : threads) th.join();
  return result;
}

}  // namespace ycsb
}  // namespace sias
