#include "fault/crash_runner.h"

#include <algorithm>
#include <cstdio>

#include "common/random.h"
#include "core/sias_table.h"
#include "index/key_codec.h"
#include "fault/debug_ring.h"
#include "obs/metrics.h"

namespace sias {
namespace fault {

namespace {

// Big enough that capacity never limits the bounded workload; small enough
// that a fuzz loop stays cheap.
constexpr uint64_t kDataCapacity = 256ull << 20;
constexpr uint64_t kWalCapacity = 64ull << 20;

}  // namespace

CrashRunner::CrashRunner(const CrashConfig& cfg)
    : cfg_(cfg),
      injector_(cfg.seed),
      // Flash-ish asymmetry; writes charge time so maintenance passes and
      // commits advance the virtual clock like a real run would.
      data_mem_(kDataCapacity, 20 * kVMicrosecond, 80 * kVMicrosecond),
      wal_mem_(kWalCapacity, 0, 50 * kVMicrosecond),
      data_dev_(&data_mem_, &injector_, FaultyDevice::Options{true, "data"}),
      wal_dev_(&wal_mem_, &injector_, FaultyDevice::Options{true, "wal"}) {}

CrashRunner::~CrashRunner() {
  if (injector_.armed()) injector_.Disarm();
}

Status CrashRunner::OpenDb() {
  DatabaseOptions opts;
  opts.data_device = &data_dev_;
  opts.wal_device = &wal_dev_;
  opts.pool_frames = 64;  // tiny: forces dirty evictions through WriteFrame
  opts.flush_policy = cfg_.flush_policy;
  opts.wal_limit_bytes = kWalCapacity;
  // checkpoint_interval == 2 * bgwriter_interval makes the paced drain
  // budget cover the whole queue in one pass, so a bounded workload reaches
  // ckpt.paced.pre_complete. Tick() is never called, so the intervals do
  // not trigger any maintenance on their own.
  opts.bgwriter_interval = 1 * kVMillisecond;
  opts.checkpoint_interval = 2 * kVMillisecond;
  SIAS_ASSIGN_OR_RETURN(db_, Database::Open(opts));
  SIAS_ASSIGN_OR_RETURN(
      table_,
      db_->CreateTable(
          "kv", Schema{{"k", ColumnType::kInt64}, {"v", ColumnType::kString}},
          cfg_.scheme));
  return db_->CreateIndex(
      table_, "kv_pk", [](const Row& r) { return IntKey(r.GetInt(0)); },
      cfg_.index_kind, cfg_.mvpbt);
}

namespace {

Status WriteKey(Table* table, std::map<int64_t, Vid>* vids, Transaction* txn,
                int64_t key, const std::string& val) {
  auto it = vids->find(key);
  if (it != vids->end()) {
    return table->Update(txn, it->second, Row{{key, val}});
  }
  SIAS_ASSIGN_OR_RETURN(Vid vid, table->Insert(txn, Row{{key, val}}));
  (*vids)[key] = vid;
  return Status::OK();
}

}  // namespace

Status CrashRunner::RunWorkload() {
  DebugRingReset();
  DebugRingEnable(true);
  SIAS_RETURN_NOT_OK(OpenDb());
  if (!cfg_.crash_point.empty()) {
    FaultRule r;
    r.kind = FaultKind::kPowerCut;
    r.crash_point = cfg_.crash_point;
    r.nth = cfg_.nth;
    r.tear = cfg_.tear;
    injector_.AddRule(r);
  }
  for (const FaultRule& r : cfg_.extra_rules) injector_.AddRule(r);
  injector_.set_record_only(cfg_.record_only);
  injector_.Arm();

  // Workload stream decoupled from the injector's fault stream: the same
  // seed drives both, but through independent generators.
  Random rng(cfg_.seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  for (int i = 0; i < cfg_.txns && !injector_.power_cut(); ++i) {
    // Maintenance at fixed indices, so every maintenance crash point is
    // reachable inside a bounded workload.
    Status ms;
    if (i == cfg_.txns / 3) {
      ms = db_->Checkpoint(&clk_);
    } else if (i == cfg_.txns / 2) {
      ms = db_->StartPacedCheckpoint(&clk_);
    } else if (i == 2 * cfg_.txns / 3) {
      ms = db_->Vacuum(&clk_);
    } else if (i % 8 == 5) {
      ms = db_->BgWriterPass(&clk_);
    }
    if (!ms.ok()) {
      if (injector_.power_cut()) break;
      return ms;
    }

    // Every fourth round first runs a read-only transaction, so cuts also
    // land between a WAL-free commit and the next write. It draws nothing
    // from `rng`: the write stream is the same with or without it.
    if (i % 4 == 3) {
      Status rs = ReadOnlyCheck(static_cast<int64_t>(i % cfg_.keys));
      if (!rs.ok()) {
        if (injector_.power_cut()) break;
        return rs;
      }
    }

    int64_t key = static_cast<int64_t>(rng.Uniform(0, cfg_.keys - 1));
    std::string val = std::string("v").append(std::to_string(i));
    auto txn = db_->Begin(&clk_);
    std::vector<std::pair<int64_t, std::string>> writes;
    Status s = WriteKey(table_, &vids_, txn.get(), key, val);
    if (s.ok()) {
      writes.emplace_back(key, val);
      // Usually write a second key: multi-record commits exercise group
      // commit, and losing the suffix of one shows up as a torn commit.
      if (!rng.OneIn(3)) {
        int64_t key2 = static_cast<int64_t>(rng.Uniform(0, cfg_.keys - 1));
        if (key2 != key) {
          std::string val2 = "w" + std::to_string(i);
          s = WriteKey(table_, &vids_, txn.get(), key2, val2);
          if (s.ok()) writes.emplace_back(key2, val2);
        }
      }
    }
    bool commit_attempted = false;
    if (s.ok()) {
      if (rng.OneIn(6)) {
        s = db_->Abort(txn.get());
        if (s.ok()) {
          for (const auto& [k, v] : writes) {
            if (committed_.count(k) == 0) vids_.erase(k);
          }
          report_.aborted++;
          continue;
        }
      } else {
        commit_attempted = true;
        Xid xid = txn->xid();
        s = db_->Commit(txn.get());
        if (s.ok()) {
          for (const auto& [k, v] : writes) committed_[k] = v;
          last_xid_ = std::max(last_xid_, xid);
          report_.committed++;
          continue;
        }
      }
    }
    // The transaction failed. An injected power cut explains it; anything
    // else is a real engine bug and must propagate.
    if (!injector_.power_cut()) return s;
    if (commit_attempted) {
      // Commit raced the cut: the engine aborted in memory, but the commit
      // record may already be durable — recovery decides. Either value of
      // each written key is legal afterwards.
      for (const auto& [k, v] : writes) uncertain_[k].insert(v);
      report_.uncertain++;
    } else {
      // No commit record was ever appended: the transaction is invisible.
      (void)db_->Abort(txn.get());
      for (const auto& [k, v] : writes) {
        if (committed_.count(k) == 0) vids_.erase(k);
      }
    }
    break;
  }
  report_.crashed = injector_.power_cut();
  return Status::OK();
}

Status CrashRunner::ReadOnlyCheck(int64_t key) {
  auto txn = db_->Begin(&clk_);
  auto hits = table_->IndexLookup(txn.get(), 0, Slice(IntKey(key)));
  size_t rows = 0;
  Status s = hits.status();
  if (s.ok()) {
    s = table_->Scan(txn.get(), [&rows](Vid, const Row&) {
      rows++;
      return true;
    });
  }
  if (!s.ok()) {
    (void)db_->Abort(txn.get());
    return s;
  }
  SIAS_RETURN_NOT_OK(db_->Commit(txn.get()));
  // Before any cut the engine's state is exactly the committed set.
  auto it = committed_.find(key);
  bool ok = rows == committed_.size() &&
            hits->size() == (it != committed_.end() ? 1u : 0u) &&
            (hits->empty() || (*hits)[0].second.GetString(1) == it->second);
  if (!ok) {
    return Status::Corruption("read-only check of key " + std::to_string(key) +
                              " disagrees with the committed set");
  }
  report_.read_only++;
  return Status::OK();
}

Status CrashRunner::ReopenAndRecover(const RecoverOptions& ropts) {
  if (injector_.armed()) injector_.Disarm();
  injector_.ClearRules();  // recovery runs fault-free
  db_.reset();
  table_ = nullptr;
  crash_vids_ = vids_;  // keep a copy for post-mortem diagnostics
  vids_.clear();  // VIDs are rebuilt by recovery; the map is pre-crash state
  data_dev_.Revive();
  wal_dev_.Revive();
  SIAS_RETURN_NOT_OK(OpenDb());
  return db_->Recover(ropts);
}

Status CrashRunner::CheckInvariants() {
  auto violated = [](const std::string& what) {
    return Status::Corruption("crash invariant violated: " + what);
  };

  // Keys the suite reasons about: the whole key space plus probes.
  std::set<int64_t> all_keys;
  for (int64_t k = 0; k < cfg_.keys; ++k) all_keys.insert(k);
  for (const auto& [k, v] : committed_) all_keys.insert(k);
  for (const auto& [k, v] : uncertain_) all_keys.insert(k);

  std::map<int64_t, std::vector<std::string>> by_lookup;
  std::map<int64_t, std::vector<std::string>> by_scan;
  std::vector<Vid> scanned_vids;
  {
    auto txn = db_->Begin(&clk_);
    for (int64_t key : all_keys) {
      auto hits = table_->IndexLookup(txn.get(), 0, Slice(IntKey(key)));
      if (!hits.ok()) {
        (void)db_->Abort(txn.get());
        return hits.status();
      }
      for (const auto& [vid, row] : *hits) {
        by_lookup[key].push_back(row.GetString(1));
      }
    }
    Status s = table_->Scan(txn.get(), [&](Vid vid, const Row& row) {
      by_scan[row.GetInt(0)].push_back(row.GetString(1));
      scanned_vids.push_back(vid);
      return true;
    });
    if (!s.ok()) {
      (void)db_->Abort(txn.get());
      return s;
    }
    // Invariant 4: under SIAS every visible item's chain/vector resolves
    // down to its oldest surviving version.
    if (cfg_.scheme != VersionScheme::kSi) {
      auto* sias = static_cast<SiasTable*>(table_->heap());
      for (Vid vid : scanned_vids) {
        auto chain = sias->ChainOf(vid, &clk_);
        if (!chain.ok()) {
          (void)db_->Abort(txn.get());
          return violated("version chain of vid " + std::to_string(vid) +
                          " unresolvable: " + chain.status().ToString());
        }
        if (chain->empty()) {
          (void)db_->Abort(txn.get());
          return violated("empty version chain for visible vid " +
                          std::to_string(vid));
        }
      }
    }
    SIAS_RETURN_NOT_OK(db_->Commit(txn.get()));
  }

  static const std::set<std::string> kNoExtras;
  for (int64_t key : all_keys) {
    const std::vector<std::string>* looked =
        by_lookup.count(key) ? &by_lookup.at(key) : nullptr;
    size_t n = looked != nullptr ? looked->size() : 0;
    bool base = committed_.count(key) > 0;
    const std::set<std::string>& extras =
        uncertain_.count(key) ? uncertain_.at(key) : kNoExtras;
    std::string ks = "key " + std::to_string(key);
    if (n > 1) {
      return violated(ks + " visible " + std::to_string(n) +
                      " times via the index");
    }
    if (extras.empty()) {
      // Invariants 1 + 2 (certain keys).
      if (base && n != 1) return violated("committed " + ks + " not visible");
      if (!base && n != 0) {
        return violated(ks + " visible but never committed (value '" +
                        looked->front() + "')");
      }
      if (base && looked->front() != committed_.at(key)) {
        return violated(ks + " reads '" + looked->front() + "', expected '" +
                        committed_.at(key) + "'");
      }
    } else {
      // A Commit raced the power cut on this key: the new value, the old
      // committed value, or (if never committed before) absence are all
      // legal — anything else is corruption.
      if (base && n == 0) {
        std::string detail;
        auto vit = crash_vids_.find(key);
        if (vit != crash_vids_.end() && cfg_.scheme != VersionScheme::kSi) {
          auto* sias = static_cast<SiasTable*>(table_->heap());
          detail += "; pre-crash vid " + std::to_string(vit->second);
          auto chain = sias->ChainOf(vit->second, &clk_);
          if (chain.ok()) {
            detail += " chain=[";
            for (Tid t : *chain) {
              detail += std::to_string(t.page) + "/" +
                        std::to_string(t.slot) + " ";
            }
            detail += "]";
          } else {
            detail += " chain error: " + chain.status().ToString();
          }
        }
        {
          RelationId rel = table_->heap()->relation();
          auto count = db_->disk()->PageCount(rel);
          if (count.ok()) {
            detail += "; pages[";
            for (PageNumber pn = 0; pn < *count; ++pn) {
              auto pg = db_->pool()->FetchPage(PageId{rel, pn}, &clk_);
              if (!pg.ok()) {
                detail += std::to_string(pn) + ":<" +
                          pg.status().ToString() + "> ";
                continue;
              }
              PageGuard g = std::move(*pg);
              g.LatchShared();
              SlottedPage sp = g.page();
              detail += std::to_string(pn) + ":n=" +
                        std::to_string(sp.slot_count()) + ",lsn=" +
                        std::to_string(sp.header()->lsn) + " ";
              g.Unlatch();
            }
            detail += "]";
          }
        }
        detail += "; replayed=" +
                  std::to_string(obs::MetricsRegistry::Default()
                                     .GetGauge("db.recovery.records_replayed")
                                     ->Value());
        {
          FILE* f = fopen("/tmp/crash_ring.txt", "w");
          if (f != nullptr) {
            std::string dump = DebugRingDump();
            fwrite(dump.data(), 1, dump.size(), f);
            fclose(f);
          }
        }
        return violated("previously committed " + ks +
                        " vanished after an in-doubt commit" + detail);
      }
      if (n == 1) {
        const std::string& v = looked->front();
        bool legal = (base && v == committed_.at(key)) || extras.count(v) > 0;
        if (!legal) {
          return violated(ks + " reads '" + v +
                          "', which no commit (certain or in-doubt) wrote");
        }
      }
    }
    // Invariant 3: index and heap agree.
    const std::vector<std::string>* scanned =
        by_scan.count(key) ? &by_scan.at(key) : nullptr;
    size_t sn = scanned != nullptr ? scanned->size() : 0;
    if (sn != n || (n == 1 && scanned->front() != looked->front())) {
      return violated("index and heap disagree on " + ks + " (" +
                      std::to_string(n) + " index hits vs " +
                      std::to_string(sn) + " scan rows)");
    }
  }
  for (const auto& [key, vals] : by_scan) {
    if (all_keys.count(key) == 0) {
      return violated("scan surfaced unknown key " + std::to_string(key));
    }
  }

  // Invariant 5: the xid allocator is past every durably committed xid —
  // probed by running (and reading back) a fresh post-recovery commit.
  if (last_xid_ != 0 && db_->txns()->NextXid() <= last_xid_) {
    return violated("xid allocator at " +
                    std::to_string(db_->txns()->NextXid()) +
                    " was not advanced past committed xid " +
                    std::to_string(last_xid_));
  }
  int64_t probe_key = next_probe_++;
  std::string probe_val = "probe-" + std::to_string(probe_key);
  {
    auto txn = db_->Begin(&clk_);
    auto vid = table_->Insert(txn.get(), Row{{probe_key, probe_val}});
    if (!vid.ok()) {
      (void)db_->Abort(txn.get());
      return violated("post-recovery insert failed: " +
                      vid.status().ToString());
    }
    SIAS_RETURN_NOT_OK(db_->Commit(txn.get()));
  }
  {
    auto txn = db_->Begin(&clk_);
    auto hits = table_->IndexLookup(txn.get(), 0, Slice(IntKey(probe_key)));
    Status s = hits.ok() ? db_->Commit(txn.get()) : db_->Abort(txn.get());
    SIAS_RETURN_NOT_OK(s);
    if (!hits.ok()) return hits.status();
    if (hits->size() != 1 || (*hits)[0].second.GetString(1) != probe_val) {
      return violated("post-recovery probe commit not readable");
    }
  }
  committed_[probe_key] = probe_val;
  return Status::OK();
}

CrashReport CrashRunner::report() const {
  CrashReport r = report_;
  r.crashed = injector_.power_cut();
  r.seen_points = injector_.seen_crash_points();
  return r;
}

Result<std::vector<std::string>> DiscoverCrashPoints(CrashConfig cfg) {
  cfg.record_only = true;
  cfg.crash_point.clear();
  cfg.extra_rules.clear();
  CrashRunner runner(cfg);
  SIAS_RETURN_NOT_OK(runner.RunWorkload());
  return runner.injector()->seen_crash_points();
}

}  // namespace fault
}  // namespace sias
