// Crash-consistency suite built on fault::CrashRunner (docs/FAULTS.md):
//  * a crash matrix sweeping every registered crash point the workload
//    reaches, across all three version schemes and both flush policies —
//    each cut must recover with the invariant suite green;
//  * a sabotage check proving the invariants CATCH a recovery that loses a
//    redo record (RecoverOptions::skip_redo_record);
//  * seeded randomized device-op power cuts (the fuzz loop behind
//    scripts/crashgrind.sh) — failures print their seed for replay;
//  * transient-I/O robustness: bursts within the retry budget are invisible
//    to callers, exhausted budgets surface as clean Status errors;
//  * Recover() idempotence (double recovery, paced checkpoint mid-flight)
//    and the db.recovery.* gauges.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <cstring>

#include "device/flash_ssd.h"
#include "device/mem_device.h"
#include "fault/crash_runner.h"
#include "fault/faulty_device.h"
#include "common/vclock.h"
#include "fault/retry.h"
#include "index/key_codec.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace sias {
namespace fault {
namespace {

std::string SchemeTag(VersionScheme s) {
  std::string n = ToString(s);
  for (auto& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

// ---------------------------------------------------------------------------
// Crash matrix: every reachable crash point x scheme x flush policy.
// ---------------------------------------------------------------------------

class CrashMatrixTest
    : public ::testing::TestWithParam<std::tuple<VersionScheme, FlushPolicy>> {
};

TEST_P(CrashMatrixTest, EveryCrashPointRecovers) {
  auto [scheme, policy] = GetParam();
  CrashConfig base;
  base.scheme = scheme;
  base.flush_policy = policy;
  base.seed = 0xC0FFEE;

  auto points = DiscoverCrashPoints(base);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_GE(points->size(), 12u)
      << "the workload must reach at least 12 distinct crash points";

  for (const std::string& point : *points) {
    SCOPED_TRACE("crash point: " + point);
    CrashConfig cfg = base;
    cfg.crash_point = point;
    // Cut at a later hit for the hot points so real state has accumulated.
    cfg.nth = (point.rfind("wal.", 0) == 0 || point.rfind("txn.", 0) == 0 ||
               point.rfind("region.", 0) == 0)
                  ? 17
                  : 1;
    CrashRunner runner(cfg);
    Status s = runner.RunWorkload();
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (!runner.report().crashed) continue;  // nth beyond the hit count
    s = runner.ReopenAndRecover();
    ASSERT_TRUE(s.ok()) << s.ToString();
    s = runner.CheckInvariants();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndPolicies, CrashMatrixTest,
    ::testing::Combine(::testing::Values(VersionScheme::kSi,
                                         VersionScheme::kSiasChains,
                                         VersionScheme::kSiasV),
                       ::testing::Values(FlushPolicy::kT2Checkpoint,
                                         FlushPolicy::kT1BackgroundWriter)),
    [](const auto& info) {
      return SchemeTag(std::get<0>(info.param)) +
             (std::get<1>(info.param) == FlushPolicy::kT2Checkpoint ? "_t2"
                                                                    : "_t1");
    });

TEST(CrashMatrix, MvPbtPartitionFlushCuts) {
  // With the MV-PBT index the Vacuum pass flushes the index buffer into an
  // on-device partition; cutting power at each mvpbt.flush.* point (plus a
  // torn variant of the page write) must recover with the suite green —
  // the index is rebuilt from the heap and the half-written partition pages
  // are simply never referenced again.
  for (VersionScheme scheme :
       {VersionScheme::kSi, VersionScheme::kSiasChains, VersionScheme::kSiasV}) {
    CrashConfig base;
    base.scheme = scheme;
    base.seed = 0xC0FFEE;
    base.index_kind = IndexKind::kMvPbt;

    auto points = DiscoverCrashPoints(base);
    ASSERT_TRUE(points.ok()) << points.status().ToString();
    std::vector<std::string> mvpbt_points;
    for (const std::string& p : *points) {
      if (p.rfind("mvpbt.", 0) == 0) mvpbt_points.push_back(p);
    }
    ASSERT_GE(mvpbt_points.size(), 2u)
        << "the Vacuum pass must reach the partition-flush crash points";

    for (const std::string& point : mvpbt_points) {
      for (bool tear : {false, true}) {
        SCOPED_TRACE(SchemeTag(scheme) + " crash point: " + point +
                     (tear ? " (torn)" : ""));
        CrashConfig cfg = base;
        cfg.crash_point = point;
        cfg.tear = tear;
        CrashRunner runner(cfg);
        Status s = runner.RunWorkload();
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_TRUE(runner.report().crashed);
        s = runner.ReopenAndRecover();
        ASSERT_TRUE(s.ok()) << s.ToString();
        s = runner.CheckInvariants();
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
    }
  }
}

TEST(CrashMatrix, TornPowerCutsRecoverToo) {
  // Sector-level tearing of the first dropped cached write: the WAL's CRC
  // framing must classify the torn block as a benign tail.
  for (VersionScheme scheme :
       {VersionScheme::kSi, VersionScheme::kSiasChains, VersionScheme::kSiasV}) {
    SCOPED_TRACE(SchemeTag(scheme));
    CrashConfig cfg;
    cfg.scheme = scheme;
    cfg.seed = 0xBADCAB;
    cfg.crash_point = "wal.pre_fsync";
    cfg.nth = 9;
    cfg.tear = true;
    CrashRunner runner(cfg);
    ASSERT_TRUE(runner.RunWorkload().ok());
    ASSERT_TRUE(runner.report().crashed);
    ASSERT_TRUE(runner.ReopenAndRecover().ok());
    Status s = runner.CheckInvariants();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(CrashMatrix, PowerCutWithInFlightAsyncSubmissions) {
  // Cut power at a WAL write *completion*: with the pipelined group commit,
  // a multi-block flush burst submits every block before waiting any, so at
  // the kth completion the rest of the burst is still queued on the async
  // submission queue — lost entirely, never reaching the volatile cache.
  // The durable log can therefore end mid-burst; recovery must treat that
  // exactly like a torn tail. Sweep a few cut positions per scheme so the
  // cut lands at different offsets within commit bursts.
  for (VersionScheme scheme :
       {VersionScheme::kSi, VersionScheme::kSiasChains, VersionScheme::kSiasV}) {
    for (uint64_t nth : {3ull, 29ull, 61ull}) {
      SCOPED_TRACE(SchemeTag(scheme) + " wal write #" + std::to_string(nth));
      CrashConfig cfg;
      cfg.scheme = scheme;
      cfg.seed = 0xA51AC * nth;
      FaultRule cut;
      cut.kind = FaultKind::kPowerCut;
      cut.op = OpClass::kWrite;
      cut.device_tag = "wal";
      cut.nth = nth;
      cfg.extra_rules.push_back(cut);
      CrashRunner runner(cfg);
      ASSERT_TRUE(runner.RunWorkload().ok());
      if (!runner.report().crashed) continue;  // nth beyond the write count
      Status s = runner.ReopenAndRecover();
      ASSERT_TRUE(s.ok()) << s.ToString();
      s = runner.CheckInvariants();
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// The invariants must have teeth: a recovery that silently skips one heap
// redo record has to FAIL the suite.
// ---------------------------------------------------------------------------

TEST(CrashSabotage, SkippedRedoRecordIsCaught) {
  CrashConfig cfg;
  cfg.scheme = VersionScheme::kSiasChains;
  cfg.seed = 0x5AB07A6E;
  // Cut before the first checkpoint: every heap record must come back
  // through WAL redo, so skipping one is guaranteed to lose state.
  cfg.crash_point = "txn.commit.pre_flush";
  cfg.nth = 20;
  CrashRunner runner(cfg);
  ASSERT_TRUE(runner.RunWorkload().ok());
  ASSERT_TRUE(runner.report().crashed);
  ASSERT_GT(runner.report().committed, 5);

  RecoverOptions sabotage;
  sabotage.skip_redo_record = 0;
  Status rec = runner.ReopenAndRecover(sabotage);
  if (rec.ok()) {
    Status inv = runner.CheckInvariants();
    EXPECT_FALSE(inv.ok())
        << "a recovery that lost a redo record passed the invariant suite";
  }
  // (A loud Recover() failure would be an equally valid catch.)
}

// ---------------------------------------------------------------------------
// Seeded randomized power-cut fuzz (mirrored by scripts/crashgrind.sh).
// ---------------------------------------------------------------------------

// Seeds that once exposed real recovery bugs, pinned forever: un-logged GC
// page reclaim/recycle shadowing redo (needs the WAL-LSN stamp on re-Init),
// ChainOf walking a dangling anchor predecessor into a recycled page, and
// torn in-place page writes (need the full-page-image prepass).
TEST(CrashFuzz, RegressionSeeds) {
  for (uint64_t seed : {20332078ull, 21332081ull, 26332096ull, 39260864ull,
                        41260870ull, 46300480ull}) {
    SCOPED_TRACE("replay with SIAS_CRASH_SEED=" + std::to_string(seed) +
                 " SIAS_CRASH_ITERS=1");
    CrashConfig cfg;
    cfg.scheme = static_cast<VersionScheme>(seed % 3);
    cfg.flush_policy = (seed / 3) % 2 == 0 ? FlushPolicy::kT2Checkpoint
                                           : FlushPolicy::kT1BackgroundWriter;
    cfg.seed = seed;
    FaultRule cut;
    cut.kind = FaultKind::kPowerCut;
    cut.op = OpClass::kWrite;
    cut.nth = 1 + seed % 400;
    cut.tear = seed % 5 == 0;
    cfg.extra_rules.push_back(cut);
    CrashRunner runner(cfg);
    ASSERT_TRUE(runner.RunWorkload().ok());
    if (!runner.report().crashed) continue;
    Status s = runner.ReopenAndRecover();
    ASSERT_TRUE(s.ok()) << s.ToString();
    s = runner.CheckInvariants();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(CrashFuzz, RandomDeviceOpPowerCuts) {
  uint64_t base_seed = 20260807;
  if (const char* env = std::getenv("SIAS_CRASH_SEED")) {
    base_seed = std::strtoull(env, nullptr, 10);
  }
  int iters = 10;
  if (const char* env = std::getenv("SIAS_CRASH_ITERS")) {
    iters = std::atoi(env);
  }
  for (int i = 0; i < iters; ++i) {
    uint64_t seed = base_seed + 7919ull * i;
    SCOPED_TRACE("replay with SIAS_CRASH_SEED=" + std::to_string(seed) +
                 " SIAS_CRASH_ITERS=1");
    CrashConfig cfg;
    cfg.scheme = static_cast<VersionScheme>(seed % 3);
    cfg.flush_policy = (seed / 3) % 2 == 0 ? FlushPolicy::kT2Checkpoint
                                           : FlushPolicy::kT1BackgroundWriter;
    cfg.seed = seed;
    FaultRule cut;
    cut.kind = FaultKind::kPowerCut;
    cut.op = OpClass::kWrite;
    cut.nth = 1 + seed % 400;
    cut.tear = seed % 5 == 0;
    cfg.extra_rules.push_back(cut);
    CrashRunner runner(cfg);
    ASSERT_TRUE(runner.RunWorkload().ok());
    if (!runner.report().crashed) continue;  // nth beyond the op count
    Status s = runner.ReopenAndRecover();
    ASSERT_TRUE(s.ok()) << s.ToString();
    s = runner.CheckInvariants();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// Transient I/O errors: bounded retries absorb bursts; exhausted budgets
// surface as clean errors (never crashes, never silent corruption).
// ---------------------------------------------------------------------------

TEST(TransientFaults, BurstWithinRetryBudgetIsInvisible) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  int64_t recovered_before = reg.GetCounter("fault.retry.recovered")->Value();

  CrashConfig cfg;
  cfg.scheme = VersionScheme::kSiasV;
  cfg.seed = 0x7EA;
  FaultRule burst;
  burst.kind = FaultKind::kTransientIoError;
  burst.op = OpClass::kWrite;
  burst.device_tag = "wal";
  burst.nth = 5;
  burst.repeat = 3;  // three consecutive failures < kRetryAttempts
  cfg.extra_rules.push_back(burst);

  CrashRunner runner(cfg);
  Status s = runner.RunWorkload();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(runner.report().crashed);
  EXPECT_GT(runner.report().committed, 0);
  EXPECT_GT(reg.GetCounter("fault.retry.recovered")->Value(), recovered_before)
      << "the burst should have been absorbed by the retry loop";
}

TEST(TransientFaults, ExhaustedRetryBudgetIsACleanError) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  int64_t exhausted_before = reg.GetCounter("fault.retry.exhausted")->Value();

  CrashConfig cfg;
  cfg.scheme = VersionScheme::kSiasV;
  cfg.seed = 0x7EB;
  FaultRule storm;
  storm.kind = FaultKind::kTransientIoError;
  storm.op = OpClass::kWrite;
  storm.device_tag = "wal";
  storm.nth = 5;
  storm.repeat = -1;  // every WAL write from the 5th on fails
  cfg.extra_rules.push_back(storm);

  CrashRunner runner(cfg);
  Status s = runner.RunWorkload();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  EXPECT_NE(s.message().find("retry budget"), std::string::npos)
      << s.ToString();
  EXPECT_GT(reg.GetCounter("fault.retry.exhausted")->Value(),
            exhausted_before);
}

// ---------------------------------------------------------------------------
// Deferred asynchronous I/O through the fault decorator: with an armed
// injector, Submit only queues; faults fire at *completion* time, a power
// cut loses still-queued requests, and Cancel means the op never ran.
// (Unarmed submissions take the eager fast path and behave like the base
// device — also pinned below.)
// ---------------------------------------------------------------------------

namespace {
FaultRule NeverMatches() {
  // Keeps the injector armed (forcing the deferred queue) without ever
  // firing on the devices under test.
  FaultRule r;
  r.kind = FaultKind::kTransientIoError;
  r.device_tag = "no-such-device";
  return r;
}

IoRequest WriteReq(uint64_t offset, const std::vector<uint8_t>& data) {
  IoRequest req;
  req.op = IoOp::kWrite;
  req.offset = offset;
  req.len = data.size();
  req.data = data.data();
  return req;
}
}  // namespace

TEST(AsyncFaultDevice, ArmedSubmitDefersUntilWait) {
  MemDevice inner(1 << 20);
  FaultInjector inj(1);
  inj.AddRule(NeverMatches());
  inj.Arm();
  FaultyDevice::Options opts;
  opts.tag = "data";
  FaultyDevice dev(&inner, &inj, opts);

  std::vector<uint8_t> data(kPageSize, 0xAB);
  auto h = dev.Submit(WriteReq(0, data), 0);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(inner.stats().write_ops, 0u)
      << "an armed injector must defer execution to completion time";
  VirtualClock clk;
  ASSERT_TRUE(dev.Wait(*h, &clk).ok());
  EXPECT_EQ(inner.stats().write_ops, 1u);
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(dev.Read(0, kPageSize, out.data(), &clk).ok());
  EXPECT_EQ(memcmp(out.data(), data.data(), kPageSize), 0);
  inj.Disarm();
}

TEST(AsyncFaultDevice, UnarmedSubmitExecutesEagerly) {
  MemDevice inner(1 << 20);
  FaultyDevice dev(&inner, /*injector=*/nullptr);

  std::vector<uint8_t> data(kPageSize, 0x5C);
  auto h = dev.Submit(WriteReq(0, data), 0);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(inner.stats().write_ops, 1u)
      << "without an armed injector Submit executes like the base device";
  VirtualClock clk;
  ASSERT_TRUE(dev.Wait(*h, &clk).ok());
}

TEST(AsyncFaultDevice, InjectedFaultFiresAtCompletion) {
  MemDevice inner(1 << 20);
  FaultInjector inj(2);
  FaultRule rule;
  rule.kind = FaultKind::kTransientIoError;
  rule.op = OpClass::kRead;
  rule.device_tag = "data";
  inj.AddRule(rule);
  inj.Arm();
  FaultyDevice::Options opts;
  opts.tag = "data";
  FaultyDevice dev(&inner, &inj, opts);

  uint8_t buf[kPageSize] = {};
  IoRequest req;
  req.op = IoOp::kRead;
  req.offset = 0;
  req.len = kPageSize;
  req.out = buf;
  auto h = dev.Submit(req, 0);
  ASSERT_TRUE(h.ok()) << "submission must succeed; the fault is delivered "
                         "with the completion";
  VirtualClock clk;
  Status st = dev.Wait(*h, &clk);
  EXPECT_TRUE(st.IsTransientIoError()) << st.ToString();
  inj.Disarm();
}

TEST(AsyncFaultDevice, PowerCutLosesInFlightSubmissions) {
  MemDevice inner(1 << 20);
  FaultInjector inj(3);
  inj.AddRule(NeverMatches());
  inj.Arm();
  FaultyDevice::Options opts;
  opts.write_back = true;
  opts.tag = "data";
  FaultyDevice dev(&inner, &inj, opts);

  std::vector<uint8_t> data(kPageSize, 0xEE);
  auto h = dev.Submit(WriteReq(0, data), 0);
  ASSERT_TRUE(h.ok());
  dev.PowerCut(/*plan_seed=*/42, /*tear=*/false);

  VirtualClock clk;
  Status st = dev.Wait(*h, &clk);
  EXPECT_FALSE(st.ok()) << "a request still queued at the cut never "
                           "completes successfully";
  dev.Revive();
  std::vector<uint8_t> out(kPageSize, 0xFF);
  ASSERT_TRUE(dev.Read(0, kPageSize, out.data(), &clk).ok());
  std::vector<uint8_t> zeros(kPageSize, 0);
  EXPECT_EQ(memcmp(out.data(), zeros.data(), kPageSize), 0)
      << "the in-flight write must be lost entirely (never reached the "
         "volatile cache)";
  inj.Disarm();
}

TEST(AsyncFaultDevice, CancelledRequestNeverExecutes) {
  MemDevice inner(1 << 20);
  FaultInjector inj(4);
  inj.AddRule(NeverMatches());
  inj.Arm();
  FaultyDevice::Options opts;
  opts.tag = "data";
  FaultyDevice dev(&inner, &inj, opts);

  std::vector<uint8_t> data(kPageSize, 0x11);
  auto h = dev.Submit(WriteReq(0, data), 0);
  ASSERT_TRUE(h.ok());
  VirtualClock clk;
  ASSERT_TRUE(dev.Cancel(*h, &clk).ok());
  EXPECT_EQ(inner.stats().write_ops, 0u)
      << "a cancelled queued request must never reach the inner device";
  std::vector<uint8_t> out(kPageSize, 0xFF);
  ASSERT_TRUE(dev.Read(0, kPageSize, out.data(), &clk).ok());
  std::vector<uint8_t> zeros(kPageSize, 0);
  EXPECT_EQ(memcmp(out.data(), zeros.data(), kPageSize), 0);
  inj.Disarm();
}

TEST(AsyncFaultDevice, RetryResubmitsThroughTheCalendar) {
  // Satellite regression: a transient completion must be retried by
  // RESUBMITTING through the device so the new attempt re-reserves the
  // channel calendar at the post-backoff instant — the completion can never
  // land before submit time + backoff + device latency ("in the past").
  FlashConfig cfg;
  cfg.capacity_bytes = 4ull << 20;
  cfg.num_channels = 4;
  cfg.pages_per_block = 16;
  FlashSsd inner(cfg);
  FaultInjector inj(5);
  FaultRule rule;
  rule.kind = FaultKind::kTransientIoError;
  rule.op = OpClass::kRead;
  rule.device_tag = "data";
  rule.nth = 1;
  rule.repeat = 1;
  inj.AddRule(rule);
  inj.Arm();
  FaultyDevice::Options opts;
  opts.tag = "data";
  FaultyDevice dev(&inner, &inj, opts);

  std::vector<uint8_t> data(kPageSize, 0x77);
  VirtualClock wclk;
  ASSERT_TRUE(dev.Write(0, kPageSize, data.data(), &wclk).ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  int64_t recovered_before = reg.GetCounter("fault.retry.recovered")->Value();
  const VTime t0 = 10 * kVSecond;
  VirtualClock clk(t0);
  std::vector<uint8_t> out(kPageSize);
  IoRequest req;
  req.op = IoOp::kRead;
  req.offset = 0;
  req.len = kPageSize;
  req.out = out.data();
  Status st = SubmitAndRetry("test read", &dev, req, &clk);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(memcmp(out.data(), data.data(), kPageSize), 0);
  EXPECT_GE(clk.now(), t0 + kRetryBackoffBase + cfg.page_read_latency)
      << "the retried completion must reflect the post-backoff calendar "
         "reservation, not the original submit instant";
  EXPECT_EQ(reg.GetCounter("fault.retry.recovered")->Value(),
            recovered_before + 1);
  inj.Disarm();
}

// ---------------------------------------------------------------------------
// Write-free commits write no commit record; every writer still must.
// ---------------------------------------------------------------------------

TEST(CrashWorkload, InterleavesCheckedReadOnlyTransactions) {
  CrashConfig cfg;
  cfg.seed = 0xE0;
  CrashRunner runner(cfg);
  ASSERT_TRUE(runner.RunWorkload().ok());
  EXPECT_FALSE(runner.report().crashed);
  EXPECT_EQ(runner.report().read_only, cfg.txns / 4);
}

class InsertOnlyCommitTest : public ::testing::TestWithParam<VersionScheme> {};

TEST_P(InsertOnlyCommitTest, SurvivesPowerCutAfterCommit) {
  // An SI insert takes no row lock, so "took a lock" is the wrong test for
  // "needs a commit record": the commit must still be durable.
  CrashConfig cfg;
  cfg.scheme = GetParam();
  cfg.txns = 0;  // just open and arm; the transaction below is the workload
  CrashRunner runner(cfg);
  ASSERT_TRUE(runner.RunWorkload().ok());
  {
    auto txn = runner.db()->Begin(runner.clock());
    ASSERT_TRUE(
        runner.table()->Insert(txn.get(), Row{{int64_t{7}, std::string("x")}})
            .ok());
    ASSERT_TRUE(runner.db()->Commit(txn.get()).ok());
  }
  runner.injector()->TriggerPowerCut(/*tear=*/false);
  ASSERT_TRUE(runner.ReopenAndRecover().ok());

  auto txn = runner.db()->Begin(runner.clock());
  auto hits = runner.table()->IndexLookup(txn.get(), 0, Slice(IntKey(7)));
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_EQ(hits->size(), 1u) << "committed insert lost by the power cut";
  EXPECT_EQ((*hits)[0].second.GetString(1), "x");
  ASSERT_TRUE(runner.db()->Commit(txn.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, InsertOnlyCommitTest,
                         ::testing::Values(VersionScheme::kSi,
                                           VersionScheme::kSiasChains,
                                           VersionScheme::kSiasV),
                         [](const auto& info) { return SchemeTag(info.param); });

// ---------------------------------------------------------------------------
// Recovery idempotence + observability.
// ---------------------------------------------------------------------------

TEST(RecoveryIdempotence, DoubleRecoverConverges) {
  CrashConfig cfg;
  cfg.scheme = VersionScheme::kSiasV;
  cfg.seed = 0xD0;
  cfg.crash_point = "wal.post_fsync";
  cfg.nth = 23;
  CrashRunner runner(cfg);
  ASSERT_TRUE(runner.RunWorkload().ok());
  ASSERT_TRUE(runner.report().crashed);
  ASSERT_TRUE(runner.ReopenAndRecover().ok());
  ASSERT_TRUE(runner.CheckInvariants().ok());
  // Recover again on the already-recovered engine: redo is LSN-gated and
  // the rebuilds recreate their structures, so the state must not change.
  ASSERT_TRUE(runner.db()->Recover().ok());
  Status s = runner.CheckInvariants();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(RecoveryIdempotence, PacedCheckpointMidFlight) {
  // Die while the paced checkpoint drain is in progress; the control block
  // still points at the previous checkpoint, so replay covers the queue.
  CrashConfig cfg;
  cfg.scheme = VersionScheme::kSiasChains;
  cfg.seed = 0xD1;
  cfg.crash_point = "ckpt.paced.drain_pass";
  CrashRunner runner(cfg);
  ASSERT_TRUE(runner.RunWorkload().ok());
  ASSERT_TRUE(runner.report().crashed);
  ASSERT_TRUE(runner.ReopenAndRecover().ok());
  ASSERT_TRUE(runner.CheckInvariants().ok());
  ASSERT_TRUE(runner.db()->Recover().ok());
  Status s = runner.CheckInvariants();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(CrashSpans, SpanOpenAcrossCrashPointRecoversCleanly) {
  // A causal-span root held open across a crash-point unwind must neither
  // leak thread-local span state nor deadlock recovery: span push/pop is
  // malloc-free and latch-free (safe while the Status unwind runs engine
  // destructors), and the aggregator latch is only taken at root finish.
  VirtualClock clk;
  CrashConfig cfg;
  cfg.scheme = VersionScheme::kSiasV;
  cfg.seed = 0x5EED;
  cfg.crash_point = "wal.pre_fsync";
  cfg.nth = 9;
  {
    obs::TxnSpan root("CrashProbe", &clk);
    ASSERT_TRUE(root.active());
    clk.Advance(10);
    CrashRunner runner(cfg);
    ASSERT_TRUE(runner.RunWorkload().ok());
    ASSERT_TRUE(runner.report().crashed);
    // Recover while the root is still open: the engine's own spans nest
    // under it and must unwind balanced.
    ASSERT_TRUE(runner.ReopenAndRecover().ok());
    Status s = runner.CheckInvariants();
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(root.active());
    // Not committed: the crashed attempt lands in txn.latency.aborted.
  }
  EXPECT_FALSE(obs::SpanRootActive());

  // The thread's span machinery is balanced: a fresh root still records.
  Histogram before = obs::MetricsRegistry::Default()
                         .GetHistogram("txn.latency.committed")
                         ->Snapshot();
  {
    obs::TxnSpan root("CrashProbeAfter", &clk);
    ASSERT_TRUE(root.active());
    clk.Advance(25);
    root.set_committed(true);
  }
  Histogram after = obs::MetricsRegistry::Default()
                        .GetHistogram("txn.latency.committed")
                        ->Snapshot();
  EXPECT_EQ(after.count(), before.count() + 1);
}

TEST(RecoveryObservability, GaugesExported) {
  CrashConfig cfg;
  cfg.scheme = VersionScheme::kSiasV;
  cfg.seed = 0xD2;
  cfg.crash_point = "txn.commit.post_flush";
  cfg.nth = 15;
  CrashRunner runner(cfg);
  ASSERT_TRUE(runner.RunWorkload().ok());
  ASSERT_TRUE(runner.report().crashed);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  int64_t runs_before = reg.GetCounter("db.recovery.runs")->Value();
  ASSERT_TRUE(runner.ReopenAndRecover().ok());
  EXPECT_EQ(reg.GetCounter("db.recovery.runs")->Value(), runs_before + 1);
  EXPECT_GT(reg.GetGauge("db.recovery.records_replayed")->Value(), 0);
  EXPECT_GT(reg.GetGauge("db.recovery.vtime_ns")->Value(), 0);
}

}  // namespace
}  // namespace fault
}  // namespace sias
