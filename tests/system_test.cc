#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/session.h"
#include "core/system.h"
#include "fault/fault_injector.h"
#include "stats/progress_monitor.h"
#include "verify/history.h"
#include "workload/workload.h"

namespace rainbow {
namespace {

SystemConfig SmallSystem(uint32_t sites = 3, int items = 10,
                         int replication = 3) {
  SystemConfig cfg;
  cfg.seed = 1234;
  cfg.num_sites = sites;
  cfg.record_history = true;
  cfg.AddUniformItems(items, 100, replication);
  return cfg;
}

TEST(SystemTest, CreateValidatesConfig) {
  SystemConfig cfg;  // no items
  cfg.num_sites = 2;
  auto sys = RainbowSystem::Create(cfg);
  EXPECT_FALSE(sys.ok());
}

TEST(SystemTest, SingleTransactionCommits) {
  auto sys = RainbowSystem::Create(SmallSystem());
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;

  TxnProgram p;
  p.ops = {Op::Read(0), Op::Write(1, 55)};
  TxnOutcome outcome;
  bool done = false;
  ASSERT_TRUE(s.Submit(0, p, [&](const TxnOutcome& o) {
                 outcome = o;
                 done = true;
               }).ok());
  s.RunToQuiescence(1'000'000);
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.committed) << outcome.ToString();
  ASSERT_EQ(outcome.reads.size(), 1u);
  EXPECT_EQ(outcome.reads[0], 100);  // initial value

  auto latest = s.LatestCommitted(1);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->value, 55);
  EXPECT_EQ(latest->version, 1u);
}

TEST(SystemTest, IncrementReadsThenWrites) {
  auto sys = RainbowSystem::Create(SmallSystem());
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;

  TxnProgram p;
  p.ops = {Op::Increment(0, 7)};
  bool committed = false;
  ASSERT_TRUE(
      s.Submit(1, p, [&](const TxnOutcome& o) { committed = o.committed; })
          .ok());
  s.RunToQuiescence(1'000'000);
  EXPECT_TRUE(committed);
  auto latest = s.LatestCommitted(0);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->value, 107);
}

TEST(SystemTest, SequentialTransactionsSerializable) {
  auto sys = RainbowSystem::Create(SmallSystem());
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;
  for (int i = 0; i < 20; ++i) {
    TxnProgram p;
    p.ops = {Op::Increment(static_cast<ItemId>(i % 5), 1)};
    ASSERT_TRUE(s.Submit(static_cast<SiteId>(i % 3), p, nullptr).ok());
    s.RunToQuiescence(1'000'000);
  }
  EXPECT_EQ(s.monitor().committed(), 20u);
  EXPECT_TRUE(
      CheckConflictSerializable(s.history().transactions()).ok());
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
}

TEST(SystemTest, WeightedQuorumSingleSiteCanDecide) {
  // Site 0 holds 3 of 5 votes: with R=W=3 it alone forms both quorums,
  // so transactions homed there never need the other copies.
  SystemConfig cfg;
  cfg.seed = 5;
  cfg.num_sites = 3;
  ItemConfig item;
  item.name = "heavy";
  item.initial = 7;
  item.copies = {0, 1, 2};
  item.votes = {3, 1, 1};
  item.read_quorum = 3;
  item.write_quorum = 3;
  cfg.items.push_back(item);
  auto sys = RainbowSystem::Create(cfg);
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;
  // Even with both minor copies down, the heavy site commits.
  s.CrashSite(1);
  s.CrashSite(2);
  bool committed = false;
  ASSERT_TRUE(s.Submit(0, TxnProgram{{Op::Increment(0, 1)}, ""},
                       [&](const TxnOutcome& o) { committed = o.committed; })
                  .ok());
  s.RunToQuiescence(1'000'000);
  EXPECT_TRUE(committed);
  EXPECT_EQ(s.site(0)->store().Get(0)->value, 8);
}

/// At quiescence the commit protocol has closed every transaction it
/// logged, so no site's protocol log holds anything recovery would act
/// on, and checkpoints may truncate up to the log's end.
void ExpectProtocolLogsQuiescent(RainbowSystem& s, const char* when) {
  for (SiteId id = 0; id < s.num_sites(); ++id) {
    const Wal& wal = s.site(id)->wal();
    EXPECT_EQ(wal.ProtocolBarrier(), wal.NextLsn()) << when << ", site " << id;
    EXPECT_TRUE(wal.InDoubt().empty()) << when << ", site " << id;
    EXPECT_TRUE(wal.DecidedUnended().empty()) << when << ", site " << id;
  }
}

TEST(SystemTest, ClassroomSessionLeavesProtocolLogsQuiescent) {
  std::ifstream in(std::string(RAINBOW_SOURCE_DIR) +
                   "/configs/classroom_default.rainbow");
  std::ostringstream text;
  text << in.rdbuf();
  auto cfg = SystemConfig::FromText(text.str());
  ASSERT_TRUE(cfg.ok()) << cfg.status();
  auto sys = RainbowSystem::Create(*cfg);
  ASSERT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;

  WorkloadConfig wl;
  wl.seed = cfg->seed;
  wl.num_txns = 600;
  wl.mpl = 8;
  WorkloadGenerator gen(&s, wl);
  gen.Run();
  s.RunToQuiescence(50'000'000);
  ASSERT_TRUE(s.Idle());
  ASSERT_TRUE(gen.finished());
  EXPECT_GT(s.monitor().committed(), 100u);
  // The session ran long enough for checkpoints to truncate the logs.
  for (SiteId id = 0; id < s.num_sites(); ++id) {
    EXPECT_GT(s.site(id)->wal().base(), 0u) << "site " << id;
  }
  ExpectProtocolLogsQuiescent(s, "after the session");

  for (SiteId id = 0; id < s.num_sites(); ++id) s.CrashSite(id);
  for (SiteId id = 0; id < s.num_sites(); ++id) s.RecoverSite(id);
  s.RunToQuiescence(50'000'000);
  ASSERT_TRUE(s.Idle());
  ExpectProtocolLogsQuiescent(s, "after crash-all and recover-all");
  EXPECT_TRUE(s.CheckReplicaConsistency(true).ok());
}

/// Everything observable from one traced run with scans and per-site
/// clients: the rendered trace records, session log, committed history
/// and network totals.
struct RunArtifacts {
  std::string records;
  std::string session_log;
  std::string history;
  uint64_t committed = 0;
  uint64_t net_sent = 0;
  uint64_t bytes = 0;
  SimTime end_time = 0;
};

RunArtifacts RunScanWorkload(uint64_t seed) {
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.num_sites = 8;
  cfg.trace_enabled = true;
  cfg.trace_detail = TraceDetail::kFull;
  cfg.record_history = true;
  cfg.AddUniformItems(24, 100, 3);
  auto sys = RainbowSystem::Create(cfg);
  EXPECT_TRUE(sys.ok()) << sys.status();
  RainbowSystem& s = **sys;
  s.monitor().set_keep_outcomes(true);

  WorkloadConfig wl;
  wl.seed = seed ^ 0x5eed;
  wl.num_txns = 96;
  wl.mpl = 8;
  wl.max_retries = 2;
  wl.scan_fraction = 0.15;  // page-engine leaf-chain reads
  wl.scan_length = 4;
  wl.per_site_clients = true;
  WorkloadGenerator wlg(&s, wl);
  wlg.Run();
  while (!wlg.finished() && s.sim().Now() < Seconds(30)) {
    s.RunFor(Millis(50));
    if (s.Idle() && !wlg.finished()) break;
  }
  s.RunFor(Millis(500));
  EXPECT_TRUE(wlg.finished());
  EXPECT_EQ(wlg.completed(), 96u);

  RunArtifacts a;
  a.records = ProgressMonitor::RenderExecutionWindow(s.collector(), 0);
  a.session_log = s.monitor().RenderSessionLog();
  a.history = RenderHistory(s.history().transactions());
  a.committed = s.monitor().committed();
  a.net_sent = s.net().stats().network_sent();
  a.bytes = s.net().stats().bytes;
  a.end_time = s.sim().Now();
  EXPECT_GT(a.committed, 0u);
  EXPECT_TRUE(CheckConflictSerializable(s.history().transactions()).ok());
  EXPECT_TRUE(s.CheckReplicaConsistency(false).ok());
  return a;
}

/// Same seed => byte-identical artifacts, with the scan verb and the
/// per-site workload clients in the mix.
TEST(SystemTest, SameSeedScanWorkloadIsByteIdentical) {
  const uint64_t kSeed = 20260808;
  RunArtifacts a = RunScanWorkload(kSeed);
  RunArtifacts b = RunScanWorkload(kSeed);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.net_sent, b.net_sent);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.session_log, b.session_log);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.records, b.records);
}

TEST(SessionTest, ClosedLoopWorkloadDrains) {
  SystemConfig sys_cfg = SmallSystem(4, 200, 3);
  WorkloadConfig wl;
  wl.num_txns = 100;
  wl.mpl = 4;
  SessionOptions opt;
  opt.check_serializability = true;
  auto r = RunSession(sys_cfg, wl, opt);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->committed + r->aborted, 100u);
  EXPECT_GT(r->committed, 80u);
  EXPECT_GT(r->net_messages, 0u);
  EXPECT_GT(r->throughput_tps, 0.0);
}

TEST(SessionTest, CrashAndRecoveryWithQuorum) {
  SystemConfig sys_cfg = SmallSystem(5, 200, 5);
  WorkloadConfig wl;
  wl.num_txns = 150;
  wl.mpl = 6;
  SessionOptions opt;
  opt.faults = {FaultEvent::Crash(Millis(50), 2),
                FaultEvent::Recover(Millis(400), 2)};
  auto r = RunSession(sys_cfg, wl, opt);
  ASSERT_TRUE(r.ok()) << r.status();
  // Quorum consensus keeps committing through a single-site outage.
  EXPECT_GT(r->committed, 110u);
}

}  // namespace
}  // namespace rainbow
