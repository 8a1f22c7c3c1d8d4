// The acid test for the durable-storage subsystem (WAL + snapshots +
// replay-rejoin): a run that crashes and recovers a site mid-stream must
// still be a valid execution once the outage windows are accounted for,
// its non-metric guarantee reports must come out byte-identical to the
// uncrashed run's, and the metric guarantees must be void exactly across
// the outage window — no longer, no shorter. Exercised over the E1 payroll
// deployment (single-queue and ParallelExecutor) and the E9 Stanford
// deployment.

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/storage/site_store.h"
#include "src/trace/trace_io.h"
#include "src/trace/valid_execution.h"

namespace hcm {
namespace {

using toolkit::FailureClass;
using toolkit::GuaranteeValidity;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Rules as installed by the System: ids assigned from 1 in install order,
// forbid rules skipped (they install as vetoes, not obligations).
std::vector<rule::Rule> InstalledRules(const spec::StrategySpec& strategy) {
  std::vector<rule::Rule> rules;
  int64_t next_id = 1;
  for (rule::Rule r : strategy.rules) {
    if (r.forbids()) continue;
    r.id = next_id++;
    rules.push_back(std::move(r));
  }
  return rules;
}

std::vector<trace::SiteOutage> OutagesOf(toolkit::System& system) {
  std::vector<trace::SiteOutage> outages;
  for (const auto& w : system.failures().DownWindows()) {
    outages.push_back(trace::SiteOutage{w.site, w.from, w.to});
  }
  return outages;
}

// --- E1 payroll with a mid-run crash of the RHS site ---

// The suggested payroll strategy's single rule has delta = 5s, so a
// 4.95s outage is the longest that still classifies as metric — and long
// enough that a notify emitted just before the crash provably misses its
// unextended deadline (held until restart + applied ≈ 100ms later).
struct CrashConfig {
  bool crash = false;
  bool clean = true;
  TimePoint crash_at = TimePoint::FromMillis(6000);
  TimePoint restart_at = TimePoint::FromMillis(10950);
  Duration commit_interval = Duration::Millis(10);
  Duration snapshot_period = Duration::Seconds(5);
  // Checkpoint mode: incremental delta chains (the default) vs. a full
  // base snapshot at every checkpoint. The chained-equivalence tests run
  // the same workload under both and demand byte-identical results.
  bool delta_snapshots = true;
  int max_chain_length = 8;
};

struct PayrollRun {
  trace::Trace trace;
  std::string y_follows_x;  // non-metric guarantee report text
  std::vector<rule::Rule> rules;
  std::vector<trace::SiteOutage> outages;
  std::vector<std::string> invalid_keys;
  toolkit::GuaranteeStatusDetail metric_detail;
  std::vector<toolkit::FailureNotice> notices;
  std::string storage_dir;
  uint64_t deltas_written = 0;   // summed across all site stores
  uint64_t compactions = 0;
};

// kBusy keeps writing across the crash window (held notifies, resumed
// fires); kQuiet pauses the workload around it, so recovery happens with
// nothing in flight and the runs must be observably indistinguishable.
enum class Workload { kBusy, kQuiet };

PayrollRun RunPayroll(size_t threads, const CrashConfig& cfg,
                      Workload workload, const std::string& dir_name) {
  toolkit::SystemOptions opts;
  opts.num_threads = threads;
  opts.storage.dir = FreshDir(dir_name);
  opts.storage.commit_interval = cfg.commit_interval;
  opts.storage.snapshot_period = cfg.snapshot_period;
  opts.storage.delta_snapshots = cfg.delta_snapshots;
  opts.storage.max_chain_length = cfg.max_chain_length;
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/6, opts);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  EXPECT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  if (cfg.crash) {
    EXPECT_EQ(system.ScheduleCrash("B", cfg.crash_at, cfg.restart_at,
                                   cfg.clean),
              Status::OK());
  }

  // Seeded workload, identical between the baseline and the crashed run.
  // Phase 1 stays safely before the crash (8 * 500ms max).
  Rng rng(7);
  for (int u = 0; u < 8; ++u) {
    int n = static_cast<int>(rng.UniformInt(1, 6));
    int salary = static_cast<int>(rng.UniformInt(50000, 90000));
    EXPECT_EQ(system.WorkloadWrite(rule::ItemId{"salary1", {Value::Int(n)}},
                                   Value::Int(salary)),
              Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(50, 500)));
  }
  if (workload == Workload::kBusy) {
    // Probe write 150ms before the crash: its fire is mid-chain when B
    // dies, so recovery has to resume it from the journal.
    TimePoint probe_at = TimePoint::FromMillis(5850);
    system.RunFor(probe_at - system.executor().now());
    EXPECT_EQ(system.WorkloadWrite(rule::ItemId{"salary1", {Value::Int(3)}},
                                   Value::Int(99000)),
              Status::OK());
  } else {
    // Pause until the outage is over and recovered work has settled.
    system.RunFor(TimePoint::FromMillis(13000) - system.executor().now());
  }
  // Phase 2: A keeps writing (while B is down, in the busy schedule).
  for (int u = 0; u < 12; ++u) {
    int n = static_cast<int>(rng.UniformInt(1, 6));
    int salary = static_cast<int>(rng.UniformInt(50000, 90000));
    EXPECT_EQ(system.WorkloadWrite(rule::ItemId{"salary1", {Value::Int(n)}},
                                   Value::Int(salary)),
              Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(200, 1500)));
  }
  system.RunFor(Duration::Minutes(2));

  PayrollRun run;
  run.storage_dir = opts.storage.dir;
  run.rules = InstalledRules(suggestions.at(0).strategy);
  run.outages = OutagesOf(system);
  for (const char* site : {"A", "B"}) {
    auto store = system.StoreAt(site);
    if (store.ok()) {
      run.deltas_written += (*store)->deltas_written();
      run.compactions += (*store)->compactions();
    }
  }
  run.trace = system.FinishTrace();
  trace::GuaranteeCheckOptions check;
  check.settle_margin = Duration::Minutes(1);
  auto y_follows =
      trace::CheckGuarantee(run.trace,
                            spec::YFollowsX("salary1(n)", "salary2(n)"),
                            check);
  EXPECT_TRUE(y_follows.ok());
  run.y_follows_x = y_follows->ToString();
  run.invalid_keys = system.guarantee_status().InvalidKeys();
  auto detail =
      system.guarantee_status().DetailOf("payroll/metric-y-follows-x");
  EXPECT_TRUE(detail.ok());
  run.metric_detail = *detail;
  run.notices = system.guarantee_status().failures();
  return run;
}

void ExpectMetricCrashEquivalence(size_t threads) {
  const std::string tag = "t" + std::to_string(threads);
  CrashConfig no_crash;
  PayrollRun baseline = RunPayroll(threads, no_crash, Workload::kBusy,
                                   "hcm_crash_base_" + tag);
  CrashConfig cfg;
  cfg.crash = true;
  PayrollRun crashed = RunPayroll(threads, cfg, Workload::kBusy,
                                  "hcm_crash_run_" + tag);

  // The baseline saw no failures at all.
  EXPECT_TRUE(baseline.notices.empty());
  EXPECT_TRUE(baseline.invalid_keys.empty());
  ASSERT_EQ(crashed.outages.size(), 1u);
  EXPECT_EQ(crashed.outages[0].site, "B");

  // 1. The recovered trace is a valid execution once property 6's deadlines
  //    are stretched across the outage.
  trace::ValidExecutionOptions vopts;
  vopts.outages = crashed.outages;
  auto report = trace::CheckValidExecution(crashed.trace, crashed.rules,
                                           vopts);
  EXPECT_TRUE(report.valid) << report.ToString();

  // 2. The non-metric guarantee still HOLDS with zero violations on the
  //    recovered trace: every held write eventually landed, in order.
  //    (Witness counts may differ from the baseline here — the held
  //    writes really do land ~5s later, moving sample points. The quiet-
  //    window test below is where byte-identity is demanded.)
  EXPECT_EQ(baseline.y_follows_x.find("VIOLAT"), std::string::npos);
  EXPECT_NE(crashed.y_follows_x.find("HOLDS"), std::string::npos)
      << crashed.y_follows_x;
  EXPECT_NE(crashed.y_follows_x.find("0 violations"), std::string::npos)
      << crashed.y_follows_x;

  // 3. The metric guarantee is void exactly across the outage: one window,
  //    opening at the crash instant (backdated, not at detection) and
  //    closing only after the restart; valid again by the end of the run.
  ASSERT_EQ(crashed.notices.size(), 1u);
  EXPECT_EQ(crashed.notices[0].failure_class, FailureClass::kMetric);
  EXPECT_EQ(crashed.notices[0].detected_at, cfg.crash_at);
  EXPECT_EQ(crashed.metric_detail.validity, GuaranteeValidity::kValid);
  ASSERT_EQ(crashed.metric_detail.void_windows.size(), 1u);
  EXPECT_EQ(crashed.metric_detail.void_windows[0].first, cfg.crash_at);
  EXPECT_GE(crashed.metric_detail.void_windows[0].second, cfg.restart_at);
  EXPECT_TRUE(crashed.invalid_keys.empty());

  // 4. The journal survives its own audit: clean scan, and the snapshot
  //    cadence left at least one loadable snapshot behind for B.
  auto inspection =
      storage::InspectJournalDir(crashed.storage_dir + "/B");
  ASSERT_TRUE(inspection.ok()) << inspection.status().ToString();
  EXPECT_FALSE(inspection->torn);
  EXPECT_EQ(inspection->crc_failures, 0u);
  EXPECT_GT(inspection->records, 0u);
  EXPECT_FALSE(inspection->snapshots.empty());
}

TEST(CrashRecovery, PayrollMetricCrashRecoversEquivalently) {
  ExpectMetricCrashEquivalence(/*threads=*/1);
}

TEST(CrashRecovery, PayrollMetricCrashRecoversUnderParallelExecutor) {
  ExpectMetricCrashEquivalence(/*threads=*/4);
}

// Randomized crash/restart points: wherever the outage lands (as long as
// it stays within the 5s metric bound), the recovered run must be a valid
// execution, the guarantee must hold with zero violations, and the metric
// void window must open exactly at the crash instant.
TEST(CrashRecovery, PayrollRecoversAtRandomizedCrashPoints) {
  Rng points(1234);
  for (int round = 0; round < 3; ++round) {
    CrashConfig cfg;
    cfg.crash = true;
    cfg.crash_at =
        TimePoint::FromMillis(static_cast<int64_t>(points.UniformInt(2000, 12000)));
    cfg.restart_at =
        cfg.crash_at +
        Duration::Millis(static_cast<int64_t>(points.UniformInt(500, 4500)));
    PayrollRun crashed =
        RunPayroll(1, cfg, Workload::kBusy,
                   "hcm_crash_rand_" + std::to_string(round));
    ASSERT_EQ(crashed.outages.size(), 1u);
    trace::ValidExecutionOptions vopts;
    vopts.outages = crashed.outages;
    auto report =
        trace::CheckValidExecution(crashed.trace, crashed.rules, vopts);
    EXPECT_TRUE(report.valid)
        << "crash_at=" << cfg.crash_at.ToString() << ": " << report.ToString();
    EXPECT_NE(crashed.y_follows_x.find("0 violations"), std::string::npos)
        << crashed.y_follows_x;
    ASSERT_EQ(crashed.notices.size(), 1u)
        << "crash_at=" << cfg.crash_at.ToString();
    EXPECT_EQ(crashed.notices[0].failure_class, FailureClass::kMetric);
    ASSERT_EQ(crashed.metric_detail.void_windows.size(), 1u);
    EXPECT_EQ(crashed.metric_detail.void_windows[0].first, cfg.crash_at);
    EXPECT_GE(crashed.metric_detail.void_windows[0].second, cfg.restart_at);
    EXPECT_TRUE(crashed.invalid_keys.empty());
  }
}

// --- Chained-recovery equivalence: delta chains vs. full snapshots ---
//
// The observable run must not depend on the checkpoint representation.
// The same seeded workload crashes at the same (randomized) point twice:
// once checkpointing through short delta chains (max_chain_length = 2, so
// compaction folds chains mid-run) and once writing a full base snapshot
// every time. Recovery from newest base + deltas + journal tail must put
// the site into the exact state a full snapshot would have, so the two
// runs' traces and guarantee reports come out byte-identical.
void ExpectChainedRecoveryMatchesFullSnapshots(size_t threads,
                                               const CrashConfig& cfg,
                                               const std::string& tag) {
  CrashConfig chained_cfg = cfg;
  chained_cfg.delta_snapshots = true;
  chained_cfg.max_chain_length = 2;
  // Checkpoint fast enough that the ~13s active window grows chains past
  // the bound (quiet-site checkpoints skip, so the 2-minute settle tail
  // adds nothing).
  chained_cfg.snapshot_period = Duration::Millis(500);
  CrashConfig full_cfg = cfg;
  full_cfg.delta_snapshots = false;
  full_cfg.snapshot_period = chained_cfg.snapshot_period;
  PayrollRun chained = RunPayroll(threads, chained_cfg, Workload::kBusy,
                                  "hcm_chain_eq_delta_" + tag);
  PayrollRun full = RunPayroll(threads, full_cfg, Workload::kBusy,
                               "hcm_chain_eq_full_" + tag);

  // The chained run really exercised the machinery under test: deltas
  // were written and the short chain bound forced compactions.
  EXPECT_GT(chained.deltas_written, 0u);
  EXPECT_GT(chained.compactions, 0u);
  EXPECT_EQ(full.deltas_written, 0u);

  // Byte-identical traces and guarantee reports.
  EXPECT_EQ(trace::SerializeTrace(chained.trace),
            trace::SerializeTrace(full.trace));
  EXPECT_EQ(chained.y_follows_x, full.y_follows_x);
  EXPECT_EQ(chained.invalid_keys, full.invalid_keys);
  ASSERT_EQ(chained.notices.size(), full.notices.size());

  // And the recovered chained trace is a valid execution in its own right.
  trace::ValidExecutionOptions vopts;
  vopts.outages = chained.outages;
  auto report =
      trace::CheckValidExecution(chained.trace, chained.rules, vopts);
  EXPECT_TRUE(report.valid) << report.ToString();
}

TEST(CrashRecovery, ChainedRecoveryByteIdenticalToFullSnapshots) {
  Rng points(4242);
  for (int round = 0; round < 2; ++round) {
    CrashConfig cfg;
    cfg.crash = true;
    cfg.crash_at = TimePoint::FromMillis(
        static_cast<int64_t>(points.UniformInt(2000, 12000)));
    cfg.restart_at =
        cfg.crash_at +
        Duration::Millis(static_cast<int64_t>(points.UniformInt(500, 4500)));
    ExpectChainedRecoveryMatchesFullSnapshots(
        /*threads=*/1, cfg, "t1_r" + std::to_string(round));
  }
}

TEST(CrashRecovery, ChainedRecoveryByteIdenticalUnderParallelExecutor) {
  Rng points(777);
  CrashConfig cfg;
  cfg.crash = true;
  cfg.crash_at = TimePoint::FromMillis(
      static_cast<int64_t>(points.UniformInt(2000, 12000)));
  cfg.restart_at =
      cfg.crash_at +
      Duration::Millis(static_cast<int64_t>(points.UniformInt(500, 4500)));
  ExpectChainedRecoveryMatchesFullSnapshots(/*threads=*/4, cfg, "t4");
}

// With nothing in flight during the outage, replay-rejoin must be
// observably perfect: the non-metric guarantee report comes out
// byte-identical to the uncrashed run's. Only the registry remembers the
// crash (the metric void window).
TEST(CrashRecovery, QuietWindowCrashReportsByteIdenticalToBaseline) {
  CrashConfig quiet_cfg;
  quiet_cfg.crash_at = TimePoint::FromMillis(7000);
  quiet_cfg.restart_at = TimePoint::FromMillis(11900);  // 4.9s <= 5s: metric
  PayrollRun baseline = RunPayroll(0, quiet_cfg, Workload::kQuiet,
                                   "hcm_crash_quiet_base");
  quiet_cfg.crash = true;
  PayrollRun crashed = RunPayroll(0, quiet_cfg, Workload::kQuiet,
                                  "hcm_crash_quiet_run");

  EXPECT_EQ(baseline.y_follows_x, crashed.y_follows_x);
  EXPECT_NE(crashed.y_follows_x.find("HOLDS"), std::string::npos)
      << crashed.y_follows_x;
  ASSERT_EQ(crashed.notices.size(), 1u);
  EXPECT_EQ(crashed.notices[0].failure_class, FailureClass::kMetric);
  EXPECT_EQ(crashed.metric_detail.validity, GuaranteeValidity::kValid);
  ASSERT_EQ(crashed.metric_detail.void_windows.size(), 1u);
  EXPECT_EQ(crashed.metric_detail.void_windows[0].first, quiet_cfg.crash_at);
  EXPECT_TRUE(crashed.invalid_keys.empty());
}

// The outage windows passed to CheckValidExecution are load-bearing, not
// decorative: cut the trace off right after the restart — before the held
// propagation lands — and the strict checker reports the missed deadline,
// while the outage-aware checker correctly skips the not-yet-due
// obligation.
TEST(CrashRecovery, OutageWindowsAreLoadBearingForValidity) {
  toolkit::SystemOptions opts;
  opts.storage.dir = FreshDir("hcm_crash_cutoff");
  opts.storage.commit_interval = Duration::Millis(10);
  opts.storage.snapshot_period = Duration::Seconds(5);
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/4, opts);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  ASSERT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  TimePoint crash_at = TimePoint::FromMillis(6000);
  TimePoint restart_at = TimePoint::FromMillis(12000);
  ASSERT_EQ(system.ScheduleCrash("B", crash_at, restart_at, /*clean=*/true),
            Status::OK());
  // The probe's notify reaches the wire at ~6.87s (1s notify batching) and
  // is held by the down site, so its 5s obligation deadline (~11.87s)
  // passes with no WR in the trace — the cut at 11.95s lands between that
  // deadline and the restart.
  system.RunFor(Duration::Millis(5850));
  ASSERT_EQ(system.WorkloadWrite(rule::ItemId{"salary1", {Value::Int(1)}},
                                 Value::Int(70000)),
            Status::OK());
  system.RunFor(TimePoint::FromMillis(11950) - system.executor().now());

  auto rules = InstalledRules(suggestions.at(0).strategy);
  auto outages = OutagesOf(system);
  ASSERT_EQ(outages.size(), 1u);
  trace::Trace t = system.FinishTrace();

  trace::ValidExecutionOptions strict;
  auto strict_report = trace::CheckValidExecution(t, rules, strict);
  EXPECT_FALSE(strict_report.valid)
      << "expected a property-6 violation without outage windows";

  trace::ValidExecutionOptions vopts;
  vopts.outages = outages;
  auto report = trace::CheckValidExecution(t, rules, vopts);
  EXPECT_TRUE(report.valid) << report.ToString();
}

// A dirty crash drops the group-commit buffer. With a long commit interval
// and no snapshots, everything since boot is still buffered at the crash,
// so recovery provably lost records: a LOGICAL failure. All guarantees
// involving the site stay invalid until the operator resets it.
TEST(CrashRecovery, DirtyCrashWithLostRecordsIsLogicalUntilReset) {
  toolkit::SystemOptions opts;
  opts.storage.dir = FreshDir("hcm_crash_dirty");
  opts.storage.commit_interval = Duration::Seconds(30);
  opts.storage.snapshot_period = Duration::Zero();
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/4, opts);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  ASSERT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  TimePoint crash_at = TimePoint::FromMillis(4000);
  TimePoint restart_at = TimePoint::FromMillis(4500);
  ASSERT_EQ(system.ScheduleCrash("B", crash_at, restart_at,
                                 /*clean=*/false),
            Status::OK());
  ASSERT_EQ(system.WorkloadWrite(rule::ItemId{"salary1", {Value::Int(1)}},
                                 Value::Int(60000)),
            Status::OK());
  system.RunFor(Duration::Minutes(1));

  const auto& notices = system.guarantee_status().failures();
  ASSERT_FALSE(notices.empty());
  EXPECT_EQ(notices[0].failure_class, FailureClass::kLogical);
  // Logical failures void EVERY guarantee involving the site, metric or
  // not, and recovery alone cannot re-establish them.
  EXPECT_EQ(*system.GuaranteeStatus("payroll/y-follows-x"),
            GuaranteeValidity::kInvalid);
  EXPECT_EQ(*system.GuaranteeStatus("payroll/metric-y-follows-x"),
            GuaranteeValidity::kInvalid);
  auto detail = system.guarantee_status().DetailOf("payroll/y-follows-x");
  ASSERT_TRUE(detail.ok());
  ASSERT_TRUE(detail->void_since.has_value());
  EXPECT_EQ(*detail->void_since, crash_at);

  // Operator reset closes the windows and revalidates.
  system.guarantee_status().ResetSite("B", system.executor().now());
  EXPECT_EQ(*system.GuaranteeStatus("payroll/y-follows-x"),
            GuaranteeValidity::kValid);
  EXPECT_TRUE(system.guarantee_status().InvalidKeys().empty());
}

// An outage longer than every installed rule deadline cannot be absorbed
// as "late work" — even a clean crash classifies as logical.
TEST(CrashRecovery, OutageBeyondEveryDeadlineIsLogical) {
  toolkit::SystemOptions opts;
  opts.storage.dir = FreshDir("hcm_crash_long");
  opts.storage.commit_interval = Duration::Millis(10);
  opts.storage.snapshot_period = Duration::Seconds(5);
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/4, opts);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  ASSERT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  ASSERT_EQ(system.ScheduleCrash("B", TimePoint::FromMillis(6000),
                                 TimePoint::FromMillis(150000),
                                 /*clean=*/true),
            Status::OK());
  ASSERT_EQ(system.WorkloadWrite(rule::ItemId{"salary1", {Value::Int(1)}},
                                 Value::Int(61000)),
            Status::OK());
  system.RunFor(Duration::Minutes(4));

  const auto& notices = system.guarantee_status().failures();
  ASSERT_FALSE(notices.empty());
  EXPECT_EQ(notices[0].failure_class, FailureClass::kLogical);
  EXPECT_EQ(*system.GuaranteeStatus("payroll/metric-y-follows-x"),
            GuaranteeValidity::kInvalid);
}

// --- E9: Stanford deployment, crash the filestore site mid-run ---

// The E9 sites and items with '@' for a department suffix: the single
// deployment below uses "", the relay test departments "0" and "1".
std::string ForDept(std::string text, const std::string& d) {
  for (size_t pos; (pos = text.find('@')) != std::string::npos;) {
    text.replace(pos, 1, d);
  }
  return text;
}

constexpr const char* kRidWhois = R"(
ris whois
site WHOIS@
param notify_delay 200ms
item phone@
  read   get $1 phone
  write  set $1 phone $v
  list   list
  notify attr phone
interface notify phone@(n) 1s
)";

constexpr const char* kRidLookup = R"(
ris filestore
site LOOKUP@
item CsdPhone@
  read  /staff/phone/$1
  write /staff/phone/$1
  list  /staff/phone/
interface write CsdPhone@(n) 2s
)";

constexpr const char* kRidGroup = R"(
ris relational
site GROUP@
item GroupPhone@
  read   select phone from members where login = $1
  write  update members set phone = $v where login = $1
  list   select login from members
interface write GroupPhone@(n) 2s
)";

TEST(CrashRecovery, StanfordLookupCrashRecoversAndGuaranteesHold) {
  constexpr int kStaff = 6;
  toolkit::SystemOptions opts;
  opts.storage.dir = FreshDir("hcm_crash_stanford");
  opts.storage.commit_interval = Duration::Millis(10);
  opts.storage.snapshot_period = Duration::Seconds(5);
  toolkit::System system(opts);
  auto* whois = *system.AddWhoisSite("WHOIS");
  auto* lookup = *system.AddFileSite("LOOKUP");
  auto* group = *system.AddRelationalSite("GROUP");
  group->Execute("create table members (login str primary key, phone str)");
  for (int i = 0; i < kStaff; ++i) {
    std::string login = "user" + std::to_string(i);
    whois->Query("set " + login + " phone 000-0000");
    lookup->Write("/staff/phone/" + login, "\"000-0000\"");
    group->Execute("insert into members values ('" + login +
                   "', '000-0000')");
  }
  for (const char* rid : {kRidWhois, kRidLookup, kRidGroup}) {
    ASSERT_EQ(system.ConfigureTranslator(ForDept(rid, "")), Status::OK());
  }
  for (int i = 0; i < kStaff; ++i) {
    Value login = Value::Str("user" + std::to_string(i));
    system.DeclareInitial(rule::ItemId{"phone", {login}});
    system.DeclareInitial(rule::ItemId{"CsdPhone", {login}});
    system.DeclareInitial(rule::ItemId{"GroupPhone", {login}});
  }
  std::vector<rule::Rule> rules;
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    auto constraint = *spec::MakeCopyConstraint("phone(n)", copy);
    auto suggestions = *system.Suggest(constraint);
    ASSERT_EQ(system.InstallStrategy(std::string("c/") + copy, constraint,
                                     suggestions.at(0).strategy),
              Status::OK());
    for (const rule::Rule& r : InstalledRules(suggestions.at(0).strategy)) {
      rule::Rule copy_r = r;
      copy_r.id = static_cast<int64_t>(rules.size()) + 1;
      rules.push_back(std::move(copy_r));
    }
  }
  TimePoint crash_at = TimePoint::FromMillis(10000);
  TimePoint restart_at = TimePoint::FromMillis(11000);
  ASSERT_EQ(system.ScheduleCrash("LOOKUP", crash_at, restart_at,
                                 /*clean=*/true),
            Status::OK());

  Rng rng(5);
  for (int u = 0; u < 20; ++u) {
    int i = static_cast<int>(rng.Index(kStaff));
    std::string number = std::to_string(rng.UniformInt(200, 999)) + "-" +
                         std::to_string(rng.UniformInt(1000, 9999));
    ASSERT_EQ(
        system.WorkloadWrite(
            rule::ItemId{"phone", {Value::Str("user" + std::to_string(i))}},
            Value::Str(number)),
        Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(200, 5000)));
  }
  system.RunFor(Duration::Minutes(2));

  auto outages = OutagesOf(system);
  ASSERT_EQ(outages.size(), 1u);
  trace::Trace t = system.FinishTrace();
  trace::ValidExecutionOptions vopts;
  vopts.outages = outages;
  auto report = trace::CheckValidExecution(t, rules, vopts);
  EXPECT_TRUE(report.valid) << report.ToString();

  // Every guarantee holds over the recovered trace — the held notifies
  // were delivered and applied after the restart, not dropped.
  trace::GuaranteeCheckOptions check;
  check.settle_margin = Duration::Minutes(1);
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    for (auto make : {spec::YFollowsX, spec::XLeadsY}) {
      auto result = trace::CheckGuarantee(t, make("phone(n)", copy), check);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(result->holds) << copy << ": " << result->ToString();
    }
  }

  // The outage classified metric and only LOOKUP's guarantees voided; the
  // GROUP copy never involved the crashed site.
  const auto& notices = system.guarantee_status().failures();
  ASSERT_FALSE(notices.empty());
  EXPECT_EQ(notices[0].failure_class, FailureClass::kMetric);
  EXPECT_TRUE(system.guarantee_status().InvalidKeys().empty());
  auto metric_detail = system.guarantee_status().DetailOf(
      "c/CsdPhone(n)/metric-y-follows-x");
  ASSERT_TRUE(metric_detail.ok());
  ASSERT_EQ(metric_detail->void_windows.size(), 1u);
  EXPECT_EQ(metric_detail->void_windows[0].first, crash_at);
  EXPECT_GE(metric_detail->void_windows[0].second, restart_at);
  auto group_detail = system.guarantee_status().DetailOf(
      "c/GroupPhone(n)/metric-y-follows-x");
  ASSERT_TRUE(group_detail.ok());
  EXPECT_TRUE(group_detail->void_windows.empty());
}

// --- Failure relays stay among a strategy's sites ---

struct TwoDepartmentRun {
  uint64_t group0_to_whois0 = 0;
  // Messages from GROUP0 to any site of department 1.
  uint64_t group0_to_dept1 = 0;
  std::vector<std::string> invalid_keys;
  std::vector<toolkit::FailureNotice> notices;
  // key -> void windows of the metric copy guarantees.
  std::map<std::string, std::vector<std::pair<TimePoint, TimePoint>>> voids;
};

TwoDepartmentRun RunTwoDepartments(size_t threads, bool crash,
                                   TimePoint crash_at, TimePoint restart_at) {
  constexpr int kStaff = 4;
  toolkit::SystemOptions opts;
  opts.num_threads = threads;
  opts.storage.dir = FreshDir("hcm_relay_scope_t" + std::to_string(threads) +
                              (crash ? "_crash" : "_base"));
  opts.storage.commit_interval = Duration::Millis(10);
  opts.storage.snapshot_period = Duration::Seconds(5);
  toolkit::System system(opts);
  std::vector<std::string> metric_keys;
  for (const char* d : {"0", "1"}) {
    auto* whois = *system.AddWhoisSite(ForDept("WHOIS@", d));
    auto* lookup = *system.AddFileSite(ForDept("LOOKUP@", d));
    auto* group = *system.AddRelationalSite(ForDept("GROUP@", d));
    group->Execute("create table members (login str primary key, phone str)");
    for (int i = 0; i < kStaff; ++i) {
      std::string login = "user" + std::to_string(i);
      whois->Query("set " + login + " phone 000-0000");
      lookup->Write("/staff/phone/" + login, "\"000-0000\"");
      group->Execute("insert into members values ('" + login +
                     "', '000-0000')");
    }
    for (const char* rid : {kRidWhois, kRidLookup, kRidGroup}) {
      EXPECT_EQ(system.ConfigureTranslator(ForDept(rid, d)), Status::OK());
    }
    for (int i = 0; i < kStaff; ++i) {
      Value login = Value::Str("user" + std::to_string(i));
      for (const char* base : {"phone@", "CsdPhone@", "GroupPhone@"}) {
        system.DeclareInitial(rule::ItemId{ForDept(base, d), {login}});
      }
    }
    for (const char* copy : {"CsdPhone@(n)", "GroupPhone@(n)"}) {
      auto constraint = *spec::MakeCopyConstraint(ForDept("phone@(n)", d),
                                                  ForDept(copy, d));
      auto suggestions = *system.Suggest(constraint);
      std::string key = "c/" + ForDept(copy, d);
      EXPECT_EQ(system.InstallStrategy(key, constraint,
                                       suggestions.at(0).strategy),
                Status::OK());
      metric_keys.push_back(key + "/metric-y-follows-x");
    }
  }
  if (crash) {
    EXPECT_EQ(system.ScheduleCrash("GROUP0", crash_at, restart_at,
                                   /*clean=*/true),
              Status::OK());
  }
  Rng rng(11);
  for (int u = 0; u < 24; ++u) {
    std::string item = "phone" + std::to_string(u % 2);
    std::string login = "user" + std::to_string(rng.Index(kStaff));
    EXPECT_EQ(system.WorkloadWrite(rule::ItemId{item, {Value::Str(login)}},
                                   Value::Str(std::to_string(
                                       rng.UniformInt(200, 999)))),
              Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(200, 2000)));
  }
  system.RunFor(Duration::Minutes(1));

  TwoDepartmentRun run;
  const auto& net = system.network();
  run.group0_to_whois0 = net.messages_on_channel("GROUP0", "WHOIS0");
  for (const char* site : {"WHOIS1", "LOOKUP1", "GROUP1"}) {
    run.group0_to_dept1 += net.messages_on_channel("GROUP0", site);
  }
  run.invalid_keys = system.guarantee_status().InvalidKeys();
  run.notices = system.guarantee_status().failures();
  for (const auto& key : metric_keys) {
    auto detail = system.guarantee_status().DetailOf(key);
    EXPECT_TRUE(detail.ok()) << key;
    if (detail.ok()) run.voids[key] = detail->void_windows;
  }
  return run;
}

TEST(CrashRecovery, FailureRelayReachesOnlyStrategyPeers) {
  const TimePoint crash_at = TimePoint::FromMillis(8000);
  const TimePoint restart_at = TimePoint::FromMillis(9000);
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TwoDepartmentRun base =
        RunTwoDepartments(threads, /*crash=*/false, crash_at, restart_at);
    TwoDepartmentRun run =
        RunTwoDepartments(threads, /*crash=*/true, crash_at, restart_at);

    // The relay went to GROUP0's strategy peer WHOIS0 and nowhere in
    // department 1, which shares no strategy with GROUP0.
    EXPECT_GT(run.group0_to_whois0, base.group0_to_whois0);
    EXPECT_EQ(run.group0_to_dept1, 0u);

    // Verdicts: one metric failure at GROUP0, nothing invalid, and only
    // GroupPhone0's metric guarantee void, from the crash until after the
    // restart.
    ASSERT_EQ(run.notices.size(), 1u);
    EXPECT_EQ(run.notices[0].site, "GROUP0");
    EXPECT_EQ(run.notices[0].failure_class, FailureClass::kMetric);
    EXPECT_TRUE(run.invalid_keys.empty());
    EXPECT_TRUE(base.notices.empty());
    for (const auto& [key, windows] : run.voids) {
      if (key == "c/GroupPhone0(n)/metric-y-follows-x") {
        ASSERT_EQ(windows.size(), 1u);
        EXPECT_EQ(windows[0].first, crash_at);
        EXPECT_GE(windows[0].second, restart_at);
      } else {
        EXPECT_TRUE(windows.empty()) << key;
      }
      EXPECT_TRUE(base.voids.at(key).empty()) << key;
    }
  }
}

}  // namespace
}  // namespace hcm
