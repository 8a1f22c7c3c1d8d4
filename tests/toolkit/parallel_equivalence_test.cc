// The acid test for sim::ParallelExecutor (ISSUE 3, rebuilt in ISSUE 6): a
// deployment run with SystemOptions::num_threads = 1 and with N > 1 worker
// threads must produce byte-identical traces and byte-identical guarantee
// reports. Exercised over the E1 payroll deployment (two relational
// sites), the E9 Stanford deployment (whois + filestore + relational), and
// a 105-lane Zipf-skewed department topology that stresses the
// epoch-synchronized engine (hot lanes deep in supersteps while cold ones
// idle). The elision-soundness tests additionally pin the CALM claim: the
// schedule with monotone-rule fires delivered clamp-free is byte-identical
// to the fully clamped one-epoch-per-superstep schedule.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/rule/parser.h"
#include "src/sim/parallel_executor.h"
#include "src/trace/trace_io.h"

namespace hcm {
namespace {

// Everything two runs must agree on, rendered to bytes.
struct RunReport {
  std::string trace_bytes;        // SerializeTrace of the finished trace
  std::string guarantee_report;   // concatenated GuaranteeCheckResult text
  std::vector<std::string> invalid_keys;
  uint64_t messages = 0;
  // Engine counters — themselves deterministic functions of the
  // simulation, so thread counts must agree on them too.
  uint64_t clamped = 0;
  uint64_t elided = 0;
};

void ExpectIdentical(const RunReport& reference, const RunReport& run,
                     size_t threads, uint64_t seed) {
  // Compare sizes first so a mismatch fails with a readable message
  // instead of dumping two multi-megabyte strings.
  ASSERT_EQ(reference.trace_bytes.size(), run.trace_bytes.size())
      << "trace size diverged at threads=" << threads << " seed=" << seed;
  EXPECT_TRUE(reference.trace_bytes == run.trace_bytes)
      << "trace bytes diverged at threads=" << threads << " seed=" << seed;
  EXPECT_EQ(reference.guarantee_report, run.guarantee_report)
      << "guarantee report diverged at threads=" << threads
      << " seed=" << seed;
  EXPECT_EQ(reference.invalid_keys, run.invalid_keys);
  EXPECT_EQ(reference.messages, run.messages);
  EXPECT_EQ(reference.clamped, run.clamped);
  EXPECT_EQ(reference.elided, run.elided);
}

// --- E1: payroll copy constraint across two relational sites ---

RunReport RunPayroll(size_t threads, uint64_t seed) {
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/6,
      sim::NetworkConfig{}, threads);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  EXPECT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());

  Rng rng(seed);
  for (int u = 0; u < 25; ++u) {
    int n = static_cast<int>(rng.UniformInt(1, 6));
    int salary = static_cast<int>(rng.UniformInt(50000, 90000));
    EXPECT_EQ(system.WorkloadWrite(rule::ItemId{"salary1", {Value::Int(n)}},
                                   Value::Int(salary)),
              Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(50, 2000)));
  }
  system.RunFor(Duration::Minutes(2));

  RunReport report;
  report.messages = system.network().total_messages_sent();
  trace::Trace t = system.FinishTrace();
  report.trace_bytes = trace::SerializeTrace(t);
  trace::GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Minutes(1);
  for (auto make : {spec::YFollowsX, spec::XLeadsY}) {
    auto result = trace::CheckGuarantee(t, make("salary1(n)", "salary2(n)"),
                                        opts);
    EXPECT_TRUE(result.ok());
    report.guarantee_report += result->ToString();
  }
  report.invalid_keys = system.guarantee_status().InvalidKeys();
  return report;
}

TEST(ParallelEquivalence, PayrollTraceAndGuaranteesMatchAnyThreadCount) {
  for (uint64_t seed : {7u, 21u}) {
    RunReport reference = RunPayroll(1, seed);
    EXPECT_GT(reference.trace_bytes.size(), 0u);
    for (size_t threads : {2u, 4u, 8u}) {
      RunReport run = RunPayroll(threads, seed);
      ExpectIdentical(reference, run, threads, seed);
    }
  }
}

// num_threads = 0 runs every site on one lane, which must keep the classic
// sequential schedule. Bursts of same-instant writes keep both sites busy
// inside one lookahead window, where per-site lanes would reorder them.
// The FNV-1a hashes of the trace bytes plus the guarantee report were
// taken from the single-queue engine the one-lane case replaced; a change
// here changes every num_threads = 0 trace.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t OneLanePayrollBurstsHash(uint64_t seed) {
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/12,
      sim::NetworkConfig{}, /*num_threads=*/0);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  EXPECT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  Rng rng(seed);
  for (int step = 0; step < 40; ++step) {
    for (int w = 0; w < 4; ++w) {
      int n = static_cast<int>(rng.UniformInt(1, 12));
      int salary = static_cast<int>(rng.UniformInt(50000, 90000));
      EXPECT_EQ(system.WorkloadWrite(rule::ItemId{"salary1", {Value::Int(n)}},
                                     Value::Int(salary)),
                Status::OK());
    }
    system.RunFor(Duration::Millis(rng.UniformInt(5, 400)));
  }
  system.RunFor(Duration::Minutes(2));
  trace::Trace t = system.FinishTrace();
  std::string bytes = trace::SerializeTrace(t);
  trace::GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Minutes(1);
  for (auto make : {spec::YFollowsX, spec::XLeadsY}) {
    auto result = trace::CheckGuarantee(t, make("salary1(n)", "salary2(n)"),
                                        opts);
    EXPECT_TRUE(result.ok());
    bytes += result->ToString();
  }
  return Fnv1a(bytes);
}

TEST(ParallelEquivalence, OneLanePayrollKeepsTheSequentialSchedule) {
  const std::pair<uint64_t, uint64_t> expected[] = {
      {7, 0x68f8c16b8bc18afaull}, {21, 0x81e03d9df13bd9d1ull}};
  for (const auto& [seed, hash] : expected) {
    EXPECT_EQ(OneLanePayrollBurstsHash(seed), hash) << "seed=" << seed;
  }
}

// --- E9: Stanford deployment (whois + filestore + relational) ---

constexpr const char* kRidWhois = R"(
ris whois
site WHOIS
param notify_delay 200ms
item phone
  read   get $1 phone
  write  set $1 phone $v
  list   list
  notify attr phone
interface notify phone(n) 1s
)";

constexpr const char* kRidLookup = R"(
ris filestore
site LOOKUP
item CsdPhone
  read  /staff/phone/$1
  write /staff/phone/$1
  list  /staff/phone/
interface write CsdPhone(n) 2s
)";

constexpr const char* kRidGroup = R"(
ris relational
site GROUP
item GroupPhone
  read   select phone from members where login = $1
  write  update members set phone = $v where login = $1
  list   select login from members
interface write GroupPhone(n) 2s
)";

RunReport RunStanford(size_t threads, uint64_t seed) {
  constexpr int kStaff = 8;
  toolkit::SystemOptions opts;
  opts.num_threads = threads;
  toolkit::System system(opts);
  auto* whois = *system.AddWhoisSite("WHOIS");
  auto* lookup = *system.AddFileSite("LOOKUP");
  auto* group = *system.AddRelationalSite("GROUP");
  group->Execute("create table members (login str primary key, phone str)");
  for (int i = 0; i < kStaff; ++i) {
    std::string login = "user" + std::to_string(i);
    whois->Query("set " + login + " phone 000-0000");
    lookup->Write("/staff/phone/" + login, "\"000-0000\"");
    group->Execute("insert into members values ('" + login + "', '000-0000')");
  }
  EXPECT_EQ(system.ConfigureTranslator(kRidWhois), Status::OK());
  EXPECT_EQ(system.ConfigureTranslator(kRidLookup), Status::OK());
  EXPECT_EQ(system.ConfigureTranslator(kRidGroup), Status::OK());
  for (int i = 0; i < kStaff; ++i) {
    Value login = Value::Str("user" + std::to_string(i));
    system.DeclareInitial(rule::ItemId{"phone", {login}});
    system.DeclareInitial(rule::ItemId{"CsdPhone", {login}});
    system.DeclareInitial(rule::ItemId{"GroupPhone", {login}});
  }
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    auto constraint = *spec::MakeCopyConstraint("phone(n)", copy);
    auto suggestions = *system.Suggest(constraint);
    EXPECT_EQ(system.InstallStrategy(std::string("c/") + copy, constraint,
                                     suggestions.at(0).strategy),
              Status::OK());
  }

  Rng rng(seed);
  for (int u = 0; u < 20; ++u) {
    int i = static_cast<int>(rng.Index(kStaff));
    std::string number = std::to_string(rng.UniformInt(200, 999)) + "-" +
                         std::to_string(rng.UniformInt(1000, 9999));
    EXPECT_EQ(
        system.WorkloadWrite(
            rule::ItemId{"phone", {Value::Str("user" + std::to_string(i))}},
            Value::Str(number)),
        Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(200, 5000)));
  }
  system.RunFor(Duration::Minutes(2));

  RunReport report;
  report.messages = system.network().total_messages_sent();
  trace::Trace t = system.FinishTrace();
  report.trace_bytes = trace::SerializeTrace(t);
  trace::GuaranteeCheckOptions check;
  check.settle_margin = Duration::Minutes(1);
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    for (auto make : {spec::YFollowsX, spec::XLeadsY}) {
      auto result = trace::CheckGuarantee(t, make("phone(n)", copy), check);
      EXPECT_TRUE(result.ok());
      report.guarantee_report += result->ToString();
    }
  }
  report.invalid_keys = system.guarantee_status().InvalidKeys();
  return report;
}

TEST(ParallelEquivalence, StanfordTraceAndGuaranteesMatchAnyThreadCount) {
  for (uint64_t seed : {5u, 99u}) {
    RunReport reference = RunStanford(1, seed);
    EXPECT_GT(reference.trace_bytes.size(), 0u);
    for (size_t threads : {2u, 4u, 8u}) {
      RunReport run = RunStanford(threads, seed);
      ExpectIdentical(reference, run, threads, seed);
    }
  }
}

// Sanity: the guarantees must actually HOLD under the parallel engine, not
// merely agree between runs — window clamping or lost cross-site messages
// would show up here first.
TEST(ParallelEquivalence, GuaranteesHoldUnderParallelEngine) {
  RunReport run = RunStanford(4, 5u);
  EXPECT_NE(run.guarantee_report.find("HOLDS"), std::string::npos);
  EXPECT_EQ(run.guarantee_report.find("VIOLATED"), std::string::npos)
      << run.guarantee_report;
  EXPECT_TRUE(run.invalid_keys.empty());
}

// --- Zipf-skewed wide topology: 35 departments x 3 sites = 105 lanes ---
//
// Department d owns WHOIS<d> (whois source of phone<d>), LOOKUP<d>
// (filestore copy CsdPhone<d>), and MON<d> (shell-only monitor whose relay
// rule is monotone, so its fires take the elided clamp-free path). The
// update stream is Zipf-distributed over departments: dept 0 sees ~an
// order of magnitude more traffic than the tail, so a few lanes run deep
// epoch chains while most sit idle — the regime where per-lane epoch
// synchronization, channel batching, and adaptive superstep depth earn
// their keep and where scheduling bugs would diverge first.

constexpr int kZipfDepts = 35;

std::string Subst(std::string text, const std::string& dept) {
  size_t pos;
  while ((pos = text.find('@')) != std::string::npos) {
    text.replace(pos, 1, dept);
  }
  return text;
}

void BuildZipfDept(toolkit::System& system, int dept) {
  std::string d = std::to_string(dept);
  auto* whois = *system.AddWhoisSite("WHOIS" + d);
  auto* lookup = *system.AddFileSite("LOOKUP" + d);
  for (int i = 0; i < 2; ++i) {
    std::string login = "user" + std::to_string(i);
    whois->Query("set " + login + " phone 000-0000");
    lookup->Write("/staff/phone/" + login, "\"000-0000\"");
  }
  ASSERT_EQ(system.ConfigureTranslator(Subst(R"(
ris whois
site WHOIS@
param notify_delay 200ms
item phone@
  read   get $1 phone
  write  set $1 phone $v
  list   list
  notify attr phone
interface notify phone@(n) 1s
)", d)), Status::OK());
  ASSERT_EQ(system.ConfigureTranslator(Subst(R"(
ris filestore
site LOOKUP@
item CsdPhone@
  read  /staff/phone/$1
  write /staff/phone/$1
  list  /staff/phone/
interface write CsdPhone@(n) 2s
)", d)), Status::OK());
  for (int i = 0; i < 2; ++i) {
    Value login = Value::Str("user" + std::to_string(i));
    system.DeclareInitial(rule::ItemId{"phone" + d, {login}});
    system.DeclareInitial(rule::ItemId{"CsdPhone" + d, {login}});
  }
  auto constraint =
      *spec::MakeCopyConstraint("phone" + d + "(n)", "CsdPhone" + d + "(n)");
  auto suggestions = *system.Suggest(constraint);
  ASSERT_EQ(system.InstallStrategy("c/" + d, constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  // The monotone relay: classified by rule::ClassifyMonotone at install
  // time, its fires ride sim::Executor::PostElidableAt.
  ASSERT_EQ(system.RegisterPrivateItem("Relay" + d, "MON" + d), Status::OK());
  spec::StrategySpec relay;
  relay.name = "relay" + d;
  relay.rules = *rule::ParseRuleSet(
      Subst("relay@: N(phone@(n), b) -> 2s W(Relay@(n), b)", d));
  auto relay_constraint =
      *spec::MakeCopyConstraint("phone" + d + "(n)", "Relay" + d + "(n)");
  ASSERT_EQ(system.InstallStrategy("relay/" + d, relay_constraint, relay),
            Status::OK());
}

struct ZipfEngineOptions {
  bool elide = true;        // SystemOptions::elide_monotone_rules
  size_t max_epochs = 16;   // SystemOptions::max_epochs_per_superstep
};

RunReport RunZipf(size_t threads, uint64_t seed,
                  ZipfEngineOptions engine = {}) {
  toolkit::SystemOptions opts;
  opts.num_threads = threads;
  opts.elide_monotone_rules = engine.elide;
  opts.max_epochs_per_superstep = engine.max_epochs;
  toolkit::System system(opts);
  for (int d = 0; d < kZipfDepts; ++d) {
    BuildZipfDept(system, d);
  }

  // Warm-up: one update per department early on, so every cross-lane
  // channel the workload uses exists before supersteps deepen (new-channel
  // first contact is the one place the engine may clamp to the superstep
  // horizon, and the soundness comparison needs both schedules past it).
  for (int d = 0; d < kZipfDepts; ++d) {
    system.executor().PostAt(
        "WHOIS" + std::to_string(d),
        TimePoint::FromMillis(100 + 25 * d), [&system, d] {
          system.WorkloadWrite(
              rule::ItemId{"phone" + std::to_string(d),
                           {Value::Str("user0")}},
              Value::Str("555-0000"));
        });
  }

  // Zipf-skewed measured stream: department weight 1/(d+1).
  std::vector<double> cumulative(kZipfDepts);
  double total = 0;
  for (int d = 0; d < kZipfDepts; ++d) {
    total += 1.0 / (d + 1);
    cumulative[d] = total;
  }
  struct Update {
    int dept;
    int user;
    std::string number;
  };
  std::vector<Update> workload;
  Rng rng(seed);
  for (int u = 0; u < 150; ++u) {
    double pick = total * static_cast<double>(rng.UniformInt(0, 1000000)) /
                  1000001.0;
    int dept = 0;
    while (dept < kZipfDepts - 1 && cumulative[dept] <= pick) ++dept;
    workload.push_back(Update{
        dept, static_cast<int>(rng.Index(2)),
        std::to_string(rng.UniformInt(200, 999)) + "-" +
            std::to_string(rng.UniformInt(1000, 9999))});
  }
  for (size_t u = 0; u < workload.size(); ++u) {
    const Update& up = workload[u];
    system.executor().PostAt(
        "WHOIS" + std::to_string(up.dept),
        TimePoint::FromMillis(2000 + 200 * u), [&system, &up] {
          system.WorkloadWrite(
              rule::ItemId{"phone" + std::to_string(up.dept),
                           {Value::Str("user" + std::to_string(up.user))}},
              Value::Str(up.number));
        });
  }
  system.RunFor(Duration::Millis(2000 + 200 * 150) + Duration::Minutes(2));

  RunReport report;
  report.messages = system.network().total_messages_sent();
  auto* pex = dynamic_cast<sim::ParallelExecutor*>(&system.executor());
  report.clamped = pex->clamped_cross_posts();
  report.elided = pex->elided_cross_posts();
  EXPECT_GE(pex->num_lanes(), 105u);
  trace::Trace t = system.FinishTrace();
  report.trace_bytes = trace::SerializeTrace(t);
  trace::GuaranteeCheckOptions check;
  check.settle_margin = Duration::Minutes(1);
  // Spot-check guarantees at the hot head, the middle, and the cold tail.
  for (int d : {0, 1, kZipfDepts / 2, kZipfDepts - 1}) {
    std::string x = "phone" + std::to_string(d) + "(n)";
    std::string y = "CsdPhone" + std::to_string(d) + "(n)";
    for (auto make : {spec::YFollowsX, spec::XLeadsY}) {
      auto result = trace::CheckGuarantee(t, make(x, y), check);
      EXPECT_TRUE(result.ok());
      report.guarantee_report += result->ToString();
    }
  }
  report.invalid_keys = system.guarantee_status().InvalidKeys();
  return report;
}

TEST(ParallelEquivalence, ZipfWideTopologyMatchesAnyThreadCount) {
  RunReport reference = RunZipf(1, 11u);
  EXPECT_GT(reference.trace_bytes.size(), 0u);
  // The monotone relays must actually exercise the elided path, and the
  // skewed stream must exercise the clamp accounting.
  EXPECT_GT(reference.elided, 0u);
  for (size_t threads : {2u, 4u, 8u}) {
    RunReport run = RunZipf(threads, 11u);
    ExpectIdentical(reference, run, threads, 11u);
  }
  EXPECT_EQ(reference.guarantee_report.find("VIOLATED"), std::string::npos)
      << reference.guarantee_report;
}

// --- CALM elision soundness ---
//
// The classifier's claim is semantic: delivering a monotone rule's fires
// without the synchronization-window clamp changes nothing observable.
// Pin it by running the same workload under (a) the elided schedule with
// full adaptive superstep depth, and (b) the fully coordinated schedule —
// elision off, one epoch per superstep, every cross-lane post subject to
// the clamp. Traces, guarantee reports, and invalidation sets must agree
// byte for byte. (Deliveries here all travel >= one lookahead of latency,
// so the clamp never actually moves a timestamp — which is exactly why the
// elided schedule can skip it soundly; the comparison would catch any
// divergence introduced by the relaxed delivery order.)
TEST(ParallelEquivalence, ElidedScheduleMatchesClampedSchedule) {
  for (size_t threads : {1u, 4u}) {
    RunReport elided = RunZipf(threads, 23u, {/*elide=*/true,
                                              /*max_epochs=*/16});
    RunReport clamped = RunZipf(threads, 23u, {/*elide=*/false,
                                               /*max_epochs=*/1});
    EXPECT_GT(elided.elided, 0u);
    EXPECT_EQ(clamped.elided, 0u);
    ASSERT_EQ(elided.trace_bytes.size(), clamped.trace_bytes.size())
        << "trace size diverged at threads=" << threads;
    EXPECT_TRUE(elided.trace_bytes == clamped.trace_bytes)
        << "elided schedule diverged from clamped at threads=" << threads;
    EXPECT_EQ(elided.guarantee_report, clamped.guarantee_report);
    EXPECT_EQ(elided.invalid_keys, clamped.invalid_keys);
    EXPECT_EQ(elided.messages, clamped.messages);
  }
}

}  // namespace
}  // namespace hcm
