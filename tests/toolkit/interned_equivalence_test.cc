// The acid test for the interned-symbol runtime (slot-compiled bindings,
// symbol-keyed messages/channels/lanes): a deployment run on the compiled
// path must produce byte-identical traces, guarantee reports, dispatch
// stats, and valid-execution reports to the same run forced through the
// string-keyed reference matching path (SystemOptions::use_reference_impl),
// at 1 worker thread and under the site-sharded parallel engine. Exercised
// over the E1 payroll deployment and the E9 Stanford deployment with
// seed-randomized workloads.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/trace/trace_io.h"
#include "src/trace/valid_execution.h"

namespace hcm {
namespace {

// Everything the two matching paths must agree on, rendered to bytes.
struct RunReport {
  std::string trace_bytes;       // SerializeTrace of the finished trace
  std::string guarantee_report;  // concatenated GuaranteeCheckResult text
  std::string dispatch_stats;    // DescribeDispatchStats
  std::string execution_report;  // CheckValidExecution ToString
  std::vector<std::string> invalid_keys;
  uint64_t messages = 0;
};

// The rule program InstallStrategy distributed, reconstructed the same way
// it assigns ids: install order, skipping prohibitions, ids from 1.
std::vector<rule::Rule> InstalledRules(
    const std::vector<spec::StrategySpec>& strategies) {
  std::vector<rule::Rule> rules;
  int64_t next_id = 1;
  for (const auto& s : strategies) {
    for (rule::Rule r : s.rules) {
      if (r.forbids()) continue;
      r.id = next_id++;
      rules.push_back(std::move(r));
    }
  }
  return rules;
}

void ExpectIdentical(const RunReport& reference, const RunReport& run,
                     size_t threads, uint64_t seed) {
  ASSERT_EQ(reference.trace_bytes.size(), run.trace_bytes.size())
      << "trace size diverged at threads=" << threads << " seed=" << seed;
  EXPECT_TRUE(reference.trace_bytes == run.trace_bytes)
      << "trace bytes diverged at threads=" << threads << " seed=" << seed;
  EXPECT_EQ(reference.guarantee_report, run.guarantee_report)
      << "guarantee report diverged at threads=" << threads
      << " seed=" << seed;
  EXPECT_EQ(reference.dispatch_stats, run.dispatch_stats)
      << "dispatch stats diverged at threads=" << threads << " seed=" << seed;
  EXPECT_EQ(reference.execution_report, run.execution_report);
  EXPECT_EQ(reference.invalid_keys, run.invalid_keys);
  EXPECT_EQ(reference.messages, run.messages);
}

// --- E1: payroll copy constraint across two relational sites ---

RunReport RunPayroll(size_t threads, bool use_reference_impl, uint64_t seed) {
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/6,
      sim::NetworkConfig{}, threads, use_reference_impl);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  EXPECT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  std::vector<rule::Rule> rules = InstalledRules({suggestions.at(0).strategy});

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
  report.dispatch_stats = system.DescribeDispatchStats();
  trace::Trace t = system.FinishTrace();
  report.trace_bytes = trace::SerializeTrace(t);
  report.execution_report = trace::CheckValidExecution(t, rules).ToString();
  trace::GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Minutes(1);
  for (auto make : {spec::YFollowsX, spec::XLeadsY}) {
    auto result =
        trace::CheckGuarantee(t, make("salary1(n)", "salary2(n)"), opts);
    EXPECT_TRUE(result.ok());
    report.guarantee_report += result->ToString();
  }
  report.invalid_keys = system.guarantee_status().InvalidKeys();
  return report;
}

TEST(InternedEquivalence, PayrollCompiledPathMatchesReferencePath) {
  for (uint64_t seed : {7u, 21u}) {
    for (size_t threads : {1u, 4u}) {
      RunReport reference = RunPayroll(threads, /*use_reference_impl=*/true,
                                       seed);
      EXPECT_GT(reference.trace_bytes.size(), 0u);
      RunReport run = RunPayroll(threads, /*use_reference_impl=*/false, seed);
      ExpectIdentical(reference, run, threads, seed);
    }
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

RunReport RunStanford(size_t threads, bool use_reference_impl, uint64_t seed) {
  constexpr int kStaff = 8;
  toolkit::SystemOptions opts;
  opts.num_threads = threads;
  opts.use_reference_impl = use_reference_impl;
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
  std::vector<spec::StrategySpec> installed;
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    auto constraint = *spec::MakeCopyConstraint("phone(n)", copy);
    auto suggestions = *system.Suggest(constraint);
    EXPECT_EQ(system.InstallStrategy(std::string("c/") + copy, constraint,
                                     suggestions.at(0).strategy),
              Status::OK());
    installed.push_back(suggestions.at(0).strategy);
  }
  std::vector<rule::Rule> rules = InstalledRules(installed);

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
  report.dispatch_stats = system.DescribeDispatchStats();
  trace::Trace t = system.FinishTrace();
  report.trace_bytes = trace::SerializeTrace(t);
  report.execution_report = trace::CheckValidExecution(t, rules).ToString();
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

TEST(InternedEquivalence, StanfordCompiledPathMatchesReferencePath) {
  for (uint64_t seed : {5u, 99u}) {
    for (size_t threads : {1u, 4u}) {
      RunReport reference = RunStanford(threads, /*use_reference_impl=*/true,
                                        seed);
      EXPECT_GT(reference.trace_bytes.size(), 0u);
      RunReport run = RunStanford(threads, /*use_reference_impl=*/false, seed);
      ExpectIdentical(reference, run, threads, seed);
    }
  }
}

// Sanity: the compiled path actually fires rules (the equivalence above
// would hold vacuously if neither path matched anything).
TEST(InternedEquivalence, CompiledPathDoesRealWork) {
  RunReport run = RunPayroll(1, /*use_reference_impl=*/false, 7u);
  EXPECT_NE(run.dispatch_stats.find("matches=25"), std::string::npos)
      << run.dispatch_stats;
  EXPECT_NE(run.dispatch_stats.find("firings=25"), std::string::npos)
      << run.dispatch_stats;
  EXPECT_NE(run.guarantee_report.find("HOLDS"), std::string::npos);
  EXPECT_TRUE(run.invalid_keys.empty());
}

}  // namespace
}  // namespace hcm
