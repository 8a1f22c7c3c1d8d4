// The acid test for trace::StreamingChecker: a checker fed incrementally
// while the run executes must produce a final ExecutionReport — and
// guarantee reports — byte-identical to the offline checkers over the
// finished trace. Exercised in tee mode (sink attached, offline trace
// still accumulated, both checked) over the E1 payroll deployment and the
// E9 Stanford deployment at 0, 1 and 4 worker threads, over a randomized
// 100k-event trace with injected violations (reported live, mid-run), over
// a randomized trace whose rule program uses every matching feature (LHS
// and step conditions, prohibitions, repeated variables, whole-base reads)
// with violations of properties 2 and 4-7, and over a crash/recover run
// against the outage-aware offline checker at 0 and 4 threads. The overlap
// case checks the engine's delivery contract in tee and drain mode at 0, 1,
// 2 and 4 threads:
// identical reports, everything delivered when RunFor returns, and checker
// callbacks only on the RunFor caller's thread.

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/rule/parser.h"
#include "src/spec/guarantee.h"
#include "src/trace/guarantee_checker.h"
#include "src/trace/streaming_checker.h"
#include "src/trace/valid_execution.h"

namespace hcm::trace {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;

// Rules as installed by the System: ids assigned from next_id in install
// order, forbid rules skipped (they install as vetoes, not obligations).
void AppendInstalledRules(const spec::StrategySpec& strategy,
                          std::vector<rule::Rule>* rules, int64_t* next_id) {
  for (rule::Rule r : strategy.rules) {
    if (r.forbids()) continue;
    r.id = (*next_id)++;
    rules->push_back(std::move(r));
  }
}

std::vector<SiteOutage> OutagesOf(toolkit::System& system) {
  std::vector<SiteOutage> outages;
  for (const auto& w : system.failures().DownWindows()) {
    outages.push_back(SiteOutage{w.site, w.from, w.to});
  }
  return outages;
}

// Both sides of every comparison, rendered to bytes. Work-counter stats are
// deliberately excluded (the streaming counters are approximations).
struct CheckedRun {
  std::string execution;  // ExecutionReport::ToString
  std::string guarantees;  // per-guarantee name + result text, name-sorted
};

std::string RenderGuarantees(
    const std::map<std::string, GuaranteeCheckResult>& results) {
  std::string out;
  for (const auto& [name, r] : results) {
    out += name + ":\n" + r.ToString();
  }
  return out;
}

CheckedRun OfflineCheck(const Trace& trace,
                        const std::vector<rule::Rule>& rules,
                        const std::vector<spec::Guarantee>& guarantees,
                        const ValidExecutionOptions& vopts,
                        const GuaranteeCheckOptions& gopts) {
  CheckedRun run;
  run.execution = CheckValidExecution(trace, rules, vopts).ToString();
  std::map<std::string, GuaranteeCheckResult> results;
  for (const auto& g : guarantees) {
    auto r = CheckGuarantee(trace, g, gopts);
    EXPECT_TRUE(r.ok()) << g.name;
    if (r.ok()) results[g.name] = std::move(*r);
  }
  run.guarantees = RenderGuarantees(results);
  return run;
}

CheckedRun StreamingResult(const StreamingChecker& checker) {
  CheckedRun run;
  run.execution = checker.execution_report().ToString();
  run.guarantees = RenderGuarantees(checker.guarantee_results());
  return run;
}

// --- E1 payroll, tee mode, 0, 1 and 4 threads ---

void RunPayrollTee(size_t threads) {
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/6,
      sim::NetworkConfig{}, threads);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  ASSERT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  std::vector<rule::Rule> rules;
  int64_t next_id = 1;
  AppendInstalledRules(suggestions.at(0).strategy, &rules, &next_id);

  std::vector<spec::Guarantee> guarantees = {
      spec::YFollowsX("salary1(n)", "salary2(n)"),
      spec::XLeadsY("salary1(n)", "salary2(n)"),
      spec::MetricYFollowsX("salary1(n)", "salary2(n)", Duration::Seconds(10)),
  };

  StreamingCheckOptions sopts;
  sopts.guarantee.settle_margin = Duration::Minutes(1);
  StreamingChecker checker(rules, guarantees, sopts);
  ASSERT_EQ(system.AttachStreamingChecker(&checker), Status::OK());

  Rng rng(21);
  for (int u = 0; u < 25; ++u) {
    int n = static_cast<int>(rng.UniformInt(1, 6));
    int salary = static_cast<int>(rng.UniformInt(50000, 90000));
    ASSERT_EQ(system.WorkloadWrite(ItemId{"salary1", {Value::Int(n)}},
                                   Value::Int(salary)),
              Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(50, 2000)));
  }
  system.RunFor(Duration::Minutes(2));
  Trace t = system.FinishTrace();
  ASSERT_TRUE(checker.finished());

  ValidExecutionOptions vopts;
  GuaranteeCheckOptions gopts;
  gopts.settle_margin = Duration::Minutes(1);
  CheckedRun offline = OfflineCheck(t, rules, guarantees, vopts, gopts);
  CheckedRun streaming = StreamingResult(checker);
  EXPECT_EQ(streaming.execution, offline.execution);
  EXPECT_EQ(streaming.guarantees, offline.guarantees);
  EXPECT_NE(streaming.guarantees.find("HOLDS"), std::string::npos);
  // The run actually streamed: events were retired before the finish, and
  // the live horizon stayed below the full trace.
  EXPECT_EQ(checker.stats().events_seen, t.events.size());
  EXPECT_GT(checker.stats().events_retired, 0u);
}

TEST(StreamingCheckTest, PayrollTeeMatchesOfflineSingleThread) {
  RunPayrollTee(1);
}

TEST(StreamingCheckTest, PayrollTeeMatchesOfflineFourThreads) {
  RunPayrollTee(4);
}

TEST(StreamingCheckTest, PayrollTeeMatchesOfflineZeroThreads) {
  RunPayrollTee(0);
}

// --- E9 Stanford (whois + filestore + relational), 0, 1 and 4 threads ---

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

// The three-site deployment with two copy strategies installed; `rules`
// and `guarantees` come back as the checker needs them.
void BuildStanford(toolkit::System& system, std::vector<rule::Rule>* rules,
                   std::vector<spec::Guarantee>* guarantees) {
  constexpr int kStaff = 8;
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
  ASSERT_EQ(system.ConfigureTranslator(kRidWhois), Status::OK());
  ASSERT_EQ(system.ConfigureTranslator(kRidLookup), Status::OK());
  ASSERT_EQ(system.ConfigureTranslator(kRidGroup), Status::OK());
  for (int i = 0; i < kStaff; ++i) {
    Value login = Value::Str("user" + std::to_string(i));
    system.DeclareInitial(ItemId{"phone", {login}});
    system.DeclareInitial(ItemId{"CsdPhone", {login}});
    system.DeclareInitial(ItemId{"GroupPhone", {login}});
  }
  int64_t next_id = 1;
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    auto constraint = *spec::MakeCopyConstraint("phone(n)", copy);
    auto suggestions = *system.Suggest(constraint);
    ASSERT_EQ(system.InstallStrategy(std::string("c/") + copy, constraint,
                                     suggestions.at(0).strategy),
              Status::OK());
    AppendInstalledRules(suggestions.at(0).strategy, rules, &next_id);
    guarantees->push_back(spec::YFollowsX("phone(n)", copy));
    guarantees->back().name += std::string(" ") + copy;
    guarantees->push_back(spec::XLeadsY("phone(n)", copy));
    guarantees->back().name += std::string(" ") + copy;
  }
}

// One random phone update on the deployment BuildStanford made.
Status WritePhone(toolkit::System& system, Rng& rng) {
  int i = static_cast<int>(rng.Index(8));
  std::string number = std::to_string(rng.UniformInt(200, 999)) + "-" +
                       std::to_string(rng.UniformInt(1000, 9999));
  return system.WorkloadWrite(
      ItemId{"phone", {Value::Str("user" + std::to_string(i))}},
      Value::Str(number));
}

void RunStanfordTee(size_t threads) {
  toolkit::SystemOptions opts;
  opts.num_threads = threads;
  toolkit::System system(opts);
  std::vector<rule::Rule> rules;
  std::vector<spec::Guarantee> guarantees;
  ASSERT_NO_FATAL_FAILURE(BuildStanford(system, &rules, &guarantees));

  StreamingCheckOptions sopts;
  sopts.guarantee.settle_margin = Duration::Minutes(1);
  StreamingChecker checker(rules, guarantees, sopts);
  ASSERT_EQ(system.AttachStreamingChecker(&checker), Status::OK());

  Rng rng(5);
  for (int u = 0; u < 20; ++u) {
    ASSERT_EQ(WritePhone(system, rng), Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(200, 5000)));
  }
  system.RunFor(Duration::Minutes(2));
  Trace t = system.FinishTrace();
  ASSERT_TRUE(checker.finished());

  ValidExecutionOptions vopts;
  GuaranteeCheckOptions gopts;
  gopts.settle_margin = Duration::Minutes(1);
  CheckedRun offline = OfflineCheck(t, rules, guarantees, vopts, gopts);
  CheckedRun streaming = StreamingResult(checker);
  EXPECT_EQ(streaming.execution, offline.execution);
  EXPECT_EQ(streaming.guarantees, offline.guarantees);
  EXPECT_EQ(checker.stats().events_seen, t.events.size());
}

TEST(StreamingCheckTest, StanfordTeeMatchesOfflineSingleThread) {
  RunStanfordTee(1);
}

TEST(StreamingCheckTest, StanfordTeeMatchesOfflineFourThreads) {
  RunStanfordTee(4);
}

TEST(StreamingCheckTest, StanfordTeeMatchesOfflineZeroThreads) {
  RunStanfordTee(0);
}

// --- Delivery overlapped with the next superstep ---
//
// With worker threads the System only detaches the trace's safe prefix at
// a superstep barrier; the merge and the checker run on the RunFor caller's
// thread while the lanes execute the next superstep, and RunFor returns
// only after the batch sealed at its deadline was delivered. The checker's rules carry one
// rule that is never installed, so every phone notify leaves a missed
// obligation and on_violation fires throughout the run.

struct OverlapRun {
  std::vector<rule::Rule> rules;  // as checked: installed + phantom
  std::vector<spec::Guarantee> guarantees;
  CheckedRun checked;
  Trace trace;  // no events in drain mode
  // After each RunFor: its deadline and the checker's events_seen.
  std::vector<std::pair<TimePoint, size_t>> seen_after_run;
  std::set<std::thread::id> violation_threads;
  size_t live_violations = 0;
};

constexpr const char* kPhantomRule = "N(phone(n), b) -> 1s WR(Phantom(n), b)";

void RunStanfordOverlap(size_t threads, bool drain, OverlapRun* run) {
  toolkit::SystemOptions opts;
  opts.num_threads = threads;
  toolkit::System system(opts);
  std::vector<rule::Rule>& rules = run->rules;
  std::vector<spec::Guarantee>& guarantees = run->guarantees;
  ASSERT_NO_FATAL_FAILURE(BuildStanford(system, &rules, &guarantees));
  auto phantom = rule::ParseRule(kPhantomRule);
  ASSERT_TRUE(phantom.ok());
  phantom->id = 1000;
  rules.push_back(*phantom);

  std::mutex mu;
  StreamingCheckOptions sopts;
  sopts.guarantee.settle_margin = Duration::Minutes(1);
  sopts.on_violation = [&](const ExecutionViolation&) {
    std::lock_guard<std::mutex> lock(mu);
    run->violation_threads.insert(std::this_thread::get_id());
  };
  StreamingChecker checker(rules, guarantees, sopts);
  ASSERT_EQ(system.AttachStreamingChecker(&checker, drain), Status::OK());

  // Driven through the executor itself: the engine, not System::RunFor's
  // end-of-run flush, must have delivered everything before the deadline.
  Rng rng(11);
  for (int u = 0; u < 30; ++u) {
    ASSERT_EQ(WritePhone(system, rng), Status::OK());
    system.executor().RunFor(Duration::Millis(rng.UniformInt(100, 3000)));
    run->seen_after_run.emplace_back(system.executor().now(),
                                     checker.stats().events_seen);
  }
  system.RunFor(Duration::Minutes(2));
  run->trace = system.FinishTrace();
  ASSERT_TRUE(checker.finished());
  run->checked = StreamingResult(checker);
  run->live_violations = checker.stats().live_violations;
}

// A tee run whose live reports match the offline check of its own trace.
void RunOverlapReference(size_t threads, OverlapRun* reference) {
  ASSERT_NO_FATAL_FAILURE(RunStanfordOverlap(threads, /*drain=*/false,
                                             reference));
  ASSERT_FALSE(reference->trace.events.empty());
  GuaranteeCheckOptions gopts;
  gopts.settle_margin = Duration::Minutes(1);
  CheckedRun offline = OfflineCheck(reference->trace, reference->rules,
                                    reference->guarantees, {}, gopts);
  EXPECT_EQ(reference->checked.execution, offline.execution);
  EXPECT_EQ(reference->checked.guarantees, offline.guarantees);
  EXPECT_NE(offline.execution.find("property 6"), std::string::npos)
      << offline.execution;
}

void ExpectOverlapMatchesReference(const OverlapRun& reference,
                                   size_t threads, bool drain) {
  SCOPED_TRACE("threads=" + std::to_string(threads) +
               (drain ? " drain" : " tee"));
  OverlapRun run;
  ASSERT_NO_FATAL_FAILURE(RunStanfordOverlap(threads, drain, &run));
  EXPECT_EQ(run.checked.execution, reference.checked.execution);
  EXPECT_EQ(run.checked.guarantees, reference.checked.guarantees);
  EXPECT_EQ(run.trace.events.size(),
            drain ? 0 : reference.trace.events.size());
  // Every batch detached before RunFor returned was delivered by then.
  ASSERT_EQ(run.seen_after_run.size(), reference.seen_after_run.size());
  for (const auto& [deadline, seen] : run.seen_after_run) {
    size_t before = static_cast<size_t>(std::count_if(
        reference.trace.events.begin(), reference.trace.events.end(),
        [deadline = deadline](const Event& e) { return e.time < deadline; }));
    EXPECT_EQ(seen, before) << "after RunFor to " << deadline.ToString();
  }
  // Checker callbacks run on the thread that called RunFor.
  EXPECT_GT(run.live_violations, 0u);
  EXPECT_EQ(run.violation_threads,
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(StreamingCheckTest, OverlappedDeliveryMatchesOfflineAtAnyThreadCount) {
  OverlapRun reference;
  ASSERT_NO_FATAL_FAILURE(RunOverlapReference(1, &reference));
  for (size_t threads : {1, 2, 4}) {
    for (bool drain : {false, true}) {
      ExpectOverlapMatchesReference(reference, threads, drain);
    }
  }
}

// The one-lane case records a different (sequential) schedule, so it is
// checked against its own tee run, through the same barrier hook.
TEST(StreamingCheckTest, DrainAtZeroThreadsMatchesOffline) {
  OverlapRun reference;
  ASSERT_NO_FATAL_FAILURE(RunOverlapReference(0, &reference));
  ExpectOverlapMatchesReference(reference, 0, /*drain=*/true);
}

// --- Randomized 100k-event trace with injected violations ---

constexpr size_t kPairs = 64;
constexpr size_t kTargetEvents = 100000;
constexpr int64_t kRuleDeltaMs = 5000;

ItemId Item(const std::string& base) { return ItemId{base, {}}; }

struct PendingFire {
  int64_t fire_ms = 0;
  uint64_t seq = 0;
  size_t pair = 0;
  int64_t value = 0;
  int64_t trigger_id = 0;
  bool corrupt_value = false;
  bool operator>(const PendingFire& o) const {
    return fire_ms != o.fire_ms ? fire_ms > o.fire_ms : seq > o.seq;
  }
};

// Generates a mostly-valid >= kTargetEvents trace — per-pair notify -> WR
// propagation, spontaneous writes with same-instant chains, a scripted
// GX -> GY copy stream — with a fixed handful of injected violations of
// properties 2, 5 and 6, recorded through `rec` so an attached sink sees
// the stream live.
struct GeneratedTrace {
  Trace trace;
  std::vector<rule::Rule> rules;
};

std::vector<rule::Rule> GeneratorRules() {
  std::vector<rule::Rule> rules;
  for (size_t p = 0; p < kPairs; ++p) {
    auto r = rule::ParseRule("N(src" + std::to_string(p) + ", b) -> 5s WR(dst" +
                             std::to_string(p) + ", b)");
    EXPECT_TRUE(r.ok());
    r->id = static_cast<int64_t>(p);
    rules.push_back(*r);
  }
  return rules;
}

Trace GenerateInto(TraceRecorder& rec, uint64_t seed) {
  for (size_t p = 0; p < kPairs; ++p) {
    rec.SetInitialValue(Item("src" + std::to_string(p)), Value::Int(0));
    rec.SetInitialValue(Item("dst" + std::to_string(p)), Value::Int(0));
  }
  rec.SetInitialValue(Item("GX"), Value::Int(0));
  rec.SetInitialValue(Item("GY"), Value::Int(0));

  Rng rng(seed);
  std::vector<int64_t> current(kPairs, 0);
  std::priority_queue<PendingFire, std::vector<PendingFire>,
                      std::greater<PendingFire>>
      pending;
  std::vector<int64_t> last_fire(kPairs, 0);
  uint64_t seq = 0;
  int64_t now = 0;
  int corrupt_old = 6, dropped_wr = 4, corrupt_wr = 3;
  int copies_left = 60;

  auto notify = [&rec](size_t p, int64_t ms, int64_t v) {
    Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "S" + std::to_string(p);
    e.kind = EventKind::kNotify;
    e.item = Item("src" + std::to_string(p));
    e.values = {Value::Int(v)};
    return rec.Record(e);
  };
  auto write_spont = [&rec](const ItemId& item, int64_t ms, Value old_v,
                            int64_t v) {
    Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "A";
    e.kind = EventKind::kWriteSpont;
    e.item = item;
    e.values = {std::move(old_v), Value::Int(v)};
    rec.Record(e);
  };
  auto flush_pending = [&](int64_t up_to_ms) {
    while (!pending.empty() && pending.top().fire_ms <= up_to_ms) {
      PendingFire f = pending.top();
      pending.pop();
      Event e;
      e.time = TimePoint::FromMillis(f.fire_ms);
      e.site = "D" + std::to_string(f.pair);
      e.kind = EventKind::kWriteRequest;
      e.item = Item("dst" + std::to_string(f.pair));
      e.values = {Value::Int(f.corrupt_value ? f.value + 1000000 : f.value)};
      e.rule_id = static_cast<int64_t>(f.pair);
      e.trigger_event_id = f.trigger_id;
      e.rhs_step = 0;
      rec.Record(e);
    }
  };

  int64_t gx = 0;
  while (rec.num_events() < kTargetEvents) {
    now += rng.UniformInt(1, 10);
    flush_pending(now);
    double roll = rng.UniformDouble();
    if (roll < 0.25) {
      size_t p = rng.Index(kPairs);
      int64_t v = rng.UniformInt(0, 999);
      int64_t id = notify(p, now, v);
      if (dropped_wr > 0 && rng.Bernoulli(0.0005)) {
        --dropped_wr;  // obligation never met: property 6
        continue;
      }
      PendingFire f;
      f.fire_ms = std::max(last_fire[p] + 1, now + rng.UniformInt(50, 4000));
      last_fire[p] = f.fire_ms;
      f.seq = ++seq;
      f.pair = p;
      f.value = v;
      f.trigger_id = id;
      if (corrupt_wr > 0 && rng.Bernoulli(0.0005)) {
        --corrupt_wr;
        f.corrupt_value = true;  // template mismatch: property 5
      }
      pending.push(f);
    } else if (roll < 0.27) {
      // Valid same-instant write chain.
      size_t p = rng.Index(kPairs);
      ItemId item = Item("src" + std::to_string(p));
      int64_t a = rng.UniformInt(0, 999);
      int64_t b = rng.UniformInt(0, 999);
      write_spont(item, now, Value::Int(current[p]), a);
      write_spont(item, now, Value::Int(a), b);
      current[p] = b;
    } else if (roll < 0.29 && copies_left > 0) {
      --copies_left;
      int64_t v = rng.UniformInt(0, 999);
      write_spont(Item("GX"), now, Value::Int(gx), v);
      int64_t gy_ms = now + rng.UniformInt(5, 40);
      flush_pending(gy_ms);
      write_spont(Item("GY"), gy_ms, Value::Int(gx), v);
      gx = v;
      now = gy_ms;
    } else {
      size_t p = rng.Index(kPairs);
      int64_t v = rng.UniformInt(0, 999);
      Value old_v = Value::Int(current[p]);
      if (corrupt_old > 0 && rng.Bernoulli(0.0003)) {
        --corrupt_old;
        old_v = Value::Int(7000000 + corrupt_old);  // property 2
      }
      write_spont(Item("src" + std::to_string(p)), now, std::move(old_v), v);
      current[p] = v;
    }
  }
  flush_pending(now + kRuleDeltaMs + 1);
  return rec.Finish(TimePoint::FromMillis(now + 2 * kRuleDeltaMs));
}

TEST(StreamingCheckTest, RandomizedTraceMatchesOfflineWithLiveViolations) {
  std::vector<rule::Rule> rules = GeneratorRules();
  std::vector<spec::Guarantee> guarantees = {
      // Both non-windowable (free RHS time vars): their items' segments are
      // collected and replayed at finish, still byte-identical.
      *spec::ParseGuarantee("(GY = y)@t1 => (GX = y)@t2 & t2 <= t1"),
      spec::MetricYFollowsX("GX", "GY", Duration::Millis(100)),
  };

  size_t live_before_finish = 0;
  const StreamingChecker* cp = nullptr;
  StreamingCheckOptions sopts;
  sopts.guarantee.settle_margin = Duration::Millis(kRuleDeltaMs);
  sopts.on_violation = [&live_before_finish, &cp](const ExecutionViolation&) {
    if (cp == nullptr || !cp->finished()) ++live_before_finish;
  };
  StreamingChecker streaming(rules, guarantees, sopts);
  cp = &streaming;

  TraceRecorder rec;
  rec.AttachSink(&streaming, /*drain=*/false);
  Trace t = GenerateInto(rec, 20260809);
  ASSERT_GE(t.events.size(), kTargetEvents);
  ASSERT_TRUE(streaming.finished());

  // Violations were reported live, while the trace was still streaming.
  EXPECT_GT(live_before_finish, 0u);
  EXPECT_GE(streaming.stats().live_violations, live_before_finish);

  ValidExecutionOptions vopts;
  GuaranteeCheckOptions gopts;
  gopts.settle_margin = Duration::Millis(kRuleDeltaMs);
  CheckedRun offline = OfflineCheck(t, rules, guarantees, vopts, gopts);
  CheckedRun result = StreamingResult(streaming);
  EXPECT_EQ(result.execution, offline.execution);
  EXPECT_EQ(result.guarantees, offline.guarantees);

  // The comparison is not vacuous and the streaming engine actually
  // bounded its state: the live peak stayed far below the trace size.
  EXPECT_FALSE(streaming.execution_report().valid);
  EXPECT_GE(streaming.execution_report().violations.size(), 10u);
  EXPECT_GT(streaming.stats().events_retired, 0u);
  EXPECT_LT(streaming.stats().events_live_peak, t.events.size() / 2);
}

// --- Randomized trace over a rule program using every matching feature ---

// One rule per feature the shared rules' matching handles: an LHS
// condition, a two-step RHS whose second step is conditioned on an item, a
// prohibition, a template repeating a variable, and a parameterized RR
// that the runtime may satisfy with one argument-free whole-base request.
std::vector<rule::Rule> FeatureRules() {
  const char* texts[] = {
      "N(src(k), b) & b > 100 -> 3s WR(dst(k), b)",
      "N(tw(k), b) -> 3s WR(ta(k), b), Cache(k) != b ? W(Cache(k), b)",
      "Ws(Bad, a, b) -> 1s F",
      "N(rep(k), k) -> 3s WR(echo(k), k)",
      "N(ask(k), b) -> 3s RR(book(k))",
  };
  std::vector<rule::Rule> rules;
  for (const char* text : texts) {
    auto r = rule::ParseRule(text);
    EXPECT_TRUE(r.ok()) << text;
    r->id = static_cast<int64_t>(rules.size()) + 10;
    rules.push_back(*r);
  }
  return rules;
}

// A mostly-valid trace over FeatureRules with injected violations of
// properties 2 (wrong old value), 4 (spontaneous event with a trigger),
// 5 (fire not matching its template), 6 (dropped fires, prohibited
// writes) and 7 (a fire overtaking an earlier trigger's on its channel),
// recorded through `rec`.
Trace GenerateFeatureTrace(TraceRecorder& rec, uint64_t seed,
                           size_t target_events) {
  constexpr int64_t kKeys = 12;
  auto keyed = [](const char* base, int64_t k) {
    return ItemId{base, {Value::Int(k)}};
  };
  for (int64_t k = 0; k < kKeys; ++k) {
    rec.SetInitialValue(keyed("Cache", k), Value::Int(0));
    rec.SetInitialValue(keyed("val", k), Value::Int(0));
  }
  rec.SetInitialValue(ItemId{"Bad", {}}, Value::Int(0));

  struct Fire {
    int64_t at_ms = 0;
    uint64_t seq = 0;
    Event event;
    bool conditional_cache = false;  // rule 11's guarded W(Cache(k), b)
    bool operator>(const Fire& o) const {
      return at_ms != o.at_ms ? at_ms > o.at_ms : seq > o.seq;
    }
  };
  std::priority_queue<Fire, std::vector<Fire>, std::greater<Fire>> pending;
  uint64_t seq = 0;
  std::vector<int64_t> cache(kKeys, 0), current(kKeys, 0);
  // Latest fire per channel: fires on a channel are scheduled in trigger
  // order unless a reorder is injected.
  std::map<std::string, int64_t> last_fire;
  Rng rng(seed);
  int64_t now = 0, bad = 0, last_id = -1;

  auto record = [&](Event e) {
    last_id = rec.Record(e);
    return last_id;
  };
  auto fire = [&](int64_t at, Event e, bool conditional_cache = false) {
    pending.push(Fire{at, ++seq, std::move(e), conditional_cache});
  };
  auto next_at = [&](const std::string& channel, int64_t lo, int64_t hi) {
    int64_t& last = last_fire[channel];
    last = std::max(last + 1, now + rng.UniformInt(lo, hi));
    return last;
  };
  auto generated = [](int64_t rule_id, int64_t trigger, int step,
                      const std::string& site, EventKind kind, ItemId item,
                      std::vector<Value> values) {
    Event e;
    e.site = site;
    e.kind = kind;
    e.item = std::move(item);
    e.values = std::move(values);
    e.rule_id = rule_id;
    e.trigger_event_id = trigger;
    e.rhs_step = step;
    return e;
  };
  auto flush = [&](int64_t up_to_ms) {
    while (!pending.empty() && pending.top().at_ms <= up_to_ms) {
      Fire f = pending.top();
      pending.pop();
      f.event.time = TimePoint::FromMillis(f.at_ms);
      if (f.conditional_cache) {
        // Fires only while its condition holds at the firing instant.
        int64_t k = f.event.item.args[0].AsInt();
        int64_t b = f.event.values[0].AsInt();
        if (cache[static_cast<size_t>(k)] == b) continue;
        cache[static_cast<size_t>(k)] = b;
      }
      record(f.event);
    }
  };
  auto notify = [&](const std::string& site, ItemId item, int64_t v) {
    Event e;
    e.time = TimePoint::FromMillis(now);
    e.site = site;
    e.kind = EventKind::kNotify;
    e.item = std::move(item);
    e.values = {Value::Int(v)};
    return record(e);
  };
  auto write_spont = [&](ItemId item, Value old_v, int64_t v,
                         int64_t trigger) {
    Event e;
    e.time = TimePoint::FromMillis(now);
    e.site = "A";
    e.kind = EventKind::kWriteSpont;
    e.item = std::move(item);
    e.values = {std::move(old_v), Value::Int(v)};
    e.trigger_event_id = trigger;
    record(e);
  };

  while (rec.num_events() < target_events) {
    now += rng.UniformInt(1, 10);
    flush(now);
    const int64_t k = rng.UniformInt(0, kKeys - 1);
    const int64_t v = rng.UniformInt(0, 300);
    const double roll = rng.UniformDouble();
    if (roll < 0.3) {
      // Rule 10 on channel S<k%4> -> D<k%3>, taken only when b > 100.
      const std::string from = "S" + std::to_string(k % 4);
      const std::string to = "D" + std::to_string(k % 3);
      int64_t id = notify(from, keyed("src", k), v);
      if (v <= 100 || rng.Bernoulli(0.002)) continue;  // 0.2%: dropped (6)
      int64_t& last = last_fire[from + ">" + to];
      int64_t at = std::max(last + 1, now + rng.UniformInt(50, 2500));
      if (last > now + 1 && rng.Bernoulli(0.01)) {
        at = now + 1;  // overtakes an earlier trigger's fire (7)
      } else {
        last = at;
      }
      int64_t out = rng.Bernoulli(0.002) ? v + 1000 : v;  // mismatch (5)
      fire(at, generated(10, id, 0, to, EventKind::kWriteRequest,
                         keyed("dst", k), {Value::Int(out)}));
    } else if (roll < 0.4) {
      // Rule 11: WR(ta(k), b), then the guarded W(Cache(k), b).
      int64_t id = notify("T", keyed("tw", k), v);
      int64_t at = next_at("T>U", 20, 1500);
      fire(at, generated(11, id, 0, "U", EventKind::kWriteRequest,
                         keyed("ta", k), {Value::Int(v)}));
      if (rng.Bernoulli(0.01)) continue;  // guarded step withheld (6)
      last_fire["T>U"] = at + rng.UniformInt(1, 20);
      fire(last_fire["T>U"],
           generated(11, id, 1, "U", EventKind::kWrite, keyed("Cache", k),
                     {Value::Int(v)}),
           /*conditional_cache=*/true);
    } else if (roll < 0.45) {
      // Rule 13 triggers only when the value repeats the key.
      bool repeats = rng.Bernoulli(0.5);
      int64_t id = notify("R", keyed("rep", k), repeats ? k : k + 1);
      if (!repeats) continue;
      fire(next_at("R>E", 10, 2000),
           generated(13, id, 0, "E", EventKind::kWriteRequest,
                     keyed("echo", k), {Value::Int(k)}));
    } else if (roll < 0.5) {
      // Rule 14: half the requests are whole-base (argument-free).
      int64_t id = notify("Q", keyed("ask", k), v);
      ItemId book = rng.Bernoulli(0.5) ? ItemId{"book", {}} : keyed("book", k);
      fire(next_at("Q>L", 10, 2000),
           generated(14, id, 0, "L", EventKind::kReadRequest, std::move(book),
                     {}));
    } else if (roll < 0.502) {
      write_spont(ItemId{"Bad", {}}, Value::Int(bad), v, -1);  // F (6)
      bad = v;
    } else {
      Value old_v = Value::Int(current[static_cast<size_t>(k)]);
      if (rng.Bernoulli(0.001)) old_v = Value::Int(-1);  // wrong old (2)
      int64_t trigger = rng.Bernoulli(0.001) ? last_id : -1;  // (4)
      write_spont(keyed("val", k), std::move(old_v), v, trigger);
      current[static_cast<size_t>(k)] = v;
    }
  }
  flush(std::numeric_limits<int64_t>::max());
  return rec.Finish(TimePoint::FromMillis(now + 10000));
}

// Replays a finished trace into a fresh checker, a watermark at each new
// instant (the single-threaded recorder's delivery).
std::string ReplayStreaming(const Trace& t, const std::vector<rule::Rule>& rules,
                            const ValidExecutionOptions& vopts) {
  StreamingCheckOptions sopts;
  sopts.valid = vopts;
  StreamingChecker streaming(rules, {}, sopts);
  for (const auto& [item, value] : t.initial_values) {
    streaming.OnInitialValue(item, value);
  }
  for (size_t i = 0; i < t.events.size(); ++i) {
    if (i == 0 || t.events[i - 1].time < t.events[i].time) {
      streaming.OnWatermark(t.events[i].time);
    }
    streaming.OnEvent(t.events[i]);
  }
  streaming.OnFinish(t.horizon);
  return streaming.execution_report().ToString();
}

TEST(StreamingCheckTest, RandomizedFeatureTraceMatchesOffline) {
  std::vector<rule::Rule> rules = FeatureRules();
  StreamingCheckOptions sopts;
  sopts.valid.max_violations = 100000;
  StreamingChecker streaming(rules, {}, sopts);
  TraceRecorder rec;
  rec.AttachSink(&streaming, /*drain=*/false);
  Trace t = GenerateFeatureTrace(rec, 20261018, 40000);
  ASSERT_TRUE(streaming.finished());

  const ExecutionReport offline = CheckValidExecution(t, rules, sopts.valid);
  EXPECT_EQ(streaming.execution_report().ToString(), offline.ToString());

  // Not vacuous: every injected kind of violation is in the report, and
  // the state was retired while the trace streamed.
  std::set<int> properties;
  std::set<std::string> prop6_kinds;
  for (const ExecutionViolation& v : offline.violations) {
    properties.insert(v.property);
    if (v.property == 6) prop6_kinds.insert(v.message.substr(0, 16));
  }
  for (int p : {2, 4, 5, 6, 7}) {
    EXPECT_EQ(properties.count(p), 1u) << "no property " << p << " violation";
  }
  EXPECT_EQ(properties.count(1), 0u);
  EXPECT_GE(prop6_kinds.size(), 2u);  // missed fires and prohibitions
  EXPECT_GT(offline.obligations_checked, 1000u);
  EXPECT_GT(streaming.stats().events_retired, 0u);
  EXPECT_GT(streaming.stats().pairs_retired, 0u);

  // A capped report is the same prefix through both drivers.
  ValidExecutionOptions capped;
  capped.max_violations = 7;
  EXPECT_EQ(ReplayStreaming(t, rules, capped),
            CheckValidExecution(t, rules, capped).ToString());
}

// --- Windowed guarantees: closed anchor regions evaluated mid-run ---

// AlwaysLeq/AlwaysEq classify as windowed (single kAt LHS atom, every RHS
// probe anchored at the same variable), so the streaming checker evaluates
// them in closed anchor regions while the run streams and retires the
// guarantee store behind each region — and the summed region results must
// still be byte-identical to one offline pass over the full trace,
// including the violation count, witness count, and the capped,
// anchor-ordered counterexample list.
TEST(StreamingCheckTest, WindowedGuaranteeRegionsMatchOffline) {
  std::vector<spec::Guarantee> guarantees = {
      spec::AlwaysLeq("GX", "GY"),
      spec::AlwaysEq("GX", "GY"),
  };

  size_t live_guarantee_violations = 0;
  const StreamingChecker* cp = nullptr;
  StreamingCheckOptions sopts;
  sopts.guarantee.settle_margin = Duration::Seconds(1);
  sopts.on_guarantee_violation = [&live_guarantee_violations, &cp](
                                     const std::string&,
                                     const Counterexample&) {
    if (cp == nullptr || !cp->finished()) ++live_guarantee_violations;
  };
  StreamingChecker streaming({}, guarantees, sopts);
  cp = &streaming;

  TraceRecorder rec;
  rec.AttachSink(&streaming, /*drain=*/false);
  rec.SetInitialValue(Item("GX"), Value::Int(0));
  rec.SetInitialValue(Item("GY"), Value::Int(0));
  auto write = [&rec](const char* base, int64_t ms, int64_t old_v,
                      int64_t v) {
    Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "A";
    e.kind = EventKind::kWriteSpont;
    e.item = Item(base);
    e.values = {Value::Int(old_v), Value::Int(v)};
    rec.Record(e);
  };

  // 240s ramp at 100ms cadence: GY rises first, GX follows at the same
  // instant, so GX <= GY always holds. Every 500th step GX undershoots by
  // 3 for one step: always-eq is violated in a handful of 100ms windows
  // spread across many regions, always-leq still holds.
  int64_t gx = 0, gy = 0;
  for (int64_t i = 1; i <= 2400; ++i) {
    int64_t ms = i * 100;
    write("GY", ms, gy, i);
    gy = i;
    int64_t nx = (i % 500 == 250) ? i - 3 : i;
    write("GX", ms, gx, nx);
    gx = nx;
  }
  Trace t = rec.Finish(TimePoint::FromMillis(241000));
  ASSERT_TRUE(streaming.finished());

  // The region machinery actually ran: multiple closed windows were
  // evaluated, the guarantee store was retired behind them, and the
  // mid-run violations were surfaced live.
  EXPECT_GT(streaming.stats().guarantee_windows_evaluated, 4u);
  EXPECT_GT(streaming.stats().guarantee_segments_retired, 0u);
  EXPECT_LT(streaming.stats().guarantee_segments_live_peak,
            streaming.stats().guarantee_segments_retired);
  EXPECT_GT(live_guarantee_violations, 0u);

  ValidExecutionOptions vopts;
  GuaranteeCheckOptions gopts;
  gopts.settle_margin = Duration::Seconds(1);
  CheckedRun offline = OfflineCheck(t, {}, guarantees, vopts, gopts);
  CheckedRun result = StreamingResult(streaming);
  EXPECT_EQ(result.execution, offline.execution);
  EXPECT_EQ(result.guarantees, offline.guarantees);
  EXPECT_NE(result.guarantees.find("HOLDS"), std::string::npos);
  EXPECT_NE(result.guarantees.find("VIOLATED"), std::string::npos);
}

// --- Crash/recover vs the outage-aware offline checker ---

// Also run on the parallel engine, so the crash and recovery of a shell on
// its lane overlap the driver's delivery of the previous superstep.
void RunCrashRecovery(size_t threads) {
  std::string dir = ::testing::TempDir() + "/streaming_crash_eq_" +
                    std::to_string(threads);
  std::filesystem::remove_all(dir);
  toolkit::SystemOptions opts;
  opts.num_threads = threads;
  opts.storage.dir = dir;
  opts.storage.commit_interval = Duration::Millis(10);
  opts.storage.snapshot_period = Duration::Seconds(5);
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/6, opts);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  ASSERT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  std::vector<rule::Rule> rules;
  int64_t next_id = 1;
  AppendInstalledRules(suggestions.at(0).strategy, &rules, &next_id);

  std::vector<spec::Guarantee> guarantees = {
      spec::YFollowsX("salary1(n)", "salary2(n)"),
  };
  StreamingCheckOptions sopts;
  sopts.guarantee.settle_margin = Duration::Minutes(1);
  StreamingChecker checker(rules, guarantees, sopts);
  ASSERT_EQ(system.AttachStreamingChecker(&checker), Status::OK());

  // Crash B mid-run; obligations opened just before the crash get their
  // deadlines extended across the outage window (PR 5 semantics) on both
  // the streaming and the offline side.
  ASSERT_EQ(system.ScheduleCrash("B", TimePoint::FromMillis(6000),
                                 TimePoint::FromMillis(10950)),
            Status::OK());

  Rng rng(7);
  for (int u = 0; u < 8; ++u) {
    int n = static_cast<int>(rng.UniformInt(1, 6));
    int salary = static_cast<int>(rng.UniformInt(50000, 90000));
    ASSERT_EQ(system.WorkloadWrite(ItemId{"salary1", {Value::Int(n)}},
                                   Value::Int(salary)),
              Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(50, 500)));
  }
  // Probe write 150ms before the crash: its fire is held across the
  // outage and resumed after restart.
  system.RunFor(TimePoint::FromMillis(5850) - system.executor().now());
  ASSERT_EQ(system.WorkloadWrite(ItemId{"salary1", {Value::Int(3)}},
                                 Value::Int(99000)),
            Status::OK());
  for (int u = 0; u < 12; ++u) {
    int n = static_cast<int>(rng.UniformInt(1, 6));
    int salary = static_cast<int>(rng.UniformInt(50000, 90000));
    ASSERT_EQ(system.WorkloadWrite(ItemId{"salary1", {Value::Int(n)}},
                                   Value::Int(salary)),
              Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(200, 1500)));
  }
  system.RunFor(Duration::Minutes(2));
  Trace t = system.FinishTrace();
  ASSERT_TRUE(checker.finished());

  ValidExecutionOptions vopts;
  vopts.outages = OutagesOf(system);
  ASSERT_FALSE(vopts.outages.empty());
  GuaranteeCheckOptions gopts;
  gopts.settle_margin = Duration::Minutes(1);
  CheckedRun offline = OfflineCheck(t, rules, guarantees, vopts, gopts);
  CheckedRun streaming = StreamingResult(checker);
  EXPECT_EQ(streaming.execution, offline.execution);
  EXPECT_EQ(streaming.guarantees, offline.guarantees);
  EXPECT_TRUE(checker.execution_report().valid)
      << checker.execution_report().ToString();
}

TEST(StreamingCheckTest, CrashRecoveryMatchesOutageAwareOffline) {
  RunCrashRecovery(0);
}

TEST(StreamingCheckTest, CrashRecoveryMatchesOutageAwareOfflineFourThreads) {
  RunCrashRecovery(4);
}

// The outage windows are load-bearing on the streaming side too: cut the
// run off right after the held notify's unextended deadline, mid-outage.
// The strict offline checker reports the missed obligation; the
// outage-aware offline checker skips it (extended deadline past the
// horizon) — and the streaming checker, fed the outage via ScheduleCrash,
// must agree with the latter byte-for-byte.
TEST(StreamingCheckTest, MidOutageCutoffAppliesDeadlineExtensions) {
  std::string dir = ::testing::TempDir() + "/streaming_crash_cutoff";
  std::filesystem::remove_all(dir);
  toolkit::SystemOptions opts;
  opts.storage.dir = dir;
  opts.storage.commit_interval = Duration::Millis(10);
  opts.storage.snapshot_period = Duration::Seconds(5);
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/4, opts);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  ASSERT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  std::vector<rule::Rule> rules;
  int64_t next_id = 1;
  AppendInstalledRules(suggestions.at(0).strategy, &rules, &next_id);

  StreamingChecker checker(rules, {});
  ASSERT_EQ(system.AttachStreamingChecker(&checker), Status::OK());
  ASSERT_EQ(system.ScheduleCrash("B", TimePoint::FromMillis(6000),
                                 TimePoint::FromMillis(12000)),
            Status::OK());

  // The probe's notify reaches the wire at ~6.87s (1s notify batching) and
  // is held by the down site; its 5s deadline (~11.87s) passes with no WR
  // in the trace, and the cut at 11.95s lands before the restart.
  system.RunFor(Duration::Millis(5850));
  ASSERT_EQ(system.WorkloadWrite(ItemId{"salary1", {Value::Int(1)}},
                                 Value::Int(70000)),
            Status::OK());
  system.RunFor(TimePoint::FromMillis(11950) - system.executor().now());
  auto outages = OutagesOf(system);
  ASSERT_EQ(outages.size(), 1u);
  Trace t = system.FinishTrace();
  ASSERT_TRUE(checker.finished());

  ExecutionReport strict = CheckValidExecution(t, rules, {});
  EXPECT_FALSE(strict.valid)
      << "expected a property-6 violation without outage windows";
  ValidExecutionOptions vopts;
  vopts.outages = outages;
  ExecutionReport aware = CheckValidExecution(t, rules, vopts);
  EXPECT_TRUE(aware.valid) << aware.ToString();
  EXPECT_EQ(checker.execution_report().ToString(), aware.ToString());
}

}  // namespace
}  // namespace hcm::trace
