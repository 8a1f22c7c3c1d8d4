#include "src/trace/valid_execution.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/rule/parser.h"
#include "src/trace/streaming_checker.h"

namespace hcm::trace {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;

// Both checkers decide each property through the same shared rules, so
// comparing them with each other no longer tests a rule. Instead every case
// below runs through both drivers — CheckValidExecution, and a
// StreamingChecker fed the same trace with a watermark at each new instant
// — and asserts its expected verdict and messages on each report.
std::vector<std::pair<std::string, ExecutionReport>> CheckBoth(
    const Trace& t, const std::vector<rule::Rule>& rules,
    const ValidExecutionOptions& opts = {}) {
  StreamingCheckOptions stream_opts;
  stream_opts.valid = opts;
  StreamingChecker streaming(rules, {}, stream_opts);
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
  return {{"offline", CheckValidExecution(t, rules, opts)},
          {"streaming", streaming.execution_report()}};
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// Fixture around the propagation rule N(X, b) -> 5s WR(Y, b).
class ValidExecutionTest : public ::testing::Test {
 protected:
  ValidExecutionTest() {
    auto r = rule::ParseRule("N(X, b) -> 5s WR(Y, b)");
    EXPECT_TRUE(r.ok());
    rule_ = *r;
    rule_.id = 1;
  }

  Event Notify(int64_t ms, int64_t v) {
    Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "A";
    e.kind = EventKind::kNotify;
    e.item = ItemId{"X", {}};
    e.values = {Value::Int(v)};
    return e;
  }

  Event WriteRequest(int64_t ms, int64_t v, int64_t trigger_id) {
    Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "B";
    e.kind = EventKind::kWriteRequest;
    e.item = ItemId{"Y", {}};
    e.values = {Value::Int(v)};
    e.rule_id = 1;
    e.trigger_event_id = trigger_id;
    e.rhs_step = 0;
    return e;
  }

  rule::Rule rule_;
  TraceRecorder rec_;
};

TEST_F(ValidExecutionTest, CleanRunIsValid) {
  int64_t n1 = rec_.Record(Notify(100, 7));
  rec_.Record(WriteRequest(1100, 7, n1));
  int64_t n2 = rec_.Record(Notify(2000, 9));
  rec_.Record(WriteRequest(3000, 9, n2));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {rule_})) {
    SCOPED_TRACE(driver);
    EXPECT_TRUE(report.valid) << report.ToString();
    EXPECT_EQ(report.obligations_checked, 2u);
  }
}

TEST_F(ValidExecutionTest, Property1OutOfOrderEvents) {
  // Bypass the recorder's natural ordering by building events directly.
  rec_.Record(Notify(2000, 1));
  rec_.Record(Notify(100, 2));  // goes back in time
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
    EXPECT_EQ(report.violations[0].property, 1);
    EXPECT_EQ(report.violations[0].message, "events out of time order");
    EXPECT_EQ(report.violations[0].event_ids, (std::vector<int64_t>{0, 1}));
  }
}

TEST_F(ValidExecutionTest, Property2InconsistentOldValue) {
  Event w;
  w.time = TimePoint::FromMillis(100);
  w.site = "A";
  w.kind = EventKind::kWriteSpont;
  w.item = ItemId{"X", {}};
  w.values = {Value::Int(5), Value::Int(6)};  // claims old was 5
  rec_.Record(w);
  // Next spontaneous write claims old was 99, but the state says 6.
  Event w2 = w;
  w2.time = TimePoint::FromMillis(200);
  w2.values = {Value::Int(99), Value::Int(7)};
  rec_.Record(w2);
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid) << report.ToString();
    // The first write claims an old value for an item with no prior state.
    ASSERT_EQ(report.violations.size(), 2u) << report.ToString();
    EXPECT_EQ(report.violations[0].property, 2);
    EXPECT_EQ(report.violations[0].message,
              "Ws old value 5 != prior state null");
    EXPECT_EQ(report.violations[1].property, 2);
    EXPECT_EQ(report.violations[1].message, "Ws old value 99 != prior state 6");
  }
}

TEST_F(ValidExecutionTest, Property4SpontaneousWithTrigger) {
  Event n = Notify(100, 1);
  n.trigger_event_id = 55;  // spontaneous events must not carry triggers
  rec_.Record(n);
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_EQ(report.violations[0].property, 4);
    EXPECT_EQ(report.violations[0].message,
              "spontaneous event carries a trigger reference");
  }
}

TEST_F(ValidExecutionTest, Property5UnknownRule) {
  int64_t n1 = rec_.Record(Notify(100, 7));
  Event g = WriteRequest(1000, 7, n1);
  g.rule_id = 42;  // no such rule
  rec_.Record(g);
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    bool found5 = false;
    for (const auto& v : report.violations) {
      if (v.property == 5) {
        found5 = true;
        EXPECT_EQ(v.message, "generated event names unknown rule 42");
      }
    }
    EXPECT_TRUE(found5) << report.ToString();
  }
}

TEST_F(ValidExecutionTest, Property5ValueMismatch) {
  int64_t n1 = rec_.Record(Notify(100, 7));
  rec_.Record(WriteRequest(1000, 999, n1));  // forwarded the wrong value
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    bool found5 = false;
    for (const auto& v : report.violations) {
      if (v.property == 5) {
        found5 = true;
        EXPECT_EQ(v.message, "generated event does not match its RHS template");
      }
    }
    EXPECT_TRUE(found5) << report.ToString();
  }
}

TEST_F(ValidExecutionTest, Property5DeadlineMiss) {
  int64_t n1 = rec_.Record(Notify(100, 7));
  rec_.Record(WriteRequest(100 + 5001, 7, n1));  // 1ms past the 5s delta
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_EQ(report.violations[0].property, 5);
    EXPECT_EQ(report.violations[0].message,
              "event outside rule window (delta 5s)");
    // A fire past its deadline is outside the streaming equivalence
    // envelope (streaming_checker.h): the streaming driver resolves the
    // obligation before the fire arrives, so it also reports property 6.
  }
}

TEST_F(ValidExecutionTest, Property6MissedObligation) {
  rec_.Record(Notify(100, 7));  // never acted upon
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_EQ(report.violations[0].property, 6);
    EXPECT_TRUE(StartsWith(report.violations[0].message,
                           "unconditional RHS step 0 of rule "))
        << report.violations[0].message;
  }
}

TEST_F(ValidExecutionTest, Property6ObligationNotYetDueIsSkipped) {
  rec_.Record(Notify(100, 7));
  // Horizon before the 5s deadline: the run simply ended first.
  Trace t = rec_.Finish(TimePoint::FromMillis(2000));
  for (const auto& [driver, report] : CheckBoth(t, {rule_})) {
    SCOPED_TRACE(driver);
    EXPECT_TRUE(report.valid) << report.ToString();
  }
  // With the option disabled, it is a violation.
  ValidExecutionOptions opts;
  opts.skip_obligations_past_horizon = false;
  for (const auto& [driver, strict] : CheckBoth(t, {rule_}, opts)) {
    SCOPED_TRACE(driver);
    EXPECT_FALSE(strict.valid);
  }
}

TEST_F(ValidExecutionTest, Property6ProhibitionViolated) {
  auto forbid = rule::ParseRule("Ws(X, b) -> 0s F");
  ASSERT_TRUE(forbid.ok());
  forbid->id = 2;
  Event w;
  w.time = TimePoint::FromMillis(100);
  w.site = "A";
  w.kind = EventKind::kWriteSpont;
  w.item = ItemId{"X", {}};
  w.values = {Value::Null(), Value::Int(1)};
  rec_.Record(w);
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {*forbid})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_EQ(report.violations[0].property, 6);
    EXPECT_EQ(report.violations[0].message,
              "event matches a prohibition rule (RHS is F): " +
                  forbid->ToString());
  }
}

TEST_F(ValidExecutionTest, Property6ConditionalStepMaySkip) {
  // Rule with a guarded step: only forward when CachedX differs.
  auto r = rule::ParseRule("N(X, b) -> 5s CachedX != b ? WR(Y, b)");
  ASSERT_TRUE(r.ok());
  r->id = 3;
  // CachedX = 7 throughout (initial value), notification carries 7:
  // the condition is false, so not firing is legitimate.
  rec_.SetInitialValue(ItemId{"CachedX", {}}, Value::Int(7));
  rec_.Record(Notify(100, 7));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {*r})) {
    SCOPED_TRACE(driver);
    EXPECT_TRUE(report.valid) << report.ToString();
  }
  // A notification with a different value must fire. Finish moved the
  // trace out of rec_, so rebuild the scenario on a fresh recorder.
  TraceRecorder rec2;
  rec2.SetInitialValue(ItemId{"CachedX", {}}, Value::Int(7));
  rec2.Record(Notify(10000, 8));
  Trace t2 = rec2.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report2] : CheckBoth(t2, {*r})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report2.valid);
    ASSERT_EQ(report2.violations.size(), 1u) << report2.ToString();
    EXPECT_EQ(report2.violations[0].message,
              "RHS step 0 of rule '" + r->ToString() +
                  "' did not fire although its condition held throughout "
                  "the window");
  }
}

TEST_F(ValidExecutionTest, Property7OutOfOrderProcessing) {
  int64_t n1 = rec_.Record(Notify(100, 1));
  int64_t n2 = rec_.Record(Notify(200, 2));
  // Second notification processed before the first: FIFO violation.
  rec_.Record(WriteRequest(1000, 2, n2));
  rec_.Record(WriteRequest(2000, 1, n1));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    bool found7 = false;
    for (const auto& v : report.violations) {
      if (v.property == 7) {
        found7 = true;
        EXPECT_EQ(v.message, "out-of-order processing on channel A -> B");
      }
    }
    EXPECT_TRUE(found7) << report.ToString();
  }
}

// Property-7 violations are reported channel-major in (trigger site, event
// site) name order, whatever order the channels first saw traffic in. Four
// channels, each with one reordered pair, arrive as C->D, A->E, B->A, A->B;
// both drivers must report A->B, A->E, B->A, C->D, and a cap keeps that
// order's prefix.
TEST_F(ValidExecutionTest, Property7ReportsChannelsInSiteNameOrder) {
  const std::vector<std::pair<std::string, std::string>> arrival = {
      {"C", "D"}, {"A", "E"}, {"B", "A"}, {"A", "B"}};
  std::vector<std::vector<int64_t>> pair_ids;  // per channel, arrival order
  int64_t base = 0;
  for (const auto& [from, to] : arrival) {
    Event n1 = Notify(base + 100, 1);
    n1.site = from;
    Event n2 = Notify(base + 200, 2);
    n2.site = from;
    int64_t id1 = rec_.Record(n1);
    int64_t id2 = rec_.Record(n2);
    // The second notification is processed first: out of order.
    Event w2 = WriteRequest(base + 1000, 2, id2);
    w2.site = to;
    Event w1 = WriteRequest(base + 2000, 1, id1);
    w1.site = to;
    int64_t wid2 = rec_.Record(w2);
    int64_t wid1 = rec_.Record(w1);
    pair_ids.push_back({wid1, wid2});
    base += 10000;
  }
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  // Channel indexes into `arrival`, in site-name order.
  const std::vector<size_t> name_order = {3, 1, 2, 0};
  auto expect_prefix = [&](const ExecutionReport& report, size_t n) {
    ASSERT_EQ(report.violations.size(), n) << report.ToString();
    for (size_t i = 0; i < n; ++i) {
      const auto& [from, to] = arrival[name_order[i]];
      const ExecutionViolation& v = report.violations[i];
      EXPECT_EQ(v.property, 7);
      EXPECT_EQ(v.message,
                "out-of-order processing on channel " + from + " -> " + to);
      EXPECT_EQ(v.event_ids, pair_ids[name_order[i]]);
    }
  };
  for (const auto& [driver, report] : CheckBoth(t, {rule_})) {
    SCOPED_TRACE(driver);
    EXPECT_FALSE(report.valid);
    expect_prefix(report, arrival.size());
  }
  ValidExecutionOptions capped;
  capped.max_violations = 2;
  for (const auto& [driver, report] : CheckBoth(t, {rule_}, capped)) {
    SCOPED_TRACE(driver);
    EXPECT_FALSE(report.valid);
    expect_prefix(report, 2);
  }
}

TEST_F(ValidExecutionTest, ReportToStringMentionsProperties) {
  rec_.Record(Notify(100, 7));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {rule_})) {
    SCOPED_TRACE(driver);
    std::string s = report.ToString();
    EXPECT_NE(s.find("INVALID"), std::string::npos);
    EXPECT_NE(s.find("property 6"), std::string::npos);
  }
}

TEST_F(ValidExecutionTest, ViolationCapRespected) {
  ValidExecutionOptions opts;
  opts.max_violations = 2;
  for (int i = 0; i < 10; ++i) {
    rec_.Record(Notify(100 + i, 7));  // ten missed obligations
  }
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {rule_}, opts)) {
    SCOPED_TRACE(driver);
    EXPECT_FALSE(report.valid);
    EXPECT_EQ(report.violations.size(), 2u);
  }
}

// Violations on one trigger event share its ordinal, so only their
// per-event emission sequence orders them: one notify triggers two rules
// and neither fires. Both reports list the two in rule order, and a cap of
// one keeps the first rule's.
TEST_F(ValidExecutionTest, Property6TiesKeepRuleOrderUnderCap) {
  auto second = rule::ParseRule("N(X, b) -> 5s WR(Z, b)");
  ASSERT_TRUE(second.ok());
  second->id = 2;
  std::vector<rule::Rule> rules = {rule_, *second};
  rec_.Record(Notify(100, 7));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, rules)) {
    SCOPED_TRACE(driver);
    ASSERT_EQ(report.violations.size(), 2u) << report.ToString();
    EXPECT_NE(report.violations[0].message.find("WR(Y"), std::string::npos)
        << report.ToString();
    EXPECT_NE(report.violations[1].message.find("WR(Z"), std::string::npos)
        << report.ToString();
  }
  ValidExecutionOptions capped;
  capped.max_violations = 1;
  for (const auto& [driver, report] : CheckBoth(t, rules, capped)) {
    SCOPED_TRACE(driver);
    EXPECT_FALSE(report.valid);
    ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
    EXPECT_NE(report.violations[0].message.find("WR(Y"), std::string::npos)
        << report.ToString();
  }
}

TEST_F(ValidExecutionTest, Property5RhsConditionFalseBeforeEvent) {
  // The step forwards only when the cache differs, but it fired although
  // CachedX already held the notified value.
  auto r = rule::ParseRule("N(X, b) -> 5s CachedX != b ? WR(Y, b)");
  ASSERT_TRUE(r.ok());
  r->id = 1;
  rec_.SetInitialValue(ItemId{"CachedX", {}}, Value::Int(7));
  int64_t n1 = rec_.Record(Notify(100, 7));
  rec_.Record(WriteRequest(1100, 7, n1));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {*r})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
    EXPECT_EQ(report.violations[0].property, 5);
    EXPECT_EQ(report.violations[0].message,
              "rule RHS condition not satisfied before the event");
    EXPECT_EQ(report.violations[0].event_ids, (std::vector<int64_t>{1}));
  }
  // The condition is read on the old interpretation: a step whose own
  // write makes it false is valid.
  auto own = rule::ParseRule("N(X, b) -> 5s Y != b ? W(Y, b)");
  ASSERT_TRUE(own.ok());
  own->id = 1;
  TraceRecorder rec2;
  rec2.SetInitialValue(ItemId{"Y", {}}, Value::Int(0));
  int64_t n2 = rec2.Record(Notify(100, 7));
  Event w = WriteRequest(1100, 7, n2);
  w.kind = EventKind::kWrite;
  rec2.Record(w);
  Trace t2 = rec2.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t2, {*own})) {
    SCOPED_TRACE(driver);
    EXPECT_TRUE(report.valid) << report.ToString();
  }
}

TEST_F(ValidExecutionTest, Property6StepsFiredOutOfSequence) {
  // Step 1 lands before step 0, both within the window.
  auto r = rule::ParseRule("N(X, b) -> 5s WR(Y, b), WR(Z, b)");
  ASSERT_TRUE(r.ok());
  r->id = 1;
  int64_t n1 = rec_.Record(Notify(100, 7));
  Event step1 = WriteRequest(1500, 7, n1);
  step1.item = ItemId{"Z", {}};
  step1.rhs_step = 1;
  int64_t s1 = rec_.Record(step1);
  rec_.Record(WriteRequest(2000, 7, n1));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : CheckBoth(t, {*r})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
    EXPECT_EQ(report.violations[0].property, 6);
    EXPECT_EQ(report.violations[0].message, "RHS steps fired out of sequence");
    EXPECT_EQ(report.violations[0].event_ids,
              (std::vector<int64_t>{n1, s1}));
  }
}

TEST_F(ValidExecutionTest, Property6OutageExtendsDeadline) {
  // The guarded step never fires. Its condition holds until CachedX takes
  // the notified value at 8s, after the plain 5s window but inside the
  // window an outage of the trigger's site grants (restart 6s + 5s).
  auto r = rule::ParseRule("N(X, b) -> 5s CachedX != b ? WR(Y, b)");
  ASSERT_TRUE(r.ok());
  r->id = 1;
  rec_.SetInitialValue(ItemId{"CachedX", {}}, Value::Int(0));
  rec_.Record(Notify(100, 7));
  Event cache;
  cache.time = TimePoint::FromMillis(8000);
  cache.site = "A";
  cache.kind = EventKind::kWriteSpont;
  cache.item = ItemId{"CachedX", {}};
  cache.values = {Value::Int(0), Value::Int(7)};
  rec_.Record(cache);
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  ValidExecutionOptions with_outage;
  with_outage.outages.push_back(SiteOutage{
      "A", TimePoint::FromMillis(1000), TimePoint::FromMillis(6000)});
  for (const auto& [driver, report] : CheckBoth(t, {*r}, with_outage)) {
    SCOPED_TRACE(driver);
    EXPECT_TRUE(report.valid) << report.ToString();
    EXPECT_EQ(report.obligations_checked, 1u);
  }
  for (const auto& [driver, report] : CheckBoth(t, {*r})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    ASSERT_EQ(report.violations.size(), 1u) << report.ToString();
    EXPECT_EQ(report.violations[0].property, 6);
    EXPECT_EQ(report.violations[0].message,
              "RHS step 0 of rule '" + r->ToString() +
                  "' did not fire although its condition held throughout "
                  "the window");
  }
}

}  // namespace
}  // namespace hcm::trace
