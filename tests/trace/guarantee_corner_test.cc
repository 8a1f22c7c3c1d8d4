// Corner cases of the guarantee language and checker: interval edge
// semantics, absolute time expressions, negated existence, truncation,
// and counterexample capping.

#include <gtest/gtest.h>

#include "src/trace/guarantee_checker.h"

namespace hcm::trace {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;

const ItemId kX{"X", {}};
const ItemId kY{"Y", {}};

Event Write(int64_t ms, const ItemId& item, int64_t v) {
  Event e;
  e.time = TimePoint::FromMillis(ms);
  e.site = "S";
  e.kind = EventKind::kWrite;
  e.item = item;
  e.values = {Value::Int(v)};
  e.rule_id = 0;
  e.trigger_event_id = 0;
  e.rhs_step = 0;
  return e;
}

Trace SimpleTrace() {
  TraceRecorder rec;
  rec.SetInitialValue(kX, Value::Int(1));
  rec.Record(Write(10000, kX, 2));
  rec.Record(Write(20000, kX, 3));
  return rec.Finish(TimePoint::FromMillis(60000));
}

GuaranteeCheckResult Check(const Trace& t, const std::string& text,
                           GuaranteeCheckOptions opts = {}) {
  auto g = spec::ParseGuarantee(text);
  EXPECT_TRUE(g.ok()) << text << ": " << g.status().ToString();
  auto r = CheckGuarantee(t, *g, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

TEST(GuaranteeCornerTest, EmptyThroughoutIntervalIsVacuous) {
  Trace t = SimpleTrace();
  // [30s, 20s] is empty: @@ is vacuously true even for a false predicate.
  EXPECT_TRUE(Check(t, "(true)@0s => (X = 999)@@[30s, 20s]").holds);
  // ...but @in over an empty interval is false.
  EXPECT_FALSE(Check(t, "(true)@0s => (X = 2)@in[30s, 20s]").holds);
}

TEST(GuaranteeCornerTest, AbsoluteTimeExpressions) {
  Trace t = SimpleTrace();
  // X = 2 exactly during [10s, 20s).
  EXPECT_TRUE(Check(t, "(true)@0s => (X = 2)@@[10s, 19s]").holds);
  EXPECT_FALSE(Check(t, "(true)@0s => (X = 2)@@[10s, 21s]").holds);
  EXPECT_TRUE(Check(t, "(true)@0s => (X = 3)@in[0s, 30s]").holds);
  EXPECT_FALSE(Check(t, "(true)@0s => (X = 999)@in[0s, 30s]").holds);
}

TEST(GuaranteeCornerTest, PointIntervalChecksSingleInstant) {
  Trace t = SimpleTrace();
  EXPECT_TRUE(Check(t, "(true)@0s => (X = 2)@@[15s, 15s]").holds);
  EXPECT_TRUE(Check(t, "(true)@0s => (X = 2)@in[15s, 15s]").holds);
  EXPECT_FALSE(Check(t, "(true)@0s => (X = 1)@@[15s, 15s]").holds);
}

TEST(GuaranteeCornerTest, NegatedExistence) {
  TraceRecorder rec;
  Event ins;
  ins.time = TimePoint::FromMillis(10000);
  ins.site = "S";
  ins.kind = EventKind::kInsert;
  ins.item = ItemId{"rec", {Value::Int(1)}};
  rec.Record(ins);
  Event del = ins;
  del.time = TimePoint::FromMillis(30000);
  del.kind = EventKind::kDelete;
  rec.Record(del);
  Trace t = rec.Finish(TimePoint::FromMillis(60000));
  EXPECT_TRUE(Check(t, "(true)@0s => not E(rec(1))@5s").holds);
  EXPECT_FALSE(Check(t, "(true)@0s => not E(rec(1))@15s").holds);
  EXPECT_TRUE(Check(t, "(true)@0s => not E(rec(1))@45s").holds);
  // Never-seen items do not exist.
  EXPECT_TRUE(Check(t, "(true)@0s => not E(ghost)@15s").holds);
}

TEST(GuaranteeCornerTest, CounterexampleCapRespected) {
  // Y holds dozens of values X never had.
  TraceRecorder rec;
  rec.SetInitialValue(kX, Value::Int(0));
  rec.SetInitialValue(kY, Value::Int(0));
  for (int i = 1; i <= 20; ++i) {
    rec.Record(Write(i * 1000, kY, 1000 + i));
  }
  Trace t = rec.Finish(TimePoint::FromMillis(60000));
  GuaranteeCheckOptions opts;
  opts.max_counterexamples = 3;
  auto r = CheckGuarantee(t, spec::YFollowsX("X", "Y"), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->holds);
  EXPECT_GE(r->violations, 20u);
  EXPECT_EQ(r->counterexamples.size(), 3u);
}

TEST(GuaranteeCornerTest, WitnessTruncationFlagged) {
  TraceRecorder rec;
  rec.SetInitialValue(kX, Value::Int(0));
  for (int i = 1; i <= 30; ++i) {
    rec.Record(Write(i * 1000, kX, i));
  }
  Trace t = rec.Finish(TimePoint::FromMillis(60000));
  GuaranteeCheckOptions opts;
  opts.max_lhs_witnesses = 10;
  auto r = CheckGuarantee(t, spec::ParseGuarantee(
                                 "(X = v)@t1 => (X = v)@t1")
                                 .value(),
                          opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  EXPECT_LE(r->lhs_witnesses, 10u);
  EXPECT_TRUE(r->holds);  // the surviving witnesses are all satisfied
}

// Two LHS atoms: the cap keeps every first-level witness but cuts the
// second level partway through its list. The kept witnesses are the first
// `max_lhs_witnesses` second-level extensions in enumeration order (X's
// instants outer, Y's inner), before the LHS time constraint filters them;
// the exact counts and counterexamples pin that order.
TEST(GuaranteeCornerTest, TruncationCutsSecondLevelInOrder) {
  TraceRecorder rec;
  rec.SetInitialValue(kX, Value::Int(1));
  rec.SetInitialValue(kY, Value::Int(1));
  rec.Record(Write(10000, kX, 2));
  rec.Record(Write(15000, kY, 2));
  rec.Record(Write(20000, kX, 3));
  Trace t = rec.Finish(TimePoint::FromMillis(30000));
  const std::string text =
      "(X = a)@t1 & (Y = b)@t2 & t1 < t2 => (Y = a)@t3 & t3 <= t2";

  GuaranteeCheckOptions full;
  full.max_counterexamples = 4;
  GuaranteeCheckResult whole = Check(t, text, full);
  EXPECT_EQ(whole.ToString(),
            "VIOLATED (108 witnesses, 5 violations)\n"
            "  counterexample: t1=t=10.000s, t2=t=10.001s, a=2, b=1\n"
            "  counterexample: t1=t=10.000s, t2=t=14.999s, a=2, b=1\n"
            "  counterexample: t1=t=20.000s, t2=t=20.001s, a=3, b=2\n"
            "  counterexample: t1=t=20.000s, t2=t=25.000s, a=3, b=2");

  GuaranteeCheckOptions opts = full;
  opts.max_lhs_witnesses = 180;
  GuaranteeCheckResult r = Check(t, text, opts);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.lhs_witnesses, 101u);
  EXPECT_EQ(r.ToString(),
            "VIOLATED (101 witnesses, 3 violations, truncated)\n"
            "  counterexample: t1=t=10.000s, t2=t=10.001s, a=2, b=1\n"
            "  counterexample: t1=t=10.000s, t2=t=14.999s, a=2, b=1\n"
            "  counterexample: t1=t=20.000s, t2=t=20.001s, a=3, b=2");
}

// A propagation trace over src(n) -> dst(n), n in {0, 1}: dst(0) takes a
// foreign value at 3.2s, and src(1)'s write at 4s is never copied.
Trace PropagationTrace() {
  const ItemId src0{"src", {Value::Int(0)}};
  const ItemId src1{"src", {Value::Int(1)}};
  const ItemId dst0{"dst", {Value::Int(0)}};
  const ItemId dst1{"dst", {Value::Int(1)}};
  TraceRecorder rec;
  for (const ItemId& item : {src0, src1, dst0, dst1}) {
    rec.SetInitialValue(item, Value::Int(0));
  }
  rec.Record(Write(1000, src0, 1));
  rec.Record(Write(1400, dst0, 1));
  rec.Record(Write(2000, src1, 2));
  rec.Record(Write(2500, dst1, 2));
  rec.Record(Write(3000, src0, 3));
  rec.Record(Write(3200, dst0, 7));
  rec.Record(Write(4000, src1, 1));
  rec.Record(Write(5000, src0, 2));
  rec.Record(Write(5300, dst0, 2));
  return rec.Finish(TimePoint::FromMillis(9000));
}

// The reports below are pinned from the checker as it stood before
// compiled evaluation, for shapes the equivalence suites cannot pin (they
// compare indexed and reference mode, which share the compiled core).
// Each is also checked in reference mode.
void ExpectReport(const Trace& t, const std::string& text,
                  GuaranteeCheckOptions opts, const std::string& expected) {
  opts.use_reference_impl = false;
  EXPECT_EQ(Check(t, text, opts).ToString(), expected) << text;
  opts.use_reference_impl = true;
  EXPECT_EQ(Check(t, text, opts).ToString(), expected)
      << text << " (reference)";
}

// The second LHS atom brings in a parameter (m) the first does not bind.
TEST(GuaranteeCornerTest, PinnedReportParameterInSecondAtom) {
  ExpectReport(PropagationTrace(),
               "(src(n) = a)@t1 & (dst(m) = a)@t2 & t1 < t2 => "
               "(src(m) = a)@t3 & t1 <= t3 & t3 <= t2",
               {},
               "VIOLATED (588 witnesses, 26 violations)\n"
               "  counterexample: t1=t=5.000s, t2=t=5.001s, a=2, m=1, n=0\n"
               "  counterexample: t1=t=5.000s, t2=t=5.299s, a=2, m=1, n=0\n"
               "  counterexample: t1=t=5.000s, t2=t=5.300s, a=2, m=1, n=0\n"
               "  counterexample: t1=t=5.000s, t2=t=5.301s, a=2, m=1, n=0\n"
               "  counterexample: t1=t=5.000s, t2=t=6.833s, a=2, m=1, n=0");
}

// The RHS reads no LHS time variable: witnesses that agree on (n, v) share
// one representative.
TEST(GuaranteeCornerTest, PinnedReportDeduplicatedRepresentatives) {
  ExpectReport(PropagationTrace(), "(src(n) = v)@t1 => (dst(n) = v)@in[0s, 5s]",
               {},
               "VIOLATED (83 witnesses, 3 violations)\n"
               "  counterexample: t1=t=3.000s, n=0, v=3\n"
               "  counterexample: t1=t=5.000s, n=0, v=2\n"
               "  counterexample: t1=t=4.000s, n=1, v=1");
}

// Every LHS time variable is keyed: each witness is its own representative.
TEST(GuaranteeCornerTest, PinnedReportDistinctRepresentatives) {
  GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Millis(1500);
  const Trace t = PropagationTrace();
  ExpectReport(t, "(dst(n) = yv)@t1 => (src(n) = yv)@t2 & t2 < t1", opts,
               "VIOLATED (65 witnesses, 11 violations)\n"
               "  counterexample: t1=t=3.200s, n=0, yv=7\n"
               "  counterexample: t1=t=3.201s, n=0, yv=7\n"
               "  counterexample: t1=t=3.900s, n=0, yv=7\n"
               "  counterexample: t1=t=3.999s, n=0, yv=7\n"
               "  counterexample: t1=t=4.000s, n=0, yv=7");
  ExpectReport(t, "(src(n) = xv)@t1 => (dst(n) = xv)@t2 & t1 < t2", opts,
               "VIOLATED (66 witnesses, 21 violations)\n"
               "  counterexample: t1=t=3.000s, n=0, xv=3\n"
               "  counterexample: t1=t=3.001s, n=0, xv=3\n"
               "  counterexample: t1=t=3.199s, n=0, xv=3\n"
               "  counterexample: t1=t=3.200s, n=0, xv=3\n"
               "  counterexample: t1=t=3.201s, n=0, xv=3");
}

// Windowed runs partition the witnesses by anchor; violations carry their
// parameter binding and anchor.
TEST(GuaranteeCornerTest, PinnedReportWindowedRuns) {
  const Trace t = PropagationTrace();
  const StateTimeline timeline = StateTimeline::Build(t);
  auto g = spec::ParseGuarantee(
      "(src(n) = xv)@t1 => (dst(n) = xv)@t2 & t1 < t2");
  ASSERT_TRUE(g.ok());
  GuaranteeWindow w;
  w.anchor_var = "t1";
  w.param_vars = {"n"};
  std::string report;
  for (int k = 0; k < 2; ++k) {
    w.has_lo = k > 0;
    w.has_hi = k == 0;
    w.lo = w.hi = TimePoint::FromMillis(3000);
    std::vector<WindowedViolation> violated;
    auto r = CheckGuaranteeOverTimeline(timeline, t.horizon, *g, {}, &w,
                                        &violated);
    ASSERT_TRUE(r.ok());
    report += r->ToString() + "\n";
    for (const WindowedViolation& v : violated) {
      report += "  ";
      for (const auto& [name, value] : v.param_binding) {
        report += name + "=" + value.ToString() + " ";
      }
      report += "@" + v.anchor.ToString() + "\n";
    }
  }
  EXPECT_EQ(report,
            "HOLDS (32 witnesses, 0 violations)\n"
            "VIOLATED (37 witnesses, 23 violations)\n"
            "  counterexample: t1=t=3.000s, n=0, xv=3\n"
            "  counterexample: t1=t=3.001s, n=0, xv=3\n"
            "  counterexample: t1=t=3.199s, n=0, xv=3\n"
            "  counterexample: t1=t=3.200s, n=0, xv=3\n"
            "  counterexample: t1=t=3.201s, n=0, xv=3\n"
            "  n=0 @t=3.000s\n"
            "  n=0 @t=3.001s\n"
            "  n=0 @t=3.199s\n"
            "  n=0 @t=3.200s\n"
            "  n=0 @t=3.201s\n"
            "  n=0 @t=3.666s\n"
            "  n=0 @t=3.999s\n"
            "  n=0 @t=4.000s\n"
            "  n=0 @t=4.001s\n"
            "  n=0 @t=4.333s\n"
            "  n=0 @t=4.999s\n"
            "  n=0 @t=9.000s\n"
            "  n=1 @t=4.000s\n"
            "  n=1 @t=4.001s\n"
            "  n=1 @t=4.999s\n"
            "  n=1 @t=5.000s\n"
            "  n=1 @t=5.001s\n"
            "  n=1 @t=5.299s\n"
            "  n=1 @t=5.300s\n"
            "  n=1 @t=5.301s\n"
            "  n=1 @t=5.666s\n"
            "  n=1 @t=7.333s\n"
            "  n=1 @t=9.000s\n");
}

TEST(GuaranteeCornerTest, RepeatedTimeVariableIsConsistent) {
  Trace t = SimpleTrace();
  // t1 appears in two RHS atoms: both must hold at the same instant.
  EXPECT_TRUE(
      Check(t, "(X = 2)@t1 => (X = 2)@t1 & (X != 3)@t1").holds);
  EXPECT_FALSE(
      Check(t, "(X = 2)@t1 => (X = 2)@t1 & (X = 3)@t1").holds);
}

TEST(GuaranteeCornerTest, ValueVariableSharedAcrossSides) {
  TraceRecorder rec;
  rec.SetInitialValue(kX, Value::Int(5));
  rec.SetInitialValue(kY, Value::Int(5));
  rec.Record(Write(10000, kX, 7));
  rec.Record(Write(10500, kY, 7));
  Trace t = rec.Finish(TimePoint::FromMillis(30000));
  // v is bound on the left and constrains the right.
  EXPECT_TRUE(
      Check(t, "(X = v)@t1 => (Y = v)@in[0s, 30s]").holds);
  EXPECT_FALSE(
      Check(t, "(X = v)@t1 => (Y = v + 1)@in[0s, 30s]").holds);
}

TEST(GuaranteeCornerTest, ToStringOfResultsMentionCounterexamples) {
  TraceRecorder rec;
  rec.SetInitialValue(kX, Value::Int(0));
  rec.SetInitialValue(kY, Value::Int(1));
  Trace t = rec.Finish(TimePoint::FromMillis(10000));
  auto r = CheckGuarantee(t, spec::AlwaysEq("X", "Y"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->holds);
  std::string s = r->ToString();
  EXPECT_NE(s.find("VIOLATED"), std::string::npos);
  EXPECT_NE(s.find("counterexample"), std::string::npos);
}

}  // namespace
}  // namespace hcm::trace
