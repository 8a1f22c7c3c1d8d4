// The guarantee checker's existential (RHS) search binds each unbound time
// variable only to the sample instants the RHS time constraints leave open,
// and — when nothing past the atom reads the variable — probes one instant
// per state interval of the atom's items. Reference mode still visits every
// sample instant, so it is the oracle here: over randomized propagation
// traces (clean and corrupted) and guarantees covering every constraint
// shape the bounds handle, the indexed report must be byte-identical.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/spec/guarantee.h"
#include "src/trace/guarantee_checker.h"

namespace hcm::trace {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;

constexpr int kIds = 3;

Event Make(int64_t ms, EventKind kind, ItemId item, std::vector<Value> values) {
  Event e;
  e.time = TimePoint::FromMillis(ms);
  e.site = "A";
  e.kind = kind;
  e.item = std::move(item);
  e.values = std::move(values);
  return e;
}

// Propagation-shaped trace over src(i) -> dst(i), plus ref(i)/obj(i)
// existence churn. Values come from a small range so the same value recurs
// across intervals (the search must find older intervals too). With
// `corrupt`, some copies carry a foreign value, land before their source
// write, or are dropped.
Trace Generate(uint64_t seed, int writes, bool corrupt) {
  Rng rng(seed);
  TraceRecorder rec;
  for (int i = 0; i < kIds; ++i) {
    rec.SetInitialValue(ItemId{"src", {Value::Int(i)}}, Value::Int(0));
    rec.SetInitialValue(ItemId{"dst", {Value::Int(i)}}, Value::Int(0));
  }
  std::vector<Event> events;
  std::vector<int64_t> current(kIds, 0);
  std::vector<int64_t> last_copy(kIds, 0);  // copies apply in FIFO order
  std::vector<bool> ref_alive(kIds, false), obj_alive(kIds, false);
  int64_t now = 0;
  for (int u = 0; u < writes; ++u) {
    now += rng.UniformInt(50, 900);
    int i = static_cast<int>(rng.Index(kIds));
    int64_t v = rng.UniformInt(1, 6);
    events.push_back(Make(now, EventKind::kWriteSpont,
                          ItemId{"src", {Value::Int(i)}},
                          {Value::Int(current[i]), Value::Int(v)}));
    current[i] = v;
    int64_t lag = std::max(rng.UniformInt(10, 1200), last_copy[i] + 1 - now);
    int64_t copied = v;
    if (corrupt) {
      double roll = rng.UniformDouble();
      if (roll < 0.1) continue;                // dropped copy
      if (roll < 0.2) copied = v + 100;        // foreign value
      if (roll >= 0.2 && roll < 0.3) lag = -rng.UniformInt(1, 40);  // early
    }
    last_copy[i] = std::max(last_copy[i], now + lag);
    events.push_back(Make(now + lag, EventKind::kWrite,
                          ItemId{"dst", {Value::Int(i)}},
                          {Value::Int(copied)}));
    // Existence churn: toggle ref(j) and, usually soon after, obj(j).
    int j = static_cast<int>(rng.Index(kIds));
    ItemId ref{"ref", {Value::Int(j)}};
    ItemId obj{"obj", {Value::Int(j)}};
    events.push_back(Make(now + 1, ref_alive[j] ? EventKind::kDelete
                                                : EventKind::kInsert,
                          ref, {}));
    ref_alive[j] = !ref_alive[j];
    if (rng.Bernoulli(0.8)) {
      events.push_back(Make(now + rng.UniformInt(1, 1500),
                            obj_alive[j] ? EventKind::kDelete
                                         : EventKind::kInsert,
                            obj, {}));
      obj_alive[j] = !obj_alive[j];
    }
  }
  std::stable_sort(
      events.begin(), events.end(),
      [](const Event& a, const Event& b) { return a.time < b.time; });
  for (auto& e : events) rec.Record(std::move(e));
  return rec.Finish(TimePoint::FromMillis(now + 3000));
}

spec::Guarantee Parse(const std::string& name, const std::string& text) {
  auto g = spec::ParseGuarantee(text);
  EXPECT_TRUE(g.ok()) << text << ": " << g.status().ToString();
  g->name = name;
  return *g;
}

// One guarantee per constraint shape the bounds handle (or deliberately
// decline to handle).
std::vector<spec::Guarantee> Guarantees() {
  return {
      spec::YFollowsX("src(n)", "dst(n)"),  // upper bound only
      spec::XLeadsY("src(n)", "dst(n)"),    // lower bound only
      spec::MetricYFollowsX("src(n)", "dst(n)", Duration::Millis(700)),
      spec::ExistsWithin("ref(i)", "obj(i)", Duration::Millis(1500)),
      // Offset on the atom's own time expression and on the constraint.
      Parse("at-offset",
            "(dst(n) = v)@t1 => (src(n) = v)@t2 - 250ms & t2 <= t1 + 100ms"),
      // An absolute lower bound next to a variable upper bound.
      Parse("absolute-bound",
            "(dst(n) = v)@t1 => (src(n) = v)@t2 & 2s <= t2 & t2 < t1"),
      // The variable on both sides of a constraint: left to the sink.
      Parse("self-constraint",
            "(dst(n) = v)@t1 => (src(n) = v)@t2 & t2 < t2 + 1s & t2 < t1"),
      // A second RHS atom reads t2: every instant is probed.
      Parse("chained",
            "(dst(n) = v)@t1 => (src(n) = v)@t2 & (dst(n) = v)@t3 & "
            "t2 <= t3 & t3 <= t1"),
      // A value parameter the RHS binds itself.
      Parse("cross-item", "(dst(n) = v)@t1 => (src(m) = v)@t2 & t2 < t1"),
  };
}

// Enumerated lower bound of an @in window. Reference mode re-derives the
// window's sample set per enumerated instant, so it runs on shorter traces.
spec::Guarantee WindowLowerBound() {
  return Parse("window-lo",
               "(src(n) = v)@t1 => (dst(n) = v)@in[t2, t2 + 400ms] & t1 < t2");
}

GuaranteeCheckOptions Options(bool reference) {
  GuaranteeCheckOptions o;
  o.settle_margin = Duration::Millis(1500);
  o.max_counterexamples = 1000;
  o.use_reference_impl = reference;
  return o;
}

// Returns whether the guarantee holds.
bool ExpectIdentical(const Trace& trace, const spec::Guarantee& g,
                     const GuaranteeCheckOptions& indexed,
                     const GuaranteeCheckOptions& oracle) {
  auto ri = CheckGuarantee(trace, g, indexed);
  auto ro = CheckGuarantee(trace, g, oracle);
  EXPECT_TRUE(ri.ok() && ro.ok()) << g.name;
  if (!ri.ok() || !ro.ok()) return false;
  EXPECT_EQ(ri->ToString(), ro->ToString()) << g.name;
  EXPECT_GT(ro->lhs_witnesses, 0u) << g.name;
  return ri->holds;
}

class BoundedSearchTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundedSearchTest, CleanTraceMatchesReference) {
  Trace t = Generate(GetParam(), 30, /*corrupt=*/false);
  for (const auto& g : Guarantees()) {
    ExpectIdentical(t, g, Options(false), Options(true));
  }
}

TEST_P(BoundedSearchTest, CorruptedTraceMatchesReference) {
  Trace t = Generate(GetParam(), 30, /*corrupt=*/true);
  int violated = 0;
  for (const auto& g : Guarantees()) {
    if (!ExpectIdentical(t, g, Options(false), Options(true))) {
      ++violated;
    }
  }
  // The corruption falsifies some guarantees, so the comparison covers
  // counterexamples and not only HOLDS lines.
  EXPECT_GT(violated, 0);
}

TEST_P(BoundedSearchTest, WindowLowerBoundMatchesReference) {
  for (bool corrupt : {false, true}) {
    Trace t = Generate(GetParam(), 10, corrupt);
    ExpectIdentical(t, WindowLowerBound(), Options(false), Options(true));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedSearchTest,
                         ::testing::Values(1, 2, 3, 5));

// When a later RHS atom reads the variable, instants of one state interval
// are not interchangeable. Here X = 1 from 1s on and Y = 1 from 1.7s on;
// the witness needs t2 in X's interval with a Y = 1 instant in
// [t2 + 400ms, t2 + 600ms). The interval's first instant (1s) has none —
// only later ones (e.g. 1.3s) do — so probing one instant per interval
// would report a violation that is not there.
TEST(BoundedSearchEscapeTest, VariableReadLaterVisitsEveryInstant) {
  const ItemId x{"X", {}};
  const ItemId y{"Y", {}};
  TraceRecorder rec;
  rec.SetInitialValue(x, Value::Int(0));
  rec.SetInitialValue(y, Value::Int(0));
  rec.Record(Make(1000, EventKind::kWriteSpont, x,
                  {Value::Int(0), Value::Int(1)}));
  rec.Record(Make(1700, EventKind::kWrite, y, {Value::Int(1)}));
  Trace t = rec.Finish(TimePoint::FromMillis(5000));
  spec::Guarantee g = Parse(
      "gap", "(Y = v)@t1 & 2s <= t1 => (X = v)@t2 & (Y = v)@t3 & "
             "t2 + 400ms <= t3 & t3 < t2 + 600ms & t3 <= t1");
  EXPECT_TRUE(ExpectIdentical(t, g, Options(false), Options(true)));
}

// The bounded search is what makes propagation guarantees cheap: a holding
// witness resolves within a few probes next to its own instant instead of
// a scan over every sample instant.
TEST(BoundedSearchStatsTest, PropagationGuaranteesProbeAFewInstantsPerWitness) {
  Trace t = Generate(99, 60, /*corrupt=*/false);
  for (const auto& g : {spec::YFollowsX("src(n)", "dst(n)"),
                        spec::XLeadsY("src(n)", "dst(n)")}) {
    GuaranteeCheckOptions indexed;
    indexed.settle_margin = Duration::Millis(1500);
    GuaranteeCheckOptions reference = indexed;
    reference.use_reference_impl = true;
    auto ri = CheckGuarantee(t, g, indexed);
    auto rr = CheckGuarantee(t, g, reference);
    ASSERT_TRUE(ri.ok());
    ASSERT_TRUE(rr.ok());
    EXPECT_TRUE(ri->holds) << g.name << ": " << ri->ToString();
    EXPECT_EQ(ri->ToString(), rr->ToString()) << g.name;
    // One evaluation per LHS witness plus the RHS probes.
    double per_witness = static_cast<double>(ri->stats.atom_evals) /
                         static_cast<double>(ri->lhs_witnesses);
    EXPECT_LT(per_witness, 5.0) << g.name;
    EXPECT_LT(ri->stats.atom_evals * 10, rr->stats.atom_evals) << g.name;
  }
}

}  // namespace
}  // namespace hcm::trace
