// Randomized equivalence suite: the indexed trace checkers must produce
// byte-identical reports to the whole-trace-scan reference implementations
// (ValidExecutionOptions/GuaranteeCheckOptions use_reference_impl = true)
// on a large generated trace. This is the safety net for the scaling
// indexes: any ordering or pruning bug shows up as a report diff.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>

#include "src/common/rng.h"
#include "src/rule/parser.h"
#include "src/spec/guarantee.h"
#include "src/trace/guarantee_checker.h"
#include "src/trace/valid_execution.h"

namespace hcm::trace {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;

constexpr size_t kPairs = 64;          // src<p>/dst<p> propagation pairs
constexpr size_t kTargetEvents = 110000;
constexpr int64_t kRuleDeltaMs = 5000;

ItemId Item(const std::string& base) { return ItemId{base, {}}; }

struct GeneratedTrace {
  Trace trace;
  std::vector<rule::Rule> rules;
};

// A write-request scheduled to fire later than the notify that triggered it.
struct PendingFire {
  int64_t fire_ms = 0;
  uint64_t seq = 0;  // FIFO tie-break
  size_t pair = 0;
  int64_t value = 0;
  int64_t trigger_id = 0;
  bool corrupt_value = false;  // property-5 template mismatch
  bool operator>(const PendingFire& o) const {
    return fire_ms != o.fire_ms ? fire_ms > o.fire_ms : seq > o.seq;
  }
};

// Generates a mostly-valid trace of >= kTargetEvents events: per-pair
// notify -> WR propagation under rules `N(src<p>, b) -> 5s WR(dst<p>, b)`,
// spontaneous writes with tracked old values (including valid same-instant
// chains), a scripted GX -> GY copy stream for the guarantee checker, and a
// fixed handful of injected violations of properties 2, 5 and 6.
GeneratedTrace Generate(uint64_t seed) {
  GeneratedTrace out;
  Rng rng(seed);
  TraceRecorder rec;

  for (size_t p = 0; p < kPairs; ++p) {
    auto r = rule::ParseRule("N(src" + std::to_string(p) + ", b) -> 5s WR(dst" +
                             std::to_string(p) + ", b)");
    EXPECT_TRUE(r.ok());
    r->id = static_cast<int64_t>(p);
    out.rules.push_back(*r);
    rec.SetInitialValue(Item("src" + std::to_string(p)), Value::Int(0));
    rec.SetInitialValue(Item("dst" + std::to_string(p)), Value::Int(0));
  }
  rec.SetInitialValue(Item("GX"), Value::Int(0));
  rec.SetInitialValue(Item("GY"), Value::Int(0));

  std::vector<int64_t> current(kPairs, 0);  // last written src value
  std::priority_queue<PendingFire, std::vector<PendingFire>,
                      std::greater<PendingFire>>
      pending;
  std::vector<int64_t> last_fire(kPairs, 0);  // per-channel FIFO floor
  uint64_t seq = 0;
  int64_t now = 0;
  // Injection budgets (kept far below the 50-violation report cap so every
  // violation is materialized and the full reports stay comparable).
  int corrupt_old = 6, dropped_wr = 4, corrupt_wr = 3;
  // The guarantee copy stream stays small: the reference guarantee checker
  // is quadratic in the guarantee-relevant segment count.
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
      // Notify on a random pair; usually a WR follows within the window.
      size_t p = rng.Index(kPairs);
      int64_t v = rng.UniformInt(0, 999);
      int64_t id = notify(p, now, v);
      if (dropped_wr > 0 && rng.Bernoulli(0.0005)) {
        --dropped_wr;  // obligation never met: property 6
        continue;
      }
      PendingFire f;
      // FIFO per channel so the generated trace never violates property 7.
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
      // Valid same-instant write chain: second Ws's old value is the first
      // Ws's new value, resolvable only through the chain lookup.
      size_t p = rng.Index(kPairs);
      ItemId item = Item("src" + std::to_string(p));
      int64_t a = rng.UniformInt(0, 999);
      int64_t b = rng.UniformInt(0, 999);
      write_spont(item, now, Value::Int(current[p]), a);
      write_spont(item, now, Value::Int(a), b);
      current[p] = b;
    } else if (roll < 0.29 && copies_left > 0) {
      // Scripted copy stream for the guarantee: GY trails GX by 5-40ms.
      --copies_left;
      int64_t v = rng.UniformInt(0, 999);
      write_spont(Item("GX"), now, Value::Int(gx), v);
      // Flush pending fires first so recording stays in time order.
      int64_t gy_ms = now + rng.UniformInt(5, 40);
      flush_pending(gy_ms);
      write_spont(Item("GY"), gy_ms, Value::Int(gx), v);
      gx = v;
      now = gy_ms;
    } else {
      // Plain spontaneous write with a consistent old value -- or, on the
      // corruption budget, an old value the state never held (property 2).
      size_t p = rng.Index(kPairs);
      int64_t v = rng.UniformInt(0, 999);
      Value old_v = Value::Int(current[p]);
      if (corrupt_old > 0 && rng.Bernoulli(0.0003)) {
        --corrupt_old;
        old_v = Value::Int(7000000 + corrupt_old);  // never a real value
      }
      write_spont(Item("src" + std::to_string(p)), now, std::move(old_v), v);
      current[p] = v;
    }
  }
  flush_pending(now + kRuleDeltaMs + 1);
  // Horizon far enough out that every obligation has come due.
  out.trace = rec.Finish(TimePoint::FromMillis(now + 2 * kRuleDeltaMs));
  return out;
}

// Runs the indexed and reference valid-execution checkers under `options`
// and expects byte-identical reports; returns the indexed one.
ExecutionReport ExpectValidMatchesReference(const GeneratedTrace& g,
                                            ValidExecutionOptions options) {
  options.use_reference_impl = false;
  ExecutionReport ri = CheckValidExecution(g.trace, g.rules, options);
  options.use_reference_impl = true;
  ExecutionReport rr = CheckValidExecution(g.trace, g.rules, options);

  EXPECT_EQ(ri.ToString(), rr.ToString());
  EXPECT_EQ(ri.valid, rr.valid);
  EXPECT_EQ(ri.events_checked, rr.events_checked);
  EXPECT_EQ(ri.obligations_checked, rr.obligations_checked);
  EXPECT_EQ(ri.violations.size(), rr.violations.size());
  for (size_t i = 0; i < std::min(ri.violations.size(), rr.violations.size());
       ++i) {
    EXPECT_EQ(ri.violations[i].ToString(), rr.violations[i].ToString()) << i;
  }
  return ri;
}

// Runs the guarantee checker indexed and in reference mode and expects
// identical results; returns the indexed one.
GuaranteeCheckResult ExpectGuaranteeMatchesReference(
    const GeneratedTrace& g, const std::string& text,
    GuaranteeCheckOptions options) {
  auto guarantee = spec::ParseGuarantee(text);
  EXPECT_TRUE(guarantee.ok()) << text;
  if (!guarantee.ok()) return {};
  options.use_reference_impl = false;
  auto ri = CheckGuarantee(g.trace, *guarantee, options);
  options.use_reference_impl = true;
  auto rr = CheckGuarantee(g.trace, *guarantee, options);
  EXPECT_TRUE(ri.ok() && rr.ok()) << text;
  if (!ri.ok() || !rr.ok()) return {};

  EXPECT_EQ(ri->ToString(), rr->ToString()) << text;
  EXPECT_EQ(ri->holds, rr->holds) << text;
  EXPECT_EQ(ri->lhs_witnesses, rr->lhs_witnesses) << text;
  EXPECT_EQ(ri->violations, rr->violations) << text;
  EXPECT_EQ(ri->counterexamples.size(), rr->counterexamples.size()) << text;
  // The reference mode memoizes nothing.
  EXPECT_EQ(rr->stats.sample_cache_hits, 0u) << text;
  EXPECT_EQ(rr->stats.match_cache_hits, 0u) << text;
  return *ri;
}

TEST(CheckEquivalenceTest, ValidExecutionIndexedMatchesReferenceByteForByte) {
  GeneratedTrace g = Generate(20260807);
  ASSERT_GE(g.trace.events.size(), 100000u);

  ExecutionReport full = ExpectValidMatchesReference(g, {});
  // The generator injected violations, so the comparison is not vacuous.
  EXPECT_FALSE(full.valid);
  EXPECT_GE(full.violations.size(), 10u);
  // And the indexed run actually pruned work.
  EXPECT_GT(full.stats.obligation_scans_avoided, 0u);
  EXPECT_GT(full.stats.write_events_indexed, 0u);
}

// The suite names of the two capped-report tests below date from the
// checkers' former worker pools; "sequential" is the uncapped in-order scan.

// Capped below the violation count: the cap keeps the earliest violations
// phase by phase and counts the rest, so the capped report is the uncapped
// report's prefix. The indexed write-consistency pass emits item by item, so
// this also checks that the merge restores trace order.
TEST(ParallelCheckTest, ViolationCapKeepsSequentialPrefix) {
  GeneratedTrace g = Generate(20260807);
  ExecutionReport full = ExpectValidMatchesReference(g, {});
  ASSERT_GT(full.violations.size(), 7u);

  ValidExecutionOptions capped;
  capped.max_violations = 7;
  ExecutionReport head = ExpectValidMatchesReference(g, capped);
  EXPECT_FALSE(head.valid);
  ASSERT_EQ(head.violations.size(), 7u);
  for (size_t i = 0; i < head.violations.size(); ++i) {
    EXPECT_EQ(head.violations[i].ToString(), full.violations[i].ToString())
        << i;
  }
}

TEST(CheckEquivalenceTest, GuaranteeIndexedMatchesReferenceByteForByte) {
  GeneratedTrace g = Generate(20260807);
  ASSERT_GE(g.trace.events.size(), 100000u);

  GuaranteeCheckOptions options;
  options.settle_margin = Duration::Millis(kRuleDeltaMs);
  // The copy guarantee over the scripted GX -> GY stream: every GY value
  // must have been GX's value at some earlier-or-equal instant.
  GuaranteeCheckResult copy = ExpectGuaranteeMatchesReference(
      g, "(GY = y)@t1 => (GX = y)@t2 & t2 <= t1", options);
  // The witness enumeration was non-trivial and the caches actually hit.
  EXPECT_GT(copy.lhs_witnesses, 10u);
  EXPECT_GT(copy.stats.sample_cache_hits, 0u);
  EXPECT_GT(copy.stats.match_cache_hits, 0u);
}

// GY trails GX by 5-40ms, so a 20ms bound fails on every slower copy; capped
// at three counterexamples, both modes keep the first three violated
// witnesses in witness order, the prefix of a run with a larger cap.
TEST(ParallelGuaranteeTest, CounterexampleCapKeepsSequentialPrefix) {
  GeneratedTrace g = Generate(20260807);
  const std::string late_copy =
      "(GY = y)@t1 => (GX = y)@t2 & t2 <= t1 & t1 <= t2 + 20ms";
  GuaranteeCheckOptions options;
  options.settle_margin = Duration::Millis(kRuleDeltaMs);
  options.max_counterexamples = 100;
  GuaranteeCheckResult wide =
      ExpectGuaranteeMatchesReference(g, late_copy, options);
  ASSERT_GT(wide.counterexamples.size(), 3u);

  options.max_counterexamples = 3;
  GuaranteeCheckResult late =
      ExpectGuaranteeMatchesReference(g, late_copy, options);
  EXPECT_FALSE(late.holds);
  EXPECT_EQ(late.violations, wide.violations);
  ASSERT_EQ(late.counterexamples.size(), 3u);
  for (size_t i = 0; i < late.counterexamples.size(); ++i) {
    EXPECT_EQ(late.counterexamples[i].ToString(),
              wide.counterexamples[i].ToString())
        << i;
  }
}

// Two indexed runs over the same trace must agree with themselves too
// (guards against iteration-order nondeterminism in the new hash maps).
TEST(CheckEquivalenceTest, IndexedRunsAreDeterministic) {
  GeneratedTrace g = Generate(424242);
  ExecutionReport a = CheckValidExecution(g.trace, g.rules);
  ExecutionReport b = CheckValidExecution(g.trace, g.rules);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.DescribeCheckStats(), b.DescribeCheckStats());
}

}  // namespace
}  // namespace hcm::trace
