#include "src/rule/binding.h"

#include <gtest/gtest.h>

#include "src/rule/parser.h"
#include "src/rule/rule.h"
#include "src/trace/execution_rules.h"

namespace hcm::rule {
namespace {

Event MakeNotify(const std::string& base, std::vector<Value> args, Value v) {
  Event e;
  e.time = TimePoint::FromMillis(1000);
  e.site = "A";
  e.kind = EventKind::kNotify;
  e.item = ItemId{base, std::move(args)};
  e.values = {std::move(v)};
  return e;
}

TEST(SlotMapTest, AssignsSlotsInFirstSightOrder) {
  SlotMap slots;
  EXPECT_EQ(slots.SlotFor("n"), 0);
  EXPECT_EQ(slots.SlotFor("b"), 1);
  EXPECT_EQ(slots.SlotFor("n"), 0);  // idempotent
  EXPECT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots.name(0), "n");
  EXPECT_EQ(slots.name(1), "b");
  EXPECT_EQ(slots.Find("b"), 1);
  EXPECT_EQ(slots.Find("zz"), -1);
}

TEST(BindingFrameTest, SetGetAndJournal) {
  BindingFrame frame(3);
  EXPECT_EQ(frame.size(), 3u);
  EXPECT_FALSE(frame.IsBound(0));
  frame.Set(1, Value::Int(7));
  frame.Set(0, Value::Str("x"));
  EXPECT_TRUE(frame.IsBound(1));
  EXPECT_EQ(frame.Get(1), Value::Int(7));
  EXPECT_EQ(frame.num_bound(), 2u);
  // Binding order, not slot order.
  EXPECT_EQ(frame.bound_slots(), (std::vector<uint16_t>{1, 0}));
  // Re-binding overwrites without a second journal entry.
  frame.Set(1, Value::Int(8));
  EXPECT_EQ(frame.Get(1), Value::Int(8));
  EXPECT_EQ(frame.num_bound(), 2u);
}

TEST(BindingFrameTest, RollbackUnbindsPastTheMark) {
  BindingFrame frame(4);
  frame.Set(0, Value::Int(1));
  size_t mark = frame.mark();
  frame.Set(2, Value::Int(2));
  frame.Set(3, Value::Int(3));
  frame.Rollback(mark);
  EXPECT_TRUE(frame.IsBound(0));
  EXPECT_FALSE(frame.IsBound(2));
  EXPECT_FALSE(frame.IsBound(3));
  EXPECT_EQ(frame.num_bound(), 1u);
  frame.Clear();
  EXPECT_FALSE(frame.IsBound(0));
  EXPECT_EQ(frame.num_bound(), 0u);
}

TEST(BindingFrameTest, ToMapRendersThroughSlotNames) {
  SlotMap slots;
  uint16_t n = slots.SlotFor("n");
  uint16_t b = slots.SlotFor("b");
  BindingFrame frame(slots.size());
  frame.Set(b, Value::Int(900));
  frame.Set(n, Value::Int(17));
  auto map = frame.ToMap(slots);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at("n"), Value::Int(17));
  EXPECT_EQ(map.at("b"), Value::Int(900));
}

// The contract that lets a FireMessage carry a raw frame between shells:
// two independently parsed+compiled copies of the same rule text assign
// identical slots to every variable.
TEST(RuleCompileTest, IndependentCopiesAgreeOnSlots) {
  const char* text =
      "N(salary1(n), b) & b > 100 -> 5s Cx != b ? WR(salary2(n), b), W(Cx, b)";
  auto r1 = ParseRule(text);
  auto r2 = ParseRule(text);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok());
  r1->Compile();
  r2->Compile();
  EXPECT_TRUE(r1->compiled);
  ASSERT_EQ(r1->slots.size(), r2->slots.size());
  for (uint16_t s = 0; s < r1->slots.size(); ++s) {
    EXPECT_EQ(r1->slots.name(s), r2->slots.name(s)) << "slot " << s;
  }
  EXPECT_EQ(r1->now_slot, r2->now_slot);
}

TEST(RuleCompileTest, CompiledMatchAgreesWithReferenceMatch) {
  auto r = ParseRule("N(salary1(n), b) -> 5s WR(salary2(n), b)");
  ASSERT_TRUE(r.ok());
  r->Compile();
  BindingFrame frame(r->slots.size());

  Event hit = MakeNotify("salary1", {Value::Int(17)}, Value::Int(900));
  Binding binding;
  ASSERT_TRUE(r->lhs.Matches(hit, &binding));
  ASSERT_TRUE(r->lhs.MatchesCompiled(hit, &frame));
  // Same variables, same values, via the slot map.
  EXPECT_EQ(frame.ToMap(r->slots), binding);

  // Both instantiation paths produce the same RHS event.
  auto by_name = r->rhs[0].event.Instantiate(binding);
  auto by_slot = r->rhs[0].event.InstantiateCompiled(frame);
  ASSERT_TRUE(by_name.ok());
  ASSERT_TRUE(by_slot.ok());
  EXPECT_EQ(by_slot->item, by_name->item);
  EXPECT_EQ(by_slot->values, by_name->values);
  EXPECT_EQ(by_slot->kind, by_name->kind);
}

TEST(RuleCompileTest, FailedCompiledMatchRollsBackTheFrame) {
  auto r = ParseRule("N(salary1(n), n) -> 5s WR(salary2(n), n)");
  ASSERT_TRUE(r.ok());
  r->Compile();
  BindingFrame frame(r->slots.size());

  // Repeated variable n must unify: item arg 17 vs payload 900 fails, and
  // the failed attempt must leave no bindings behind.
  Event miss = MakeNotify("salary1", {Value::Int(17)}, Value::Int(900));
  Binding reference;
  EXPECT_FALSE(r->lhs.Matches(miss, &reference));
  EXPECT_FALSE(r->lhs.MatchesCompiled(miss, &frame));
  EXPECT_EQ(frame.num_bound(), 0u);

  // The same frame is then reusable for a matching event.
  Event hit = MakeNotify("salary1", {Value::Int(17)}, Value::Int(17));
  EXPECT_TRUE(r->lhs.MatchesCompiled(hit, &frame));
  EXPECT_EQ(frame.Get(static_cast<uint16_t>(r->slots.Find("n"))),
            Value::Int(17));
}

TEST(RuleCompileTest, WrongBaseOrKindRejectedByBothPaths) {
  auto r = ParseRule("N(salary1(n), b) -> 5s WR(salary2(n), b)");
  ASSERT_TRUE(r.ok());
  r->Compile();
  BindingFrame frame(r->slots.size());

  Event wrong_base = MakeNotify("salary9", {Value::Int(1)}, Value::Int(2));
  Binding binding;
  EXPECT_FALSE(r->lhs.Matches(wrong_base, &binding));
  EXPECT_FALSE(r->lhs.MatchesCompiled(wrong_base, &frame));

  Event wrong_kind = MakeNotify("salary1", {Value::Int(1)}, Value::Int(2));
  wrong_kind.kind = EventKind::kWrite;
  EXPECT_FALSE(r->lhs.Matches(wrong_kind, &binding));
  EXPECT_FALSE(r->lhs.MatchesCompiled(wrong_kind, &frame));
  EXPECT_EQ(frame.num_bound(), 0u);
}

// --- The valid-execution checkers' uses of the compiled path ---
//
// The trace checkers match and evaluate on compiled rules only. Each case
// below pins one of their uses against the name-keyed Binding semantics.

using trace::internal::GroundInto;
using trace::internal::RuleTables;
using trace::internal::TemplateMatchesIgnoringSite;

Event MakeEvent(EventKind kind, const std::string& base,
                std::vector<Value> args, std::vector<Value> values) {
  Event e;
  e.time = TimePoint::FromMillis(1500);
  e.site = "B";
  e.kind = kind;
  e.item = ItemId{base, std::move(args)};
  e.values = std::move(values);
  return e;
}

const Rule& OnlyRule(const RuleTables& tables) { return tables.rules()[0]; }

RuleTables TablesFor(const std::string& text) {
  auto r = ParseRule(text);
  EXPECT_TRUE(r.ok()) << text;
  r->id = 1;
  return RuleTables({*r});
}

// Provenance binds `now` to the generated event's time before the LHS
// condition runs; the frame's now slot must read exactly like the map key.
TEST(CheckerCompiledPathTest, NowSlotAgreesWithMapBinding) {
  RuleTables tables =
      TablesFor("N(salary1(n), b) & now >= 1000 -> 5s WR(salary2(n), b)");
  const Rule& r = OnlyRule(tables);
  ASSERT_TRUE(r.compiled);
  Event trigger = MakeNotify("salary1", {Value::Int(17)}, Value::Int(900));
  for (int64_t now : {500, 1000, 1500}) {
    SCOPED_TRACE(now);
    Binding binding;
    ASSERT_TRUE(r.lhs.Matches(trigger, &binding));
    binding["now"] = Value::Int(now);
    BindingFrame frame(tables.max_slots());
    ASSERT_TRUE(r.lhs.MatchesCompiled(trigger, &frame));
    frame.Set(static_cast<uint16_t>(r.now_slot), Value::Int(now));
    EXPECT_EQ(frame.ToMap(r.slots), binding);
    auto by_name = r.lhs_condition->EvalBool(binding, NullDataReader);
    auto by_slot =
        r.lhs_condition->EvalBoolFrame(frame, r.slots, NullDataReader);
    ASSERT_TRUE(by_name.ok());
    ASSERT_TRUE(by_slot.ok());
    EXPECT_EQ(*by_slot, *by_name);
    EXPECT_EQ(*by_slot, now >= 1000);
  }
  // An obligation's frame never binds `now`: both paths see it unbound.
  BindingFrame lhs_only(tables.max_slots());
  ASSERT_TRUE(r.lhs.MatchesCompiled(trigger, &lhs_only));
  Binding lhs_binding;
  ASSERT_TRUE(r.lhs.Matches(trigger, &lhs_binding));
  EXPECT_FALSE(r.lhs_condition->EvalBool(lhs_binding, NullDataReader).ok());
  EXPECT_FALSE(
      r.lhs_condition->EvalBoolFrame(lhs_only, r.slots, NullDataReader).ok());
}

// Provenance unifies the generated event with its site-cleared RHS template
// in the LHS frame, picking up RHS-only variables; a mismatch leaves the
// LHS binding as it was.
TEST(CheckerCompiledPathTest, RhsUnificationExtendsLhsBinding) {
  RuleTables tables = TablesFor(
      "N(salary1(n), b) -> 5s c > b ? WR(salary2(n), c)@B");
  const Rule& r = OnlyRule(tables);
  const EventTemplate& cleared = tables.ClearedRhs(r, 0);
  EXPECT_TRUE(cleared.site.empty());
  Event trigger = MakeNotify("salary1", {Value::Int(17)}, Value::Int(900));
  Binding binding;
  ASSERT_TRUE(r.lhs.Matches(trigger, &binding));
  binding["now"] = Value::Int(1500);
  BindingFrame frame(tables.max_slots());
  ASSERT_TRUE(r.lhs.MatchesCompiled(trigger, &frame));
  frame.Set(static_cast<uint16_t>(r.now_slot), Value::Int(1500));
  const size_t lhs_bound = frame.num_bound();

  Event miss = MakeEvent(EventKind::kWriteRequest, "salary2", {Value::Int(18)},
                         {Value::Int(950)});
  Binding miss_binding = binding;
  EXPECT_FALSE(cleared.Matches(miss, &miss_binding));
  EXPECT_FALSE(TemplateMatchesIgnoringSite(cleared, miss, &frame));
  EXPECT_EQ(frame.num_bound(), lhs_bound);
  EXPECT_EQ(frame.ToMap(r.slots), binding);

  Event hit = MakeEvent(EventKind::kWriteRequest, "salary2", {Value::Int(17)},
                        {Value::Int(950)});
  Binding extended = binding;
  ASSERT_TRUE(cleared.Matches(hit, &extended));
  ASSERT_TRUE(TemplateMatchesIgnoringSite(cleared, hit, &frame));
  EXPECT_EQ(frame.num_bound(), lhs_bound + 1);
  EXPECT_EQ(frame.ToMap(r.slots), extended);
  EXPECT_EQ(extended.at("c"), Value::Int(950));
  // The step condition reads the RHS-only variable on both paths.
  auto by_name = r.rhs[0].condition->EvalBool(extended, NullDataReader);
  auto by_slot =
      r.rhs[0].condition->EvalBoolFrame(frame, r.slots, NullDataReader);
  ASSERT_TRUE(by_name.ok());
  ASSERT_TRUE(by_slot.ok());
  EXPECT_TRUE(*by_name);
  EXPECT_EQ(*by_slot, *by_name);
}

// A whole-base read request (RR with no arguments) stands for every
// instance of a parameterized RR template: it matches without binding
// anything. An RR naming one instance unifies like any other template.
TEST(CheckerCompiledPathTest, WholeBaseReadRequestSpecialCase) {
  RuleTables tables = TablesFor("N(salary1(n), b) -> 5s RR(salary2(n))");
  const Rule& r = OnlyRule(tables);
  const EventTemplate& cleared = tables.ClearedRhs(r, 0);
  Event trigger = MakeNotify("salary1", {Value::Int(17)}, Value::Int(900));
  BindingFrame frame(tables.max_slots());
  ASSERT_TRUE(r.lhs.MatchesCompiled(trigger, &frame));
  const size_t lhs_bound = frame.num_bound();
  Binding binding;
  ASSERT_TRUE(r.lhs.Matches(trigger, &binding));

  Event whole = MakeEvent(EventKind::kReadRequest, "salary2", {}, {});
  Binding scratch = binding;
  EXPECT_FALSE(cleared.Matches(whole, &scratch));  // arity differs
  EXPECT_TRUE(TemplateMatchesIgnoringSite(cleared, whole, &frame));
  EXPECT_EQ(frame.num_bound(), lhs_bound);

  Event other_base = MakeEvent(EventKind::kReadRequest, "salary3", {}, {});
  EXPECT_FALSE(TemplateMatchesIgnoringSite(cleared, other_base, &frame));

  Event same = MakeEvent(EventKind::kReadRequest, "salary2", {Value::Int(17)},
                         {});
  Event other = MakeEvent(EventKind::kReadRequest, "salary2",
                          {Value::Int(18)}, {});
  for (const Event* e : {&same, &other}) {
    Binding b = binding;
    EXPECT_EQ(TemplateMatchesIgnoringSite(cleared, *e, &frame),
              cleared.Matches(*e, &b));
    EXPECT_EQ(frame.ToMap(r.slots), b);
  }
}

// Property 6 probes an unfired step's condition at the state changes of
// the items it reads: the compiled condition items ground, through the LHS
// frame, to exactly the ItemIds the map path grounds, and a variable the
// LHS did not bind fails both. Condition values agree for any reader.
TEST(CheckerCompiledPathTest, ConditionItemsGroundLikeTheMapPath) {
  RuleTables tables = TablesFor(
      "N(salary1(n), b) -> 5s Cache(n, 7) != b ? W(Cache(n, 7), b), "
      "Seen(m) = b ? W(Log(n), b)");
  const Rule& r = OnlyRule(tables);
  Event trigger = MakeNotify("salary1", {Value::Str("ann")}, Value::Int(900));
  BindingFrame frame(tables.max_slots());
  ASSERT_TRUE(r.lhs.MatchesCompiled(trigger, &frame));
  Binding binding;
  ASSERT_TRUE(r.lhs.Matches(trigger, &binding));

  ItemId grounded;  // one buffer reused across groundings, like the checker
  for (size_t step = 0; step < r.rhs.size(); ++step) {
    SCOPED_TRACE(step);
    std::vector<ItemRef> refs;
    r.rhs[step].condition->Collect(&refs, nullptr);
    const std::vector<ItemRef>& compiled = tables.ConditionItems(r, step);
    ASSERT_EQ(compiled.size(), refs.size());
    for (size_t i = 0; i < refs.size(); ++i) {
      auto by_name = refs[i].Ground(binding);
      bool ok = GroundInto(compiled[i], frame, &grounded);
      EXPECT_EQ(ok, by_name.ok());
      if (ok && by_name.ok()) {
        EXPECT_EQ(grounded, *by_name);
      }
    }
  }
  EXPECT_TRUE(GroundInto(tables.ConditionItems(r, 0)[0], frame, &grounded));
  EXPECT_EQ(grounded, (ItemId{"Cache", {Value::Str("ann"), Value::Int(7)}}));
  EXPECT_FALSE(GroundInto(tables.ConditionItems(r, 1)[0], frame, &grounded));

  DataReader reader = [](const ItemId& item) -> Result<Value> {
    return item.args.empty() ? Value::Int(0) : Value::Int(900);
  };
  auto by_name = r.rhs[0].condition->EvalBool(binding, reader);
  auto by_slot = r.rhs[0].condition->EvalBoolFrame(frame, r.slots, reader);
  ASSERT_TRUE(by_name.ok());
  ASSERT_TRUE(by_slot.ok());
  EXPECT_FALSE(*by_name);
  EXPECT_EQ(*by_slot, *by_name);
}

}  // namespace
}  // namespace hcm::rule
