#include "src/rule/parser.h"

#include <gtest/gtest.h>

namespace hcm::rule {
namespace {

TEST(ParseDurationTest, Units) {
  EXPECT_EQ(*ParseDurationText("5s"), Duration::Seconds(5));
  EXPECT_EQ(*ParseDurationText("300ms"), Duration::Millis(300));
  EXPECT_EQ(*ParseDurationText("2m"), Duration::Minutes(2));
  EXPECT_EQ(*ParseDurationText("24h"), Duration::Hours(24));
  EXPECT_EQ(*ParseDurationText("5"), Duration::Seconds(5));  // bare = seconds
  EXPECT_EQ(*ParseDurationText("0.5s"), Duration::Millis(500));
  EXPECT_FALSE(ParseDurationText("5d").ok());
  EXPECT_FALSE(ParseDurationText("").ok());
}

TEST(ParseDurationTest, RejectsValuesOutsideTheInt64MillisecondRange) {
  for (const char* text :
       {"9999999999999999999999s", "1e300ms", "1e300h", "1e308m",
        "9223372036854775808ms", "-9223372036854775808ms", "1e999s"}) {
    auto d = ParseDurationText(text);
    EXPECT_FALSE(d.ok()) << text << " parsed as " << d->ToString();
  }
  // 2^63 - 1024 is the largest double below 2^63, so the largest δ that
  // survives the conversion.
  auto largest = ParseDurationText("9223372036854774784ms");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->millis(), 9223372036854774784);
  EXPECT_EQ(largest->ToString(), "9223372036854774784ms");
}

TEST(ParseRuleTest, OutOfRangeDeltaIsRejected) {
  EXPECT_FALSE(ParseRule("N(x, a) -> 9999999999999999999999s W(y, a)").ok());
  EXPECT_FALSE(ParseRule("N(x, a) -> 9223372036854775808ms W(y, a)").ok());
  EXPECT_FALSE(ParseRule("Ws(X, b) -> 2562047788016h F").ok());
  EXPECT_FALSE(ParseRule("P(2562047788016h) -> 1s RR(X)").ok());
}

TEST(ParseRuleTest, LargestDeltaPrintParsePrintIsAFixpoint) {
  auto r1 = ParseRule("N(x, a) -> 9223372036854774784ms W(y, a)");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->delta.millis(), 9223372036854774784);
  auto r2 = ParseRule(r1->ToString());
  ASSERT_TRUE(r2.ok()) << r1->ToString();
  EXPECT_EQ(r2->ToString(), r1->ToString());
  EXPECT_EQ(r2->delta, r1->delta);
}

TEST(ParseRuleTest, PropagationStrategyFromPaper) {
  // Section 4.2.2: N(salary1(n), b) ->delta WR(salary2(n), b).
  auto r = ParseRule("N(salary1(n), b) -> 5s WR(salary2(n), b)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->lhs.kind, EventKind::kNotify);
  EXPECT_EQ(r->lhs.item.base, "salary1");
  EXPECT_EQ(r->delta, Duration::Seconds(5));
  ASSERT_EQ(r->rhs.size(), 1u);
  EXPECT_EQ(r->rhs[0].event.kind, EventKind::kWriteRequest);
  EXPECT_EQ(r->rhs[0].condition, nullptr);
  EXPECT_FALSE(r->forbids());
}

TEST(ParseRuleTest, WriteInterface) {
  auto r = ParseRule("WR(X, b) -> 2s W(X, b)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->lhs.kind, EventKind::kWriteRequest);
  EXPECT_EQ(r->rhs[0].event.kind, EventKind::kWrite);
}

TEST(ParseRuleTest, NoSpontaneousWriteInterface) {
  auto r = ParseRule("Ws(X, b) -> 0s F");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->forbids());
}

TEST(ParseRuleTest, ConditionalNotifyWithLhsCondition) {
  auto r = ParseRule(
      "Ws(X, a, b) & abs(b - a) > a * 0.1 -> 3s N(X, b)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->lhs_condition, nullptr);
  EXPECT_EQ(r->lhs.values.size(), 2u);
}

TEST(ParseRuleTest, PeriodicNotifyInterface) {
  // P(300) & (X = b) ->eps N(X, b): periodic notify from Section 3.1.1.
  auto r = ParseRule("P(300) & X = b -> 500ms N(X, b)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->lhs.kind, EventKind::kPeriodic);
  ASSERT_EQ(r->lhs.values.size(), 1u);
  EXPECT_EQ(r->lhs.values[0], Term::Lit(Value::Int(300000)));
}

TEST(ParseRuleTest, RhsSequenceWithConditions) {
  // Cache-and-forward strategy from Section 3.2.1, as one rule with a
  // sequenced RHS: first forward if changed, then update the cache.
  auto r = ParseRule(
      "N(X, b) -> 5s Cx != b ? WR(Y, b), W(Cx, b)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rhs.size(), 2u);
  ASSERT_NE(r->rhs[0].condition, nullptr);
  EXPECT_EQ(r->rhs[0].event.kind, EventKind::kWriteRequest);
  EXPECT_EQ(r->rhs[1].condition, nullptr);
  EXPECT_EQ(r->rhs[1].event.kind, EventKind::kWrite);
}

TEST(ParseRuleTest, NamedRule) {
  auto r = ParseRule("propagate: N(X, v) -> 5s WR(Y, v)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->name, "propagate");
}

TEST(ParseRuleTest, SitePins) {
  auto r = ParseRule("P(60)@A -> 1s RR(X)@A");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->lhs.site, "A");
  EXPECT_EQ(r->rhs[0].event.site, "A");
}

TEST(ParseRuleTest, Errors) {
  EXPECT_FALSE(ParseRule("").ok());
  EXPECT_FALSE(ParseRule("N(X, b)").ok());                   // no arrow
  EXPECT_FALSE(ParseRule("N(X, b) -> WR(Y, b)").ok());       // no duration
  EXPECT_FALSE(ParseRule("XX(X) -> 5s W(X, 1)").ok());       // bad kind
  EXPECT_FALSE(ParseRule("N(X, b) -> 5s").ok());             // empty RHS
  EXPECT_FALSE(ParseRule("N(X, b) -> 5s W(Y, b) extra").ok());
  EXPECT_FALSE(ParseRule("N(X) -> 5s W(Y, 1)").ok());        // N arity
  EXPECT_FALSE(ParseRule("W(X, a, b) -> 5s F").ok());        // W arity
}

TEST(ParseRuleSetTest, MultipleRulesWithComments) {
  auto rules = ParseRuleSet(R"(
    # polling strategy, Section 4.2.3
    poll:    P(60) -> 1s RR(X);
    forward: R(X, b) -> 1s WR(Y, b);
  )");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].name, "poll");
  EXPECT_EQ((*rules)[1].name, "forward");
  EXPECT_EQ((*rules)[1].lhs.kind, EventKind::kRead);
}

TEST(ParseRuleSetTest, TrailingSemicolonOptional) {
  EXPECT_EQ(ParseRuleSet("N(X, b) -> 5s W(Y, b)")->size(), 1u);
  EXPECT_EQ(ParseRuleSet("N(X, b) -> 5s W(Y, b);")->size(), 1u);
}

TEST(ParseRuleTest, ToStringRoundTrips) {
  const char* cases[] = {
      "N(salary1(n), b) -> 5s WR(salary2(n), b)",
      "Ws(X, a, b) & abs(b - a) > a * 0.1 -> 3s N(X, b)",
      "N(X, b) -> 5s Cx != b ? WR(Y, b), W(Cx, b)",
      "Ws(X, b) -> 0s F",
      "P(300) -> 500ms RR(X)",
      "cached: R(X, b) -> 1s W(Cx, b)",
  };
  for (const char* text : cases) {
    auto r1 = ParseRule(text);
    ASSERT_TRUE(r1.ok()) << text << ": " << r1.status().ToString();
    auto r2 = ParseRule(r1->ToString());
    ASSERT_TRUE(r2.ok()) << r1->ToString();
    EXPECT_EQ(r2->ToString(), r1->ToString()) << text;
  }
}

TEST(TokenizerTest, CommentsAndStrings) {
  auto tokens = TokenizeRuleText("N(X, \"a b\") # trailing comment");
  ASSERT_TRUE(tokens.ok());
  // N ( X , "a b" ) END
  EXPECT_EQ(tokens->size(), 7u);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[4].text, "a b");
}

TEST(TokenizerTest, RejectsBadInput) {
  EXPECT_FALSE(TokenizeRuleText("a $ b").ok());
  EXPECT_FALSE(TokenizeRuleText("\"unterminated").ok());
  EXPECT_FALSE(TokenizeRuleText("5x").ok());  // bad unit suffix
}

}  // namespace
}  // namespace hcm::rule
