#include "src/spec/guarantee.h"

#include <gtest/gtest.h>

namespace hcm::spec {
namespace {

TEST(TimeExprTest, ToStringForms) {
  EXPECT_EQ((TimeExpr{"t1", Duration::Zero()}).ToString(), "t1");
  EXPECT_EQ((TimeExpr{"t", Duration::Seconds(5)}).ToString(), "t + 5s");
  EXPECT_EQ((TimeExpr{"t", Duration::Zero() - Duration::Seconds(5)})
                .ToString(),
            "t - 5s");
  EXPECT_EQ((TimeExpr{"", Duration::Hours(1)}).ToString(), "1h");
  EXPECT_TRUE((TimeExpr{"", Duration::Zero()}).is_absolute());
}

TEST(ParseGuaranteeTest, YFollowsXForm) {
  auto g = ParseGuarantee("(Y = y)@t1 => (X = y)@t2 & t2 < t1");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->lhs_atoms.size(), 1u);
  EXPECT_EQ(g->lhs_time.size(), 0u);
  EXPECT_EQ(g->rhs_atoms.size(), 1u);
  ASSERT_EQ(g->rhs_time.size(), 1u);
  EXPECT_TRUE(g->rhs_time[0].strict);
  EXPECT_EQ(g->rhs_time[0].lhs.var, "t2");
  EXPECT_FALSE(g->is_metric());
}

TEST(ParseGuaranteeTest, MetricFormDetected) {
  auto g = ParseGuarantee(
      "(Y = y)@t1 => (X = y)@t2 & t1 - 5s < t2 & t2 <= t1");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g->is_metric());
  ASSERT_EQ(g->rhs_time.size(), 2u);
  EXPECT_EQ(g->rhs_time[0].lhs.offset, Duration::Zero() - Duration::Seconds(5));
  EXPECT_FALSE(g->rhs_time[1].strict);
}

TEST(ParseGuaranteeTest, ExistsAndSometimeIn) {
  auto g = ParseGuarantee(
      "E(project(i))@t => E(salary(i))@in[t, t + 24h]");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_TRUE(g->lhs_atoms[0].exists_item.has_value());
  EXPECT_EQ(g->lhs_atoms[0].exists_item->base, "project");
  EXPECT_EQ(g->rhs_atoms[0].mode, AtomMode::kSometimeIn);
  EXPECT_EQ(g->rhs_atoms[0].hi.offset, Duration::Hours(24));
  EXPECT_TRUE(g->is_metric());
}

TEST(ParseGuaranteeTest, ThroughoutInterval) {
  auto g = ParseGuarantee(
      "(Flag = true and Tb = s)@t => (X = Y)@@[s, t - 2s]");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->rhs_atoms[0].mode, AtomMode::kThroughout);
  EXPECT_EQ(g->rhs_atoms[0].lo.var, "s");
  EXPECT_EQ(g->rhs_atoms[0].hi.var, "t");
  EXPECT_EQ(g->rhs_atoms[0].hi.offset,
            Duration::Zero() - Duration::Seconds(2));
}

TEST(ParseGuaranteeTest, NotExists) {
  auto g = ParseGuarantee("not E(X)@t => (Y = 0)@t");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g->lhs_atoms[0].negated_exists);
}

TEST(ParseGuaranteeTest, Errors) {
  EXPECT_FALSE(ParseGuarantee("").ok());
  EXPECT_FALSE(ParseGuarantee("(X = 1)@t").ok());            // no '=>'
  EXPECT_FALSE(ParseGuarantee("=> (X = 1)@t").ok());         // empty LHS
  EXPECT_FALSE(ParseGuarantee("(X = 1)@t => t < t2").ok());  // no RHS atom
  EXPECT_FALSE(ParseGuarantee("(X = 1) => (Y = 1)@t").ok()); // missing anno
  EXPECT_FALSE(ParseGuarantee("(X = 1)@t => (Y = 1)@t trailing").ok());
  EXPECT_FALSE(ParseGuarantee("not (X = 1)@t => (Y = 1)@t").ok());
}

TEST(ParseGuaranteeTest, OutOfRangeOffsetIsRejected) {
  EXPECT_FALSE(ParseGuarantee("(X = x)@t1 => (Y = x)@t2 & "
                              "t2 < t1 - 9999999999999999999999s")
                   .ok());
  EXPECT_FALSE(
      ParseGuarantee("E(X)@t => E(Y)@in[t, t + 153722867280913m]").ok());
  // The largest accepted offset prints and re-parses to itself.
  auto g1 = ParseGuarantee(
      "E(X)@t => E(Y)@in[t, t + 9223372036854774784ms]");
  ASSERT_TRUE(g1.ok()) << g1.status().ToString();
  auto g2 = ParseGuarantee(g1->ToString());
  ASSERT_TRUE(g2.ok()) << g1->ToString();
  EXPECT_EQ(g2->ToString(), g1->ToString());
}

TEST(ParseGuaranteeTest, ToStringRoundTrips) {
  const char* cases[] = {
      "(Y = y)@t1 => (X = y)@t2 & t2 < t1",
      "(Y = y1)@t1 & (Y = y2)@t2 & t1 < t2 => (X = y1)@t3 & (X = y2)@t4 & "
      "t3 < t4",
      "E(project(i))@t => E(salary(i))@in[t, t + 24h]",
      "(Flag = true and Tb = s)@t => (X = Y)@@[s, t - 2s]",
  };
  for (const char* text : cases) {
    auto g1 = ParseGuarantee(text);
    ASSERT_TRUE(g1.ok()) << text << ": " << g1.status().ToString();
    auto g2 = ParseGuarantee(g1->ToString());
    ASSERT_TRUE(g2.ok()) << g1->ToString();
    EXPECT_EQ(g2->ToString(), g1->ToString()) << text;
  }
}

TEST(GuaranteeCatalogTest, EntriesParseAndClassify) {
  Guarantee g1 = YFollowsX("salary1(n)", "salary2(n)");
  EXPECT_EQ(g1.name, "y-follows-x");
  EXPECT_FALSE(g1.is_metric());
  Guarantee g2 = XLeadsY("X", "Y");
  EXPECT_EQ(g2.name, "x-leads-y");
  EXPECT_FALSE(g2.is_metric());
  Guarantee g3 = YStrictlyFollowsX("X", "Y");
  EXPECT_EQ(g3.lhs_atoms.size(), 2u);
  EXPECT_EQ(g3.lhs_time.size(), 1u);
  Guarantee g4 = MetricYFollowsX("X", "Y", Duration::Seconds(10));
  EXPECT_TRUE(g4.is_metric());
  Guarantee g5 = ExistsWithin("project(i)", "salary(i)", Duration::Hours(24));
  EXPECT_TRUE(g5.is_metric());
  Guarantee g6 = MonitorFlagGuarantee("X", "Y", "MonFlag", "MonTb",
                                      Duration::Seconds(3));
  EXPECT_TRUE(g6.is_metric());
  Guarantee g7 = AlwaysLeq("X", "Y");
  EXPECT_FALSE(g7.is_metric());
  // None of the catalog entries may carry a parse error.
  for (const Guarantee* g : {&g1, &g2, &g3, &g4, &g5, &g6, &g7}) {
    EXPECT_EQ(g->name.find("PARSE-ERROR"), std::string::npos)
        << g->name;
  }
}

}  // namespace
}  // namespace hcm::spec
