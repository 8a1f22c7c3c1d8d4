#include "src/toolkit/rid.h"

#include <gtest/gtest.h>

namespace hcm::toolkit {
namespace {

constexpr const char* kFullRid = R"(
# Sybase personnel database at the San Francisco branch.
ris relational
site A
param server sybase-sf.company.com
param port 4100
param write_delay 500ms
item salary1
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
  insert insert into employees (empid) values ($1)
  delete delete from employees where empid = $1
  notify trigger employees salary empid
interface notify salary1(n) 1s
interface read salary1(n) 1s
interface write salary1(n) 2s
)";

TEST(RidParseTest, FullConfig) {
  auto config = ParseRid(kFullRid);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->ris_type, "relational");
  EXPECT_EQ(config->site, "A");
  EXPECT_EQ(config->params.at("server"), "sybase-sf.company.com");
  EXPECT_EQ(config->params.at("port"), "4100");
  ASSERT_EQ(config->items.size(), 1u);
  const RidItemMapping& item = config->items[0];
  EXPECT_EQ(item.item_base, "salary1");
  EXPECT_EQ(item.read_command,
            "select salary from employees where empid = $1");
  EXPECT_EQ(item.notify_hint, "trigger employees salary empid");
  EXPECT_FALSE(item.insert_command.empty());
  EXPECT_FALSE(item.delete_command.empty());
  ASSERT_EQ(config->interfaces.size(), 3u);
  EXPECT_EQ(config->interfaces[0].kind, spec::InterfaceKind::kNotify);
  EXPECT_EQ(config->interfaces[1].kind, spec::InterfaceKind::kRead);
  EXPECT_EQ(config->interfaces[2].kind, spec::InterfaceKind::kWrite);
}

TEST(RidParseTest, ParamDuration) {
  auto config = ParseRid(kFullRid);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->ParamDuration("write_delay", Duration::Zero()),
            Duration::Millis(500));
  EXPECT_EQ(config->ParamDuration("missing", Duration::Seconds(1)),
            Duration::Seconds(1));
  // Non-duration param falls back.
  EXPECT_EQ(config->ParamDuration("server", Duration::Seconds(2)),
            Duration::Seconds(2));
}

TEST(RidParseTest, FindItem) {
  auto config = ParseRid(kFullRid);
  ASSERT_TRUE(config.ok());
  EXPECT_NE(config->FindItem("salary1"), nullptr);
  EXPECT_EQ(config->FindItem("bogus"), nullptr);
}

TEST(RidParseTest, PeriodicAndConditionalInterfaces) {
  auto config = ParseRid(R"(
ris whois
site W
item phone
  read get $1 phone
  write set $1 phone $v
  list list
interface periodic-notify phone(n) 300s 1s
interface conditional-notify phone(n) 1s b != a
)");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->interfaces.size(), 2u);
  EXPECT_EQ(config->interfaces[0].kind,
            spec::InterfaceKind::kPeriodicNotify);
  EXPECT_EQ(config->interfaces[1].kind,
            spec::InterfaceKind::kConditionalNotify);
  ASSERT_NE(config->interfaces[1].statements[0].lhs_condition, nullptr);
}

TEST(RidParseTest, Errors) {
  EXPECT_FALSE(ParseRid("").ok());                      // no ris
  EXPECT_FALSE(ParseRid("ris relational\n").ok());     // no site
  EXPECT_FALSE(ParseRid("ris r\nsite A\nbogus x\n").ok());
  EXPECT_FALSE(ParseRid("ris r\nsite A\nread foo\n").ok());  // outside item
  EXPECT_FALSE(
      ParseRid("ris r\nsite A\ninterface frobnicate X 1s\n").ok());
  EXPECT_FALSE(ParseRid("ris r\nsite A\ninterface notify X\n").ok());
  EXPECT_FALSE(ParseRid("ris r\nsite A\nparam nameonly\n").ok());
}

TEST(RidParseTest, OutOfRangeDurationsAreRejected) {
  EXPECT_FALSE(
      ParseRid("ris r\nsite A\ninterface notify X 9999999999999999999999s\n")
          .ok());
  EXPECT_FALSE(ParseRid("ris r\nsite A\ninterface write X 1e300ms\n").ok());
  // An out-of-range param is not a duration: the fallback applies.
  auto config = ParseRid("ris r\nsite A\nparam write_delay 1e300ms\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->ParamDuration("write_delay", Duration::Seconds(2)),
            Duration::Seconds(2));
}

TEST(SubstituteCommandTest, Placeholders) {
  auto render = [](const Value& v) { return v.ToString(); };
  Value value = Value::Int(99);
  auto r = SubstituteCommand("update t set c = $v where k = $1 and j = $2",
                             {Value::Int(7), Value::Str("x")}, &value,
                             render);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "update t set c = 99 where k = 7 and j = \"x\"");
}

TEST(SubstituteCommandTest, EscapedDollarAndErrors) {
  auto render = [](const Value& v) { return v.ToString(); };
  EXPECT_EQ(*SubstituteCommand("cost $$5", {}, nullptr, render), "cost $5");
  EXPECT_FALSE(SubstituteCommand("$1", {}, nullptr, render).ok());  // no arg
  EXPECT_FALSE(SubstituteCommand("$v", {}, nullptr, render).ok());  // no val
  EXPECT_FALSE(SubstituteCommand("$x", {}, nullptr, render).ok());  // bad ph
  EXPECT_EQ(*SubstituteCommand("plain", {}, nullptr, render), "plain");
}

}  // namespace
}  // namespace hcm::toolkit
