// Prepared statements against the SQL text they replace: every command
// template runs once prepared, with its parameters bound, and once as the
// text SubstituteCommand renders with ToSqlLiteral, each on its own twin
// database. Both runs must agree on the status code, the rows affected or
// selected, the table contents afterwards and the rows handed to triggers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/ris/relational/database.h"
#include "src/ris/relational/sql.h"
#include "src/toolkit/rid.h"
#include "src/toolkit/system.h"

namespace hcm::ris::relational {
namespace {

// Kind-exact rendering: Value's == treats Int 3 and Real 3.0 as equal.
std::string Render(const Value& v) {
  return std::to_string(static_cast<int>(v.kind())) + ":" + v.ToString();
}

std::string Render(const std::optional<Row>& row) {
  if (!row.has_value()) return "-";
  std::string out = "(";
  for (const Value& v : *row) out += Render(v) + ",";
  return out + ")";
}

std::string Render(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& r : rows) out += Render(std::optional<Row>(r)) + ";";
  return out;
}

// One database plus the log of every row its triggers saw.
struct Twin {
  Database db{"twin"};
  std::vector<std::string> fired;

  Twin() {
    EXPECT_TRUE(db.Execute("create table t (k int primary key, a int, "
                           "s str, r real, x any)")
                    .ok());
    for (int k = 1; k <= 3; ++k) {
      EXPECT_TRUE(db.Execute("insert into t values (" + std::to_string(k) +
                             ", " + std::to_string(10 * k) + ", 'v" +
                             std::to_string(k) + "', 0.5, null)")
                      .ok());
    }
    for (TriggerKind kind : {TriggerKind::kInsert, TriggerKind::kUpdate,
                             TriggerKind::kDelete}) {
      EXPECT_TRUE(db.CreateTrigger("t", kind, "",
                                   [this](const TriggerEvent& e) {
                                     fired.push_back(Render(e.old_row) +
                                                     "->" +
                                                     Render(e.new_row));
                                   })
                      .ok());
    }
  }

  std::string Contents() {
    auto all = db.Execute("select * from t");
    return all.ok() ? Render(all->rows) : all.status().ToString();
  }
};

struct Outcome {
  StatusCode code = StatusCode::kOk;
  size_t affected = 0;
  std::string rows;
};

Outcome FromResult(const Result<QueryResult>& r) {
  Outcome o;
  o.code = r.status().code();
  if (r.ok()) {
    o.affected = r->affected_rows;
    o.rows = Render(r->rows);
  }
  return o;
}

class PreparedSqlTest : public ::testing::Test {
 protected:
  // Runs `tmpl` both ways and expects identical effects.
  void ExpectSame(const std::string& tmpl, const std::vector<Value>& args,
                  const Value* value) {
    SCOPED_TRACE(tmpl + " with $v=" +
                 (value != nullptr ? Render(*value) : "none"));
    Outcome prepared;
    auto stmt = PrepareSql(tmpl);
    prepared = stmt.ok() ? FromResult(prepared_.db.Execute(*stmt, args, value))
                         : Outcome{stmt.status().code(), 0, ""};

    Outcome text;
    auto sql = toolkit::SubstituteCommand(
        tmpl, args, value, [](const Value& v) { return ToSqlLiteral(v); });
    text = sql.ok() ? FromResult(text_.db.Execute(*sql))
                    : Outcome{sql.status().code(), 0, ""};

    EXPECT_EQ(prepared.code, text.code);
    EXPECT_EQ(prepared.affected, text.affected);
    EXPECT_EQ(prepared.rows, text.rows);
    EXPECT_EQ(prepared_.Contents(), text_.Contents());
    EXPECT_EQ(prepared_.fired, text_.fired);
  }

  Twin prepared_;
  Twin text_;
};

std::vector<Value> InterestingValues() {
  return {Value::Int(std::numeric_limits<int64_t>::min()),
          Value::Int(std::numeric_limits<int64_t>::max()),
          Value::Int(0),
          Value::Real(-0.0),
          Value::Real(3.0),
          Value::Real(1e-300),
          Value::Real(5e-324),  // subnormal
          Value::Real(1.7976931348623157e308),
          Value::Real(std::nan("")),
          Value::Real(std::numeric_limits<double>::infinity()),
          Value::Real(-std::numeric_limits<double>::infinity()),
          Value::Str("it's"),
          Value::Str("$1"),
          Value::Str("$v"),
          Value::Str("''"),
          Value::Str(""),
          Value::Bool(true),
          Value::Bool(false),
          Value::Null()};
}

TEST_F(PreparedSqlTest, BoundValuesMeanWhatTheirLiteralsParseTo) {
  const std::vector<std::string> templates = {
      "update t set a = $v where k = $1",
      "update t set s = $v where k = $1",
      "update t set r = $v where k = $1",
      "update t set x = $v where k = $1",
      "select k from t where x = $v",
      "select a, s from t where k = $1 and s != $v",
      "delete from t where x = $v",
      "insert into t values ($1, 1, $v, 2.5, $v)",
      "insert into t (k, x) values ($1, $v)",
  };
  int64_t next_key = 100;
  for (const std::string& tmpl : templates) {
    for (const Value& v : InterestingValues()) {
      // Keyed statements alternate between an existing row and a new key,
      // so inserts succeed and keyed updates both hit and miss.
      Value key = Value::Int(next_key % 2 == 0 ? 2 : next_key);
      ++next_key;
      ExpectSame(tmpl, {key}, &v);
    }
  }
}

TEST_F(PreparedSqlTest, KeysOfEveryKind) {
  for (const Value& key : InterestingValues()) {
    ExpectSame("update t set a = 5 where k = $1", {key}, nullptr);
    ExpectSame("select s from t where k = $1", {key}, nullptr);
    ExpectSame("delete from t where k = $1", {key}, nullptr);
    ExpectSame("insert into t values ($1, 1, 's', 1.0, null)", {key},
               nullptr);
  }
}

TEST_F(PreparedSqlTest, ParameterAndTemplateErrors) {
  const Value v = Value::Int(7);
  // $2 with one argument; $v with no value.
  ExpectSame("update t set a = $v where k = $2", {Value::Int(1)}, &v);
  ExpectSame("update t set a = $v where k = $1", {Value::Int(1)}, nullptr);
  // Unknown column and unknown table: the execution errors.
  ExpectSame("update t set bogus = $v where k = $1", {Value::Int(1)}, &v);
  ExpectSame("select a from missing where k = $1", {Value::Int(1)}, nullptr);
  // Syntax errors and bad placeholders.
  ExpectSame("update t set a = where k = $1", {Value::Int(1)}, &v);
  ExpectSame("update t set a = $x where k = $1", {Value::Int(1)}, &v);
  ExpectSame("update t set a = $$ where k = $1", {Value::Int(1)}, &v);
  ExpectSame("update t set a = $v where k = $1 $", {Value::Int(1)}, &v);
  ExpectSame("", {}, nullptr);
  // "$$" inside a quoted literal is a '$' either way.
  ExpectSame("update t set s = 'a$$b''c' where k = $1", {Value::Int(1)},
             nullptr);
  // Wrong-typed values reach the table's type check either way.
  const Value text = Value::Str("seven");
  ExpectSame("update t set a = $v where k = $1", {Value::Int(1)}, &text);
  ExpectSame("update t set r = $v where k = $1", {Value::Int(1)}, &text);
}

// The one place the two differ: the text path substituted parameters
// inside quoted strings, a prepared template rejects them.
TEST_F(PreparedSqlTest, PlaceholderInsideQuotesIsATemplateError) {
  for (const char* tmpl : {"update t set s = '$1' where k = $1",
                           "update t set s = 'x $v' where k = $1"}) {
    auto stmt = PrepareSql(tmpl);
    ASSERT_FALSE(stmt.ok()) << tmpl;
    EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(PreparedSqlTest, TableDroppedAndRecreatedBetweenRuns) {
  auto stmt = PrepareSql("update t set a = $v where k = $1");
  ASSERT_TRUE(stmt.ok());
  Value v = Value::Int(42);
  ASSERT_TRUE(prepared_.db.Execute(*stmt, {Value::Int(1)}, &v).ok());

  ASSERT_TRUE(prepared_.db.Execute("drop table t").ok());
  EXPECT_EQ(prepared_.db.Execute(*stmt, {Value::Int(1)}, &v).status().code(),
            StatusCode::kNotFound);
  // Recreated with the columns in another order: the statement follows.
  ASSERT_TRUE(
      prepared_.db.Execute("create table t (a int, k int primary key)").ok());
  ASSERT_TRUE(prepared_.db.Execute("insert into t values (0, 1)").ok());
  auto r = prepared_.db.Execute(*stmt, {Value::Int(1)}, &v);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->affected_rows, 1u);
  auto row = prepared_.db.Execute("select a, k from t");
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->rows.size(), 1u);
  EXPECT_EQ(Render(row->rows[0][0]), Render(Value::Int(42)));
  EXPECT_EQ(Render(row->rows[0][1]), Render(Value::Int(1)));
}

// A trigger created after a statement was first run fires on its next run.
TEST_F(PreparedSqlTest, TriggersCreatedAfterFirstRunFire) {
  auto stmt = PrepareSql("update t set a = $v where k = $1");
  ASSERT_TRUE(stmt.ok());
  Value v = Value::Int(1);
  ASSERT_TRUE(prepared_.db.Execute(*stmt, {Value::Int(1)}, &v).ok());
  int fired = 0;
  ASSERT_TRUE(prepared_.db
                  .CreateTrigger("t", TriggerKind::kUpdate, "a",
                                 [&](const TriggerEvent&) { ++fired; })
                  .ok());
  v = Value::Int(2);
  ASSERT_TRUE(prepared_.db.Execute(*stmt, {Value::Int(1)}, &v).ok());
  EXPECT_EQ(fired, 1);
}

// Through the toolkit: a relational RID whose write template does not parse
// configures fine and fails each write with the parse error's code.
TEST(PreparedTranslatorTest, TemplateErrorSurfacesOnUse) {
  toolkit::System sys;
  auto db = sys.AddRelationalSite("A");
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("create table emp (id int primary key, "
                             "pay int)")
                  .ok());
  ASSERT_TRUE((*db)->Execute("insert into emp values (1, 10)").ok());
  ASSERT_TRUE(sys.ConfigureTranslator(R"(
ris relational
site A
item pay
  read   select pay from emp where id = $1
  write  update emp set pay = '$v' where id = $1
)")
                  .ok());
  rule::ItemId item{"pay", {Value::Int(1)}};
  EXPECT_EQ(sys.WorkloadWrite(item, Value::Int(5)).code(),
            StatusCode::kInvalidArgument);
  auto pay = (*db)->Execute("select pay from emp where id = 1");
  ASSERT_TRUE(pay.ok());
  EXPECT_EQ(pay->rows[0][0], Value::Int(10));
}

}  // namespace
}  // namespace hcm::ris::relational
