#include "src/ris/relational/database.h"

#include <gtest/gtest.h>

#include <memory>

namespace hcm::ris::relational {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_("hq") {
    auto r = db_.Execute(
        "create table employees (empid int primary key, name str, "
        "salary int)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(db_.Execute("insert into employees values (1, 'ann', 100)")
                    .ok());
    EXPECT_TRUE(db_.Execute("insert into employees values (2, 'bob', 200)")
                    .ok());
  }
  Database db_;
};

TEST_F(DatabaseTest, SelectStar) {
  auto r = db_.Execute("select * from employees where salary > 150");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->columns,
            (std::vector<std::string>{"empid", "name", "salary"}));
  EXPECT_EQ(r->rows[0][1], Value::Str("bob"));
}

TEST_F(DatabaseTest, SelectProjection) {
  auto r = db_.Execute("select salary, name from employees where empid = 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->columns, (std::vector<std::string>{"salary", "name"}));
  EXPECT_EQ(r->rows[0][0], Value::Int(100));
  EXPECT_EQ(r->rows[0][1], Value::Str("ann"));
}

TEST_F(DatabaseTest, UpdateReportsAffectedRows) {
  auto r = db_.Execute("update employees set salary = 300 where salary >= 0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 2u);
  auto check = db_.Execute("select * from employees where salary = 300");
  EXPECT_EQ(check->rows.size(), 2u);
}

TEST_F(DatabaseTest, DeleteAndDrop) {
  auto r = db_.Execute("delete from employees where empid = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->affected_rows, 1u);
  EXPECT_TRUE(db_.Execute("drop table employees").ok());
  EXPECT_FALSE(db_.HasTable("employees"));
  EXPECT_EQ(db_.Execute("select * from employees").status().code(),
            StatusCode::kNotFound);
}

TEST_F(DatabaseTest, InsertWithNamedColumnsFillsNulls) {
  ASSERT_TRUE(
      db_.Execute("insert into employees (empid, salary) values (3, 50)")
          .ok());
  auto r = db_.Execute("select name from employees where empid = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows[0][0].is_null());
}

TEST_F(DatabaseTest, ErrorsSurfaceSybaseStyle) {
  EXPECT_EQ(db_.Execute("insert into employees values (1, 'dup', 0)")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db_.Execute("select * from missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.Execute("select * from employees where bogus = 1")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.Execute("not sql at all").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.Execute("create table employees (x int)").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DatabaseTest, UpdateTriggerFiresPerRowWithOldAndNew) {
  std::vector<TriggerEvent> events;
  auto id = db_.CreateTrigger("employees", TriggerKind::kUpdate, "",
                              [&](const TriggerEvent& e) {
                                events.push_back(e);
                              });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_.Execute("update employees set salary = 999").ok());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TriggerKind::kUpdate);
  EXPECT_EQ((*events[0].old_row)[2], Value::Int(100));
  EXPECT_EQ((*events[0].new_row)[2], Value::Int(999));
}

TEST_F(DatabaseTest, ColumnScopedUpdateTriggerSkipsUnchangedColumn) {
  int fired = 0;
  ASSERT_TRUE(db_.CreateTrigger("employees", TriggerKind::kUpdate, "salary",
                                [&](const TriggerEvent&) { ++fired; })
                  .ok());
  // Touching name only: salary unchanged, trigger must not fire.
  ASSERT_TRUE(
      db_.Execute("update employees set name = 'z' where empid = 1").ok());
  EXPECT_EQ(fired, 0);
  ASSERT_TRUE(
      db_.Execute("update employees set salary = 5 where empid = 1").ok());
  EXPECT_EQ(fired, 1);
  // No-op salary write (same value) also skipped.
  ASSERT_TRUE(
      db_.Execute("update employees set salary = 5 where empid = 1").ok());
  EXPECT_EQ(fired, 1);
}

TEST_F(DatabaseTest, InsertAndDeleteTriggers) {
  std::vector<TriggerKind> kinds;
  ASSERT_TRUE(db_.CreateTrigger("employees", TriggerKind::kInsert, "",
                                [&](const TriggerEvent& e) {
                                  kinds.push_back(e.kind);
                                  EXPECT_FALSE(e.old_row.has_value());
                                  EXPECT_TRUE(e.new_row.has_value());
                                })
                  .ok());
  ASSERT_TRUE(db_.CreateTrigger("employees", TriggerKind::kDelete, "",
                                [&](const TriggerEvent& e) {
                                  kinds.push_back(e.kind);
                                  EXPECT_TRUE(e.old_row.has_value());
                                  EXPECT_FALSE(e.new_row.has_value());
                                })
                  .ok());
  ASSERT_TRUE(db_.Execute("insert into employees values (5, 'eve', 10)").ok());
  ASSERT_TRUE(db_.Execute("delete from employees where empid = 5").ok());
  EXPECT_EQ(kinds,
            (std::vector<TriggerKind>{TriggerKind::kInsert,
                                      TriggerKind::kDelete}));
}

TEST_F(DatabaseTest, DropTriggerStopsFiring) {
  int fired = 0;
  auto id = db_.CreateTrigger("employees", TriggerKind::kUpdate, "",
                              [&](const TriggerEvent&) { ++fired; });
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_.Execute("update employees set salary = 1").ok());
  EXPECT_EQ(fired, 2);
  ASSERT_TRUE(db_.DropTrigger(*id).ok());
  ASSERT_TRUE(db_.Execute("update employees set salary = 2").ok());
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(db_.DropTrigger(*id).code(), StatusCode::kNotFound);
}

// A callback that creates triggers while its statement fires: the running
// trigger stays valid, and the new ones fire from the next statement on.
TEST_F(DatabaseTest, TriggerCreatedDuringFireFiresFromNextStatement) {
  int outer = 0;
  int inner = 0;
  ASSERT_TRUE(db_.CreateTrigger("employees", TriggerKind::kUpdate, "",
                                [&](const TriggerEvent&) {
                                  ++outer;
                                  for (int i = 0; i < 8; ++i) {
                                    ASSERT_TRUE(
                                        db_.CreateTrigger(
                                               "employees",
                                               TriggerKind::kUpdate, "",
                                               [&](const TriggerEvent&) {
                                                 ++inner;
                                               })
                                            .ok());
                                  }
                                })
                  .ok());
  ASSERT_TRUE(db_.Execute("update employees set salary = 1").ok());
  EXPECT_EQ(outer, 2);
  EXPECT_EQ(inner, 0);
  ASSERT_TRUE(
      db_.Execute("update employees set salary = 2 where empid = 1").ok());
  EXPECT_EQ(outer, 3);
  EXPECT_EQ(inner, 16);
}

// A trigger dropped by a callback of the statement firing it is skipped for
// the rest of that statement; one that drops itself finishes its call.
TEST_F(DatabaseTest, TriggerDroppedDuringFireIsSkipped) {
  int64_t victim = 0;
  int dropper_calls = 0;
  int victim_calls = 0;
  std::vector<std::string> seen;
  auto self = std::make_shared<int64_t>(0);
  std::string payload(64, 'p');  // heap-allocated: a destroyed callable shows
  auto dropper = db_.CreateTrigger(
      "employees", TriggerKind::kUpdate, "",
      [&, self, payload](const TriggerEvent&) {
        ++dropper_calls;
        (void)db_.DropTrigger(victim);
        (void)db_.DropTrigger(*self);
        seen.push_back(payload);  // reads the callable's own state
      });
  ASSERT_TRUE(dropper.ok());
  *self = *dropper;
  auto victim_id = db_.CreateTrigger("employees", TriggerKind::kUpdate, "",
                                     [&](const TriggerEvent&) {
                                       ++victim_calls;
                                     });
  ASSERT_TRUE(victim_id.ok());
  victim = *victim_id;
  ASSERT_TRUE(db_.Execute("update employees set salary = 7").ok());
  EXPECT_EQ(dropper_calls, 1);
  EXPECT_EQ(victim_calls, 0);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], payload);
  EXPECT_EQ(db_.DropTrigger(victim).code(), StatusCode::kNotFound);
}

// A callback may drop the very table whose statement is firing; the rest
// of the statement's rows are still delivered with the table's name.
TEST_F(DatabaseTest, TableDroppedDuringFire) {
  std::vector<std::string> tables;
  ASSERT_TRUE(db_.CreateTrigger("employees", TriggerKind::kUpdate, "",
                                [&](const TriggerEvent& e) {
                                  tables.push_back(e.table);
                                  (void)db_.Execute("drop table employees");
                                })
                  .ok());
  ASSERT_TRUE(db_.Execute("update employees set salary = 3").ok());
  EXPECT_EQ(tables,
            (std::vector<std::string>{"employees", "employees"}));
  EXPECT_FALSE(db_.HasTable("employees"));
}

TEST_F(DatabaseTest, TriggerOnMissingTableRejected) {
  EXPECT_EQ(db_.CreateTrigger("missing", TriggerKind::kUpdate, "",
                              [](const TriggerEvent&) {})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.CreateTrigger("employees", TriggerKind::kUpdate, "bogus",
                              [](const TriggerEvent&) {})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(DatabaseTest, TableNames) {
  ASSERT_TRUE(db_.Execute("create table aux (k str primary key, v any)").ok());
  auto names = db_.TableNames();
  EXPECT_EQ(names.size(), 2u);
}

}  // namespace
}  // namespace hcm::ris::relational
