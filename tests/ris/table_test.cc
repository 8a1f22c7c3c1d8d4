#include "src/ris/relational/table.h"

#include <gtest/gtest.h>

namespace hcm::ris::relational {
namespace {

TableSchema EmployeeSchema() {
  return TableSchema("employees",
                     {{"empid", ColumnType::kInt, true},
                      {"name", ColumnType::kStr, false},
                      {"salary", ColumnType::kInt, false}});
}

Row Emp(int64_t id, const std::string& name, int64_t salary) {
  return {Value::Int(id), Value::Str(name), Value::Int(salary)};
}

Predicate BoundPredicate(const TableSchema& schema,
                         std::vector<Condition> conds) {
  Predicate p(std::move(conds));
  EXPECT_TRUE(p.Bind(schema).ok());
  return p;
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : table_(EmployeeSchema()) {
    EXPECT_TRUE(table_.Insert(Emp(1, "ann", 100)).ok());
    EXPECT_TRUE(table_.Insert(Emp(2, "bob", 200)).ok());
    EXPECT_TRUE(table_.Insert(Emp(3, "cat", 300)).ok());
  }
  Table table_;
};

TEST_F(TableTest, InsertAndSelectAll) {
  std::vector<Row> all = table_.Select(Predicate(), {0, 1, 2});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0][1], Value::Str("ann"));
  EXPECT_EQ(all[2][2], Value::Int(300));
}

TEST_F(TableTest, DuplicatePrimaryKeyRejected) {
  Status s = table_.Insert(Emp(2, "dup", 999));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(table_.num_rows(), 3u);
}

TEST_F(TableTest, NullPrimaryKeyRejected) {
  Status s = table_.Insert({Value::Null(), Value::Str("x"), Value::Int(1)});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(TableTest, TypeMismatchRejected) {
  Status s = table_.Insert({Value::Int(9), Value::Int(42), Value::Int(1)});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(TableTest, WrongArityRejected) {
  Status s = table_.Insert({Value::Int(9)});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(TableTest, FindByPrimaryKeyUsesIndex) {
  const Row* row = table_.FindByPrimaryKey(Value::Int(2));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[1], Value::Str("bob"));
  EXPECT_EQ(table_.FindByPrimaryKey(Value::Int(99)), nullptr);
}

TEST_F(TableTest, UpdateByPredicate) {
  auto pred = BoundPredicate(
      table_.schema(), {{"salary", CompareOp::kGe, Value::Int(200)}});
  std::vector<RowChange> changes;
  auto n = table_.Update(
      pred, {Assignment{2, Value::Int(500)}}, &changes);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ((*changes[0].old_row)[2], Value::Int(200));
  EXPECT_EQ((*changes[0].new_row)[2], Value::Int(500));
}

TEST_F(TableTest, UpdatePrimaryKeyMaintainsIndex) {
  auto pred = BoundPredicate(table_.schema(),
                             {{"empid", CompareOp::kEq, Value::Int(1)}});
  auto n = table_.Update(pred, {Assignment{0, Value::Int(10)}}, nullptr);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(table_.FindByPrimaryKey(Value::Int(1)), nullptr);
  ASSERT_NE(table_.FindByPrimaryKey(Value::Int(10)), nullptr);
}

TEST_F(TableTest, UpdatePrimaryKeyCollisionRejected) {
  auto pred = BoundPredicate(table_.schema(),
                             {{"empid", CompareOp::kEq, Value::Int(1)}});
  auto n = table_.Update(pred, {Assignment{0, Value::Int(2)}}, nullptr);
  EXPECT_EQ(n.status().code(), StatusCode::kAlreadyExists);
  // Unchanged.
  ASSERT_NE(table_.FindByPrimaryKey(Value::Int(1)), nullptr);
}

TEST_F(TableTest, UpdateTypeMismatchRejected) {
  auto n = table_.Update(Predicate(), {Assignment{2, Value::Str("oops")}},
                         nullptr);
  EXPECT_EQ(n.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TableTest, DeleteByPredicate) {
  auto pred = BoundPredicate(table_.schema(),
                             {{"salary", CompareOp::kLt, Value::Int(250)}});
  std::vector<RowChange> changes;
  auto n = table_.Delete(pred, &changes);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(table_.num_rows(), 1u);
  EXPECT_EQ(changes.size(), 2u);
  EXPECT_FALSE(changes[0].new_row.has_value());
  EXPECT_EQ(table_.FindByPrimaryKey(Value::Int(1)), nullptr);
}

TEST_F(TableTest, SelectWithPkEqualityUsesIndexPath) {
  auto pred = BoundPredicate(table_.schema(),
                             {{"empid", CompareOp::kEq, Value::Int(3)},
                              {"salary", CompareOp::kGt, Value::Int(250)}});
  std::vector<Row> rows = table_.Select(pred, {0, 1, 2});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Str("cat"));
  // PK matches but residual predicate does not.
  auto pred2 = BoundPredicate(table_.schema(),
                              {{"empid", CompareOp::kEq, Value::Int(3)},
                               {"salary", CompareOp::kLt, Value::Int(100)}});
  EXPECT_TRUE(table_.Select(pred2, {0, 1, 2}).empty());
}

TEST(TableNoPkTest, WorksWithoutPrimaryKey) {
  Table t(TableSchema("log", {{"line", ColumnType::kStr, false}}));
  EXPECT_TRUE(t.Insert({Value::Str("a")}).ok());
  EXPECT_TRUE(t.Insert({Value::Str("a")}).ok());  // duplicates fine
  EXPECT_EQ(t.Select(Predicate(), {0}).size(), 2u);
  EXPECT_EQ(t.FindByPrimaryKey(Value::Str("a")), nullptr);
}

TEST(CompareValuesTest, NullAndCrossKindSemantics) {
  EXPECT_TRUE(CompareValues(Value::Null(), CompareOp::kEq, Value::Null()));
  EXPECT_FALSE(CompareValues(Value::Null(), CompareOp::kEq, Value::Int(0)));
  EXPECT_TRUE(CompareValues(Value::Null(), CompareOp::kNe, Value::Int(0)));
  EXPECT_FALSE(CompareValues(Value::Null(), CompareOp::kLt, Value::Int(0)));
  EXPECT_FALSE(CompareValues(Value::Str("a"), CompareOp::kLt, Value::Int(1)));
  EXPECT_TRUE(CompareValues(Value::Int(1), CompareOp::kLt, Value::Real(1.5)));
  EXPECT_TRUE(CompareValues(Value::Str("a"), CompareOp::kLt, Value::Str("b")));
}

}  // namespace
}  // namespace hcm::ris::relational
