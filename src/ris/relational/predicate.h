#ifndef HCM_RIS_RELATIONAL_PREDICATE_H_
#define HCM_RIS_RELATIONAL_PREDICATE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/ris/relational/schema.h"

namespace hcm::ris::relational {

// Comparison operators usable in WHERE clauses.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpSymbol(CompareOp op);

// Applies `op` to two Values. Comparisons involving Null are false except
// Null == Null; ordering across non-comparable kinds is false.
bool CompareValues(const Value& lhs, CompareOp op, const Value& rhs);

// One conjunct: <column> <op> <literal>.
struct Condition {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;
};

// A conjunction of simple conditions — the WHERE clause shape the SQL
// subset supports. An empty predicate matches every row.
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Condition> conditions)
      : conditions_(std::move(conditions)) {}

  const std::vector<Condition>& conditions() const { return conditions_; }
  bool empty() const { return conditions_.empty(); }

  // Resolves column names, and the condition that pins the primary key,
  // against `schema` (error when a column is unknown).
  Status Bind(const TableSchema& schema);

  // The literal of the i-th condition, which a prepared statement rebinds
  // on every run without binding the predicate again.
  Value& mutable_literal(size_t i) { return conditions_[i].literal; }

  // Evaluates against a row. Precondition: Bind succeeded.
  bool Matches(const Row& row) const;

  // If the predicate pins the primary key with equality (e.g.
  // "empid = 17 and ..."), returns that literal; used for index lookups.
  // Null before Bind.
  const Value* PrimaryKeyEquality() const {
    return pk_condition_ < 0 ? nullptr
                             : &conditions_[static_cast<size_t>(pk_condition_)]
                                    .literal;
  }

  // "empid = 17 and salary > 1000"; "true" for the empty predicate.
  std::string ToString() const;

 private:
  std::vector<Condition> conditions_;
  std::vector<size_t> column_indexes_;  // filled by Bind
  int pk_condition_ = -1;               // filled by Bind
};

}  // namespace hcm::ris::relational

#endif  // HCM_RIS_RELATIONAL_PREDICATE_H_
