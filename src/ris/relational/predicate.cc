#include "src/ris/relational/predicate.h"

#include <cassert>

#include "src/common/string_util.h"

namespace hcm::ris::relational {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool CompareValues(const Value& lhs, CompareOp op, const Value& rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return !(lhs == rhs);
    default:
      break;
  }
  // Ordering: only meaningful within numerics or within strings.
  bool comparable = (lhs.is_numeric() && rhs.is_numeric()) ||
                    (lhs.is_str() && rhs.is_str()) ||
                    (lhs.is_bool() && rhs.is_bool());
  if (!comparable) return false;
  bool lt = lhs < rhs;
  bool eq = lhs == rhs;
  switch (op) {
    case CompareOp::kLt:
      return lt;
    case CompareOp::kLe:
      return lt || eq;
    case CompareOp::kGt:
      return !lt && !eq;
    case CompareOp::kGe:
      return !lt;
    default:
      return false;
  }
}

Status Predicate::Bind(const TableSchema& schema) {
  column_indexes_.clear();
  column_indexes_.reserve(conditions_.size());
  pk_condition_ = -1;
  const int pk_index = schema.primary_key_index();
  for (const Condition& c : conditions_) {
    HCM_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(c.column));
    if (pk_condition_ < 0 && c.op == CompareOp::kEq &&
        static_cast<int>(idx) == pk_index) {
      pk_condition_ = static_cast<int>(column_indexes_.size());
    }
    column_indexes_.push_back(idx);
  }
  return Status::OK();
}

bool Predicate::Matches(const Row& row) const {
  assert(column_indexes_.size() == conditions_.size() &&
         "Predicate::Bind must be called before Matches");
  for (size_t i = 0; i < conditions_.size(); ++i) {
    const Value& cell = row[column_indexes_[i]];
    if (!CompareValues(cell, conditions_[i].op, conditions_[i].literal)) {
      return false;
    }
  }
  return true;
}

std::string Predicate::ToString() const {
  if (conditions_.empty()) return "true";
  std::vector<std::string> parts;
  parts.reserve(conditions_.size());
  for (const Condition& c : conditions_) {
    parts.push_back(c.column + " " + CompareOpSymbol(c.op) + " " +
                    c.literal.ToString());
  }
  return StrJoin(parts, " and ");
}

}  // namespace hcm::ris::relational
