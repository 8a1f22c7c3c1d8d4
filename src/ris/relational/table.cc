#include "src/ris/relational/table.h"

#include "src/common/string_util.h"

namespace hcm::ris::relational {

Table::Table(TableSchema schema)
    : schema_(std::move(schema)), pk_index_(schema_.primary_key_index()) {}

Status Table::Insert(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(StrFormat(
        "insert into %s: %zu values for %zu columns", schema_.name().c_str(),
        row.size(), schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!ValueMatchesType(row[i], schema_.columns()[i].type)) {
      return Status::InvalidArgument(
          StrFormat("insert into %s: column %s expects %s, got %s",
                    schema_.name().c_str(), schema_.columns()[i].name.c_str(),
                    ColumnTypeName(schema_.columns()[i].type),
                    row[i].ToString().c_str()));
    }
  }
  if (pk_index_ >= 0) {
    const Value& key = row[static_cast<size_t>(pk_index_)];
    if (key.is_null()) {
      return Status::InvalidArgument("null primary key in " + schema_.name());
    }
    if (pk_to_rowid_.count(key) > 0) {
      return Status::AlreadyExists("duplicate primary key " + key.ToString() +
                                   " in " + schema_.name());
    }
    pk_to_rowid_.emplace(key, next_rowid_);
  }
  rows_.emplace(next_rowid_, std::move(row));
  ++next_rowid_;
  return Status::OK();
}

std::vector<int64_t> Table::MatchingRowids(const Predicate& pred) const {
  std::vector<int64_t> out;
  const Value* pk = pred.PrimaryKeyEquality();
  if (pk != nullptr) {
    auto it = pk_to_rowid_.find(*pk);
    if (it != pk_to_rowid_.end() && pred.Matches(rows_.at(it->second))) {
      out.push_back(it->second);
    }
    return out;
  }
  for (const auto& [rowid, row] : rows_) {
    if (pred.Matches(row)) out.push_back(rowid);
  }
  return out;
}

Result<size_t> Table::Update(const Predicate& pred,
                             const std::vector<Assignment>& assignments,
                             std::vector<RowChange>* changes) {
  for (const Assignment& a : assignments) {
    if (a.column_index >= schema_.num_columns()) {
      return Status::Internal("assignment column index out of range");
    }
    if (!ValueMatchesType(a.value, schema_.columns()[a.column_index].type)) {
      return Status::InvalidArgument(
          StrFormat("update %s: column %s expects %s, got %s",
                    schema_.name().c_str(),
                    schema_.columns()[a.column_index].name.c_str(),
                    ColumnTypeName(schema_.columns()[a.column_index].type),
                    a.value.ToString().c_str()));
    }
  }
  std::vector<int64_t> targets = MatchingRowids(pred);
  // Two passes: validate PK collisions first so the update is all-or-nothing.
  if (pk_index_ >= 0) {
    for (int64_t rowid : targets) {
      const Row& row = rows_.at(rowid);
      for (const Assignment& a : assignments) {
        if (static_cast<int>(a.column_index) != pk_index_) continue;
        if (a.value.is_null()) {
          return Status::InvalidArgument("null primary key in update of " +
                                         schema_.name());
        }
        auto it = pk_to_rowid_.find(a.value);
        if (it != pk_to_rowid_.end() && it->second != rowid) {
          return Status::AlreadyExists(
              "primary key collision on update in " + schema_.name());
        }
        (void)row;
      }
    }
  }
  for (int64_t rowid : targets) {
    Row& row = rows_.at(rowid);
    std::optional<Row> old_row;
    if (changes != nullptr) old_row = row;
    for (const Assignment& a : assignments) {
      if (static_cast<int>(a.column_index) == pk_index_) {
        pk_to_rowid_.erase(row[a.column_index]);
        pk_to_rowid_.emplace(a.value, rowid);
      }
      row[a.column_index] = a.value;
    }
    if (changes != nullptr) {
      changes->push_back(RowChange{std::move(old_row), row});
    }
  }
  return targets.size();
}

Result<size_t> Table::Delete(const Predicate& pred,
                             std::vector<RowChange>* changes) {
  std::vector<int64_t> targets = MatchingRowids(pred);
  for (int64_t rowid : targets) {
    auto it = rows_.find(rowid);
    if (pk_index_ >= 0) {
      pk_to_rowid_.erase(it->second[static_cast<size_t>(pk_index_)]);
    }
    if (changes != nullptr) {
      changes->push_back(RowChange{std::move(it->second), std::nullopt});
    }
    rows_.erase(it);
  }
  return targets.size();
}

std::vector<Row> Table::Select(const Predicate& pred,
                               const std::vector<size_t>& columns) const {
  std::vector<Row> out;
  for (int64_t rowid : MatchingRowids(pred)) {
    const Row& row = rows_.at(rowid);
    Row& projected = out.emplace_back();
    projected.reserve(columns.size());
    for (size_t idx : columns) projected.push_back(row[idx]);
  }
  return out;
}

const Row* Table::FindByPrimaryKey(const Value& key) const {
  auto it = pk_to_rowid_.find(key);
  if (it == pk_to_rowid_.end()) return nullptr;
  return &rows_.at(it->second);
}

}  // namespace hcm::ris::relational
