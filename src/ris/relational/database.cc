#include "src/ris/relational/database.h"

#include <atomic>
#include <cmath>

#include "src/common/string_util.h"

namespace hcm::ris::relational {

struct Trigger {
  int64_t id;
  std::string table_lower;
  TriggerKind kind;
  int column_index;  // -1 = any column
  std::function<void(const TriggerEvent&)> fn;
  bool dropped = false;
};

namespace {

uint64_t NextGeneration() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// A bound value means what its rendering by ToSqlLiteral parses back to:
// the value itself, except for reals with no literal (NaN and +-Inf render
// as bare words) and subnormals, which the parser reads with strtod.
Status CheckBindable(const Value& v) {
  if (!v.is_real()) return Status::OK();
  double d = v.AsReal();
  if (std::isnormal(d) || d == 0) return Status::OK();
  if (!std::isfinite(d)) {
    return Status::InvalidArgument("expected literal, got '" + v.ToString() +
                                   "'");
  }
  return ParseDouble(v.ToString()).status();
}

}  // namespace

Result<PreparedStatement> PrepareSql(const std::string& command_template) {
  HCM_ASSIGN_OR_RETURN(SqlTemplate parsed,
                       ParseSqlTemplate(command_template));
  return PreparedStatement(std::move(parsed));
}

Database::Database(std::string name)
    : name_(std::move(name)), generation_(NextGeneration()) {}

Result<QueryResult> Database::Execute(const std::string& sql) {
  HCM_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  PreparedStatement prepared(SqlTemplate{std::move(stmt), {}});
  return Execute(prepared, {});
}

Result<Table*> Database::GetMutableTable(const std::string& table) {
  auto it = tables_.find(StrToLower(table));
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + table + "' in database " + name_);
  }
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& table) const {
  auto it = tables_.find(StrToLower(table));
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + table + "' in database " + name_);
  }
  return const_cast<const Table*>(it->second.get());
}

bool Database::HasTable(const std::string& table) const {
  return tables_.count(StrToLower(table)) > 0;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [key, table] : tables_) {
    out.push_back(table->schema().name());
    (void)key;
  }
  return out;
}

std::shared_ptr<const TriggerList> Database::TriggersOn(
    const std::string& table, TriggerKind kind) const {
  std::string table_lower = StrToLower(table);
  TriggerList matching;
  for (const auto& trig : triggers_) {
    if (trig->table_lower == table_lower && trig->kind == kind) {
      matching.push_back(trig);
    }
  }
  if (matching.empty()) return nullptr;
  return std::make_shared<const TriggerList>(std::move(matching));
}

Status Database::Resolve(PreparedStatement& stmt) {
  const Statement& parsed = stmt.parsed_.stmt;
  const std::string* table_name = nullptr;
  TriggerKind kind = TriggerKind::kInsert;
  const Predicate* where = nullptr;
  if (const auto* insert = std::get_if<InsertStmt>(&parsed)) {
    table_name = &insert->table;
  } else if (const auto* update = std::get_if<UpdateStmt>(&parsed)) {
    table_name = &update->table;
    kind = TriggerKind::kUpdate;
    where = &update->where;
  } else if (const auto* del = std::get_if<DeleteStmt>(&parsed)) {
    table_name = &del->table;
    kind = TriggerKind::kDelete;
    where = &del->where;
  } else if (const auto* select = std::get_if<SelectStmt>(&parsed)) {
    table_name = &select->table;
    where = &select->where;
  } else {
    return Status::OK();  // CREATE / DROP: nothing to resolve
  }

  HCM_ASSIGN_OR_RETURN(Table * table, GetMutableTable(*table_name));
  const TableSchema& schema = table->schema();
  stmt.columns_.clear();
  if (const auto* insert = std::get_if<InsertStmt>(&parsed)) {
    if (insert->columns.empty()) {
      if (insert->values.size() != schema.num_columns()) {
        return Status::InvalidArgument(
            StrFormat("insert into %s: %zu values for %zu columns",
                      insert->table.c_str(), insert->values.size(),
                      schema.num_columns()));
      }
      for (size_t i = 0; i < insert->values.size(); ++i) {
        stmt.columns_.push_back(i);
      }
    } else {
      if (insert->columns.size() != insert->values.size()) {
        return Status::InvalidArgument("insert column/value count mismatch");
      }
      for (const std::string& col : insert->columns) {
        HCM_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
        stmt.columns_.push_back(idx);
      }
    }
    stmt.values_ = insert->values;
  } else if (const auto* update = std::get_if<UpdateStmt>(&parsed)) {
    stmt.sets_.clear();
    for (const auto& [col, val] : update->sets) {
      HCM_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
      stmt.sets_.push_back(Assignment{idx, val});
    }
  }
  if (where != nullptr) {
    stmt.where_ = *where;
    HCM_RETURN_IF_ERROR(stmt.where_.Bind(schema));
  }
  if (const auto* select = std::get_if<SelectStmt>(&parsed)) {
    stmt.column_names_.clear();
    if (select->columns.empty()) {
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        stmt.columns_.push_back(i);
        stmt.column_names_.push_back(schema.columns()[i].name);
      }
    } else {
      for (const std::string& col : select->columns) {
        HCM_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
        stmt.columns_.push_back(idx);
        stmt.column_names_.push_back(schema.columns()[idx].name);
      }
    }
    stmt.triggers_ = nullptr;
  } else {
    stmt.triggers_ = TriggersOn(schema.name(), kind);
  }
  stmt.table_ = table;
  stmt.generation_ = generation_;
  return Status::OK();
}

Result<QueryResult> Database::Execute(PreparedStatement& stmt,
                                      const std::vector<Value>& args,
                                      const Value* value) {
  for (const ParamSlot& slot : stmt.parsed_.params) {
    if (slot.param == kValueParam) {
      if (value == nullptr) {
        return Status::InvalidArgument("command uses $v but no value given");
      }
      HCM_RETURN_IF_ERROR(CheckBindable(*value));
    } else {
      size_t idx = static_cast<size_t>(slot.param);
      if (idx >= args.size()) {
        return Status::InvalidArgument(
            StrFormat("command uses $%d but item has %zu argument(s)",
                      slot.param + 1, args.size()));
      }
      HCM_RETURN_IF_ERROR(CheckBindable(args[idx]));
    }
  }
  if (stmt.generation_ != generation_) HCM_RETURN_IF_ERROR(Resolve(stmt));
  for (const ParamSlot& slot : stmt.parsed_.params) {
    const Value& v = slot.param == kValueParam
                         ? *value
                         : args[static_cast<size_t>(slot.param)];
    switch (slot.site) {
      case ParamSlot::Site::kInsertValue:
        stmt.values_[slot.index] = v;
        break;
      case ParamSlot::Site::kSetValue:
        stmt.sets_[slot.index].value = v;
        break;
      case ParamSlot::Site::kWhereValue:
        stmt.where_.mutable_literal(slot.index) = v;
        break;
    }
  }

  QueryResult result;
  const Statement& parsed = stmt.parsed_.stmt;
  if (const auto* create = std::get_if<CreateTableStmt>(&parsed)) {
    std::string key = StrToLower(create->schema.name());
    if (tables_.count(key) > 0) {
      return Status::AlreadyExists("table already exists: " +
                                   create->schema.name());
    }
    tables_.emplace(key, std::make_unique<Table>(create->schema));
    generation_ = NextGeneration();
    return result;
  }
  if (const auto* drop = std::get_if<DropTableStmt>(&parsed)) {
    std::string key = StrToLower(drop->table);
    if (tables_.erase(key) == 0) {
      return Status::NotFound("no table '" + drop->table + "'");
    }
    generation_ = NextGeneration();
    return result;
  }
  Table* table = stmt.table_;
  const TableSchema& schema = table->schema();
  std::vector<RowChange> changes;
  std::vector<RowChange>* changes_out = stmt.triggers_ ? &changes : nullptr;
  if (std::holds_alternative<InsertStmt>(parsed)) {
    Row row(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < stmt.columns_.size(); ++i) {
      row[stmt.columns_[i]] = stmt.values_[i];
    }
    HCM_RETURN_IF_ERROR(table->Insert(row));
    result.affected_rows = 1;
    if (changes_out) changes.push_back(RowChange{std::nullopt, std::move(row)});
    FireTriggers(stmt.triggers_, schema.name(), TriggerKind::kInsert, changes);
  } else if (std::holds_alternative<UpdateStmt>(parsed)) {
    HCM_ASSIGN_OR_RETURN(result.affected_rows,
                         table->Update(stmt.where_, stmt.sets_, changes_out));
    FireTriggers(stmt.triggers_, schema.name(), TriggerKind::kUpdate, changes);
  } else if (std::holds_alternative<DeleteStmt>(parsed)) {
    HCM_ASSIGN_OR_RETURN(result.affected_rows,
                         table->Delete(stmt.where_, changes_out));
    FireTriggers(stmt.triggers_, schema.name(), TriggerKind::kDelete, changes);
  } else {
    result.columns = stmt.column_names_;
    result.rows = table->Select(stmt.where_, stmt.columns_);
  }
  return result;
}

Result<int64_t> Database::CreateTrigger(
    const std::string& table, TriggerKind kind, const std::string& column,
    std::function<void(const TriggerEvent&)> fn) {
  HCM_ASSIGN_OR_RETURN(const Table* t, GetTable(table));
  int column_index = -1;
  if (!column.empty()) {
    HCM_ASSIGN_OR_RETURN(size_t idx, t->schema().ColumnIndex(column));
    column_index = static_cast<int>(idx);
  }
  int64_t id = next_trigger_id_++;
  triggers_.push_back(std::make_shared<Trigger>(
      Trigger{id, StrToLower(table), kind, column_index, std::move(fn)}));
  generation_ = NextGeneration();
  return id;
}

Status Database::DropTrigger(int64_t trigger_id) {
  for (auto it = triggers_.begin(); it != triggers_.end(); ++it) {
    if ((*it)->id == trigger_id) {
      (*it)->dropped = true;
      triggers_.erase(it);
      generation_ = NextGeneration();
      return Status::OK();
    }
  }
  return Status::NotFound(StrFormat("no trigger %lld",
                                    static_cast<long long>(trigger_id)));
}

void Database::FireTriggers(std::shared_ptr<const TriggerList> triggers,
                            const std::string& table, TriggerKind kind,
                            std::vector<RowChange>& changes) {
  // `triggers` is the list that matched when the statement started, held
  // here so neither it nor a running callable dies while callbacks create
  // or drop triggers; a dropped one is skipped from then on. The name is
  // copied because a callback may drop the table that owns `table`.
  if (!triggers) return;
  const std::string table_name = table;
  for (RowChange& change : changes) {
    TriggerEvent event{table_name, kind, std::move(change.old_row),
                       std::move(change.new_row)};
    for (const auto& trig : *triggers) {
      if (trig->dropped) continue;
      if (kind == TriggerKind::kUpdate && trig->column_index >= 0) {
        size_t idx = static_cast<size_t>(trig->column_index);
        if (event.old_row.has_value() && event.new_row.has_value() &&
            (*event.old_row)[idx] == (*event.new_row)[idx]) {
          continue;  // watched column unchanged
        }
      }
      trig->fn(event);
    }
  }
}

}  // namespace hcm::ris::relational
