#include "src/toolkit/translators/relational_translator.h"

#include <cassert>

#include "src/common/string_util.h"

namespace hcm::toolkit {

using ris::relational::PrepareSql;
using ris::relational::QueryResult;

RelationalTranslator::RelationalTranslator(
    RidConfig config, ris::relational::Database* db, sim::Executor* executor,
    sim::Network* network, trace::TraceRecorder* recorder,
    const sim::FailureInjector* failures)
    : Translator(std::move(config), executor, network, recorder, failures),
      db_(db) {
  commands_.reserve(rid().items.size());
  for (const RidItemMapping& m : rid().items) {
    commands_.push_back(Commands{
        PrepareSql(m.read_command), PrepareSql(m.write_command),
        PrepareSql(m.list_command), PrepareSql(m.insert_command),
        PrepareSql(m.delete_command)});
  }
}

Result<QueryResult> RelationalTranslator::Run(const RidItemMapping& mapping,
                                              Command Commands::*command,
                                              const std::vector<Value>& args,
                                              const Value* value) {
  // Every caller passes an element of rid().items.
  const size_t index = &mapping - rid().items.data();
  assert(index < commands_.size());
  Command& prepared = commands_[index].*command;
  if (!prepared.ok()) return prepared.status();
  return db_->Execute(*prepared, args, value);
}

Result<Value> RelationalTranslator::NativeRead(
    const RidItemMapping& mapping, const std::vector<Value>& args) {
  HCM_ASSIGN_OR_RETURN(QueryResult result,
                       Run(mapping, &Commands::read, args, nullptr));
  if (result.rows.empty()) {
    return Status::NotFound("no row for item " + mapping.item_base);
  }
  if (result.rows.size() > 1 || result.rows[0].size() != 1) {
    return Status::Corruption(
        StrFormat("read command for %s returned %zux%zu values, want 1x1",
                  mapping.item_base.c_str(), result.rows.size(),
                  result.rows.empty() ? 0 : result.rows[0].size()));
  }
  return std::move(result.rows[0][0]);
}

Status RelationalTranslator::NativeWrite(const RidItemMapping& mapping,
                                         const std::vector<Value>& args,
                                         const Value& value) {
  HCM_ASSIGN_OR_RETURN(QueryResult result,
                       Run(mapping, &Commands::write, args, &value));
  if (result.affected_rows == 0) {
    return Status::NotFound("write affected no rows for item " +
                            mapping.item_base);
  }
  return Status::OK();
}

Result<std::vector<std::vector<Value>>> RelationalTranslator::NativeList(
    const RidItemMapping& mapping) {
  if (mapping.list_command.empty()) {
    // Non-parameterized item: the single instance with no arguments.
    return std::vector<std::vector<Value>>{{}};
  }
  HCM_ASSIGN_OR_RETURN(QueryResult result,
                       Run(mapping, &Commands::list, {}, nullptr));
  return std::move(result.rows);
}

Status RelationalTranslator::NativeInsert(const RidItemMapping& mapping,
                                          const std::vector<Value>& args) {
  if (mapping.insert_command.empty()) {
    return Status::Unimplemented("no insert command for " +
                                 mapping.item_base);
  }
  return Run(mapping, &Commands::insert, args, nullptr).status();
}

Status RelationalTranslator::NativeDelete(const RidItemMapping& mapping,
                                          const std::vector<Value>& args) {
  if (mapping.delete_command.empty()) {
    return Status::Unimplemented("no delete command for " +
                                 mapping.item_base);
  }
  HCM_ASSIGN_OR_RETURN(QueryResult result,
                       Run(mapping, &Commands::del, args, nullptr));
  if (result.affected_rows == 0) {
    return Status::NotFound("delete affected no rows for item " +
                            mapping.item_base);
  }
  return Status::OK();
}
Status RelationalTranslator::InstallChangeHook(const RidItemMapping& mapping,
                                               ChangeHook hook) {
  // notify_hint: "trigger <table> <value-column> <key-column>...".
  std::vector<std::string> parts = StrSplitTrim(mapping.notify_hint, ' ');
  if (parts.size() < 3 || parts[0] != "trigger") {
    return Status::InvalidArgument(
        "relational notify_hint must be 'trigger <table> <column> "
        "[<keycol>...]', got: " +
        mapping.notify_hint);
  }
  const std::string table = parts[1];
  const std::string column = parts[2];
  std::vector<std::string> key_columns(parts.begin() + 3, parts.end());
  HCM_ASSIGN_OR_RETURN(const ris::relational::Table* t, db_->GetTable(table));
  HCM_ASSIGN_OR_RETURN(size_t value_idx, t->schema().ColumnIndex(column));
  std::vector<size_t> key_idx;
  for (const auto& k : key_columns) {
    HCM_ASSIGN_OR_RETURN(size_t idx, t->schema().ColumnIndex(k));
    key_idx.push_back(idx);
  }
  return db_
      ->CreateTrigger(
          table, ris::relational::TriggerKind::kUpdate, column,
          [hook = std::move(hook), value_idx,
           key_idx](const ris::relational::TriggerEvent& e) {
            std::vector<Value> args;
            args.reserve(key_idx.size());
            for (size_t idx : key_idx) args.push_back((*e.new_row)[idx]);
            hook(args, (*e.old_row)[value_idx], (*e.new_row)[value_idx]);
          })
      .status();
}

}  // namespace hcm::toolkit
