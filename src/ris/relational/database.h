#ifndef HCM_RIS_RELATIONAL_DATABASE_H_
#define HCM_RIS_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/ris/relational/sql.h"
#include "src/ris/relational/table.h"

namespace hcm::ris::relational {

// Result of executing one SQL statement. SELECT fills columns/rows; the
// mutating statements fill affected_rows.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  size_t affected_rows = 0;
};

// Kinds of data-change triggers.
enum class TriggerKind { kInsert, kUpdate, kDelete };

// Payload delivered to a trigger callback, Sybase "inserted/deleted table"
// style: old_row absent for inserts, new_row absent for deletes.
struct TriggerEvent {
  std::string table;
  TriggerKind kind;
  std::optional<Row> old_row;
  std::optional<Row> new_row;
};

class PreparedStatement;
struct Trigger;  // a registered trigger; defined in database.cc
using TriggerList = std::vector<std::shared_ptr<Trigger>>;

// A named, loosely-Sybase-flavored relational database: tables addressed by
// name, SQL-subset execution, and row-level triggers. This is the raw
// information source behind the toolkit's relational CM-Translator; the
// translator talks to it *only* through Execute() and CreateTrigger(), the
// way a real translator speaks the server's wire protocol.
class Database {
 public:
  explicit Database(std::string name);
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }

  // Parses one statement and runs it once, as a prepared statement with no
  // parameters.
  Result<QueryResult> Execute(const std::string& sql);

  // Runs a prepared statement with $1..$9 bound to `args` and $v to *value.
  // A parameter with no argument (or $v with no value) and a real that has
  // no SQL literal (NaN, +-Inf) are InvalidArgument errors.
  Result<QueryResult> Execute(PreparedStatement& stmt,
                              const std::vector<Value>& args,
                              const Value* value = nullptr);

  // Registers a row-level trigger. `column` restricts UPDATE triggers to
  // fire only when that column's value actually changes; pass "" for any
  // change. Returns a trigger id usable with DropTrigger. A trigger created
  // or dropped by a trigger callback takes effect from the next statement
  // on, except that a dropped trigger is never called again.
  Result<int64_t> CreateTrigger(const std::string& table, TriggerKind kind,
                                const std::string& column,
                                std::function<void(const TriggerEvent&)> fn);

  Status DropTrigger(int64_t trigger_id);

  // Direct (non-SQL) access used by tests and workload generators.
  Result<const Table*> GetTable(const std::string& table) const;
  bool HasTable(const std::string& table) const;
  std::vector<std::string> TableNames() const;

 private:
  Result<Table*> GetMutableTable(const std::string& table);
  // Resolves `stmt`'s table, column indexes and triggers against the
  // current schema and triggers.
  Status Resolve(PreparedStatement& stmt);
  std::shared_ptr<const TriggerList> TriggersOn(const std::string& table,
                                                TriggerKind kind) const;
  void FireTriggers(std::shared_ptr<const TriggerList> triggers,
                    const std::string& table, TriggerKind kind,
                    std::vector<RowChange>& changes);

  std::string name_;
  std::map<std::string, std::unique_ptr<Table>> tables_;  // key: lower name
  TriggerList triggers_;
  int64_t next_trigger_id_ = 1;
  // Changes whenever a table or trigger is created or dropped; unique across
  // all databases, so a prepared statement resolved at one generation never
  // mistakes another database's state for its own.
  uint64_t generation_;
};

// A statement parsed once and run many times (Database::Execute). Its
// $1..$9/$v parameters are slots each run binds; the table, column indexes,
// primary-key lookup and triggers it touches are resolved on the first run
// and again only after the database's tables or triggers change.
class PreparedStatement {
 public:
  explicit PreparedStatement(SqlTemplate parsed)
      : parsed_(std::move(parsed)) {}

 private:
  friend class Database;

  SqlTemplate parsed_;
  // The plan, valid while the database is at `generation_` (0: unresolved).
  uint64_t generation_ = 0;
  Table* table_ = nullptr;
  std::vector<size_t> columns_;  // insert: column per value; select: projection
  std::vector<Value> values_;    // insert values
  std::vector<Assignment> sets_;
  Predicate where_;
  std::vector<std::string> column_names_;  // select
  std::shared_ptr<const TriggerList> triggers_;  // null when none match
};

// Parses a CM-RID command template (see ParseSqlTemplate) into a prepared
// statement.
Result<PreparedStatement> PrepareSql(const std::string& command_template);

}  // namespace hcm::ris::relational

#endif  // HCM_RIS_RELATIONAL_DATABASE_H_
