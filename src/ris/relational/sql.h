#ifndef HCM_RIS_RELATIONAL_SQL_H_
#define HCM_RIS_RELATIONAL_SQL_H_

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/status.h"
#include "src/ris/relational/predicate.h"
#include "src/ris/relational/schema.h"

namespace hcm::ris::relational {

// Parsed statement forms for the SQL subset:
//   CREATE TABLE t (c1 TYPE [PRIMARY KEY], ...)
//   DROP TABLE t
//   INSERT INTO t [(c1, ...)] VALUES (v1, ...)
//   UPDATE t SET c = v [, ...] [WHERE c OP v [AND ...]]
//   DELETE FROM t [WHERE ...]
//   SELECT * | c1, ... FROM t [WHERE ...]
// Literals: 42, 3.5, 'text' ('' escapes a quote), true, false, null.

struct CreateTableStmt {
  TableSchema schema;
};

struct DropTableStmt {
  std::string table;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty = positional over all columns
  std::vector<Value> values;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, Value>> sets;
  Predicate where;
};

struct DeleteStmt {
  std::string table;
  Predicate where;
};

struct SelectStmt {
  std::string table;
  std::vector<std::string> columns;  // empty = *
  Predicate where;
};

using Statement = std::variant<CreateTableStmt, DropTableStmt, InsertStmt,
                               UpdateStmt, DeleteStmt, SelectStmt>;

// Parses one statement (an optional trailing ';' is accepted).
Result<Statement> ParseSql(const std::string& sql);

// The parameter number of $v; $1..$9 are parameters 0..8.
inline constexpr int kValueParam = 9;

// A parameter marker of a command template, standing in one literal
// position: the index-th InsertStmt value, UpdateStmt assignment or WHERE
// condition.
struct ParamSlot {
  enum class Site { kInsertValue, kSetValue, kWhereValue };
  Site site;
  size_t index;
  int param;  // 0..8 for $1..$9, kValueParam for $v
};

// A parsed command template: the statement, with Null at each parameter
// slot, and the slots in textual order.
struct SqlTemplate {
  Statement stmt;
  std::vector<ParamSlot> params;
};

// Parses a CM-RID command template. $1..$9 and $v are parameters and may
// stand only where a literal may; "$$" inside a quoted string is a '$'. A
// parameter anywhere else, including inside a quoted string, is an
// InvalidArgument error.
Result<SqlTemplate> ParseSqlTemplate(const std::string& command_template);

// Renders a Value as a SQL literal ('…' strings). Used by CM-RID command
// templates when substituting parameters into query text.
std::string ToSqlLiteral(const Value& v);

}  // namespace hcm::ris::relational

#endif  // HCM_RIS_RELATIONAL_SQL_H_
