#ifndef HCM_RIS_RELATIONAL_TABLE_H_
#define HCM_RIS_RELATIONAL_TABLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/ris/relational/predicate.h"
#include "src/ris/relational/schema.h"

namespace hcm::ris::relational {

// A changed row, reported to triggers: old_row is empty for inserts,
// new_row is empty for deletes.
struct RowChange {
  std::optional<Row> old_row;
  std::optional<Row> new_row;
};

// One column assignment in an UPDATE.
struct Assignment {
  size_t column_index;
  Value value;
};

// Heap-storage table with an equality index on the primary key. Rows are
// addressed internally by a monotonically increasing rowid, so deletions do
// not invalidate iteration order of the survivors.
class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }

  // Inserts after type-checking against the schema; duplicate primary keys
  // are rejected with AlreadyExists (Sybase-style unique violation).
  Status Insert(Row row);

  // Updates rows matching `pred` (must be bound to this schema). Returns the
  // number updated; appends per-row changes to `changes` when non-null.
  // Type-checks the assigned values; rejects PK updates that would collide.
  Result<size_t> Update(const Predicate& pred,
                        const std::vector<Assignment>& assignments,
                        std::vector<RowChange>* changes);

  // Deletes rows matching `pred`; appends removed rows to `changes`.
  Result<size_t> Delete(const Predicate& pred,
                        std::vector<RowChange>* changes);

  // Returns copies of rows matching `pred`, in insertion (rowid) order,
  // projected onto `columns` (indexes into the schema).
  std::vector<Row> Select(const Predicate& pred,
                          const std::vector<size_t>& columns) const;

  // Fast path: the row with the given primary key, if any.
  const Row* FindByPrimaryKey(const Value& key) const;

 private:
  // Rowids of rows matching `pred`, using the PK index when possible.
  std::vector<int64_t> MatchingRowids(const Predicate& pred) const;

  TableSchema schema_;
  int pk_index_;
  int64_t next_rowid_ = 0;
  std::map<int64_t, Row> rows_;
  std::unordered_map<Value, int64_t, ValueHash> pk_to_rowid_;
};

}  // namespace hcm::ris::relational

#endif  // HCM_RIS_RELATIONAL_TABLE_H_
