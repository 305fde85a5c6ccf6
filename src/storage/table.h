#ifndef TVDP_STORAGE_TABLE_H_
#define TVDP_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace tvdp::storage {

/// Primary key type (matches index::RecordId).
using RowId = int64_t;

/// An in-memory heap table with an auto-increment primary key, schema
/// validation, row scans, and point lookups via a pk hash map.
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t size() const { return pk_index_.size(); }

  /// Inserts a row (all columns except id); returns the assigned id.
  Result<RowId> Insert(Row row);

  /// The full row (including id at position 0) for `id`, read in place:
  /// the pointer is valid until this table next changes. A table published
  /// in an MVCC snapshot never changes, so there it lives as long as the
  /// pin. Callers that keep the row past that copy it.
  Result<const Row*> Get(RowId id) const;

  /// Deletes row `id` (tombstone; space is reused on save/load).
  Status Delete(RowId id);

  /// True iff a live row with `id` exists.
  bool Exists(RowId id) const { return pk_index_.count(id) > 0; }

  /// All rows where column `column` equals `v` (scan with equality).
  Result<std::vector<Row>> FindBy(const std::string& column,
                                  const Value& v) const;

  /// Calls `fn` for every live row; stops early if `fn` returns false.
  void ForEach(const std::function<bool(const Row&)>& fn) const;

  /// The next id that would be assigned (for tests/serialization).
  RowId next_id() const { return next_id_; }

  /// Internal: appends a fully formed row with explicit id (load path).
  Status RestoreRow(Row row_with_id);
  void SetNextId(RowId id) { next_id_ = id; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;                       // includes id column
  std::vector<bool> live_;
  std::unordered_map<RowId, size_t> pk_index_;  // id -> slot
  RowId next_id_ = 1;
};

/// An immutable table set: the per-version view of the catalog published
/// in an MVCC snapshot. Clean tables are shared (same shared_ptr) across
/// consecutive versions; only tables touched by a commit are copied.
using TableSet = std::map<std::string, std::shared_ptr<const Table>>;

}  // namespace tvdp::storage

#endif  // TVDP_STORAGE_TABLE_H_
