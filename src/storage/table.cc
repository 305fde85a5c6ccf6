#include "storage/table.h"

#include "common/strings.h"

namespace tvdp::storage {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Result<RowId> Table::Insert(Row row) {
  TVDP_RETURN_IF_ERROR(schema_.ValidateRow(row));
  RowId id = next_id_++;
  Row full;
  full.reserve(row.size() + 1);
  full.emplace_back(id);
  for (auto& v : row) full.push_back(std::move(v));
  pk_index_[id] = rows_.size();
  rows_.push_back(std::move(full));
  live_.push_back(true);
  return id;
}

Result<const Row*> Table::Get(RowId id) const {
  auto it = pk_index_.find(id);
  if (it == pk_index_.end()) {
    return Status::NotFound(StrFormat("%s: no row %lld", name_.c_str(),
                                      static_cast<long long>(id)));
  }
  return &rows_[it->second];
}

Status Table::Delete(RowId id) {
  auto it = pk_index_.find(id);
  if (it == pk_index_.end()) {
    return Status::NotFound(StrFormat("%s: no row %lld", name_.c_str(),
                                      static_cast<long long>(id)));
  }
  live_[it->second] = false;
  pk_index_.erase(it);
  return Status::OK();
}

Result<std::vector<Row>> Table::FindBy(const std::string& column,
                                       const Value& v) const {
  int idx = schema_.ColumnIndex(column);
  if (idx < 0) {
    return Status::InvalidArgument(name_ + ": no column " + column);
  }
  std::vector<Row> out;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (live_[i] && rows_[i][static_cast<size_t>(idx)] == v) {
      out.push_back(rows_[i]);
    }
  }
  return out;
}

void Table::ForEach(const std::function<bool(const Row&)>& fn) const {
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (live_[i] && !fn(rows_[i])) return;
  }
}

Status Table::RestoreRow(Row row_with_id) {
  if (row_with_id.empty() || row_with_id[0].type() != ValueType::kInt64) {
    return Status::InvalidArgument("restored row missing id");
  }
  RowId id = row_with_id[0].AsInt64();
  if (pk_index_.count(id)) {
    return Status::AlreadyExists(StrFormat("%s: duplicate id %lld",
                                           name_.c_str(),
                                           static_cast<long long>(id)));
  }
  pk_index_[id] = rows_.size();
  rows_.push_back(std::move(row_with_id));
  live_.push_back(true);
  if (id >= next_id_) next_id_ = id + 1;
  return Status::OK();
}

}  // namespace tvdp::storage
