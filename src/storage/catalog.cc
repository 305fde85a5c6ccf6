#include "storage/catalog.h"

#include "common/crc32.h"
#include "common/strings.h"
#include "storage/serializer.h"

namespace tvdp::storage {
namespace {

constexpr uint32_t kMagic = 0x54564450;  // "TVDP"
// v2 added the whole-body CRC32C; v1 (unchecksummed) files are rejected.
constexpr uint32_t kVersion = 2;

}  // namespace

Status Catalog::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name)) {
    return Status::AlreadyExists("table exists: " + name);
  }
  // Validate FK targets exist (self-references allowed).
  for (const Column& c : schema.columns()) {
    if (c.references && c.references->table != name &&
        !tables_.count(c.references->table)) {
      return Status::InvalidArgument(
          StrFormat("table %s: FK column %s references unknown table %s",
                    name.c_str(), c.name.c_str(),
                    c.references->table.c_str()));
    }
  }
  tables_[name] = std::make_unique<Table>(name, std::move(schema));
  return Status::OK();
}

Table* Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Result<RowId> Catalog::Insert(const std::string& table, Row row) {
  Table* t = GetTable(table);
  if (!t) return Status::NotFound("no such table: " + table);
  const auto& cols = t->schema().columns();
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = cols[i + 1];
    if (!col.references || row[i].is_null()) continue;
    if (row[i].type() != ValueType::kInt64) {
      return Status::InvalidArgument("FK column " + col.name +
                                     " must hold an int64 id");
    }
    const Table* target = col.references->table == table
                              ? t
                              : GetTable(col.references->table);
    if (!target || !target->Exists(row[i].AsInt64())) {
      return Status::FailedPrecondition(
          StrFormat("FK violation: %s.%s -> %s(%lld)", table.c_str(),
                    col.name.c_str(), col.references->table.c_str(),
                    static_cast<long long>(row[i].AsInt64())));
    }
  }
  return t->Insert(std::move(row));
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

std::vector<uint8_t> Catalog::Serialize() const {
  std::vector<const Table*> tables;
  tables.reserve(tables_.size());
  for (const auto& [_, table] : tables_) tables.push_back(table.get());
  return SerializeTables(tables);
}

std::vector<uint8_t> Catalog::SerializeTables(
    const std::vector<const Table*>& tables) {
  // Body first, so the header can carry its checksum: any single corrupted
  // byte anywhere in the output is detected on load (magic/version flips by
  // the field checks, everything else by the CRC).
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(tables.size()));
  for (const Table* table : tables) {
    w.WriteString(table->name());
    // Schema (excluding the implicit id column, re-added on load).
    const auto& cols = table->schema().columns();
    w.WriteU32(static_cast<uint32_t>(cols.size() - 1));
    for (size_t i = 1; i < cols.size(); ++i) {
      w.WriteString(cols[i].name);
      w.WriteU8(static_cast<uint8_t>(cols[i].type));
      w.WriteU8(cols[i].nullable ? 1 : 0);
      w.WriteString(cols[i].references ? cols[i].references->table : "");
    }
    w.WriteI64(table->next_id());
    // Rows.
    w.WriteU32(static_cast<uint32_t>(table->size()));
    table->ForEach([&](const Row& row) {
      w.WriteU32(static_cast<uint32_t>(row.size()));
      for (const Value& v : row) w.WriteValue(v);
      return true;
    });
  }
  std::vector<uint8_t> body = std::move(w.Take());

  BinaryWriter out;
  out.WriteU32(kMagic);
  out.WriteU32(kVersion);
  out.WriteU32(Crc32c(body));
  std::vector<uint8_t> framed = std::move(out.Take());
  framed.insert(framed.end(), body.begin(), body.end());
  return framed;
}

Result<Catalog> Catalog::Deserialize(const std::vector<uint8_t>& bytes) {
  BinaryReader r(bytes);
  TVDP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kMagic) return Status::IOError("bad catalog magic");
  TVDP_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kVersion) {
    return Status::IOError(StrFormat("unsupported catalog version %u", version));
  }
  TVDP_ASSIGN_OR_RETURN(uint32_t body_crc, r.ReadU32());
  if (Crc32c(bytes.data() + r.position(), bytes.size() - r.position()) !=
      body_crc) {
    return Status::IOError("catalog snapshot checksum mismatch");
  }
  TVDP_ASSIGN_OR_RETURN(uint32_t n_tables, r.ReadU32());
  Catalog catalog;
  for (uint32_t t = 0; t < n_tables; ++t) {
    TVDP_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    TVDP_ASSIGN_OR_RETURN(uint32_t n_cols, r.ReadU32());
    std::vector<Column> cols;
    for (uint32_t c = 0; c < n_cols; ++c) {
      Column col;
      TVDP_ASSIGN_OR_RETURN(col.name, r.ReadString());
      TVDP_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
      col.type = static_cast<ValueType>(type);
      TVDP_ASSIGN_OR_RETURN(uint8_t nullable, r.ReadU8());
      col.nullable = nullable != 0;
      TVDP_ASSIGN_OR_RETURN(std::string fk, r.ReadString());
      if (!fk.empty()) col.references = ForeignKey{fk};
      cols.push_back(std::move(col));
    }
    // Create without FK target validation (tables may arrive out of
    // dependency order in the sorted map).
    catalog.tables_[name] =
        std::make_unique<Table>(name, Schema(std::move(cols)));
    Table* table = catalog.tables_[name].get();
    TVDP_ASSIGN_OR_RETURN(int64_t next_id, r.ReadI64());
    TVDP_ASSIGN_OR_RETURN(uint32_t n_rows, r.ReadU32());
    for (uint32_t i = 0; i < n_rows; ++i) {
      TVDP_ASSIGN_OR_RETURN(uint32_t arity, r.ReadU32());
      // Each value needs at least its 1-byte tag; reject corrupted counts
      // before reserving.
      TVDP_RETURN_IF_ERROR(r.Need(arity));
      Row row;
      row.reserve(arity);
      for (uint32_t j = 0; j < arity; ++j) {
        TVDP_ASSIGN_OR_RETURN(Value v, r.ReadValue());
        row.push_back(std::move(v));
      }
      TVDP_RETURN_IF_ERROR(table->RestoreRow(std::move(row)));
    }
    table->SetNextId(next_id);
  }
  return catalog;
}

Status Catalog::SaveToFile(const std::string& path) const {
  return WriteFile(path, Serialize());
}

Result<Catalog> Catalog::LoadFromFile(const std::string& path) {
  TVDP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return Deserialize(bytes);
}

}  // namespace tvdp::storage
