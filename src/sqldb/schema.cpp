#include "sqldb/schema.h"

#include "util/error.h"
#include "util/strings.h"

namespace perfdmf::sqldb {

void TableSchema::add_column(ColumnDef column) {
  if (find_column(column.name)) {
    throw DbError("duplicate column '" + column.name + "' in table " + name_);
  }
  if (column.primary_key) {
    if (primary_key_index()) {
      throw DbError("table " + name_ + " already has a primary key");
    }
    column.not_null = true;
  }
  columns_.push_back(std::move(column));
}

void TableSchema::drop_column(const std::string& name) {
  auto index = find_column(name);
  if (!index) throw DbError("no column '" + name + "' in table " + name_);
  if (columns_[*index].primary_key) {
    throw DbError("cannot drop primary key column '" + name + "'");
  }
  if (columns_.size() == 1) {
    throw DbError("cannot drop column '" + name + "': no other column in table " +
                  name_);
  }
  for (const auto& fk : foreign_keys_) {
    if (util::iequals(fk.column, name)) {
      throw DbError("cannot drop foreign key column '" + name + "'");
    }
  }
  columns_.erase(columns_.begin() + static_cast<std::ptrdiff_t>(*index));
}

std::optional<std::size_t> TableSchema::find_column(std::string_view name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (util::iequals(columns_[i].name, name)) return i;
  }
  return std::nullopt;
}

std::size_t TableSchema::column_index_or_throw(std::string_view name) const {
  auto index = find_column(name);
  if (!index) {
    throw DbError("no column '" + std::string(name) + "' in table " + name_);
  }
  return *index;
}

std::optional<std::size_t> TableSchema::primary_key_index() const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].primary_key) return i;
  }
  return std::nullopt;
}

Value coerce_for_column(const ColumnDef& column, const Value& value,
                        const std::string& table_name) {
  if (value.is_null()) {
    if (column.not_null) {
      throw DbError("NULL in NOT NULL column " + table_name + "." + column.name);
    }
    return value;
  }
  switch (column.type) {
    case ValueType::kInt:
      if (value.type() == ValueType::kInt) return value;
      if (value.type() == ValueType::kReal) return Value(value.as_int());
      break;
    case ValueType::kReal:
      if (value.type() == ValueType::kReal) return value;
      if (value.type() == ValueType::kInt) return Value(value.as_real());
      break;
    case ValueType::kText:
      if (value.type() == ValueType::kText) return value;
      // Store numerics as text when the column is declared TEXT; PerfDMF's
      // flexible metadata columns receive mixed content this way.
      return Value(value.to_string());
    case ValueType::kNull:
      return value;  // untyped column: store as given
  }
  throw DbError("type mismatch for " + table_name + "." + column.name + ": got " +
                value_type_name(value.type()) + ", column is " +
                value_type_name(column.type));
}

}  // namespace perfdmf::sqldb
