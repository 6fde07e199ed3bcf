#ifndef STARBURST_CATALOG_SCHEMA_H_
#define STARBURST_CATALOG_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "common/datatype.h"

namespace starburst {

/// One column of a stored or derived table.
struct ColumnDef {
  std::string name;
  DataType type;
  bool nullable = true;
};

/// An ordered list of columns; the shape of every table, view, and
/// operator output in the system.
class TableSchema {
 public:
  TableSchema() = default;
  explicit TableSchema(std::vector<ColumnDef> columns)
      : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  void AddColumn(ColumnDef col) { columns_.push_back(std::move(col)); }

  /// The reserved position one past the stored columns: a scan that
  /// projects it emits the row's RID (Rid::Encode, an INT). Only the
  /// target of an UPDATE or DELETE exposes it; SQL can never name it.
  size_t rid_column() const { return columns_.size(); }

  /// Case-insensitive column lookup; nullopt if absent.
  std::optional<size_t> FindColumn(const std::string& name) const;

  /// "(partno INT, price DOUBLE)"
  std::string ToString() const;

 private:
  std::vector<ColumnDef> columns_;
};

/// Case-insensitive identifier comparison used throughout the catalog and
/// name resolution (Hydrogen identifiers are case-insensitive, as in SQL).
bool IdentEquals(const std::string& a, const std::string& b);
/// Canonical (upper-case) form of an identifier.
std::string IdentUpper(const std::string& s);

}  // namespace starburst

#endif  // STARBURST_CATALOG_SCHEMA_H_
