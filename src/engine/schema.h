// Typed rows and their binary codec.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace sias {

enum class ColumnType : uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

struct Column {
  std::string name;
  ColumnType type;
};

/// Ordered column list of a table.
class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<Column> cols) : columns_(cols) {}
  explicit Schema(std::vector<Column> cols) : columns_(std::move(cols)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

 private:
  std::vector<Column> columns_;
};

/// One cell value.
using Value = std::variant<int64_t, double, std::string>;

/// A typed row. Values must match the schema positionally.
class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  Value& value(size_t i) { return values_[i]; }

  int64_t GetInt(size_t i) const { return std::get<int64_t>(values_[i]); }
  double GetDouble(size_t i) const { return std::get<double>(values_[i]); }
  const std::string& GetString(size_t i) const {
    return std::get<std::string>(values_[i]);
  }

  void Append(Value v) { values_.push_back(std::move(v)); }
  void Set(size_t i, Value v) { values_[i] = std::move(v); }

  /// Serializes according to `schema`; row arity/types must match.
  Status Encode(const Schema& schema, std::string* out) const;

  /// Parses bytes produced by Encode.
  static Result<Row> Decode(const Schema& schema, Slice data);

  bool operator==(const Row&) const = default;

 private:
  std::vector<Value> values_;
};

}  // namespace sias
