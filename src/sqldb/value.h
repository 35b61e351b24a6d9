// Typed SQL values.
//
// The engine supports the four types PerfDMF's schema needs: NULL,
// 64-bit integers, doubles, and text. Comparison follows SQL semantics
// where the engine needs them (NULL sorts first in ORDER BY; predicate
// three-valued logic is handled in expr_eval, not here).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace perfdmf::sqldb {

enum class ValueType { kNull, kInt, kReal, kText };

const char* value_type_name(ValueType type);

class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(std::int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value null() { return Value(); }

  ValueType type() const;
  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }

  /// Accessors throw DbError when the type does not match (numeric
  /// coercion int<->real is allowed; see as_real / as_int).
  std::int64_t as_int() const;
  double as_real() const;
  const std::string& as_text() const;

  /// Render for display (the on-disk encoding is sqldb/codec.h's).
  std::string to_string() const;

  /// Total ordering used by indexes and ORDER BY: NULL < numbers < text;
  /// ints and reals compare numerically across types.
  friend bool operator<(const Value& a, const Value& b) { return a.compare(b) < 0; }
  friend bool operator==(const Value& a, const Value& b) { return a.compare(b) == 0; }
  friend bool operator!=(const Value& a, const Value& b) { return a.compare(b) != 0; }
  friend bool operator<=(const Value& a, const Value& b) { return a.compare(b) <= 0; }
  friend bool operator>(const Value& a, const Value& b) { return a.compare(b) > 0; }
  friend bool operator>=(const Value& a, const Value& b) { return a.compare(b) >= 0; }

  /// -1 / 0 / +1 total ordering (see operator<).
  int compare(const Value& other) const;

  /// Hash consistent with operator== (ints and equal-valued reals collide).
  std::size_t hash() const;

 private:
  std::variant<std::monostate, std::int64_t, double, std::string> data_;
};

struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.hash(); }
};

}  // namespace perfdmf::sqldb
