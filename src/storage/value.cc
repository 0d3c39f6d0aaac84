#include "storage/value.h"

#include <cstdio>

namespace rasql::storage {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

int Value::Compare(const Value& other) const {
  // Numeric cross-type comparison: int64 vs double compares by value.
  const bool lhs_num =
      type_ == ValueType::kInt64 || type_ == ValueType::kDouble;
  const bool rhs_num =
      other.type_ == ValueType::kInt64 || other.type_ == ValueType::kDouble;
  if (lhs_num && rhs_num) {
    if (type_ == ValueType::kInt64 && other.type_ == ValueType::kInt64) {
      if (i64_ < other.i64_) return -1;
      if (i64_ > other.i64_) return 1;
      return 0;
    }
    const double a = AsNumeric();
    const double b = other.AsNumeric();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case ValueType::kNull:
      return 0;
    case ValueType::kString:
      return str_.compare(other.str_) < 0   ? -1
             : str_.compare(other.str_) > 0 ? 1
                                            : 0;
    default:
      return 0;  // Unreachable: numeric handled above.
  }
}

int CanonicalCompare(const Value& a, const Value& b) {
  const bool a_num =
      a.type() == ValueType::kInt64 || a.type() == ValueType::kDouble;
  const bool b_num =
      b.type() == ValueType::kInt64 || b.type() == ValueType::kDouble;
  if (a_num && b_num) {
    if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
      return (a.AsInt() > b.AsInt()) - (a.AsInt() < b.AsInt());
    }
    return CompareDoubles(a.AsNumeric(), b.AsNumeric());
  }
  return a.Compare(b);
}

uint64_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return kNullHash;
    case ValueType::kInt64:
      return common::MixHash64(static_cast<uint64_t>(i64_));
    case ValueType::kDouble:
      return HashDouble(f64_);
    case ValueType::kString:
      return common::HashBytes(str_);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(i64_);
    case ValueType::kDouble: {
      // Non-finite doubles render as the canonical tokens "inf"/"-inf"/
      // "nan" — never the platform's %g spelling ("-nan", "1.#INF", ...)
      // — so every writer that delegates here emits cells strtod can
      // parse back (result_writer.h pins the same contract).
      if (f64_ != f64_) return "nan";
      if (f64_ == __builtin_huge_val()) return "inf";
      if (f64_ == -__builtin_huge_val()) return "-inf";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", f64_);
      return buf;
    }
    case ValueType::kString:
      return "'" + str_ + "'";
  }
  return "?";
}

}  // namespace rasql::storage
