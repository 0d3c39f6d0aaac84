#ifndef RASQL_STORAGE_VALUE_H_
#define RASQL_STORAGE_VALUE_H_

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/hash.h"

namespace rasql::storage {

/// Column data types supported by the engine. The RaSQL workloads in the
/// paper use integers (vertex ids, counts), doubles (costs, bonuses) and
/// strings (company/member names).
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

/// Returns "NULL" / "INT" / "DOUBLE" / "STRING".
const char* ValueTypeName(ValueType type);

/// A single SQL value: a small tagged union. Numeric payloads live inline;
/// string payloads use std::string (SSO covers typical identifiers).
class Value {
 public:
  Value() : type_(ValueType::kNull), i64_(0) {}
  explicit Value(int64_t v) : type_(ValueType::kInt64), i64_(v) {}
  explicit Value(double v) : type_(ValueType::kDouble), f64_(v) {}
  explicit Value(std::string v)
      : type_(ValueType::kString), i64_(0), str_(std::move(v)) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  int64_t AsInt() const {
    RASQL_DCHECK(type_ == ValueType::kInt64);
    return i64_;
  }
  double AsDouble() const {
    RASQL_DCHECK(type_ == ValueType::kDouble);
    return f64_;
  }
  const std::string& AsString() const {
    RASQL_DCHECK(type_ == ValueType::kString);
    return str_;
  }

  /// Numeric value widened to double; valid for kInt64 and kDouble.
  double AsNumeric() const {
    RASQL_DCHECK(type_ == ValueType::kInt64 || type_ == ValueType::kDouble);
    return type_ == ValueType::kInt64 ? static_cast<double>(i64_) : f64_;
  }

  /// Ordering used for joins/aggregates/filters. Values of different types
  /// compare by type tag first (nulls lowest), except int64/double which
  /// compare numerically. NaN compares equal to every number here, so
  /// canonical sorting uses CanonicalCompare instead.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== (int64 and the equal double hash alike
  /// only when they are bit-identical integers; mixed-type keys do not occur
  /// in well-typed plans).
  uint64_t Hash() const;

  /// SQL-literal-ish rendering used by EXPLAIN and result printing.
  std::string ToString() const;

  /// Approximate in-memory/serialized footprint in bytes; feeds the shuffle
  /// and broadcast cost model.
  size_t ByteSize() const {
    return type_ == ValueType::kString ? 8 + str_.size() : 8;
  }

 private:
  ValueType type_;
  union {
    int64_t i64_;
    double f64_;
  };
  std::string str_;
};

/// Hash of a double, consistent with Value::Compare on integers: a double
/// holding an integer in int64 range hashes like that int64, so 1.0 and 1
/// meet in one hash bucket. Everything else — fractions, ±inf, NaN and
/// magnitudes at or beyond 2^63 — hashes its bit pattern. The upper bound
/// is strict because 2^63 itself is not an int64; -2^63 is INT64_MIN. Value,
/// ColumnChunk and GroupTable hash doubles through this one helper.
inline uint64_t HashDouble(double v) {
  double intpart;
  if (std::modf(v, &intpart) == 0.0 && intpart >= -9223372036854775808.0 &&
      intpart < 9223372036854775808.0) {
    return common::MixHash64(
        static_cast<uint64_t>(static_cast<int64_t>(intpart)));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return common::MixHash64(bits);
}

/// Value::Hash() of NULL.
inline constexpr uint64_t kNullHash = 0x9ae16a3b2f90404fULL;

/// The canonical three-way order on doubles: numeric order with -0.0 ==
/// 0.0, and NaN after every number and equal to every NaN. Unlike the raw
/// `<`/`>` pair (which makes NaN "equal" to everything), this is a total
/// order, so a sort under it is independent of input order (DESIGN.md §16).
inline int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  const bool a_nan = a != a;
  const bool b_nan = b != b;
  if (a_nan == b_nan) return 0;
  return a_nan ? 1 : -1;
}

/// The canonical value order: Value::Compare, except that NaN sorts after
/// every number and equal to NaN (CompareDoubles). RowLess, row sorting,
/// Dedup, SameBag and the fixpoint engines' canonical collect all use it.
int CanonicalCompare(const Value& a, const Value& b);

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace rasql::storage

#endif  // RASQL_STORAGE_VALUE_H_
