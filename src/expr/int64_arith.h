#ifndef RASQL_EXPR_INT64_ARITH_H_
#define RASQL_EXPR_INT64_ARITH_H_

#include <cstdint>

namespace rasql::expr {

/// Defined int64 arithmetic, shared by Expr::Eval and VecProgram's kernels
/// so row and batch mode agree bit for bit (DESIGN.md §5). +, -, * and
/// negation wrap in two's complement, as Spark's default (non-ANSI) long
/// arithmetic and Java do: they compute in uint64_t, whose overflow is
/// defined, and convert back modulo 2^64.
inline int64_t WrapAdd(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) +
                              static_cast<uint64_t>(y));
}

inline int64_t WrapSub(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) -
                              static_cast<uint64_t>(y));
}

inline int64_t WrapMul(int64_t x, int64_t y) {
  return static_cast<int64_t>(static_cast<uint64_t>(x) *
                              static_cast<uint64_t>(y));
}

inline int64_t WrapNeg(int64_t x) {
  return static_cast<int64_t>(uint64_t{0} - static_cast<uint64_t>(x));
}

/// Truncating division for y != 0 (callers turn y == 0 into NULL).
/// INT64_MIN / -1 wraps to INT64_MIN instead of trapping.
inline int64_t WrapDiv(int64_t x, int64_t y) {
  return y == -1 ? WrapNeg(x) : x / y;
}

}  // namespace rasql::expr

#endif  // RASQL_EXPR_INT64_ARITH_H_
