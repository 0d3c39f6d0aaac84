#ifndef RASQL_EXPR_COMPILED_EXPR_H_
#define RASQL_EXPR_COMPILED_EXPR_H_

#include <optional>
#include <vector>

#include "expr/expr.h"
#include "storage/row.h"

namespace rasql::expr {

/// The single-core analogue of Spark's whole-stage code generation (paper
/// Sec. 7.3): expression trees are flattened to a postfix numeric program
/// executed on a small value stack, removing per-node virtual dispatch and
/// Value temporaries. Fused physical kernels run these programs in tight
/// loops; `bench_fig07_codegen` measures the effect.
///
/// Only numeric expressions compile; string expressions fall back to the
/// interpreted tree (mirroring Spark operators without codegen support).
class CompiledExpr {
 public:
  /// Deepest value stack a compiled program may need: EvalNumeric keeps
  /// its stack in a fixed array of this many slots.
  static constexpr int kMaxStack = 64;

  /// Attempts to compile `expr`. Returns nullopt when the expression uses
  /// non-numeric inputs, or nests so deep that its program would need
  /// more than kMaxStack stack slots — callers then interpret it.
  static std::optional<CompiledExpr> Compile(const Expr& expr);

  /// Evaluates to a double (comparisons/booleans yield 0.0 or 1.0).
  double EvalNumeric(const storage::Row& row) const;

  /// Evaluates as a predicate.
  bool EvalBool(const storage::Row& row) const {
    return EvalNumeric(row) != 0.0;
  }

  /// Evaluates to a typed Value matching the original expression type.
  storage::Value EvalValue(const storage::Row& row) const {
    const double v = EvalNumeric(row);
    return output_type_ == storage::ValueType::kInt64
               ? storage::Value::Int(static_cast<int64_t>(v))
               : storage::Value::Double(v);
  }

  storage::ValueType output_type() const { return output_type_; }

  /// Number of instructions — exposed for tests.
  size_t program_size() const { return program_.size(); }

 private:
  enum class OpCode : uint8_t {
    kLoadColumn,   // push row[operand] as numeric
    kLoadConst,    // push constant
    kAdd,
    kSub,
    kMul,
    kDiv,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kAnd,
    kOr,
    kNot,
    kNeg,
  };

  struct Instruction {
    OpCode op;
    int column = 0;
    double constant = 0.0;
  };

  CompiledExpr() = default;

  /// Emits postfix instructions for `expr`; false when not compilable.
  bool Emit(const Expr& expr);

  std::vector<Instruction> program_;
  storage::ValueType output_type_ = storage::ValueType::kDouble;
  // Stack depth bound computed at compile time (at most kMaxStack) so Eval
  // can use a fixed stack without bounds checks.
  int max_stack_ = 0;
};

}  // namespace rasql::expr

#endif  // RASQL_EXPR_COMPILED_EXPR_H_
