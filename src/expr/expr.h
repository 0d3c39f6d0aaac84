#ifndef RASQL_EXPR_EXPR_H_
#define RASQL_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/row.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace rasql::expr {

/// Binary operators supported in RaSQL scalar expressions.
enum class BinaryOp {
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
};

/// "+", "<=", "AND", ...
const char* BinaryOpName(BinaryOp op);

/// Aggregate functions usable both in normal GROUP BY queries and — the
/// paper's contribution — inside recursive CTE heads.
enum class AggregateFunction {
  kNone = 0,
  kMin,
  kMax,
  kSum,
  kCount,
};

/// "min", "max", "sum", "count".
const char* AggregateFunctionName(AggregateFunction fn);

/// A bound (column indices resolved, output type known) scalar expression.
/// Evaluation is the classic interpreted tree walk, the one scalar
/// semantics: VecProgram runs the same semantics column-at-a-time.
class Expr {
 public:
  enum class Kind {
    kColumnRef,
    kLiteral,
    kBinary,
    kNot,
    kNegate,
  };

  virtual ~Expr() = default;

  Kind kind() const { return kind_; }
  storage::ValueType output_type() const { return output_type_; }

  /// Evaluates against one input row.
  virtual storage::Value Eval(const storage::Row& row) const = 0;

  /// Expression rendering for EXPLAIN output.
  virtual std::string ToString() const = 0;

  /// Deep copy (plans are rewritten non-destructively by optimizer rules).
  virtual std::unique_ptr<Expr> Clone() const = 0;

 protected:
  Expr(Kind kind, storage::ValueType output_type)
      : kind_(kind), output_type_(output_type) {}

 private:
  Kind kind_;
  storage::ValueType output_type_;
};

using ExprPtr = std::unique_ptr<Expr>;

/// Reference to an input column by position.
class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(int index, storage::ValueType type, std::string name)
      : Expr(Kind::kColumnRef, type), index_(index), name_(std::move(name)) {}

  int index() const { return index_; }
  const std::string& name() const { return name_; }

  storage::Value Eval(const storage::Row& row) const override {
    return row[index_];
  }
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<ColumnRefExpr>(index_, output_type(), name_);
  }

 private:
  int index_;
  std::string name_;
};

/// A constant.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(storage::Value value)
      : Expr(Kind::kLiteral, value.type()), value_(std::move(value)) {}

  const storage::Value& value() const { return value_; }

  storage::Value Eval(const storage::Row& row) const override {
    return value_;
  }
  std::string ToString() const override { return value_.ToString(); }
  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value_);
  }

 private:
  storage::Value value_;
};

/// lhs OP rhs. Comparison/boolean results are int64 0/1.
class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs,
             storage::ValueType output_type)
      : Expr(Kind::kBinary, output_type),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  BinaryOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

  storage::Value Eval(const storage::Row& row) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<BinaryExpr>(op_, lhs_->Clone(), rhs_->Clone(),
                                        output_type());
  }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// NOT e (boolean) — int64 0/1.
class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr input)
      : Expr(Kind::kNot, storage::ValueType::kInt64),
        input_(std::move(input)) {}

  const Expr& input() const { return *input_; }

  storage::Value Eval(const storage::Row& row) const override;
  std::string ToString() const override {
    return "NOT (" + input_->ToString() + ")";
  }
  ExprPtr Clone() const override {
    return std::make_unique<NotExpr>(input_->Clone());
  }

 private:
  ExprPtr input_;
};

/// -e (numeric).
class NegateExpr final : public Expr {
 public:
  explicit NegateExpr(ExprPtr input)
      : Expr(Kind::kNegate, input->output_type()), input_(std::move(input)) {}

  const Expr& input() const { return *input_; }

  storage::Value Eval(const storage::Row& row) const override;
  std::string ToString() const override {
    return "-(" + input_->ToString() + ")";
  }
  ExprPtr Clone() const override {
    return std::make_unique<NegateExpr>(input_->Clone());
  }

 private:
  ExprPtr input_;
};

/// True when the value is a non-zero/non-null truthy predicate result.
inline bool IsTruthy(const storage::Value& v) {
  switch (v.type()) {
    case storage::ValueType::kInt64:
      return v.AsInt() != 0;
    case storage::ValueType::kDouble:
      return v.AsDouble() != 0.0;
    default:
      return false;
  }
}

/// Convenience constructors used by the analyzer, tests and benches.
ExprPtr MakeColumnRef(int index, storage::ValueType type,
                      std::string name = "");
ExprPtr MakeLiteral(storage::Value value);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);

/// Result type of `lhs op rhs` per SQL numeric-promotion rules; kNull when
/// the operand types are incompatible with the operator.
storage::ValueType BinaryResultType(BinaryOp op, storage::ValueType lhs,
                                    storage::ValueType rhs);

}  // namespace rasql::expr

#endif  // RASQL_EXPR_EXPR_H_
