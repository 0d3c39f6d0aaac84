#include "expr/expr.h"

#include "common/check.h"
#include "expr/int64_arith.h"

namespace rasql::expr {

using storage::Value;
using storage::ValueType;

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

const char* AggregateFunctionName(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kNone:
      return "none";
    case AggregateFunction::kMin:
      return "min";
    case AggregateFunction::kMax:
      return "max";
    case AggregateFunction::kSum:
      return "sum";
    case AggregateFunction::kCount:
      return "count";
  }
  return "?";
}

std::string ColumnRefExpr::ToString() const {
  if (!name_.empty()) return name_ + "#" + std::to_string(index_);
  return "col#" + std::to_string(index_);
}

namespace {

Value EvalArithmetic(BinaryOp op, const Value& a, const Value& b,
                     ValueType out) {
  if (out == ValueType::kInt64) {
    const int64_t x = a.AsInt();
    const int64_t y = b.AsInt();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int(WrapAdd(x, y));
      case BinaryOp::kSub:
        return Value::Int(WrapSub(x, y));
      case BinaryOp::kMul:
        return Value::Int(WrapMul(x, y));
      case BinaryOp::kDiv:
        return y == 0 ? Value::Null() : Value::Int(WrapDiv(x, y));
      default:
        break;
    }
  }
  const double x = a.AsNumeric();
  const double y = b.AsNumeric();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Double(x + y);
    case BinaryOp::kSub:
      return Value::Double(x - y);
    case BinaryOp::kMul:
      return Value::Double(x * y);
    case BinaryOp::kDiv:
      return Value::Double(x / y);
    default:
      break;
  }
  RASQL_CHECK(false);
}

}  // namespace

Value BinaryExpr::Eval(const storage::Row& row) const {
  // Boolean connectives: SQL three-valued logic with a short circuit.
  // FALSE AND x is FALSE and TRUE OR x is TRUE, even when x is NULL;
  // otherwise a NULL operand makes the result NULL. `decisive` is the
  // truth value that settles the result on its own.
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    const bool decisive = op_ == BinaryOp::kOr;
    const Value a = lhs_->Eval(row);
    if (!a.is_null() && IsTruthy(a) == decisive) {
      return Value::Int(decisive ? 1 : 0);
    }
    const Value b = rhs_->Eval(row);
    if (!b.is_null() && IsTruthy(b) == decisive) {
      return Value::Int(decisive ? 1 : 0);
    }
    if (a.is_null() || b.is_null()) return Value::Null();
    return Value::Int(decisive ? 0 : 1);
  }

  const Value a = lhs_->Eval(row);
  const Value b = rhs_->Eval(row);
  if (a.is_null() || b.is_null()) return Value::Null();

  switch (op_) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return EvalArithmetic(op_, a, b, output_type());
    case BinaryOp::kEq:
      return Value::Int(a.Compare(b) == 0 ? 1 : 0);
    case BinaryOp::kNe:
      return Value::Int(a.Compare(b) != 0 ? 1 : 0);
    case BinaryOp::kLt:
      return Value::Int(a.Compare(b) < 0 ? 1 : 0);
    case BinaryOp::kLe:
      return Value::Int(a.Compare(b) <= 0 ? 1 : 0);
    case BinaryOp::kGt:
      return Value::Int(a.Compare(b) > 0 ? 1 : 0);
    case BinaryOp::kGe:
      return Value::Int(a.Compare(b) >= 0 ? 1 : 0);
    default:
      RASQL_CHECK(false);
  }
}

std::string BinaryExpr::ToString() const {
  return "(" + lhs_->ToString() + " " + BinaryOpName(op_) + " " +
         rhs_->ToString() + ")";
}

Value NotExpr::Eval(const storage::Row& row) const {
  const Value v = input_->Eval(row);
  if (v.is_null()) return Value::Null();  // NOT NULL is NULL
  return Value::Int(IsTruthy(v) ? 0 : 1);
}

Value NegateExpr::Eval(const storage::Row& row) const {
  const Value v = input_->Eval(row);
  if (v.is_null()) return Value::Null();
  if (v.type() == ValueType::kInt64) return Value::Int(WrapNeg(v.AsInt()));
  return Value::Double(-v.AsNumeric());
}

ExprPtr MakeColumnRef(int index, ValueType type, std::string name) {
  return std::make_unique<ColumnRefExpr>(index, type, std::move(name));
}

ExprPtr MakeLiteral(Value value) {
  return std::make_unique<LiteralExpr>(std::move(value));
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  const ValueType out =
      BinaryResultType(op, lhs->output_type(), rhs->output_type());
  return std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs), out);
}

ValueType BinaryResultType(BinaryOp op, ValueType lhs, ValueType rhs) {
  const bool lhs_num = lhs == ValueType::kInt64 || lhs == ValueType::kDouble;
  const bool rhs_num = rhs == ValueType::kInt64 || rhs == ValueType::kDouble;
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
      if (!lhs_num || !rhs_num) return ValueType::kNull;
      return (lhs == ValueType::kDouble || rhs == ValueType::kDouble)
                 ? ValueType::kDouble
                 : ValueType::kInt64;
    case BinaryOp::kDiv:
      if (!lhs_num || !rhs_num) return ValueType::kNull;
      return (lhs == ValueType::kDouble || rhs == ValueType::kDouble)
                 ? ValueType::kDouble
                 : ValueType::kInt64;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
      // Equality allowed between same-kind values (both numeric or both
      // strings).
      if ((lhs_num && rhs_num) ||
          (lhs == ValueType::kString && rhs == ValueType::kString)) {
        return ValueType::kInt64;
      }
      return ValueType::kNull;
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      if ((lhs_num && rhs_num) ||
          (lhs == ValueType::kString && rhs == ValueType::kString)) {
        return ValueType::kInt64;
      }
      return ValueType::kNull;
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      return (lhs_num && rhs_num) ? ValueType::kInt64 : ValueType::kNull;
  }
  return ValueType::kNull;
}

}  // namespace rasql::expr
