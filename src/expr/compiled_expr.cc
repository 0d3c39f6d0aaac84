#include "expr/compiled_expr.h"

#include "common/check.h"

namespace rasql::expr {

using storage::Value;
using storage::ValueType;

std::optional<CompiledExpr> CompiledExpr::Compile(const Expr& expr) {
  CompiledExpr compiled;
  if (!compiled.Emit(expr)) return std::nullopt;
  compiled.output_type_ = expr.output_type();
  // Postfix stack depth bound: every instruction pushes at most one value,
  // binary ops pop two. A simple simulation gives the exact bound.
  int depth = 0;
  int max_depth = 0;
  for (const Instruction& in : compiled.program_) {
    switch (in.op) {
      case OpCode::kLoadColumn:
      case OpCode::kLoadConst:
        ++depth;
        break;
      case OpCode::kNot:
      case OpCode::kNeg:
        break;  // pop 1, push 1
      default:
        --depth;  // pop 2, push 1
        break;
    }
    if (depth > max_depth) max_depth = depth;
  }
  if (max_depth > kMaxStack) return std::nullopt;
  compiled.max_stack_ = max_depth;
  return compiled;
}

bool CompiledExpr::Emit(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (ref.output_type() != ValueType::kInt64 &&
          ref.output_type() != ValueType::kDouble) {
        return false;
      }
      program_.push_back({OpCode::kLoadColumn, ref.index(), 0.0});
      return true;
    }
    case Expr::Kind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(expr);
      if (lit.value().type() != ValueType::kInt64 &&
          lit.value().type() != ValueType::kDouble) {
        return false;
      }
      program_.push_back({OpCode::kLoadConst, 0, lit.value().AsNumeric()});
      return true;
    }
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      if (!Emit(bin.lhs()) || !Emit(bin.rhs())) return false;
      OpCode op;
      switch (bin.op()) {
        case BinaryOp::kAdd:
          op = OpCode::kAdd;
          break;
        case BinaryOp::kSub:
          op = OpCode::kSub;
          break;
        case BinaryOp::kMul:
          op = OpCode::kMul;
          break;
        case BinaryOp::kDiv:
          op = OpCode::kDiv;
          break;
        case BinaryOp::kEq:
          op = OpCode::kEq;
          break;
        case BinaryOp::kNe:
          op = OpCode::kNe;
          break;
        case BinaryOp::kLt:
          op = OpCode::kLt;
          break;
        case BinaryOp::kLe:
          op = OpCode::kLe;
          break;
        case BinaryOp::kGt:
          op = OpCode::kGt;
          break;
        case BinaryOp::kGe:
          op = OpCode::kGe;
          break;
        case BinaryOp::kAnd:
          op = OpCode::kAnd;
          break;
        case BinaryOp::kOr:
          op = OpCode::kOr;
          break;
        default:
          return false;
      }
      program_.push_back({op, 0, 0.0});
      return true;
    }
    case Expr::Kind::kNot: {
      const auto& un = static_cast<const NotExpr&>(expr);
      if (!Emit(un.input())) return false;
      program_.push_back({OpCode::kNot, 0, 0.0});
      return true;
    }
    case Expr::Kind::kNegate: {
      const auto& un = static_cast<const NegateExpr&>(expr);
      if (!Emit(un.input())) return false;
      program_.push_back({OpCode::kNeg, 0, 0.0});
      return true;
    }
  }
  return false;
}

double CompiledExpr::EvalNumeric(const storage::Row& row) const {
  // The stack lives on the C++ stack; Compile rejects programs deeper than
  // kMaxStack and max_stack_ is an exact bound.
  double stack[kMaxStack];
  RASQL_DCHECK(max_stack_ <= kMaxStack);
  int sp = 0;
  for (const Instruction& in : program_) {
    switch (in.op) {
      case OpCode::kLoadColumn: {
        const Value& v = row[in.column];
        stack[sp++] = v.type() == ValueType::kInt64
                          ? static_cast<double>(v.AsInt())
                          : v.AsDouble();
        break;
      }
      case OpCode::kLoadConst:
        stack[sp++] = in.constant;
        break;
      case OpCode::kAdd:
        --sp;
        stack[sp - 1] += stack[sp];
        break;
      case OpCode::kSub:
        --sp;
        stack[sp - 1] -= stack[sp];
        break;
      case OpCode::kMul:
        --sp;
        stack[sp - 1] *= stack[sp];
        break;
      case OpCode::kDiv:
        --sp;
        stack[sp - 1] /= stack[sp];
        break;
      case OpCode::kEq:
        --sp;
        stack[sp - 1] = stack[sp - 1] == stack[sp] ? 1.0 : 0.0;
        break;
      case OpCode::kNe:
        --sp;
        stack[sp - 1] = stack[sp - 1] != stack[sp] ? 1.0 : 0.0;
        break;
      case OpCode::kLt:
        --sp;
        stack[sp - 1] = stack[sp - 1] < stack[sp] ? 1.0 : 0.0;
        break;
      case OpCode::kLe:
        --sp;
        stack[sp - 1] = stack[sp - 1] <= stack[sp] ? 1.0 : 0.0;
        break;
      case OpCode::kGt:
        --sp;
        stack[sp - 1] = stack[sp - 1] > stack[sp] ? 1.0 : 0.0;
        break;
      case OpCode::kGe:
        --sp;
        stack[sp - 1] = stack[sp - 1] >= stack[sp] ? 1.0 : 0.0;
        break;
      case OpCode::kAnd:
        --sp;
        stack[sp - 1] =
            (stack[sp - 1] != 0.0 && stack[sp] != 0.0) ? 1.0 : 0.0;
        break;
      case OpCode::kOr:
        --sp;
        stack[sp - 1] =
            (stack[sp - 1] != 0.0 || stack[sp] != 0.0) ? 1.0 : 0.0;
        break;
      case OpCode::kNot:
        stack[sp - 1] = stack[sp - 1] == 0.0 ? 1.0 : 0.0;
        break;
      case OpCode::kNeg:
        stack[sp - 1] = -stack[sp - 1];
        break;
    }
  }
  RASQL_DCHECK(sp == 1);
  return stack[0];
}

}  // namespace rasql::expr
