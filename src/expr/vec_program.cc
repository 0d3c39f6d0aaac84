#include "expr/vec_program.h"

#include <utility>

#include "common/check.h"
#include "expr/int64_arith.h"

namespace rasql::expr {

using storage::ColumnChunk;
using storage::Value;
using storage::ValueType;

std::optional<VecProgram> VecProgram::Compile(const Expr& expr) {
  VecProgram program;
  if (!program.Emit(expr)) return std::nullopt;
  program.output_type_ = expr.output_type();
  // Postfix stack depth bound: Execute sizes its slot stack from it.
  int depth = 0;
  int max_depth = 0;
  for (const Instruction& in : program.program_) {
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
  program.max_stack_ = max_depth;
  return program;
}

bool VecProgram::Emit(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      Instruction in;
      in.op = OpCode::kLoadColumn;
      in.column = ref.index();
      in.node_type = ref.output_type();
      program_.push_back(std::move(in));
      return true;
    }
    case Expr::Kind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(expr);
      Instruction in;
      in.op = OpCode::kLoadConst;
      in.constant = lit.value();
      in.node_type = lit.value().type();
      program_.push_back(std::move(in));
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
      // Interpreter arithmetic dispatches int64-vs-double lanes on the
      // node's static type; a non-numeric static type means the analyzer
      // never produced this shape — leave it to the row path.
      if ((op == OpCode::kAdd || op == OpCode::kSub || op == OpCode::kMul ||
           op == OpCode::kDiv) &&
          expr.output_type() != ValueType::kInt64 &&
          expr.output_type() != ValueType::kDouble) {
        return false;
      }
      Instruction in;
      in.op = op;
      in.node_type = expr.output_type();
      program_.push_back(std::move(in));
      return true;
    }
    case Expr::Kind::kNot: {
      const auto& un = static_cast<const NotExpr&>(expr);
      if (!Emit(un.input())) return false;
      Instruction in;
      in.op = OpCode::kNot;
      in.node_type = ValueType::kInt64;
      program_.push_back(std::move(in));
      return true;
    }
    case Expr::Kind::kNegate: {
      const auto& un = static_cast<const NegateExpr&>(expr);
      if (!Emit(un.input())) return false;
      if (expr.output_type() == ValueType::kString) return false;
      Instruction in;
      in.op = OpCode::kNeg;
      in.node_type = expr.output_type();
      program_.push_back(std::move(in));
      return true;
    }
  }
  return false;
}

namespace {

using OpCode = VecProgram::OpCode;
using Slot = VecProgram::Slot;

inline void ResetPointers(Slot* s) {
  s->dict = nullptr;
  s->literal = nullptr;
  s->src_col = -1;
}

inline void ResetF64(Slot* s, size_t n) {
  s->tag = ValueType::kDouble;
  s->f64.resize(n);
  s->any_null = false;
  s->nulls.clear();
  ResetPointers(s);
}

inline void ResetInt(Slot* s, size_t n) {
  s->tag = ValueType::kInt64;
  s->i64.resize(n);
  s->any_null = false;
  s->nulls.clear();
  ResetPointers(s);
}

inline void ResetNull(Slot* s) {
  s->tag = ValueType::kNull;
  s->any_null = false;
  s->nulls.clear();
  ResetPointers(s);
}

/// NULL lane test; slots whose tag is kNull are handled before lane loops.
inline bool LaneNull(const Slot& s, size_t i) {
  return s.any_null && s.nulls[i] != 0;
}

/// NULL lane test that also covers a kNull-tagged slot (every lane NULL).
inline bool SlotLaneNull(const Slot& s, size_t i) {
  return s.tag == ValueType::kNull || LaneNull(s, i);
}

/// IsTruthy over a lane: NULLs and strings are never truthy.
inline bool SlotTruthy(const Slot& s, size_t i) {
  switch (s.tag) {
    case ValueType::kInt64:
      return !LaneNull(s, i) && s.i64[i] != 0;
    case ValueType::kDouble:
      return !LaneNull(s, i) && s.f64[i] != 0.0;
    default:
      return false;
  }
}

/// Numeric lane widened to double — Value::AsNumeric on the dynamic tag.
inline double SlotNum(const Slot& s, size_t i) {
  return s.tag == ValueType::kInt64 ? static_cast<double>(s.i64[i])
                                    : s.f64[i];
}

/// ORs the operand null masks into `out` and zeroes the null lanes of the
/// freshly computed payload, keeping the "null lanes hold 0" invariant that
/// bounds the values downstream lanes compute on.
void CombineNulls(const Slot& a, const Slot& b, size_t n, Slot* out) {
  if (!a.any_null && !b.any_null) {
    out->any_null = false;
    out->nulls.clear();
    return;
  }
  out->nulls.resize(n);
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t nl = LaneNull(a, i) || LaneNull(b, i) ? 1 : 0;
    out->nulls[i] = nl;
    any |= nl != 0;
    if (nl) {
      if (out->tag == ValueType::kInt64) {
        out->i64[i] = 0;
      } else {
        out->f64[i] = 0.0;
      }
    }
  }
  out->any_null = any;
}

void CopyNulls(const Slot& a, Slot* out) {
  if (!a.any_null) {
    out->any_null = false;
    out->nulls.clear();
    return;
  }
  out->nulls = a.nulls;
  out->any_null = true;
}

// ---------------------------------------------------------------------------
// Kernels: typed lanes, SQL null propagation, exact int64 arithmetic and
// comparisons, dictionary-aware string equality. Any shape the lanes
// cannot mirror exactly (boxed columns, dynamic tag drift from the static
// types) returns false and the caller interprets the chunk row by row.
// ---------------------------------------------------------------------------

/// Applies a three-way comparison result exactly like BinaryExpr::Eval's
/// Compare dispatch (NaN operands yield c == 0, so Eq/Le/Ge hold).
inline int64_t ApplyCmp(OpCode op, int c) {
  switch (op) {
    case OpCode::kEq:
      return c == 0 ? 1 : 0;
    case OpCode::kNe:
      return c != 0 ? 1 : 0;
    case OpCode::kLt:
      return c < 0 ? 1 : 0;
    case OpCode::kLe:
      return c <= 0 ? 1 : 0;
    case OpCode::kGt:
      return c > 0 ? 1 : 0;
    default:
      return c >= 0 ? 1 : 0;  // kGe
  }
}

/// The lane string of a string slot: a dictionary entry or the literal.
inline const std::string& LaneString(const Slot& s, size_t i) {
  return s.literal != nullptr ? *s.literal : (*s.dict)[s.codes[i]];
}

bool InterpCompareStrings(OpCode op, const ColumnChunk& chunk,
                          const Slot& a, const Slot& b, size_t n, Slot* out) {
  ResetInt(out, n);
  int64_t* o = out->i64.data();
  const bool has_nulls = a.any_null || b.any_null;
  if (has_nulls) out->nulls.assign(n, 0);
  bool any = false;
  auto mark_null = [&](size_t i) {
    o[i] = 0;
    out->nulls[i] = 1;
    any = true;
  };

  const bool equality = op == OpCode::kEq || op == OpCode::kNe;
  const Slot* col = nullptr;
  const Slot* lit = nullptr;
  if (a.literal != nullptr && b.literal == nullptr) {
    col = &b;
    lit = &a;
  } else if (b.literal != nullptr && a.literal == nullptr) {
    col = &a;
    lit = &b;
  }

  if (equality && col != nullptr) {
    // Dictionary-aware equality: resolve the literal to a code once and
    // compare codes — materialized strings never enter the loop. A literal
    // absent from the dictionary gets code -1, which no non-null lane
    // carries.
    const int32_t code = chunk.FindDictCode(
        static_cast<size_t>(col->src_col), *lit->literal);
    const int32_t* codes = col->codes.data();
    const bool want_eq = op == OpCode::kEq;
    for (size_t i = 0; i < n; ++i) {
      if (has_nulls && (LaneNull(a, i) || LaneNull(b, i))) {
        mark_null(i);
        continue;
      }
      o[i] = (codes[i] == code) == want_eq ? 1 : 0;
    }
    out->any_null = any;
    return true;
  }
  if (equality && a.literal == nullptr && b.literal == nullptr &&
      a.dict == b.dict) {
    // Same column on both sides: codes are directly comparable.
    const bool want_eq = op == OpCode::kEq;
    for (size_t i = 0; i < n; ++i) {
      if (has_nulls && (LaneNull(a, i) || LaneNull(b, i))) {
        mark_null(i);
        continue;
      }
      o[i] = (a.codes[i] == b.codes[i]) == want_eq ? 1 : 0;
    }
    out->any_null = any;
    return true;
  }
  // General case (ordering comparisons, cross-dictionary equality):
  // per-lane string comparison with the same sign convention as
  // Value::Compare.
  for (size_t i = 0; i < n; ++i) {
    if (has_nulls && (LaneNull(a, i) || LaneNull(b, i))) {
      mark_null(i);
      continue;
    }
    const int raw = LaneString(a, i).compare(LaneString(b, i));
    o[i] = ApplyCmp(op, raw < 0 ? -1 : raw > 0 ? 1 : 0);
  }
  out->any_null = any;
  return true;
}

bool InterpBinary(OpCode op, ValueType node_type, const ColumnChunk& chunk,
                  const Slot& a, const Slot& b, size_t n, Slot* out) {
  // Boolean connectives first, in SQL three-valued logic: a lane where
  // either operand holds the decisive truth value (FALSE for AND, TRUE for
  // OR) takes it; otherwise a NULL operand lane makes the lane NULL. Eager
  // evaluation of both operand slots equals the interpreter's short
  // circuit because expressions are side-effect free.
  if (op == OpCode::kAnd || op == OpCode::kOr) {
    const bool decisive = op == OpCode::kOr;
    ResetInt(out, n);
    int64_t* o = out->i64.data();
    const bool may_null = a.tag == ValueType::kNull ||
                          b.tag == ValueType::kNull || a.any_null ||
                          b.any_null;
    if (may_null) out->nulls.assign(n, 0);
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      const bool a_null = SlotLaneNull(a, i);
      const bool b_null = SlotLaneNull(b, i);
      if ((!a_null && SlotTruthy(a, i) == decisive) ||
          (!b_null && SlotTruthy(b, i) == decisive)) {
        o[i] = decisive ? 1 : 0;
      } else if (a_null || b_null) {
        o[i] = 0;
        out->nulls[i] = 1;
        any = true;
      } else {
        o[i] = decisive ? 0 : 1;
      }
    }
    out->any_null = any;
    if (!any) out->nulls.clear();
    return true;
  }
  // A NULL operand makes every lane NULL (arithmetic and comparisons).
  if (a.tag == ValueType::kNull || b.tag == ValueType::kNull) {
    ResetNull(out);
    return true;
  }

  const bool a_num =
      a.tag == ValueType::kInt64 || a.tag == ValueType::kDouble;
  const bool b_num =
      b.tag == ValueType::kInt64 || b.tag == ValueType::kDouble;

  switch (op) {
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv: {
      if (!a_num || !b_num) return false;  // dynamic drift into strings
      if (node_type == ValueType::kInt64) {
        // EvalArithmetic's int64 lane; a double slot here means the chunk's
        // dynamic types drifted from the static plan — row fallback.
        if (a.tag != ValueType::kInt64 || b.tag != ValueType::kInt64) {
          return false;
        }
        ResetInt(out, n);
        const int64_t* x = a.i64.data();
        const int64_t* y = b.i64.data();
        int64_t* o = out->i64.data();
        if (op == OpCode::kDiv) {
          // y == 0 yields NULL (SQL); WrapDiv defines INT64_MIN / -1.
          out->nulls.assign(n, 0);
          bool any = false;
          for (size_t i = 0; i < n; ++i) {
            if (LaneNull(a, i) || LaneNull(b, i) || y[i] == 0) {
              o[i] = 0;
              out->nulls[i] = 1;
              any = true;
            } else {
              o[i] = WrapDiv(x[i], y[i]);
            }
          }
          out->any_null = any;
          if (!any) out->nulls.clear();
          return true;
        }
        switch (op) {
          case OpCode::kAdd:
            for (size_t i = 0; i < n; ++i) o[i] = WrapAdd(x[i], y[i]);
            break;
          case OpCode::kSub:
            for (size_t i = 0; i < n; ++i) o[i] = WrapSub(x[i], y[i]);
            break;
          default:
            for (size_t i = 0; i < n; ++i) o[i] = WrapMul(x[i], y[i]);
            break;
        }
        CombineNulls(a, b, n, out);
        return true;
      }
      ResetF64(out, n);
      double* o = out->f64.data();
      switch (op) {
        case OpCode::kAdd:
          for (size_t i = 0; i < n; ++i) o[i] = SlotNum(a, i) + SlotNum(b, i);
          break;
        case OpCode::kSub:
          for (size_t i = 0; i < n; ++i) o[i] = SlotNum(a, i) - SlotNum(b, i);
          break;
        case OpCode::kMul:
          for (size_t i = 0; i < n; ++i) o[i] = SlotNum(a, i) * SlotNum(b, i);
          break;
        default:
          for (size_t i = 0; i < n; ++i) o[i] = SlotNum(a, i) / SlotNum(b, i);
          break;
      }
      CombineNulls(a, b, n, out);
      return true;
    }
    case OpCode::kEq:
    case OpCode::kNe:
    case OpCode::kLt:
    case OpCode::kLe:
    case OpCode::kGt:
    case OpCode::kGe: {
      if (a_num && b_num) {
        ResetInt(out, n);
        int64_t* o = out->i64.data();
        if (a.tag == ValueType::kInt64 && b.tag == ValueType::kInt64) {
          const int64_t* x = a.i64.data();
          const int64_t* y = b.i64.data();
          for (size_t i = 0; i < n; ++i) {
            o[i] = ApplyCmp(op, x[i] < y[i] ? -1 : x[i] > y[i] ? 1 : 0);
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            const double x = SlotNum(a, i);
            const double y = SlotNum(b, i);
            o[i] = ApplyCmp(op, x < y ? -1 : x > y ? 1 : 0);
          }
        }
        CombineNulls(a, b, n, out);
        return true;
      }
      if (a.tag == ValueType::kString && b.tag == ValueType::kString) {
        return InterpCompareStrings(op, chunk, a, b, n, out);
      }
      return false;  // mixed string/numeric lanes: Compare's type-tag order
    }
    default:
      return false;
  }
}

void InterpNot(const Slot& a, size_t n, Slot* out) {
  // NOT NULL is NULL: a NULL slot stays NULL, and NULL lanes keep their
  // mask (and the "null lanes hold 0" invariant).
  if (a.tag == ValueType::kNull) {
    ResetNull(out);
    return;
  }
  ResetInt(out, n);
  int64_t* o = out->i64.data();
  for (size_t i = 0; i < n; ++i) o[i] = SlotTruthy(a, i) ? 0 : 1;
  CopyNulls(a, out);
  if (out->any_null) {
    for (size_t i = 0; i < n; ++i) {
      if (out->nulls[i]) o[i] = 0;
    }
  }
}

bool InterpNeg(const Slot& a, size_t n, Slot* out) {
  switch (a.tag) {
    case ValueType::kNull:
      ResetNull(out);
      return true;
    case ValueType::kInt64: {
      ResetInt(out, n);
      const int64_t* x = a.i64.data();
      int64_t* o = out->i64.data();
      for (size_t i = 0; i < n; ++i) o[i] = WrapNeg(x[i]);
      CopyNulls(a, out);
      return true;
    }
    case ValueType::kDouble: {
      ResetF64(out, n);
      const double* x = a.f64.data();
      double* o = out->f64.data();
      for (size_t i = 0; i < n; ++i) o[i] = -x[i];
      CopyNulls(a, out);
      // Keep the "null lanes hold 0" invariant (-0.0 would survive).
      if (out->any_null) {
        for (size_t i = 0; i < n; ++i) {
          if (out->nulls[i]) o[i] = 0.0;
        }
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

bool VecProgram::LoadColumn(const ColumnChunk& chunk, const uint32_t* sel,
                            size_t n, int col, Slot* out) const {
  const ColumnChunk::ColumnData& cd = chunk.column(static_cast<size_t>(col));
  if (cd.variant) return false;  // mixed types: row-at-a-time territory
  switch (cd.tag) {
    case ValueType::kNull:
      ResetNull(out);
      return true;
    case ValueType::kInt64:
      ResetInt(out, n);
      chunk.GatherI64(static_cast<size_t>(col), sel, n, out->i64.data());
      break;
    case ValueType::kDouble:
      ResetF64(out, n);
      chunk.GatherF64(static_cast<size_t>(col), sel, n, out->f64.data());
      break;
    case ValueType::kString:
      out->tag = ValueType::kString;
      out->codes.resize(n);
      out->f64.clear();
      out->i64.clear();
      chunk.GatherCodes(static_cast<size_t>(col), sel, n, out->codes.data());
      out->dict = &cd.dict;
      out->literal = nullptr;
      break;
  }
  out->src_col = col;
  if (cd.null_count == 0) {
    out->any_null = false;
    out->nulls.clear();
  } else {
    out->nulls.resize(n);
    out->any_null =
        chunk.GatherNulls(static_cast<size_t>(col), sel, n, out->nulls.data());
    if (!out->any_null) out->nulls.clear();
  }
  return true;
}

bool VecProgram::Execute(const ColumnChunk& chunk, const uint32_t* sel,
                         size_t n, Scratch* scratch) const {
  std::vector<Slot>& stack = scratch->stack;
  if (stack.size() < static_cast<size_t>(max_stack_)) {
    stack.resize(static_cast<size_t>(max_stack_));
  }
  int sp = 0;
  for (const Instruction& in : program_) {
    switch (in.op) {
      case OpCode::kLoadColumn:
        if (!LoadColumn(chunk, sel, n, in.column, &stack[sp])) return false;
        ++sp;
        break;
      case OpCode::kLoadConst: {
        Slot& s = stack[sp];
        ++sp;
        switch (in.constant.type()) {
          case ValueType::kNull:
            ResetNull(&s);
            break;
          case ValueType::kInt64:
            ResetInt(&s, n);
            for (size_t i = 0; i < n; ++i) s.i64[i] = in.constant.AsInt();
            break;
          case ValueType::kDouble:
            ResetF64(&s, n);
            for (size_t i = 0; i < n; ++i) s.f64[i] = in.constant.AsDouble();
            break;
          case ValueType::kString:
            s.tag = ValueType::kString;
            s.codes.clear();
            s.dict = nullptr;
            s.literal = &in.constant.AsString();
            s.src_col = -1;
            s.any_null = false;
            s.nulls.clear();
            break;
        }
        break;
      }
      case OpCode::kNot:
        InterpNot(stack[sp - 1], n, &scratch->tmp);
        std::swap(stack[sp - 1], scratch->tmp);
        break;
      case OpCode::kNeg:
        if (!InterpNeg(stack[sp - 1], n, &scratch->tmp)) return false;
        std::swap(stack[sp - 1], scratch->tmp);
        break;
      default: {
        Slot& a = stack[sp - 2];
        Slot& b = stack[sp - 1];
        --sp;
        if (!InterpBinary(in.op, in.node_type, chunk, a, b, n,
                          &scratch->tmp)) {
          return false;
        }
        std::swap(a, scratch->tmp);
        break;
      }
    }
  }
  RASQL_DCHECK(sp == 1);
  return true;
}

bool VecProgram::FilterChunk(const ColumnChunk& chunk,
                             std::vector<uint32_t>* sel,
                             Scratch* scratch) const {
  const size_t n = sel->size();
  if (n == 0) return true;
  if (!Execute(chunk, sel->data(), n, scratch)) return false;
  const Slot& root = scratch->stack[0];
  uint32_t* s = sel->data();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (SlotTruthy(root, i)) s[kept++] = s[i];
  }
  sel->resize(kept);
  return true;
}

bool VecProgram::EvalChunk(const ColumnChunk& chunk, const uint32_t* sel,
                           size_t n, Scratch* scratch, VecBatch* out) const {
  if (!Execute(chunk, sel, n, scratch)) return false;
  Slot& root = scratch->stack[0];
  out->size = n;
  switch (root.tag) {
    case ValueType::kNull:
      out->tag = ValueType::kNull;
      out->nulls.clear();
      out->any_null = false;
      return true;
    case ValueType::kInt64:
      out->tag = ValueType::kInt64;
      out->i64.swap(root.i64);
      break;
    case ValueType::kDouble:
      out->tag = ValueType::kDouble;
      out->f64.swap(root.f64);
      break;
    case ValueType::kString:
      return false;  // string-valued expressions stay on the row path
  }
  out->any_null = root.any_null;
  if (root.any_null) {
    out->nulls.swap(root.nulls);
  } else {
    out->nulls.clear();
  }
  return true;
}

}  // namespace rasql::expr
