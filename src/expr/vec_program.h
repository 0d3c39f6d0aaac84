#ifndef RASQL_EXPR_VEC_PROGRAM_H_
#define RASQL_EXPR_VEC_PROGRAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "storage/column_chunk.h"
#include "storage/value.h"

namespace rasql::expr {

/// One evaluated expression over a chunk batch: a typed output column plus
/// a null mask, parallel to the selection vector it was evaluated under.
struct VecBatch {
  storage::ValueType tag = storage::ValueType::kNull;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint8_t> nulls;  ///< 1 = NULL; empty when none
  bool any_null = false;
  size_t size = 0;

  bool IsNull(size_t i) const { return any_null && nulls[i] != 0; }
  storage::Value ValueAt(size_t i) const {
    if (tag == storage::ValueType::kNull || IsNull(i)) {
      return storage::Value::Null();
    }
    return tag == storage::ValueType::kInt64 ? storage::Value::Int(i64[i])
                                             : storage::Value::Double(f64[i]);
  }
};

/// The vectorized expression layer: an Expr tree flattened to a postfix
/// program and executed column-at-a-time over ColumnChunk batches through a
/// selection vector (paper Sec. 7.3's whole-stage codegen, turned
/// sideways). Its kernels run Expr::Eval's semantics lane by lane — exact
/// int64 arithmetic and comparisons, SQL null propagation, dictionary-aware
/// string equality (DESIGN.md §15) — so batch mode never changes a result.
/// Operand slots are dense gathered arrays, so the per-instruction loops are
/// contiguous sweeps. A chunk whose layout the kernels cannot mirror exactly
/// (boxed variant columns, dynamic tag drift from the static types) makes
/// execution return false, and the caller interprets that chunk row by row
/// instead — same rows either way.
class VecProgram {
 public:
  /// Compiles `expr`; nullopt when the expression shape is outside what
  /// the kernels can mirror (the caller then keeps the row evaluator for
  /// every chunk).
  static std::optional<VecProgram> Compile(const Expr& expr);

  storage::ValueType output_type() const { return output_type_; }
  size_t program_size() const { return program_.size(); }

  /// One operand slot of the vector stack machine: a dense column of
  /// `size` values (gathered through the selection vector at load time).
  struct Slot {
    storage::ValueType tag = storage::ValueType::kNull;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<int32_t> codes;  ///< dictionary codes (string columns)
    const std::vector<std::string>* dict = nullptr;
    const std::string* literal = nullptr;  ///< string literal operand
    int src_col = -1;  ///< chunk column this slot was loaded from, or -1
    std::vector<uint8_t> nulls;  ///< 1 = NULL; valid when any_null
    bool any_null = false;
  };

  /// Reusable per-thread working state (slot arrays keep their capacity
  /// across chunks). Stack-allocated by callers, like ProbeScratch.
  struct Scratch {
    std::vector<Slot> stack;
    Slot tmp;  ///< binary-op result slot, swapped into the stack
  };

  /// Evaluates the program as a filter over `chunk` rows `(*sel)[...]`,
  /// compacting `*sel` in place to the surviving rows. Returns false —
  /// leaving `*sel` untouched — when this chunk needs the row fallback.
  bool FilterChunk(const storage::ColumnChunk& chunk,
                   std::vector<uint32_t>* sel, Scratch* scratch) const;

  /// Evaluates the program over `chunk` rows `sel[0..n)` into `*out`
  /// (typed column + null mask, parallel to `sel`). Returns false when
  /// this chunk needs the row fallback, or when the expression is
  /// string-valued (string results stay on the row path); `*out` is then
  /// unspecified.
  bool EvalChunk(const storage::ColumnChunk& chunk, const uint32_t* sel,
                 size_t n, Scratch* scratch, VecBatch* out) const;

  /// Postfix opcodes, one per Expr node kind and binary operator. Public
  /// only so the kernels in vec_program.cc can be free functions.
  enum class OpCode : uint8_t {
    kLoadColumn,
    kLoadConst,
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

 private:
  struct Instruction {
    OpCode op;
    int column = 0;              ///< kLoadColumn
    storage::Value constant;     ///< kLoadConst
    /// Static result type of the node (arithmetic picks int64 vs double
    /// lanes from this, exactly like EvalArithmetic's `out` parameter).
    storage::ValueType node_type = storage::ValueType::kDouble;
  };

  VecProgram() = default;

  bool Emit(const Expr& expr);

  /// Runs the program; on success the root slot is scratch->stack[0].
  bool Execute(const storage::ColumnChunk& chunk, const uint32_t* sel,
               size_t n, Scratch* scratch) const;

  bool LoadColumn(const storage::ColumnChunk& chunk, const uint32_t* sel,
                  size_t n, int col, Slot* out) const;

  std::vector<Instruction> program_;
  storage::ValueType output_type_ = storage::ValueType::kDouble;
  int max_stack_ = 0;
};

}  // namespace rasql::expr

#endif  // RASQL_EXPR_VEC_PROGRAM_H_
