// Property suite for the vectorized expression layer (DESIGN.md §15):
// randomized expression trees over mixed int64/double/string chunks with
// nulls, NaN and int64 extremes, evaluated by expr::VecProgram
// column-at-a-time and by the interpreted Expr tree, must produce exactly
// the same Values (bit-identical doubles, wrapped int64) and the same
// filter survivors. Chunk shapes the kernels cannot mirror must be declined
// (return false, selection vector untouched), never answered approximately.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expr/expr.h"
#include "expr/vec_program.h"
#include "storage/relation.h"

namespace rasql {
namespace {

using common::Rng;
using expr::BinaryOp;
using expr::Expr;
using expr::ExprPtr;
using expr::VecBatch;
using expr::VecProgram;
using storage::ColumnChunk;
using storage::Relation;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

// Exact equality, distinguishing it from Value::operator== where doubles
// are concerned: NaN must equal NaN of the same bit pattern, and -0.0 must
// not equal +0.0 — the contract is byte-identical results, not SQL equality.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt() == b.AsInt();
    case ValueType::kDouble: {
      uint64_t ba;
      uint64_t bb;
      const double da = a.AsDouble();
      const double db = b.AsDouble();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

std::string Describe(const Value& v) {
  return v.is_null() ? "NULL" : v.ToString();
}

// ---- Random data ---------------------------------------------------------

// Columns: I (int64), D (double, with NaN lanes), S (dictionary string),
// J (second int64). One int64 lane in four holds an edge value, so
// arithmetic overflows, divides INT64_MIN by -1 and by 0, and loses
// precision in double.
int64_t RandomInt(Rng* rng) {
  static const int64_t kEdges[] = {
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::min() + 1,
      -1,
      0,
      1,
      std::numeric_limits<int64_t>::max(),
      (int64_t{1} << 53) - 1,
      (int64_t{1} << 53) + 1};
  if (rng->NextBounded(4) == 0) {
    return kEdges[rng->NextBounded(std::size(kEdges))];
  }
  return rng->NextInRange(-9, 9);
}

Relation RandomRelation(Rng* rng, size_t n, bool with_nulls) {
  const char* pool[] = {"a", "b", "c", "dd"};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation rel(Schema::Of({{"I", ValueType::kInt64},
                           {"D", ValueType::kDouble},
                           {"S", ValueType::kString},
                           {"J", ValueType::kInt64}}));
  for (size_t i = 0; i < n; ++i) {
    Row row;
    const bool null_i = with_nulls && rng->NextBounded(8) == 0;
    const bool null_d = with_nulls && rng->NextBounded(8) == 0;
    const bool null_s = with_nulls && rng->NextBounded(8) == 0;
    row.push_back(null_i ? Value::Null() : Value::Int(RandomInt(rng)));
    if (null_d) {
      row.push_back(Value::Null());
    } else if (rng->NextBounded(10) == 0) {
      row.push_back(Value::Double(nan));
    } else {
      row.push_back(Value::Double(0.25 * double(rng->NextInRange(-8, 8))));
    }
    row.push_back(null_s ? Value::Null()
                         : Value::String(pool[rng->NextBounded(4)]));
    row.push_back(Value::Int(RandomInt(rng)));
    rel.AppendRow(row);
  }
  return rel;
}

// ---- Random expressions --------------------------------------------------

ExprPtr GenLeaf(Rng* rng, const std::vector<ValueType>& cols) {
  if (rng->NextBounded(5) < 3) {
    const int c = static_cast<int>(rng->NextBounded(cols.size()));
    ValueType declared = cols[c];
    // Occasionally lie about the static type: chunks then drift from the
    // declared lanes and the kernels must fall back, not misread.
    if (rng->NextBounded(10) == 0) {
      declared = declared == ValueType::kInt64 ? ValueType::kDouble
                                               : ValueType::kInt64;
    }
    return expr::MakeColumnRef(c, declared);
  }
  switch (rng->NextBounded(8)) {
    case 0:
      return expr::MakeLiteral(Value::String("a"));
    case 1:
      return expr::MakeLiteral(Value::Null());
    case 2:
    case 3:
      return expr::MakeLiteral(
          Value::Double(0.25 * double(rng->NextInRange(-8, 8))));
    default:
      return expr::MakeLiteral(Value::Int(rng->NextInRange(-9, 9)));
  }
}

ExprPtr GenExpr(Rng* rng, int depth, const std::vector<ValueType>& cols) {
  if (depth <= 0 || rng->NextBounded(4) == 0) return GenLeaf(rng, cols);
  const uint64_t pick = rng->NextBounded(14);
  if (pick < 4) {  // + - * /
    static const BinaryOp kArith[] = {BinaryOp::kAdd, BinaryOp::kSub,
                                      BinaryOp::kMul, BinaryOp::kDiv};
    return expr::MakeBinary(kArith[pick], GenExpr(rng, depth - 1, cols),
                            GenExpr(rng, depth - 1, cols));
  }
  if (pick < 10) {
    static const BinaryOp kCmp[] = {BinaryOp::kEq, BinaryOp::kNe,
                                    BinaryOp::kLt, BinaryOp::kLe,
                                    BinaryOp::kGt, BinaryOp::kGe};
    return expr::MakeBinary(kCmp[pick - 4], GenExpr(rng, depth - 1, cols),
                            GenExpr(rng, depth - 1, cols));
  }
  if (pick < 12) {
    return expr::MakeBinary(pick == 10 ? BinaryOp::kAnd : BinaryOp::kOr,
                            GenExpr(rng, depth - 1, cols),
                            GenExpr(rng, depth - 1, cols));
  }
  if (pick == 12) {
    return std::make_unique<expr::NotExpr>(GenExpr(rng, depth - 1, cols));
  }
  ExprPtr child = GenExpr(rng, depth - 1, cols);
  if (child->output_type() == ValueType::kString) return child;
  return std::make_unique<expr::NegateExpr>(std::move(child));
}

// ---- The property --------------------------------------------------------

struct Coverage {
  int compiled = 0;
  int vectorized = 0;
};

std::vector<uint32_t> Identity(size_t n) {
  std::vector<uint32_t> sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

// Runs `e` through VecProgram over `chunk` and checks it against the
// interpreter on the materialized `rows`.
void CheckExpr(const Expr& e, const ColumnChunk& chunk,
               const std::vector<Row>& rows, Coverage* cov) {
  const size_t n = rows.size();
  const std::vector<uint32_t> identity = Identity(n);
  VecProgram::Scratch scratch;
  VecBatch out;

  if (auto vp = VecProgram::Compile(e)) {
    ++cov->compiled;
    if (vp->EvalChunk(chunk, identity.data(), n, &scratch, &out)) {
      ++cov->vectorized;
      for (size_t i = 0; i < n; ++i) {
        const Value expect = e.Eval(rows[i]);
        ASSERT_TRUE(SameValue(out.ValueAt(i), expect))
            << e.ToString() << " row " << i << ": vec="
            << Describe(out.ValueAt(i)) << " interp=" << Describe(expect);
      }
    }
    std::vector<uint32_t> sel = Identity(n);
    if (vp->FilterChunk(chunk, &sel, &scratch)) {
      std::vector<uint32_t> expect;
      for (size_t i = 0; i < n; ++i) {
        if (expr::IsTruthy(e.Eval(rows[i]))) {
          expect.push_back(static_cast<uint32_t>(i));
        }
      }
      ASSERT_EQ(sel, expect) << e.ToString();
    } else {
      ASSERT_EQ(sel, identity) << e.ToString()
                               << ": fallback must leave sel untouched";
    }
  }
}

void RunProperty(uint64_t seed, bool with_nulls) {
  Rng rng(seed);
  Relation rel = RandomRelation(&rng, 257, with_nulls);
  const ColumnChunk& chunk = rel.chunk(0);
  std::vector<Row> rows(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) rel.chunk(0).MaterializeRow(i, &rows[i]);
  const std::vector<ValueType> cols = {ValueType::kInt64, ValueType::kDouble,
                                       ValueType::kString, ValueType::kInt64};
  Coverage cov;
  for (int iter = 0; iter < 400; ++iter) {
    ExprPtr e = GenExpr(&rng, 4, cols);
    CheckExpr(*e, chunk, rows, &cov);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The suite is vacuous if everything fell back; demand real vector runs.
  EXPECT_GT(cov.compiled, 100);
  EXPECT_GT(cov.vectorized, 50);
}

TEST(VecProgramProperty, RandomTreesOverCleanChunks) {
  RunProperty(/*seed=*/0x5eed001, /*with_nulls=*/false);
}

TEST(VecProgramProperty, RandomTreesOverNullableChunks) {
  RunProperty(/*seed=*/0x5eed002, /*with_nulls=*/true);
}

TEST(VecProgramProperty, SecondSeedSweep) {
  RunProperty(/*seed=*/0xabcdef, /*with_nulls=*/true);
}

// ---- Directed edges ------------------------------------------------------

TEST(VecProgramTest, IntegerDivisionByZeroColumnIsNull) {
  Relation rel(Schema::Of({{"A", ValueType::kInt64},
                           {"B", ValueType::kInt64}}));
  for (int64_t i = 0; i < 64; ++i) {
    rel.AppendRow({Value::Int(i), Value::Int(i % 3 == 0 ? 0 : i % 5)});
  }
  ExprPtr e = expr::MakeBinary(BinaryOp::kDiv,
                               expr::MakeColumnRef(0, ValueType::kInt64),
                               expr::MakeColumnRef(1, ValueType::kInt64));
  auto vp = VecProgram::Compile(*e);
  ASSERT_TRUE(vp.has_value());
  const std::vector<uint32_t> identity = Identity(rel.size());
  VecProgram::Scratch scratch;
  VecBatch out;
  ASSERT_TRUE(vp->EvalChunk(rel.chunk(0), identity.data(), rel.size(),
                            &scratch, &out));
  for (size_t i = 0; i < rel.size(); ++i) {
    Row row;
    rel.chunk(0).MaterializeRow(i, &row);
    EXPECT_TRUE(SameValue(out.ValueAt(i), e->Eval(row))) << "row " << i;
    if (i % 3 == 0) {
      EXPECT_TRUE(out.ValueAt(i).is_null());
    }
  }
}

TEST(VecProgramTest, BoxedVariantChunksSplitByEngine) {
  // A column that mixes int64 and string boxes the chunk. The kernels must
  // hand the whole chunk back to the row interpreter rather than guess.
  Relation rel(Schema::Of({{"A", ValueType::kInt64}}));
  rel.AppendRow({Value::Int(1)});
  rel.AppendRow({Value::String("boxed")});
  rel.AppendRow({Value::Int(3)});
  ExprPtr e = expr::MakeBinary(BinaryOp::kLt,
                               expr::MakeColumnRef(0, ValueType::kInt64),
                               expr::MakeLiteral(Value::Int(2)));
  auto vp = VecProgram::Compile(*e);
  ASSERT_TRUE(vp.has_value());
  VecProgram::Scratch scratch;
  std::vector<uint32_t> sel = Identity(rel.size());
  EXPECT_FALSE(vp->FilterChunk(rel.chunk(0), &sel, &scratch));
  EXPECT_EQ(sel, Identity(rel.size()));
  VecBatch out;
  EXPECT_FALSE(vp->EvalChunk(rel.chunk(0), sel.data(), sel.size(), &scratch,
                             &out));
}

TEST(VecProgramTest, StringVersusNumericComparisonFallsBack) {
  Relation rel(Schema::Of({{"S", ValueType::kString},
                           {"I", ValueType::kInt64}}));
  rel.AppendRow({Value::String("x"), Value::Int(1)});
  rel.AppendRow({Value::String("y"), Value::Int(2)});
  ExprPtr e = expr::MakeBinary(BinaryOp::kEq,
                               expr::MakeColumnRef(0, ValueType::kString),
                               expr::MakeColumnRef(1, ValueType::kInt64));
  auto vp = VecProgram::Compile(*e);
  ASSERT_TRUE(vp.has_value());
  VecProgram::Scratch scratch;
  std::vector<uint32_t> sel = Identity(rel.size());
  EXPECT_FALSE(vp->FilterChunk(rel.chunk(0), &sel, &scratch));
  EXPECT_EQ(sel, Identity(rel.size()));
}

TEST(VecProgramTest, Int64EdgesWrapLikeTheInterpreter) {
  // Two's-complement wrapping for + - * and unary minus, INT64_MIN / -1 =
  // INT64_MIN, x / 0 = NULL: lane for lane what Expr::Eval computes.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  struct Case {
    BinaryOp op;
    int64_t x;
    int64_t y;
    int64_t want;
  };
  const Case cases[] = {
      {BinaryOp::kAdd, kMax, 1, kMin},  {BinaryOp::kSub, kMin, 1, kMax},
      {BinaryOp::kMul, kMin, -1, kMin}, {BinaryOp::kDiv, kMin, -1, kMin},
      {BinaryOp::kDiv, kMax, -1, -kMax}, {BinaryOp::kSub, 0, kMin, kMin},
  };
  Relation rel(Schema::Of({{"X", ValueType::kInt64},
                           {"Y", ValueType::kInt64}}));
  for (const Case& c : cases) rel.AppendRow({Value::Int(c.x), Value::Int(c.y)});
  rel.AppendRow({Value::Int(kMin), Value::Int(0)});
  const ExprPtr x = expr::MakeColumnRef(0, ValueType::kInt64);
  const ExprPtr y = expr::MakeColumnRef(1, ValueType::kInt64);
  const std::vector<uint32_t> identity = Identity(rel.size());
  VecProgram::Scratch scratch;
  VecBatch out;
  for (size_t i = 0; i < std::size(cases); ++i) {
    ExprPtr e = expr::MakeBinary(cases[i].op, x->Clone(), y->Clone());
    auto vp = VecProgram::Compile(*e);
    ASSERT_TRUE(vp.has_value());
    ASSERT_TRUE(vp->EvalChunk(rel.chunk(0), identity.data(), rel.size(),
                              &scratch, &out));
    EXPECT_EQ(out.ValueAt(i).AsInt(), cases[i].want) << e->ToString();
    for (size_t r = 0; r < rel.size(); ++r) {
      EXPECT_TRUE(SameValue(out.ValueAt(r), e->Eval(rel.GetRow(r))))
          << e->ToString() << " row " << r;
    }
  }
  // -INT64_MIN wraps to itself.
  expr::NegateExpr neg(x->Clone());
  auto vp = VecProgram::Compile(neg);
  ASSERT_TRUE(vp.has_value());
  ASSERT_TRUE(vp->EvalChunk(rel.chunk(0), identity.data(), rel.size(),
                            &scratch, &out));
  EXPECT_EQ(out.ValueAt(std::size(cases)).AsInt(), kMin);
}

}  // namespace
}  // namespace rasql
