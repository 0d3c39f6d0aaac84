#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/rasql_context.h"
#include "expr/expr.h"
#include "expr/vec_program.h"
#include "storage/relation.h"

namespace rasql::expr {
namespace {

using storage::Relation;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

Row TestRow() {
  return {Value::Int(10), Value::Double(2.5), Value::String("abc"),
          Value::Int(-3)};
}

TEST(ExprTest, ColumnRefEval) {
  auto e = MakeColumnRef(0, ValueType::kInt64, "x");
  EXPECT_EQ(e->Eval(TestRow()).AsInt(), 10);
}

TEST(ExprTest, LiteralEval) {
  auto e = MakeLiteral(Value::Double(1.5));
  EXPECT_DOUBLE_EQ(e->Eval(TestRow()).AsDouble(), 1.5);
}

TEST(ExprTest, IntArithmetic) {
  auto plus = MakeBinary(BinaryOp::kAdd,
                         MakeColumnRef(0, ValueType::kInt64),
                         MakeColumnRef(3, ValueType::kInt64));
  EXPECT_EQ(plus->output_type(), ValueType::kInt64);
  EXPECT_EQ(plus->Eval(TestRow()).AsInt(), 7);
}

TEST(ExprTest, MixedArithmeticWidensToDouble) {
  auto times = MakeBinary(BinaryOp::kMul,
                          MakeColumnRef(0, ValueType::kInt64),
                          MakeColumnRef(1, ValueType::kDouble));
  EXPECT_EQ(times->output_type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(times->Eval(TestRow()).AsDouble(), 25.0);
}

TEST(ExprTest, Comparisons) {
  auto lt = MakeBinary(BinaryOp::kLt, MakeColumnRef(3, ValueType::kInt64),
                       MakeLiteral(Value::Int(0)));
  EXPECT_EQ(lt->Eval(TestRow()).AsInt(), 1);
  auto ge = MakeBinary(BinaryOp::kGe, MakeColumnRef(3, ValueType::kInt64),
                       MakeLiteral(Value::Int(0)));
  EXPECT_EQ(ge->Eval(TestRow()).AsInt(), 0);
}

TEST(ExprTest, StringEquality) {
  auto eq = MakeBinary(BinaryOp::kEq, MakeColumnRef(2, ValueType::kString),
                       MakeLiteral(Value::String("abc")));
  EXPECT_EQ(eq->Eval(TestRow()).AsInt(), 1);
}

TEST(ExprTest, BooleanShortCircuit) {
  // rhs would divide by zero; AND must not evaluate it when lhs is false.
  auto division = MakeBinary(BinaryOp::kDiv, MakeLiteral(Value::Int(1)),
                             MakeLiteral(Value::Int(0)));
  auto guarded =
      MakeBinary(BinaryOp::kAnd, MakeLiteral(Value::Int(0)),
                 std::move(division));
  EXPECT_EQ(guarded->Eval(TestRow()).AsInt(), 0);
}

TEST(ExprTest, NotAndNegate) {
  NotExpr not_true{MakeLiteral(Value::Int(1))};
  EXPECT_EQ(not_true.Eval(TestRow()).AsInt(), 0);
  NegateExpr neg{MakeColumnRef(0, ValueType::kInt64)};
  EXPECT_EQ(neg.Eval(TestRow()).AsInt(), -10);
}

TEST(ExprTest, NullPropagates) {
  auto add = MakeBinary(BinaryOp::kAdd, MakeLiteral(Value::Null()),
                        MakeLiteral(Value::Int(1)));
  EXPECT_TRUE(add->Eval(TestRow()).is_null());
}

TEST(ExprTest, CloneIsDeep) {
  auto e = MakeBinary(BinaryOp::kAdd, MakeColumnRef(0, ValueType::kInt64),
                      MakeLiteral(Value::Int(5)));
  auto c = e->Clone();
  EXPECT_EQ(c->Eval(TestRow()).AsInt(), 15);
  EXPECT_EQ(e->ToString(), c->ToString());
}

TEST(ExprTest, BinaryResultTypeRejectsMismatches) {
  EXPECT_EQ(BinaryResultType(BinaryOp::kAdd, ValueType::kString,
                             ValueType::kInt64),
            ValueType::kNull);
  EXPECT_EQ(BinaryResultType(BinaryOp::kEq, ValueType::kString,
                             ValueType::kInt64),
            ValueType::kNull);
  EXPECT_EQ(BinaryResultType(BinaryOp::kEq, ValueType::kString,
                             ValueType::kString),
            ValueType::kInt64);
}

// ---- int64 overflow --------------------------------------------------------
// +, -, * and unary minus wrap in two's complement (Spark's non-ANSI long
// arithmetic), INT64_MIN / -1 wraps to INT64_MIN, and x / 0 is NULL.

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();

Value EvalInt(BinaryOp op, int64_t x, int64_t y) {
  return MakeBinary(op, MakeLiteral(Value::Int(x)), MakeLiteral(Value::Int(y)))
      ->Eval(TestRow());
}

TEST(ExprTest, Int64ArithmeticWraps) {
  EXPECT_EQ(EvalInt(BinaryOp::kAdd, kInt64Max, 1).AsInt(), kInt64Min);
  EXPECT_EQ(EvalInt(BinaryOp::kSub, kInt64Min, 1).AsInt(), kInt64Max);
  EXPECT_EQ(EvalInt(BinaryOp::kMul, kInt64Min, -1).AsInt(), kInt64Min);
  NegateExpr neg{MakeLiteral(Value::Int(kInt64Min))};
  EXPECT_EQ(neg.Eval(TestRow()).AsInt(), kInt64Min);
}

TEST(ExprTest, Int64DivisionIsDefinedEverywhere) {
  EXPECT_EQ(EvalInt(BinaryOp::kDiv, kInt64Min, -1).AsInt(), kInt64Min);
  EXPECT_EQ(EvalInt(BinaryOp::kDiv, kInt64Max, -1).AsInt(), -kInt64Max);
  EXPECT_EQ(EvalInt(BinaryOp::kDiv, -7, 2).AsInt(), -3);  // truncates
  EXPECT_TRUE(EvalInt(BinaryOp::kDiv, kInt64Min, 0).is_null());
}

// ---- VecProgram against the interpreter ------------------------------------
// VecProgram is the only other evaluator: it must give Expr::Eval's answer.

/// Evaluates `e` with VecProgram over a one-chunk relation holding `rows`;
/// nullopt when the program declines the expression or the chunk.
std::optional<VecBatch> EvalVec(const Expr& e, const std::vector<Row>& rows) {
  std::vector<storage::Column> cols;
  for (size_t c = 0; c < rows[0].size(); ++c) {
    cols.push_back({"c" + std::to_string(c), rows[0][c].type()});
  }
  const Relation rel(Schema(std::move(cols)), rows);
  auto vp = VecProgram::Compile(e);
  if (!vp) return std::nullopt;
  std::vector<uint32_t> sel(rel.size());
  for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
  VecProgram::Scratch scratch;
  VecBatch out;
  if (!vp->EvalChunk(rel.chunk(0), sel.data(), sel.size(), &scratch, &out)) {
    return std::nullopt;
  }
  return out;
}

TEST(CompiledExprTest, MatchesInterpreterOnArithmetic) {
  auto e = MakeBinary(
      BinaryOp::kAdd,
      MakeBinary(BinaryOp::kMul, MakeColumnRef(0, ValueType::kInt64),
                 MakeColumnRef(1, ValueType::kDouble)),
      MakeLiteral(Value::Int(3)));
  const Row row = TestRow();
  auto out = EvalVec(*e, {row});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->ValueAt(0).type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(out->ValueAt(0).AsDouble(), e->Eval(row).AsDouble());
}

TEST(CompiledExprTest, MatchesInterpreterOnPredicates) {
  auto e = MakeBinary(
      BinaryOp::kAnd,
      MakeBinary(BinaryOp::kLt, MakeColumnRef(3, ValueType::kInt64),
                 MakeLiteral(Value::Int(0))),
      MakeBinary(BinaryOp::kGe, MakeColumnRef(0, ValueType::kInt64),
                 MakeLiteral(Value::Int(10))));
  auto out = EvalVec(*e, {TestRow()});
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(IsTruthy(out->ValueAt(0)));
  EXPECT_TRUE(IsTruthy(e->Eval(TestRow())));
}

TEST(CompiledExprTest, RejectsStringExpressions) {
  // A string comparison is int-valued and vectorizes; a string-valued
  // expression compiles but declines every chunk: it stays on the row path.
  auto eq = MakeBinary(BinaryOp::kEq, MakeColumnRef(2, ValueType::kString),
                       MakeLiteral(Value::String("abc")));
  auto out = EvalVec(*eq, {TestRow()});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->ValueAt(0).AsInt(), 1);
  auto str = MakeColumnRef(2, ValueType::kString);
  ASSERT_TRUE(VecProgram::Compile(*str).has_value());
  EXPECT_FALSE(EvalVec(*str, {TestRow()}).has_value());
}

TEST(CompiledExprTest, EngineInterpretsDeepExpressionsInsteadOfOverflowing) {
  // 70 right-nested additions need 71 stack slots, in both the select list
  // and the filter; VecProgram sizes its slot stack from the program.
  std::string nested = "edge.Src";
  for (int i = 0; i < 70; ++i) nested = "1 + (" + nested + ")";
  const std::string sql =
      "SELECT " + nested + " FROM edge WHERE " + nested + " < 73";
  Relation edge{Schema::Of({{"Src", ValueType::kInt64},
                            {"Dst", ValueType::kInt64},
                            {"Cost", ValueType::kDouble}})};
  const std::vector<std::pair<int64_t, int64_t>> arcs = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}, {9, 0}};
  for (const auto& [src, dst] : arcs) {
    edge.Add({Value::Int(src), Value::Int(dst), Value::Double(1.0)});
  }
  for (size_t batch_rows : {size_t{0}, size_t{64}}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    engine::EngineConfig config;
    config.runtime.batch_rows = batch_rows;
    engine::RaSqlContext ctx(config);
    ASSERT_TRUE(ctx.RegisterTable("edge", edge).ok());
    auto result = ctx.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->relation.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(result->relation.row(i)[0].AsInt(),
                static_cast<int64_t>(70 + i));
    }
  }
}

TEST(CompiledExprTest, OutputTypePreserved) {
  auto e = MakeBinary(BinaryOp::kAdd, MakeColumnRef(0, ValueType::kInt64),
                      MakeLiteral(Value::Int(1)));
  auto vp = VecProgram::Compile(*e);
  ASSERT_TRUE(vp.has_value());
  EXPECT_EQ(vp->output_type(), ValueType::kInt64);
  auto out = EvalVec(*e, {TestRow()});
  ASSERT_TRUE(out.has_value());
  const Value v = out->ValueAt(0);
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt(), 11);
}

// Property sweep: the interpreter and VecProgram agree on a family of
// random-ish expressions over varying row contents.
class CompiledVsInterpreted : public ::testing::TestWithParam<int> {};

TEST_P(CompiledVsInterpreted, Agree) {
  const int64_t x = GetParam();
  Row row = {Value::Int(x), Value::Double(x * 0.5), Value::Int(x - 7)};
  auto e = MakeBinary(
      BinaryOp::kOr,
      MakeBinary(BinaryOp::kGt,
                 MakeBinary(BinaryOp::kAdd,
                            MakeColumnRef(0, ValueType::kInt64),
                            MakeColumnRef(2, ValueType::kInt64)),
                 MakeLiteral(Value::Int(0))),
      MakeBinary(BinaryOp::kLe, MakeColumnRef(1, ValueType::kDouble),
                 MakeLiteral(Value::Double(-2.0))));
  auto out = EvalVec(*e, {row});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->ValueAt(0).AsInt(), e->Eval(row).AsInt());
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompiledVsInterpreted,
                         ::testing::Values(-100, -7, -1, 0, 1, 3, 7, 50,
                                           1000));

// ---- One answer in every mode ----------------------------------------------
// Queries whose answers once depended on a double-only evaluator. Each runs
// through RaSqlContext in row mode (batch_rows = 0) and batch mode
// (batch_rows = 64) and must return the interpreter's exact rows.

constexpr int64_t kTwoTo53 = int64_t{1} << 53;

/// Renders rows as "v,v;" with exact int64 digits and NULL spelled out.
std::string Show(const Relation& rel) {
  std::string out;
  rel.ForEachRow([&](const Row& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += (c > 0 ? "," : "") + row[c].ToString();
    }
    out += ";";
  });
  return out;
}

Relation IntPairs(const std::vector<std::pair<Value, Value>>& rows) {
  Relation rel{Schema::Of({{"a", ValueType::kInt64},
                           {"b", ValueType::kInt64}})};
  for (const auto& [a, b] : rows) rel.Add({a, b});
  return rel;
}

/// Runs `sql` over t(a, b) = (3,1), (0,2), (2^53 + 1, 3) and
/// n(a, b) = (NULL,1), (5,2) in both modes; expects `rows` from each.
void ExpectRowsInBothModes(const std::string& sql, const std::string& rows) {
  const Relation t = IntPairs({{Value::Int(3), Value::Int(1)},
                               {Value::Int(0), Value::Int(2)},
                               {Value::Int(kTwoTo53 + 1), Value::Int(3)}});
  const Relation n = IntPairs(
      {{Value::Null(), Value::Int(1)}, {Value::Int(5), Value::Int(2)}});
  for (size_t batch_rows : {size_t{0}, size_t{64}}) {
    SCOPED_TRACE(sql + " at batch_rows=" + std::to_string(batch_rows));
    engine::EngineConfig config;
    config.runtime.batch_rows = batch_rows;
    engine::RaSqlContext ctx(config);
    ASSERT_TRUE(ctx.RegisterTable("t", t).ok());
    ASSERT_TRUE(ctx.RegisterTable("n", n).ok());
    auto result = ctx.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(Show(result->relation), rows);
  }
}

TEST(OneSemanticsTest, IntegerDivisionTruncatesInFilters) {
  ExpectRowsInBothModes("SELECT a FROM t WHERE a / 2 = 1", "3;");
}

TEST(OneSemanticsTest, IntegerDivisionByZeroIsNull) {
  ExpectRowsInBothModes("SELECT a / 0 FROM t", "NULL;NULL;NULL;");
}

TEST(OneSemanticsTest, IntegerDivisionKeepsEveryBit) {
  ExpectRowsInBothModes("SELECT a / 1 FROM t WHERE b = 3",
                        "9007199254740993;");
}

TEST(OneSemanticsTest, IntegerEqualityKeepsEveryBit) {
  ExpectRowsInBothModes("SELECT a FROM t WHERE a = 9007199254740992", "");
}

TEST(OneSemanticsTest, NullFailsArithmeticAndComparisonFilters) {
  ExpectRowsInBothModes("SELECT b FROM n WHERE a + 1 = 1", "");
  ExpectRowsInBothModes("SELECT b FROM n WHERE a < 1", "");
}

TEST(OneSemanticsTest, NullPropagatesThroughProjections) {
  ExpectRowsInBothModes("SELECT b, a * 2 FROM n", "1,NULL;2,10;");
}

TEST(OneSemanticsTest, RecursiveMinAddsInt64WeightsExactly) {
  // Starting at 2^53, each unit edge weight is lost in double arithmetic;
  // int64 arithmetic reaches 2^53 + k at vertex k.
  Relation edge{Schema::Of({{"Src", ValueType::kInt64},
                            {"Dst", ValueType::kInt64},
                            {"W", ValueType::kInt64}})};
  for (int64_t v = 0; v < 3; ++v) {
    edge.Add({Value::Int(v), Value::Int(v + 1), Value::Int(1)});
  }
  const std::string sql = R"(
      WITH recursive path (Dst, min() AS Cost) AS
        (SELECT 0, 9007199254740992) UNION
        (SELECT edge.Dst, path.Cost + edge.W
         FROM path, edge WHERE path.Dst = edge.Src)
      SELECT Dst, Cost FROM path)";
  std::string expected;
  for (int64_t k = 0; k < 4; ++k) {
    expected += std::to_string(k) + "," + std::to_string(kTwoTo53 + k) + ";";
  }
  for (bool distributed : {false, true}) {
    for (size_t batch_rows : {size_t{0}, size_t{64}}) {
      SCOPED_TRACE("distributed=" + std::to_string(distributed) +
                   " batch_rows=" + std::to_string(batch_rows));
      engine::EngineConfig config;
      config.distributed = distributed;
      config.cluster.num_workers = 3;
      config.cluster.num_partitions = 5;
      config.runtime.batch_rows = batch_rows;
      engine::RaSqlContext ctx(config);
      ASSERT_TRUE(ctx.RegisterTable("edge", edge).ok());
      auto result = ctx.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status();
      result->relation.SortRows();
      EXPECT_EQ(Show(result->relation), expected);
    }
  }
}

}  // namespace
}  // namespace rasql::expr
