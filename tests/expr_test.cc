#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/rasql_context.h"
#include "expr/compiled_expr.h"
#include "expr/expr.h"
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

TEST(CompiledExprTest, MatchesInterpreterOnArithmetic) {
  auto e = MakeBinary(
      BinaryOp::kAdd,
      MakeBinary(BinaryOp::kMul, MakeColumnRef(0, ValueType::kInt64),
                 MakeColumnRef(1, ValueType::kDouble)),
      MakeLiteral(Value::Int(3)));
  auto compiled = CompiledExpr::Compile(*e);
  ASSERT_TRUE(compiled.has_value());
  const Row row = TestRow();
  EXPECT_DOUBLE_EQ(compiled->EvalNumeric(row),
                   e->Eval(row).AsNumeric());
}

TEST(CompiledExprTest, MatchesInterpreterOnPredicates) {
  auto e = MakeBinary(
      BinaryOp::kAnd,
      MakeBinary(BinaryOp::kLt, MakeColumnRef(3, ValueType::kInt64),
                 MakeLiteral(Value::Int(0))),
      MakeBinary(BinaryOp::kGe, MakeColumnRef(0, ValueType::kInt64),
                 MakeLiteral(Value::Int(10))));
  auto compiled = CompiledExpr::Compile(*e);
  ASSERT_TRUE(compiled.has_value());
  EXPECT_TRUE(compiled->EvalBool(TestRow()));
}

TEST(CompiledExprTest, RejectsStringExpressions) {
  auto e = MakeBinary(BinaryOp::kEq, MakeColumnRef(2, ValueType::kString),
                      MakeLiteral(Value::String("abc")));
  EXPECT_FALSE(CompiledExpr::Compile(*e).has_value());
}

/// `1 + (1 + (... (1 + x)))` nested `levels` deep: a right-nested chain
/// whose postfix program needs levels + 1 stack slots.
ExprPtr RightNestedSum(int levels) {
  ExprPtr e = MakeColumnRef(0, ValueType::kInt64);
  for (int i = 0; i < levels; ++i) {
    e = MakeBinary(BinaryOp::kAdd, MakeLiteral(Value::Int(1)), std::move(e));
  }
  return e;
}

TEST(CompiledExprTest, RejectsProgramsDeeperThanItsStack) {
  const int fits = CompiledExpr::kMaxStack - 1;
  auto shallow = RightNestedSum(fits);
  auto compiled = CompiledExpr::Compile(*shallow);
  ASSERT_TRUE(compiled.has_value());
  EXPECT_EQ(compiled->EvalValue(TestRow()).AsInt(), 10 + fits);
  // One more level needs kMaxStack + 1 slots: refused, so callers fall
  // back to the interpreter instead of overrunning the fixed stack.
  EXPECT_FALSE(CompiledExpr::Compile(*RightNestedSum(fits + 1)).has_value());
  auto deep = RightNestedSum(70);
  EXPECT_FALSE(CompiledExpr::Compile(*deep).has_value());
  EXPECT_EQ(deep->Eval(TestRow()).AsInt(), 80);
}

TEST(CompiledExprTest, EngineInterpretsDeepExpressionsInsteadOfOverflowing) {
  // 70 right-nested additions need 71 stack slots — more than the compiled
  // program's fixed stack holds — in both the select list and the filter.
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
    for (bool codegen : {true, false}) {
      SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows) +
                   " codegen=" + std::to_string(codegen));
      engine::EngineConfig config;
      config.runtime.batch_rows = batch_rows;
      config.fixpoint.use_codegen = codegen;
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
}

TEST(CompiledExprTest, OutputTypePreserved) {
  auto e = MakeBinary(BinaryOp::kAdd, MakeColumnRef(0, ValueType::kInt64),
                      MakeLiteral(Value::Int(1)));
  auto compiled = CompiledExpr::Compile(*e);
  ASSERT_TRUE(compiled.has_value());
  const Value v = compiled->EvalValue(TestRow());
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt(), 11);
}

// Property sweep: interpreted and compiled evaluation agree on a family of
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
  auto compiled = CompiledExpr::Compile(*e);
  ASSERT_TRUE(compiled.has_value());
  EXPECT_EQ(compiled->EvalBool(row), IsTruthy(e->Eval(row)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompiledVsInterpreted,
                         ::testing::Values(-100, -7, -1, 0, 1, 3, 7, 50,
                                           1000));

}  // namespace
}  // namespace rasql::expr
