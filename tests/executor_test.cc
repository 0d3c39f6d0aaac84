#include <gtest/gtest.h>

#include "physical/executor.h"
#include "physical/pipeline.h"
#include "plan/logical_plan.h"
#include "storage/row_range.h"

namespace rasql::physical {
namespace {

using expr::BinaryOp;
using plan::AggregateItem;
using plan::AggregateNode;
using plan::FilterNode;
using plan::JoinNode;
using plan::LimitNode;
using plan::PlanPtr;
using plan::ProjectNode;
using plan::SortNode;
using plan::TableScanNode;
using plan::ValuesNode;
using storage::MakeIntRelation;
using storage::Relation;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

Schema EdgeSchema() {
  return Schema::Of({{"Src", ValueType::kInt64}, {"Dst", ValueType::kInt64}});
}

PlanPtr ScanEdge() {
  return std::make_unique<TableScanNode>("edge", EdgeSchema());
}

TEST(ExecutorTest, TableScanAndMissingBinding) {
  Relation edges = MakeIntRelation({"Src", "Dst"}, {{1, 2}, {2, 3}});
  ExecContext ctx;
  ctx.tables["edge"] = &edges;
  auto result = Execute(*ScanEdge(), ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);

  ExecContext empty;
  EXPECT_FALSE(Execute(*ScanEdge(), empty).ok());
}

TEST(ExecutorTest, FilterWithAndWithoutCodegen) {
  Relation edges = MakeIntRelation({"Src", "Dst"},
                                   {{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  auto filter = std::make_unique<FilterNode>(
      ScanEdge(), expr::MakeBinary(BinaryOp::kGt,
                                   expr::MakeColumnRef(0, ValueType::kInt64),
                                   expr::MakeLiteral(Value::Int(2))));
  ExecContext ctx;
  ctx.tables["edge"] = &edges;
  auto fused = Execute(*filter, ctx);
  auto interpreted = ExecuteInterpreted(*filter, ctx);
  ASSERT_TRUE(fused.ok() && interpreted.ok());
  EXPECT_EQ(fused->size(), 2u);
  EXPECT_TRUE(storage::SameRows(*fused, *interpreted));
}

TEST(ExecutorTest, HashAndSortMergeJoinsAgree) {
  Relation left = MakeIntRelation({"A", "B"},
                                  {{1, 10}, {2, 20}, {2, 21}, {3, 30}});
  Relation right = MakeIntRelation({"C", "D"},
                                   {{10, 7}, {20, 8}, {20, 9}, {99, 0}});
  auto make_join = [&]() {
    return std::make_unique<JoinNode>(
        std::make_unique<TableScanNode>("l", left.schema()),
        std::make_unique<TableScanNode>("r", right.schema()),
        std::vector<int>{1}, std::vector<int>{0});
  };
  ExecContext ctx;
  ctx.tables["l"] = &left;
  ctx.tables["r"] = &right;

  ctx.join_algorithm = JoinAlgorithm::kHash;
  auto hash = Execute(*make_join(), ctx);
  ctx.join_algorithm = JoinAlgorithm::kSortMerge;
  auto merge = Execute(*make_join(), ctx);
  ASSERT_TRUE(hash.ok() && merge.ok());
  // (1,10)x(10,7), (2,20)x(20,8), (2,20)x(20,9), (2,21)? no — 21 unmatched;
  // 3 matching pairs with duplicates on the right.
  EXPECT_EQ(hash->size(), 3u);
  EXPECT_TRUE(storage::SameBag(*hash, *merge));
}

TEST(ExecutorTest, CrossJoin) {
  Relation left = MakeIntRelation({"A"}, {{1}, {2}});
  Relation right = MakeIntRelation({"B"}, {{3}, {4}, {5}});
  auto join = std::make_unique<JoinNode>(
      std::make_unique<TableScanNode>("l", left.schema()),
      std::make_unique<TableScanNode>("r", right.schema()),
      std::vector<int>{}, std::vector<int>{});
  ExecContext ctx;
  ctx.tables["l"] = &left;
  ctx.tables["r"] = &right;
  auto result = Execute(*join, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 6u);
}

TEST(ExecutorTest, FusedProjectJoinMatchesUnfused) {
  Relation edges = MakeIntRelation(
      {"Src", "Dst"}, {{1, 2}, {2, 3}, {3, 1}, {2, 1}, {1, 3}});
  auto make_plan = [&]() -> PlanPtr {
    auto join = std::make_unique<JoinNode>(
        ScanEdge(), ScanEdge(), std::vector<int>{1}, std::vector<int>{0});
    std::vector<expr::ExprPtr> exprs;
    exprs.push_back(expr::MakeColumnRef(0, ValueType::kInt64));
    exprs.push_back(expr::MakeColumnRef(3, ValueType::kInt64));
    return std::make_unique<ProjectNode>(std::move(join), std::move(exprs),
                                         EdgeSchema());
  };
  ExecContext ctx;
  ctx.tables["edge"] = &edges;
  auto a = Execute(*make_plan(), ctx);
  auto b = ExecuteInterpreted(*make_plan(), ctx);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(storage::SameBag(*a, *b));
  // Hand count: per left row, matches on Dst=Src: 2+1+2+2+1.
  EXPECT_EQ(a->size(), 8u);
}

TEST(ExecutorTest, AggregateMinMaxSumCount) {
  Relation data = MakeIntRelation({"G", "V"},
                                  {{1, 5}, {1, 3}, {1, 3}, {2, 9}});
  std::vector<expr::ExprPtr> groups;
  groups.push_back(expr::MakeColumnRef(0, ValueType::kInt64));
  std::vector<AggregateItem> items;
  for (auto fn : {expr::AggregateFunction::kMin,
                  expr::AggregateFunction::kMax,
                  expr::AggregateFunction::kSum,
                  expr::AggregateFunction::kCount}) {
    AggregateItem item;
    item.function = fn;
    item.argument = expr::MakeColumnRef(1, ValueType::kInt64);
    item.output_name = expr::AggregateFunctionName(fn);
    items.push_back(std::move(item));
  }
  Schema out = Schema::Of({{"G", ValueType::kInt64},
                           {"min", ValueType::kInt64},
                           {"max", ValueType::kInt64},
                           {"sum", ValueType::kInt64},
                           {"count", ValueType::kInt64}});
  auto agg = std::make_unique<AggregateNode>(
      std::make_unique<TableScanNode>("t", data.schema()),
      std::move(groups), std::move(items), out);
  ExecContext ctx;
  ctx.tables["t"] = &data;
  auto result = Execute(*agg, ctx);
  ASSERT_TRUE(result.ok());
  result->SortRows();
  ASSERT_EQ(result->size(), 2u);
  const Row g1 = result->GetRow(0);
  EXPECT_EQ(g1[1].AsInt(), 3);
  EXPECT_EQ(g1[2].AsInt(), 5);
  EXPECT_EQ(g1[3].AsInt(), 11);
  EXPECT_EQ(g1[4].AsInt(), 3);
}

TEST(ExecutorTest, CountDistinct) {
  Relation data = MakeIntRelation({"V"}, {{1}, {1}, {2}, {3}, {3}});
  std::vector<AggregateItem> items;
  AggregateItem item;
  item.function = expr::AggregateFunction::kCount;
  item.argument = expr::MakeColumnRef(0, ValueType::kInt64);
  item.distinct = true;
  item.output_name = "c";
  items.push_back(std::move(item));
  auto agg = std::make_unique<AggregateNode>(
      std::make_unique<TableScanNode>("t", data.schema()),
      std::vector<expr::ExprPtr>{}, std::move(items),
      Schema::Of({{"c", ValueType::kInt64}}));
  ExecContext ctx;
  ctx.tables["t"] = &data;
  auto result = Execute(*agg, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row(0)[0].AsInt(), 3);
}

TEST(ExecutorTest, GlobalAggregateOnEmptyInput) {
  Relation data = MakeIntRelation({"V"}, {});
  std::vector<AggregateItem> items;
  AggregateItem count;
  count.function = expr::AggregateFunction::kCount;
  count.output_name = "c";
  items.push_back(std::move(count));
  AggregateItem min;
  min.function = expr::AggregateFunction::kMin;
  min.argument = expr::MakeColumnRef(0, ValueType::kInt64);
  min.output_name = "m";
  items.push_back(std::move(min));
  auto agg = std::make_unique<AggregateNode>(
      std::make_unique<TableScanNode>("t", data.schema()),
      std::vector<expr::ExprPtr>{}, std::move(items),
      Schema::Of({{"c", ValueType::kInt64}, {"m", ValueType::kInt64}}));
  ExecContext ctx;
  ctx.tables["t"] = &data;
  auto result = Execute(*agg, ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->row(0)[0].AsInt(), 0);
  EXPECT_TRUE(result->row(0)[1].is_null());
}

TEST(ExecutorTest, SortAndLimit) {
  Relation data = MakeIntRelation({"V"}, {{3}, {1}, {2}, {5}, {4}});
  std::vector<SortNode::SortKey> keys;
  keys.push_back(
      SortNode::SortKey{expr::MakeColumnRef(0, ValueType::kInt64), false});
  auto sorted = std::make_unique<SortNode>(
      std::make_unique<TableScanNode>("t", data.schema()), std::move(keys));
  auto limited = std::make_unique<LimitNode>(std::move(sorted), 3);
  ExecContext ctx;
  ctx.tables["t"] = &data;
  auto result = Execute(*limited, ctx);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 3u);
  EXPECT_EQ(result->row(0)[0].AsInt(), 5);
  EXPECT_EQ(result->row(2)[0].AsInt(), 3);
}

TEST(ExecutorTest, ValuesNode) {
  auto values = std::make_unique<ValuesNode>(
      Schema::Of({{"A", ValueType::kInt64}}),
      std::vector<storage::Row>{{Value::Int(1)}, {Value::Int(2)}});
  auto result = Execute(*values, ExecContext{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(JoinHashTableTest, ProbeFindsAllMatchesAndNoFalsePositives) {
  Relation build = MakeIntRelation({"K", "V"},
                                   {{1, 10}, {1, 11}, {2, 20}, {5, 50}});
  JoinHashTable table(build, {0});
  std::vector<int> matches;
  storage::Row probe = {Value::Int(1)};
  table.Probe(probe, {0}, &matches);
  EXPECT_EQ(matches.size(), 2u);
  matches.clear();
  probe[0] = Value::Int(3);
  table.Probe(probe, {0}, &matches);
  EXPECT_TRUE(matches.empty());
}

// Chain Project(Filter(Join(edge, edge))) — compiles to a fused pipeline.
PlanPtr TwoHopPlan() {
  auto join = std::make_unique<JoinNode>(ScanEdge(), ScanEdge(),
                                         std::vector<int>{1},
                                         std::vector<int>{0});
  auto filter = std::make_unique<FilterNode>(
      std::move(join),
      expr::MakeBinary(BinaryOp::kNe,
                       expr::MakeColumnRef(0, ValueType::kInt64),
                       expr::MakeColumnRef(3, ValueType::kInt64)));
  std::vector<expr::ExprPtr> exprs;
  exprs.push_back(expr::MakeColumnRef(0, ValueType::kInt64));
  exprs.push_back(expr::MakeColumnRef(3, ValueType::kInt64));
  return std::make_unique<ProjectNode>(
      std::move(filter), std::move(exprs),
      Schema::Of({{"A", ValueType::kInt64}, {"C", ValueType::kInt64}}));
}

TEST(PipelineTest, MatchesInterpretedRowForRow) {
  Relation edges = MakeIntRelation(
      {"Src", "Dst"},
      {{1, 2}, {2, 3}, {2, 4}, {3, 1}, {4, 2}, {1, 3}, {3, 4}});
  PlanPtr plan = TwoHopPlan();
  ExecContext ctx;
  ctx.tables["edge"] = &edges;
  auto fused = Execute(*plan, ctx);
  auto interpreted = ExecuteInterpreted(*plan, ctx);
  ASSERT_TRUE(fused.ok() && interpreted.ok());
  // Exact row order, not just bag equality: morsel merging relies on the
  // pipeline producing the tree walk's probe-major order.
  ASSERT_EQ(fused->size(), interpreted->size());
  for (size_t i = 0; i < fused->size(); ++i) {
    EXPECT_EQ(fused->GetRow(i), interpreted->GetRow(i)) << "row " << i;
  }
}

TEST(PipelineTest, MorselRunsConcatenateToRunAll) {
  Relation edges = MakeIntRelation(
      {"Src", "Dst"},
      {{1, 2}, {2, 3}, {2, 4}, {3, 1}, {4, 2}, {1, 3}, {3, 4}});
  PlanPtr plan = TwoHopPlan();
  ExecContext ctx;
  ctx.tables["edge"] = &edges;
  auto program = PipelineProgram::Compile(*plan, JoinAlgorithm::kHash);
  ASSERT_TRUE(program.has_value());
  auto bound = program->Bind(ctx);
  ASSERT_TRUE(bound.ok()) << bound.status();
  Relation whole;
  ASSERT_TRUE(bound->RunAll(&whole).ok());
  for (size_t morsel : {1u, 2u, 3u, 100u}) {
    Relation pieced;
    for (storage::RowRange r :
         storage::SplitIntoMorsels(bound->driver_rows(), morsel)) {
      ASSERT_TRUE(bound->Run(r, &pieced).ok());
    }
    EXPECT_EQ(pieced.MaterializeRows(), whole.MaterializeRows())
        << "morsel_rows=" << morsel;
  }
}

TEST(JoinHashTableTest, EmptyBuildSide) {
  Relation build = MakeIntRelation({"K", "V"}, {});
  JoinHashTable table(build, {0});
  std::vector<int> matches;
  storage::Row probe = {Value::Int(1)};
  table.Probe(probe, {0}, &matches);
  EXPECT_TRUE(matches.empty());
}

TEST(JoinHashTableTest, CollisionChainsStayDisjoint) {
  // Many distinct keys funneled through a table whose initial capacity
  // (16) is far smaller than the key range forces bucket collisions; each
  // probe must still return exactly its own key's rows, in build order.
  Relation build{Schema::Of({{"K", ValueType::kInt64},
                             {"V", ValueType::kInt64}})};
  const int kKeys = 100;
  for (int k = 0; k < kKeys; ++k) {
    build.Add({Value::Int(k), Value::Int(k * 10)});
    build.Add({Value::Int(k), Value::Int(k * 10 + 1)});
  }
  JoinHashTable table(build, {0});
  std::vector<int> matches;
  for (int k = 0; k < kKeys; ++k) {
    matches.clear();
    storage::Row probe = {Value::Int(k)};
    table.Probe(probe, {0}, &matches);
    ASSERT_EQ(matches.size(), 2u) << "key " << k;
    // Chains are head-inserted, so probes see build rows newest-first —
    // both execution paths share this order, so it is part of the
    // pipeline/tree-walk row-order equivalence contract.
    EXPECT_EQ(matches[0], 2 * k + 1) << "key " << k;
    EXPECT_EQ(matches[1], 2 * k) << "key " << k;
  }
}

TEST(JoinHashTableTest, IntAndDoubleKeysCompareEqual) {
  // Value::Hash hashes integral doubles like the equal int64, so a
  // build-side INT key must be probe-able with the numerically equal
  // DOUBLE key and vice versa.
  Relation build{Schema::Of({{"K", ValueType::kInt64}})};
  build.Add({Value::Int(7)});
  JoinHashTable table(build, {0});
  std::vector<int> matches;
  storage::Row probe = {Value::Double(7.0)};
  table.Probe(probe, {0}, &matches);
  EXPECT_EQ(matches.size(), 1u);

  Relation dbuild{Schema::Of({{"K", ValueType::kDouble}})};
  dbuild.Add({Value::Double(7.0)});
  JoinHashTable dtable(dbuild, {0});
  matches.clear();
  storage::Row iprobe = {Value::Int(7)};
  dtable.Probe(iprobe, {0}, &matches);
  EXPECT_EQ(matches.size(), 1u);

  // A non-integral double must not match the int key.
  matches.clear();
  storage::Row miss = {Value::Double(7.5)};
  table.Probe(miss, {0}, &matches);
  EXPECT_TRUE(matches.empty());
}

// Property sweep: hash and sort-merge joins agree across key skews.
class JoinAgreement : public ::testing::TestWithParam<int> {};

TEST_P(JoinAgreement, HashEqualsSortMerge) {
  const int mod = GetParam();
  Relation left{Schema::Of({{"A", ValueType::kInt64}})};
  Relation right{Schema::Of({{"B", ValueType::kInt64}})};
  for (int64_t i = 0; i < 60; ++i) {
    left.Add({Value::Int(i % mod)});
    right.Add({Value::Int((i * 3) % mod)});
  }
  auto join = std::make_unique<JoinNode>(
      std::make_unique<TableScanNode>("l", left.schema()),
      std::make_unique<TableScanNode>("r", right.schema()),
      std::vector<int>{0}, std::vector<int>{0});
  ExecContext ctx;
  ctx.tables["l"] = &left;
  ctx.tables["r"] = &right;
  ctx.join_algorithm = JoinAlgorithm::kHash;
  auto hash = Execute(*join, ctx);
  ctx.join_algorithm = JoinAlgorithm::kSortMerge;
  auto merge = Execute(*join, ctx);
  ASSERT_TRUE(hash.ok() && merge.ok());
  EXPECT_TRUE(storage::SameBag(*hash, *merge)) << "mod=" << mod;
}

INSTANTIATE_TEST_SUITE_P(KeySkew, JoinAgreement,
                         ::testing::Values(1, 2, 3, 7, 30, 59));

}  // namespace
}  // namespace rasql::physical
