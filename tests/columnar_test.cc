// Chunk-layout property suite (DESIGN.md §13): the columnar Relation must
// round-trip every Value exactly through the row-view compatibility layer,
// locate rows correctly across chunk boundaries (uniform and width-sealed
// layouts), and the vectorized batch pipelines must reproduce the
// row-at-a-time interpreter bit for bit — same rows, same order — for
// every fused step kind and for morsel RowRanges that straddle chunks.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "physical/executor.h"
#include "physical/pipeline.h"
#include "plan/logical_plan.h"
#include "storage/relation.h"
#include "storage/row_range.h"

namespace rasql {
namespace {

using expr::BinaryOp;
using physical::ExecContext;
using physical::Execute;
using physical::PipelineProgram;
using plan::FilterNode;
using plan::JoinNode;
using plan::PlanPtr;
using plan::ProjectNode;
using plan::TableScanNode;
using storage::ColumnChunk;
using storage::kChunkRows;
using storage::MakeIntRelation;
using storage::Relation;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

// ---- Row-view round-trip over mixed null/typed data --------------------

Relation MixedRelation() {
  Schema schema = Schema::Of({{"I", ValueType::kInt64},
                              {"D", ValueType::kDouble},
                              {"S", ValueType::kString},
                              {"M", ValueType::kInt64}});
  Relation rel(schema);
  // Column M mixes int64 and string -> boxed fallback; every column sees
  // nulls; S repeats values to exercise the dictionary.
  std::vector<Row> rows = {
      {Value::Int(1), Value::Double(1.5), Value::String("a"), Value::Int(7)},
      {Value::Null(), Value::Double(-0.0), Value::String(""), Value::Null()},
      {Value::Int(-3), Value::Null(), Value::Null(), Value::String("mix")},
      {Value::Int(1) /* dup */, Value::Double(2.0), Value::String("a"),
       Value::Double(2.5)},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
  };
  for (const Row& row : rows) rel.AppendRow(row);
  return rel;
}

TEST(ColumnChunkTest, RowViewRoundTripsMixedNullTypedData) {
  Relation rel = MixedRelation();
  std::vector<Row> expected = {
      {Value::Int(1), Value::Double(1.5), Value::String("a"), Value::Int(7)},
      {Value::Null(), Value::Double(-0.0), Value::String(""), Value::Null()},
      {Value::Int(-3), Value::Null(), Value::Null(), Value::String("mix")},
      {Value::Int(1), Value::Double(2.0), Value::String("a"),
       Value::Double(2.5)},
      {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
  };
  ASSERT_EQ(rel.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    // Materialized copy and cell-wise accessor agree with the original.
    EXPECT_EQ(rel.GetRow(i), expected[i]) << "row " << i;
    storage::RowAccessor view = rel.row(i);
    ASSERT_EQ(view.width(), expected[i].size());
    for (int c = 0; c < static_cast<int>(expected[i].size()); ++c) {
      EXPECT_EQ(view[c], expected[i][c]) << "row " << i << " col " << c;
      EXPECT_EQ(view.is_null(c), expected[i][c].is_null());
      EXPECT_EQ(rel.ValueAt(i, c), expected[i][c]);
    }
    EXPECT_EQ(view.ToRow(), expected[i]);
  }
  // An int stored in a mixed column must not have been widened to double.
  EXPECT_EQ(rel.ValueAt(0, 3).type(), ValueType::kInt64);
  // ForEachRow yields the same rows in the same order.
  size_t i = 0;
  rel.ForEachRow([&](const Row& row) { EXPECT_EQ(row, expected[i++]); });
  EXPECT_EQ(i, expected.size());
}

TEST(ColumnChunkTest, CellHashingAndEqualityMatchValueSemantics) {
  Relation rel = MixedRelation();
  for (size_t i = 0; i < rel.size(); ++i) {
    Row row = rel.GetRow(i);
    EXPECT_EQ(rel.HashKeyAt(i, {0, 1, 2, 3}),
              storage::HashRowKey(row, {0, 1, 2, 3}))
        << "row " << i;
    for (int c = 0; c < 4; ++c) {
      EXPECT_TRUE(rel.CellEquals(i, c, row[c]));
      EXPECT_FALSE(rel.CellEquals(i, c, Value::Int(424242)));
    }
  }
  // Stored-vs-stored equality across chunks of different layouts.
  const ColumnChunk& chunk = rel.chunk(0);
  EXPECT_TRUE(ColumnChunk::CellsEqual(chunk, 0, 2, chunk, 3, 2));  // "a"=="a"
  EXPECT_FALSE(ColumnChunk::CellsEqual(chunk, 0, 2, chunk, 1, 2));
  EXPECT_TRUE(ColumnChunk::CellsEqual(chunk, 4, 0, chunk, 1, 3));  // null==null
}

// ---- Chunk boundaries and RowRange splits ------------------------------

TEST(ColumnChunkTest, LocateAndViewsAcrossChunkBoundaries) {
  const size_t n = 2 * kChunkRows + kChunkRows / 2;
  Relation rel(Schema::Of({{"X", ValueType::kInt64}}));
  for (size_t i = 0; i < n; ++i) rel.AppendRow({Value::Int(int64_t(i))});
  ASSERT_EQ(rel.num_chunks(), 3u);
  EXPECT_EQ(rel.chunk_begin(1), kChunkRows);
  EXPECT_EQ(rel.chunk_begin(2), 2 * kChunkRows);
  for (size_t i : {size_t{0}, kChunkRows - 1, kChunkRows, kChunkRows + 1,
                   2 * kChunkRows - 1, 2 * kChunkRows, n - 1}) {
    size_t c;
    size_t r;
    rel.Locate(i, &c, &r);
    EXPECT_EQ(rel.chunk_begin(c) + r, i);
    EXPECT_EQ(rel.row(i)[0].AsInt(), int64_t(i)) << "row " << i;
  }
  // A RowRange straddling both boundaries visits exactly [begin, end).
  const storage::RowRange range{kChunkRows - 3, 2 * kChunkRows + 3};
  size_t next = range.begin;
  rel.ForEachRow(range, [&](const Row& row) {
    EXPECT_EQ(row[0].AsInt(), int64_t(next++));
  });
  EXPECT_EQ(next, range.end);
  // Splitting into morsels reproduces the whole-relation visit order.
  std::vector<int64_t> merged;
  for (size_t begin = 0; begin < n; begin += 700) {
    rel.ForEachRow(storage::RowRange{begin, begin + 700},
                   [&](const Row& row) { merged.push_back(row[0].AsInt()); });
  }
  ASSERT_EQ(merged.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(merged[i], int64_t(i));
}

TEST(ColumnChunkTest, WidthChangeSealsChunkAndLocateStaysCorrect) {
  Relation rel;
  rel.AppendRow({Value::Int(1), Value::Int(2)});
  rel.AppendRow({Value::Int(3), Value::Int(4)});
  rel.AppendRow({Value::Int(5)});  // new width -> sealed short chunk
  rel.AppendRow({Value::Int(6)});
  ASSERT_EQ(rel.num_chunks(), 2u);
  EXPECT_EQ(rel.chunk_begin(1), 2u);
  EXPECT_EQ(rel.GetRow(1), (Row{Value::Int(3), Value::Int(4)}));
  EXPECT_EQ(rel.GetRow(2), (Row{Value::Int(5)}));
  EXPECT_EQ(rel.row(3).width(), 1u);
  EXPECT_EQ(rel.row(3)[0].AsInt(), 6);
}

TEST(ColumnChunkTest, ByteSizeReportsColumnarFootprint) {
  // 100 int64 rows of 2 columns: 1600 payload bytes, no null bitmaps.
  Relation ints(Schema::Of({{"A", ValueType::kInt64},
                            {"B", ValueType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) {
    ints.AppendRow({Value::Int(i), Value::Int(i)});
  }
  EXPECT_EQ(ints.ByteSize(), 1600u);
  // Dictionary strings: repeated values are stored once.
  Relation rep(Schema::Of({{"S", ValueType::kString}}));
  Relation uniq(Schema::Of({{"S", ValueType::kString}}));
  for (int i = 0; i < 64; ++i) {
    rep.AppendRow({Value::String("constant-string")});
    uniq.AppendRow({Value::String("unique-string-" + std::to_string(i))});
  }
  EXPECT_LT(rep.ByteSize(), uniq.ByteSize());
  // Nulls cost a bitmap, not a full payload slot beyond the placeholder.
  Relation nulls(Schema::Of({{"A", ValueType::kInt64}}));
  nulls.AppendRow({Value::Null()});
  EXPECT_GT(nulls.ByteSize(), 0u);
}

// ---- Batch vs interpreted: row-for-row for every step kind -------------

Schema EdgeSchema() {
  return Schema::Of({{"Src", ValueType::kInt64}, {"Dst", ValueType::kInt64}});
}

PlanPtr ScanEdge() {
  return std::make_unique<TableScanNode>("edge", EdgeSchema());
}

// A driver big enough to cross a chunk boundary, with keys that join.
Relation BigEdges() {
  Relation rel(EdgeSchema());
  const size_t n = kChunkRows + 257;
  for (size_t i = 0; i < n; ++i) {
    rel.AppendRow({Value::Int(int64_t(i % 97)), Value::Int(int64_t(i % 53))});
  }
  return rel;
}

PlanPtr FilterPlan() {
  // col < literal — the selection-vector kernel shape.
  return std::make_unique<FilterNode>(
      ScanEdge(), expr::MakeBinary(BinaryOp::kLt,
                                   expr::MakeColumnRef(0, ValueType::kInt64),
                                   expr::MakeLiteral(Value::Int(40))));
}

PlanPtr ProjectPlan() {
  std::vector<expr::ExprPtr> exprs;
  exprs.push_back(expr::MakeColumnRef(1, ValueType::kInt64));
  exprs.push_back(expr::MakeBinary(BinaryOp::kAdd,
                                   expr::MakeColumnRef(0, ValueType::kInt64),
                                   expr::MakeLiteral(Value::Int(1))));
  return std::make_unique<ProjectNode>(
      ScanEdge(), std::move(exprs),
      Schema::Of({{"Dst", ValueType::kInt64}, {"S1", ValueType::kInt64}}));
}

PlanPtr JoinPlan() {
  return std::make_unique<JoinNode>(ScanEdge(), ScanEdge(),
                                    std::vector<int>{1}, std::vector<int>{0});
}

PlanPtr FilterJoinProjectPlan() {
  auto filter = std::make_unique<FilterNode>(
      JoinPlan(), expr::MakeBinary(BinaryOp::kNe,
                                   expr::MakeColumnRef(0, ValueType::kInt64),
                                   expr::MakeColumnRef(3, ValueType::kInt64)));
  std::vector<expr::ExprPtr> exprs;
  exprs.push_back(expr::MakeColumnRef(0, ValueType::kInt64));
  exprs.push_back(expr::MakeColumnRef(3, ValueType::kInt64));
  return std::make_unique<ProjectNode>(
      std::move(filter), std::move(exprs),
      Schema::Of({{"A", ValueType::kInt64}, {"C", ValueType::kInt64}}));
}

// Leading vectorized filter in front of the probe: Filter(Scan) under Join.
PlanPtr FilteredJoinPlan() {
  auto filtered_scan = std::make_unique<FilterNode>(
      ScanEdge(), expr::MakeBinary(BinaryOp::kGe,
                                   expr::MakeColumnRef(0, ValueType::kInt64),
                                   expr::MakeLiteral(Value::Int(10))));
  return std::make_unique<JoinNode>(std::move(filtered_scan), ScanEdge(),
                                    std::vector<int>{1}, std::vector<int>{0});
}

/// Fused execution in row mode and at every batch size must reproduce the
/// unfused row-mode tree walk row for row.
void ExpectBatchMatchesRowMode(const PlanPtr& plan, const Relation& edges,
                               const char* label) {
  ExecContext ctx;
  ctx.tables["edge"] = &edges;
  auto oracle = ExecuteInterpreted(*plan, ctx);
  ASSERT_TRUE(oracle.ok()) << label << ": " << oracle.status();
  for (size_t batch :
       {size_t{0}, size_t{1}, size_t{7}, size_t{256}, size_t{4096}}) {
    ctx.batch_rows = batch;
    auto got = Execute(*plan, ctx);
    ASSERT_TRUE(got.ok()) << label << ": " << got.status();
    ASSERT_EQ(got->size(), oracle->size()) << label << " batch=" << batch;
    for (size_t i = 0; i < oracle->size(); ++i) {
      ASSERT_EQ(got->GetRow(i), oracle->GetRow(i))
          << label << " batch=" << batch << " row " << i;
    }
  }
}

TEST(BatchPipelineTest, EveryStepKindMatchesInterpreterRowForRow) {
  Relation edges = BigEdges();
  struct Case {
    const char* label;
    PlanPtr plan;
  };
  std::vector<Case> cases;
  cases.push_back({"filter", FilterPlan()});
  cases.push_back({"project", ProjectPlan()});
  cases.push_back({"hash-probe", JoinPlan()});
  cases.push_back({"filter+probe+project", FilterJoinProjectPlan()});
  cases.push_back({"vec-filter-under-probe", FilteredJoinPlan()});
  for (const Case& c : cases) {
    ExpectBatchMatchesRowMode(c.plan, edges, c.label);
  }
}

TEST(BatchPipelineTest, NullsAndMixedTypesForceExactFallback) {
  // A driver whose filter column contains nulls (and a mixed column): the
  // per-chunk kernel gate must reject vectorization and fall back to the
  // interpreter without changing results.
  Relation rel(EdgeSchema());
  for (int64_t i = 0; i < 300; ++i) {
    if (i % 7 == 0) {
      rel.AppendRow({Value::Null(), Value::Int(i)});
    } else {
      rel.AppendRow({Value::Int(i % 11), Value::Int(i)});
    }
  }
  PlanPtr plan = FilterPlan();
  ExpectBatchMatchesRowMode(plan, rel, "null-filter");
}

TEST(BatchPipelineTest, DoubleColumnsVectorizeIdentically) {
  Relation rel(Schema::Of({{"Src", ValueType::kInt64},
                           {"Cost", ValueType::kDouble}}));
  for (int64_t i = 0; i < 2000; ++i) {
    rel.AppendRow({Value::Int(i % 64), Value::Double(0.25 * double(i % 31))});
  }
  auto plan = std::make_unique<FilterNode>(
      std::make_unique<TableScanNode>("edge", rel.schema()),
      expr::MakeBinary(BinaryOp::kGt, expr::MakeLiteral(Value::Double(3.5)),
                       expr::MakeColumnRef(1, ValueType::kDouble)));
  PlanPtr p = std::move(plan);
  ExpectBatchMatchesRowMode(p, rel, "double-filter");
}

TEST(BatchPipelineTest, MorselRangesStraddlingChunksConcatenate) {
  Relation edges = BigEdges();
  PlanPtr plan = FilterJoinProjectPlan();
  auto program =
      PipelineProgram::Compile(*plan, physical::JoinAlgorithm::kHash);
  ASSERT_TRUE(program.has_value());
  ExecContext ctx;
  ctx.tables["edge"] = &edges;
  ctx.batch_rows = 100;
  auto bound = program->Bind(ctx);
  ASSERT_TRUE(bound.ok()) << bound.status();
  Relation whole_rel;
  ASSERT_TRUE(bound->RunAll(&whole_rel).ok());
  const std::vector<Row> whole = whole_rel.MaterializeRows();
  // Morsel cuts not aligned to chunk or batch boundaries.
  std::vector<Row> merged;
  const size_t n = bound->driver_rows();
  for (size_t begin = 0; begin < n; begin += 333) {
    Relation part;
    ASSERT_TRUE(
        bound->Run(storage::RowRange{begin, begin + 333}, &part).ok());
    for (Row& row : part.MaterializeRows()) merged.push_back(std::move(row));
  }
  ASSERT_EQ(merged.size(), whole.size());
  for (size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(merged[i], whole[i]) << "row " << i;
  }
}

TEST(BatchPipelineTest, AggregateLoopMatchesRowMode) {
  // GROUP BY with min/max/sum/count over typed columns — the executor's
  // vectorized aggregate loop vs the row-at-a-time path.
  Relation rel(Schema::Of({{"G", ValueType::kInt64},
                           {"V", ValueType::kInt64},
                           {"D", ValueType::kDouble}}));
  for (int64_t i = 0; i < 3000; ++i) {
    rel.AppendRow({Value::Int(i % 13), Value::Int((i * 7) % 101),
                   Value::Double(0.5 * double(i % 17))});
  }
  auto item = [](expr::AggregateFunction fn, int col, const char* name) {
    plan::AggregateItem it;
    it.function = fn;
    if (col >= 0) it.argument = expr::MakeColumnRef(col, ValueType::kInt64);
    it.output_name = name;
    return it;
  };
  std::vector<plan::AggregateItem> items;
  items.push_back(item(expr::AggregateFunction::kMin, 1, "Mn"));
  items.push_back(item(expr::AggregateFunction::kMax, 1, "Mx"));
  items.push_back(item(expr::AggregateFunction::kSum, 2, "Sm"));
  items.push_back(item(expr::AggregateFunction::kCount, -1, "Ct"));
  std::vector<expr::ExprPtr> groups;
  groups.push_back(expr::MakeColumnRef(0, ValueType::kInt64));
  auto agg = std::make_unique<plan::AggregateNode>(
      std::make_unique<TableScanNode>("t", rel.schema()), std::move(groups),
      std::move(items),
      Schema::Of({{"G", ValueType::kInt64},
                  {"Mn", ValueType::kInt64},
                  {"Mx", ValueType::kInt64},
                  {"Sm", ValueType::kDouble},
                  {"Ct", ValueType::kInt64}}));
  ExecContext ctx;
  ctx.tables["t"] = &rel;
  ctx.batch_rows = 0;
  auto row_mode = Execute(*agg, ctx);
  ASSERT_TRUE(row_mode.ok()) << row_mode.status();
  ctx.batch_rows = 128;
  auto batch_mode = Execute(*agg, ctx);
  ASSERT_TRUE(batch_mode.ok()) << batch_mode.status();
  ASSERT_EQ(batch_mode->size(), row_mode->size());
  for (size_t i = 0; i < row_mode->size(); ++i) {
    EXPECT_EQ(batch_mode->GetRow(i), row_mode->GetRow(i)) << "row " << i;
  }
}

// ---- Adversarial batch-vs-interpreter inputs ---------------------------

/// Runs `agg` over `rel` (registered as "t") in row mode and several batch
/// sizes and asserts identical rows in identical order.
void ExpectAggMatchesRowMode(const plan::AggregateNode& agg,
                             const Relation& rel, const char* label) {
  ExecContext ctx;
  ctx.tables["t"] = &rel;
  ctx.batch_rows = 0;
  auto row_mode = Execute(agg, ctx);
  ASSERT_TRUE(row_mode.ok()) << label << ": " << row_mode.status();
  for (size_t batch : {size_t{1}, size_t{64}, size_t{1024}}) {
    ctx.batch_rows = batch;
    auto batch_mode = Execute(agg, ctx);
    ASSERT_TRUE(batch_mode.ok()) << label << ": " << batch_mode.status();
    ASSERT_EQ(batch_mode->size(), row_mode->size())
        << label << " batch=" << batch;
    for (size_t i = 0; i < row_mode->size(); ++i) {
      ASSERT_EQ(batch_mode->GetRow(i), row_mode->GetRow(i))
          << label << " batch=" << batch << " row " << i;
    }
  }
}

std::unique_ptr<plan::AggregateNode> MinMaxSumCountOver(
    const Relation& rel, int group_col, int value_col) {
  auto item = [&](expr::AggregateFunction fn, int col, const char* name) {
    plan::AggregateItem it;
    it.function = fn;
    if (col >= 0) {
      it.argument =
          expr::MakeColumnRef(col, rel.schema().column(col).type);
    }
    it.output_name = name;
    return it;
  };
  std::vector<plan::AggregateItem> items;
  items.push_back(item(expr::AggregateFunction::kMin, value_col, "Mn"));
  items.push_back(item(expr::AggregateFunction::kMax, value_col, "Mx"));
  items.push_back(item(expr::AggregateFunction::kSum, value_col, "Sm"));
  items.push_back(item(expr::AggregateFunction::kCount, -1, "Ct"));
  std::vector<expr::ExprPtr> groups;
  groups.push_back(
      expr::MakeColumnRef(group_col, rel.schema().column(group_col).type));
  return std::make_unique<plan::AggregateNode>(
      std::make_unique<TableScanNode>("t", rel.schema()), std::move(groups),
      std::move(items),
      Schema::Of({{"G", rel.schema().column(group_col).type},
                  {"Mn", ValueType::kNull},
                  {"Mx", ValueType::kNull},
                  {"Sm", ValueType::kNull},
                  {"Ct", ValueType::kInt64}}));
}

TEST(BatchPipelineTest, AggregateAcrossTypeFlippingChunks) {
  // The value column's tag flips at the chunk boundary: a full chunk of
  // clean int64s, then doubles. Per-chunk typed modes see a clean column
  // either way, but the accumulator crosses the flip carrying the earlier
  // chunks' type — the typed arms must hand exactly those rows back to
  // the row-at-a-time oracle.
  Relation rel(Schema::Of({{"G", ValueType::kInt64},
                           {"V", ValueType::kInt64}}));
  for (size_t i = 0; i < kChunkRows; ++i) {
    rel.AppendRow({Value::Int(int64_t(i % 5)), Value::Int(int64_t(i % 91))});
  }
  for (size_t i = 0; i < 700; ++i) {
    rel.AppendRow({Value::Int(int64_t(i % 5)),
                   Value::Double(0.25 * double(i % 37) - 3.0)});
  }
  ExpectAggMatchesRowMode(*MinMaxSumCountOver(rel, 0, 1), rel,
                          "type-flipping-chunks");
}

TEST(BatchPipelineTest, DenseInt64KeysNegativeAndExtreme) {
  // Negative keys, INT64_MIN/INT64_MAX: the dense single-int64-group-key
  // path hashes raw integers; sign handling and insertion order must
  // still match the row path exactly.
  Relation rel(Schema::Of({{"G", ValueType::kInt64},
                           {"V", ValueType::kInt64}}));
  const int64_t keys[] = {-1, INT64_MIN, 0, INT64_MAX, -4096, 7,
                          INT64_MIN + 1, -1};
  for (int64_t i = 0; i < 2000; ++i) {
    rel.AppendRow({Value::Int(keys[i % 8]), Value::Int(i - 1000)});
  }
  ExpectAggMatchesRowMode(*MinMaxSumCountOver(rel, 0, 1), rel,
                          "extreme-int64-keys");
}

TEST(BatchPipelineTest, AllNullValueChunksAggregate) {
  // A value column that is entirely null for a whole chunk (and a group
  // with ONLY nulls): SQL ignores nulls, count(*) still counts the rows,
  // and min/max/sum of nothing stay NULL. Batch and row must agree.
  Relation rel(Schema::Of({{"G", ValueType::kInt64},
                           {"V", ValueType::kInt64}}));
  for (size_t i = 0; i < kChunkRows; ++i) {
    rel.AppendRow({Value::Int(int64_t(i % 3)), Value::Null()});
  }
  for (size_t i = 0; i < 500; ++i) {
    // Group 3 appears only in the all-null prefix's successor with values;
    // group 2 never sees a non-null value.
    const int64_t g = (i % 2 == 0) ? 3 : int64_t(i % 2);
    rel.AppendRow({Value::Int(g), Value::Int(int64_t(i))});
  }
  ExpectAggMatchesRowMode(*MinMaxSumCountOver(rel, 0, 1), rel, "all-null");
}

TEST(BatchPipelineTest, DictStringFiltersMatchInterpreter) {
  // String =/!= filters run on dictionary codes: one code lookup per chunk,
  // integer compares per row. The relation mixes clean dictionary chunks, a
  // chunk whose string column contains nulls, and a boxed chunk (a stray
  // int64 in the string column) — every shape must match the interpreter
  // row for row, vectorized or falling back.
  Relation rel(Schema::Of({{"Name", ValueType::kString},
                           {"V", ValueType::kInt64}}));
  const char* pool[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < kChunkRows + 100; ++i) {
    rel.AppendRow({Value::String(pool[i % 4]), Value::Int(int64_t(i))});
  }
  for (size_t i = 0; i < 200; ++i) {
    rel.AppendRow({i % 9 == 0 ? Value::Null() : Value::String(pool[i % 3]),
                   Value::Int(int64_t(i))});
  }
  // A stray int64 boxes the open chunk's string column: those rows must
  // fall back to the interpreter while the clean dictionary chunks above
  // keep their code-compare kernel.
  for (size_t i = 0; i < 100; ++i) {
    rel.AppendRow({i == 50 ? Value::Int(-1) : Value::String(pool[i % 4]),
                   Value::Int(int64_t(i))});
  }
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe}) {
    for (const char* needle : {"beta", "not-in-dictionary", ""}) {
      PlanPtr plan = std::make_unique<FilterNode>(
          std::make_unique<TableScanNode>("edge", rel.schema()),
          expr::MakeBinary(op,
                           expr::MakeColumnRef(0, ValueType::kString),
                           expr::MakeLiteral(Value::String(needle))));
      ExpectBatchMatchesRowMode(plan, rel, "dict-filter");
    }
  }
  // Column-vs-column equality within one dictionary-coded relation.
  Relation pairs(Schema::Of({{"A", ValueType::kString},
                             {"B", ValueType::kString}}));
  for (size_t i = 0; i < 3000; ++i) {
    pairs.AppendRow({Value::String(pool[i % 4]),
                     Value::String(pool[(i / 2) % 4])});
  }
  PlanPtr colcol = std::make_unique<FilterNode>(
      std::make_unique<TableScanNode>("edge", pairs.schema()),
      expr::MakeBinary(BinaryOp::kEq,
                       expr::MakeColumnRef(0, ValueType::kString),
                       expr::MakeColumnRef(1, ValueType::kString)));
  ExpectBatchMatchesRowMode(colcol, pairs, "dict-col-col");
}

TEST(BatchPipelineTest, TwoKeyDenseAggregateMatchesRowOrder) {
  // Two int64 group columns take the packed-128-bit dense path; the output
  // must keep the row path's first-seen insertion order even with negative
  // and extreme keys, and agree on every accumulator.
  Relation rel(Schema::Of({{"G1", ValueType::kInt64},
                           {"G2", ValueType::kInt64},
                           {"V", ValueType::kInt64}}));
  const int64_t k1[] = {-1, INT64_MIN, 0, INT64_MAX, 7};
  const int64_t k2[] = {INT64_MAX, -1, 3, INT64_MIN, -4096, 11, 0};
  for (int64_t i = 0; i < 4000; ++i) {
    rel.AppendRow({Value::Int(k1[i % 5]), Value::Int(k2[i % 7]),
                   Value::Int((i * 13) % 201 - 100)});
  }
  auto item = [](expr::AggregateFunction fn, int col, const char* name) {
    plan::AggregateItem it;
    it.function = fn;
    if (col >= 0) it.argument = expr::MakeColumnRef(col, ValueType::kInt64);
    it.output_name = name;
    return it;
  };
  std::vector<plan::AggregateItem> items;
  items.push_back(item(expr::AggregateFunction::kMin, 2, "Mn"));
  items.push_back(item(expr::AggregateFunction::kSum, 2, "Sm"));
  items.push_back(item(expr::AggregateFunction::kCount, -1, "Ct"));
  std::vector<expr::ExprPtr> groups;
  groups.push_back(expr::MakeColumnRef(0, ValueType::kInt64));
  groups.push_back(expr::MakeColumnRef(1, ValueType::kInt64));
  auto agg = std::make_unique<plan::AggregateNode>(
      std::make_unique<TableScanNode>("t", rel.schema()), std::move(groups),
      std::move(items),
      Schema::Of({{"G1", ValueType::kInt64},
                  {"G2", ValueType::kInt64},
                  {"Mn", ValueType::kInt64},
                  {"Sm", ValueType::kInt64},
                  {"Ct", ValueType::kInt64}}));
  ExpectAggMatchesRowMode(*agg, rel, "two-key-dense");
}

TEST(BatchPipelineTest, ComputedAggregateInputsVectorize) {
  // GROUP BY g%4 over sum(v*2 + 1): both the group key and the aggregate
  // argument are computed expressions, evaluated through the vectorized
  // layer in batch mode, and must match the row interpreter exactly.
  Relation rel(Schema::Of({{"G", ValueType::kInt64},
                           {"V", ValueType::kInt64},
                           {"D", ValueType::kDouble}}));
  for (int64_t i = 0; i < 3000; ++i) {
    rel.AppendRow({Value::Int(i % 29), Value::Int(i % 83 - 41),
                   Value::Double(0.5 * double(i % 19))});
  }
  auto computed = [](BinaryOp op, int col, ValueType t, Value lit) {
    return expr::MakeBinary(op, expr::MakeColumnRef(col, t),
                            expr::MakeLiteral(std::move(lit)));
  };
  std::vector<plan::AggregateItem> items;
  plan::AggregateItem sum;
  sum.function = expr::AggregateFunction::kSum;
  sum.argument = expr::MakeBinary(
      BinaryOp::kAdd,
      computed(BinaryOp::kMul, 1, ValueType::kInt64, Value::Int(2)),
      expr::MakeLiteral(Value::Int(1)));
  sum.output_name = "Sm";
  items.push_back(std::move(sum));
  plan::AggregateItem mx;
  mx.function = expr::AggregateFunction::kMax;
  mx.argument =
      computed(BinaryOp::kMul, 2, ValueType::kDouble, Value::Double(-1.5));
  mx.output_name = "Mx";
  items.push_back(std::move(mx));
  std::vector<expr::ExprPtr> groups;
  groups.push_back(
      computed(BinaryOp::kDiv, 0, ValueType::kInt64, Value::Int(4)));
  auto agg = std::make_unique<plan::AggregateNode>(
      std::make_unique<TableScanNode>("t", rel.schema()), std::move(groups),
      std::move(items),
      Schema::Of({{"G4", ValueType::kInt64},
                  {"Sm", ValueType::kInt64},
                  {"Mx", ValueType::kDouble}}));
  ExpectAggMatchesRowMode(*agg, rel, "computed-agg-inputs");
}

TEST(BatchPipelineTest, NaNFilterKernelsMatchInterpreter) {
  // NaN in `col CMP literal` filters: every comparison except != is false
  // for NaN, and the vectorized kernel must agree with the interpreter on
  // each operator.
  Relation rel(Schema::Of({{"Src", ValueType::kInt64},
                           {"Cost", ValueType::kDouble}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t i = 0; i < 1500; ++i) {
    const double v = (i % 5 == 0) ? nan : 0.5 * double(i % 23) - 2.0;
    rel.AppendRow({Value::Int(i), Value::Double(v)});
  }
  const BinaryOp ops[] = {BinaryOp::kLt, BinaryOp::kLe, BinaryOp::kGt,
                          BinaryOp::kGe, BinaryOp::kEq, BinaryOp::kNe};
  for (BinaryOp op : ops) {
    PlanPtr plan = std::make_unique<FilterNode>(
        std::make_unique<TableScanNode>("edge", rel.schema()),
        expr::MakeBinary(op, expr::MakeColumnRef(1, ValueType::kDouble),
                         expr::MakeLiteral(Value::Double(1.25))));
    ExpectBatchMatchesRowMode(plan, rel, "nan-filter");
  }
}

}  // namespace
}  // namespace rasql
