// Microbenchmarks for the engine's hot kernels, two harnesses in one
// binary:
//   - a vectorized-kernel sweep (DESIGN.md §15): the expr::VecProgram
//     column-at-a-time paths vs their row-at-a-time oracles — conjunction
//     filter, col-vs-col compare, dictionary string equality, and the
//     two-int64-key dense aggregate — with a hard identity check (any
//     divergence fails the run). Always writes BENCH_vec_kernels.json
//     (--json=path redirects).
//   - the google-benchmark suite for scalar kernels: the interpreted
//     expression tree (the row side of Fig. 7), cached hash-join probe
//     (Fig. 11's source), and the broadcast codec (Fig. 6's compression).
//     Skipped under --vec-only.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "bench/bench_util.h"
#include "dist/broadcast.h"
#include "expr/expr.h"
#include "physical/executor.h"
#include "plan/logical_plan.h"
#include "storage/relation.h"

namespace rasql {
namespace {

using expr::BinaryOp;
using storage::Relation;
using storage::Row;
using storage::Value;
using storage::ValueType;

expr::ExprPtr CostExpr() {
  // path.Cost + edge.Cost < 100 — the SSSP step's working expression.
  return expr::MakeBinary(
      BinaryOp::kLt,
      expr::MakeBinary(BinaryOp::kAdd,
                       expr::MakeColumnRef(1, ValueType::kDouble),
                       expr::MakeColumnRef(4, ValueType::kDouble)),
      expr::MakeLiteral(Value::Double(100.0)));
}

Row BenchRow() {
  return {Value::Int(7),    Value::Double(12.5), Value::Int(7),
          Value::Int(9),    Value::Double(3.25)};
}

void BM_InterpretedExpr(benchmark::State& state) {
  expr::ExprPtr e = CostExpr();
  Row row = BenchRow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e->Eval(row));
  }
}
BENCHMARK(BM_InterpretedExpr);

Relation BuildEdges(int64_t n) {
  Relation rel = storage::MakeIntRelation({"Src", "Dst"}, {});
  for (int64_t i = 0; i < n; ++i) {
    rel.Add({Value::Int(i % (n / 4)), Value::Int((i * 7) % n)});
  }
  return rel;
}

void BM_CachedHashJoinProbe(benchmark::State& state) {
  Relation edges = BuildEdges(state.range(0));
  physical::JoinHashTable table(edges, {0});
  std::vector<int> matches;
  Row probe = {Value::Int(3), Value::Int(5)};
  for (auto _ : state) {
    matches.clear();
    table.Probe(probe, {0}, &matches);
    benchmark::DoNotOptimize(matches.data());
  }
}
BENCHMARK(BM_CachedHashJoinProbe)->Arg(1 << 12)->Arg(1 << 16);

void BM_HashTableBuild(benchmark::State& state) {
  Relation edges = BuildEdges(state.range(0));
  for (auto _ : state) {
    physical::JoinHashTable table(edges, {0});
    benchmark::DoNotOptimize(table.num_buckets());
  }
}
BENCHMARK(BM_HashTableBuild)->Arg(1 << 12)->Arg(1 << 16);

void BM_BroadcastEncode(benchmark::State& state) {
  Relation edges = BuildEdges(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::EncodeRelation(edges).size());
  }
  state.counters["compression"] =
      static_cast<double>(dist::UncompressedWireSize(edges)) /
      static_cast<double>(dist::EncodeRelation(edges).size());
}
BENCHMARK(BM_BroadcastEncode)->Arg(1 << 14);

void BM_BroadcastDecode(benchmark::State& state) {
  Relation edges = BuildEdges(state.range(0));
  std::vector<uint8_t> encoded = dist::EncodeRelation(edges);
  for (auto _ : state) {
    auto decoded = dist::DecodeRelation(encoded);
    benchmark::DoNotOptimize(decoded->size());
  }
}
BENCHMARK(BM_BroadcastDecode)->Arg(1 << 14);

// ---- Vectorized-kernel sweep (DESIGN.md §15) ---------------------------

constexpr size_t kVecBatchRows = 1024;
constexpr int kVecRepeats = 5;

// 2M rows: int64 key pair, an int64 and two double value columns, and a
// dictionary string column. Deterministic, so row and batch mode see
// identical chunks.
Relation VecTable(size_t num_rows) {
  const char* pool[] = {"alpha", "beta", "gamma", "delta"};
  Relation rel(storage::Schema::Of({{"G1", ValueType::kInt64},
                                    {"G2", ValueType::kInt64},
                                    {"V", ValueType::kInt64},
                                    {"D1", ValueType::kDouble},
                                    {"D2", ValueType::kDouble},
                                    {"Name", ValueType::kString}}));
  for (size_t i = 0; i < num_rows; ++i) {
    const int64_t v = static_cast<int64_t>(i);
    rel.AppendRow({Value::Int(v % 97), Value::Int((v * 7) % 53),
                   Value::Int((v * 31) % 1000),
                   Value::Double(0.25 * double(v % 101)),
                   Value::Double(0.5 * double((v * 13) % 47)),
                   Value::String(pool[i % 4])});
  }
  return rel;
}

// col2 < 40 AND col3 > 20.0 — a selective conjunction: the kernels do the
// work, few survivors get materialized.
plan::PlanPtr ConjunctionFilterPlan(const Relation& table) {
  return std::make_unique<plan::FilterNode>(
      std::make_unique<plan::TableScanNode>("t", table.schema()),
      expr::MakeBinary(
          BinaryOp::kAnd,
          expr::MakeBinary(BinaryOp::kLt,
                           expr::MakeColumnRef(2, ValueType::kInt64),
                           expr::MakeLiteral(Value::Int(40))),
          expr::MakeBinary(BinaryOp::kGt,
                           expr::MakeColumnRef(3, ValueType::kDouble),
                           expr::MakeLiteral(Value::Double(20.0)))));
}

plan::PlanPtr ColVsColFilterPlan(const Relation& table) {
  return std::make_unique<plan::FilterNode>(
      std::make_unique<plan::TableScanNode>("t", table.schema()),
      expr::MakeBinary(BinaryOp::kLt,
                       expr::MakeColumnRef(3, ValueType::kDouble),
                       expr::MakeColumnRef(4, ValueType::kDouble)));
}

plan::PlanPtr DictFilterPlan(const Relation& table, const char* needle) {
  return std::make_unique<plan::FilterNode>(
      std::make_unique<plan::TableScanNode>("t", table.schema()),
      expr::MakeBinary(BinaryOp::kEq,
                       expr::MakeColumnRef(5, ValueType::kString),
                       expr::MakeLiteral(Value::String(needle))));
}

// GROUP BY G1, G2 — the packed-128-bit dense aggregate path.
plan::PlanPtr TwoKeyAggPlan(const Relation& table) {
  auto item = [](expr::AggregateFunction fn, int col) {
    plan::AggregateItem it;
    it.function = fn;
    if (col >= 0) it.argument = expr::MakeColumnRef(col, ValueType::kInt64);
    return it;
  };
  std::vector<plan::AggregateItem> items;
  items.push_back(item(expr::AggregateFunction::kSum, 2));
  items.push_back(item(expr::AggregateFunction::kMax, 2));
  items.push_back(item(expr::AggregateFunction::kCount, -1));
  std::vector<expr::ExprPtr> groups;
  groups.push_back(expr::MakeColumnRef(0, ValueType::kInt64));
  groups.push_back(expr::MakeColumnRef(1, ValueType::kInt64));
  return std::make_unique<plan::AggregateNode>(
      std::make_unique<plan::TableScanNode>("t", table.schema()),
      std::move(groups), std::move(items),
      storage::Schema::Of({{"G1", ValueType::kInt64},
                           {"G2", ValueType::kInt64},
                           {"Sm", ValueType::kInt64},
                           {"Mx", ValueType::kInt64},
                           {"Ct", ValueType::kInt64}}));
}

double TimeVecExecute(const plan::LogicalPlan& plan,
                      const physical::ExecContext& ctx, Relation* out) {
  double best = 1e99;
  for (int r = 0; r < kVecRepeats; ++r) {
    common::Timer timer;
    auto result = physical::Execute(plan, ctx);
    const double t = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "vec sweep failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    best = std::min(best, t);
    *out = std::move(*result);
  }
  return best;
}

}  // namespace
}  // namespace rasql

namespace rasql::bench {
namespace {

/// Runs the vectorized-kernel sweep and writes the JSON artifact. Returns
/// false when any workload's batch output diverges from the row oracle —
/// the identity contract is part of what this bench measures.
bool RunVecKernelSweep(const std::string& json_path) {
  PrintHeader("Vectorized expression kernels: row oracle vs VecProgram",
              "the Sec. 7.3 whole-stage-codegen story, column-at-a-time");
  const size_t kRows = 2'000'000;
  Relation table = VecTable(kRows);

  struct Case {
    const char* name;
    plan::PlanPtr plan;
  };
  std::vector<Case> cases;
  cases.push_back({"conjunction-filter", ConjunctionFilterPlan(table)});
  cases.push_back({"col-vs-col-filter", ColVsColFilterPlan(table)});
  cases.push_back({"dict-string-filter-hit", DictFilterPlan(table, "beta")});
  cases.push_back(
      {"dict-string-filter-miss", DictFilterPlan(table, "epsilon")});
  cases.push_back({"two-key-dense-agg", TwoKeyAggPlan(table)});

  std::vector<std::string> records;
  bool all_identical = true;
  double conjunction_speedup = 0;
  double dict_speedup = 0;
  PrintRow({"kernel", "row", "batch", "speedup", "identical"}, 24);
  for (Case& c : cases) {
    physical::ExecContext ctx;
    ctx.tables["t"] = &table;
    ctx.batch_rows = 0;
    Relation row_result;
    const double row_sec = TimeVecExecute(*c.plan, ctx, &row_result);
    ctx.batch_rows = kVecBatchRows;
    Relation batch_result;
    const double batch_sec = TimeVecExecute(*c.plan, ctx, &batch_result);

    const bool identical = storage::SameRows(row_result, batch_result);
    all_identical = all_identical && identical;
    const double speedup = row_sec / batch_sec;
    if (std::strcmp(c.name, "conjunction-filter") == 0) {
      conjunction_speedup = speedup;
    }
    if (std::strcmp(c.name, "dict-string-filter-hit") == 0) {
      dict_speedup = speedup;
    }
    PrintRow({c.name, Fmt(row_sec), Fmt(batch_sec),
              std::to_string(speedup).substr(0, 5) + "x",
              identical ? "yes" : "NO"},
             24);

    JsonEmitter rec;
    rec.Text("kernel", c.name);
    rec.Integer("rows", static_cast<int64_t>(kRows));
    rec.Integer("output_rows", static_cast<int64_t>(row_result.size()));
    rec.Number("row_sec", row_sec);
    rec.Number("batch_sec", batch_sec);
    rec.Number("speedup", speedup);
    rec.Text("identical_results", identical ? "yes" : "no");
    records.push_back(rec.ToString());
  }
  std::printf("results identical in every cell: %s\n",
              all_identical ? "yes" : "NO");

  JsonEmitter doc;
  doc.Text("bench", "bench_micro_kernels");
  doc.Text("section", "vectorized_expression_kernels");
  doc.Integer("batch_rows", static_cast<int64_t>(kVecBatchRows));
  doc.Text("identical_results", all_identical ? "yes" : "no");
  doc.Number("conjunction_filter_speedup", conjunction_speedup);
  doc.Number("dict_string_filter_speedup", dict_speedup);
  doc.Raw("runs", JsonEmitter::Array(records));
  if (doc.WriteFile(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: batch results diverged from the row oracle\n");
  }
  return all_identical;
}

}  // namespace
}  // namespace rasql::bench

int main(int argc, char** argv) {
  // The vec sweep runs first and always writes its artifact; any
  // divergence from the row oracle fails the whole bench.
  std::string json_path =
      rasql::bench::JsonPathFromArgs(argc, argv, "BENCH_vec_kernels.json");
  if (json_path.empty()) json_path = "BENCH_vec_kernels.json";
  bool vec_only = false;
  std::vector<char*> gb_args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--vec-only") {
      vec_only = true;
      continue;
    }
    if (arg == "--json" || arg.rfind("--json=", 0) == 0) continue;
    gb_args.push_back(argv[i]);
  }
  if (!rasql::bench::RunVecKernelSweep(json_path)) return 1;
  if (vec_only) return 0;
  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());
  if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
