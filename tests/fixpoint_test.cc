#include <gtest/gtest.h>

#include <cmath>

#include "analysis/analyzer.h"
#include "baselines/serial/serial_graph.h"
#include "datagen/graph_gen.h"
#include "fixpoint/distributed_fixpoint.h"
#include "fixpoint/local_fixpoint.h"
#include "fixpoint/stage_plan.h"
#include "lint/diagnostic.h"
#include "sql/parser.h"
#include "verify/verifier.h"

namespace rasql::fixpoint {
namespace {

using storage::MakeIntRelation;
using storage::Relation;

common::Result<analysis::AnalyzedQuery> Compile(
    const std::string& sql,
    const std::map<std::string, const Relation*>& tables) {
  RASQL_ASSIGN_OR_RETURN(sql::Query query, sql::Parser::ParseQuery(sql));
  analysis::Catalog catalog;
  for (const auto& [name, rel] : tables) {
    catalog.PutTable(name, rel->schema());
  }
  analysis::Analyzer analyzer(&catalog);
  RASQL_ASSIGN_OR_RETURN(analysis::AnalyzedQuery analyzed,
                         analyzer.Analyze(query));
  analyzed.Optimize({});
  return analyzed;
}

constexpr char kTc[] = R"(
    WITH recursive tc (Src, Dst) AS
      (SELECT Src, Dst FROM edge) UNION
      (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
    SELECT Src, Dst FROM tc)";

TEST(LocalFixpointTest, NaiveAndSemiNaiveAgreeOnTc) {
  Relation edge = MakeIntRelation({"Src", "Dst"},
                                  {{1, 2}, {2, 3}, {3, 4}, {4, 2}});
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kTc, tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();

  FixpointOptions sn;
  sn.mode = FixpointMode::kSemiNaive;
  FixpointStats sn_stats;
  auto sn_result =
      EvaluateCliqueLocal(analyzed->cliques[0], tables, sn, &sn_stats);
  ASSERT_TRUE(sn_result.ok()) << sn_result.status();
  EXPECT_TRUE(sn_stats.used_semi_naive);

  FixpointOptions naive;
  naive.mode = FixpointMode::kNaive;
  FixpointStats naive_stats;
  auto naive_result =
      EvaluateCliqueLocal(analyzed->cliques[0], tables, naive, &naive_stats);
  ASSERT_TRUE(naive_result.ok()) << naive_result.status();
  EXPECT_FALSE(naive_stats.used_semi_naive);

  EXPECT_TRUE(storage::SameBag(sn_result->at("tc"), naive_result->at("tc")));
  // Semi-naive touches far fewer tuples than naive's full recomputation.
  EXPECT_LT(sn_stats.total_delta_rows, naive_stats.total_delta_rows);
}

TEST(LocalFixpointTest, NonLinearTcMatchesLinear) {
  // tc a, tc b — two recursive references in one branch; semi-naive must
  // produce one term per reference and still reach the same closure.
  Relation edge = MakeIntRelation({"Src", "Dst"},
                                  {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}});
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  const char* nonlinear = R"(
      WITH recursive tc (Src, Dst) AS
        (SELECT Src, Dst FROM edge) UNION
        (SELECT a.Src, b.Dst FROM tc a, tc b WHERE a.Dst = b.Src)
      SELECT Src, Dst FROM tc)";
  auto lin = Compile(kTc, tables);
  auto non = Compile(nonlinear, tables);
  ASSERT_TRUE(lin.ok() && non.ok());

  FixpointOptions options;
  FixpointStats s1, s2;
  auto linear_result =
      EvaluateCliqueLocal(lin->cliques[0], tables, options, &s1);
  auto nonlinear_result =
      EvaluateCliqueLocal(non->cliques[0], tables, options, &s2);
  ASSERT_TRUE(linear_result.ok() && nonlinear_result.ok());
  EXPECT_TRUE(storage::SameBag(linear_result->at("tc"),
                               nonlinear_result->at("tc")));
  // Non-linear doubling reaches the fixpoint in ~log(diameter) rounds.
  EXPECT_LT(s2.iterations, s1.iterations);
  // Linear TC builds its loop-invariant edge table once. Both build sides
  // of the non-linear join read the view, so every unit — every plan
  // execution but the one base plan — builds its own.
  EXPECT_EQ(s1.hash_builds, 1u);
  EXPECT_EQ(s2.hash_builds, s2.plan_executions - 1);
}

TEST(LocalFixpointTest, SemiNaiveRequestRejectedWhenUnsafe) {
  Relation edge = MakeIntRelation({"Src", "Dst"}, {{1, 2}});
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  // sum view with a filter on the aggregate column: naive-only.
  auto analyzed = Compile(R"(
      WITH recursive v(X, sum() AS S) AS
        (SELECT Src, 1 FROM edge) UNION
        (SELECT edge.Dst, v.S FROM v, edge
         WHERE v.X = edge.Src AND v.S < 10)
      SELECT X, S FROM v)",
                          tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  FixpointOptions options;
  options.mode = FixpointMode::kSemiNaive;
  auto result =
      EvaluateCliqueLocal(analyzed->cliques[0], tables, options, nullptr);
  EXPECT_FALSE(result.ok());
  // kAuto silently falls back to naive and succeeds.
  options.mode = FixpointMode::kAuto;
  FixpointStats stats;
  auto auto_result =
      EvaluateCliqueLocal(analyzed->cliques[0], tables, options, &stats);
  ASSERT_TRUE(auto_result.ok()) << auto_result.status();
  EXPECT_FALSE(stats.used_semi_naive);
}

TEST(DistributedFixpointTest, EligibilityRules) {
  Relation edge = MakeIntRelation({"Src", "Dst"}, {{1, 2}});
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto tc = Compile(kTc, tables);
  ASSERT_TRUE(tc.ok());
  EXPECT_TRUE(EligibleForDistributed(tc->cliques[0]));

  // Mutual recursion: not eligible.
  auto mutual = Compile(R"(
      WITH recursive a(X) AS
        (SELECT Src FROM edge) UNION (SELECT b.Y FROM b),
      recursive b(Y) AS (SELECT a.X FROM a WHERE a.X > 1)
      SELECT X FROM a)",
                        tables);
  ASSERT_TRUE(mutual.ok()) << mutual.status();
  EXPECT_FALSE(EligibleForDistributed(mutual->cliques[0]));

  // Non-linear recursion (two refs in one branch): not eligible.
  auto nonlinear = Compile(R"(
      WITH recursive tc (Src, Dst) AS
        (SELECT Src, Dst FROM edge) UNION
        (SELECT a.Src, b.Dst FROM tc a, tc b WHERE a.Dst = b.Src)
      SELECT Src, Dst FROM tc)",
                           tables);
  ASSERT_TRUE(nonlinear.ok());
  EXPECT_FALSE(EligibleForDistributed(nonlinear->cliques[0]));
}

TEST(DistributedFixpointTest, DecomposedDetectionAndKey) {
  datagen::GridOptions opt;
  opt.side = 6;
  Relation edge = datagen::ToEdgeRelation(datagen::GenerateGrid(opt));
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kTc, tables);
  ASSERT_TRUE(analyzed.ok());

  dist::Cluster cluster(dist::ClusterConfig{});
  DistFixpointOptions options;
  options.decomposed = DistFixpointOptions::Decomposed::kAuto;
  FixpointStats stats;
  auto result = EvaluateCliqueDistributed(analyzed->cliques[0], tables,
                                          &cluster, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  // TC preserves the delta's Src column: decomposed kicks in, partitioning
  // on column 0.
  EXPECT_TRUE(stats.used_decomposed);
  EXPECT_EQ(stats.partition_key, (std::vector<int>{0}));

  // SSSP's projection rebuilds the key column: not decomposable.
  Relation wedge{storage::Schema::Of({{"Src", storage::ValueType::kInt64},
                                      {"Dst", storage::ValueType::kInt64},
                                      {"Cost",
                                       storage::ValueType::kDouble}})};
  wedge.Add({storage::Value::Int(0), storage::Value::Int(1),
             storage::Value::Double(1)});
  std::map<std::string, const Relation*> wtables = {{"edge", &wedge}};
  auto sssp = Compile(R"(
      WITH recursive path (Dst, min() AS Cost) AS
        (SELECT 0, 0.0) UNION
        (SELECT edge.Dst, path.Cost + edge.Cost
         FROM path, edge WHERE path.Dst = edge.Src)
      SELECT Dst, Cost FROM path)",
                      wtables);
  ASSERT_TRUE(sssp.ok());
  dist::Cluster cluster2(dist::ClusterConfig{});
  FixpointStats sssp_stats;
  auto sssp_result = EvaluateCliqueDistributed(
      sssp->cliques[0], wtables, &cluster2, DistFixpointOptions{},
      &sssp_stats);
  ASSERT_TRUE(sssp_result.ok()) << sssp_result.status();
  EXPECT_FALSE(sssp_stats.used_decomposed);
  EXPECT_EQ(sssp_stats.partition_key, (std::vector<int>{0}));  // join key
}

TEST(DistributedFixpointTest, ForcingDecomposedOnIneligiblePlanFails) {
  Relation wedge{storage::Schema::Of({{"Src", storage::ValueType::kInt64},
                                      {"Dst", storage::ValueType::kInt64},
                                      {"Cost",
                                       storage::ValueType::kDouble}})};
  wedge.Add({storage::Value::Int(0), storage::Value::Int(1),
             storage::Value::Double(1)});
  std::map<std::string, const Relation*> tables = {{"edge", &wedge}};
  auto sssp = Compile(R"(
      WITH recursive path (Dst, min() AS Cost) AS
        (SELECT 0, 0.0) UNION
        (SELECT edge.Dst, path.Cost + edge.Cost
         FROM path, edge WHERE path.Dst = edge.Src)
      SELECT Dst, Cost FROM path)",
                      tables);
  ASSERT_TRUE(sssp.ok());
  dist::Cluster cluster(dist::ClusterConfig{});
  DistFixpointOptions options;
  options.decomposed = DistFixpointOptions::Decomposed::kOn;
  auto result = EvaluateCliqueDistributed(sssp->cliques[0], tables, &cluster,
                                          options, nullptr);
  EXPECT_FALSE(result.ok());
}

TEST(DistributedFixpointTest, StageCountsPerIteration) {
  Relation edge = MakeIntRelation(
      {"Src", "Dst"}, {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  // REACH: chain of 6, so 6 iterations (last one empty-delta).
  auto analyzed = Compile(R"(
      WITH recursive reach (Dst) AS
        (SELECT 1) UNION
        (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src)
      SELECT Dst FROM reach)",
                          tables);
  ASSERT_TRUE(analyzed.ok());

  // Combined: ~1 stage per iteration; plain: 2 per iteration.
  DistFixpointOptions combined;
  combined.decomposed = DistFixpointOptions::Decomposed::kOff;
  dist::Cluster c1(dist::ClusterConfig{});
  FixpointStats s1;
  ASSERT_TRUE(EvaluateCliqueDistributed(analyzed->cliques[0], tables, &c1,
                                        combined, &s1)
                  .ok());

  DistFixpointOptions plain = combined;
  plain.combine_stages = false;
  dist::Cluster c2(dist::ClusterConfig{});
  FixpointStats s2;
  ASSERT_TRUE(EvaluateCliqueDistributed(analyzed->cliques[0], tables, &c2,
                                        plain, &s2)
                  .ok());
  EXPECT_EQ(s1.iterations, s2.iterations);
  EXPECT_LT(c1.metrics().num_stages(), c2.metrics().num_stages());
}

// ---- Local parallel path: results and stats must be bit-identical at
// every thread count, in both modes (DESIGN.md §9). ----

struct LocalRun {
  std::vector<storage::Row> rows;
  FixpointStats stats;
};

LocalRun RunLocal(const analysis::AnalyzedQuery& analyzed,
                  const std::map<std::string, const Relation*>& tables,
                  FixpointMode mode, int threads) {
  FixpointOptions options;
  options.mode = mode;
  options.runtime.num_threads = threads;
  LocalRun run;
  auto views =
      EvaluateCliqueLocal(analyzed.cliques[0], tables, options, &run.stats);
  EXPECT_TRUE(views.ok()) << views.status();
  if (views.ok()) run.rows = views->begin()->second.MaterializeRows();
  return run;
}

void ExpectIdentical(const LocalRun& a, const LocalRun& b,
                     const std::string& label) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_EQ(a.rows[i].size(), b.rows[i].size()) << label << " row " << i;
    for (size_t c = 0; c < a.rows[i].size(); ++c) {
      EXPECT_TRUE(a.rows[i][c] == b.rows[i][c])
          << label << " row " << i << " col " << c;
    }
  }
  EXPECT_EQ(a.stats.iterations, b.stats.iterations) << label;
  EXPECT_EQ(a.stats.total_delta_rows, b.stats.total_delta_rows) << label;
  EXPECT_EQ(a.stats.plan_executions, b.stats.plan_executions) << label;
  EXPECT_EQ(a.stats.hash_builds, b.stats.hash_builds) << label;
  EXPECT_EQ(a.stats.hit_iteration_limit, b.stats.hit_iteration_limit)
      << label;
  EXPECT_EQ(a.stats.used_semi_naive, b.stats.used_semi_naive) << label;
  EXPECT_EQ(a.stats.partition_key, b.stats.partition_key) << label;
}

TEST(LocalFixpointParallelTest, TcBitIdenticalAcrossThreads) {
  datagen::GridOptions opt;
  opt.side = 8;
  Relation edge = datagen::ToEdgeRelation(datagen::GenerateGrid(opt));
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kTc, tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  for (FixpointMode mode : {FixpointMode::kNaive, FixpointMode::kSemiNaive}) {
    const std::string label =
        mode == FixpointMode::kNaive ? "tc/naive" : "tc/semi-naive";
    LocalRun reference = RunLocal(*analyzed, tables, mode, 1);
    EXPECT_GT(reference.stats.iterations, 2) << label;
    EXPECT_FALSE(reference.rows.empty()) << label;
    for (int threads : {2, 8}) {
      LocalRun run = RunLocal(*analyzed, tables, mode, threads);
      ExpectIdentical(reference, run,
                      label + "/threads=" + std::to_string(threads));
    }
  }
}

constexpr char kSssp[] = R"(
    WITH recursive path (Dst, min() AS Cost) AS
      (SELECT 0, 0.0) UNION
      (SELECT edge.Dst, path.Cost + edge.Cost
       FROM path, edge WHERE path.Dst = edge.Src)
    SELECT Dst, Cost FROM path)";

Relation WeightedRingGraph() {
  Relation edge{storage::Schema::Of({{"Src", storage::ValueType::kInt64},
                                     {"Dst", storage::ValueType::kInt64},
                                     {"Cost",
                                      storage::ValueType::kDouble}})};
  // Cyclic, with chords: many alternative paths per vertex, so the min
  // aggregate does real tie-breaking over double-valued costs.
  for (int v = 0; v < 24; ++v) {
    edge.Add({storage::Value::Int(v), storage::Value::Int((v + 1) % 24),
              storage::Value::Double(1.0 + 0.1 * v)});
    edge.Add({storage::Value::Int(v), storage::Value::Int((v + 7) % 24),
              storage::Value::Double(2.5 + 0.01 * v)});
  }
  return edge;
}

TEST(LocalFixpointParallelTest, SsspBitIdenticalAcrossThreads) {
  Relation edge = WeightedRingGraph();
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kSssp, tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  for (FixpointMode mode : {FixpointMode::kNaive, FixpointMode::kSemiNaive}) {
    const std::string label =
        mode == FixpointMode::kNaive ? "sssp/naive" : "sssp/semi-naive";
    LocalRun reference = RunLocal(*analyzed, tables, mode, 1);
    EXPECT_GT(reference.stats.iterations, 2) << label;
    EXPECT_EQ(reference.rows.size(), 24u) << label;
    for (int threads : {2, 8}) {
      LocalRun run = RunLocal(*analyzed, tables, mode, threads);
      ExpectIdentical(reference, run,
                      label + "/threads=" + std::to_string(threads));
    }
  }
}

TEST(LocalFixpointTest, NaiveBasePlansExecuteOnce) {
  Relation edge = MakeIntRelation({"Src", "Dst"},
                                  {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kTc, tables);
  ASSERT_TRUE(analyzed.ok());
  FixpointOptions options;
  options.mode = FixpointMode::kNaive;
  FixpointStats stats;
  auto result =
      EvaluateCliqueLocal(analyzed->cliques[0], tables, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  // The one base branch is loop-invariant and runs exactly once; the one
  // recursive branch runs every iteration. Before the hoist the base
  // branch re-executed per iteration (2 * iterations total).
  EXPECT_GT(stats.iterations, 3);
  EXPECT_EQ(stats.plan_executions,
            1 + static_cast<size_t>(stats.iterations));
}

TEST(LocalFixpointTest, NonRecursiveCliqueReportsStats) {
  Relation edge = MakeIntRelation({"Src", "Dst"}, {{1, 2}, {1, 2}, {2, 3}});
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(R"(
      WITH recursive v (X) AS (SELECT Src FROM edge)
      SELECT X FROM v)",
                          tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  ASSERT_FALSE(analyzed->cliques[0].IsRecursive());
  FixpointStats stats;
  auto result = EvaluateCliqueLocal(analyzed->cliques[0], tables,
                                    FixpointOptions{}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  // Set semantics dedup the duplicate (1,2) source: {1, 2}.
  EXPECT_EQ(result->at("v").size(), 2u);
  EXPECT_EQ(stats.iterations, 1);
  EXPECT_EQ(stats.plan_executions, 1u);
  EXPECT_EQ(stats.total_delta_rows, result->at("v").size());
}

datagen::Graph WeightedRmatGraph() {
  datagen::RmatOptions opt;
  opt.num_vertices = 256;
  opt.edges_per_vertex = 4;
  opt.weighted = true;
  opt.min_weight = 1.0;
  opt.seed = 11;
  return datagen::GenerateRmat(opt);
}

Relation WeightedRmat() {
  return datagen::ToEdgeRelation(WeightedRmatGraph());
}

TEST(LocalFixpointTest, ColdSsspBuildsTheEdgeTableOnce) {
  // PAPER App. D: the step's build side reads no recursive reference, so
  // one shared hash table serves every partition, morsel and iteration
  // instead of one per (partition, iteration) unit.
  Relation edge = WeightedRmat();
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kSssp, tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  for (FixpointMode mode : {FixpointMode::kSemiNaive, FixpointMode::kNaive}) {
    for (int threads : {1, 2, 8}) {
      for (size_t morsel_rows : {size_t{0}, size_t{7}}) {
        for (size_t batch_rows : {size_t{0}, size_t{64}}) {
          const std::string label =
              std::string(mode == FixpointMode::kNaive ? "naive" : "semi") +
              " threads=" + std::to_string(threads) +
              " morsel=" + std::to_string(morsel_rows) +
              " batch=" + std::to_string(batch_rows);
          FixpointOptions options;
          options.mode = mode;
          options.runtime.num_threads = threads;
          options.runtime.morsel_rows = morsel_rows;
          options.runtime.batch_rows = batch_rows;
          FixpointStats stats;
          auto result = EvaluateCliqueLocal(analyzed->cliques[0], tables,
                                            options, &stats);
          ASSERT_TRUE(result.ok()) << label << ": " << result.status();
          EXPECT_GT(stats.plan_executions, 5u) << label;
          EXPECT_EQ(stats.hash_builds, 1u) << label;
        }
      }
    }
  }
}

TEST(DistributedFixpointTest, StepBuildSidesAreCachedPerPartition) {
  Relation edge = WeightedRmat();
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kSssp, tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  DistFixpointOptions combined;
  DistFixpointOptions plain;
  plain.combine_stages = false;
  for (const DistFixpointOptions& options : {combined, plain}) {
    dist::ClusterConfig config;
    config.num_partitions = 6;
    dist::Cluster cluster(config);
    FixpointStats stats;
    auto result = EvaluateCliqueDistributed(analyzed->cliques[0], tables,
                                            &cluster, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    // At most one build per partition for the one recursive step, however
    // many iterations probe it.
    EXPECT_GT(stats.iterations, 3);
    EXPECT_GT(stats.hash_builds, 0u);
    EXPECT_LE(stats.hash_builds, 6u);
  }
}

// ---- The distributed step runs the local engine's fused pipeline: the
// same rows, and the same hash_builds definition (DESIGN.md §18). ----

struct DistRun {
  std::vector<storage::Row> rows;
  FixpointStats stats;
  dist::JobMetrics metrics;
};

DistRun RunDistributed(const analysis::AnalyzedQuery& analyzed,
                       const std::map<std::string, const Relation*>& tables,
                       const DistFixpointOptions& options,
                       const runtime::RuntimeOptions& runtime,
                       int partitions = 6) {
  dist::ClusterConfig config;
  config.num_partitions = partitions;
  dist::Cluster cluster(config, runtime);
  DistRun run;
  auto views = EvaluateCliqueDistributed(analyzed.cliques[0], tables,
                                         &cluster, options, &run.stats);
  EXPECT_TRUE(views.ok()) << views.status();
  if (views.ok()) run.rows = views->begin()->second.MaterializeRows();
  run.metrics = cluster.metrics();
  return run;
}

void ExpectSameRows(const std::vector<storage::Row>& want,
                    const std::vector<storage::Row>& got,
                    const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << label << " row " << i;
  }
}

constexpr char kFilteredSssp[] = R"(
    WITH recursive path (Dst, min() AS Cost) AS
      (SELECT 0, 0.0) UNION
      (SELECT edge.Dst, path.Cost + edge.Cost
       FROM path, edge WHERE path.Dst = edge.Src AND edge.Cost < 1000.0)
    SELECT Dst, Cost FROM path)";

TEST(DistributedFixpointTest, FilteredBuildSideIsBoundOncePerPartition) {
  // The optimizer pushes `edge.Cost < 1000.0` onto the edge leaf, so the
  // step is no bare Join(ref, scan): its build side is a filtered table.
  // It reads no view rows, so each partition still binds it once, however
  // many iterations probe it.
  Relation edge = WeightedRmat();
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kFilteredSssp, tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  const LocalRun local =
      RunLocal(*analyzed, tables, FixpointMode::kSemiNaive, 1);
  // Plain DSN at morsel 7 splits the step, so at 8 threads a partition's
  // sub-tasks race to its invariant bind.
  const struct {
    bool combine;
    size_t morsel_rows;
  } modes[] = {{true, 0}, {false, 0}, {false, 7}};
  for (const auto& mode : modes) {
    for (int threads : {1, 8}) {
      const std::string label =
          std::string(mode.combine ? "combined" : "plain") +
          " morsel=" + std::to_string(mode.morsel_rows) +
          " threads=" + std::to_string(threads);
      DistFixpointOptions options;
      options.combine_stages = mode.combine;
      runtime::RuntimeOptions runtime;
      runtime.num_threads = threads;
      runtime.morsel_rows = mode.morsel_rows;
      const DistRun run = RunDistributed(*analyzed, tables, options, runtime);
      EXPECT_GT(run.stats.iterations, 3) << label;
      EXPECT_GT(run.stats.hash_builds, 0u) << label;
      EXPECT_LE(run.stats.hash_builds, 6u) << label;
      ExpectSameRows(local.rows, run.rows, label);
    }
  }
}

constexpr char kSsspViewOnTheRight[] = R"(
    WITH recursive path (Dst, min() AS Cost) AS
      (SELECT 0, 0.0) UNION
      (SELECT edge.Dst, path.Cost + edge.Cost
       FROM edge, path WHERE edge.Src = path.Dst)
    SELECT Dst, Cost FROM path)";

TEST(DistributedFixpointTest, ViewOnTheRightMatchesLocalAndSerial) {
  // The pipeline drives the edge slice and builds on the delta, so the
  // step is not morsel-splittable and binds a view-reading build side per
  // delta — the same plan the local engine runs.
  const datagen::Graph graph = WeightedRmatGraph();
  Relation edge = datagen::ToEdgeRelation(graph);
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kSsspViewOnTheRight, tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  const std::vector<double> expected =
      baselines::SerialSssp(baselines::Csr::Build(graph), 0);
  size_t reachable = 0;
  for (double d : expected) reachable += std::isinf(d) ? 0 : 1;
  for (physical::JoinAlgorithm algorithm :
       {physical::JoinAlgorithm::kHash, physical::JoinAlgorithm::kSortMerge}) {
    for (size_t batch_rows : {size_t{0}, size_t{64}}) {
      for (size_t morsel_rows : {size_t{0}, size_t{7}}) {
        FixpointOptions local_options;
        local_options.join_algorithm = algorithm;
        local_options.runtime.batch_rows = batch_rows;
        local_options.runtime.morsel_rows = morsel_rows;
        auto local = EvaluateCliqueLocal(analyzed->cliques[0], tables,
                                         local_options, nullptr);
        ASSERT_TRUE(local.ok()) << local.status();
        const std::vector<storage::Row> local_rows =
            local->begin()->second.MaterializeRows();
        for (bool combine : {true, false}) {
          const std::string label =
              std::string(algorithm == physical::JoinAlgorithm::kHash
                              ? "hash"
                              : "sort-merge") +
              " batch=" + std::to_string(batch_rows) +
              " morsel=" + std::to_string(morsel_rows) +
              (combine ? " combined" : " plain");
          DistFixpointOptions options;
          options.join_algorithm = algorithm;
          options.combine_stages = combine;
          const DistRun run = RunDistributed(*analyzed, tables, options,
                                             local_options.runtime);
          ExpectSameRows(local_rows, run.rows, label);
          ASSERT_EQ(run.rows.size(), reachable) << label;
          for (const storage::Row& row : run.rows) {
            EXPECT_EQ(row[1].AsDouble(), expected[row[0].AsInt()])
                << label << " vertex " << row[0].AsInt();
          }
        }
      }
    }
  }
}

constexpr char kSameGeneration[] = R"(
    WITH recursive sg (X, Y) AS
      (SELECT a.Child, b.Child FROM rel a, rel b
       WHERE a.Parent = b.Parent AND a.Child <> b.Child) UNION
      (SELECT a.Child, b.Child FROM rel a, sg, rel b
       WHERE a.Parent = sg.X AND b.Parent = sg.Y)
    SELECT X, Y FROM sg)";

Relation Tree() {
  datagen::TreeOptions opt;
  opt.height = 4;
  opt.max_nodes = 300;
  opt.leaf_probability = 0.0;
  Relation rel{storage::Schema::Of({{"Parent", storage::ValueType::kInt64},
                                    {"Child", storage::ValueType::kInt64}})};
  for (const auto& [parent, child] : datagen::GenerateTree(opt).edges) {
    rel.Add({storage::Value::Int(parent), storage::Value::Int(child)});
  }
  return rel;
}

TEST(DistributedFixpointTest, SameGenerationRunsUnsplitLikeLocal) {
  // SG's pipeline is driven by `rel a`, probes the view (`sg`, bound per
  // delta) and then `rel b` (bound once per partition). It is not driven
  // by the delta, so no morsel size splits its map stage.
  Relation rel = Tree();
  std::map<std::string, const Relation*> tables = {{"rel", &rel}};
  auto analyzed = Compile(kSameGeneration, tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  const LocalRun local =
      RunLocal(*analyzed, tables, FixpointMode::kSemiNaive, 1);
  ASSERT_GT(local.rows.size(), 100u);

  DistFixpointOptions plain;
  plain.combine_stages = false;
  runtime::RuntimeOptions morsels;
  morsels.morsel_rows = 7;
  for (int threads : {1, 8}) {
    morsels.num_threads = threads;
    const DistRun run = RunDistributed(*analyzed, tables, plain, morsels);
    const std::string label = "threads=" + std::to_string(threads);
    ExpectSameRows(local.rows, run.rows, label);
    int maps = 0;
    for (const dist::StageMetrics& stage : run.metrics.stages) {
      if (stage.name.rfind("map-", 0) != 0) continue;
      ++maps;
      EXPECT_EQ(stage.num_exec_tasks, stage.num_tasks)
          << label << " " << stage.name;
    }
    EXPECT_EQ(maps, run.stats.iterations) << label;
  }
  // EXPLAIN STAGES renders the same pipelined map/reduce pairs.
  runtime::RuntimeOptions whole;
  auto split_graph =
      PlanDistributedStages(analyzed->cliques[0], plain, morsels, 6);
  auto whole_graph =
      PlanDistributedStages(analyzed->cliques[0], plain, whole, 6);
  ASSERT_TRUE(split_graph.ok() && whole_graph.ok());
  EXPECT_EQ(split_graph->ToString(), whole_graph->ToString());
  EXPECT_EQ(split_graph->ToString().find(", split"), std::string::npos);
}

TEST(DistributedFixpointTest, OnePartitionCountsHashBuildsLikeLocal) {
  // hash_builds means the same in both engines: invariant build sides
  // once (per evaluation locally, per partition distributed) plus one per
  // bind for each build side that reads the view. With one partition of
  // each, both engines bind the same deltas, so the counts agree.
  Relation edge = WeightedRmat();
  Relation rel = Tree();
  const std::map<std::string, const Relation*> tables = {{"edge", &edge},
                                                         {"rel", &rel}};
  for (const char* sql : {kSssp, kSsspViewOnTheRight, kSameGeneration}) {
    auto analyzed = Compile(sql, tables);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status();
    FixpointOptions local_options;
    local_options.local_partitions = 1;
    FixpointStats local;
    ASSERT_TRUE(EvaluateCliqueLocal(analyzed->cliques[0], tables,
                                    local_options, &local)
                    .ok());
    EXPECT_GT(local.hash_builds, 0u) << sql;
    for (bool combine : {true, false}) {
      DistFixpointOptions options;
      options.combine_stages = combine;
      const DistRun run =
          RunDistributed(*analyzed, tables, options, {}, /*partitions=*/1);
      EXPECT_EQ(run.stats.hash_builds, local.hash_builds)
          << sql << (combine ? " combined" : " plain");
    }
  }
}

// ---- The base case runs in the seed stage's tasks (PAPER Alg. 4/5): each
// task evaluates its range of the base branches on pipelines bound once on
// the driver, pre-aggregates it and shuffles it. The rows equal the local
// engine's, and nothing in FixpointStats or the modeled stages depends on
// the thread count or the async pipeline. ----

struct SeedSplitCase {
  const char* name;
  const char* sql;
};

constexpr SeedSplitCase kSeedSplitCases[] = {
    // A join base: `b.Cost < 40.0` is pushed onto the build side, which is
    // bound once on the driver and probed by every seed task.
    {"filtered-join", R"(
        WITH recursive path (Dst, min() AS Cost) AS
          (SELECT b.Dst, a.Cost + b.Cost FROM edge a, edge b
           WHERE a.Dst = b.Src AND b.Cost < 40.0) UNION
          (SELECT edge.Dst, path.Cost + edge.Cost
           FROM path, edge WHERE path.Dst = edge.Src)
        SELECT Dst, Cost FROM path)"},
    // One VALUES row: every task but one has an empty split.
    {"values", kSssp},
    // Two branches whose keys overlap: the splits are ranges of both
    // branches laid end to end.
    {"two-branch", R"(
        WITH recursive m (N, min() AS C) AS
          (SELECT Dst, Cost FROM edge WHERE Src < 100) UNION
          (SELECT Src, Cost + 0.5 FROM edge WHERE Dst < 100) UNION
          (SELECT edge.Dst, m.C + edge.Cost FROM m, edge WHERE m.N = edge.Src)
        SELECT N, C FROM m)"},
    // A cross join does not compile to a pipeline: it is evaluated on the
    // driver and the tasks slice its rows, between a compiled branch's.
    {"cross-join", R"(
        WITH recursive r (X, Y) AS
          (SELECT Src, Dst FROM edge WHERE Src = 9) UNION
          (SELECT a.Src, b.Dst FROM edge a, edge b
           WHERE a.Src = 5 AND b.Src = 6) UNION
          (SELECT r.X, edge.Dst FROM r, edge WHERE r.Y = edge.Src)
        SELECT X, Y FROM r)"},
    // An aggregate on the spine does not compile either.
    {"aggregate", R"(
        WITH recursive r (X, min() AS C) AS
          (SELECT Src, min(Cost) FROM edge GROUP BY Src) UNION
          (SELECT edge.Dst, r.C + edge.Cost FROM r, edge WHERE r.X = edge.Src)
        SELECT X, C FROM r)"},
    {"empty", R"(
        WITH recursive path (Dst, min() AS Cost) AS
          (SELECT Dst, Cost FROM edge WHERE Src < 0) UNION
          (SELECT edge.Dst, path.Cost + edge.Cost
           FROM path, edge WHERE path.Dst = edge.Src)
        SELECT Dst, Cost FROM path)"},
    // A bare scan (decomposed TC): the tasks slice the borrowed table.
    {"scan", kTc},
};

/// Every FixpointStats field, for whole-struct equality.
std::string StatsFields(const FixpointStats& s) {
  std::string key;
  for (int k : s.partition_key) key += std::to_string(k) + ",";
  return "iterations=" + std::to_string(s.iterations) +
         " delta=" + std::to_string(s.total_delta_rows) +
         " plans=" + std::to_string(s.plan_executions) +
         " hash_builds=" + std::to_string(s.hash_builds) +
         " limit=" + std::to_string(s.hit_iteration_limit) +
         " semi_naive=" + std::to_string(s.used_semi_naive) +
         " decomposed=" + std::to_string(s.used_decomposed) + " key=" + key +
         " warm=" + std::to_string(s.warm_starts) +
         " seed=" + std::to_string(s.seed_delta_rows) +
         " saved=" + std::to_string(s.iterations_saved);
}

/// The modeled stages: names, task counts and byte counts.
std::string StageFields(const dist::JobMetrics& m) {
  std::string out = "broadcast=" + std::to_string(m.broadcast_bytes);
  for (const dist::StageMetrics& stage : m.stages) {
    out += " [" + stage.name + " " + std::to_string(stage.num_tasks) + " " +
           std::to_string(stage.shuffle_bytes) + " " +
           std::to_string(stage.remote_bytes) + "]";
  }
  return out;
}

/// Runs `clique` distributed at threads {1, 8} × async_shuffle {off, on} ×
/// combine_stages {on, off}, every submission verified: rows must equal
/// `want`, and per combine setting the stats and modeled stages must not
/// change with threads or async_shuffle.
void ExpectSeedSplitMatrix(const analysis::RecursiveClique& clique,
                           const std::map<std::string, const Relation*>& tables,
                           const WarmStartInput* warm,
                           const std::vector<storage::Row>& want,
                           const std::string& name) {
  for (bool combine : {true, false}) {
    std::string stats0;
    std::string stages0;
    for (int threads : {1, 8}) {
      for (bool async : {false, true}) {
        const std::string label = name + (combine ? " combined" : " plain") +
                                  " threads=" + std::to_string(threads) +
                                  (async ? " async" : "");
        DistFixpointOptions options;
        options.combine_stages = combine;
        options.warm_start = warm;
        runtime::RuntimeOptions runtime;
        runtime.num_threads = threads;
        runtime.async_shuffle = async;
        runtime.verify_stages = true;
        dist::ClusterConfig config;
        config.num_partitions = 6;
        dist::Cluster cluster(config, runtime);
        FixpointStats stats;
        auto views =
            EvaluateCliqueDistributed(clique, tables, &cluster, options, &stats);
        ASSERT_TRUE(views.ok()) << label << ": " << views.status();
        ExpectSameRows(want, views->begin()->second.MaterializeRows(), label);
        EXPECT_EQ(stats.warm_starts, warm != nullptr ? 1 : 0) << label;
        EXPECT_FALSE(cluster.verify_report().HasErrors())
            << label << "\n" << cluster.verify_report().ToString();
        if (stats0.empty()) {
          stats0 = StatsFields(stats);
          stages0 = StageFields(cluster.metrics());
        } else {
          EXPECT_EQ(StatsFields(stats), stats0) << label;
          EXPECT_EQ(StageFields(cluster.metrics()), stages0) << label;
        }
      }
    }
  }
}

TEST(DistributedSeedSplitTest, BaseCasesMatchLocalAcrossThreadsAndAsync) {
  Relation edge = WeightedRmat();
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  for (const SeedSplitCase& c : kSeedSplitCases) {
    auto analyzed = Compile(c.sql, tables);
    ASSERT_TRUE(analyzed.ok()) << c.name << ": " << analyzed.status();
    const LocalRun local =
        RunLocal(*analyzed, tables, FixpointMode::kSemiNaive, 1);
    if (std::string(c.name) == "empty") {
      EXPECT_TRUE(local.rows.empty());
    } else {
      EXPECT_GT(local.rows.size(), 1u) << c.name;
    }
    ExpectSeedSplitMatrix(analyzed->cliques[0], tables, nullptr, local.rows,
                          c.name);
  }
}

TEST(DistributedSeedSplitTest, WarmSeedMatchesColdLocal) {
  // The warm seed (DESIGN.md §14) is evaluated on the driver over the
  // appended rows, and the seed tasks slice it by range.
  const Relation all = WeightedRmat();
  Relation old_edges(all.schema());
  Relation appended(all.schema());
  for (size_t i = 0; i < all.size(); ++i) {
    (i % 9 == 4 ? appended : old_edges).AppendRow(all.GetRow(i));
  }
  const std::map<std::string, const Relation*> old_tables = {
      {"edge", &old_edges}};
  const std::map<std::string, const Relation*> tables = {{"edge", &all}};
  auto analyzed = Compile(kSssp, tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  const LocalRun prior =
      RunLocal(*analyzed, old_tables, FixpointMode::kSemiNaive, 1);
  const LocalRun cold = RunLocal(*analyzed, tables, FixpointMode::kSemiNaive, 1);
  const Relation converged(analyzed->cliques[0].views[0].schema, prior.rows);
  const std::map<std::string, Relation> deltas = {{"edge", appended}};
  WarmStartInput warm;
  warm.converged = &converged;
  warm.deltas = &deltas;
  warm.prior_iterations = prior.stats.iterations;
  ExpectSeedSplitMatrix(analyzed->cliques[0], tables, &warm, cold.rows,
                        "warm");
}

TEST(DistributedSeedSplitTest, ExplainStagesRendersTheSeedClaims) {
  Relation edge = WeightedRmat();
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kSssp, tables);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  for (bool combine : {true, false}) {
    DistFixpointOptions options;
    options.combine_stages = combine;
    auto graph =
        PlanDistributedStages(analyzed->cliques[0], options, {}, 6);
    ASSERT_TRUE(graph.ok()) << graph.status();
    const std::string text = graph->ToString();
    EXPECT_NE(text.find("seed-base-case  (map)  out: seed-exchange  "
                        "status: failure  [pair 0]"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("claims: base-pipelines(read-shared)"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("seed-splits"), std::string::npos) << text;
    lint::DiagnosticEngine diag;
    verify::VerifyStageGraph(*graph, &diag);
    EXPECT_FALSE(diag.HasErrors()) << diag.ToString();
  }
}

TEST(CollectRecursiveRefsTest, FindsAllRefs) {
  Relation edge = MakeIntRelation({"Src", "Dst"}, {{1, 2}});
  std::map<std::string, const Relation*> tables = {{"edge", &edge}};
  auto analyzed = Compile(kTc, tables);
  ASSERT_TRUE(analyzed.ok());
  const auto& view = analyzed->cliques[0].views[0];
  EXPECT_EQ(CollectRecursiveRefs(*view.recursive_plans[0]).size(), 1u);
  EXPECT_EQ(CollectRecursiveRefs(*view.base_plans[0]).size(), 0u);
}

}  // namespace
}  // namespace rasql::fixpoint
