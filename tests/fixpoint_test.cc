#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "datagen/graph_gen.h"
#include "fixpoint/distributed_fixpoint.h"
#include "fixpoint/local_fixpoint.h"
#include "sql/parser.h"

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

Relation WeightedRmat() {
  datagen::RmatOptions opt;
  opt.num_vertices = 256;
  opt.edges_per_vertex = 4;
  opt.weighted = true;
  opt.min_weight = 1.0;
  opt.seed = 11;
  return datagen::ToEdgeRelation(datagen::GenerateRmat(opt));
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
