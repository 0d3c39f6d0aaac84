// Morsel-determinism matrix (DESIGN.md §10/§13): query results,
// FixpointStats and the modeled JobMetrics must be bit-identical for every
// combination of thread count, morsel size and vectorized batch size, on
// both the local and the distributed path. Morsel splitting and batch
// execution change only HOW the work is cut and evaluated, never WHAT is
// computed or what the cost model sees.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/graph_gen.h"
#include "engine/rasql_context.h"

namespace rasql {
namespace {

using storage::Relation;

constexpr const char* kTc = R"(
    WITH recursive tc (Src, Dst) AS
      (SELECT Src, Dst FROM edge) UNION
      (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
    SELECT Src, Dst FROM tc)";

constexpr const char* kSssp = R"(
    WITH recursive path (Dst, min() AS Cost) AS
      (SELECT 1, 0.0) UNION
      (SELECT edge.Dst, path.Cost + edge.Cost
       FROM path, edge WHERE path.Dst = edge.Src)
    SELECT Dst, Cost FROM path)";

datagen::Graph TestGraph(bool weighted) {
  datagen::RmatOptions opt;
  opt.num_vertices = 128;
  opt.edges_per_vertex = 4;
  opt.weighted = weighted;
  opt.min_weight = 1.0;
  opt.seed = 7;
  return datagen::GenerateRmat(opt);
}

engine::EngineConfig MakeConfig(bool distributed, int threads,
                                size_t morsel_rows, size_t batch_rows = 0) {
  engine::EngineConfig config;
  config.distributed = distributed;
  config.cluster.num_workers = 5;
  config.cluster.num_partitions = 10;
  config.runtime.num_threads = threads;
  config.runtime.morsel_rows = morsel_rows;
  config.runtime.batch_rows = batch_rows;
  if (distributed) {
    // Exercise the plain-DSN map/reduce path — the stage the morsel
    // split applies to (combined and decomposed stages stay unsplit).
    config.dist_fixpoint.combine_stages = false;
    config.dist_fixpoint.decomposed =
        fixpoint::DistFixpointOptions::Decomposed::kOff;
  }
  return config;
}

engine::ExecutionResult RunQuery(const engine::EngineConfig& config,
                                 const char* sql, bool weighted) {
  engine::RaSqlContext ctx(config);
  EXPECT_TRUE(
      ctx.RegisterTable("edge", datagen::ToEdgeRelation(TestGraph(weighted)))
          .ok());
  auto result = ctx.Execute(sql);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result.value());
}

void ExpectIdentical(const engine::ExecutionResult& ref,
                     const engine::ExecutionResult& got,
                     const std::string& label) {
  // Exact rows in exact order — morsel merge order reproduces the
  // unsplit row order, not merely the same bag.
  ASSERT_EQ(ref.relation.size(), got.relation.size()) << label;
  for (size_t i = 0; i < ref.relation.size(); ++i) {
    ASSERT_EQ(ref.relation.GetRow(i), got.relation.GetRow(i))
        << label << " row " << i;
  }

  EXPECT_EQ(ref.fixpoint_stats.iterations, got.fixpoint_stats.iterations)
      << label;
  EXPECT_EQ(ref.fixpoint_stats.total_delta_rows,
            got.fixpoint_stats.total_delta_rows)
      << label;
  EXPECT_EQ(ref.fixpoint_stats.plan_executions,
            got.fixpoint_stats.plan_executions)
      << label;
  EXPECT_EQ(ref.fixpoint_stats.hash_builds, got.fixpoint_stats.hash_builds)
      << label;
  EXPECT_EQ(ref.fixpoint_stats.used_semi_naive,
            got.fixpoint_stats.used_semi_naive)
      << label;
  EXPECT_EQ(ref.fixpoint_stats.partition_key,
            got.fixpoint_stats.partition_key)
      << label;

  // Modeled-metric identity set: stage names, task counts and byte
  // counts. Measured seconds and the execution-observability fields
  // (num_exec_tasks, max_partition_splits) are excluded by design.
  ASSERT_EQ(ref.job_metrics.num_stages(), got.job_metrics.num_stages())
      << label;
  EXPECT_EQ(ref.job_metrics.broadcast_bytes, got.job_metrics.broadcast_bytes)
      << label;
  for (int s = 0; s < ref.job_metrics.num_stages(); ++s) {
    const dist::StageMetrics& a = ref.job_metrics.stages[s];
    const dist::StageMetrics& b = got.job_metrics.stages[s];
    EXPECT_EQ(a.name, b.name) << label << " stage " << s;
    EXPECT_EQ(a.num_tasks, b.num_tasks) << label << " stage " << s;
    EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes) << label << " stage " << s;
    EXPECT_EQ(a.remote_bytes, b.remote_bytes) << label << " stage " << s;
  }
}

class MorselMatrix : public ::testing::TestWithParam<bool> {};

TEST_P(MorselMatrix, ResultsStatsAndMetricsAreInvariant) {
  const bool distributed = GetParam();
  for (const char* sql : {kTc, kSssp}) {
    const bool weighted = sql == kSssp;
    engine::ExecutionResult ref =
        RunQuery(MakeConfig(distributed, 1, 0), sql, weighted);
    for (int threads : {1, 2, 8}) {
      for (size_t morsel_rows : {size_t{0}, size_t{7}}) {
        for (size_t batch_rows : {size_t{0}, size_t{64}}) {
          if (threads == 1 && morsel_rows == 0 && batch_rows == 0) continue;
          engine::ExecutionResult got =
              RunQuery(MakeConfig(distributed, threads, morsel_rows,
                                  batch_rows),
                       sql, weighted);
          ExpectIdentical(ref, got,
                          std::string(distributed ? "dist" : "local") +
                              " threads=" + std::to_string(threads) +
                              " morsel=" + std::to_string(morsel_rows) +
                              " batch=" + std::to_string(batch_rows) +
                              (weighted ? " sssp" : " tc"));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LocalAndDistributed, MorselMatrix,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? "Distributed" : "Local";
                         });

TEST(MorselSplit, DistributedMapStagesRunExtraTasks) {
  engine::ExecutionResult split =
      RunQuery(MakeConfig(true, 8, 7), kTc, /*weighted=*/false);
  bool saw_split_map = false;
  bool saw_multi_morsel_partition = false;
  for (const dist::StageMetrics& s : split.job_metrics.stages) {
    if (s.name.rfind("map-", 0) != 0) continue;
    EXPECT_GE(s.num_exec_tasks, s.num_tasks) << s.name;
    saw_split_map |= s.num_exec_tasks > s.num_tasks;
    // Late iterations may have deltas under one morsel everywhere; the
    // early big-delta iterations must show a partition cut into several.
    saw_multi_morsel_partition |= s.max_partition_splits > 1;
  }
  EXPECT_TRUE(saw_split_map)
      << "no map stage ran split sub-tasks despite morsel_rows=7";
  EXPECT_TRUE(saw_multi_morsel_partition)
      << "no partition was ever cut into more than one morsel";

  // Whole-partition morsels: every stage reports one closure per task.
  engine::ExecutionResult unsplit =
      RunQuery(MakeConfig(true, 8, 0), kTc, /*weighted=*/false);
  for (const dist::StageMetrics& s : unsplit.job_metrics.stages) {
    EXPECT_EQ(s.num_exec_tasks, s.num_tasks) << s.name;
    EXPECT_EQ(s.max_partition_splits, 1) << s.name;
  }
}

TEST(MorselSplit, NaiveModeIsMorselInvariant) {
  engine::EngineConfig ref_config = MakeConfig(false, 1, 0);
  ref_config.fixpoint.mode = fixpoint::FixpointMode::kNaive;
  engine::ExecutionResult ref = RunQuery(ref_config, kTc, /*weighted=*/false);

  engine::EngineConfig split_config = MakeConfig(false, 8, 5, 64);
  split_config.fixpoint.mode = fixpoint::FixpointMode::kNaive;
  engine::ExecutionResult got =
      RunQuery(split_config, kTc, /*weighted=*/false);
  ExpectIdentical(ref, got, "naive threads=8 morsel=5 batch=64");
}

}  // namespace
}  // namespace rasql
