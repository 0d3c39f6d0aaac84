// Warm-vs-cold identity matrix for warm-start fixpoint maintenance
// (DESIGN.md §14): after every INSERT in a sequence, an `--incremental`
// context's re-run must produce byte-identical rows to a cold context
// that saw the same writes — across TC and SSSP, the local and
// distributed engines, several thread counts and both batch modes — while
// honestly reporting its warm-start counters. Ineligible queries must
// fall back to a cold recompute (warm_starts == 0) and still be correct.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/graph_gen.h"
#include "engine/rasql_context.h"
#include "storage/result_format.h"

namespace rasql {
namespace {

using storage::Relation;
using storage::ResultFormat;

constexpr char kTc[] = R"(
    WITH recursive tc (Src, Dst) AS
      (SELECT Src, Dst FROM edge) UNION
      (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
    SELECT Src, Dst FROM tc)";

constexpr char kSssp[] = R"(
    WITH recursive path (Dst, min() AS Cost) AS
      (SELECT 1, 0.0) UNION
      (SELECT edge.Dst, path.Cost + edge.Cost
       FROM path, edge WHERE path.Dst = edge.Src)
    SELECT Dst, Cost FROM path)";

/// The INSERT sequence the matrix replays: multi-row, cycle-closing
/// appends that each reach a vertex outside the seed graph (IDs >= 1000),
/// so every write provably adds new TC tuples and new SSSP destinations
/// from source 1 — i.e. the warm seed delta is never empty.
const std::vector<std::string>& InsertSequence() {
  static const std::vector<std::string> inserts = {
      "INSERT INTO edge VALUES (1, 1000, 1.5)",
      "INSERT INTO edge VALUES (1000, 1001, 0.25), (1001, 1002, 2.0)",
      "INSERT INTO edge VALUES (1002, 1000, 1.0), (1002, 1003, 0.5)",
  };
  return inserts;
}

Relation SeedEdges() {
  datagen::RmatOptions opt;
  opt.num_vertices = 128;
  opt.edges_per_vertex = 3;
  opt.weighted = true;
  opt.min_weight = 0.5;
  opt.seed = 42;
  return datagen::ToEdgeRelation(datagen::GenerateRmat(opt));
}

// gtest names each case after the raw bytes of its parameter, so the
// struct has no padding: uninitialised padding bytes would change the test
// names from one run to the next.
enum class EngineKind : int32_t { kLocal = 0, kDistributed = 1 };

struct MatrixCase {
  EngineKind engine;
  int32_t threads;
  size_t batch_rows;
};
static_assert(sizeof(MatrixCase) ==
              sizeof(EngineKind) + sizeof(int32_t) + sizeof(size_t));

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  const bool dist = info.param.engine == EngineKind::kDistributed;
  return std::string(dist ? "dist" : "local") + "_t" +
         std::to_string(info.param.threads) + "_b" +
         std::to_string(info.param.batch_rows);
}

class WarmColdIdentity : public ::testing::TestWithParam<MatrixCase> {
 protected:
  engine::EngineConfig Config(bool incremental) const {
    engine::EngineConfig config;
    config.incremental = incremental;
    config.distributed = GetParam().engine == EngineKind::kDistributed;
    config.cluster.num_workers = 4;
    config.cluster.num_partitions = 8;
    config.runtime.num_threads = GetParam().threads;
    config.runtime.batch_rows = GetParam().batch_rows;
    return config;
  }

  /// Runs `query` over the same seed + INSERT sequence on a warm and a
  /// cold context; after every write the two must serve byte-identical
  /// CSV and the warm context must actually have warm-started.
  void ExpectWarmMatchesCold(const std::string& query) {
    engine::RaSqlContext warm(Config(/*incremental=*/true));
    engine::RaSqlContext cold(Config(/*incremental=*/false));
    ASSERT_TRUE(warm.RegisterTable("edge", SeedEdges()).ok());
    ASSERT_TRUE(cold.RegisterTable("edge", SeedEdges()).ok());

    auto w0 = warm.Execute(query);
    auto c0 = cold.Execute(query);
    ASSERT_TRUE(w0.ok()) << w0.status();
    ASSERT_TRUE(c0.ok()) << c0.status();
    EXPECT_EQ(storage::FormatRelation(w0->relation, ResultFormat::kCsv),
              storage::FormatRelation(c0->relation, ResultFormat::kCsv));
    EXPECT_EQ(w0->fixpoint_stats.warm_starts, 0);  // first run is cold
    EXPECT_GE(warm.WarmStateEntries(), 1u);        // ...and was captured

    for (const std::string& insert : InsertSequence()) {
      ASSERT_TRUE(warm.Execute(insert).ok());
      ASSERT_TRUE(cold.Execute(insert).ok());
      auto w = warm.Execute(query);
      auto c = cold.Execute(query);
      ASSERT_TRUE(w.ok()) << w.status();
      ASSERT_TRUE(c.ok()) << c.status();

      // Bit-identical result bytes (rows and order).
      EXPECT_EQ(storage::FormatRelation(w->relation, ResultFormat::kCsv),
                storage::FormatRelation(c->relation, ResultFormat::kCsv))
          << insert;

      // Honest warm counters: the warm run resumed, seeded from the
      // appended rows, and reports the iterations it skipped.
      EXPECT_EQ(w->fixpoint_stats.warm_starts, 1) << insert;
      EXPECT_GT(w->fixpoint_stats.seed_delta_rows, 0u) << insert;
      EXPECT_GE(w->fixpoint_stats.iterations_saved, 0) << insert;
      EXPECT_EQ(c->fixpoint_stats.warm_starts, 0) << insert;
      EXPECT_EQ(w->fixpoint_stats.used_semi_naive,
                c->fixpoint_stats.used_semi_naive);

      // Same engine shape: a distributed cold run and a distributed warm
      // run both ran cluster stages (or neither did, locally).
      EXPECT_EQ(w->job_metrics.num_stages() > 0,
                c->job_metrics.num_stages() > 0);
    }

    // Dropping the retained state forces the next run cold again — and it
    // must agree with the warm results it replaces.
    auto final_warm = warm.Execute(query);
    ASSERT_TRUE(final_warm.ok());
    warm.ClearWarmState();
    EXPECT_EQ(warm.WarmStateEntries(), 0u);
    auto recold = warm.Execute(query);
    ASSERT_TRUE(recold.ok());
    EXPECT_EQ(recold->fixpoint_stats.warm_starts, 0);
    EXPECT_EQ(storage::FormatRelation(recold->relation, ResultFormat::kCsv),
              storage::FormatRelation(final_warm->relation,
                                      ResultFormat::kCsv));
  }
};

TEST_P(WarmColdIdentity, TransitiveClosure) { ExpectWarmMatchesCold(kTc); }

TEST_P(WarmColdIdentity, SsspMinPaths) { ExpectWarmMatchesCold(kSssp); }

INSTANTIATE_TEST_SUITE_P(
    EnginesThreadsBatches, WarmColdIdentity,
    ::testing::Values(MatrixCase{EngineKind::kLocal, 1, 0},
                      MatrixCase{EngineKind::kLocal, 2, 0},
                      MatrixCase{EngineKind::kLocal, 8, 0},
                      MatrixCase{EngineKind::kLocal, 1, 64},
                      MatrixCase{EngineKind::kLocal, 8, 64},
                      MatrixCase{EngineKind::kDistributed, 1, 0},
                      MatrixCase{EngineKind::kDistributed, 2, 0},
                      MatrixCase{EngineKind::kDistributed, 8, 0},
                      MatrixCase{EngineKind::kDistributed, 1, 64},
                      MatrixCase{EngineKind::kDistributed, 8, 64}),
    CaseName);

TEST(WarmStartBuilds, EmptySeedDeltaBuildsNoHashTable) {
  // The appended edge leaves every reachable vertex, so the warm seed is
  // empty and the loop never runs: the step's build side is bound lazily,
  // at the first iteration with work, and is never built here.
  engine::EngineConfig config;
  config.incremental = true;
  engine::RaSqlContext ctx(config);
  ASSERT_TRUE(ctx.RegisterTable("edge", SeedEdges()).ok());
  auto cold = ctx.Execute(kSssp);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->fixpoint_stats.hash_builds, 1u);

  ASSERT_TRUE(ctx.Execute("INSERT INTO edge VALUES (9001, 9002, 1.0)").ok());
  auto warm = ctx.Execute(kSssp);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->fixpoint_stats.warm_starts, 1);
  EXPECT_EQ(warm->fixpoint_stats.seed_delta_rows, 0u);
  EXPECT_EQ(warm->fixpoint_stats.hash_builds, 0u);
  EXPECT_EQ(storage::FormatRelation(warm->relation, ResultFormat::kCsv),
            storage::FormatRelation(cold->relation, ResultFormat::kCsv));
}

// ---- Ineligible queries fall back cold --------------------------------

TEST(WarmStartFallback, NaiveModeNeverWarmStarts) {
  engine::EngineConfig config;
  config.incremental = true;
  config.fixpoint.mode = fixpoint::FixpointMode::kNaive;
  engine::RaSqlContext ctx(config);
  ASSERT_TRUE(ctx.RegisterTable("edge", SeedEdges()).ok());
  ASSERT_TRUE(ctx.Execute(kTc).ok());
  // Naive evaluation cannot resume from a converged state; nothing is
  // retained and the post-insert run recomputes cold.
  EXPECT_EQ(ctx.WarmStateEntries(), 0u);
  ASSERT_TRUE(ctx.Execute("INSERT INTO edge VALUES (0, 64, 1.5)").ok());
  auto rerun = ctx.Execute(kTc);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_EQ(rerun->fixpoint_stats.warm_starts, 0);

  engine::EngineConfig cold_config;
  cold_config.fixpoint.mode = fixpoint::FixpointMode::kNaive;
  engine::RaSqlContext cold(cold_config);
  ASSERT_TRUE(cold.RegisterTable("edge", SeedEdges()).ok());
  ASSERT_TRUE(cold.Execute("INSERT INTO edge VALUES (0, 64, 1.5)").ok());
  auto reference = cold.Execute(kTc);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(storage::FormatRelation(rerun->relation, ResultFormat::kCsv),
            storage::FormatRelation(reference->relation, ResultFormat::kCsv));
}

TEST(WarmStartFallback, SumAggregateNeverWarmStarts) {
  // Float sums are excluded from warm eligibility: their accumulation
  // order is not replayable, so bit-identity could not be promised. The
  // query still runs (cold) and matches a never-incremental context.
  constexpr char kPathCost[] = R"(
      WITH recursive paths (Dst, sum() AS Cost) AS
        (SELECT 1, 0.0) UNION
        (SELECT edge.Dst, paths.Cost + edge.Cost
         FROM paths, edge WHERE paths.Dst = edge.Src)
      SELECT Dst, Cost FROM paths)";
  // A small DAG so the accumulating fixpoint terminates.
  Relation dag{storage::Schema::Of({{"Src", storage::ValueType::kInt64},
                                    {"Dst", storage::ValueType::kInt64},
                                    {"Cost", storage::ValueType::kDouble}})};
  const int64_t edges[][2] = {{1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}};
  for (const auto& e : edges) {
    dag.Add({storage::Value::Int(e[0]), storage::Value::Int(e[1]),
             storage::Value::Double(1.0)});
  }
  engine::EngineConfig config;
  config.incremental = true;
  engine::RaSqlContext ctx(config);
  ASSERT_TRUE(ctx.RegisterTable("edge", dag).ok());
  auto first = ctx.Execute(kPathCost);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(ctx.WarmStateEntries(), 0u);  // sum head: never retained

  ASSERT_TRUE(ctx.Execute("INSERT INTO edge VALUES (5, 6, 2.0)").ok());
  auto rerun = ctx.Execute(kPathCost);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_EQ(rerun->fixpoint_stats.warm_starts, 0);

  engine::RaSqlContext cold;
  ASSERT_TRUE(cold.RegisterTable("edge", dag).ok());
  ASSERT_TRUE(cold.Execute("INSERT INTO edge VALUES (5, 6, 2.0)").ok());
  auto reference = cold.Execute(kPathCost);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(storage::FormatRelation(rerun->relation, ResultFormat::kCsv),
            storage::FormatRelation(reference->relation, ResultFormat::kCsv));
}

}  // namespace
}  // namespace rasql
