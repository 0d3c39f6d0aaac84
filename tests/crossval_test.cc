// Cross-validation property tests: the declarative RaSQL engine and the
// independent single-threaded graph algorithms must compute identical
// answers on randomly generated graphs, across seeds and both execution
// modes. This is the strongest end-to-end correctness evidence in the
// suite — two entirely separate code paths agreeing on nontrivial
// fixpoints.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <set>

#include "baselines/pregel/pregel.h"
#include "baselines/serial/serial_graph.h"
#include "datagen/graph_gen.h"
#include "engine/rasql_context.h"
#include "lint/gptest.h"

namespace rasql {
namespace {

using baselines::Csr;
using storage::Relation;

struct CrossValCase {
  uint64_t seed;
  bool distributed;
  /// Real threads under the simulated cluster (1 = sequential seed path).
  int threads = 1;
};

// Without a PrintTo, gtest prints each case into its ctest name as the
// struct's raw bytes, including three uninitialised padding bytes, so the
// names changed between builds. This prints the same "16-byte object <…>"
// dump from the fields alone, with the padding zero.
void PrintTo(const CrossValCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(CrossValCase)] = {};
  auto put = [&bytes](size_t offset, const auto& field) {
    std::memcpy(bytes + offset, &field, sizeof field);
  };
  put(offsetof(CrossValCase, seed), c.seed);
  put(offsetof(CrossValCase, distributed), c.distributed);
  put(offsetof(CrossValCase, threads), c.threads);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class CrossValidation : public ::testing::TestWithParam<CrossValCase> {
 protected:
  engine::EngineConfig Config() const {
    engine::EngineConfig config;
    config.distributed = GetParam().distributed;
    config.cluster.num_workers = 5;
    config.cluster.num_partitions = 10;
    config.runtime.num_threads = GetParam().threads;
    return config;
  }

  datagen::Graph Graph(bool weighted) const {
    datagen::RmatOptions opt;
    opt.num_vertices = 512;
    opt.edges_per_vertex = 4;
    opt.weighted = weighted;
    opt.min_weight = 1.0;  // strictly positive so SSSP is well-defined
    opt.seed = GetParam().seed;
    return datagen::GenerateRmat(opt);
  }
};

TEST_P(CrossValidation, ReachMatchesBfs) {
  datagen::Graph graph = Graph(false);
  Csr csr = Csr::Build(graph);
  std::set<int64_t> expected;
  std::vector<int64_t> depth = baselines::SerialBfs(csr, 1);
  for (int64_t v = 0; v < graph.num_vertices; ++v) {
    if (depth[v] >= 0) expected.insert(v);
  }

  engine::RaSqlContext ctx(Config());
  ASSERT_TRUE(ctx.RegisterTable("edge", datagen::ToEdgeRelation(graph)).ok());
  auto result = ctx.Execute(R"(
      WITH recursive reach (Dst) AS
        (SELECT 1) UNION
        (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src)
      SELECT Dst FROM reach)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<int64_t> got;
  result->relation.ForEachRow(
      [&](const storage::Row& row) { got.insert(row[0].AsInt()); });
  EXPECT_EQ(got, expected);
}

TEST_P(CrossValidation, SsspMatchesSerialShortestPaths) {
  datagen::Graph graph = Graph(true);
  Csr csr = Csr::Build(graph);
  std::vector<double> expected = baselines::SerialSssp(csr, 1);

  engine::RaSqlContext ctx(Config());
  ASSERT_TRUE(ctx.RegisterTable("edge", datagen::ToEdgeRelation(graph)).ok());
  auto result = ctx.Execute(R"(
      WITH recursive path (Dst, min() AS Cost) AS
        (SELECT 1, 0.0) UNION
        (SELECT edge.Dst, path.Cost + edge.Cost
         FROM path, edge WHERE path.Dst = edge.Src)
      SELECT Dst, Cost FROM path)");
  ASSERT_TRUE(result.ok()) << result.status();

  std::map<int64_t, double> got;
  result->relation.ForEachRow([&](const storage::Row& row) {
    got[row[0].AsInt()] = row[1].AsNumeric();
  });
  size_t reachable = 0;
  for (int64_t v = 0; v < graph.num_vertices; ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_EQ(got.count(v), 0u) << "vertex " << v << " not reachable";
    } else {
      ++reachable;
      ASSERT_EQ(got.count(v), 1u) << "vertex " << v;
      EXPECT_DOUBLE_EQ(got[v], expected[v]) << "vertex " << v;
    }
  }
  EXPECT_EQ(got.size(), reachable);
}

TEST_P(CrossValidation, CcComponentCountMatchesSerial) {
  // Symmetrize so the SQL label propagation and the serial undirected
  // algorithm see the same connectivity.
  datagen::Graph graph = Graph(false);
  datagen::Graph sym = graph;
  for (const auto& [s, d] : graph.edges) sym.edges.emplace_back(d, s);
  Csr csr = Csr::Build(sym);
  std::vector<int64_t> label = baselines::SerialCcLabelProp(csr);
  // Count components among vertices that touch an edge (the SQL query
  // only sees vertices present in the edge table).
  std::set<int64_t> touched;
  for (const auto& [s, d] : sym.edges) {
    touched.insert(s);
    touched.insert(d);
  }
  std::set<int64_t> expected_components;
  for (int64_t v : touched) expected_components.insert(label[v]);

  engine::RaSqlContext ctx(Config());
  ASSERT_TRUE(ctx.RegisterTable("edge", datagen::ToEdgeRelation(sym)).ok());
  auto result = ctx.Execute(R"(
      WITH recursive cc (Src, min() AS CmpId) AS
        (SELECT Src, Src FROM edge) UNION
        (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src)
      SELECT count(distinct cc.CmpId) FROM cc)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->relation.row(0)[0].AsInt(),
            static_cast<int64_t>(expected_components.size()));
}

TEST_P(CrossValidation, ManagementMatchesSubtreeSizes) {
  datagen::TreeOptions opt;
  opt.height = 6;
  opt.max_nodes = 1500;
  opt.seed = GetParam().seed;
  datagen::Graph tree = datagen::GenerateTree(opt);

  // Independent computation: subtree sizes by reverse-topological sweep
  // (children are allocated after parents, so a backward pass works).
  std::vector<int64_t> parent(tree.num_vertices, -1);
  for (const auto& [p, c] : tree.edges) parent[c] = p;
  std::vector<int64_t> size(tree.num_vertices, 1);
  for (int64_t v = tree.num_vertices - 1; v > 0; --v) {
    size[parent[v]] += size[v];
  }

  engine::RaSqlContext ctx(Config());
  ASSERT_TRUE(
      ctx.RegisterTable("report", datagen::ToReportRelation(tree)).ok());
  auto result = ctx.Execute(R"(
      WITH recursive empCount (Mgr, count() AS Cnt) AS
        (SELECT report.Emp, 1 FROM report) UNION
        (SELECT report.Mgr, empCount.Cnt FROM empCount, report
         WHERE empCount.Mgr = report.Emp)
      SELECT Mgr, Cnt FROM empCount)");
  ASSERT_TRUE(result.ok()) << result.status();
  result->relation.ForEachRow([&](const storage::Row& row) {
    const int64_t v = row[0].AsInt();
    // Every vertex counts itself via the base case (it appears as an Emp)
    // except the root, which reports to nobody: its count is the subtree
    // size minus itself.
    const int64_t expected = size[v] - (v == 0 ? 1 : 0);
    EXPECT_EQ(row[1].AsInt(), expected) << "vertex " << v;
  });
  EXPECT_EQ(result->relation.size(), static_cast<size_t>(tree.num_vertices));
}

TEST_P(CrossValidation, PregelAgreesWithEngineOnSssp) {
  datagen::Graph graph = Graph(true);
  dist::Cluster cluster(dist::ClusterConfig{});
  baselines::PregelOptions options;
  options.source = 1;
  baselines::PregelResult pregel = baselines::RunPregel(
      graph, baselines::PregelAlgorithm::kSssp, options, &cluster);

  engine::RaSqlContext ctx(Config());
  ASSERT_TRUE(ctx.RegisterTable("edge", datagen::ToEdgeRelation(graph)).ok());
  auto result = ctx.Execute(R"(
      WITH recursive path (Dst, min() AS Cost) AS
        (SELECT 1, 0.0) UNION
        (SELECT edge.Dst, path.Cost + edge.Cost
         FROM path, edge WHERE path.Dst = edge.Src)
      SELECT Dst, Cost FROM path)");
  ASSERT_TRUE(result.ok());
  result->relation.ForEachRow([&](const storage::Row& row) {
    EXPECT_DOUBLE_EQ(row[1].AsNumeric(), pregel.values[row[0].AsInt()]);
  });
}

// ---- Semi-naive safety on non-linear aggregates (DESIGN.md §4/§9) ----
//
// The local semi-naive evaluator materializes `all` after MergeDelta, so a
// non-linear rule's δ×δ pairs are visited by *both* of its semi-naive
// terms. That is only sound for idempotent aggregates (min/max, set
// semantics); for sum/count the safety gate must force naive evaluation.
// These tests pin both sides of that contract end to end.

TEST(SemiNaiveSafetyCrossVal, NonLinearSumForcedNaive) {
  // Diamond DAG: 1→{2,3}→4. The non-linear rule derives (1,4) twice —
  // once through each middle vertex — and sum must count both.
  Relation edge = storage::MakeIntRelation(
      {"Src", "Dst"}, {{1, 2}, {1, 3}, {2, 4}, {3, 4}});
  const char* paths = R"(
      WITH recursive pc (Src, Dst, sum() AS Paths) AS
        (SELECT Src, Dst, 1 FROM edge) UNION
        (SELECT a.Src, b.Dst, a.Paths * b.Paths
         FROM pc a, pc b WHERE a.Dst = b.Src)
      SELECT Src, Dst, Paths FROM pc)";

  // Two recursive references + a non-idempotent aggregate: kAuto must
  // silently fall back to naive...
  engine::RaSqlContext auto_ctx;
  ASSERT_TRUE(auto_ctx.RegisterTable("edge", edge).ok());
  auto auto_result = auto_ctx.Execute(paths);
  ASSERT_TRUE(auto_result.ok()) << auto_result.status();
  EXPECT_FALSE(auto_result->fixpoint_stats.used_semi_naive);

  // ...and an explicit semi-naive request must be refused outright.
  engine::RaSqlContext sn_ctx;
  sn_ctx.mutable_config()->fixpoint.mode = fixpoint::FixpointMode::kSemiNaive;
  ASSERT_TRUE(sn_ctx.RegisterTable("edge", edge).ok());
  EXPECT_FALSE(sn_ctx.Execute(paths).ok());

  // Independent expectation: path counts on the diamond.
  std::map<std::pair<int64_t, int64_t>, int64_t> got;
  auto_result->relation.ForEachRow([&](const storage::Row& row) {
    got[{row[0].AsInt(), row[1].AsInt()}] = row[2].AsInt();
  });
  std::map<std::pair<int64_t, int64_t>, int64_t> expected = {
      {{1, 2}, 1}, {{1, 3}, 1}, {{2, 4}, 1}, {{3, 4}, 1}, {{1, 4}, 2}};
  EXPECT_EQ(got, expected);
}

TEST(SemiNaiveSafetyCrossVal, NonLinearMinAgreesWithNaiveAndSerial) {
  // All-pairs shortest paths by doubling: two recursive references under
  // min(), which stays delta-exact even non-linearly. Integer-valued
  // weights keep every path-cost sum exact in double arithmetic, so the
  // doubling engine, the naive engine and the serial Dijkstra baseline
  // must agree to the bit.
  datagen::RmatOptions opt;
  opt.num_vertices = 64;
  opt.edges_per_vertex = 3;
  opt.weighted = true;
  opt.min_weight = 1.0;
  opt.seed = 29;
  datagen::Graph graph = datagen::GenerateRmat(opt);
  for (size_t i = 0; i < graph.weights.size(); ++i) {
    graph.weights[i] = 1.0 + static_cast<double>((graph.edges[i].first * 7 +
                                                  graph.edges[i].second * 13) %
                                                 5);
  }
  Relation edge = datagen::ToEdgeRelation(graph);
  const char* apsp = R"(
      WITH recursive sp (Src, Dst, min() AS Cost) AS
        (SELECT Src, Dst, Cost FROM edge) UNION
        (SELECT a.Src, b.Dst, a.Cost + b.Cost
         FROM sp a, sp b WHERE a.Dst = b.Src)
      SELECT Src, Dst, Cost FROM sp)";

  engine::RaSqlContext auto_ctx;
  ASSERT_TRUE(auto_ctx.RegisterTable("edge", edge).ok());
  auto auto_result = auto_ctx.Execute(apsp);
  ASSERT_TRUE(auto_result.ok()) << auto_result.status();
  EXPECT_TRUE(auto_result->fixpoint_stats.used_semi_naive);

  engine::RaSqlContext naive_ctx;
  naive_ctx.mutable_config()->fixpoint.mode = fixpoint::FixpointMode::kNaive;
  ASSERT_TRUE(naive_ctx.RegisterTable("edge", edge).ok());
  auto naive_result = naive_ctx.Execute(apsp);
  ASSERT_TRUE(naive_result.ok()) << naive_result.status();
  EXPECT_FALSE(naive_result->fixpoint_stats.used_semi_naive);
  EXPECT_TRUE(
      storage::SameBag(auto_result->relation, naive_result->relation));

  // Cross-validate source 1's row slice against serial Dijkstra. The APSP
  // base case is the edge list, so (1, v) exists iff v is reachable from 1
  // through at least one edge.
  Csr csr = Csr::Build(graph);
  std::vector<double> expected = baselines::SerialSssp(csr, 1);
  std::map<int64_t, double> from_one;
  auto_result->relation.ForEachRow([&](const storage::Row& row) {
    if (row[0].AsInt() == 1) from_one[row[1].AsInt()] = row[2].AsNumeric();
  });
  EXPECT_FALSE(from_one.empty());
  for (const auto& [v, cost] : from_one) {
    ASSERT_TRUE(!std::isinf(expected[v])) << "vertex " << v;
    if (v != 1) {
      EXPECT_EQ(cost, expected[v]) << "vertex " << v;
    }
  }
}

// ---- Static ⇒ dynamic PreM agreement (DESIGN.md §6) ----
//
// Every min/max query the compile-time linter marks as statically proven
// must also pass the runtime GPtest oracle (lint::ValidatePrem) on a
// small random graph. A disagreement would mean the syntactic sufficient
// conditions in src/lint are unsound.

class StaticDynamicPrem : public ::testing::TestWithParam<uint64_t> {
 protected:
  storage::Relation Edges() const {
    datagen::RmatOptions opt;
    opt.num_vertices = 64;
    opt.edges_per_vertex = 3;
    opt.weighted = true;
    opt.min_weight = 1.0;
    opt.seed = GetParam();
    return datagen::ToEdgeRelation(datagen::GenerateRmat(opt));
  }
};

TEST_P(StaticDynamicPrem, ProvenQueriesPassGptest) {
  const char* proven_queries[] = {
      // SSSP: min over additive costs.
      R"(WITH recursive path (Dst, min() AS Cost) AS
           (SELECT 1, 0.0) UNION
           (SELECT edge.Dst, path.Cost + edge.Cost
            FROM path, edge WHERE path.Dst = edge.Src)
         SELECT Dst, Cost FROM path)",
      // CC: min over copied labels.
      R"(WITH recursive cc (Src, min() AS CmpId) AS
           (SELECT Src, Src FROM edge) UNION
           (SELECT edge.Dst, cc.CmpId FROM cc, edge
            WHERE cc.Src = edge.Src)
         SELECT Src, CmpId FROM cc)",
      // Max over a monotone (scaled + shifted) cost flow.
      R"(WITH recursive far (Dst, max() AS Cost) AS
           (SELECT 1, 0.0) UNION
           (SELECT edge.Dst, far.Cost / 2.0 + 1.0
            FROM far, edge WHERE far.Dst = edge.Src)
         SELECT Dst, Cost FROM far)",
  };
  storage::Relation edge = Edges();
  for (const char* sql : proven_queries) {
    engine::RaSqlContext ctx;
    ASSERT_TRUE(ctx.RegisterTable("edge", edge).ok());
    auto report = ctx.Lint(sql);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->proven_views.size(), 1u) << report->ToString();
    EXPECT_FALSE(report->engine.HasWarnings()) << report->ToString();

    auto dynamic = lint::ValidatePrem(sql, {{"edge", &edge}},
                                       /*max_iterations=*/20);
    ASSERT_TRUE(dynamic.ok()) << dynamic.status();
    EXPECT_TRUE(dynamic->holds)
        << "statically proven but GPtest failed: " << dynamic->message
        << "\nquery: " << sql;
  }
}

TEST_P(StaticDynamicPrem, UnprovenQueryCaughtByRecommendedOracle) {
  // The complementary direction: a query the linter can only warn about
  // (RASQL-M002, multiplicative cost flow) is exactly the kind the
  // recommended runtime oracle then refutes on adversarial data.
  const char* unproven = R"(
      WITH recursive p (Src, Dst, min() AS Cost) AS
        (SELECT Src, Dst, Cost FROM edge) UNION
        (SELECT p.Src, edge.Dst, p.Cost * edge.Cost
         FROM p, edge WHERE p.Dst = edge.Src)
      SELECT Src, Dst, Cost FROM p)";
  storage::Relation adversarial{storage::Schema::Of(
      {{"Src", storage::ValueType::kInt64},
       {"Dst", storage::ValueType::kInt64},
       {"Cost", storage::ValueType::kDouble}})};
  adversarial.Add({storage::Value::Int(1), storage::Value::Int(2),
                   storage::Value::Double(2.0)});
  adversarial.Add({storage::Value::Int(1), storage::Value::Int(2),
                   storage::Value::Double(-3.0)});
  adversarial.Add({storage::Value::Int(2), storage::Value::Int(3),
                   storage::Value::Double(-1.0)});

  engine::RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable("edge", adversarial).ok());
  auto report = ctx.Lint(unproven);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->proven_views.empty());
  ASSERT_EQ(report->gptest_recommended.size(), 1u) << report->ToString();

  auto dynamic = lint::ValidatePrem(unproven, {{"edge", &adversarial}},
                                     /*max_iterations=*/8);
  ASSERT_TRUE(dynamic.ok()) << dynamic.status();
  EXPECT_FALSE(dynamic->holds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticDynamicPrem,
                         ::testing::Values(11u, 23u, 47u),
                         [](const auto& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, CrossValidation,
    ::testing::Values(CrossValCase{11, false}, CrossValCase{11, true},
                      CrossValCase{23, false}, CrossValCase{23, true},
                      CrossValCase{47, true}, CrossValCase{101, true},
                      // The same distributed fixpoints on the parallel
                      // runtime must still agree with the serial baselines.
                      CrossValCase{47, true, 8}, CrossValCase{101, true, 8},
                      // The *local* fixpoint path on the parallel runtime
                      // (partitioned semi-naive/naive, DESIGN.md §9).
                      CrossValCase{11, false, 8}, CrossValCase{47, false, 8}),
    [](const auto& pinfo) {
      return "seed" + std::to_string(pinfo.param.seed) +
             (pinfo.param.distributed ? "_dist" : "_local") +
             (pinfo.param.threads > 1
                  ? "_t" + std::to_string(pinfo.param.threads)
                  : "");
    });

}  // namespace
}  // namespace rasql
