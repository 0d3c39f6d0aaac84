#include <gtest/gtest.h>

#include <limits>
#include <ostream>
#include <set>

#include "datagen/graph_gen.h"
#include "engine/rasql_context.h"
#include "storage/relation.h"

namespace rasql::engine {
namespace {

using storage::MakeIntRelation;
using storage::Relation;
using storage::Row;
using storage::SameBag;
using storage::Schema;
using storage::Value;
using storage::ValueType;

Relation WeightedEdges(
    const std::vector<std::tuple<int64_t, int64_t, double>>& edges) {
  Relation rel{Schema::Of({{"Src", ValueType::kInt64},
                           {"Dst", ValueType::kInt64},
                           {"Cost", ValueType::kDouble}})};
  for (const auto& [s, d, c] : edges) {
    rel.Add({Value::Int(s), Value::Int(d), Value::Double(c)});
  }
  return rel;
}

/// Sorted (col0 -> col1-as-int) pairs for easy assertions.
std::set<std::pair<int64_t, int64_t>> IntPairs(const Relation& rel) {
  std::set<std::pair<int64_t, int64_t>> out;
  rel.ForEachRow([&](const Row& row) {
    out.insert({row[0].AsInt(),
                static_cast<int64_t>(row[1].AsNumeric())});
  });
  return out;
}

TEST(EngineTest, PlainSelectFilter) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable("t", MakeIntRelation({"A", "B"},
                                                     {{1, 10}, {2, 20}}))
                  .ok());
  auto result = ctx.Execute("SELECT B FROM t WHERE A = 2");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->relation.size(), 1u);
  EXPECT_EQ(result->relation.row(0)[0].AsInt(), 20);
}

TEST(EngineTest, GroupByHavingOrderBy) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "sales", MakeIntRelation({"Store", "Amount"},
                                              {{1, 10},
                                               {1, 20},
                                               {2, 2},
                                               {2, 3},
                                               {3, 100}}))
                  .ok());
  auto result = ctx.Execute(
      "SELECT Store, sum(Amount) AS Total FROM sales "
      "GROUP BY Store HAVING sum(Amount) > 10 ORDER BY Total DESC");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->relation.size(), 2u);
  EXPECT_EQ(result->relation.row(0)[0].AsInt(), 3);
  EXPECT_EQ(result->relation.row(0)[1].AsInt(), 100);
  EXPECT_EQ(result->relation.row(1)[1].AsInt(), 30);
}

TEST(EngineTest, TransitiveClosure) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "edge", MakeIntRelation({"Src", "Dst"},
                                             {{1, 2}, {2, 3}, {3, 4}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive tc (Src, Dst) AS
        (SELECT Src, Dst FROM edge) UNION
        (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
      SELECT Src, Dst FROM tc)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<std::pair<int64_t, int64_t>> expected = {
      {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}};
  EXPECT_EQ(IntPairs(result->relation), expected);
  EXPECT_TRUE(result->fixpoint_stats.used_semi_naive);
}

TEST(EngineTest, SsspWithCycle) {
  // The min() head makes the cyclic recursion converge (paper Sec. 3).
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable("edge",
                                WeightedEdges({{1, 2, 1.0},
                                               {2, 3, 2.0},
                                               {1, 3, 10.0},
                                               {3, 1, 1.0}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive path (Dst, min() AS Cost) AS
        (SELECT 1, 0) UNION
        (SELECT edge.Dst, path.Cost + edge.Cost
         FROM path, edge WHERE path.Dst = edge.Src)
      SELECT Dst, Cost FROM path)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<std::pair<int64_t, int64_t>> expected = {{1, 0}, {2, 1}, {3, 3}};
  EXPECT_EQ(IntPairs(result->relation), expected);
}

TEST(EngineTest, ConnectedComponents) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "edge", MakeIntRelation({"Src", "Dst"},
                                             {{1, 2},
                                              {2, 1},
                                              {3, 4},
                                              {4, 3},
                                              {2, 5},
                                              {5, 2}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive cc (Src, min() AS CmpId) AS
        (SELECT Src, Src FROM edge) UNION
        (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src)
      SELECT count(distinct cc.CmpId) FROM cc)");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->relation.size(), 1u);
  EXPECT_EQ(result->relation.row(0)[0].AsInt(), 2);
}

TEST(EngineTest, CountPaths) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "edge", MakeIntRelation({"Src", "Dst"},
                                             {{1, 2}, {1, 3}, {2, 4}, {3, 4}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive cpaths (Dst, sum() AS Cnt) AS
        (SELECT 1, 1) UNION
        (SELECT edge.Dst, cpaths.Cnt FROM cpaths, edge
         WHERE cpaths.Dst = edge.Src)
      SELECT Dst, Cnt FROM cpaths)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<std::pair<int64_t, int64_t>> expected = {
      {1, 1}, {2, 1}, {3, 1}, {4, 2}};
  EXPECT_EQ(IntPairs(result->relation), expected);
}

TEST(EngineTest, Management) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "report", MakeIntRelation({"Emp", "Mgr"},
                                               {{2, 1}, {3, 1}, {4, 2},
                                                {5, 2}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive empCount (Mgr, count() AS Cnt) AS
        (SELECT report.Emp, 1 FROM report) UNION
        (SELECT report.Mgr, empCount.Cnt FROM empCount, report
         WHERE empCount.Mgr = report.Emp)
      SELECT Mgr, Cnt FROM empCount)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<std::pair<int64_t, int64_t>> expected = {
      {1, 4}, {2, 3}, {3, 1}, {4, 1}, {5, 1}};
  EXPECT_EQ(IntPairs(result->relation), expected);
}

TEST(EngineTest, MlmBonus) {
  RaSqlContext ctx;
  Relation sales{Schema::Of({{"M", ValueType::kInt64},
                             {"P", ValueType::kDouble}})};
  sales.Add({Value::Int(1), Value::Double(100)});
  sales.Add({Value::Int(2), Value::Double(200)});
  sales.Add({Value::Int(3), Value::Double(300)});
  sales.Add({Value::Int(4), Value::Double(400)});
  ASSERT_TRUE(ctx.RegisterTable("sales", std::move(sales)).ok());
  ASSERT_TRUE(ctx.RegisterTable(
                     "sponsor", MakeIntRelation({"M1", "M2"},
                                                {{1, 2}, {1, 3}, {2, 4}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive bonus(M, sum() as B) AS
        (SELECT M, P*0.1 FROM sales) UNION
        (SELECT sponsor.M1, bonus.B*0.5 FROM bonus, sponsor
         WHERE bonus.M = sponsor.M2)
      SELECT M, B FROM bonus)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::map<int64_t, double> bonuses;
  result->relation.ForEachRow([&](const Row& row) {
    bonuses[row[0].AsInt()] = row[1].AsNumeric();
  });
  EXPECT_DOUBLE_EQ(bonuses[4], 40.0);
  EXPECT_DOUBLE_EQ(bonuses[3], 30.0);
  EXPECT_DOUBLE_EQ(bonuses[2], 40.0);   // 20 + 0.5*40
  EXPECT_DOUBLE_EQ(bonuses[1], 45.0);   // 10 + 0.5*40 + 0.5*30
}

// The paper's Q1 (stratified) and Q2 (endo-max) BOM queries must agree
// (PreM, Sec. 2-3).
constexpr char kBomStratified[] = R"(
    WITH recursive waitfor(Part, Days) AS
      (SELECT Part, Days FROM basic) UNION
      (SELECT assbl.Part, waitfor.Days FROM assbl, waitfor
       WHERE assbl.Spart = waitfor.Part)
    SELECT Part, max(Days) FROM waitfor GROUP BY Part)";
constexpr char kBomEndoMax[] = R"(
    WITH recursive waitfor(Part, max() as Days) AS
      (SELECT Part, Days FROM basic) UNION
      (SELECT assbl.Part, waitfor.Days FROM assbl, waitfor
       WHERE assbl.Spart = waitfor.Part)
    SELECT Part, Days FROM waitfor)";

TEST(EngineTest, BomStratifiedAndEndoMaxAgree) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "assbl", MakeIntRelation({"Part", "SPart"},
                                              {{1, 2}, {1, 3}, {2, 4},
                                               {2, 5}}))
                  .ok());
  ASSERT_TRUE(ctx.RegisterTable(
                     "basic", MakeIntRelation({"Part", "Days"},
                                              {{4, 3}, {5, 7}, {3, 2}}))
                  .ok());
  auto q1 = ctx.Execute(kBomStratified);
  ASSERT_TRUE(q1.ok()) << q1.status();
  auto q2 = ctx.Execute(kBomEndoMax);
  ASSERT_TRUE(q2.ok()) << q2.status();
  EXPECT_TRUE(SameBag(q1->relation, q2->relation)) << q1->relation.ToString() << q2->relation.ToString();
  std::set<std::pair<int64_t, int64_t>> expected = {
      {1, 7}, {2, 7}, {3, 2}, {4, 3}, {5, 7}};
  EXPECT_EQ(IntPairs(q2->relation), expected);
}

TEST(EngineTest, IntervalCoalesce) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "inter", MakeIntRelation({"S", "E"},
                                              {{1, 3},
                                               {2, 4},
                                               {6, 8},
                                               {7, 9},
                                               {10, 11}}))
                  .ok());
  auto result = ctx.Execute(R"(
      CREATE VIEW lstart(T) AS
        (SELECT a.S FROM inter a, inter b WHERE a.S <= b.E
         GROUP BY a.S HAVING a.S = min(b.S));
      WITH recursive coal (S, max() AS E) AS
        (SELECT lstart.T, inter.E FROM lstart, inter
         WHERE lstart.T = inter.S) UNION
        (SELECT coal.S, inter.E FROM coal, inter
         WHERE coal.S <= inter.S AND inter.S <= coal.E)
      SELECT S, E FROM coal)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<std::pair<int64_t, int64_t>> expected = {{1, 4}, {6, 9}, {10, 11}};
  EXPECT_EQ(IntPairs(result->relation), expected);
}

TEST(EngineTest, PartyAttendanceMutualRecursion) {
  RaSqlContext ctx;
  Relation organizer{Schema::Of({{"OrgName", ValueType::kInt64}})};
  for (int64_t o : {1, 2, 3}) organizer.Add({Value::Int(o)});
  ASSERT_TRUE(ctx.RegisterTable("organizer", std::move(organizer)).ok());
  ASSERT_TRUE(ctx.RegisterTable(
                     "friend", MakeIntRelation({"Pname", "Fname"},
                                               {{1, 10},
                                                {2, 10},
                                                {3, 10},
                                                {1, 11},
                                                {2, 11},
                                                {10, 12},
                                                {1, 12},
                                                {2, 12}}))
                  .ok());
  // Adapted from paper Example 7 (whose recursive branch as printed has an
  // arity typo): count 1 per attending friend.
  auto result = ctx.Execute(R"(
      WITH recursive attend(Person) AS
        (SELECT OrgName FROM organizer) UNION
        (SELECT Name FROM cntfriends WHERE Ncount >= 3),
      recursive cntfriends(Name, count() AS Ncount) AS
        (SELECT friend.FName, 1 FROM attend, friend
         WHERE attend.Person = friend.Pname)
      SELECT Person FROM attend)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<int64_t> people;
  result->relation.ForEachRow(
      [&](const Row& row) { people.insert(row[0].AsInt()); });
  EXPECT_EQ(people, (std::set<int64_t>{1, 2, 3, 10, 12}));
  EXPECT_FALSE(result->fixpoint_stats.used_semi_naive);
}

TEST(EngineTest, CompanyControlMutualRecursion) {
  RaSqlContext ctx;
  Relation shares{Schema::Of({{"By", ValueType::kString},
                              {"Of", ValueType::kString},
                              {"Percent", ValueType::kInt64}})};
  shares.Add({Value::String("A"), Value::String("B"), Value::Int(60)});
  shares.Add({Value::String("A"), Value::String("C"), Value::Int(20)});
  shares.Add({Value::String("B"), Value::String("C"), Value::Int(40)});
  ASSERT_TRUE(ctx.RegisterTable("shares", std::move(shares)).ok());
  auto result = ctx.Execute(R"(
      WITH recursive cshares(ByCom, OfCom, sum() AS Tot) AS
        (SELECT By, Of, Percent FROM shares) UNION
        (SELECT control.Com1, cshares.OfCom, cshares.Tot
         FROM control, cshares WHERE control.Com2 = cshares.ByCom),
      recursive control(Com1, Com2) AS
        (SELECT ByCom, OfCom FROM cshares WHERE Tot > 50)
      SELECT ByCom, OfCom, Tot FROM cshares)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::map<std::pair<std::string, std::string>, int64_t> totals;
  result->relation.ForEachRow([&](const Row& row) {
    totals[{row[0].AsString(), row[1].AsString()}] =
        static_cast<int64_t>(row[2].AsNumeric());
  });
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ((totals[{"A", "B"}]), 60);
  EXPECT_EQ((totals[{"A", "C"}]), 60);  // 20 direct + 40 via control of B
  EXPECT_EQ((totals[{"B", "C"}]), 40);
}

TEST(EngineTest, SameGeneration) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "rel", MakeIntRelation({"Parent", "Child"},
                                            {{0, 1}, {0, 2}, {1, 3}, {2, 4}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive sg (X, Y) AS
        (SELECT a.Child, b.Child FROM rel a, rel b
         WHERE a.Parent = b.Parent AND a.Child <> b.Child) UNION
        (SELECT a.Child, b.Child FROM rel a, sg, rel b
         WHERE a.Parent = sg.X AND b.Parent = sg.Y)
      SELECT X, Y FROM sg)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<std::pair<int64_t, int64_t>> expected = {
      {1, 2}, {2, 1}, {3, 4}, {4, 3}};
  EXPECT_EQ(IntPairs(result->relation), expected);
}

TEST(EngineTest, Reachability) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "edge", MakeIntRelation({"Src", "Dst"},
                                             {{1, 2}, {2, 3}, {4, 5}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive reach (Dst) AS
        (SELECT 1) UNION
        (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src)
      SELECT Dst FROM reach)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<int64_t> reached;
  result->relation.ForEachRow(
      [&](const Row& row) { reached.insert(row[0].AsInt()); });
  EXPECT_EQ(reached, (std::set<int64_t>{1, 2, 3}));
}

TEST(EngineTest, AllPairsShortestPath) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable("edge",
                                WeightedEdges({{1, 2, 1.0},
                                               {2, 3, 1.0},
                                               {1, 3, 5.0},
                                               {3, 1, 2.0}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive path (Src, Dst, min() AS Cost) AS
        (SELECT Src, Dst, Cost FROM edge) UNION
        (SELECT path.Src, edge.Dst, path.Cost + edge.Cost
         FROM path, edge WHERE path.Dst = edge.Src)
      SELECT Src, Dst, Cost FROM path)");
  ASSERT_TRUE(result.ok()) << result.status();
  std::map<std::pair<int64_t, int64_t>, double> dist;
  result->relation.ForEachRow([&](const Row& row) {
    dist[{row[0].AsInt(), row[1].AsInt()}] = row[2].AsNumeric();
  });
  EXPECT_DOUBLE_EQ((dist[{1, 3}]), 2.0);
  EXPECT_DOUBLE_EQ((dist[{3, 2}]), 3.0);
  EXPECT_DOUBLE_EQ((dist[{1, 1}]), 4.0);  // 1->2->3->1
}

TEST(EngineTest, StratifiedSsspHitsIterationLimitOnCycle) {
  // Without min() in the head, cyclic SSSP never reaches a fixpoint — the
  // paper's Fig. 1 footnote. The engine must stop at the iteration cap and
  // report it.
  RaSqlContext ctx;
  ctx.mutable_config()->fixpoint.max_iterations = 20;
  ASSERT_TRUE(ctx.RegisterTable("edge",
                                WeightedEdges({{1, 2, 1.0}, {2, 1, 1.0}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive path (Dst, Cost) AS
        (SELECT 1, 0) UNION
        (SELECT edge.Dst, path.Cost + edge.Cost
         FROM path, edge WHERE path.Dst = edge.Src)
      SELECT Dst, min(Cost) FROM path GROUP BY Dst)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->fixpoint_stats.hit_iteration_limit);
}

TEST(EngineTest, ExplainShowsCliqueAndFixpoint) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "edge", MakeIntRelation({"Src", "Dst"}, {{1, 2}}))
                  .ok());
  auto explain = ctx.Explain(R"(
      WITH recursive tc (Src, Dst) AS
        (SELECT Src, Dst FROM edge) UNION
        (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
      SELECT Src, Dst FROM tc)");
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("Clique 0 (recursive)"), std::string::npos);
  EXPECT_NE(explain->find("RecursiveRef"), std::string::npos);
  EXPECT_NE(explain->find("Join"), std::string::npos);
}

TEST(EngineTest, ErrorPaths) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable(
                     "edge", MakeIntRelation({"Src", "Dst"}, {{1, 2}}))
                  .ok());
  // Unknown table.
  EXPECT_FALSE(ctx.Execute("SELECT X FROM missing").ok());
  // Unknown column.
  EXPECT_FALSE(ctx.Execute("SELECT Nope FROM edge").ok());
  // Duplicate registration.
  EXPECT_FALSE(
      ctx.RegisterTable("edge", MakeIntRelation({"A"}, {{1}})).ok());
  // Arity mismatch in view head.
  EXPECT_FALSE(ctx.Execute(R"(
      WITH recursive v (A, B) AS (SELECT Src FROM edge)
      SELECT A FROM v)").ok());
  // Recursive clique without a base case.
  EXPECT_FALSE(ctx.Execute(R"(
      WITH recursive v (A) AS (SELECT v.A FROM v)
      SELECT A FROM v)").ok());
  // Aggregate call inside a recursive branch body.
  EXPECT_FALSE(ctx.Execute(R"(
      WITH recursive v (A) AS
        (SELECT Src FROM edge) UNION
        (SELECT max(v.A) FROM v)
      SELECT A FROM v)").ok());
  // Two aggregate head columns.
  EXPECT_FALSE(ctx.Execute(R"(
      WITH recursive v (A, min() AS B, max() AS C) AS
        (SELECT Src, Dst, Dst FROM edge)
      SELECT A FROM v)").ok());
}

// ---------------------------------------------------------------------
// Consistency sweep: every execution configuration (local/distributed,
// stage combination, decomposed, join algorithm, batch mode) must produce
// identical results for the paper's core queries.
// ---------------------------------------------------------------------

struct ConfigVariant {
  const char* name;
  bool distributed;
  bool combine_stages;
  fixpoint::DistFixpointOptions::Decomposed decomposed;
  size_t batch_rows;
  physical::JoinAlgorithm join_algorithm;
};

// gtest would otherwise name each case after the struct's raw bytes, which
// include the `name` pointer and change with every rebuild of this file.
void PrintTo(const ConfigVariant& variant, std::ostream* os) {
  *os << variant.name;
}

class ConsistencySweep : public ::testing::TestWithParam<ConfigVariant> {};

EngineConfig MakeConfig(const ConfigVariant& variant) {
  EngineConfig config;
  config.distributed = variant.distributed;
  config.cluster.num_workers = 3;
  config.cluster.num_partitions = 5;
  config.dist_fixpoint.combine_stages = variant.combine_stages;
  config.dist_fixpoint.decomposed = variant.decomposed;
  config.runtime.batch_rows = variant.batch_rows;
  config.fixpoint.join_algorithm = variant.join_algorithm;
  return config;
}

TEST_P(ConsistencySweep, GraphQueriesMatchReference) {
  // Reference: default local configuration.
  datagen::RmatOptions opt;
  opt.num_vertices = 256;
  opt.edges_per_vertex = 4;
  opt.weighted = true;
  opt.seed = 11;
  Relation edges = datagen::ToEdgeRelation(datagen::GenerateRmat(opt));

  const char* queries[] = {
      // SSSP from vertex 0.
      R"(WITH recursive path (Dst, min() AS Cost) AS
           (SELECT 0, 0.0) UNION
           (SELECT edge.Dst, path.Cost + edge.Cost
            FROM path, edge WHERE path.Dst = edge.Src)
         SELECT Dst, Cost FROM path)",
      // REACH from vertex 0.
      R"(WITH recursive reach (Dst) AS
           (SELECT 0) UNION
           (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src)
         SELECT Dst FROM reach)",
      // CC.
      R"(WITH recursive cc (Src, min() AS CmpId) AS
           (SELECT Src, Src FROM edge) UNION
           (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src)
         SELECT Src, CmpId FROM cc)",
  };

  RaSqlContext reference;
  ASSERT_TRUE(reference.RegisterTable("edge", edges).ok());
  RaSqlContext variant(MakeConfig(GetParam()));
  ASSERT_TRUE(variant.RegisterTable("edge", edges).ok());

  for (const char* query : queries) {
    auto expected = reference.Execute(query);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto got = variant.Execute(query);
    ASSERT_TRUE(got.ok()) << GetParam().name << ": " << got.status();
    EXPECT_TRUE(SameBag(expected->relation, got->relation))
        << GetParam().name << " diverged on query:\n"
        << query << "\nexpected " << expected->relation.size() << " rows, got "
        << got->relation.size();
  }
}

TEST_P(ConsistencySweep, TransitiveClosureMatchesReference) {
  datagen::GridOptions opt;
  opt.side = 7;
  Relation edges = datagen::ToEdgeRelation(datagen::GenerateGrid(opt));
  const char* query = R"(
      WITH recursive tc (Src, Dst) AS
        (SELECT Src, Dst FROM edge) UNION
        (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
      SELECT count(*) FROM tc)";

  RaSqlContext reference;
  ASSERT_TRUE(reference.RegisterTable("edge", edges).ok());
  RaSqlContext variant(MakeConfig(GetParam()));
  ASSERT_TRUE(variant.RegisterTable("edge", edges).ok());

  auto expected = reference.Execute(query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto got = variant.Execute(query);
  ASSERT_TRUE(got.ok()) << GetParam().name << ": " << got.status();
  EXPECT_EQ(expected->relation.row(0)[0].AsInt(), got->relation.row(0)[0].AsInt())
      << GetParam().name;
}

TEST_P(ConsistencySweep, SameGenerationMatchesReference) {
  // SG scans `rel` twice in one branch — a regression test for the
  // multi-role scan vs co-partitioning interaction.
  datagen::TreeOptions opt;
  opt.height = 4;
  opt.max_nodes = 300;
  opt.leaf_probability = 0.0;
  datagen::Graph tree = datagen::GenerateTree(opt);
  Relation rel{Schema::Of({{"Parent", ValueType::kInt64},
                           {"Child", ValueType::kInt64}})};
  for (const auto& [p, c] : tree.edges) {
    rel.Add({Value::Int(p), Value::Int(c)});
  }
  const char* query = R"(
      WITH recursive sg (X, Y) AS
        (SELECT a.Child, b.Child FROM rel a, rel b
         WHERE a.Parent = b.Parent AND a.Child <> b.Child) UNION
        (SELECT a.Child, b.Child FROM rel a, sg, rel b
         WHERE a.Parent = sg.X AND b.Parent = sg.Y)
      SELECT count(*) FROM sg)";

  RaSqlContext reference;
  ASSERT_TRUE(reference.RegisterTable("rel", rel).ok());
  RaSqlContext variant(MakeConfig(GetParam()));
  ASSERT_TRUE(variant.RegisterTable("rel", rel).ok());
  auto expected = reference.Execute(query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto got = variant.Execute(query);
  ASSERT_TRUE(got.ok()) << GetParam().name << ": " << got.status();
  EXPECT_EQ(expected->relation.row(0)[0].AsInt(), got->relation.row(0)[0].AsInt())
      << GetParam().name;
}

constexpr ConfigVariant kVariants[] = {
    {"local_naive_equivalent", false, true,
     fixpoint::DistFixpointOptions::Decomposed::kAuto, 0,
     physical::JoinAlgorithm::kHash},
    {"local_batch", false, true,
     fixpoint::DistFixpointOptions::Decomposed::kAuto, 64,
     physical::JoinAlgorithm::kHash},
    {"local_sort_merge", false, true,
     fixpoint::DistFixpointOptions::Decomposed::kAuto, 0,
     physical::JoinAlgorithm::kSortMerge},
    {"dist_combined", true, true,
     fixpoint::DistFixpointOptions::Decomposed::kAuto, 0,
     physical::JoinAlgorithm::kHash},
    {"dist_uncombined", true, false,
     fixpoint::DistFixpointOptions::Decomposed::kAuto, 0,
     physical::JoinAlgorithm::kHash},
    {"dist_no_decomposed", true, true,
     fixpoint::DistFixpointOptions::Decomposed::kOff, 0,
     physical::JoinAlgorithm::kHash},
    {"dist_sort_merge", true, true,
     fixpoint::DistFixpointOptions::Decomposed::kAuto, 0,
     physical::JoinAlgorithm::kSortMerge},
    {"dist_batch_uncombined_sort_merge", true, false,
     fixpoint::DistFixpointOptions::Decomposed::kOff, 64,
     physical::JoinAlgorithm::kSortMerge},
};

INSTANTIATE_TEST_SUITE_P(Configs, ConsistencySweep,
                         ::testing::ValuesIn(kVariants),
                         [](const auto& pinfo) { return pinfo.param.name; });

TEST(EngineDistributedTest, TcUsesDecomposedPlan) {
  EngineConfig config;
  config.distributed = true;
  config.cluster.num_partitions = 4;
  RaSqlContext ctx(config);
  ASSERT_TRUE(ctx.RegisterTable(
                     "edge", MakeIntRelation({"Src", "Dst"},
                                             {{1, 2}, {2, 3}, {3, 4}}))
                  .ok());
  auto result = ctx.Execute(R"(
      WITH recursive tc (Src, Dst) AS
        (SELECT Src, Dst FROM edge) UNION
        (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
      SELECT Src, Dst FROM tc)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->relation.size(), 6u);
  // Decomposed evaluation runs everything in very few stages and
  // broadcasts the base relation.
  EXPECT_GT(result->job_metrics.broadcast_bytes, 0u);
}

TEST(EngineDistributedTest, CombinedStagesReduceStageCount) {
  datagen::RmatOptions opt;
  opt.num_vertices = 128;
  opt.edges_per_vertex = 4;
  Relation edges = datagen::ToEdgeRelation(datagen::GenerateRmat(opt));
  const char* query = R"(
      WITH recursive cc (Src, min() AS CmpId) AS
        (SELECT Src, Src FROM edge) UNION
        (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src)
      SELECT count(distinct CmpId) FROM cc)";

  EngineConfig combined;
  combined.distributed = true;
  combined.dist_fixpoint.combine_stages = true;
  RaSqlContext ctx_combined(combined);
  ASSERT_TRUE(ctx_combined.RegisterTable("edge", edges).ok());
  auto combined_run = ctx_combined.Execute(query);
  ASSERT_TRUE(combined_run.ok());

  EngineConfig plain = combined;
  plain.dist_fixpoint.combine_stages = false;
  RaSqlContext ctx_plain(plain);
  ASSERT_TRUE(ctx_plain.RegisterTable("edge", edges).ok());
  auto plain_run = ctx_plain.Execute(query);
  ASSERT_TRUE(plain_run.ok());

  EXPECT_LT(combined_run->job_metrics.num_stages(),
            plain_run->job_metrics.num_stages());
}

// ---- INSERT semantics: the engine's only base-data write, and the hook
// the server's result-cache invalidation hangs off (DESIGN.md §12). ----

TEST(EngineInsertTest, AppendsRowsAndReportsCount) {
  RaSqlContext ctx;
  ASSERT_TRUE(
      ctx.RegisterTable("edge", WeightedEdges({{1, 2, 1.0}, {2, 3, 2.0}}))
          .ok());
  auto result =
      ctx.Execute("INSERT INTO edge VALUES (3, 4, 0.5), (4, 1, 1.5)");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->relation.size(), 1u);
  EXPECT_EQ(result->relation.schema().column(0).name, "rows_inserted");
  EXPECT_EQ(result->relation.row(0)[0].AsInt(), 2);
  auto count = ctx.Execute("SELECT count(*) FROM edge");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->relation.row(0)[0].AsInt(), 4);
}

TEST(EngineInsertTest, PromotesIntToDoubleColumn) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable("edge", WeightedEdges({{1, 2, 1.0}})).ok());
  ASSERT_TRUE(ctx.Execute("INSERT INTO edge VALUES (2, 3, 7)").ok());
  auto result = ctx.Execute("SELECT Cost FROM edge WHERE Src = 2");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->relation.size(), 1u);
  EXPECT_EQ(result->relation.row(0)[0], Value::Double(7.0));
}

TEST(EngineInsertTest, RejectsAtomicallyOnBadRow) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable("edge", WeightedEdges({{1, 2, 1.0}})).ok());
  const uint64_t version = ctx.TableVersion("edge");
  // Second row has a string where an int column is expected: the whole
  // statement must reject, including the valid first row.
  auto bad =
      ctx.Execute("INSERT INTO edge VALUES (2, 3, 0.5), ('x', 4, 0.5)");
  EXPECT_FALSE(bad.ok());
  auto arity = ctx.Execute("INSERT INTO edge VALUES (2, 3)");
  EXPECT_FALSE(arity.ok());
  auto missing = ctx.Execute("INSERT INTO no_such VALUES (1, 2, 3.0)");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(ctx.TableVersion("edge"), version);
  auto count = ctx.Execute("SELECT count(*) FROM edge");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->relation.row(0)[0].AsInt(), 1);
}

TEST(EngineInsertTest, InsertedRowsFeedRecursionAndBumpVersion) {
  RaSqlContext ctx;
  ASSERT_TRUE(
      ctx.RegisterTable("edge", WeightedEdges({{1, 2, 1.0}, {2, 3, 1.0}}))
          .ok());
  const uint64_t version = ctx.TableVersion("edge");
  const char* tc = R"(
      WITH recursive tc (Src, Dst) AS
        (SELECT Src, Dst FROM edge) UNION
        (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
      SELECT count(*) FROM tc)";
  auto before = ctx.Execute(tc);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->relation.row(0)[0].AsInt(), 3);  // 12 23 13
  ASSERT_TRUE(ctx.Execute("INSERT INTO edge VALUES (3, 4, 1.0)").ok());
  EXPECT_GT(ctx.TableVersion("edge"), version);
  auto after = ctx.Execute(tc);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->relation.row(0)[0].AsInt(), 6);  // + 34 24 14
}

TEST(EngineInsertTest, NullLiteralLandsAsNull) {
  RaSqlContext ctx;
  ASSERT_TRUE(ctx.RegisterTable("edge", WeightedEdges({{1, 2, 1.0}})).ok());
  ASSERT_TRUE(ctx.Execute("INSERT INTO edge VALUES (2, 3, NULL)").ok());
  auto result = ctx.Execute("SELECT Cost FROM edge WHERE Src = 2");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->relation.size(), 1u);
  EXPECT_TRUE(result->relation.row(0)[0].is_null());
}

// ---- Semantics both engines and both execution modes must share ----

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();

EngineConfig ConfigFor(bool distributed, size_t batch_rows) {
  EngineConfig config;
  config.distributed = distributed;
  config.runtime.batch_rows = batch_rows;
  return config;
}

TEST(EngineTest, Int64SumWrapsPastInt64Max) {
  // The row step and the batch int64 loop of the aggregate both wrap, as
  // int64 expression arithmetic does (DESIGN.md §5).
  for (size_t batch_rows : {size_t{0}, size_t{64}}) {
    RaSqlContext ctx(ConfigFor(false, batch_rows));
    ASSERT_TRUE(
        ctx.RegisterTable("t", MakeIntRelation({"a"}, {{kInt64Max}, {1}}))
            .ok());
    auto result = ctx.Execute("SELECT sum(a) FROM t");
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->relation.size(), 1u);
    EXPECT_EQ(result->relation.row(0)[0].AsInt(), kInt64Min)
        << "batch=" << batch_rows;
  }
}

TEST(EngineTest, RecursiveInt64SumWrapsInBothEngines) {
  // Key 1's base contributions overflow when they are pre-aggregated; the
  // wrapped total then flows along the edge to key 2.
  for (bool distributed : {false, true}) {
    for (size_t batch_rows : {size_t{0}, size_t{64}}) {
      RaSqlContext ctx(ConfigFor(distributed, batch_rows));
      ASSERT_TRUE(ctx.RegisterTable("t", MakeIntRelation({"K", "V"},
                                                         {{1, kInt64Max},
                                                          {1, 1}}))
                      .ok());
      ASSERT_TRUE(
          ctx.RegisterTable("edge", MakeIntRelation({"Src", "Dst"}, {{1, 2}}))
              .ok());
      auto result = ctx.Execute(R"(
          WITH recursive total (K, sum() AS V) AS
            (SELECT K, V FROM t) UNION
            (SELECT edge.Dst, total.V FROM total, edge
             WHERE total.K = edge.Src)
          SELECT K, V FROM total)");
      ASSERT_TRUE(result.ok()) << result.status();
      std::set<std::pair<int64_t, int64_t>> got;
      result->relation.ForEachRow([&](const Row& row) {
        got.insert({row[0].AsInt(), row[1].AsInt()});
      });
      const std::set<std::pair<int64_t, int64_t>> expected = {
          {1, kInt64Min}, {2, kInt64Min}};
      EXPECT_EQ(got, expected)
          << (distributed ? "distributed" : "local")
          << " batch=" << batch_rows;
    }
  }
}

/// Columns a, b with rows (NULL, 1) and (5, 2).
Relation NullableAB() {
  Relation rel{Schema::Of({{"a", ValueType::kInt64},
                           {"b", ValueType::kInt64}})};
  rel.Add({Value::Null(), Value::Int(1)});
  rel.Add({Value::Int(5), Value::Int(2)});
  return rel;
}

/// The `b` values a filter over NullableAB keeps, in row order.
std::vector<int64_t> FilteredB(RaSqlContext* ctx, const std::string& where) {
  auto result = ctx->Execute("SELECT b FROM n WHERE " + where);
  EXPECT_TRUE(result.ok()) << where << ": " << result.status();
  std::vector<int64_t> out;
  if (result.ok()) {
    result->relation.ForEachRow(
        [&](const Row& row) { out.push_back(row[0].AsInt()); });
  }
  return out;
}

TEST(EngineTest, NotAndOrFollowThreeValuedLogicInFilters) {
  // NOT NULL is NULL, and a filter keeps only TRUE rows. FALSE AND x is
  // FALSE and TRUE OR x is TRUE even when x is NULL.
  for (size_t batch_rows : {size_t{0}, size_t{64}}) {
    RaSqlContext ctx(ConfigFor(false, batch_rows));
    ASSERT_TRUE(ctx.RegisterTable("n", NullableAB()).ok());
    const std::string label = "batch=" + std::to_string(batch_rows);
    using B = std::vector<int64_t>;
    EXPECT_EQ(FilteredB(&ctx, "NOT (a > 0)"), B{}) << label;
    EXPECT_EQ(FilteredB(&ctx, "NOT (a > 0 AND b > 0)"), B{}) << label;
    EXPECT_EQ(FilteredB(&ctx, "NOT (a > 0 OR b < 0)"), B{}) << label;
    EXPECT_EQ(FilteredB(&ctx, "NOT (a > 0 AND b > 1)"), (B{1})) << label;
    EXPECT_EQ(FilteredB(&ctx, "NOT (a > 0 OR b > 0)"), B{}) << label;
    EXPECT_EQ(FilteredB(&ctx, "a > 0 OR b > 0"), (B{1, 2})) << label;
  }
}

TEST(EngineTest, NotAndOrProjectNullPerThreeValuedLogic) {
  for (size_t batch_rows : {size_t{0}, size_t{64}}) {
    RaSqlContext ctx(ConfigFor(false, batch_rows));
    ASSERT_TRUE(ctx.RegisterTable("n", NullableAB()).ok());
    auto result = ctx.Execute(
        "SELECT b, a > 0 AND b > 0, a > 0 OR b < 0, NOT (a > 0), "
        "a > 0 AND b > 1, a > 0 OR b > 0 FROM n");
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->relation.size(), 2u);
    const Row null_row = result->relation.GetRow(0);
    const Row full_row = result->relation.GetRow(1);
    const std::string label = "batch=" + std::to_string(batch_rows);
    EXPECT_EQ(null_row[0].AsInt(), 1) << label;
    EXPECT_TRUE(null_row[1].is_null()) << label;
    EXPECT_TRUE(null_row[2].is_null()) << label;
    EXPECT_TRUE(null_row[3].is_null()) << label;
    EXPECT_EQ(null_row[4], Value::Int(0)) << label;  // NULL AND FALSE
    EXPECT_EQ(null_row[5], Value::Int(1)) << label;  // NULL OR TRUE
    EXPECT_EQ(full_row, (Row{Value::Int(2), Value::Int(1), Value::Int(1),
                             Value::Int(0), Value::Int(1), Value::Int(1)}))
        << label;
  }
}

TEST(EngineTest, RecursiveFilterNotOverNullableWeight) {
  // NOT (edge.W > 5) is NULL on the NULL-weight edges, so the recursion
  // must not follow them — in either engine and either execution mode.
  Relation edge{Schema::Of({{"Src", ValueType::kInt64},
                            {"Dst", ValueType::kInt64},
                            {"W", ValueType::kInt64}})};
  edge.Add({Value::Int(1), Value::Int(2), Value::Null()});
  edge.Add({Value::Int(1), Value::Int(3), Value::Int(1)});
  edge.Add({Value::Int(3), Value::Int(4), Value::Int(9)});
  edge.Add({Value::Int(3), Value::Int(5), Value::Null()});
  edge.Add({Value::Int(3), Value::Int(6), Value::Int(2)});
  for (bool distributed : {false, true}) {
    for (size_t batch_rows : {size_t{0}, size_t{64}}) {
      RaSqlContext ctx(ConfigFor(distributed, batch_rows));
      ASSERT_TRUE(ctx.RegisterTable("edge", edge).ok());
      auto result = ctx.Execute(R"(
          WITH recursive reach (Dst) AS
            (SELECT 1) UNION
            (SELECT edge.Dst FROM reach, edge
             WHERE reach.Dst = edge.Src AND NOT (edge.W > 5))
          SELECT Dst FROM reach)");
      ASSERT_TRUE(result.ok()) << result.status();
      std::set<int64_t> got;
      result->relation.ForEachRow(
          [&](const Row& row) { got.insert(row[0].AsInt()); });
      EXPECT_EQ(got, (std::set<int64_t>{1, 3, 6}))
          << (distributed ? "distributed" : "local")
          << " batch=" << batch_rows;
    }
  }
}

}  // namespace
}  // namespace rasql::engine
