// Golden-diagnostic tests for the static stage-graph verifier
// (src/verify, DESIGN.md §11): every seeded malformed-graph class must
// produce its exact RASQL-G diagnostic, the evaluators' legal templates
// must verify clean, the offline planners behind EXPLAIN STAGES must
// render the verified DAG without executing, and the live Cluster hook
// must reject a malformed submission before any of its tasks run.

#include <gtest/gtest.h>

#include <memory>

#include <string>

#include "dist/cluster.h"
#include "engine/rasql_context.h"
#include "fixpoint/stage_plan.h"
#include "lint/diagnostic.h"
#include "storage/relation.h"
#include "verify/stage_graph.h"
#include "verify/verifier.h"

namespace rasql {
namespace {

using lint::Diagnostic;
using lint::DiagnosticEngine;
using lint::Severity;
using storage::Relation;
using storage::Schema;
using storage::Value;
using storage::ValueType;
using verify::AccessMode;
using verify::StageGraph;
using verify::StageKind;
using verify::StageNode;

bool HasCode(const DiagnosticEngine& diag, const std::string& code) {
  for (const Diagnostic& d : diag.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

/// The message of the first diagnostic with `code` ("" when absent).
std::string MessageOf(const DiagnosticEngine& diag, const std::string& code) {
  for (const Diagnostic& d : diag.diagnostics()) {
    if (d.code == code) return d.message;
  }
  return "";
}

int ErrorCount(const DiagnosticEngine& diag) {
  return diag.CountAtLeast(Severity::kError);
}

DiagnosticEngine Verify(const StageGraph& graph) {
  DiagnosticEngine diag;
  verify::VerifyStageGraph(graph, &diag);
  return diag;
}

// ---- Offline golden diagnostics, one test per seeded defect class. ----

TEST(VerifyGoldenTest, CleanMapReducePairEmitsAllClear) {
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("delta-exchange");
  StageNode& map = g.AddStage("map-1", StageKind::kShuffleMap);
  map.output_channel = ch;
  map.group = 0;
  StageNode& reduce = g.AddStage("reduce-1", StageKind::kShuffleReduce);
  reduce.input_channel = ch;
  reduce.group = 0;
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(ErrorCount(diag), 0) << diag.ToString();
  EXPECT_EQ(MessageOf(diag, "RASQL-G000"),
            "stage graph verified: 2 stages, 1 channel, contracts hold");
}

TEST(VerifyGoldenTest, DanglingInputSlice) {
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("delta-exchange");
  StageNode& reduce = g.AddStage("reduce-1", StageKind::kShuffleReduce);
  reduce.input_channel = ch;
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(ErrorCount(diag), 1) << diag.ToString();
  EXPECT_EQ(MessageOf(diag, "RASQL-G001"),
            "stage consumes channel 'delta-exchange' but no stage publishes "
            "into it");
  EXPECT_EQ(diag.diagnostics()[0].view, "reduce-1");
}

TEST(VerifyGoldenTest, DoublePublishWithoutReset) {
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("delta-exchange");
  g.AddStage("map-1", StageKind::kShuffleMap).output_channel = ch;
  g.AddStage("map-2", StageKind::kShuffleMap).output_channel = ch;
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(ErrorCount(diag), 1) << diag.ToString();
  EXPECT_EQ(MessageOf(diag, "RASQL-G002"),
            "stage publishes into channel 'delta-exchange' whose previous "
            "exchange was never cleared; Reset() the channel before "
            "resubmitting");
}

TEST(VerifyGoldenTest, ResetClearsThePreviousExchange) {
  // The same graph with the driver-side Reset declared is legal — the
  // exact shape of the plain-DSN iteration loop.
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("delta-exchange");
  g.AddStage("map-1", StageKind::kShuffleMap).output_channel = ch;
  StageNode& again = g.AddStage("map-2", StageKind::kShuffleMap);
  again.output_channel = ch;
  again.resets.push_back(ch);
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(ErrorCount(diag), 0) << diag.ToString();
}

TEST(VerifyGoldenTest, ConcurrentDoublePublish) {
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("exchange");
  StageNode& a = g.AddStage("map-a", StageKind::kShuffleMap);
  a.output_channel = ch;
  a.group = 0;
  StageNode& b = g.AddStage("map-b", StageKind::kShuffleMap);
  b.output_channel = ch;
  b.group = 0;
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(MessageOf(diag, "RASQL-G002"),
            "stages 'map-a' and 'map-b' both publish into channel "
            "'exchange' while in flight together");
}

TEST(VerifyGoldenTest, ConsumeAfterPrematureReset) {
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("exchange");
  g.AddStage("map-1", StageKind::kShuffleMap).output_channel = ch;
  // The driver Reset()s the exchange and then submits its consumer: armed
  // but zero slices published.
  StageNode& reduce = g.AddStage("reduce-1", StageKind::kShuffleReduce);
  reduce.input_channel = ch;
  reduce.resets.push_back(ch);
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(ErrorCount(diag), 1) << diag.ToString();
  EXPECT_EQ(MessageOf(diag, "RASQL-G003"),
            "stage consumes channel 'exchange' before its exchange is fully "
            "published (0 of 4 slices at submission)");
}

TEST(VerifyGoldenTest, SelfLoop) {
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("loop");
  StageNode& node = g.AddStage("combined-1", StageKind::kCombined);
  node.input_channel = ch;
  node.output_channel = ch;
  DiagnosticEngine diag = Verify(g);
  EXPECT_TRUE(HasCode(diag, "RASQL-G004")) << diag.ToString();
  EXPECT_EQ(MessageOf(diag, "RASQL-G004"),
            "stage consumes its own output channel 'loop'");
}

TEST(VerifyGoldenTest, PairCycle) {
  StageGraph g;
  g.num_partitions = 4;
  const int ch1 = g.AddChannel("ch1");
  const int ch2 = g.AddChannel("ch2");
  StageNode& a = g.AddStage("a", StageKind::kCombined);
  a.input_channel = ch2;
  a.output_channel = ch1;
  a.group = 0;
  StageNode& b = g.AddStage("b", StageKind::kCombined);
  b.input_channel = ch1;
  b.output_channel = ch2;
  b.group = 0;
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(MessageOf(diag, "RASQL-G004"),
            "cyclic slice dependency between concurrent stages 'a' and 'b'");
}

TEST(VerifyGoldenTest, CounterAliasingAcrossConcurrentStages) {
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("exchange");
  const int counter = g.AddCounter("delta-rows");
  StageNode& map = g.AddStage("map-1", StageKind::kShuffleMap);
  map.output_channel = ch;
  map.counter = counter;
  map.group = 0;
  StageNode& reduce = g.AddStage("reduce-1", StageKind::kShuffleReduce);
  reduce.input_channel = ch;
  reduce.counter = counter;
  reduce.group = 0;
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(ErrorCount(diag), 1) << diag.ToString();
  EXPECT_EQ(MessageOf(diag, "RASQL-G005"),
            "concurrent stages 'map-1' and 'reduce-1' share StageCounter "
            "'delta-rows'; per-task slots would collide");
}

TEST(VerifyGoldenTest, StatusAliasingAcrossConcurrentStages) {
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("exchange");
  const int status = g.AddStatus("failure");
  StageNode& map = g.AddStage("map-1", StageKind::kShuffleMap);
  map.output_channel = ch;
  map.status = status;
  map.group = 0;
  StageNode& reduce = g.AddStage("reduce-1", StageKind::kShuffleReduce);
  reduce.input_channel = ch;
  reduce.status = status;
  reduce.group = 0;
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(MessageOf(diag, "RASQL-G005"),
            "concurrent stages 'map-1' and 'reduce-1' share StageStatus "
            "'failure'; per-task slots would collide");
}

TEST(VerifyGoldenTest, KindChannelMismatch) {
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("exchange");
  g.AddStage("seed", StageKind::kShuffleMap).output_channel = ch;
  StageNode& local = g.AddStage("local-1", StageKind::kLocal);
  local.input_channel = ch;
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(MessageOf(diag, "RASQL-G006"),
            "stage kind 'local' does not consume a shuffle but declares "
            "input channel 'exchange'");
}

TEST(VerifyGoldenTest, SplitClaimOnUnsplitStage) {
  StageGraph g;
  g.num_partitions = 4;
  const int slots = g.AddResource("morsel-slots");
  g.AddStage("map-1", StageKind::kShuffleMap);
  g.Claim(slots, AccessMode::kSplitSlotOwned);
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(ErrorCount(diag), 1) << diag.ToString();
  EXPECT_EQ(MessageOf(diag, "RASQL-G007"),
            "split-slot claim on resource 'morsel-slots' but the stage "
            "declares no split tasks");
}

TEST(VerifyGoldenTest, ConflictingClaims) {
  StageGraph g;
  g.num_partitions = 4;
  const int delta = g.AddResource("delta");
  g.AddStage("map-1", StageKind::kShuffleMap);
  g.Claim(delta, AccessMode::kPartitionOwned);
  g.Claim(delta, AccessMode::kReadShared);
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(MessageOf(diag, "RASQL-G007"),
            "conflicting claims on resource 'delta': partition-owned vs "
            "read-shared");
}

TEST(VerifyGoldenTest, UnorderedConcurrentWrites) {
  // Two stages of one pair write the same resource with no slice
  // dependency between them — the partition-ownership violation.
  StageGraph g;
  g.num_partitions = 4;
  const int delta = g.AddResource("delta");
  StageNode& a = g.AddStage("map-a", StageKind::kShuffleMap);
  a.group = 0;
  g.Claim(delta, AccessMode::kPartitionOwned);
  StageNode& b = g.AddStage("map-b", StageKind::kShuffleMap);
  b.group = 0;
  g.Claim(delta, AccessMode::kPartitionOwned);
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(ErrorCount(diag), 1) << diag.ToString();
  EXPECT_EQ(MessageOf(diag, "RASQL-G008"),
            "concurrent stages 'map-a' and 'map-b' both write resource "
            "'delta' with no slice dependency ordering them");
}

TEST(VerifyGoldenTest, UnorderedReadUnderConcurrentWrite) {
  StageGraph g;
  g.num_partitions = 4;
  const int state = g.AddResource("state");
  StageNode& w = g.AddStage("writer", StageKind::kShuffleMap);
  w.group = 0;
  g.Claim(state, AccessMode::kPartitionOwned);
  StageNode& r = g.AddStage("reader", StageKind::kShuffleMap);
  r.group = 0;
  g.Claim(state, AccessMode::kReadShared);
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(MessageOf(diag, "RASQL-G008"),
            "concurrent stage 'writer' writes resource 'state' while "
            "'reader' reads it, with no slice dependency ordering them");
}

TEST(VerifyGoldenTest, DeltaHandoffThroughExchangeIsExempt) {
  // The legal plain-DSN pattern: map and reduce of one pair both write the
  // delta slots, but the exchange between them orders every reduce task
  // after the map tasks of its slice.
  StageGraph g;
  g.num_partitions = 4;
  const int ch = g.AddChannel("delta-exchange");
  const int delta = g.AddResource("delta");
  StageNode& map = g.AddStage("map-1", StageKind::kShuffleMap);
  map.output_channel = ch;
  map.group = 0;
  g.Claim(delta, AccessMode::kPartitionOwned);
  StageNode& reduce = g.AddStage("reduce-1", StageKind::kShuffleReduce);
  reduce.input_channel = ch;
  reduce.group = 0;
  g.Claim(delta, AccessMode::kPartitionOwned);
  DiagnosticEngine diag = Verify(g);
  EXPECT_EQ(ErrorCount(diag), 0) << diag.ToString();
  EXPECT_TRUE(HasCode(diag, "RASQL-G000"));
}

// ---- EXPLAIN STAGES: offline planners render verified templates. ----

Relation WeightedEdges() {
  Relation rel{Schema::Of({{"Src", ValueType::kInt64},
                           {"Dst", ValueType::kInt64},
                           {"Cost", ValueType::kDouble}})};
  rel.Add({Value::Int(1), Value::Int(2), Value::Double(1.0)});
  rel.Add({Value::Int(2), Value::Int(3), Value::Double(2.0)});
  rel.Add({Value::Int(1), Value::Int(3), Value::Double(9.0)});
  return rel;
}

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

/// Heap-allocated: RaSqlContext is immovable (it owns a shared_mutex).
std::unique_ptr<engine::RaSqlContext> MakeContext(
    engine::EngineConfig config = {}) {
  auto ctx = std::make_unique<engine::RaSqlContext>(std::move(config));
  EXPECT_TRUE(ctx->RegisterTable("edge", WeightedEdges()).ok());
  return ctx;
}

std::string ExplainStages(engine::RaSqlContext& ctx, const std::string& sql) {
  auto out = ctx.ExplainStages(sql);
  EXPECT_TRUE(out.ok()) << out.status();
  return out.ok() ? *out : "";
}

TEST(ExplainStagesTest, LocalSemiNaiveTemplate) {
  auto ctx = MakeContext();
  const std::string out = ExplainStages(*ctx, kTc);
  EXPECT_NE(out.find("=== STAGES (local) ==="), std::string::npos) << out;
  EXPECT_NE(out.find("iter-map"), std::string::npos) << out;
  EXPECT_NE(out.find("split-slot-owned"), std::string::npos) << out;
  EXPECT_NE(out.find("mode: local semi-naive"), std::string::npos) << out;
  EXPECT_NE(out.find("shared-build-sides(read-shared)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("[RASQL-G000]"), std::string::npos) << out;
}

TEST(ExplainStagesTest, LocalNaiveTemplate) {
  engine::EngineConfig config;
  config.fixpoint.mode = fixpoint::FixpointMode::kNaive;
  auto ctx = MakeContext(config);
  const std::string out = ExplainStages(*ctx, kSssp);
  EXPECT_NE(out.find("naive-branches"), std::string::npos) << out;
  EXPECT_NE(out.find("mode: local naive"), std::string::npos) << out;
  EXPECT_NE(out.find("shared-build-sides(read-shared)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("[RASQL-G000]"), std::string::npos) << out;
}

TEST(ExplainStagesTest, DistributedDecomposedTc) {
  engine::EngineConfig config;
  config.distributed = true;
  auto ctx = MakeContext(config);
  const std::string out = ExplainStages(*ctx, kTc);
  EXPECT_NE(out.find("=== STAGES (distributed) ==="), std::string::npos)
      << out;
  EXPECT_NE(out.find("seed-base-case"), std::string::npos) << out;
  EXPECT_NE(out.find("decomposed-fixpoint"), std::string::npos) << out;
  EXPECT_NE(out.find("mode: decomposed"), std::string::npos) << out;
  EXPECT_NE(out.find("[RASQL-G000]"), std::string::npos) << out;
}

TEST(ExplainStagesTest, DistributedCombinedSssp) {
  engine::EngineConfig config;
  config.distributed = true;
  auto ctx = MakeContext(config);
  const std::string out = ExplainStages(*ctx, kSssp);
  EXPECT_NE(out.find("partition-base:edge"), std::string::npos) << out;
  EXPECT_NE(out.find("iter-exchange[0]"), std::string::npos) << out;
  EXPECT_NE(out.find("resets: iter-exchange[0]"), std::string::npos) << out;
  EXPECT_NE(out.find("mode: combined reduce+map"), std::string::npos) << out;
  EXPECT_NE(out.find("[RASQL-G000]"), std::string::npos) << out;
}

TEST(ExplainStagesTest, DistributedPlainPairsAndSplitDag) {
  engine::EngineConfig config;
  config.distributed = true;
  config.dist_fixpoint.combine_stages = false;
  config.dist_fixpoint.decomposed =
      fixpoint::DistFixpointOptions::Decomposed::kOff;
  {
    auto ctx = MakeContext(config);
    const std::string out = ExplainStages(*ctx, kSssp);
    EXPECT_NE(out.find("mode: plain DSN (Alg. 4/5), pipelined pairs"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("[pair"), std::string::npos) << out;
    EXPECT_NE(out.find("[RASQL-G000]"), std::string::npos) << out;
  }
  config.runtime.morsel_rows = 64;
  {
    auto ctx = MakeContext(config);
    const std::string out = ExplainStages(*ctx, kSssp);
    EXPECT_NE(out.find("mode: plain DSN (Alg. 4/5), morsel-split map DAG"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("morsel-slots(split-slot-owned)"), std::string::npos)
        << out;
    EXPECT_NE(out.find("[RASQL-G000]"), std::string::npos) << out;
  }
}

TEST(ExplainStagesTest, ForcedSemiNaiveOnNaiveCliqueFails) {
  engine::EngineConfig config;
  config.fixpoint.mode = fixpoint::FixpointMode::kSemiNaive;
  auto ctx = MakeContext(config);
  // Non-linear use of the view (tc twice) is not semi-naive-safe for
  // sum/count heads; mutual recursion is the simpler trigger here.
  auto out = ctx->ExplainStages(R"(
      WITH recursive a (X) AS (SELECT Src FROM edge)
         UNION (SELECT X FROM b),
      recursive b (X) AS (SELECT X FROM a)
      SELECT X FROM a)");
  EXPECT_FALSE(out.ok());
}

// ---- Live Cluster hook: legal submissions pass, malformed ones die. ----

runtime::RuntimeOptions VerifyOn() {
  runtime::RuntimeOptions runtime;
  runtime.verify_stages = true;
  return runtime;
}

TEST(ClusterVerifyTest, AcceptsLegalMapReduce) {
  dist::ClusterConfig config;
  config.num_workers = 2;
  config.num_partitions = 4;
  dist::Cluster cluster(config, VerifyOn());
  ASSERT_TRUE(cluster.verify_enabled());
  dist::ShuffleChannel exchange(config.num_partitions);
  dist::StageSpec map_spec;
  map_spec.name = "map";
  map_spec.kind = dist::StageSpec::Kind::kShuffleMap;
  map_spec.output_slices = &exchange;
  cluster.RunStage(map_spec, [&](dist::TaskContext& ctx) {
    ctx.WriteShuffle(dist::ShuffleWrite(4));
  });
  dist::StageSpec reduce_spec;
  reduce_spec.name = "reduce";
  reduce_spec.kind = dist::StageSpec::Kind::kShuffleReduce;
  reduce_spec.input_slices = &exchange;
  cluster.RunStage(reduce_spec,
                   [](dist::TaskContext& ctx) { (void)ctx.ReadShuffle(); });
  EXPECT_FALSE(cluster.verify_report().HasErrors())
      << cluster.verify_report().ToString();
  ASSERT_EQ(cluster.verify_graph().nodes.size(), 2u);
  EXPECT_EQ(cluster.verify_graph().nodes[0].name, "map");
  EXPECT_NE(cluster.verify_graph().ToString().find("map"),
            std::string::npos);
}

TEST(ClusterVerifyDeathTest, RejectsDanglingConsumer) {
  dist::ClusterConfig config;
  config.num_workers = 2;
  config.num_partitions = 4;
  dist::Cluster cluster(config, VerifyOn());
  dist::ShuffleChannel never_published(config.num_partitions);
  dist::StageSpec bad;
  bad.name = "bad-reduce";
  bad.kind = dist::StageSpec::Kind::kShuffleReduce;
  bad.input_slices = &never_published;
  EXPECT_DEATH(cluster.RunStage(bad, [](dist::TaskContext&) {}),
               "RASQL-G001");
}

TEST(ClusterVerifyDeathTest, RejectsCounterAliasingAcrossPair) {
  dist::ClusterConfig config;
  config.num_workers = 2;
  config.num_partitions = 4;
  dist::Cluster cluster(config, VerifyOn());
  dist::ShuffleChannel exchange(config.num_partitions);
  runtime::StageCounter shared(config.num_partitions);
  dist::StageSpec map_spec;
  map_spec.name = "map";
  map_spec.kind = dist::StageSpec::Kind::kShuffleMap;
  map_spec.output_slices = &exchange;
  map_spec.counter = &shared;
  dist::StageSpec reduce_spec;
  reduce_spec.name = "reduce";
  reduce_spec.kind = dist::StageSpec::Kind::kShuffleReduce;
  reduce_spec.input_slices = &exchange;
  reduce_spec.counter = &shared;
  EXPECT_DEATH(cluster.RunStagePair(
                   map_spec,
                   [&](dist::TaskContext& ctx) {
                     ctx.WriteShuffle(dist::ShuffleWrite(4));
                   },
                   reduce_spec,
                   [](dist::TaskContext& ctx) { (void)ctx.ReadShuffle(); }),
               "RASQL-G005");
}

TEST(ClusterVerifyTest, DistributedExecutionVerifiesLive) {
  // End to end: a distributed run with verification forced on submits all
  // of its stages through the live hook and completes with the same rows
  // as the local path.
  engine::EngineConfig dist_config;
  dist_config.distributed = true;
  dist_config.runtime.verify_stages = true;
  auto dist_ctx = MakeContext(dist_config);
  auto local_ctx = MakeContext();
  auto dist_result = dist_ctx->Execute(kTc);
  auto local_result = local_ctx->Execute(kTc);
  ASSERT_TRUE(dist_result.ok()) << dist_result.status();
  ASSERT_TRUE(local_result.ok()) << local_result.status();
  EXPECT_EQ(dist_result->relation.size(), local_result->relation.size());
}

}  // namespace
}  // namespace rasql
