#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "dist/aggregates.h"
#include "dist/broadcast.h"
#include "dist/cluster.h"
#include "dist/partition.h"
#include "dist/set_rdd.h"
#include "dist/shuffle.h"
#include "runtime/runtime_options.h"

namespace rasql::dist {
namespace {

using expr::AggregateFunction;
using storage::MakeIntRelation;
using storage::Relation;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

/// The relation holding `rows` in order — the unit the columnar shuffle,
/// aggregation and SetRDD APIs take.
Relation Rel(const std::vector<Row>& rows) {
  Relation rel;
  for (const Row& row : rows) rel.AppendRow(row);
  return rel;
}

/// The first column of every row of `rel`, in order.
std::vector<int64_t> FirstColumn(const Relation& rel) {
  std::vector<int64_t> out;
  rel.ForEachRow([&](const Row& row) { out.push_back(row[0].AsInt()); });
  return out;
}

TEST(PartitionTest, RowsLandInOwnPartition) {
  Relation r = MakeIntRelation({"K", "V"},
                               {{1, 10}, {2, 20}, {3, 30}, {1, 11}, {2, 21}});
  PartitionedRelation pr = Partition(r, {0}, 4);
  EXPECT_EQ(pr.TotalRows(), 5u);
  for (int p = 0; p < 4; ++p) {
    pr.partition(p).ForEachRow([&](const Row& row) {
      EXPECT_EQ(pr.partitioning().PartitionOf(row), p);
    });
  }
}

TEST(PartitionTest, SameKeySamePartition) {
  Relation r = MakeIntRelation({"K", "V"}, {{7, 1}, {7, 2}, {7, 3}});
  PartitionedRelation pr = Partition(r, {0}, 8);
  int non_empty = 0;
  for (int p = 0; p < 8; ++p) non_empty += !pr.partition(p).empty();
  EXPECT_EQ(non_empty, 1);
}

TEST(PartitionTest, CollectRoundTrips) {
  Relation r = MakeIntRelation({"K", "V"}, {{1, 2}, {3, 4}, {5, 6}});
  PartitionedRelation pr = Partition(r, {0}, 3);
  EXPECT_TRUE(SameBag(r, pr.Collect()));
}

TEST(ShuffleWriteTest, RoutesByPartitioning) {
  Partitioning spec{{0}, 4};
  ShuffleWrite w(4);
  std::vector<std::vector<int64_t>> rows;
  for (int64_t k = 0; k < 100; ++k) rows.push_back({k, k * 2});
  const Relation input = MakeIntRelation({"K", "V"}, rows);
  for (size_t i = 0; i < input.size(); ++i) {
    const storage::RowAccessor row = input.row(i);
    w.Add(row.chunk(), row.chunk_row(), spec);
  }
  size_t total_rows = 0;
  size_t total_bytes = 0;
  for (int p = 0; p < 4; ++p) {
    total_rows += w.slice_per_dest[p].size();
    total_bytes += w.bytes_per_dest[p];
    w.slice_per_dest[p].ForEachRow([&](const Row& row) {
      EXPECT_EQ(spec.PartitionOf(row), p);
    });
  }
  EXPECT_EQ(total_rows, 100u);
  EXPECT_EQ(total_bytes, 1600u);
}

TEST(ShuffleWriteTest, GatherCollectsFromAllWriters) {
  Partitioning spec{{0}, 2};
  std::vector<ShuffleWrite> writes(3, ShuffleWrite(2));
  for (int src = 0; src < 3; ++src) {
    writes[src].AddAll(MakeIntRelation({"K"}, {{src}}), spec);
  }
  size_t total = GatherShuffle(&writes, 0).size() +
                 GatherShuffle(&writes, 1).size();
  EXPECT_EQ(total, 3u);
  // Each slice moved out to its one reader.
  for (const ShuffleWrite& w : writes) {
    for (const Relation& slice : w.slice_per_dest) EXPECT_TRUE(slice.empty());
  }
}

StageSpec LocalStage(const std::string& name) {
  StageSpec spec;
  spec.name = name;
  return spec;
}

TEST(ClusterTest, StageAccounting) {
  ClusterConfig config;
  config.num_workers = 2;
  config.num_partitions = 4;
  config.per_stage_overhead_sec = 0.5;
  config.per_task_overhead_sec = 0.0;
  Cluster cluster(config);
  cluster.RunStage(LocalStage("s1"), [](TaskContext&) {});
  EXPECT_EQ(cluster.metrics().num_stages(), 1);
  EXPECT_GE(cluster.metrics().TotalSimTime(), 0.5);
}

TEST(ClusterTest, PartitionAwareAvoidsStateFetch) {
  // With partition-aware scheduling the cached state is always local; with
  // the hybrid policy tasks move around and fetch it remotely.
  for (bool aware : {true, false}) {
    ClusterConfig config;
    config.num_workers = 4;
    config.num_partitions = 8;
    config.partition_aware_scheduling = aware;
    Cluster cluster(config);
    for (int stage = 0; stage < 3; ++stage) {
      cluster.RunStage(LocalStage("iter"), [](TaskContext& ctx) {
        ctx.ReportCachedState(1000);
      });
    }
    if (aware) {
      EXPECT_EQ(cluster.metrics().TotalRemoteBytes(), 0u);
    } else {
      EXPECT_GT(cluster.metrics().TotalRemoteBytes(), 0u);
    }
  }
}

TEST(ClusterTest, ShuffleBytesCrossWorkersOnly) {
  ClusterConfig config;
  config.num_workers = 2;
  config.num_partitions = 2;
  Cluster cluster(config);
  // Map stage: partition 0 (worker 0) sends 100B to partition 1 and 50B to
  // itself; partition 1 (worker 1) sends nothing.
  StageSpec map_spec;
  map_spec.name = "map";
  map_spec.kind = StageSpec::Kind::kShuffleMap;
  cluster.RunStage(map_spec, [](TaskContext& ctx) {
    ctx.ReportShuffleBytes(ctx.partition() == 0
                               ? std::vector<size_t>{50, 100}
                               : std::vector<size_t>{0, 0});
  });
  // Reduce stage: each partition consumes its shuffle slice.
  StageSpec reduce_spec;
  reduce_spec.name = "reduce";
  reduce_spec.kind = StageSpec::Kind::kShuffleReduce;
  cluster.RunStage(reduce_spec, [](TaskContext&) {});
  // Only the 100B slice 0 -> 1 crosses workers.
  EXPECT_EQ(cluster.metrics().TotalRemoteBytes(), 100u);
  EXPECT_EQ(cluster.metrics().TotalShuffleBytes(), 150u);
}

TEST(ClusterTest, ResetMetricsRestartsStagePlacement) {
  // Regression: ResetMetrics used to leave stage_counter_ stale, so the
  // hybrid policy's (partition + stage) % workers rotation resumed mid-cycle
  // on a reused cluster and placed tasks differently from a fresh one.
  // Per-stage remote bytes expose this: at stage index 0 the rotation puts
  // every task on its owner worker (p % 3 == (p + 0) % 3), so cached-state
  // fetches are free; at a stale index 2 every fetch would cross the network.
  ClusterConfig config;
  config.num_workers = 3;
  config.num_partitions = 6;
  config.partition_aware_scheduling = false;  // hybrid rotation
  auto state_task = [](TaskContext& ctx) { ctx.ReportCachedState(1000); };
  Cluster cluster(config);
  cluster.RunStage(LocalStage("s"), state_task);
  cluster.RunStage(LocalStage("s"), state_task);
  const size_t fresh_stage0_remote = cluster.metrics().stages[0].remote_bytes;
  EXPECT_EQ(fresh_stage0_remote, 0u);

  cluster.ResetMetrics();
  cluster.RunStage(LocalStage("s"), state_task);
  EXPECT_EQ(cluster.metrics().num_stages(), 1);
  EXPECT_EQ(cluster.metrics().stages[0].remote_bytes, fresh_stage0_remote);
}

TEST(ClusterTest, ResetMetricsDropsPendingShuffle) {
  // A reset must also forget the previous job's map output: a consuming
  // stage on the reused cluster would otherwise pull stale shuffle slices
  // and charge phantom network traffic.
  ClusterConfig config;
  config.num_workers = 2;
  config.num_partitions = 2;
  Cluster cluster(config);
  StageSpec map_spec;
  map_spec.name = "map";
  map_spec.kind = StageSpec::Kind::kShuffleMap;
  cluster.RunStage(map_spec, [](TaskContext& ctx) {
    ctx.ReportShuffleBytes({50, 100});
  });
  cluster.ResetMetrics();
  StageSpec reduce_spec;
  reduce_spec.name = "reduce";
  reduce_spec.kind = StageSpec::Kind::kShuffleReduce;
  cluster.RunStage(reduce_spec, [](TaskContext&) {});
  EXPECT_EQ(cluster.metrics().TotalRemoteBytes(), 0u);
}

TEST(ClusterTest, BroadcastChargesAllWorkers) {
  ClusterConfig config;
  config.num_workers = 4;
  config.network_bytes_per_sec = 1000.0;
  Cluster cluster(config);
  cluster.Broadcast(500);
  EXPECT_EQ(cluster.metrics().broadcast_bytes, 500u);
  EXPECT_DOUBLE_EQ(cluster.metrics().broadcast_time_sec, 2.0);
}

TEST(ClusterTest, MoreWorkersShrinkMakespan) {
  // Same measured work split over more workers => smaller simulated stage
  // time (this drives the Fig. 12 scaling bench).
  auto run = [](int workers) {
    ClusterConfig config;
    config.num_workers = workers;
    config.num_partitions = 16;
    config.per_stage_overhead_sec = 0.0;
    config.per_task_overhead_sec = 0.010;
    Cluster cluster(config);
    cluster.RunStage(LocalStage("s"), [](TaskContext&) {});
    return cluster.metrics().TotalSimTime();
  };
  EXPECT_GT(run(1), run(4));
  EXPECT_GT(run(4), run(16));
}

// ---- Slice readiness and the shuffle channel ----

TEST(SliceReadinessTest, PublishConsumeLifecycle) {
  SliceReadiness readiness(3);
  EXPECT_EQ(readiness.num_partitions(), 3);
  EXPECT_EQ(readiness.NumPublished(), 0);
  EXPECT_FALSE(readiness.AllPublished());

  readiness.Publish(1);
  EXPECT_TRUE(readiness.Published(1));
  EXPECT_FALSE(readiness.Published(0));
  EXPECT_EQ(readiness.NumPublished(), 1);

  readiness.Publish(0);
  readiness.Publish(2);
  EXPECT_TRUE(readiness.AllPublished());

  EXPECT_FALSE(readiness.Consumed(2));
  readiness.MarkConsumed(2);
  EXPECT_TRUE(readiness.Consumed(2));

  readiness.Reset(3);
  EXPECT_EQ(readiness.NumPublished(), 0);
  EXPECT_FALSE(readiness.Consumed(2));
}

TEST(ShuffleChannelTest, GatherSeesOnlyPublishedSlices) {
  // Producers 0 and 2 publish; producer 1 has deposited but not published.
  // A consumer must receive every published slice addressed to it, in
  // producer order, and never a slice whose producing task has not
  // completed; gathering moves the published slices out and leaves the
  // unpublished ones in place.
  const Partitioning spec{{0}, 2};
  ShuffleChannel channel(3);
  for (int src = 0; src < 3; ++src) {
    ShuffleWrite write(2);
    std::vector<std::vector<int64_t>> keys;
    for (int64_t k = 0; k < 6; ++k) keys.push_back({src * 10 + k});
    write.AddAll(MakeIntRelation({"K"}, keys), spec);
    channel.Put(src, std::move(write));
  }
  std::vector<int64_t> want[2];
  for (int dest = 0; dest < 2; ++dest) {
    for (int src : {0, 2}) {
      const std::vector<int64_t> slice =
          FirstColumn(channel.write(src).slice_per_dest[dest]);
      ASSERT_FALSE(slice.empty()) << "src " << src << " dest " << dest;
      want[dest].insert(want[dest].end(), slice.begin(), slice.end());
    }
  }
  const std::vector<int64_t> unpublished[2] = {
      FirstColumn(channel.write(1).slice_per_dest[0]),
      FirstColumn(channel.write(1).slice_per_dest[1])};
  channel.Publish(0);
  channel.Publish(2);

  EXPECT_EQ(FirstColumn(channel.Gather(0)), want[0]);
  EXPECT_EQ(FirstColumn(channel.Gather(1)), want[1]);
  EXPECT_TRUE(channel.readiness().Consumed(0));
  EXPECT_TRUE(channel.readiness().Consumed(1));
  for (int dest = 0; dest < 2; ++dest) {
    EXPECT_TRUE(channel.write(0).slice_per_dest[dest].empty());
    EXPECT_TRUE(channel.write(2).slice_per_dest[dest].empty());
    // Producer 1's rows stay invisible and in place.
    EXPECT_EQ(FirstColumn(channel.write(1).slice_per_dest[dest]),
              unpublished[dest]);
  }
  EXPECT_EQ(channel.TotalRows(), 6u);

  // Once published, a later gather delivers exactly the rows left behind.
  channel.Publish(1);
  EXPECT_EQ(FirstColumn(channel.Gather(0)), unpublished[0]);
  EXPECT_EQ(FirstColumn(channel.Gather(1)), unpublished[1]);
  EXPECT_EQ(channel.TotalRows(), 0u);

  channel.Reset();
  EXPECT_EQ(channel.TotalRows(), 0u);
  EXPECT_EQ(channel.readiness().NumPublished(), 0);
}

TEST(ShuffleChannelTest, RowsRouteThroughChannel) {
  // End-to-end through RunStagePair: map tasks route real rows, reduce
  // tasks gather exactly the rows addressed to their partition.
  for (bool async : {false, true}) {
    runtime::RuntimeOptions opts;
    opts.num_threads = async ? 4 : 1;
    opts.async_shuffle = async;
    ClusterConfig config;
    config.num_workers = 2;
    config.num_partitions = 4;
    Cluster cluster(config, opts);
    const Partitioning spec{{0}, 4};

    ShuffleChannel channel(4);
    StageSpec map_spec;
    map_spec.name = "map";
    map_spec.kind = StageSpec::Kind::kShuffleMap;
    map_spec.output_slices = &channel;
    StageSpec reduce_spec;
    reduce_spec.name = "reduce";
    reduce_spec.kind = StageSpec::Kind::kShuffleReduce;
    reduce_spec.input_slices = &channel;

    std::vector<std::vector<int64_t>> received(4);
    cluster.RunStagePair(
        map_spec,
        [&](TaskContext& ctx) {
          // Task p emits the keys p*10 .. p*10+9.
          ShuffleWrite write(4);
          for (int64_t k = 0; k < 10; ++k) {
            write.AddAll(MakeIntRelation({"K"}, {{ctx.partition() * 10 + k}}),
                         spec);
          }
          ctx.WriteShuffle(std::move(write));
        },
        reduce_spec,
        [&](TaskContext& ctx) {
          received[ctx.partition()] = FirstColumn(ctx.ReadShuffle());
        });

    size_t total = 0;
    for (int p = 0; p < 4; ++p) {
      for (int64_t k : received[p]) {
        EXPECT_EQ(spec.PartitionOf({Value::Int(k)}), p) << "async=" << async;
      }
      total += received[p].size();
    }
    EXPECT_EQ(total, 40u) << "async=" << async;
    EXPECT_EQ(cluster.metrics().num_stages(), 2);
  }
}

TEST(ClusterTest, PipelinedPairMetricsMatchBarriered) {
  // The same RunStagePair, barriered vs pipelined: simulated metrics must
  // be bit-identical — names, task counts, shuffle and remote bytes.
  auto run = [](bool async, int threads) {
    runtime::RuntimeOptions opts;
    opts.num_threads = threads;
    opts.async_shuffle = async;
    ClusterConfig config;
    config.num_workers = 3;
    config.num_partitions = 6;
    Cluster cluster(config, opts);
    const Partitioning spec{{0}, 6};
    for (int iter = 0; iter < 3; ++iter) {
      ShuffleChannel channel(6);
      StageSpec map_spec;
      map_spec.name = "map-" + std::to_string(iter);
      map_spec.kind = StageSpec::Kind::kShuffleMap;
      map_spec.output_slices = &channel;
      StageSpec reduce_spec;
      reduce_spec.name = "reduce-" + std::to_string(iter);
      reduce_spec.kind = StageSpec::Kind::kShuffleReduce;
      reduce_spec.input_slices = &channel;
      cluster.RunStagePair(
          map_spec,
          [&](TaskContext& ctx) {
            ctx.ReportCachedState(100 * (ctx.partition() + 1));
            ShuffleWrite write(6);
            for (int64_t k = 0; k < 6; ++k) {
              write.AddAll(
                  MakeIntRelation({"K"}, {{ctx.partition() * 6 + k}}), spec);
            }
            ctx.WriteShuffle(std::move(write));
          },
          reduce_spec,
          [&](TaskContext& ctx) { (void)ctx.ReadShuffle(); });
    }
    return cluster.metrics();
  };

  const JobMetrics base = run(false, 1);
  for (int threads : {1, 2, 8}) {
    const JobMetrics got = run(true, threads);
    ASSERT_EQ(got.num_stages(), base.num_stages()) << "threads=" << threads;
    for (int s = 0; s < base.num_stages(); ++s) {
      EXPECT_EQ(got.stages[s].name, base.stages[s].name);
      EXPECT_EQ(got.stages[s].num_tasks, base.stages[s].num_tasks);
      EXPECT_EQ(got.stages[s].shuffle_bytes, base.stages[s].shuffle_bytes)
          << "stage " << s << " threads=" << threads;
      EXPECT_EQ(got.stages[s].remote_bytes, base.stages[s].remote_bytes)
          << "stage " << s << " threads=" << threads;
    }
  }
}

TEST(BroadcastTest, EncodeDecodeRoundTrip) {
  Relation r = MakeIntRelation({"Src", "Dst"},
                               {{1, 2}, {2, 3}, {100000, 5}, {-7, 8}});
  auto decoded = DecodeRelation(EncodeRelation(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(SameBag(r, *decoded));
  EXPECT_TRUE(r.schema() == decoded->schema());
}

TEST(BroadcastTest, RoundTripMixedTypes) {
  Relation r{Schema::Of({{"Name", ValueType::kString},
                         {"Score", ValueType::kDouble}})};
  r.Add({Value::String("alpha"), Value::Double(1.5)});
  r.Add({Value::String(""), Value::Double(-2.25)});
  auto decoded = DecodeRelation(EncodeRelation(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(SameBag(r, *decoded));
}

TEST(BroadcastTest, CompressionShrinksIntRelations) {
  // Sequential-ish ids delta-encode to ~1-2 bytes instead of 8.
  Relation r{Schema::Of({{"Src", ValueType::kInt64},
                         {"Dst", ValueType::kInt64}})};
  for (int64_t i = 0; i < 10000; ++i) {
    r.Add({Value::Int(i), Value::Int(i + 3)});
  }
  const size_t compressed = EncodeRelation(r).size();
  const size_t raw = UncompressedWireSize(r);
  EXPECT_LT(compressed * 3, raw);  // at least 3x smaller
}

TEST(BroadcastTest, CorruptPayloadFailsGracefully) {
  Relation r = MakeIntRelation({"A"}, {{1}, {2}});
  std::vector<uint8_t> bytes = EncodeRelation(r);
  bytes.resize(bytes.size() / 2);  // truncate
  EXPECT_FALSE(DecodeRelation(bytes).ok());
  EXPECT_FALSE(DecodeRelation({0xff, 0xff, 0xff}).ok());
}

TEST(BroadcastTest, HashedRelationLargerThanRaw) {
  Relation r = MakeIntRelation({"A", "B"}, {{1, 2}, {3, 4}});
  EXPECT_GT(HashedRelationSize(r), UncompressedWireSize(r));
}

TEST(AggregatesTest, CombineSemantics) {
  EXPECT_EQ(CombineAgg(AggregateFunction::kMin, Value::Int(3), Value::Int(5))
                .AsInt(),
            3);
  EXPECT_EQ(CombineAgg(AggregateFunction::kMax, Value::Int(3), Value::Int(5))
                .AsInt(),
            5);
  EXPECT_EQ(CombineAgg(AggregateFunction::kSum, Value::Int(3), Value::Int(5))
                .AsInt(),
            8);
  EXPECT_DOUBLE_EQ(CombineAgg(AggregateFunction::kSum, Value::Double(1.5),
                              Value::Int(2))
                       .AsNumeric(),
                   3.5);
}

TEST(AggregatesTest, ImprovesOnlyStrictly) {
  EXPECT_TRUE(ImprovesAgg(AggregateFunction::kMin, Value::Int(5),
                          Value::Int(4)));
  EXPECT_FALSE(ImprovesAgg(AggregateFunction::kMin, Value::Int(5),
                           Value::Int(5)));
  EXPECT_FALSE(ImprovesAgg(AggregateFunction::kMin, Value::Int(5),
                           Value::Int(6)));
  EXPECT_TRUE(ImprovesAgg(AggregateFunction::kMax, Value::Int(5),
                          Value::Int(6)));
}

TEST(AggregatesTest, PartialAggregateGroups) {
  AggSpec spec = AggSpec::For(2, 1, AggregateFunction::kMin);
  const Relation rows = MakeIntRelation({"K", "V"}, {{1, 9}, {1, 4}, {2, 7}});
  const Relation out = PartialAggregate(rows, spec);
  ASSERT_EQ(out.size(), 2u);
  // Groups come out in first-seen order.
  EXPECT_EQ(out.GetRow(0), (Row{Value::Int(1), Value::Int(4)}));
  EXPECT_EQ(out.GetRow(1), (Row{Value::Int(2), Value::Int(7)}));
}

TEST(AggregatesTest, PartialAggregateSetDedups) {
  AggSpec spec = AggSpec::For(1, -1, AggregateFunction::kNone);
  const Relation rows = MakeIntRelation({"X"}, {{1}, {1}, {2}});
  EXPECT_EQ(PartialAggregate(rows, spec).size(), 2u);
}

TEST(AggregatesTest, Int64SumWrapsPastInt64Max) {
  // int64 sum()/count() contributions wrap in two's complement, like
  // expression arithmetic (expr/int64_arith.h), instead of overflowing.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(CombineAgg(AggregateFunction::kSum, Value::Int(kMax),
                       Value::Int(1))
                .AsInt(),
            kMin);
  EXPECT_EQ(CombineAgg(AggregateFunction::kCount, Value::Int(kMax),
                       Value::Int(2))
                .AsInt(),
            kMin + 1);
  AggSpec spec = AggSpec::For(2, 1, AggregateFunction::kSum);
  const Relation rows =
      MakeIntRelation({"K", "V"}, {{1, kMax}, {2, 5}, {1, 1}});
  const Relation out = PartialAggregate(rows, spec);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.GetRow(0), (Row{Value::Int(1), Value::Int(kMin)}));
  EXPECT_EQ(out.GetRow(1), (Row{Value::Int(2), Value::Int(5)}));
}

TEST(SetRddTest, SetSemanticsDelta) {
  Schema schema = Schema::Of({{"X", ValueType::kInt64}});
  SetRddPartition part(schema, AggSpec::For(1, -1, AggregateFunction::kNone));
  Relation delta(schema);
  part.MergeDelta(Rel({{Value::Int(1)}, {Value::Int(2)}}), &delta);
  EXPECT_EQ(delta.size(), 2u);
  delta.Clear();
  part.MergeDelta(Rel({{Value::Int(2)}, {Value::Int(3)}}), &delta);
  EXPECT_EQ(delta.size(), 1u);  // only the new 3
  EXPECT_EQ(part.size(), 3u);
}

TEST(SetRddTest, MinAggregateDelta) {
  Schema schema = Schema::Of({{"Dst", ValueType::kInt64},
                              {"Cost", ValueType::kInt64}});
  SetRddPartition part(schema, AggSpec::For(2, 1, AggregateFunction::kMin));
  Relation delta(schema);
  part.MergeDelta(Rel({{Value::Int(7), Value::Int(10)}}), &delta);
  ASSERT_EQ(delta.size(), 1u);
  delta.Clear();
  // Worse value: discarded.
  part.MergeDelta(Rel({{Value::Int(7), Value::Int(12)}}), &delta);
  EXPECT_TRUE(delta.empty());
  // Better value: becomes the new state and enters the delta.
  part.MergeDelta(Rel({{Value::Int(7), Value::Int(5)}}), &delta);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta.ValueAt(0, 1).AsInt(), 5);
  Relation state = part.ToRelation();
  ASSERT_EQ(state.size(), 1u);
  EXPECT_EQ(state.row(0)[1].AsInt(), 5);
}

TEST(SetRddTest, SumAggregateAccumulatesIncrements) {
  Schema schema = Schema::Of({{"Dst", ValueType::kInt64},
                              {"Cnt", ValueType::kInt64}});
  SetRddPartition part(schema, AggSpec::For(2, 1, AggregateFunction::kSum));
  Relation delta(schema);
  part.MergeDelta(Rel({{Value::Int(1), Value::Int(2)}}), &delta);
  part.MergeDelta(Rel({{Value::Int(1), Value::Int(3)}}), &delta);
  // State accumulates 2+3; deltas carry the increments 2 then 3.
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta.ValueAt(0, 1).AsInt(), 2);
  EXPECT_EQ(delta.ValueAt(1, 1).AsInt(), 3);
  Relation state = part.ToRelation();
  ASSERT_EQ(state.size(), 1u);
  EXPECT_EQ(state.row(0)[1].AsInt(), 5);
}

TEST(SetRddTest, ByteSizeGrowsWithState) {
  Schema schema = Schema::Of({{"X", ValueType::kInt64}});
  SetRddPartition part(schema, AggSpec::For(1, -1, AggregateFunction::kNone));
  Relation delta(schema);
  EXPECT_EQ(part.byte_size(), 0u);
  part.MergeDelta(Rel({{Value::Int(1)}}), &delta);
  EXPECT_GT(part.byte_size(), 0u);
}

TEST(SetRddTest, CollectAcrossPartitions) {
  Schema schema = Schema::Of({{"X", ValueType::kInt64}});
  SetRdd rdd(schema, AggSpec::For(1, -1, AggregateFunction::kNone),
             Partitioning{{0}, 4});
  Relation delta(schema);
  for (int64_t x = 0; x < 20; ++x) {
    Row row = {Value::Int(x)};
    const int p = rdd.partitioning().PartitionOf(row);
    rdd.partition(p)->MergeDelta(Rel({row}), &delta);
  }
  EXPECT_EQ(rdd.TotalRows(), 20u);
  EXPECT_EQ(rdd.Collect().size(), 20u);
}

}  // namespace
}  // namespace rasql::dist
