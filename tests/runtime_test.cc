// Tests for the parallel task runtime (src/runtime): the work-stealing
// TaskQueue/ThreadPool, the StageExecutor that bridges real threads and the
// simulated cost model, and the end-to-end determinism contract — a
// distributed fixpoint must produce byte-identical results and identical
// simulated metrics for any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "datagen/graph_gen.h"
#include "dist/cluster.h"
#include "engine/rasql_context.h"
#include "runtime/runtime_options.h"
#include "runtime/stage_executor.h"
#include "runtime/task_queue.h"
#include "runtime/thread_pool.h"

namespace rasql::runtime {
namespace {

// ---- TaskQueue ----

TEST(TaskQueueTest, PopBottomIsLifo) {
  TaskQueue q;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    q.PushBottom([&order, i] { order.push_back(i); });
  }
  Task t;
  while (q.PopBottom(&t)) t();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(TaskQueueTest, PopBottomEmptyReturnsFalse) {
  TaskQueue q;
  Task t;
  EXPECT_FALSE(q.PopBottom(&t));
  EXPECT_TRUE(q.Empty());
}

TEST(TaskQueueTest, StealHalfTakesOldestHalf) {
  TaskQueue q;
  std::vector<int> stolen_ids;
  for (int i = 0; i < 4; ++i) {
    q.PushBottom([&stolen_ids, i] { stolen_ids.push_back(i); });
  }
  std::vector<Task> loot;
  EXPECT_EQ(q.StealHalf(&loot), 2u);  // half of 4
  EXPECT_EQ(q.Size(), 2u);
  for (Task& t : loot) t();
  // The thief got the oldest tasks, in age order.
  EXPECT_EQ(stolen_ids, (std::vector<int>{0, 1}));
}

TEST(TaskQueueTest, StealHalfRoundsUpAndTakesLastTask) {
  TaskQueue q;
  q.PushBottom([] {});
  q.PushBottom([] {});
  q.PushBottom([] {});
  std::vector<Task> loot;
  EXPECT_EQ(q.StealHalf(&loot), 2u);  // (3+1)/2
  EXPECT_EQ(q.StealHalf(&loot), 1u);  // a single task is still stealable
  EXPECT_EQ(q.StealHalf(&loot), 0u);
  EXPECT_TRUE(q.Empty());
}

// ---- ThreadPool ----

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  constexpr int kTasks = 1000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kTasks, [&hits](int i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.ParallelFor(3, [&sum](int i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(17, [&total](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * 17);
}

TEST(ThreadPoolTest, ZeroTasksIsNoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](int) { FAIL() << "body must not run"; });
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(5, [caller](int) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

// ---- ParallelForGraph ----

TEST(ThreadPoolTest, GraphRunsEveryTaskOnceRespectingDeps) {
  // Chain 0 -> 1 -> 2 -> ... -> 15: strictly sequential even on 4 threads.
  constexpr int kTasks = 16;
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<int> deps(kTasks, 1);
    deps[0] = 0;
    std::vector<std::vector<int>> dependents(kTasks);
    for (int i = 0; i + 1 < kTasks; ++i) dependents[i].push_back(i + 1);
    std::vector<int> order;
    std::mutex mu;
    pool.ParallelForGraph(
        kTasks,
        [&](int i) {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(i);
        },
        deps, dependents);
    std::vector<int> expected(kTasks);
    for (int i = 0; i < kTasks; ++i) expected[i] = i;
    EXPECT_EQ(order, expected) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, GraphFanInWaitsForAllProducers) {
  // P producers, P consumers; each consumer depends on all producers, so a
  // consumer must observe every producer's write.
  constexpr int kP = 8;
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    std::vector<int> deps(2 * kP, 0);
    std::vector<std::vector<int>> dependents(2 * kP);
    for (int c = 0; c < kP; ++c) deps[kP + c] = kP;
    for (int p = 0; p < kP; ++p) {
      for (int c = 0; c < kP; ++c) dependents[p].push_back(kP + c);
    }
    std::vector<int> produced(kP, 0);
    std::vector<int> seen(kP, 0);
    pool.ParallelForGraph(
        2 * kP,
        [&](int i) {
          if (i < kP) {
            produced[i] = i + 1;
            return;
          }
          int sum = 0;
          for (int p = 0; p < kP; ++p) sum += produced[p];
          seen[i - kP] = sum;
        },
        deps, dependents);
    constexpr int kSum = kP * (kP + 1) / 2;
    for (int c = 0; c < kP; ++c) {
      ASSERT_EQ(seen[c], kSum) << "consumer " << c << " round " << round;
    }
  }
}

TEST(RuntimeOptionsTest, AutoResolvesToAtLeastOne) {
  RuntimeOptions auto_opts;
  auto_opts.num_threads = 0;
  EXPECT_GE(auto_opts.ResolvedThreads(), 1);
  EXPECT_EQ(auto_opts.ResolvedThreads(), ThreadPool::HardwareThreads());
  RuntimeOptions fixed;
  fixed.num_threads = 6;
  EXPECT_EQ(fixed.ResolvedThreads(), 6);
}

// ---- StageExecutor ----

TEST(StageExecutorTest, ResultsLandInPartitionOrder) {
  for (int threads : {1, 4}) {
    RuntimeOptions opts;
    opts.num_threads = threads;
    StageExecutor exec(opts);
    std::vector<int> results;
    std::vector<double> seconds;
    exec.Map<int>(
        16, [](int p) { return p * p; }, &results, &seconds);
    ASSERT_EQ(results.size(), 16u);
    ASSERT_EQ(seconds.size(), 16u);
    for (int p = 0; p < 16; ++p) {
      EXPECT_EQ(results[p], p * p) << "threads=" << threads;
      EXPECT_GE(seconds[p], 0.0);
    }
  }
}

// ---- Simulation determinism: cost model independent of thread count ----

dist::JobMetrics RunSimulatedJob(int num_threads, bool partition_aware) {
  dist::ClusterConfig config;
  config.num_workers = 3;
  config.num_partitions = 6;
  config.partition_aware_scheduling = partition_aware;
  RuntimeOptions opts;
  opts.num_threads = num_threads;
  dist::Cluster cluster(config, opts);
  for (int stage = 0; stage < 4; ++stage) {
    dist::StageSpec map_spec;
    map_spec.name = "map";
    map_spec.kind = dist::StageSpec::Kind::kShuffleMap;
    cluster.RunStage(map_spec, [](dist::TaskContext& ctx) {
      const int p = ctx.partition();
      ctx.ReportCachedState(1000 + 100 * p);
      ctx.ReportShuffleBytes(
          std::vector<size_t>(6, static_cast<size_t>(10 * (p + 1))));
    });
    dist::StageSpec reduce_spec;
    reduce_spec.name = "reduce";
    reduce_spec.kind = dist::StageSpec::Kind::kShuffleReduce;
    cluster.RunStage(reduce_spec, [](dist::TaskContext& ctx) {
      ctx.ReportCachedState(500);
    });
  }
  cluster.Broadcast(4096);
  return cluster.metrics();
}

TEST(ClusterRuntimeTest, SimulatedMetricsIndependentOfThreadCount) {
  for (bool aware : {true, false}) {
    const dist::JobMetrics base = RunSimulatedJob(1, aware);
    for (int threads : {2, 8}) {
      const dist::JobMetrics got = RunSimulatedJob(threads, aware);
      ASSERT_EQ(got.num_stages(), base.num_stages());
      for (int s = 0; s < base.num_stages(); ++s) {
        EXPECT_EQ(got.stages[s].name, base.stages[s].name);
        EXPECT_EQ(got.stages[s].num_tasks, base.stages[s].num_tasks);
        // Placement and network charges are pure functions of partition
        // order — byte counts must match exactly across thread counts.
        EXPECT_EQ(got.stages[s].shuffle_bytes, base.stages[s].shuffle_bytes)
            << "stage " << s << " aware=" << aware << " threads=" << threads;
        EXPECT_EQ(got.stages[s].remote_bytes, base.stages[s].remote_bytes)
            << "stage " << s << " aware=" << aware << " threads=" << threads;
      }
      EXPECT_EQ(got.broadcast_bytes, base.broadcast_bytes);
    }
  }
}

// ---- End-to-end determinism: distributed fixpoints across thread counts ----

struct FixpointCase {
  int num_threads;
  bool partition_aware;
  bool async_shuffle = false;
  /// Combined stages collapse each map→reduce pair into one stage; turn
  /// combination off to exercise RunStagePair's pipelined path.
  bool combine_stages = true;
};

// Without a PrintTo, gtest prints each case into its ctest name as the
// struct's raw bytes, including one uninitialised padding byte, so the
// names changed between builds. This prints the same "8-byte object <…>"
// dump from the fields alone, with the padding zero.
void PrintTo(const FixpointCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(FixpointCase)] = {};
  auto put = [&bytes](size_t offset, const auto& field) {
    std::memcpy(bytes + offset, &field, sizeof field);
  };
  put(offsetof(FixpointCase, num_threads), c.num_threads);
  put(offsetof(FixpointCase, partition_aware), c.partition_aware);
  put(offsetof(FixpointCase, async_shuffle), c.async_shuffle);
  put(offsetof(FixpointCase, combine_stages), c.combine_stages);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class FixpointDeterminism : public ::testing::TestWithParam<FixpointCase> {
 protected:
  engine::EngineConfig Config() const {
    engine::EngineConfig config;
    config.distributed = true;
    config.cluster.num_workers = 3;
    config.cluster.num_partitions = 6;
    config.cluster.partition_aware_scheduling = GetParam().partition_aware;
    config.runtime.num_threads = GetParam().num_threads;
    config.runtime.async_shuffle = GetParam().async_shuffle;
    config.dist_fixpoint.combine_stages = GetParam().combine_stages;
    return config;
  }

  static storage::Relation Edges(bool weighted) {
    datagen::RmatOptions opt;
    opt.num_vertices = 256;
    opt.edges_per_vertex = 4;
    opt.weighted = weighted;
    opt.min_weight = 1.0;
    opt.seed = 2026;
    return datagen::ToEdgeRelation(datagen::GenerateRmat(opt));
  }

  /// Runs `sql` against `edge` and returns the result relation.
  storage::Relation Run(const std::string& sql, bool weighted) const {
    engine::RaSqlContext ctx(Config());
    EXPECT_TRUE(ctx.RegisterTable("edge", Edges(weighted)).ok());
    auto result = ctx.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? std::move(result->relation) : storage::Relation{};
  }
};

constexpr const char* kTcQuery = R"(
    WITH recursive reach (Dst) AS
      (SELECT 1) UNION
      (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src)
    SELECT Dst FROM reach)";

constexpr const char* kSsspQuery = R"(
    WITH recursive path (Dst, min() AS Cost) AS
      (SELECT 1, 0.0) UNION
      (SELECT edge.Dst, path.Cost + edge.Cost
       FROM path, edge WHERE path.Dst = edge.Src)
    SELECT Dst, Cost FROM path)";

/// The single-thread sequential run is the reference; every threaded
/// configuration must reproduce it as a bag, byte for byte.
TEST_P(FixpointDeterminism, TcMatchesSequentialReference) {
  engine::EngineConfig ref_config;
  ref_config.distributed = true;
  ref_config.cluster.num_workers = 3;
  ref_config.cluster.num_partitions = 6;
  ref_config.cluster.partition_aware_scheduling = GetParam().partition_aware;
  ref_config.dist_fixpoint.combine_stages = GetParam().combine_stages;
  engine::RaSqlContext ref_ctx(ref_config);
  ASSERT_TRUE(ref_ctx.RegisterTable("edge", Edges(false)).ok());
  auto reference = ref_ctx.Execute(kTcQuery);
  ASSERT_TRUE(reference.ok()) << reference.status();

  storage::Relation got = Run(kTcQuery, false);
  EXPECT_TRUE(storage::SameBag(reference->relation, got));
  EXPECT_EQ(reference->relation.size(), got.size());
}

TEST_P(FixpointDeterminism, SsspMatchesSequentialReference) {
  engine::EngineConfig ref_config;
  ref_config.distributed = true;
  ref_config.cluster.num_workers = 3;
  ref_config.cluster.num_partitions = 6;
  ref_config.cluster.partition_aware_scheduling = GetParam().partition_aware;
  ref_config.dist_fixpoint.combine_stages = GetParam().combine_stages;
  engine::RaSqlContext ref_ctx(ref_config);
  ASSERT_TRUE(ref_ctx.RegisterTable("edge", Edges(true)).ok());
  auto reference = ref_ctx.Execute(kSsspQuery);
  ASSERT_TRUE(reference.ok()) << reference.status();

  storage::Relation got = Run(kSsspQuery, true);
  EXPECT_TRUE(storage::SameBag(reference->relation, got));
}

/// Fixpoint statistics (iterations, delta rows) and simulated cluster
/// metrics must also be thread-count-independent and async-shuffle-
/// independent — the cost model may not notice that real threads or a
/// pipelined shuffle ran underneath it.
TEST_P(FixpointDeterminism, StatsAndMetricsMatchSequentialReference) {
  engine::EngineConfig ref_config = Config();
  ref_config.runtime.num_threads = 1;
  ref_config.runtime.async_shuffle = false;
  engine::RaSqlContext ref_ctx(ref_config);
  ASSERT_TRUE(ref_ctx.RegisterTable("edge", Edges(true)).ok());
  auto reference = ref_ctx.Execute(kSsspQuery);
  ASSERT_TRUE(reference.ok()) << reference.status();

  engine::RaSqlContext ctx(Config());
  ASSERT_TRUE(ctx.RegisterTable("edge", Edges(true)).ok());
  auto got = ctx.Execute(kSsspQuery);
  ASSERT_TRUE(got.ok()) << got.status();

  EXPECT_EQ(got->fixpoint_stats.iterations,
            reference->fixpoint_stats.iterations);
  EXPECT_EQ(got->fixpoint_stats.total_delta_rows,
            reference->fixpoint_stats.total_delta_rows);
  const auto& ref_metrics = reference->job_metrics;
  const auto& got_metrics = got->job_metrics;
  ASSERT_EQ(got_metrics.num_stages(), ref_metrics.num_stages());
  for (int s = 0; s < ref_metrics.num_stages(); ++s) {
    EXPECT_EQ(got_metrics.stages[s].name, ref_metrics.stages[s].name);
    EXPECT_EQ(got_metrics.stages[s].num_tasks,
              ref_metrics.stages[s].num_tasks);
    EXPECT_EQ(got_metrics.stages[s].shuffle_bytes,
              ref_metrics.stages[s].shuffle_bytes)
        << "stage " << s;
    EXPECT_EQ(got_metrics.stages[s].remote_bytes,
              ref_metrics.stages[s].remote_bytes)
        << "stage " << s;
  }
  EXPECT_EQ(got_metrics.TotalShuffleBytes(), ref_metrics.TotalShuffleBytes());
  EXPECT_EQ(got_metrics.TotalRemoteBytes(), ref_metrics.TotalRemoteBytes());
  EXPECT_EQ(got_metrics.broadcast_bytes, ref_metrics.broadcast_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndPolicies, FixpointDeterminism,
    ::testing::Values(
        FixpointCase{1, true}, FixpointCase{2, true}, FixpointCase{8, true},
        FixpointCase{2, false}, FixpointCase{8, false},
        // Async shuffle across thread counts, with stage combination off
        // so the plain map→reduce pairs exercise the pipelined path.
        FixpointCase{1, true, /*async_shuffle=*/true,
                     /*combine_stages=*/false},
        FixpointCase{2, true, /*async_shuffle=*/true,
                     /*combine_stages=*/false},
        FixpointCase{8, true, /*async_shuffle=*/true,
                     /*combine_stages=*/false},
        FixpointCase{8, false, /*async_shuffle=*/true,
                     /*combine_stages=*/false},
        // Async with combination on: pairs collapse, the flag must be a
        // harmless no-op.
        FixpointCase{8, true, /*async_shuffle=*/true}),
    // Every reduce is deterministic (per-task slots summed in partition
    // order), which the `_det` in each name records.
    [](const auto& pinfo) {
      return "t" + std::to_string(pinfo.param.num_threads) +
             (pinfo.param.partition_aware ? "_aware" : "_hybrid") + "_det" +
             (pinfo.param.async_shuffle ? "_async" : "") +
             (pinfo.param.combine_stages ? "" : "_nocombine");
    });

}  // namespace
}  // namespace rasql::runtime
