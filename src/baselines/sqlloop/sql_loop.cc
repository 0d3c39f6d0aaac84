#include "baselines/sqlloop/sql_loop.h"

#include <utility>

#include "common/check.h"
#include "dist/aggregates.h"
#include "dist/set_rdd.h"
#include "fixpoint/local_fixpoint.h"
#include "physical/executor.h"
#include "runtime/stage_accumulators.h"

namespace rasql::baselines {

using analysis::RecursiveView;
using common::Result;
using common::Status;
using dist::AggSpec;
using dist::StageSpec;
using dist::TaskContext;
using storage::Relation;

namespace {

/// Shorthand for the stage claim declarations below.
constexpr verify::AccessMode kReadShared = verify::AccessMode::kReadShared;
constexpr verify::AccessMode kPartitionOwned =
    verify::AccessMode::kPartitionOwned;
constexpr verify::AccessMode kSingleTask = verify::AccessMode::kSingleTask;

/// Evaluates all recursive plans with the reference bound to `bound`,
/// splitting the work into P slices executed as one cluster stage. The
/// base tables are re-read in full by every statement (vanilla Spark SQL
/// re-shuffles them every iteration — no cached co-partitioning).
Result<Relation> JoinStage(
    const RecursiveView& view,
    const std::map<std::string, const Relation*>& tables,
    const Relation& bound, size_t base_bytes, dist::Cluster* cluster,
    const std::string& stage_name) {
  const int P = cluster->config().num_partitions;
  // Per-task candidate slots, merged after the barrier in partition order
  // so the result is identical at any thread count.
  std::vector<Relation> cand(P, Relation(view.schema));
  runtime::StageStatus failure(P);
  StageSpec stage;
  stage.name = stage_name;
  stage.kind = StageSpec::Kind::kShuffleMap;
  stage.status = &failure;
  stage.Claim(&cand, kPartitionOwned, "join-candidates")
      .Claim(&bound, kReadShared, "bound-relation");
  cluster->RunStage(stage, [&](TaskContext& task) {
    const int p = task.partition();
    // Slice the bound relation round-robin across tasks.
    Relation slice(bound.schema());
    for (size_t i = p; i < bound.size(); i += P) {
      const storage::RowAccessor row = bound.row(i);
      slice.AppendRowFrom(row.chunk(), row.chunk_row());
    }
    physical::ExecContext ctx;
    ctx.tables = tables;
    ctx.recursive_resolver =
        [&](const plan::RecursiveRefNode&) -> const Relation* {
      return &slice;
    };
    size_t bytes = 0;
    for (const plan::PlanPtr& plan : view.recursive_plans) {
      auto result = physical::Execute(*plan, ctx);
      if (!result.ok()) {
        task.Fail(result.status());
        break;
      }
      bytes += result->ByteSize();
      cand[p].AppendChunks(std::move(*result));
    }
    // Candidates are shuffled by key, and the base relation is re-shuffled
    // for the join (no cached partitioning across statements).
    task.ReportShuffleBytes(
        std::vector<size_t>(P, (bytes + base_bytes / P) / P));
  });
  RASQL_RETURN_IF_ERROR(failure.First());
  Relation candidates(view.schema);
  for (int p = 0; p < P; ++p) candidates.AppendChunks(std::move(cand[p]));
  return candidates;
}

}  // namespace

Result<Relation> RunSqlLoop(
    const analysis::RecursiveClique& clique,
    const std::map<std::string, const Relation*>& tables, SqlLoopMode mode,
    dist::Cluster* cluster, SqlLoopStats* stats, int64_t max_iterations) {
  SqlLoopStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (clique.views.size() != 1) {
    return Status::InvalidArgument(
        "SQL-loop baselines support single-view recursions");
  }
  const RecursiveView& view = clique.views[0];
  const AggSpec spec = AggSpec::For(view.schema.num_columns(),
                                    view.agg_column, view.aggregate);
  const int P = cluster->config().num_partitions;

  size_t base_bytes = 0;
  for (const auto& [name, rel] : tables) base_bytes += rel->ByteSize();

  // Base case (one SQL statement).
  physical::ExecContext base_ctx;
  base_ctx.tables = tables;
  Relation base(view.schema);
  for (const plan::PlanPtr& plan : view.base_plans) {
    RASQL_ASSIGN_OR_RETURN(Relation rel,
                           physical::Execute(*plan, base_ctx));
    base.AppendChunks(std::move(rel));
  }
  Relation base_rows = dist::PartialAggregate(base, spec);

  // Mutable state held like the fixpoint's, but every union below also
  // pays the immutable-RDD copy of the full relation.
  dist::SetRddPartition state(view.schema, spec);
  Relation delta(view.schema);
  state.MergeDelta(base_rows, &delta);

  const double time_before = cluster->metrics().TotalSimTime();

  if (mode == SqlLoopMode::kNaive) {
    // all_{i+1} = γ(base ∪ T(all_i)); compare with all_i.
    Relation all = std::move(base_rows);
    all.SortRows();
    while (true) {
      if (stats->iterations >= max_iterations) {
        stats->hit_iteration_limit = true;
        break;
      }
      ++stats->iterations;
      const double t0 = cluster->metrics().TotalSimTime();
      RASQL_ASSIGN_OR_RETURN(
          Relation candidates,
          JoinStage(view, tables, all, base_bytes, cluster,
                    "sqlnaive-join-" + std::to_string(stats->iterations)));

      // Full re-aggregation of base ∪ candidates, as the user's GROUP BY
      // statement would do (shuffles everything).
      Relation next(view.schema);
      runtime::StageStatus failure(P);
      StageSpec agg_stage;
      agg_stage.name = "sqlnaive-agg-" + std::to_string(stats->iterations);
      agg_stage.kind = StageSpec::Kind::kShuffleReduce;
      agg_stage.status = &failure;
      agg_stage.Claim(&next, kSingleTask, "next-relation")
          .Claim(&candidates, kSingleTask, "candidates");
      cluster->RunStage(agg_stage, [&](TaskContext& task) {
        // Single-writer body: only task 0 touches `next`/`candidates`.
        if (task.partition() != 0) return;
        // X_{n+1} = γ(base ∪ T(X_n)) — everything re-derived and
        // re-aggregated from scratch (do NOT fold X_n in: that would
        // double-count sum/count groups).
        Relation rows = std::move(candidates);
        physical::ExecContext ctx;
        ctx.tables = tables;
        for (const plan::PlanPtr& plan : view.base_plans) {
          auto result = physical::Execute(*plan, ctx);
          if (!result.ok()) {
            task.Fail(result.status());
            return;
          }
          rows.AppendChunks(std::move(*result));
        }
        next = dist::PartialAggregate(rows, spec);
        next.SortRows();
      });
      RASQL_RETURN_IF_ERROR(failure.First());
      stats->delta_time_sec += cluster->metrics().TotalSimTime() - t0;

      // Compare stage (the user's count()/except check).
      bool unchanged = false;
      StageSpec compare_stage;
      compare_stage.name =
          "sqlnaive-compare-" + std::to_string(stats->iterations);
      compare_stage.Claim(&unchanged, kSingleTask, "unchanged-flag")
          .Claim(&next, kReadShared, "next-relation")
          .Claim(&all, kReadShared, "all-relation");
      cluster->RunStage(compare_stage, [&](TaskContext& task) {
        if (task.partition() == 0) unchanged = storage::SameBag(next, all);
        task.ReportCachedState(all.ByteSize() / P);
      });
      all = std::move(next);
      if (unchanged) break;
    }
    stats->total_time_sec =
        cluster->metrics().TotalSimTime() - time_before;
    return all;
  }

  // ---- Semi-naive loop ----
  while (!delta.empty()) {
    if (stats->iterations >= max_iterations) {
      stats->hit_iteration_limit = true;
      break;
    }
    ++stats->iterations;
    const double t0 = cluster->metrics().TotalSimTime();

    const Relation delta_rel = std::exchange(delta, Relation(view.schema));
    RASQL_ASSIGN_OR_RETURN(
        Relation candidates,
        JoinStage(view, tables, delta_rel, base_bytes, cluster,
                  "sqlsn-join-" + std::to_string(stats->iterations)));

    // Aggregate the candidates (a GROUP BY statement).
    StageSpec agg_stage;
    agg_stage.name = "sqlsn-agg-" + std::to_string(stats->iterations);
    agg_stage.kind = StageSpec::Kind::kShuffleReduce;
    agg_stage.Claim(&candidates, kSingleTask, "candidates");
    cluster->RunStage(agg_stage, [&](TaskContext& task) {
      if (task.partition() != 0) return;
      candidates = dist::PartialAggregate(candidates, spec);
    });
    stats->delta_time_sec += cluster->metrics().TotalSimTime() - t0;

    // Diff against `all` (EXCEPT / anti-join): the full `all` relation is
    // re-shuffled and its lookup structure rebuilt — there is no SetRDD.
    const size_t all_bytes = state.byte_size();
    StageSpec diff_stage;
    diff_stage.name = "sqlsn-diff-" + std::to_string(stats->iterations);
    diff_stage.kind = StageSpec::Kind::kCombined;
    diff_stage.Claim(&state, kSingleTask, "state")
        .Claim(&delta, kSingleTask, "delta")
        .Claim(&candidates, kReadShared, "candidates");
    cluster->RunStage(diff_stage, [&](TaskContext& task) {
      if (task.partition() == 0) state.MergeDelta(candidates, &delta);
      task.ReportShuffleBytes(
          std::vector<size_t>(P, all_bytes / (P * P)));
    });

    // Union stage: `all ∪ delta` materializes a brand-new dataset, copying
    // the accumulated rows (the immutable-RDD tax SetRDD avoids).
    StageSpec union_stage;
    union_stage.name = "sqlsn-union-" + std::to_string(stats->iterations);
    union_stage.Claim(&state, kReadShared, "state");
    cluster->RunStage(union_stage, [&](TaskContext& task) {
      if (task.partition() != 0) return;
      Relation copy = state.ToRelation();  // real copy
      task.ReportCachedState(copy.ByteSize());
    });
  }
  stats->total_time_sec = cluster->metrics().TotalSimTime() - time_before;
  return state.ToRelation();
}

}  // namespace rasql::baselines
