#include "fixpoint/local_fixpoint.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "dist/aggregates.h"
#include "dist/partition.h"
#include "dist/set_rdd.h"
#include "fixpoint/stage_plan.h"
#include "fixpoint/warm_state.h"
#include "lint/diagnostic.h"
#include "physical/pipeline.h"
#include "runtime/stage_accumulators.h"
#include "runtime/thread_pool.h"
#include "storage/row_range.h"
#include "verify/verifier.h"

namespace rasql::fixpoint {

using analysis::RecursiveClique;
using analysis::RecursiveView;
using common::Result;
using common::Status;
using dist::AggSpec;
using dist::GatherShuffle;
using dist::Partitioning;
using dist::ShuffleWrite;
using physical::ExecContext;
using plan::LogicalPlan;
using plan::PlanKind;
using plan::RecursiveRefNode;
using runtime::StageStatus;
using runtime::ThreadPool;
using storage::Relation;

std::vector<const RecursiveRefNode*> CollectRecursiveRefs(
    const LogicalPlan& node) {
  std::vector<const RecursiveRefNode*> out;
  if (node.kind() == PlanKind::kRecursiveRef) {
    out.push_back(static_cast<const RecursiveRefNode*>(&node));
  }
  for (const plan::PlanPtr& child : node.children()) {
    std::vector<const RecursiveRefNode*> sub = CollectRecursiveRefs(*child);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

namespace {

AggSpec SpecFor(const RecursiveView& view) {
  return AggSpec::For(view.schema.num_columns(), view.agg_column,
                      view.aggregate);
}

/// Canonical aggregated + sorted form for state comparison.
Relation Canonicalize(const Relation& rel, const AggSpec& spec) {
  Relation out = dist::PartialAggregate(rel, spec);
  out.SortRows();
  return out;
}

/// State partition key: the group-by columns under an aggregate (so every
/// contribution to a key meets its accumulator in one partition), every
/// column under set semantics.
std::vector<int> StateKey(const RecursiveView& view, const AggSpec& spec) {
  if (spec.has_aggregate()) return spec.key_columns;
  std::vector<int> key(view.schema.num_columns());
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<int>(i);
  return key;
}

ExecContext BaseContext(const std::map<std::string, const Relation*>& tables,
                        const FixpointOptions& options) {
  ExecContext ctx;
  ctx.tables = tables;
  ctx.batch_rows = options.runtime.batch_rows;
  ctx.join_algorithm = options.join_algorithm;
  return ctx;
}

/// A recursive plan, compiled once per evaluation (DESIGN.md §18). Its
/// loop-invariant steps — filters, projections and every join build side
/// that reads no recursive reference — are bound once, on the driver, the
/// first time the plan has a unit, and borrowed read-only by every unit of
/// every later iteration: the cached build side of PAPER App. D. No
/// `program` means the plan runs interpreted: it does not compile to a
/// pipeline under the run's join algorithm (PipelineProgram::Compile).
struct CompiledPlan {
  const LogicalPlan* plan = nullptr;
  std::optional<physical::PipelineProgram> program;
  std::optional<physical::BoundPipeline> invariant;
};

CompiledPlan CompilePlan(const LogicalPlan& plan,
                         const FixpointOptions& options) {
  // A pipeline's rows and order match the interpreted tree walk
  // (executor_test pins this).
  return {&plan,
          physical::PipelineProgram::Compile(plan, options.join_algorithm),
          std::nullopt};
}

/// One plan evaluation, morsel-splittable when its plan compiled to a
/// fused pipeline (DESIGN.md §10). `make_context` binds the unit's
/// recursive references; it is invoked at bind time (pipeline) or run time
/// (interpreted fallback), so the relations it resolves must outlive the
/// phase. After RunMorselUnits, `slots[m]` holds morsel m's output rows;
/// concatenating the slots in order reproduces the whole-plan evaluation.
struct MorselUnit {
  CompiledPlan* compiled = nullptr;
  std::function<ExecContext()> make_context;
  std::optional<physical::BoundPipeline> pipeline;
  std::vector<storage::RowRange> morsels;
  std::vector<Relation> slots;
};

/// Evaluates a batch of units on the pool in two flat phases (ParallelFor
/// must not nest, so morsels are flattened into one task list rather than
/// scheduled from inside a per-unit task):
///   A. bind — resolve each unit's driver and view-reading build sides
///      over its plan's shared invariant steps (bound on the driver first,
///      against `base_ctx`, if this is the plan's first unit), and split
///      the driver into `options.runtime.morsel_rows`-sized RowRanges;
///   B. run — every (unit, morsel) task evaluates independently into its
///      own slot.
/// Units whose plan has no pipeline run as a single interpreted
/// whole-plan task — their output is identical, just unsplit. The morsel
/// decomposition depends only on driver sizes, so slots (and any ordered
/// merge of them) are bit-identical for every thread count and morsel
/// size. Adds every join hash table built to `stats->hash_builds`.
Status RunMorselUnits(std::vector<MorselUnit>* units,
                      const ExecContext& base_ctx,
                      const FixpointOptions& options, ThreadPool* pool,
                      FixpointStats* stats) {
  const size_t morsel_rows = options.runtime.morsel_rows;
  const int num_units = static_cast<int>(units->size());

  // Invariant steps, once per plan: here on the driver, before any unit
  // of the plan binds against them.
  for (MorselUnit& unit : *units) {
    CompiledPlan& compiled = *unit.compiled;
    if (compiled.program.has_value() && !compiled.invariant.has_value()) {
      RASQL_ASSIGN_OR_RETURN(compiled.invariant,
                             compiled.program->BindInvariant(base_ctx));
      stats->hash_builds += compiled.invariant->hash_builds();
    }
  }

  // Phase A: bind.
  StageStatus bind_failure(std::max(num_units, 1));
  pool->ParallelFor(num_units, [&](int u) {
    MorselUnit& unit = (*units)[u];
    const CompiledPlan& compiled = *unit.compiled;
    if (compiled.program.has_value()) {
      common::Result<physical::BoundPipeline> bound =
          compiled.program->Bind(unit.make_context(), &*compiled.invariant);
      if (!bound.ok()) {
        bind_failure.Fail(u, bound.status());
        return;
      }
      unit.pipeline = std::move(*bound);
      unit.morsels = storage::SplitIntoMorsels(unit.pipeline->driver_rows(),
                                               morsel_rows);
    } else {
      unit.morsels = {storage::RowRange{}};  // one interpreted task
    }
  });
  RASQL_RETURN_IF_ERROR(bind_failure.First());
  for (const MorselUnit& unit : *units) {
    if (unit.pipeline.has_value()) {
      stats->hash_builds += unit.pipeline->hash_builds();
    }
  }

  // Phase B: flattened (unit, morsel) tasks.
  size_t total = 0;
  for (MorselUnit& unit : *units) {
    unit.slots.assign(unit.morsels.size(),
                      Relation(unit.compiled->plan->schema()));
    total += unit.morsels.size();
  }
  std::vector<std::pair<int, int>> task_of;
  task_of.reserve(total);
  for (int u = 0; u < num_units; ++u) {
    for (size_t m = 0; m < (*units)[u].morsels.size(); ++m) {
      task_of.emplace_back(u, static_cast<int>(m));
    }
  }
  StageStatus failure(std::max<int>(static_cast<int>(total), 1));
  pool->ParallelFor(static_cast<int>(total), [&](int i) {
    if (failure.aborted()) return;
    const auto [u, m] = task_of[i];
    MorselUnit& unit = (*units)[u];
    if (unit.pipeline.has_value()) {
      Status s = unit.pipeline->Run(unit.morsels[m], &unit.slots[m]);
      if (!s.ok()) failure.Fail(i, std::move(s));
      return;
    }
    common::Result<Relation> rel =
        physical::Execute(*unit.compiled->plan, unit.make_context());
    if (!rel.ok()) {
      failure.Fail(i, rel.status());
      return;
    }
    unit.slots[m] = std::move(*rel);
  });
  return failure.First();
}

/// Semi-naive evaluation of a single-view clique (paper Alg. 3 extended
/// with the Alg. 5 aggregate delta rules), hash-partitioned into
/// `options.local_partitions` SetRdd slices and evaluated per partition on
/// the thread pool. The partition count is fixed independently of the
/// thread count and every cross-partition merge happens in ascending
/// partition order, so results and stats are bit-identical at any
/// --threads (DESIGN.md §9).
Result<std::map<std::string, Relation>> EvaluateSemiNaive(
    const RecursiveView& view,
    const std::map<std::string, const Relation*>& tables,
    const FixpointOptions& options, FixpointStats* stats, ThreadPool* pool) {
  const AggSpec spec = SpecFor(view);
  const int P = std::max(1, options.local_partitions);
  const Partitioning partitioning{StateKey(view, spec), P};
  stats->partition_key = partitioning.key_columns;
  dist::SetRdd state(view.schema, spec, partitioning);

  const ExecContext base_ctx = BaseContext(tables, options);

  // Base case: evaluate on the driver, pre-aggregate, scatter each row to
  // its state partition, merge per partition to form the initial delta. A
  // warm start (DESIGN.md §14) instead absorbs the prior converged state
  // into the partitions without emitting a delta, and seeds the loop with
  // the plans' output over the appended base rows — MergeDelta against the
  // absorbed state then keeps exactly the rows that are new or improving.
  const WarmStartInput* warm = options.warm_start;
  Relation base(view.schema);
  if (warm == nullptr) {
    // Aggregated straight from the branches' chunks (DESIGN.md §16, §17).
    for (const plan::PlanPtr& p : view.base_plans) {
      RASQL_ASSIGN_OR_RETURN(Relation rel, physical::Execute(*p, base_ctx));
      ++stats->plan_executions;
      base.AppendChunks(std::move(rel));
    }
  } else {
    {
      ShuffleWrite absorb(P);
      absorb.AddAll(*warm->converged, partitioning);
      pool->ParallelFor(P, [&](int p) {
        state.partition(p)->Absorb(absorb.slice_per_dest[p]);
      });
    }
    RASQL_ASSIGN_OR_RETURN(base,
                           EvaluateWarmSeed(view, *warm, base_ctx, stats));
    stats->warm_starts = 1;
  }

  std::vector<Relation> delta(P, Relation(view.schema));
  {
    ShuffleWrite scatter(P);
    scatter.AddAll(dist::PartialAggregate(base, spec), partitioning);
    base.Clear();
    pool->ParallelFor(P, [&](int p) {
      state.partition(p)->MergeDelta(scatter.slice_per_dest[p], &delta[p]);
    });
  }
  for (const auto& d : delta) stats->total_delta_rows += d.size();
  if (warm != nullptr) {
    for (const auto& d : delta) stats->seed_delta_rows += d.size();
  }

  // Does any recursive plan reference the view more than once? If so the
  // non-delta occurrences must see the `all` state, which we materialize
  // per iteration.
  bool needs_all = false;
  std::vector<int> refs_per_plan;
  std::vector<CompiledPlan> compiled;
  compiled.reserve(view.recursive_plans.size());
  for (const plan::PlanPtr& p : view.recursive_plans) {
    const int n = static_cast<int>(CollectRecursiveRefs(*p).size());
    refs_per_plan.push_back(n);
    if (n > 1) needs_all = true;
    compiled.push_back(CompilePlan(*p, options));
  }

  // One semi-naive term per (plan, recursive-ref ordinal): that reference
  // is bound to the delta, the others to the current `all`. Binding the
  // delta ref to one partition's slice at a time is an exact split of the
  // term — the term is linear in that reference. A plan's terms share its
  // compiled pipeline and invariant steps.
  struct Term {
    CompiledPlan* compiled;
    int ordinal;
  };
  std::vector<Term> terms;
  for (size_t pi = 0; pi < view.recursive_plans.size(); ++pi) {
    for (int t = 0; t < refs_per_plan[pi]; ++t) {
      terms.push_back({&compiled[pi], t});
    }
  }

  auto deltas_empty = [&]() {
    for (const auto& d : delta) {
      if (!d.empty()) return false;
    }
    return true;
  };

  while (!deltas_empty()) {
    if (stats->iterations >= options.max_iterations) {
      stats->hit_iteration_limit = true;
      break;
    }
    ++stats->iterations;

    // Freeze the iteration's inputs: the per-partition delta slices and
    // (for multi-ref plans) the materialized `all` state. Collect() walks
    // partitions in ascending order, so the materialization is
    // deterministic; like the seed path it already includes this
    // iteration's delta, which is what makes the δ×δ pairs of non-linear
    // plans visited exactly once across the two terms — safe only for
    // idempotent aggregates, which is what semi_naive_safe guarantees.
    std::vector<Relation> delta_rel(P);
    for (int p = 0; p < P; ++p) {
      delta_rel[p] = std::exchange(delta[p], Relation(view.schema));
    }
    Relation all_rel;
    if (needs_all) all_rel = state.Collect();

    // Map phase: one morsel unit per (non-empty partition, semi-naive
    // term), with read-only sharing of `all_rel`, the base tables and the
    // plans' invariant steps. RunMorselUnits binds each unit's fused
    // pipeline and evaluates its driver morsels as independent tasks, so a
    // skewed partition's work spreads across threads instead of
    // serializing the iteration.
    std::vector<ShuffleWrite> writes(P, ShuffleWrite(P));
    std::vector<MorselUnit> units;
    std::vector<size_t> unit_begin(P + 1, 0);
    for (int p = 0; p < P; ++p) {
      unit_begin[p] = units.size();
      if (delta_rel[p].empty()) continue;
      for (const Term& term : terms) {
        MorselUnit unit;
        unit.compiled = term.compiled;
        unit.make_context = [&base_ctx, &delta_rel_p = delta_rel[p],
                             &all_rel, ordinal = term.ordinal]() {
          ExecContext ctx = base_ctx;
          ctx.recursive_resolver =
              [&delta_rel_p, &all_rel,
               ordinal](const RecursiveRefNode& ref) -> const Relation* {
            return ref.ordinal() == ordinal ? &delta_rel_p : &all_rel;
          };
          return ctx;
        };
        units.push_back(std::move(unit));
      }
    }
    unit_begin[P] = units.size();
    RASQL_RETURN_IF_ERROR(
        RunMorselUnits(&units, base_ctx, options, pool, stats));
    stats->plan_executions += units.size();

    // Merge phase: partition p routes its units' slots in (term, morsel)
    // order — exactly the order the unsplit evaluation produced rows, so
    // ShuffleWrite contents (and everything downstream) are bit-identical
    // at any morsel size.
    pool->ParallelFor(P, [&](int p) {
      for (size_t u = unit_begin[p]; u < unit_begin[p + 1]; ++u) {
        for (const Relation& slot : units[u].slots) {
          writes[p].AddAll(slot, partitioning);
        }
      }
    });

    // Reduce phase: partition p gathers the slices addressed to it in
    // ascending producer order, pre-aggregates (one candidate per key, so
    // delta row counts and float accumulation order don't depend on how
    // work was split), and merges into its own state slice.
    pool->ParallelFor(P, [&](int p) {
      state.partition(p)->MergeDelta(
          dist::PartialAggregate(GatherShuffle(&writes, p), spec), &delta[p]);
    });
    for (const auto& d : delta) stats->total_delta_rows += d.size();
  }

  if (warm != nullptr) {
    stats->iterations_saved =
        std::max(0, warm->prior_iterations - stats->iterations);
  }

  // Canonical (sorted) output: hash-state iteration order depends on
  // insertion history, which a warm start legitimately changes; sorting
  // here is what makes warm results bit-identical to cold ones. Every
  // partition sorts and frees its own state on the pool (DESIGN.md §16).
  Relation result = state.CanonicalCollect(pool);
  std::map<std::string, Relation> out;
  out.emplace(view.name, std::move(result));
  stats->used_semi_naive = true;
  return out;
}

/// Naive evaluation of a (possibly mutual-recursive) clique:
/// X_{n+1}[v] = γ_v(base_v ∪ T_branch(X_n)) until X stabilizes. The base
/// branches contain no recursive reference, so their result is
/// loop-invariant: it is evaluated once up front and the materialized rows
/// are reused every round (re-executing them per iteration was a silent
/// asymptotic regression vs. paper Alg. 2, which only recomputes T(X_n)).
/// Each iteration evaluates all recursive branches in parallel against the
/// frozen X_n, then canonicalizes per view; candidate slots are assembled
/// in fixed branch order so the result is thread-count-independent.
Result<std::map<std::string, Relation>> EvaluateNaive(
    const RecursiveClique& clique,
    const std::map<std::string, const Relation*>& tables,
    const FixpointOptions& options, FixpointStats* stats, ThreadPool* pool) {
  std::map<std::string, Relation> state;
  std::map<std::string, AggSpec> specs;
  for (const RecursiveView& view : clique.views) {
    state.emplace(view.name, Relation(view.schema));
    specs.emplace(view.name, SpecFor(view));
  }

  const ExecContext base_ctx = BaseContext(tables, options);

  // Loop-invariant base case, evaluated once.
  std::vector<Relation> base_rows;
  base_rows.reserve(clique.views.size());
  for (size_t vi = 0; vi < clique.views.size(); ++vi) {
    base_rows.emplace_back(clique.views[vi].schema);
    for (const plan::PlanPtr& p : clique.views[vi].base_plans) {
      RASQL_ASSIGN_OR_RETURN(Relation rel, physical::Execute(*p, base_ctx));
      ++stats->plan_executions;
      base_rows[vi].AppendChunks(std::move(rel));
    }
  }

  // One task per recursive branch, across all views in the clique.
  struct Task {
    size_t view_index;
    CompiledPlan compiled;
  };
  std::vector<Task> tasks;
  for (size_t vi = 0; vi < clique.views.size(); ++vi) {
    for (const plan::PlanPtr& p : clique.views[vi].recursive_plans) {
      tasks.push_back({vi, CompilePlan(*p, options)});
    }
  }
  const int T = static_cast<int>(tasks.size());

  while (true) {
    if (stats->iterations >= options.max_iterations) {
      stats->hit_iteration_limit = true;
      break;
    }
    ++stats->iterations;

    // All branches read the same frozen X_n; each unit writes only its
    // slots. Branches whose driver is large split into morsels, so one
    // heavy branch no longer pins the iteration to a single thread.
    auto make_naive_context = [&base_ctx, &state]() {
      ExecContext ctx = base_ctx;
      ctx.recursive_resolver =
          [&state](const RecursiveRefNode& ref) -> const Relation* {
        auto it = state.find(ref.view_name());
        return it == state.end() ? nullptr : &it->second;
      };
      return ctx;
    };
    std::vector<MorselUnit> units(tasks.size());
    for (int t = 0; t < T; ++t) {
      units[t].compiled = &tasks[t].compiled;
      units[t].make_context = make_naive_context;
    }
    RASQL_RETURN_IF_ERROR(
        RunMorselUnits(&units, base_ctx, options, pool, stats));
    stats->plan_executions += tasks.size();

    // Per view: base rows + branch slots in declaration order (morsels in
    // order within a branch), then the canonical aggregated+sorted form —
    // independent views in parallel.
    std::vector<Relation> next(clique.views.size());
    pool->ParallelFor(static_cast<int>(clique.views.size()), [&](int vi) {
      Relation candidates = base_rows[vi];
      for (size_t t = 0; t < tasks.size(); ++t) {
        if (tasks[t].view_index != static_cast<size_t>(vi)) continue;
        for (Relation& slot : units[t].slots) {
          candidates.AppendChunks(std::move(slot));
        }
      }
      next[vi] = Canonicalize(candidates, specs.at(clique.views[vi].name));
    });

    bool changed = false;
    for (size_t vi = 0; vi < clique.views.size(); ++vi) {
      const std::string& name = clique.views[vi].name;
      if (!storage::SameBag(next[vi], state.at(name))) changed = true;
      stats->total_delta_rows += next[vi].size();
      state.at(name) = std::move(next[vi]);
    }
    if (!changed) break;
  }
  return state;
}

}  // namespace

Result<FixpointMode> ResolveLocalMode(const RecursiveClique& clique,
                                      const FixpointOptions& options) {
  const bool semi_naive_eligible =
      clique.views.size() == 1 && clique.views[0].semi_naive_safe;
  switch (options.mode) {
    case FixpointMode::kAuto:
      return semi_naive_eligible ? FixpointMode::kSemiNaive
                                 : FixpointMode::kNaive;
    case FixpointMode::kSemiNaive:
      if (!semi_naive_eligible) {
        return Status::ExecutionError(
            "semi-naive evaluation requested but the clique containing '" +
            clique.views[0].name +
            "' requires naive evaluation (mutual recursion or non-linear "
            "aggregate use)");
      }
      return FixpointMode::kSemiNaive;
    case FixpointMode::kNaive:
      return FixpointMode::kNaive;
  }
  return Status::Internal("unknown fixpoint mode");
}

Result<std::map<std::string, Relation>> EvaluateCliqueLocal(
    const RecursiveClique& clique,
    const std::map<std::string, const Relation*>& tables,
    const FixpointOptions& options, FixpointStats* stats) {
  FixpointStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  // Contract check first (DESIGN.md §11): build the declared stage graph
  // of the phases this run will submit and verify it before any task runs
  // — the local counterpart of the Cluster's live submission hook.
  if (options.runtime.VerifyStagesEnabled()) {
    RASQL_ASSIGN_OR_RETURN(verify::StageGraph graph,
                           PlanLocalStages(clique, options));
    lint::DiagnosticEngine diag;
    verify::VerifyStageGraph(graph, &diag);
    if (diag.HasErrors()) {
      return Status::ExecutionError(
          "local stage-graph verification failed:\n" + diag.ToString());
    }
  }

  // Run on the externally-owned shared pool when one is configured (the
  // query server's partitioned compute slots, DESIGN.md §12); otherwise
  // own a per-evaluation pool as before.
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* pool_ptr = options.runtime.shared_pool;
  if (pool_ptr == nullptr) {
    owned_pool =
        std::make_unique<ThreadPool>(options.runtime.ResolvedThreads());
    pool_ptr = owned_pool.get();
  }
  ThreadPool& pool = *pool_ptr;

  // Non-recursive clique: single evaluation of the base plans, views in
  // parallel (they are independent — each task owns its slot).
  if (!clique.IsRecursive()) {
    const ExecContext ctx = BaseContext(tables, options);
    const int V = static_cast<int>(clique.views.size());
    std::vector<Relation> results(V);
    StageStatus failure(std::max(V, 1));
    pool.ParallelFor(V, [&](int vi) {
      const RecursiveView& view = clique.views[vi];
      Relation rows(view.schema);
      for (const plan::PlanPtr& p : view.base_plans) {
        Result<Relation> rel = physical::Execute(*p, ctx);
        if (!rel.ok()) {
          failure.Fail(vi, rel.status());
          return;
        }
        rows.AppendChunks(std::move(*rel));
      }
      // Multi-branch non-recursive views still union with set/aggregate
      // semantics per the head declaration.
      results[vi] = Canonicalize(rows, SpecFor(view));
    });
    RASQL_RETURN_IF_ERROR(failure.First());
    std::map<std::string, Relation> out;
    for (int vi = 0; vi < V; ++vi) {
      stats->plan_executions += clique.views[vi].base_plans.size();
      stats->total_delta_rows += results[vi].size();
      out.emplace(clique.views[vi].name, std::move(results[vi]));
    }
    stats->iterations = 1;
    return out;
  }

  RASQL_ASSIGN_OR_RETURN(const FixpointMode mode,
                         ResolveLocalMode(clique, options));

  if (mode == FixpointMode::kSemiNaive) {
    return EvaluateSemiNaive(clique.views[0], tables, options, stats, &pool);
  }
  return EvaluateNaive(clique, tables, options, stats, &pool);
}

}  // namespace rasql::fixpoint
