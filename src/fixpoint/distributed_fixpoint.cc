#include "fixpoint/distributed_fixpoint.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "dist/aggregates.h"
#include "dist/broadcast.h"
#include "dist/partition.h"
#include "dist/set_rdd.h"
#include "dist/shuffle.h"
#include "fixpoint/warm_state.h"
#include "physical/pipeline.h"
#include "runtime/stage_accumulators.h"
#include "storage/row_range.h"

namespace rasql::fixpoint {

using analysis::RecursiveClique;
using analysis::RecursiveView;
using common::Result;
using common::Status;
using dist::AggSpec;
using dist::Cluster;
using dist::Partitioning;
using dist::ShuffleChannel;
using dist::ShuffleWrite;
using dist::StageSpec;
using dist::TaskContext;
using runtime::StageCounter;
using runtime::StageStatus;
using plan::LogicalPlan;
using plan::PlanKind;
using plan::RecursiveRefNode;
using storage::Relation;

namespace {

/// What the orchestration needs from one recursive branch plan (see
/// DESIGN.md §4): the join keys that may partition the delta, its
/// co-partitionable join partner, and the columns it passes through.
struct StepShape {
  /// Join keys on the delta side (positions in the view schema); empty
  /// when the reference does not sit directly under a keyed join.
  std::vector<int> delta_keys;
  /// Direct join partner when it is a plain table scan (co-partitionable).
  const plan::TableScanNode* copart_table = nullptr;
  std::vector<int> copart_keys;
  /// Output positions copied verbatim from the same position of the ref —
  /// the partition-preserving columns enabling decomposed evaluation.
  std::vector<int> passthrough;
};

/// Computes the column offset of `target` in the left-to-right leaf
/// concatenation under `node`. Returns true when found.
bool FindRefOffset(const LogicalPlan& node, const RecursiveRefNode* target,
                   int* offset) {
  switch (node.kind()) {
    case PlanKind::kRecursiveRef:
      if (&node == target) return true;
      *offset += node.schema().num_columns();
      return false;
    case PlanKind::kJoin:
      if (FindRefOffset(node.child(0), target, offset)) return true;
      return FindRefOffset(node.child(1), target, offset);
    case PlanKind::kFilter:
      return FindRefOffset(node.child(0), target, offset);
    default:
      *offset += node.schema().num_columns();
      return false;
  }
}

StepShape AnalyzeStep(const LogicalPlan& plan) {
  StepShape shape;
  std::vector<const RecursiveRefNode*> refs = CollectRecursiveRefs(plan);
  RASQL_CHECK(refs.size() == 1);
  const RecursiveRefNode* ref = refs[0];

  // Walk the pipeline: Project [Filter] <join tree>.
  const LogicalPlan* node = &plan;
  const plan::ProjectNode* project = nullptr;
  if (node->kind() == PlanKind::kProject) {
    project = static_cast<const plan::ProjectNode*>(node);
    node = &node->child(0);
  }
  if (node->kind() == PlanKind::kFilter) node = &node->child(0);
  const LogicalPlan* tree = node;

  // Find the join whose direct child is the recursive ref.
  std::function<const plan::JoinNode*(const LogicalPlan&)> find_parent_join =
      [&](const LogicalPlan& n) -> const plan::JoinNode* {
    if (n.kind() != PlanKind::kJoin) return nullptr;
    const auto& join = static_cast<const plan::JoinNode&>(n);
    if (&join.child(0) == ref || &join.child(1) == ref) {
      return &join;
    }
    for (const plan::PlanPtr& child : n.children()) {
      if (const plan::JoinNode* found = find_parent_join(*child)) {
        return found;
      }
    }
    return nullptr;
  };
  const plan::JoinNode* parent = find_parent_join(*tree);
  if (parent != nullptr && !parent->is_cross()) {
    const bool ref_is_left = &parent->child(0) == ref;
    shape.delta_keys =
        ref_is_left ? parent->left_keys() : parent->right_keys();
    const LogicalPlan& other =
        ref_is_left ? parent->child(1) : parent->child(0);
    if (other.kind() == PlanKind::kTableScan) {
      shape.copart_table = static_cast<const plan::TableScanNode*>(&other);
      shape.copart_keys =
          ref_is_left ? parent->right_keys() : parent->left_keys();
    }
  }

  // Column offset of the reference inside the concatenated input row.
  int offset = 0;
  const int ref_offset = FindRefOffset(*tree, ref, &offset) ? offset : 0;
  if (project != nullptr) {
    const auto& exprs = project->exprs();
    for (size_t i = 0; i < exprs.size(); ++i) {
      if (exprs[i]->kind() == expr::Expr::Kind::kColumnRef) {
        const int g =
            static_cast<const expr::ColumnRefExpr&>(*exprs[i]).index();
        if (g == ref_offset + static_cast<int>(i) &&
            static_cast<int>(i) < ref->schema().num_columns()) {
          shape.passthrough.push_back(static_cast<int>(i));
        }
      }
    }
  }
  return shape;
}

/// The one morsel-splitting predicate (DESIGN.md §10): a branch whose
/// fused pipeline is driven by the recursive reference walks the delta in
/// row order against build sides that read no view rows, so delta
/// sub-ranges evaluate independently and their outputs, concatenated in
/// range order, equal the whole-delta output.
bool DrivenByDelta(const std::optional<physical::PipelineProgram>& program) {
  return program.has_value() &&
         program->driver().kind() == PlanKind::kRecursiveRef;
}

/// Evaluates one recursive branch against a partition's delta on the local
/// engine's fused pipeline (DESIGN.md §18). The branch is compiled once
/// per evaluation. Its loop-invariant steps — filters, projections and
/// every build side that reads no recursive reference, hash table included
/// — are bound once per partition, by the partition's first task, against
/// that partition's tables: the cached shuffle-hash join of PAPER App. D.
/// Each delta then binds only the driver and the view-reading build sides
/// over them, and runs. A branch with no pipeline under the run's join
/// algorithm runs through physical::Execute.
class StepEvaluator {
 public:
  /// `contexts[p]` binds every table scan to what partition p reads: its
  /// co-partitioned slice or the broadcast whole. It must outlive this.
  StepEvaluator(const LogicalPlan& plan,
                std::optional<physical::PipelineProgram> program,
                const std::vector<physical::ExecContext>& contexts)
      : plan_(&plan),
        program_(std::move(program)),
        contexts_(&contexts),
        partitions_(contexts.size()) {}

  bool DeltaSplittable() const { return DrivenByDelta(program_); }

  /// Appends the branch's output over delta rows `range` to `*out`; only a
  /// DeltaSplittable branch may take less than the whole delta. Concurrent
  /// morsel sub-tasks of one partition may call this: they race to the
  /// partition's invariant bind under a once_flag, then probe it
  /// read-only, and everything else is call-local.
  Status Eval(const Relation& delta, storage::RowRange range, int partition,
              Relation* out) {
    physical::ExecContext ctx = (*contexts_)[partition];
    ctx.recursive_resolver =
        [&delta](const RecursiveRefNode&) -> const Relation* {
      return &delta;
    };
    RASQL_DCHECK(DeltaSplittable() ||
                 (range.begin == 0 && range.end >= delta.size()));
    if (!program_.has_value()) {
      RASQL_ASSIGN_OR_RETURN(Relation rel, physical::Execute(*plan_, ctx));
      out->AppendChunks(std::move(rel));
      return Status::OK();
    }
    Partition& part = partitions_[partition];
    std::call_once(part.bind_once, [&] {
      Result<physical::BoundPipeline> bound =
          program_->BindInvariant((*contexts_)[partition]);
      if (bound.ok()) {
        part.invariant = std::move(*bound);
      } else {
        part.bind_status = bound.status();
      }
    });
    RASQL_RETURN_IF_ERROR(part.bind_status);
    // A pipeline over an empty delta emits nothing; skipping it also skips
    // building a view-reading side, as the local engine does.
    if (delta.empty()) return Status::OK();
    RASQL_ASSIGN_OR_RETURN(physical::BoundPipeline pipeline,
                           program_->Bind(ctx, &*part.invariant));
    part.bind_builds.fetch_add(pipeline.hash_builds(),
                               std::memory_order_relaxed);
    // The range addresses delta rows, which drive only a splittable
    // branch; any other branch runs its whole driver.
    return DeltaSplittable() ? pipeline.Run(range, out) : pipeline.RunAll(out);
  }

  /// Join hash tables built (FixpointStats::hash_builds): every
  /// partition's invariant build sides, plus one per bind for each build
  /// side that reads the view. Call after the run.
  size_t hash_builds() const {
    size_t total = 0;
    for (const Partition& part : partitions_) {
      if (part.invariant.has_value()) total += part.invariant->hash_builds();
      total += part.bind_builds.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct Partition {
    std::once_flag bind_once;
    Status bind_status;
    std::optional<physical::BoundPipeline> invariant;
    std::atomic<size_t> bind_builds{0};
  };

  const LogicalPlan* plan_;
  std::optional<physical::PipelineProgram> program_;
  const std::vector<physical::ExecContext>* contexts_;
  std::vector<Partition> partitions_;
};

/// One base-case input of the seed stage (PAPER Alg. 4/5 evaluate the base
/// case as a cluster stage): a branch's pipeline, bound once on the driver
/// (hash tables included) and run by every seed task over its own range of
/// the driver rows; or rows already evaluated on the driver — a branch that
/// does not compile, or the warm seed — which the tasks slice by range.
struct BaseSource {
  std::optional<physical::BoundPipeline> pipeline;
  physical::BorrowedRelation rows;  ///< set when there is no pipeline

  size_t size() const {
    return pipeline.has_value() ? pipeline->driver_rows() : rows.rel->size();
  }

  /// Appends the pipeline's output over driver rows `range`, or the rows
  /// in `range` themselves, to `*out`.
  Status AppendRange(storage::RowRange range, Relation* out) const {
    if (pipeline.has_value()) return pipeline->Run(range, out);
    const Relation& rel = *rows.rel;
    for (size_t i = range.begin; i < range.end;) {
      size_t c;
      size_t r;
      rel.Locate(i, &c, &r);
      const storage::ColumnChunk& chunk = rel.chunk(c);
      for (; r < chunk.num_rows() && i < range.end; ++r, ++i) {
        out->AppendRowFrom(chunk, r);
      }
    }
    return Status::OK();
  }
};

/// Seed task q's input split: range q of P near-equal consecutive ranges
/// over the sources' rows laid end to end, in branch order. Concatenated in
/// task order, the splits are the driver-side evaluation order, so the
/// reduce side meets every key first where a driver-side evaluation would
/// (the first-seen order that decides min/max ties and the delta's order).
Status AppendSeedSplit(const std::vector<BaseSource>& sources, int q,
                       int num_partitions, Relation* out) {
  size_t total = 0;
  for (const BaseSource& source : sources) total += source.size();
  const size_t parts = static_cast<size_t>(num_partitions);
  const size_t task = static_cast<size_t>(q);
  const size_t begin = total * task / parts;
  const size_t end = total * (task + 1) / parts;
  size_t offset = 0;
  for (const BaseSource& source : sources) {
    const size_t n = source.size();
    const size_t lo = std::clamp(begin, offset, offset + n) - offset;
    const size_t hi = std::clamp(end, offset, offset + n) - offset;
    if (lo < hi) RASQL_RETURN_IF_ERROR(source.AppendRange({lo, hi}, out));
    offset += n;
  }
  return Status::OK();
}

bool IsSubset(const std::vector<int>& sub, const std::vector<int>& super) {
  for (int x : sub) {
    if (std::find(super.begin(), super.end(), x) == super.end()) {
      return false;
    }
  }
  return true;
}

/// Shorthand for the stage claim declarations below.
constexpr verify::AccessMode kReadShared = verify::AccessMode::kReadShared;
constexpr verify::AccessMode kPartitionOwned =
    verify::AccessMode::kPartitionOwned;
constexpr verify::AccessMode kSplitSlotOwned =
    verify::AccessMode::kSplitSlotOwned;

/// The public DistOrchestration plus the per-branch shapes and compiled
/// pipelines the evaluator builds its step evaluators from.
struct Orchestration {
  DistOrchestration pub;
  std::vector<StepShape> shapes;
  /// Each branch compiled under the run's join algorithm; nullopt runs
  /// interpreted.
  std::vector<std::optional<physical::PipelineProgram>> programs;
  /// Tables shuffled into co-partitioned slices (set form of
  /// pub.copartitioned, for membership tests).
  std::set<std::string> copart_names;
  /// Scan counts across the recursive plans.
  std::map<std::string, int> scanned;
};

/// The compile section of the distributed evaluator: branch shapes, the
/// partition key, decomposed-plan eligibility and the base-relation
/// distribution. Shared verbatim with AnalyzeOrchestration so EXPLAIN
/// STAGES renders the orchestration the evaluator actually submits.
Result<Orchestration> Analyze(const RecursiveClique& clique,
                              const DistFixpointOptions& options) {
  const RecursiveView& view = clique.views[0];
  const AggSpec spec = AggSpec::For(view.schema.num_columns(),
                                    view.agg_column, view.aggregate);
  Orchestration orch;
  orch.shapes.reserve(view.recursive_plans.size());
  for (const plan::PlanPtr& p : view.recursive_plans) {
    orch.shapes.push_back(AnalyzeStep(*p));
    orch.programs.push_back(
        physical::PipelineProgram::Compile(*p, options.join_algorithm));
  }
  const std::vector<StepShape>& shapes = orch.shapes;

  // Partition key: the common delta-side join key, constrained to lie
  // within the group-by columns for aggregate views (Alg. 4: "K: partition
  // key for δR, δR′, B, R, also the join key").
  std::vector<int> key;
  bool have_common_key = !shapes.empty();
  for (size_t i = 0; i < shapes.size(); ++i) {
    if (shapes[i].delta_keys.empty() ||
        (i > 0 && shapes[i].delta_keys != shapes[0].delta_keys)) {
      have_common_key = false;
      break;
    }
  }
  bool copartition_base = false;
  if (have_common_key &&
      (!spec.has_aggregate() ||
       IsSubset(shapes[0].delta_keys, spec.key_columns))) {
    key = shapes[0].delta_keys;
    copartition_base = true;
  } else if (spec.has_aggregate()) {
    key = spec.key_columns;
  } else {
    key.resize(view.schema.num_columns());
    for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<int>(i);
  }

  // Decomposed-plan eligibility (Sec. 7.2): every branch must preserve a
  // common set of delta columns through its projection.
  std::vector<int> passthrough;
  if (!shapes.empty()) {
    passthrough = shapes[0].passthrough;
    for (size_t i = 1; i < shapes.size(); ++i) {
      std::vector<int> merged;
      for (int c : passthrough) {
        if (std::find(shapes[i].passthrough.begin(),
                      shapes[i].passthrough.end(),
                      c) != shapes[i].passthrough.end()) {
          merged.push_back(c);
        }
      }
      passthrough = std::move(merged);
    }
  }
  bool decomposed =
      options.decomposed != DistFixpointOptions::Decomposed::kOff &&
      !passthrough.empty() &&
      (!spec.has_aggregate() || IsSubset(passthrough, spec.key_columns));
  if (options.decomposed == DistFixpointOptions::Decomposed::kOn &&
      !decomposed) {
    return Status::ExecutionError(
        "decomposed evaluation forced but the plan does not preserve the "
        "delta partitioning");
  }
  if (decomposed) {
    key = passthrough;
    copartition_base = false;  // base joined on a non-partition key
  }
  orch.pub.decomposed = decomposed;
  orch.pub.combine_stages = !decomposed && options.combine_stages;
  orch.pub.partition_key = key;

  // Base-relation distribution: co-partition the direct join partner,
  // broadcast everything else (Sec. 7.2).
  for (const plan::PlanPtr& p : view.recursive_plans) {
    CollectTableScans(*p, &orch.scanned);
  }
  if (copartition_base) {
    for (const StepShape& shape : shapes) {
      if (shape.copart_table == nullptr) continue;
      const std::string& name = shape.copart_table->table_name();
      // A table scanned more than once across the recursive plans plays
      // two roles (e.g. SG's `rel a` and `rel b`); only a single-role scan
      // may read a co-partitioned slice — otherwise broadcast it whole.
      if (orch.scanned[name] == 1) orch.copart_names.insert(name);
    }
  }
  for (const std::string& name : orch.copart_names) {
    orch.pub.copartitioned.push_back(name);
  }
  for (const auto& [name, scan_count] : orch.scanned) {
    if (!orch.copart_names.count(name)) orch.pub.broadcast.push_back(name);
  }
  orch.pub.delta_splittable =
      std::any_of(orch.programs.begin(), orch.programs.end(),
                  [](const auto& program) { return DrivenByDelta(program); });
  return orch;
}

}  // namespace

bool EligibleForDistributed(const RecursiveClique& clique) {
  if (clique.views.size() != 1) return false;
  const RecursiveView& view = clique.views[0];
  if (view.recursive_plans.empty()) return false;
  if (!view.semi_naive_safe) return false;
  for (const plan::PlanPtr& p : view.recursive_plans) {
    if (CollectRecursiveRefs(*p).size() != 1) return false;
  }
  return true;
}

Result<DistOrchestration> AnalyzeOrchestration(
    const RecursiveClique& clique, const DistFixpointOptions& options) {
  if (!EligibleForDistributed(clique)) {
    return Status::ExecutionError(
        "clique is not eligible for distributed evaluation");
  }
  RASQL_ASSIGN_OR_RETURN(Orchestration orch, Analyze(clique, options));
  return std::move(orch.pub);
}

Result<std::map<std::string, Relation>> EvaluateCliqueDistributed(
    const RecursiveClique& clique,
    const std::map<std::string, const Relation*>& tables, Cluster* cluster,
    const DistFixpointOptions& options, FixpointStats* stats) {
  FixpointStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (!EligibleForDistributed(clique)) {
    return Status::ExecutionError(
        "clique is not eligible for distributed evaluation");
  }
  const RecursiveView& view = clique.views[0];
  const int P = cluster->config().num_partitions;
  const AggSpec spec = AggSpec::For(view.schema.num_columns(),
                                    view.agg_column, view.aggregate);

  // ---- Compile: analyze every recursive branch and settle the
  // orchestration (partition key, evaluation mode, base distribution). ----
  RASQL_ASSIGN_OR_RETURN(Orchestration orch, Analyze(clique, options));
  const std::vector<StepShape>& shapes = orch.shapes;
  const std::set<std::string>& copart_names = orch.copart_names;
  const std::map<std::string, int>& scanned = orch.scanned;
  const std::vector<int>& key = orch.pub.partition_key;
  const bool decomposed = orch.pub.decomposed;
  // The distributed evaluator is semi-naive by construction (eligibility
  // requires semi_naive_safe); record it so the shared stats report the
  // evaluation mode consistently with the local path.
  stats->used_semi_naive = true;
  stats->used_decomposed = decomposed;
  stats->partition_key = key;

  const Partitioning partitioning{key, P};

  // ---- Distribute base relations per the orchestration. ----
  std::map<std::string, dist::PartitionedRelation> coparted;
  for (const StepShape& shape : shapes) {
    if (shape.copart_table == nullptr) continue;
    const std::string& name = shape.copart_table->table_name();
    if (!copart_names.count(name) || coparted.count(name)) continue;
    auto it = tables.find(name);
    if (it == tables.end()) {
      return Status::ExecutionError("table '" + name + "' not bound");
    }
    // Partitioning the base costs one shuffle of its full size. The rows
    // are placed driver-side, on the executor's pool between stages
    // (DESIGN.md §16); the stage below models the byte movement.
    coparted.emplace(name, dist::Partition(*it->second, shape.copart_keys,
                                           P, cluster->pool()));
    const size_t bytes = it->second->ByteSize();
    StageSpec partition_stage;
    partition_stage.name = "partition-base:" + name;
    partition_stage.kind = StageSpec::Kind::kShuffleMap;
    cluster->RunStage(partition_stage, [&](TaskContext& ctx) {
      ctx.ReportShuffleBytes(std::vector<size_t>(P, bytes / (P * P)));
    });
  }
  for (const auto& [name, scan_count] : scanned) {
    if (copart_names.count(name)) continue;
    auto it = tables.find(name);
    if (it == tables.end()) {
      return Status::ExecutionError("table '" + name + "' not bound");
    }
    if (options.compress_broadcast) {
      // Ship the compact encoding; workers rebuild hash tables locally.
      cluster->Broadcast(dist::EncodeRelation(*it->second).size());
    } else {
      // Spark default: master builds the hash table and ships it.
      common::Timer timer;
      physical::JoinHashTable master_build(*it->second, {0});
      cluster->ChargeDriverCompute(timer.ElapsedSeconds());
      cluster->Broadcast(dist::HashedRelationSize(*it->second));
    }
  }

  // ---- Step evaluators over each partition's tables: its co-partitioned
  // slices plus the broadcast relations. ----
  std::vector<physical::ExecContext> step_contexts(P);
  for (int p = 0; p < P; ++p) {
    physical::ExecContext& ctx = step_contexts[p];
    ctx.tables = tables;
    for (const auto& [name, rel] : coparted) {
      ctx.tables[name] = &rel.partition(p);
    }
    ctx.batch_rows = cluster->runtime_options().batch_rows;
    ctx.join_algorithm = options.join_algorithm;
  }
  std::vector<StepEvaluator> steps;
  steps.reserve(view.recursive_plans.size());
  for (size_t i = 0; i < view.recursive_plans.size(); ++i) {
    steps.emplace_back(*view.recursive_plans[i], std::move(orch.programs[i]),
                       step_contexts);
  }

  // ---- Base case: bound here, evaluated by the seed stage's tasks. ----
  physical::ExecContext base_ctx;
  base_ctx.tables = tables;
  base_ctx.batch_rows = cluster->runtime_options().batch_rows;
  base_ctx.join_algorithm = options.join_algorithm;
  // A warm start (DESIGN.md §14) replaces the base case with the seed
  // delta over the appended rows; the prior converged state is absorbed
  // into the partitions below, before the seed merge runs against it.
  const WarmStartInput* warm = options.warm_start;
  std::vector<BaseSource> base_sources;
  if (warm == nullptr) {
    for (const plan::PlanPtr& p : view.base_plans) {
      BaseSource& source = base_sources.emplace_back();
      std::optional<physical::PipelineProgram> program =
          physical::PipelineProgram::Compile(*p, options.join_algorithm);
      if (program.has_value()) {
        RASQL_ASSIGN_OR_RETURN(source.pipeline, program->Bind(base_ctx));
      } else {
        RASQL_ASSIGN_OR_RETURN(source.rows,
                               physical::ExecuteBorrowed(*p, base_ctx));
      }
      ++stats->plan_executions;
    }
  } else {
    RASQL_ASSIGN_OR_RETURN(Relation seed,
                           EvaluateWarmSeed(view, *warm, base_ctx, stats));
    stats->warm_starts = 1;
    physical::BorrowedRelation& rows = base_sources.emplace_back().rows;
    rows.owned = std::make_unique<Relation>(std::move(seed));
    rows.rel = rows.owned.get();
  }

  dist::SetRdd all(view.schema, spec, partitioning);
  std::vector<Relation> delta(P, Relation(view.schema));

  if (warm != nullptr) {
    // Absorb the converged state, co-partitioned on the run's key so it
    // lands in the same slices a cold run would have built it in. Loading
    // state is not a delta: nothing is emitted, so the loop below starts
    // from the seed alone — in every mode, including decomposed (state and
    // seed share the partitioning, and partitions stay independent).
    dist::PartitionedRelation warm_slices =
        dist::Partition(*warm->converged, key, P, cluster->pool());
    StageSpec warm_stage;
    warm_stage.name = "warm-absorb";
    warm_stage.kind = StageSpec::Kind::kLocal;
    warm_stage.Claim(&all, verify::AccessMode::kPartitionOwned, "all")
        .Claim(&warm_slices, verify::AccessMode::kReadShared, "warm-state");
    cluster->RunStage(warm_stage, [&](TaskContext& ctx) {
      const int p = ctx.partition();
      all.partition(p)->Absorb(warm_slices.partition(p));
      ctx.ReportCachedState(all.partition(p)->byte_size());
    });
  }

  // Every task closure below may execute concurrently (runtime threads):
  // shared mutable state is limited to partition-owned slots (delta[p],
  // all.partition(p), writes[p], per-partition evaluator caches) plus the
  // StageCounter/StageStatus accumulators above.

  // Seed stages (Alg. 5 lines 3-5): seed task q evaluates its input split
  // of the base case, pre-aggregates it map-side and shuffles it to its
  // partitions; merge task p folds its slices into the state. Submitted as
  // a pair so the async pipeline can start merging a partition's slices
  // while other seed tasks still run. Concurrent seed tasks share the bound
  // base pipelines read-only (BoundPipeline::Run).
  {
    ShuffleChannel seed_channel(P);
    StageStatus failure(P);
    StageSpec seed_stage;
    seed_stage.name = "seed-base-case";
    seed_stage.kind = StageSpec::Kind::kShuffleMap;
    seed_stage.output_slices = &seed_channel;
    seed_stage.status = &failure;
    seed_stage.Claim(&base_sources, kReadShared, "base-pipelines");
    StageSpec merge_stage;
    merge_stage.name = "merge-base-case";
    merge_stage.kind = StageSpec::Kind::kShuffleReduce;
    merge_stage.input_slices = &seed_channel;
    merge_stage.Claim(&all, kPartitionOwned, "all")
        .Claim(&delta, kPartitionOwned, "delta");
    cluster->RunStagePair(
        seed_stage,
        [&](TaskContext& ctx) {
          Relation split(view.schema);
          Status s = AppendSeedSplit(base_sources, ctx.partition(), P, &split);
          ShuffleWrite write(P);
          if (!s.ok()) {
            ctx.Fail(std::move(s));
          } else {
            write.AddAll(dist::PartialAggregate(split, spec), partitioning);
          }
          ctx.WriteShuffle(std::move(write));
        },
        merge_stage, [&](TaskContext& ctx) {
          const int p = ctx.partition();
          all.partition(p)->MergeDelta(
              dist::PartialAggregate(ctx.ReadShuffle(), spec), &delta[p]);
        });
    RASQL_RETURN_IF_ERROR(failure.First());
  }
  base_sources.clear();  // frees the base case's hash tables and rows
  for (const auto& d : delta) stats->total_delta_rows += d.size();
  if (warm != nullptr) {
    for (const auto& d : delta) stats->seed_delta_rows += d.size();
  }

  auto deltas_empty = [&]() {
    for (const auto& d : delta) {
      if (!d.empty()) return false;
    }
    return true;
  };

  // Takes partition p's delta and appends every branch's output over it
  // to `*out`; delta[p] is left empty for the next merge.
  auto eval_step_for_partition = [&](int p, Relation* out) -> Status {
    const Relation delta_rel = std::exchange(delta[p], Relation(view.schema));
    for (StepEvaluator& step : steps) {
      RASQL_RETURN_IF_ERROR(
          step.Eval(delta_rel, {0, delta_rel.size()}, p, out));
    }
    return Status::OK();
  };

  auto copart_state_bytes = [&](int p) {
    size_t bytes = 0;
    for (const auto& [name, rel] : coparted) {
      bytes += rel.partition(p).ByteSize();
    }
    return bytes;
  };

  if (decomposed) {
    // ---- Decomposed evaluation (Sec. 7.2): each partition runs its own
    // fixpoint with no cross-partition shuffles or synchronization. One
    // modeled stage covers the whole run; its makespan is the slowest
    // partition's total time. This is also the embarrassingly parallel
    // case for the real runtime: partitions never exchange rows.
    StageStatus failure(P);
    StageCounter delta_rows(P);
    std::vector<int> task_iterations(P, 0);
    std::vector<uint8_t> task_hit_limit(P, 0);
    StageSpec decomposed_stage;
    decomposed_stage.name = "decomposed-fixpoint";
    decomposed_stage.kind = StageSpec::Kind::kLocal;
    decomposed_stage.counter = &delta_rows;
    decomposed_stage.status = &failure;
    decomposed_stage.Claim(&all, kPartitionOwned, "all")
        .Claim(&delta, kPartitionOwned, "delta")
        .Claim(&steps, kPartitionOwned, "step-caches")
        .Claim(&coparted, kReadShared, "coparted-base");
    cluster->RunStage(decomposed_stage, [&](TaskContext& ctx) {
      const int p = ctx.partition();
      ctx.ReportCachedState(all.partition(p)->byte_size());
      int iterations = 0;
      while (!delta[p].empty() && !ctx.aborted()) {
        if (iterations >= options.max_iterations) {
          task_hit_limit[p] = 1;
          break;
        }
        ++iterations;
        Relation candidates(view.schema);
        Status s = eval_step_for_partition(p, &candidates);
        if (!s.ok()) {
          ctx.Fail(std::move(s));
          break;
        }
        all.partition(p)->MergeDelta(dist::PartialAggregate(candidates, spec),
                                     &delta[p]);
        ctx.Count(delta[p].size());
      }
      task_iterations[p] = iterations;
    });
    RASQL_RETURN_IF_ERROR(failure.First());
    for (int p = 0; p < P; ++p) {
      stats->iterations = std::max(stats->iterations, task_iterations[p]);
      stats->hit_iteration_limit |= task_hit_limit[p] != 0;
    }
    stats->total_delta_rows += delta_rows.Total();
  } else if (orch.pub.combine_stages) {
    // ---- Optimized DSN (Alg. 6): one ShuffleMap stage per iteration.
    // Map output of iteration i is merged and re-joined by iteration i+1
    // on the same partition/worker. Two channels ping-pong between
    // iterations: stage i consumes channels[cur] and fills channels[1-cur].
    // Each combined stage both consumes and produces, so the driver must
    // see iteration i's output before submitting i+1 — the pipeline has
    // nothing to overlap here and the stages stay barriered (DESIGN.md §8).
    ShuffleChannel channels[2] = {ShuffleChannel(P), ShuffleChannel(P)};
    int cur = 0;
    {
      // The first combined stage has no incoming shuffle (the seed stages
      // above produced the initial delta); emit iteration 1's map output.
      StageStatus failure(P);
      StageSpec first_stage;
      first_stage.name = "iter-1";
      first_stage.kind = StageSpec::Kind::kShuffleMap;
      first_stage.output_slices = &channels[cur];
      first_stage.status = &failure;
      first_stage.Claim(&all, kReadShared, "all")
          .Claim(&delta, kPartitionOwned, "delta")
          .Claim(&steps, kPartitionOwned, "step-caches")
          .Claim(&coparted, kReadShared, "coparted-base");
      cluster->RunStage(first_stage, [&](TaskContext& ctx) {
        const int p = ctx.partition();
        ctx.ReportCachedState(all.partition(p)->byte_size() +
                              copart_state_bytes(p));
        ShuffleWrite write(P);
        Relation candidates(view.schema);
        Status s = eval_step_for_partition(p, &candidates);
        if (!s.ok()) {
          ctx.Fail(std::move(s));
        } else {
          write.AddAll(dist::PartialAggregate(candidates, spec), partitioning);
        }
        ctx.WriteShuffle(std::move(write));
      });
      RASQL_RETURN_IF_ERROR(failure.First());
      stats->iterations = 1;
    }
    while (true) {
      if (stats->iterations >= options.max_iterations) {
        stats->hit_iteration_limit = true;
        break;
      }
      // Stop when the previous iteration emitted nothing anywhere.
      if (channels[cur].TotalRows() == 0) break;
      ++stats->iterations;

      const int next = 1 - cur;
      channels[next].Reset();
      StageStatus failure(P);
      StageCounter delta_rows(P);
      StageSpec iter_stage;
      iter_stage.name = "iter-" + std::to_string(stats->iterations);
      iter_stage.kind = StageSpec::Kind::kCombined;
      iter_stage.input_slices = &channels[cur];
      iter_stage.output_slices = &channels[next];
      iter_stage.counter = &delta_rows;
      iter_stage.status = &failure;
      iter_stage.Claim(&all, kPartitionOwned, "all")
          .Claim(&delta, kPartitionOwned, "delta")
          .Claim(&steps, kPartitionOwned, "step-caches")
          .Claim(&coparted, kReadShared, "coparted-base");
      cluster->RunStage(iter_stage, [&](TaskContext& ctx) {
        const int p = ctx.partition();
        ctx.ReportCachedState(all.partition(p)->byte_size() +
                              copart_state_bytes(p));
        all.partition(p)->MergeDelta(
            dist::PartialAggregate(ctx.ReadShuffle(), spec), &delta[p]);
        ctx.Count(delta[p].size());
        ShuffleWrite write(P);
        if (!delta[p].empty()) {
          Relation candidates(view.schema);
          Status s = eval_step_for_partition(p, &candidates);
          if (!s.ok()) {
            ctx.Fail(std::move(s));
          } else {
            write.AddAll(dist::PartialAggregate(candidates, spec),
                         partitioning);
          }
        }
        ctx.WriteShuffle(std::move(write));
      });
      RASQL_RETURN_IF_ERROR(failure.First());
      stats->total_delta_rows += delta_rows.Total();
      cur = next;
    }
  } else {
    // ---- Plain DSN (Alg. 4/5): separate Map and Reduce stages per
    // iteration, submitted as a pair — the async-shuffle pipeline's main
    // target. Map task p moves delta[p] out before any reduce task may
    // refill it (reduce p depends on all P map slices), so the pair is
    // safe to overlap. One channel is reused across iterations.
    //
    // With `runtime.morsel_rows > 0` and a branch driven by the delta
    // (StepEvaluator::DeltaSplittable) the map stage instead goes through
    // the split RunStage overload (DESIGN.md §10): each partition's delta
    // is frozen driver-side, cut into (step, morsel) sub-tasks that
    // evaluate into partition×sub-task-owned slots, and the per-partition
    // finalize task concatenates the slots in (step, morsel) order — the
    // exact row order of the unsplit evaluation — before aggregating and
    // routing. A giant partition thus becomes several independently
    // stealable tasks inside one stage, and modeled metrics stay
    // split-invariant.
    ShuffleChannel exchange(P);
    const size_t morsel_rows = cluster->runtime_options().morsel_rows;
    bool first_iteration = true;
    while (!deltas_empty()) {
      if (stats->iterations >= options.max_iterations) {
        stats->hit_iteration_limit = true;
        break;
      }
      ++stats->iterations;
      if (!first_iteration) exchange.Reset();
      first_iteration = false;

      StageStatus failure(P);
      StageCounter delta_rows(P);
      StageSpec map_stage;
      map_stage.name = "map-" + std::to_string(stats->iterations);
      map_stage.kind = StageSpec::Kind::kShuffleMap;
      map_stage.output_slices = &exchange;
      map_stage.status = &failure;
      StageSpec reduce_stage;
      reduce_stage.name = "reduce-" + std::to_string(stats->iterations);
      reduce_stage.kind = StageSpec::Kind::kShuffleReduce;
      reduce_stage.input_slices = &exchange;
      reduce_stage.counter = &delta_rows;
      // The pair's shared `delta` hand-off is legal because the exchange
      // channel orders reduce p after every map task; the verifier exempts
      // write/write claims that carry such a slice dependency (RASQL-G008).
      reduce_stage.Claim(&all, kPartitionOwned, "all")
          .Claim(&delta, kPartitionOwned, "delta");
      const dist::StageTask reduce_task = [&](TaskContext& ctx) {
        const int p = ctx.partition();
        ctx.ReportCachedState(all.partition(p)->byte_size());
        all.partition(p)->MergeDelta(
            dist::PartialAggregate(ctx.ReadShuffle(), spec), &delta[p]);
        ctx.Count(delta[p].size());
      };

      if (morsel_rows == 0 || !orch.pub.delta_splittable) {
        map_stage.Claim(&delta, kPartitionOwned, "delta")
            .Claim(&steps, kPartitionOwned, "step-caches")
            .Claim(&coparted, kReadShared, "coparted-base");
        cluster->RunStagePair(
            map_stage,
            [&](TaskContext& ctx) {
              const int p = ctx.partition();
              ctx.ReportCachedState(copart_state_bytes(p));
              ShuffleWrite write(P);
              Relation candidates(view.schema);
              Status s = eval_step_for_partition(p, &candidates);
              if (!s.ok()) {
                ctx.Fail(std::move(s));
              } else {
                write.AddAll(dist::PartialAggregate(candidates, spec),
                             partitioning);
              }
              ctx.WriteShuffle(std::move(write));
            },
            reduce_stage, reduce_task);
      } else {
        // Freeze the iteration's delta driver-side so sub-task ranges
        // refer to stable storage; reduce refills delta[p] afterwards.
        struct SubTask {
          size_t step;
          storage::RowRange range;
        };
        std::vector<Relation> frozen;
        frozen.reserve(P);
        for (int p = 0; p < P; ++p) {
          frozen.push_back(std::exchange(delta[p], Relation(view.schema)));
        }
        std::vector<std::vector<SubTask>> sub(P);
        std::vector<std::vector<Relation>> slots(P);
        std::vector<std::vector<Status>> sub_status(P);
        for (int p = 0; p < P; ++p) {
          if (frozen[p].empty()) continue;
          for (size_t s = 0; s < steps.size(); ++s) {
            if (steps[s].DeltaSplittable()) {
              for (storage::RowRange r :
                   storage::SplitIntoMorsels(frozen[p].size(), morsel_rows)) {
                sub[p].push_back({s, r});
              }
            } else {
              // Not range-decomposable: one whole-delta sub-task.
              sub[p].push_back({s, {0, frozen[p].size()}});
            }
          }
          slots[p].assign(sub[p].size(), Relation(view.schema));
          sub_status[p].resize(sub[p].size());
        }
        map_stage.split_tasks = [&sub](int p) {
          return static_cast<int>(sub[p].size());
        };
        // Sub-tasks evaluate frozen deltas into their own (partition,
        // sub-task) slots; the per-partition step caches are shared by a
        // partition's sub-tasks but internally synchronized (once_flag
        // invariant binds), so they count as partition-owned.
        map_stage.Claim(&frozen, kReadShared, "frozen-delta")
            .Claim(&sub, kReadShared, "sub-plan")
            .Claim(&slots, kSplitSlotOwned, "morsel-slots")
            .Claim(&sub_status, kSplitSlotOwned, "morsel-status")
            .Claim(&steps, kPartitionOwned, "step-caches")
            .Claim(&coparted, kReadShared, "coparted-base");
        cluster->RunStage(
            map_stage,
            // Split sub-task: pure compute into its owned slot. It must
            // not touch the TaskContext reporting calls (enforced by
            // RASQL_CHECKs in TaskContext); errors land in its status
            // slot for the finalize task to surface.
            [&](TaskContext& ctx) {
              const int p = ctx.partition();
              const int j = ctx.split_index();
              const SubTask& t = sub[p][j];
              sub_status[p][j] =
                  steps[t.step].Eval(frozen[p], t.range, p, &slots[p][j]);
            },
            // Finalize: the only reporting task of the partition.
            [&](TaskContext& ctx) {
              const int p = ctx.partition();
              ctx.ReportCachedState(copart_state_bytes(p));
              ShuffleWrite write(P);
              Status bad;
              for (const Status& s : sub_status[p]) {
                if (!s.ok()) {
                  bad = s;
                  break;
                }
              }
              if (!bad.ok()) {
                ctx.Fail(std::move(bad));
              } else {
                Relation candidates(view.schema);
                for (Relation& slot : slots[p]) {
                  candidates.AppendChunks(std::move(slot));
                }
                write.AddAll(dist::PartialAggregate(candidates, spec),
                             partitioning);
              }
              ctx.WriteShuffle(std::move(write));
            });
        cluster->RunStage(reduce_stage, reduce_task);
      }
      RASQL_RETURN_IF_ERROR(failure.First());
      stats->total_delta_rows += delta_rows.Total();
    }
  }

  if (warm != nullptr) {
    stats->iterations_saved =
        std::max(0, warm->prior_iterations - stats->iterations);
  }
  for (const StepEvaluator& step : steps) {
    stats->hash_builds += step.hash_builds();
  }

  // Canonical (sorted) output, matching the local evaluator: hash-state
  // iteration order depends on insertion history, which a warm start
  // legitimately changes; sorting pins warm results to the cold bytes.
  // Each partition sorts its own state on the pool and the driver merges
  // the runs (DESIGN.md §16) — no modeled stage, like the old collect.
  Relation result = all.CanonicalCollect(cluster->pool());
  std::map<std::string, Relation> out;
  out.emplace(view.name, std::move(result));
  return out;
}

}  // namespace rasql::fixpoint
