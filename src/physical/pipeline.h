#ifndef RASQL_PHYSICAL_PIPELINE_H_
#define RASQL_PHYSICAL_PIPELINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "expr/vec_program.h"
#include "physical/executor.h"
#include "plan/logical_plan.h"
#include "storage/relation.h"
#include "storage/row_range.h"

namespace rasql::physical {

class BoundPipeline;

/// A fused operator pipeline compiled from the left spine of a logical
/// plan: a driving leaf (table scan / recursive ref / VALUES) followed by
/// filter, hash-join-probe and project steps that push each driver row
/// through to a sink — the whole-stage-codegen analogue (paper Sec. 7.3),
/// generalized from the executor's old ad-hoc Project(Filter(X)) /
/// Project(Join(X, Y)) special cases. Join nodes contribute their *right*
/// child as a materialized build side; the left child stays on the spine,
/// so the driver is the leftmost leaf and the pipeline is linear in it.
///
/// Compilation depends only on the plan shape and the join algorithm and
/// is cheap; do it once per plan and Bind() per evaluation context. The
/// interpreted tree walk in executor.cc remains the oracle: for any plan
/// the pipeline produces the same rows in the same order (probe-major
/// driver order, build matches in JoinHashTable::Probe order — exactly
/// the tree walk's hash-join order).
///
/// A step is loop-invariant when nothing it binds reads the fixpoint
/// state: every filter and projection, and every probe whose build subtree
/// holds no RecursiveRefNode. The local fixpoint binds those steps once
/// per evaluation and the distributed one once per partition
/// (BindInvariant), and each shares them with every per-delta Bind — the
/// cached build side of PAPER App. D (DESIGN.md §18).
class PipelineProgram {
 public:
  /// Returns the compiled pipeline, or nullopt when the plan is not a
  /// fusable chain (cross joins, aggregates/sorts/limits on the spine, or
  /// a bare leaf with no steps to fuse). Probe steps replicate the tree
  /// walk's *hash* join order, so under any other `join_algorithm` a chain
  /// with a join does not fuse either: it runs the tree walk's merge join
  /// (the Fig. 11 ablation). This is the one place that rule lives.
  static std::optional<PipelineProgram> Compile(const plan::LogicalPlan& plan,
                                                JoinAlgorithm join_algorithm);

  /// Resolves the driver and build sides against `ctx`, builds the join
  /// hash tables and expression evaluators. The returned pipeline borrows
  /// relations owned by `ctx` (and the plan), so both must outlive it; it
  /// does not retain `ctx` itself.
  ///
  /// With `invariant` (a BindInvariant result of this program under the
  /// same tables and options) the loop-invariant steps are borrowed from
  /// it read-only instead of rebuilt, so `invariant` must outlive the
  /// result too; only the driver and the build sides that read the view
  /// are resolved against `ctx`.
  common::Result<BoundPipeline> Bind(
      const ExecContext& ctx, const BoundPipeline* invariant = nullptr) const;

  /// Binds only the loop-invariant steps against `ctx` (which needs no
  /// recursive resolver). The result has no driver and cannot Run: it is
  /// the `invariant` argument of later Binds.
  common::Result<BoundPipeline> BindInvariant(const ExecContext& ctx) const;

  const plan::LogicalPlan& driver() const { return *driver_; }
  size_t num_steps() const { return steps_.size(); }

 private:
  friend class BoundPipeline;
  struct Step {
    enum class Kind { kFilter, kProject, kHashProbe };
    Kind kind;
    const plan::FilterNode* filter = nullptr;
    const plan::ProjectNode* project = nullptr;
    const plan::JoinNode* join = nullptr;  ///< probe; build = right child
    bool invariant = true;  ///< binds nothing that reads the fixpoint state
  };
  const plan::LogicalPlan* driver_ = nullptr;
  std::vector<Step> steps_;  ///< driver-to-root order
};

/// A PipelineProgram bound to one evaluation context: driver and build
/// relations resolved, hash tables built, batch filters compiled. Run() is
/// const and carries its working state on the caller's stack, so one
/// BoundPipeline may be shared by concurrent morsel tasks evaluating
/// disjoint RowRanges of the same driver, and its bound steps may be
/// borrowed read-only by concurrent pipelines over other drivers.
///
/// Run() is one loop over the driver's column chunks (DESIGN.md §13, §15).
/// It cuts each chunk into batches of ExecContext::batch_rows rows, or
/// takes the whole chunk as one batch in row mode (batch_rows == 0). In
/// batch mode leading filters run arbitrary predicates — conjunctions,
/// col-vs-col, arithmetic subexpressions, dictionary-aware string
/// equality — as expr::VecProgram selection-vector kernels (a chunk the
/// kernels cannot mirror exactly falls back to the row interpreter
/// mid-pipeline). In both modes a leading hash-probe extracts its key
/// column-wise, materializing a row only when the build side matches, and
/// every later step runs the row interpreter. Both modes emit identical
/// rows in identical order — the interpreter is the row-for-row oracle.
class BoundPipeline {
 public:
  BoundPipeline() = default;
  BoundPipeline(BoundPipeline&&) = default;
  BoundPipeline& operator=(BoundPipeline&&) = default;

  size_t driver_rows() const { return driver_.rel->size(); }

  /// Join hash tables this bind built; borrowed invariant steps excluded.
  size_t hash_builds() const { return hash_builds_; }

  /// Pushes driver rows [range.begin, min(range.end, driver_rows())) through
  /// every step, appending produced rows to the `*sink` relation through
  /// per-step scratch rows (no row vector is built). Output order is the
  /// driver order restricted to the range: concatenating the sinks of a
  /// morsel split in morsel order equals one whole-driver Run.
  common::Status Run(storage::RowRange range, storage::Relation* sink) const;

  /// Whole-driver evaluation.
  common::Status RunAll(storage::Relation* sink) const {
    return Run(storage::RowRange{0, driver_rows()}, sink);
  }

 private:
  friend class PipelineProgram;
  struct BoundStep {
    PipelineProgram::Step::Kind kind;
    const expr::Expr* predicate = nullptr;  // kFilter
    /// kFilter batch kernel: the predicate compiled to column-wise kernels
    /// with the interpreter's semantics, so batch and row mode agree bit
    /// for bit.
    std::optional<expr::VecProgram> vec_filter;
    std::optional<ProjectionEvaluator> projector;  // kProject
    // kHashProbe: materialized build side + its hash table. The table
    // points into `build.rel`, which is stable under moves (borrowed
    // context relation or heap-owned intermediate).
    BorrowedRelation build;
    std::optional<JoinHashTable> table;
    std::vector<int> probe_keys;
    size_t left_width = 0;
    size_t right_width = 0;
  };
  /// Per-Run scratch, allocated on the caller's stack (thread safety).
  struct StepScratch {
    storage::Row combined;   ///< kHashProbe: left cells + one build row
    std::vector<int> matches;
    storage::Row projected;  ///< kProject output
  };

  std::vector<StepScratch> NewScratch() const;

  /// Binds `step` against `ctx` as a new step owned by this pipeline.
  common::Status BindStep(const PipelineProgram::Step& step,
                          const ExecContext& ctx);

  void PushRow(const storage::Row& row, size_t step,
               std::vector<StepScratch>* scratch,
               storage::Relation* sink) const;

  BorrowedRelation driver_;
  /// Per step: built by this bind (held in `owned_steps_`) or, when
  /// loop-invariant, borrowed from the `invariant` pipeline of Bind. Null
  /// only for the view-reading steps of a BindInvariant result.
  std::vector<const BoundStep*> steps_;
  std::vector<std::unique_ptr<const BoundStep>> owned_steps_;
  size_t batch_rows_ = 0;
  size_t hash_builds_ = 0;
};

}  // namespace rasql::physical

#endif  // RASQL_PHYSICAL_PIPELINE_H_
