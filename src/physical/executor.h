#ifndef RASQL_PHYSICAL_EXECUTOR_H_
#define RASQL_PHYSICAL_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "plan/logical_plan.h"
#include "storage/relation.h"

namespace rasql::physical {

/// Local join algorithm used for keyed joins (paper Appendix D compares
/// shuffle-hash vs sort-merge; the local probe/merge is what differs).
enum class JoinAlgorithm {
  kHash,
  kSortMerge,
};

/// Binds plan leaves to data and selects execution options. The executor
/// evaluates one plan against one set of bindings — the fixpoint layer
/// calls it once per partition per iteration.
struct ExecContext {
  /// TableScan resolution: canonical table/view name -> relation.
  std::map<std::string, const storage::Relation*> tables;

  /// RecursiveRef resolution. The fixpoint evaluator supplies a resolver
  /// that returns the delta or the `all` relation depending on the
  /// reference's ordinal (semi-naive term binding).
  std::function<const storage::Relation*(const plan::RecursiveRefNode&)>
      recursive_resolver;

  /// Vectorized batch execution (DESIGN.md §13): when > 0, fused pipelines
  /// evaluate filters as selection vectors over the chunks' typed arrays
  /// (in sub-batches of at most this many rows), extract hash-join keys
  /// column-wise, and aggregates run typed per-column loops. 0 = the
  /// row-at-a-time interpreter, which stays the row-for-row oracle: both
  /// modes produce bit-identical output.
  size_t batch_rows = 0;

  JoinAlgorithm join_algorithm = JoinAlgorithm::kHash;
};

/// Executes a logical plan against the context bindings and returns the
/// materialized result. Filter/probe/project chains run fused, as one
/// PipelineProgram each (the whole-stage-codegen analogue, paper Sec. 7.3);
/// every other shape, and probe chains under sort-merge, run the tree walk
/// of ExecuteInterpreted.
common::Result<storage::Relation> Execute(const plan::LogicalPlan& plan,
                                          const ExecContext& context);

/// Executes a logical plan by the unfused tree walk: every operator
/// materializes its input. It is the row-for-row oracle the fused pipelines
/// are tested against, and produces the same rows in the same order as
/// Execute.
common::Result<storage::Relation> ExecuteInterpreted(
    const plan::LogicalPlan& plan, const ExecContext& context);

/// Either a borrowed pointer into the context (scans, recursive refs) or an
/// owned materialized intermediate. `rel` always points at the result;
/// `owned` is set only when this evaluation materialized it. The pointer is
/// stable under moves of the struct.
struct BorrowedRelation {
  const storage::Relation* rel = nullptr;
  std::unique_ptr<storage::Relation> owned;
};

/// Like Execute, but leaf plans resolve to a borrowed pointer instead of a
/// copy. Used by the pipeline compiler for build sides and drivers; the
/// context-owned relations must outlive the result.
common::Result<BorrowedRelation> ExecuteBorrowed(const plan::LogicalPlan& plan,
                                                 const ExecContext& context);

/// Evaluates a projection list row by row.
class ProjectionEvaluator {
 public:
  /// Borrows `exprs`, which must outlive the evaluator.
  explicit ProjectionEvaluator(const std::vector<expr::ExprPtr>& exprs)
      : exprs_(&exprs) {}

  storage::Row Eval(const storage::Row& input) const;
  /// Eval into `*out` (resized to the projection width), reusing its cells'
  /// storage across calls — the pipeline sinks' scratch row.
  void EvalInto(const storage::Row& input, storage::Row* out) const;

 private:
  const std::vector<expr::ExprPtr>* exprs_;
};

/// A reusable build-side hash table for a keyed join: maps key hash ->
/// row indices. The fixpoint evaluator builds these once per base relation
/// and reuses them across iterations (paper Appendix D: "the hash table
/// [is] only created once and then cached/reused across iterations").
class JoinHashTable {
 public:
  JoinHashTable() = default;
  /// Builds over `build` using `key_columns`.
  JoinHashTable(const storage::Relation& build,
                std::vector<int> key_columns);

  /// Appends to `*out` the indices of build rows whose key equals the probe
  /// row's `probe_key_columns`.
  void Probe(const storage::Row& probe, const std::vector<int>& probe_keys,
             std::vector<int>* out) const;

  /// Column-wise probe: hashes and compares the key cells of `chunk` row
  /// `row` directly against the build side's stored cells — no probe Row is
  /// materialized (the batch path's key extraction).
  void ProbeChunk(const storage::ColumnChunk& chunk, size_t row,
                  const std::vector<int>& probe_keys,
                  std::vector<int>* out) const;

  const storage::Relation* build_side() const { return build_; }
  const std::vector<int>& key_columns() const { return key_columns_; }
  size_t num_buckets() const { return buckets_; }

 private:
  const storage::Relation* build_ = nullptr;
  std::vector<int> key_columns_;
  // Open chaining: bucket head per hash slot, next-index links.
  std::vector<int> heads_;
  std::vector<int> next_;
  size_t buckets_ = 0;
  uint64_t mask_ = 0;
};

}  // namespace rasql::physical

#endif  // RASQL_PHYSICAL_EXECUTOR_H_
