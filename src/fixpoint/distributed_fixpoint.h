#ifndef RASQL_FIXPOINT_DISTRIBUTED_FIXPOINT_H_
#define RASQL_FIXPOINT_DISTRIBUTED_FIXPOINT_H_

#include <map>
#include <string>

#include "analysis/analyzed_query.h"
#include "common/status.h"
#include "dist/cluster.h"
#include "fixpoint/local_fixpoint.h"
#include "physical/executor.h"
#include "storage/relation.h"

namespace rasql::fixpoint {

/// Options of the distributed semi-naive evaluator (paper Sec. 6 & 7).
/// The shared knobs (iteration cap, join algorithm) live in
/// CommonFixpointOptions; RaSqlContext copies that slice from the local
/// FixpointOptions so the two paths cannot drift.
struct DistFixpointOptions : CommonFixpointOptions {
  /// Fuse Reduce(i) + Map(i+1) into one ShuffleMap stage per iteration
  /// (paper Alg. 6 / Sec. 7.1). Off = the plain two-stage Alg. 4/5 loop.
  bool combine_stages = true;
  /// Decomposed-plan evaluation (paper Sec. 7.2): partitions iterate
  /// independently with the base relation broadcast; applies only to plans
  /// whose output preserves the delta partitioning (e.g. linear TC).
  enum class Decomposed { kAuto, kOn, kOff };
  Decomposed decomposed = Decomposed::kAuto;
  /// Broadcast the compact encoded relation and build hash tables on the
  /// workers, instead of shipping a master-built hash table (Sec. 7.2).
  bool compress_broadcast = true;
};

/// True when the clique can run on the distributed evaluator: one view,
/// semi-naive-safe, every recursive plan referencing the view exactly once.
bool EligibleForDistributed(const analysis::RecursiveClique& clique);

/// Driver-side orchestration decisions for one eligible clique: which
/// evaluation mode the run will use and how base relations are
/// distributed. Computed by the same analysis the evaluator runs before
/// submitting any stage, and consumed by the offline EXPLAIN STAGES
/// planner (fixpoint/stage_plan.h) so the rendered template cannot drift
/// from the real orchestration.
struct DistOrchestration {
  /// Decomposed-plan evaluation (Sec. 7.2): partitions iterate
  /// independently, no per-iteration shuffles.
  bool decomposed = false;
  /// Combined reduce+map stages (Alg. 6) — mutually exclusive with
  /// `decomposed`; false for both = plain DSN map/reduce pairs (Alg. 4/5).
  bool combine_stages = false;
  /// The partition key the run settles on (column positions).
  std::vector<int> partition_key;
  /// Base tables shuffled into co-partitioned slices up front.
  std::vector<std::string> copartitioned;
  /// Base tables broadcast whole to every worker.
  std::vector<std::string> broadcast;
  /// True when at least one recursive branch's fused pipeline is driven
  /// by the recursive reference, so its delta splits into morsels and
  /// `runtime.morsel_rows > 0` turns the plain map stage into a split DAG
  /// (DESIGN.md §10). The live evaluator and EXPLAIN STAGES both read it.
  bool delta_splittable = false;
};

/// Analyzes `clique` (must be eligible) and returns the orchestration the
/// distributed evaluator would use under `options`.
common::Result<DistOrchestration> AnalyzeOrchestration(
    const analysis::RecursiveClique& clique,
    const DistFixpointOptions& options);

/// Evaluates an eligible clique to fixpoint on the simulated cluster.
/// Cluster metrics accumulate into `cluster->metrics()`; `stats` (shared
/// with the local path) reports used_semi_naive, used_decomposed and the
/// partition key the run settled on.
common::Result<std::map<std::string, storage::Relation>>
EvaluateCliqueDistributed(
    const analysis::RecursiveClique& clique,
    const std::map<std::string, const storage::Relation*>& tables,
    dist::Cluster* cluster, const DistFixpointOptions& options,
    FixpointStats* stats);

}  // namespace rasql::fixpoint

#endif  // RASQL_FIXPOINT_DISTRIBUTED_FIXPOINT_H_
