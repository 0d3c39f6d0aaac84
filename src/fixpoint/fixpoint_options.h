#ifndef RASQL_FIXPOINT_FIXPOINT_OPTIONS_H_
#define RASQL_FIXPOINT_FIXPOINT_OPTIONS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "physical/executor.h"
#include "runtime/runtime_options.h"
#include "storage/relation.h"

namespace rasql::fixpoint {

/// Fixpoint evaluation strategy.
enum class FixpointMode {
  /// Semi-naive when safe, naive otherwise (mutual recursion, non-linear
  /// sum/count use — see DESIGN.md §4).
  kAuto,
  /// Naive evaluation (paper Alg. 2): X_{n+1} = γ(base ∪ T(X_n)), state
  /// recomputed and re-aggregated each round. Always correct; slow.
  kNaive,
  /// Semi-naive delta evaluation (paper Alg. 3/5 specialized to one node).
  kSemiNaive,
};

/// Input to a warm-start (incremental) fixpoint run: the converged state of
/// a previous evaluation of the same clique plus the rows appended to base
/// tables since that run. The evaluator absorbs `converged` into its
/// partitioned state without emitting a delta, evaluates every plan that
/// scans a changed table with that table bound to its delta rows (and all
/// recursive refs bound to the converged state) to form the seed delta,
/// then runs the ordinary semi-naive loop. Sound only for queries the lint
/// layer proved PreM-safe or monotone (engine/rasql_context.cc gates this);
/// callers never hand an evaluator a warm handle for an unproven clique.
struct WarmStartInput {
  /// Converged relation of the clique's single view from the prior run.
  const storage::Relation* converged = nullptr;
  /// Rows appended since the prior run, keyed by canonical (lowercase)
  /// table name. Only append deltas — rewrites force a cold run upstream.
  const std::map<std::string, storage::Relation>* deltas = nullptr;
  /// Iterations the prior cold run took; used for the iterations_saved
  /// counter in FixpointStats.
  int prior_iterations = 0;
};

/// Knobs shared verbatim by the local and distributed evaluators. Both
/// option structs inherit from this so each shared field exists exactly
/// once (they had forked and drifted) and the engine copies the whole
/// slice in a single assignment (engine/rasql_context.cc).
struct CommonFixpointOptions {
  /// Safety valve for non-terminating recursions (the paper's
  /// stratified-SSSP on cyclic graphs, Fig. 1 footnote).
  int64_t max_iterations = 1'000'000;
  physical::JoinAlgorithm join_algorithm = physical::JoinAlgorithm::kHash;

  /// Non-null = warm-start this evaluation from a prior converged state
  /// (see WarmStartInput). The pointer is borrowed for the duration of the
  /// call; the engine sets it on its per-execution option copies only.
  const WarmStartInput* warm_start = nullptr;
};

/// Options of the local evaluator.
struct FixpointOptions : CommonFixpointOptions {
  FixpointMode mode = FixpointMode::kAuto;

  /// Number of slices the local evaluator hash-partitions its state into.
  /// Fixed independently of the thread count — the partitioned algorithm
  /// runs identically at every `runtime.num_threads`, which is what makes
  /// results and stats bit-identical across --threads (DESIGN.md §9).
  int local_partitions = 8;

  /// Real-thread execution of the local path: per-partition semi-naive
  /// terms and per-plan naive candidates run on a work-stealing ThreadPool
  /// of `runtime.num_threads` threads. RaSqlContext overwrites this from
  /// EngineConfig::runtime so --threads=N applies to local mode too;
  /// direct EvaluateCliqueLocal callers set it themselves (default: 1).
  runtime::RuntimeOptions runtime;
};

/// Per-run fixpoint statistics, shared by the local and distributed paths
/// so both report the same fields consistently.
struct FixpointStats {
  int iterations = 0;
  /// Total rows that entered a delta across all iterations; non-recursive
  /// cliques account their single evaluation's output rows here.
  size_t total_delta_rows = 0;
  /// Physical plan executions through physical::Execute. Local naive:
  /// base plans once plus every recursive plan per iteration; local
  /// semi-naive: base plans plus one execution per (non-empty delta
  /// partition × semi-naive term) per iteration; distributed: one per base
  /// plan (bound on the driver, run by the seed stage's tasks) plus the
  /// warm seed's executions (per-partition steps run their bound
  /// pipelines, counted by the cluster's stages instead).
  size_t plan_executions = 0;
  /// Join hash tables built for recursive-step build sides (PAPER App. D),
  /// with one definition in both engines (DESIGN.md §18): the
  /// loop-invariant build sides once per binding — per evaluation locally,
  /// per partition distributed — plus one per bind for every build side
  /// that reads the view. Plans that run interpreted inside
  /// physical::Execute (sort-merge probe chains, unfusable plans) are not
  /// counted.
  size_t hash_builds = 0;
  bool hit_iteration_limit = false;
  bool used_semi_naive = false;
  /// Distributed decomposed-plan evaluation ran (paper Sec. 7.2).
  bool used_decomposed = false;
  /// Column positions (view schema) the evaluator partitioned state on;
  /// empty when the run kept a single unpartitioned state.
  std::vector<int> partition_key;
  /// Cliques in this run that resumed from a retained converged state
  /// instead of recomputing from scratch.
  int warm_starts = 0;
  /// Rows the warm seed delta contributed (after aggregation/merge into
  /// the partitioned state); 0 on cold runs.
  size_t seed_delta_rows = 0;
  /// prior cold iterations minus warm iterations, clamped at 0 — an honest
  /// measure of the work a warm start skipped.
  int iterations_saved = 0;

  /// Folds another clique's stats into this one — a query evaluates its
  /// cliques in topological order and the engine reports the union.
  void MergeFrom(const FixpointStats& other) {
    iterations = std::max(iterations, other.iterations);
    total_delta_rows += other.total_delta_rows;
    plan_executions += other.plan_executions;
    hash_builds += other.hash_builds;
    hit_iteration_limit |= other.hit_iteration_limit;
    used_semi_naive |= other.used_semi_naive;
    used_decomposed |= other.used_decomposed;
    warm_starts += other.warm_starts;
    seed_delta_rows += other.seed_delta_rows;
    iterations_saved += other.iterations_saved;
    if (!other.partition_key.empty()) partition_key = other.partition_key;
  }
};

}  // namespace rasql::fixpoint

#endif  // RASQL_FIXPOINT_FIXPOINT_OPTIONS_H_
