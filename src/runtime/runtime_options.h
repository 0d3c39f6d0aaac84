#ifndef RASQL_RUNTIME_RUNTIME_OPTIONS_H_
#define RASQL_RUNTIME_RUNTIME_OPTIONS_H_

#include <cstddef>

namespace rasql::runtime {

class ThreadPool;

/// Configuration of the real task-execution runtime that sits *under* the
/// simulated cluster: the simulated placement/network model decides what a
/// stage costs on the modeled 15-node testbed, while this runtime decides
/// how many OS threads actually execute the stage's task closures on the
/// local machine. The two are independent by design — see DESIGN.md §7.
struct RuntimeOptions {
  /// Threads executing stage tasks — and, since the local path runs on the
  /// same pool (fixpoint::FixpointOptions::runtime, DESIGN.md §9), the
  /// local fixpoint's per-partition work too. 1 = run every task inline on
  /// the driver thread (the original sequential behaviour); 0 = one thread
  /// per hardware thread.
  int num_threads = 1;

  /// Pipeline shuffles: when a map stage and its consuming reduce stage are
  /// submitted together (Cluster::RunStagePair), enqueue the reduce tasks
  /// with per-slice dependencies on the map tasks and release each one as
  /// soon as all of its input slices are published — instead of barriering
  /// the whole map stage first. Simulated metrics are unaffected (the cost
  /// model still runs post-barrier in partition order, DESIGN.md §8); only
  /// wall-clock changes. No effect with one thread.
  bool async_shuffle = false;

  /// Morsel size for splittable pipeline work (DESIGN.md §10): both
  /// fixpoint paths cut each partition's delta into `[begin, end)` row
  /// ranges of at most this many rows and evaluate them as independent
  /// tasks, so one giant partition no longer serializes an iteration.
  /// 0 (default) = whole-partition morsels, the pre-morsel task shape.
  /// Results, FixpointStats and modeled JobMetrics are bit-identical for
  /// every value: per-morsel sinks are merged in morsel order and the cost
  /// model keeps consuming one partition-ordered report per partition.
  size_t morsel_rows = 0;

  /// Vectorized batch execution (DESIGN.md §13): fused pipelines and the
  /// physical executor's aggregate loop process driver chunks in
  /// sub-batches of at most this many rows — filters become selection
  /// vectors over the chunks' typed arrays, hash-join keys are extracted
  /// column-wise, and min/max/sum/count accumulate over typed columns.
  /// 0 (default) = the row-at-a-time interpreter, which is the row-for-row
  /// oracle: results, FixpointStats and modeled JobMetrics are
  /// bit-identical for every value (shell `--batch-rows=N`).
  size_t batch_rows = 0;

  /// Verify declared stage graphs at submission time (DESIGN.md §11): the
  /// Cluster rejects a RunStage/RunStagePair whose StageSpec violates the
  /// slice-lifecycle or ownership contracts, before any task runs, and the
  /// local fixpoint checks its phase plan up front. Opt-in here (shell
  /// `--verify-stages`); also forced on by the RASQL_VERIFY_STAGES
  /// environment variable and in debug (!NDEBUG) builds — see
  /// VerifyStagesEnabled().
  bool verify_stages = false;

  /// Optional externally-owned pool that stage execution and the local
  /// fixpoint run on instead of constructing per-query pools. The query
  /// server sets this so every session's fixpoint stages share one compute
  /// pool (its worker slots are partitioned away from the network
  /// handlers' slots — DESIGN.md §12). The pool must outlive every
  /// execution configured with it; when set, the pool's own thread count
  /// wins over `num_threads`. Results are unaffected either way — they
  /// are bit-identical at any thread count (DESIGN.md §7/§9).
  ThreadPool* shared_pool = nullptr;

  /// `num_threads` with the auto-detect value resolved; always >= 1.
  int ResolvedThreads() const;

  /// Whether stage-graph verification is active: `verify_stages`, or the
  /// RASQL_VERIFY_STAGES env var (any value but "0"), or a debug build.
  bool VerifyStagesEnabled() const;
};

}  // namespace rasql::runtime

#endif  // RASQL_RUNTIME_RUNTIME_OPTIONS_H_
