#ifndef RASQL_DIST_CLUSTER_H_
#define RASQL_DIST_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dist/shuffle.h"
#include "lint/diagnostic.h"
#include "runtime/stage_accumulators.h"
#include "runtime/stage_executor.h"
#include "verify/stage_graph.h"
#include "verify/verifier.h"

namespace rasql::dist {

/// Configuration of the simulated cluster. Defaults approximate the paper's
/// testbed shape (Sec. 8): 15 workers, 8 cores each (120 partitions),
/// 1 Gbit network — scaled to partition counts that make sense for the
/// scaled-down datasets.
struct ClusterConfig {
  /// Number of worker nodes. Partition p lives on worker p % num_workers.
  int num_workers = 4;
  /// Number of partitions = number of tasks per stage.
  int num_partitions = 8;
  /// Simulated network bandwidth for shuffles/broadcasts/remote reads.
  /// 1 Gbit/s = 125 MB/s, as in the paper's cluster.
  double network_bytes_per_sec = 125.0e6;
  /// Driver-side cost of scheduling one stage (DAG bookkeeping, task
  /// serialization, launch round-trips). Stage combination (Sec. 7.1) wins
  /// by paying this once instead of twice per iteration.
  double per_stage_overhead_sec = 0.010;
  /// Per-task launch/teardown cost.
  double per_task_overhead_sec = 0.001;
  /// When true, tasks are pinned to the worker that owns their partition's
  /// cached state (the paper's partition-aware scheduling, Sec. 6.1). When
  /// false, the default "hybrid" policy spreads tasks by load and pays
  /// remote fetches for cached state.
  bool partition_aware_scheduling = true;
  /// Scales measured single-core compute into simulated time. 1.0 = the
  /// local machine's speed is taken at face value.
  double compute_scale = 1.0;

  /// Home worker of a partition.
  int OwnerOf(int partition) const { return partition % num_workers; }
};

/// What one task tells the cost model about its I/O. Assembled by
/// TaskContext as a side effect of the task's shuffle/report calls.
struct TaskIo {
  /// Bytes of cached state (base-relation hash table, SetRDD partition)
  /// the task must read. Free when the task runs on the owner worker;
  /// fetched over the network otherwise.
  size_t cached_state_bytes = 0;
  /// Map-side shuffle output: bytes destined for each of the
  /// `num_partitions` reduce partitions. Empty when the stage does not
  /// shuffle.
  std::vector<size_t> shuffle_out_bytes;
  /// True when the task consumes the shuffle output addressed to its
  /// partition by the previous shuffling stage.
  bool consumes_shuffle = false;
};

/// Per-stage accounting produced by the cost model.
struct StageMetrics {
  std::string name;
  int num_tasks = 0;
  double max_worker_compute_sec = 0;  ///< critical-path compute
  double total_compute_sec = 0;       ///< sum over tasks (measured)
  size_t shuffle_bytes = 0;            ///< total map output
  size_t remote_bytes = 0;             ///< bytes that crossed the network
  double sim_time_sec = 0;             ///< modeled stage duration
  /// Execution-observability fields: how many real task closures ran
  /// (split sub-tasks + per-partition finalize tasks) and the largest
  /// per-partition split factor. Purely observational — like the measured
  /// seconds above they are NOT part of the modeled-metric identity set
  /// (name/num_tasks/byte counts), which stays bit-identical whether or
  /// not a stage was split (DESIGN.md §10).
  int num_exec_tasks = 0;
  int max_partition_splits = 1;
};

/// Whole-job accounting.
struct JobMetrics {
  std::vector<StageMetrics> stages;
  size_t broadcast_bytes = 0;
  double broadcast_time_sec = 0;

  int num_stages() const { return static_cast<int>(stages.size()); }
  double TotalSimTime() const;
  double TotalComputeTime() const;
  size_t TotalShuffleBytes() const;
  size_t TotalRemoteBytes() const;
  std::string Summary() const;
};

/// Declares a stage before submission: its name, how it participates in
/// the shuffle, which slice channels its tasks read/write, and which
/// cross-partition accumulators they may update. Shuffle dependencies are
/// carried here — not hidden inside task closures — which is what lets the
/// runtime schedule consumer tasks against producer slices (async shuffle)
/// and lets the cost model derive `consumes_shuffle` from the declared
/// kind instead of trusting each closure.
struct StageSpec {
  /// How the stage relates to the shuffle exchange around it.
  enum class Kind {
    kLocal,          ///< no shuffle on either side
    kShuffleMap,     ///< produces map output
    kShuffleReduce,  ///< consumes the previous stage's map output
    kCombined,       ///< fused reduce(i)+map(i+1): consumes and produces
  };

  std::string name;
  Kind kind = Kind::kLocal;
  /// Channel this stage's tasks Gather from; null when the stage reads no
  /// routed rows (it may still *model* consumption via its kind).
  ShuffleChannel* input_slices = nullptr;
  /// Channel this stage's tasks deposit into; the runtime publishes a
  /// task's slices the moment that task completes. Null when the stage
  /// routes no rows (modeled-only shuffles report bytes instead).
  ShuffleChannel* output_slices = nullptr;
  /// Optional accumulators TaskContext::Count / Fail write through.
  runtime::StageCounter* counter = nullptr;
  runtime::StageStatus* status = nullptr;
  /// Optional per-task split hint: `split_tasks(p)` returns how many
  /// sub-tasks partition p's work should be cut into (<= 0 or absent =
  /// don't split). Honored by the RunStage(spec, split_task, main_task)
  /// overload — a giant partition becomes several real tasks inside one
  /// modeled stage, while the cost model keeps seeing one partition-ordered
  /// report per partition (the sub-tasks' measured seconds are summed into
  /// their partition's report), so modeled metrics are split-invariant.
  std::function<int(int)> split_tasks;

  /// Declared access of this stage's task closures to one shared resource
  /// (a per-partition slot vector, a SetRDD, a broadcast table). Purely
  /// metadata: the StageGraphVerifier checks the claim set for
  /// contradictory ownership and unordered concurrent writes (DESIGN.md
  /// §11); the runtime does not enforce it. `resource` is any stable
  /// address identifying the object; `name` labels it in diagnostics.
  struct ResourceClaim {
    const void* resource = nullptr;
    verify::AccessMode mode = verify::AccessMode::kReadShared;
    std::string name;
  };
  std::vector<ResourceClaim> claims;

  /// Builder-style helper: declares `resource` accessed under `mode`.
  StageSpec& Claim(const void* resource, verify::AccessMode mode,
                   std::string claim_name) {
    claims.push_back({resource, mode, std::move(claim_name)});
    return *this;
  }

  /// True when tasks of this kind consume the previous map output.
  bool ConsumesShuffle() const {
    return kind == Kind::kShuffleReduce || kind == Kind::kCombined;
  }
};

/// Handed to every task of a stage: the partition identity, shuffle
/// read/write handles, and the stage's shared accumulators. The TaskIo
/// report the cost model consumes is assembled from the calls made here,
/// so a task cannot route rows without the bytes being accounted.
class TaskContext {
 public:
  int partition() const { return partition_; }
  int num_partitions() const { return num_partitions_; }

  /// Split sub-task identity (DESIGN.md §10): when the stage was submitted
  /// through the split overload, each of partition p's sub-tasks sees
  /// split_index() in [0, num_splits()); the per-partition finalize task
  /// and every task of an unsplit stage see -1/0. Split sub-tasks are pure
  /// compute into caller-owned slots: the reporting calls below
  /// (Read/WriteShuffle, ReportShuffleBytes/CachedState, Count, Fail) are
  /// finalize-only — two sub-tasks of one partition would race on the
  /// partition-indexed accumulators otherwise.
  int split_index() const { return split_index_; }
  int num_splits() const { return num_splits_; }
  bool is_split_task() const { return split_index_ >= 0; }

  /// Gathers the rows addressed to this partition from the stage's input
  /// channel (all published slices; under the pipeline's dependencies that
  /// is every slice).
  storage::Relation ReadShuffle();

  /// Deposits this task's map output into the stage's output channel and
  /// records its per-destination bytes for the cost model. The slices
  /// become visible to consumers when this task completes.
  void WriteShuffle(ShuffleWrite write);

  /// Models a shuffle write without routing rows (synthetic stages and the
  /// baselines): records the per-destination byte counts only.
  void ReportShuffleBytes(std::vector<size_t> bytes_per_dest);

  /// Charges reading `bytes` of partition-cached state (free on the owner
  /// worker, remote otherwise). Accumulates across calls.
  void ReportCachedState(size_t bytes);

  /// Adds to the stage's StageCounter (requires spec.counter).
  void Count(size_t n);
  /// Records this task's failure in the stage's StageStatus (requires
  /// spec.status) and raises the shared abort flag siblings may poll.
  void Fail(common::Status status);
  /// True once any task of the stage failed; false when no StageStatus.
  bool aborted() const;

 private:
  friend class Cluster;
  TaskContext(const StageSpec* spec, int partition, int num_partitions,
              int split_index = -1, int num_splits = 0)
      : spec_(spec),
        partition_(partition),
        num_partitions_(num_partitions),
        split_index_(split_index),
        num_splits_(num_splits) {
    io_.consumes_shuffle = spec->ConsumesShuffle();
  }

  const StageSpec* spec_;
  int partition_;
  int num_partitions_;
  int split_index_;
  int num_splits_;
  TaskIo io_;
};

/// A stage's task body. Invoked once per partition, possibly concurrently;
/// closures must only touch partition-owned state (DESIGN.md §7) and go
/// through the TaskContext for everything cross-partition.
using StageTask = std::function<void(TaskContext&)>;

/// The simulated cluster: a driver that schedules stages of tasks over
/// `num_workers` workers and charges network/scheduling costs according to
/// the config. Task *compute* is real (the task closures do the actual
/// relational work and are timed); placement, fetches and stage overheads
/// are modeled — see DESIGN.md §1.
///
/// Underneath the simulation sits a real work-stealing runtime: with
/// `runtime.num_threads > 1` the task closures of a stage execute
/// concurrently (DESIGN.md §7), and with `runtime.async_shuffle` a
/// RunStagePair pipelines the reduce tasks into the map stage (§8). The
/// simulated placement/network accounting is always derived from
/// partition-ordered results after the barrier, so it is deterministic,
/// thread-count-independent, and identical with the pipeline on or off.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config,
                   runtime::RuntimeOptions runtime_options = {})
      : config_(config), executor_(runtime_options) {
    verify_enabled_ = executor_.options().VerifyStagesEnabled();
    verify_graph_.num_partitions = config_.num_partitions;
    verifier_ =
        std::make_unique<verify::StageGraphVerifier>(&verify_graph_);
  }

  const ClusterConfig& config() const { return config_; }
  const runtime::RuntimeOptions& runtime_options() const {
    return executor_.options();
  }
  /// Actual number of task-executing threads (>= 1).
  int num_threads() const { return executor_.num_threads(); }
  /// The executor's pool (null with one thread), for driver-side parallel
  /// work between stages that the cost model does not charge.
  runtime::ThreadPool* pool() const { return executor_.pool(); }

  /// Runs one stage: `task` executes with a TaskContext for every
  /// partition in [0, num_partitions) — concurrently when the runtime has
  /// more than one thread — is timed, and its I/O report feeds the cost
  /// model. Slices written to `spec.output_slices` are published as each
  /// task completes. Returns the stage metrics (also appended to job
  /// metrics).
  const StageMetrics& RunStage(const StageSpec& spec, const StageTask& task);

  /// Split form of RunStage (DESIGN.md §10): when `spec.split_tasks` asks
  /// for sub-tasks, partition p's work runs as split_tasks(p) `split_task`
  /// closures (split_index() in [0, num_splits())) followed by one
  /// `main_task` finalize closure per partition that depends on all of its
  /// partition's sub-tasks — one dependency DAG, so a giant partition's
  /// morsels run as independently stealable tasks inside one modeled stage.
  /// Split closures are pure compute into caller-owned slots; only the
  /// finalize closure may use the TaskContext reporting calls. The cost
  /// model still sees one partition-ordered report per partition with that
  /// partition's sub-task seconds folded in, so modeled metrics are
  /// identical to the unsplit stage; num_exec_tasks/max_partition_splits
  /// record the real task count. With no splits requested this degrades to
  /// plain RunStage(spec, main_task).
  const StageMetrics& RunStage(const StageSpec& spec,
                               const StageTask& split_task,
                               const StageTask& main_task);

  /// Submits a map stage and the reduce stage that consumes its output as
  /// one unit. Barriered by default (exactly two RunStage calls). With
  /// `runtime.async_shuffle` and >1 thread, the 2P tasks are enqueued as
  /// one dependency DAG instead: each reduce task waits on the publication
  /// of its input slices (one per producer) and is released the moment the
  /// last one lands, overlapping reduce compute with remaining map tasks.
  /// The cost model still accounts the map stage then the reduce stage
  /// post-barrier in partition order, so metrics are bit-identical to the
  /// barriered path. Requires reduce_spec.input_slices ==
  /// map_spec.output_slices (non-null) to pipeline.
  void RunStagePair(const StageSpec& map_spec, const StageTask& map_task,
                    const StageSpec& reduce_spec,
                    const StageTask& reduce_task);

  /// Charges a broadcast of `bytes` from the driver to every worker.
  void Broadcast(size_t bytes);

  /// Charges driver-side work of `seconds` (e.g. building a hash table on
  /// the master before broadcast, which the paper's optimization avoids).
  void ChargeDriverCompute(double seconds);

  const JobMetrics& metrics() const { return metrics_; }
  JobMetrics* mutable_metrics() { return &metrics_; }

  /// True when stage submissions are verified against the declared
  /// contracts before any task runs (DESIGN.md §11).
  bool verify_enabled() const { return verify_enabled_; }
  /// Diagnostics of every verified submission so far (empty entries mean
  /// all contracts held — violations abort the process instead).
  const lint::DiagnosticEngine& verify_report() const {
    return verify_diagnostics_;
  }
  /// The append-only submission log the verifier reasons about.
  const verify::StageGraph& verify_graph() const { return verify_graph_; }
  /// Returns the cluster to its initial state: metrics, the stage counter
  /// driving the hybrid-policy placement rotation, and pending shuffle
  /// bookkeeping. A reused cluster then schedules exactly like a fresh one.
  void ResetMetrics() {
    metrics_ = JobMetrics();
    stage_counter_ = 0;
    last_shuffle_producer_worker_.clear();
    last_shuffle_bytes_.clear();
  }

 private:
  /// RunStage minus the submission-time verification; the verified entry
  /// points (RunStage, RunStagePair) land here.
  const StageMetrics& RunStageUnverified(const StageSpec& spec,
                                         const StageTask& task);

  /// Maps a submission (one spec, or the two specs of a pair) into the
  /// abstract verify graph, snapshots the live published counts of every
  /// referenced channel, and runs the pending checks. Prints the
  /// diagnostics and aborts when a contract is violated — before any task
  /// of the submission runs.
  void VerifySubmission(std::initializer_list<const StageSpec*> specs);
  /// Registry interning for the pointer-free verify graph.
  int VerifyChannelId(const ShuffleChannel* channel, const std::string& hint);

  /// Worker a task is placed on under the active scheduling policy.
  int PlaceTask(int partition, int stage_index) const;

  /// The post-barrier cost-model pass over one stage's partition-ordered
  /// task reports: placement, network charges, makespan. Consumes `ios`.
  /// Non-const so the split path can stamp observability fields after
  /// accounting.
  StageMetrics& AccountStage(const std::string& name,
                             std::vector<TaskIo>* ios,
                             const std::vector<double>& task_seconds);

  ClusterConfig config_;
  runtime::StageExecutor executor_;
  JobMetrics metrics_;
  int stage_counter_ = 0;
  /// Placement of the map tasks of the most recent shuffling stage:
  /// producer partition -> worker, plus its per-destination byte counts.
  /// Used to decide which shuffle bytes cross the network.
  std::vector<int> last_shuffle_producer_worker_;
  std::vector<std::vector<size_t>> last_shuffle_bytes_;

  /// Submission-time verification state (DESIGN.md §11). The graph is an
  /// append-only log of every submitted spec; the interning maps translate
  /// the pointers a StageSpec carries into its abstract ids. Kept across
  /// ResetMetrics(): the log describes history, not pending cost state.
  bool verify_enabled_ = false;
  verify::StageGraph verify_graph_;
  std::unique_ptr<verify::StageGraphVerifier> verifier_;
  lint::DiagnosticEngine verify_diagnostics_;
  std::map<const void*, int> verify_channel_ids_;
  std::map<const void*, int> verify_resource_ids_;
  std::map<const void*, int> verify_counter_ids_;
  std::map<const void*, int> verify_status_ids_;
  int verify_next_group_ = 0;
};

}  // namespace rasql::dist

#endif  // RASQL_DIST_CLUSTER_H_
