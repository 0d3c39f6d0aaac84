#include "dist/cluster.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace rasql::dist {

// StageSpec::Kind maps onto verify::StageKind by value; keep the two enums
// in lockstep.
static_assert(static_cast<int>(StageSpec::Kind::kLocal) ==
              static_cast<int>(verify::StageKind::kLocal));
static_assert(static_cast<int>(StageSpec::Kind::kShuffleMap) ==
              static_cast<int>(verify::StageKind::kShuffleMap));
static_assert(static_cast<int>(StageSpec::Kind::kShuffleReduce) ==
              static_cast<int>(verify::StageKind::kShuffleReduce));
static_assert(static_cast<int>(StageSpec::Kind::kCombined) ==
              static_cast<int>(verify::StageKind::kCombined));

double JobMetrics::TotalSimTime() const {
  double t = broadcast_time_sec;
  for (const StageMetrics& s : stages) t += s.sim_time_sec;
  return t;
}

double JobMetrics::TotalComputeTime() const {
  double t = 0;
  for (const StageMetrics& s : stages) t += s.total_compute_sec;
  return t;
}

size_t JobMetrics::TotalShuffleBytes() const {
  size_t n = 0;
  for (const StageMetrics& s : stages) n += s.shuffle_bytes;
  return n;
}

size_t JobMetrics::TotalRemoteBytes() const {
  size_t n = 0;
  for (const StageMetrics& s : stages) n += s.remote_bytes;
  return n;
}

std::string JobMetrics::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "stages=%d sim_time=%.3fs compute=%.3fs shuffle=%.1fMB "
                "remote=%.1fMB broadcast=%.1fMB",
                num_stages(), TotalSimTime(), TotalComputeTime(),
                TotalShuffleBytes() / 1e6, TotalRemoteBytes() / 1e6,
                broadcast_bytes / 1e6);
  return buf;
}

storage::Relation TaskContext::ReadShuffle() {
  RASQL_CHECK(!is_split_task());
  RASQL_CHECK(spec_->input_slices != nullptr);
  return spec_->input_slices->Gather(partition_);
}

void TaskContext::WriteShuffle(ShuffleWrite write) {
  RASQL_CHECK(!is_split_task());
  RASQL_CHECK(spec_->output_slices != nullptr);
  io_.shuffle_out_bytes = write.bytes_per_dest;
  spec_->output_slices->Put(partition_, std::move(write));
}

void TaskContext::ReportShuffleBytes(std::vector<size_t> bytes_per_dest) {
  RASQL_CHECK(!is_split_task());
  io_.shuffle_out_bytes = std::move(bytes_per_dest);
}

void TaskContext::ReportCachedState(size_t bytes) {
  RASQL_CHECK(!is_split_task());
  io_.cached_state_bytes += bytes;
}

void TaskContext::Count(size_t n) {
  RASQL_CHECK(!is_split_task());
  RASQL_CHECK(spec_->counter != nullptr);
  spec_->counter->Add(partition_, n);
}

void TaskContext::Fail(common::Status status) {
  RASQL_CHECK(!is_split_task());
  RASQL_CHECK(spec_->status != nullptr);
  spec_->status->Fail(partition_, std::move(status));
}

bool TaskContext::aborted() const {
  return spec_->status != nullptr && spec_->status->aborted();
}

int Cluster::PlaceTask(int partition, int stage_index) const {
  if (config_.partition_aware_scheduling) {
    return config_.OwnerOf(partition);
  }
  // Hybrid policy: the driver balances load over workers without regard to
  // cached-state locality; the deterministic stage-dependent rotation
  // reproduces Spark's behaviour of re-placing tasks differently in each
  // stage (paper Sec. 6.1, "unnecessary remote data fetches").
  return (partition + stage_index) % config_.num_workers;
}

StageMetrics& Cluster::AccountStage(
    const std::string& name, std::vector<TaskIo>* ios,
    const std::vector<double>& task_seconds) {
  const int stage_index = stage_counter_++;
  StageMetrics stage;
  stage.name = name;
  stage.num_tasks = config_.num_partitions;
  stage.num_exec_tasks = config_.num_partitions;

  // Cost-model pass, after the barrier, in ascending partition order: the
  // simulated placement and network charges depend only on the per-task
  // reports, never on execution order, so the modeled stage is identical
  // for every thread count — and for the async pipeline on or off.
  std::vector<double> worker_busy(config_.num_workers, 0.0);
  std::vector<int> producer_worker(config_.num_partitions, 0);
  std::vector<std::vector<size_t>> shuffle_bytes(config_.num_partitions);
  bool stage_shuffles = false;

  for (int p = 0; p < config_.num_partitions; ++p) {
    const int worker = PlaceTask(p, stage_index);
    producer_worker[p] = worker;

    TaskIo& io = (*ios)[p];
    const double compute = task_seconds[p] * config_.compute_scale;

    // Remote bytes this task must pull before/while computing.
    size_t remote = 0;
    if (worker != config_.OwnerOf(p)) remote += io.cached_state_bytes;
    if (io.consumes_shuffle && !last_shuffle_bytes_.empty()) {
      // Pull this partition's slice of every producer's map output; slices
      // produced on another worker cross the network.
      for (size_t src = 0; src < last_shuffle_bytes_.size(); ++src) {
        const auto& out = last_shuffle_bytes_[src];
        if (p < static_cast<int>(out.size()) &&
            last_shuffle_producer_worker_[src] != worker) {
          remote += out[p];
        }
      }
    }
    if (!io.shuffle_out_bytes.empty()) {
      stage_shuffles = true;
      size_t out_total = 0;
      for (size_t b : io.shuffle_out_bytes) out_total += b;
      stage.shuffle_bytes += out_total;
      shuffle_bytes[p] = std::move(io.shuffle_out_bytes);
    }

    const double task_time = compute + config_.per_task_overhead_sec +
                             static_cast<double>(remote) /
                                 config_.network_bytes_per_sec;
    worker_busy[worker] += task_time;
    stage.total_compute_sec += compute;
    stage.remote_bytes += remote;
  }

  stage.max_worker_compute_sec =
      *std::max_element(worker_busy.begin(), worker_busy.end());
  stage.sim_time_sec =
      config_.per_stage_overhead_sec + stage.max_worker_compute_sec;

  if (stage_shuffles) {
    last_shuffle_producer_worker_ = std::move(producer_worker);
    last_shuffle_bytes_ = std::move(shuffle_bytes);
  } else {
    last_shuffle_producer_worker_.clear();
    last_shuffle_bytes_.clear();
  }

  metrics_.stages.push_back(std::move(stage));
  return metrics_.stages.back();
}

int Cluster::VerifyChannelId(const ShuffleChannel* channel,
                             const std::string& hint) {
  auto [it, inserted] = verify_channel_ids_.emplace(
      channel, static_cast<int>(verify_graph_.channels.size()));
  if (inserted) verify_graph_.AddChannel(hint);
  return it->second;
}

void Cluster::VerifySubmission(
    std::initializer_list<const StageSpec*> specs) {
  const int group =
      specs.size() > 1 ? verify_next_group_++ : -1;
  for (const StageSpec* spec : specs) {
    verify::StageNode& node = verify_graph_.AddStage(
        spec->name, static_cast<verify::StageKind>(spec->kind));
    node.group = group;
    node.split = static_cast<bool>(spec->split_tasks);
    if (spec->input_slices != nullptr) {
      node.input_channel =
          VerifyChannelId(spec->input_slices, spec->name + ".in");
    }
    if (spec->output_slices != nullptr) {
      node.output_channel =
          VerifyChannelId(spec->output_slices, spec->name + ".out");
    }
    if (spec->counter != nullptr) {
      auto [it, inserted] = verify_counter_ids_.emplace(
          spec->counter, static_cast<int>(verify_graph_.counters.size()));
      if (inserted) verify_graph_.AddCounter(spec->name + ".counter");
      node.counter = it->second;
    }
    if (spec->status != nullptr) {
      auto [it, inserted] = verify_status_ids_.emplace(
          spec->status, static_cast<int>(verify_graph_.statuses.size()));
      if (inserted) verify_graph_.AddStatus(spec->name + ".status");
      node.status = it->second;
    }
    for (const StageSpec::ResourceClaim& claim : spec->claims) {
      auto [it, inserted] = verify_resource_ids_.emplace(
          claim.resource, static_cast<int>(verify_graph_.resources.size()));
      if (inserted) verify_graph_.AddResource(claim.name);
      node.claims.push_back({it->second, claim.mode});
    }
    // The simulation cannot see driver-side ShuffleChannel::Reset() calls
    // (or channels recycled across jobs); the real readiness flags can.
    // Snapshot them so the lifecycle checks run against reality.
    if (spec->input_slices != nullptr) {
      verifier_->SetLivePublished(
          node.input_channel, spec->input_slices->readiness().NumPublished());
    }
    if (spec->output_slices != nullptr) {
      verifier_->SetLivePublished(
          node.output_channel,
          spec->output_slices->readiness().NumPublished());
    }
  }
  const size_t before = verify_diagnostics_.diagnostics().size();
  verifier_->VerifyPending(&verify_diagnostics_);
  bool stage_graph_contracts_hold = true;
  for (size_t i = before; i < verify_diagnostics_.diagnostics().size(); ++i) {
    const lint::Diagnostic& d = verify_diagnostics_.diagnostics()[i];
    if (d.severity == lint::Severity::kError) {
      stage_graph_contracts_hold = false;
      std::fprintf(stderr, "%s\n", d.ToString().c_str());
    }
  }
  // Malformed orchestration is a programmer error, caught before any task
  // of the submission has run.
  RASQL_CHECK(stage_graph_contracts_hold);
}

const StageMetrics& Cluster::RunStage(const StageSpec& spec,
                                      const StageTask& task) {
  if (verify_enabled_) VerifySubmission({&spec});
  return RunStageUnverified(spec, task);
}

const StageMetrics& Cluster::RunStageUnverified(const StageSpec& spec,
                                                const StageTask& task) {
  std::vector<TaskIo> ios;
  std::vector<double> task_seconds;
  const std::function<TaskIo(int)> run = [&](int p) {
    TaskContext ctx(&spec, p, config_.num_partitions);
    task(ctx);
    // Publish after the body so a consumer that sees the slice also sees
    // its rows (release/acquire pair in SliceReadiness).
    if (spec.output_slices != nullptr) spec.output_slices->Publish(p);
    return std::move(ctx.io_);
  };
  executor_.Map<TaskIo>(config_.num_partitions, run, &ios, &task_seconds);
  return AccountStage(spec.name, &ios, task_seconds);
}

const StageMetrics& Cluster::RunStage(const StageSpec& spec,
                                      const StageTask& split_task,
                                      const StageTask& main_task) {
  const int P = config_.num_partitions;
  // Flatten the requested sub-tasks: partition p owns the contiguous id
  // range [split_begin[p], split_begin[p + 1]) of split tasks.
  std::vector<int> nsplits(P, 0);
  std::vector<int> split_begin(P + 1, 0);
  int total_splits = 0;
  int max_splits = 1;
  for (int p = 0; p < P; ++p) {
    split_begin[p] = total_splits;
    if (spec.split_tasks) nsplits[p] = std::max(0, spec.split_tasks(p));
    total_splits += nsplits[p];
    max_splits = std::max(max_splits, nsplits[p]);
  }
  split_begin[P] = total_splits;
  if (total_splits == 0) return RunStage(spec, main_task);
  if (verify_enabled_) VerifySubmission({&spec});

  // One DAG, topologically ordered: sub-tasks [0, S) then finalize tasks
  // [S, S + P). Finalize task S + p depends on exactly its partition's
  // sub-tasks, so it is released the moment the last of its own morsels
  // lands — independent of sibling partitions' stragglers.
  const int S = total_splits;
  std::vector<int> deps(S + P, 0);
  std::vector<std::vector<int>> dependents(S + P);
  std::vector<int> split_partition(S, 0);
  for (int p = 0; p < P; ++p) {
    deps[S + p] = nsplits[p];
    for (int i = split_begin[p]; i < split_begin[p + 1]; ++i) {
      split_partition[i] = p;
      dependents[i].push_back(S + p);
    }
  }

  std::vector<TaskIo> ios;
  std::vector<double> task_seconds;
  const std::function<TaskIo(int)> run = [&](int i) {
    if (i < S) {
      const int p = split_partition[i];
      TaskContext ctx(&spec, p, P, /*split_index=*/i - split_begin[p],
                      /*num_splits=*/nsplits[p]);
      split_task(ctx);
      return std::move(ctx.io_);
    }
    TaskContext ctx(&spec, i - S, P);
    main_task(ctx);
    if (spec.output_slices != nullptr) spec.output_slices->Publish(i - S);
    return std::move(ctx.io_);
  };
  executor_.MapGraph<TaskIo>(S + P, run, deps, dependents, &ios,
                             &task_seconds);

  // One partition-ordered report per partition: the finalize task's I/O
  // (sub-tasks are barred from reporting) with the partition's sub-task
  // seconds folded into its measured time. The cost model therefore sees
  // exactly what an unsplit stage would report, modulo measured seconds —
  // modeled byte counts and task counts are split-invariant.
  std::vector<TaskIo> main_ios(std::make_move_iterator(ios.begin() + S),
                               std::make_move_iterator(ios.end()));
  std::vector<double> merged_seconds(task_seconds.begin() + S,
                                     task_seconds.end());
  for (int i = 0; i < S; ++i) {
    merged_seconds[split_partition[i]] += task_seconds[i];
  }
  StageMetrics& stage = AccountStage(spec.name, &main_ios, merged_seconds);
  stage.num_exec_tasks = S + P;
  stage.max_partition_splits = max_splits;
  return stage;
}

void Cluster::RunStagePair(const StageSpec& map_spec,
                           const StageTask& map_task,
                           const StageSpec& reduce_spec,
                           const StageTask& reduce_task) {
  // Verified as one concurrency group either way: the contract of a pair
  // (reduce consumes what map publishes, accumulators distinct, shared
  // resources ordered by the slice dependency) is the same whether the
  // runtime interleaves the 2P tasks or barriers between the stages.
  if (verify_enabled_) VerifySubmission({&map_spec, &reduce_spec});

  const bool pipelined = executor_.options().async_shuffle &&
                         executor_.num_threads() > 1 &&
                         map_spec.output_slices != nullptr &&
                         reduce_spec.input_slices == map_spec.output_slices;
  if (!pipelined) {
    RunStageUnverified(map_spec, map_task);
    RunStageUnverified(reduce_spec, reduce_task);
    return;
  }

  // One DAG of 2P tasks, topologically ordered: producers [0, P), then
  // consumers [P, 2P). Consumer P+c needs one slice from every producer,
  // so it depends on all P of them and is released the moment the last
  // slice it needs is published — while sibling consumers may still be
  // waiting on stragglers.
  const int P = config_.num_partitions;
  std::vector<int> deps(2 * P, 0);
  std::vector<std::vector<int>> dependents(2 * P);
  for (int c = 0; c < P; ++c) deps[P + c] = P;
  for (int p = 0; p < P; ++p) {
    dependents[p].reserve(P);
    for (int c = 0; c < P; ++c) dependents[p].push_back(P + c);
  }

  std::vector<TaskIo> ios;
  std::vector<double> task_seconds;
  const std::function<TaskIo(int)> run = [&](int i) {
    if (i < P) {
      TaskContext ctx(&map_spec, i, P);
      map_task(ctx);
      map_spec.output_slices->Publish(i);
      return std::move(ctx.io_);
    }
    TaskContext ctx(&reduce_spec, i - P, P);
    reduce_task(ctx);
    return std::move(ctx.io_);
  };
  executor_.MapGraph<TaskIo>(2 * P, run, deps, dependents, &ios,
                             &task_seconds);

  // Account the map stage, then the reduce stage, each from its
  // partition-ordered reports — the exact sequence the barriered path
  // produces, so the modeled job is bit-identical.
  std::vector<TaskIo> map_ios(std::make_move_iterator(ios.begin()),
                              std::make_move_iterator(ios.begin() + P));
  std::vector<double> map_seconds(task_seconds.begin(),
                                  task_seconds.begin() + P);
  AccountStage(map_spec.name, &map_ios, map_seconds);

  std::vector<TaskIo> reduce_ios(std::make_move_iterator(ios.begin() + P),
                                 std::make_move_iterator(ios.end()));
  std::vector<double> reduce_seconds(task_seconds.begin() + P,
                                     task_seconds.end());
  AccountStage(reduce_spec.name, &reduce_ios, reduce_seconds);
}

void Cluster::Broadcast(size_t bytes) {
  metrics_.broadcast_bytes += bytes;
  // The driver streams the payload to every worker (Spark's torrent
  // broadcast amortizes this; we charge the simple star topology, which is
  // what the paper's "broadcasting a large relation takes time" refers to).
  metrics_.broadcast_time_sec += static_cast<double>(bytes) *
                                 config_.num_workers /
                                 config_.network_bytes_per_sec;
}

void Cluster::ChargeDriverCompute(double seconds) {
  metrics_.broadcast_time_sec += seconds;
}

}  // namespace rasql::dist
