#ifndef RASQL_RUNTIME_STAGE_EXECUTOR_H_
#define RASQL_RUNTIME_STAGE_EXECUTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"

namespace rasql::runtime {

/// Executes the task closures of one simulated-cluster stage for real —
/// concurrently on the work-stealing pool when more than one thread is
/// configured — while keeping everything the cost model consumes in
/// deterministic partition order. Each task is individually wall-clock
/// timed; `results[p]` and `task_seconds[p]` land in slot p regardless of
/// which thread ran the task or when it finished, so the simulated
/// placement/network accounting downstream is thread-count-independent.
class StageExecutor {
 public:
  explicit StageExecutor(RuntimeOptions options);

  const RuntimeOptions& options() const { return options_; }
  /// Actual number of task-executing threads (>= 1, auto resolved).
  int num_threads() const { return num_threads_; }
  /// The pool stage tasks run on; null on the one-thread inline path.
  /// Driver-side work that is not a modeled stage (the fixpoint prologue
  /// and canonical collect, DESIGN.md §16) borrows it between stages.
  ThreadPool* pool() const { return pool_; }

  /// Runs task(p) for every p in [0, num_tasks), filling `results` and
  /// `task_seconds` in partition order. R must be default-constructible
  /// and move-assignable. Task closures may be invoked concurrently: they
  /// must only touch partition-owned state (see DESIGN.md §7).
  template <typename R>
  void Map(int num_tasks, const std::function<R(int)>& task,
           std::vector<R>* results, std::vector<double>* task_seconds) {
    results->clear();
    results->resize(num_tasks);
    task_seconds->assign(num_tasks, 0.0);
    auto timed = [&](int p) {
      common::Timer timer;
      (*results)[p] = task(p);
      (*task_seconds)[p] = timer.ElapsedSeconds();
    };
    if (pool_ == nullptr) {
      for (int p = 0; p < num_tasks; ++p) timed(p);
      return;
    }
    pool_->ParallelFor(num_tasks, timed);
  }

  /// Like Map, but the tasks form a dependency DAG (see
  /// ThreadPool::ParallelForGraph): task i starts once its deps[i]
  /// prerequisites finished and releases the tasks listed in dependents[i].
  /// Indices must be topologically ordered. Used by the async-shuffle
  /// pipeline to run a reduce task as soon as its input slices are
  /// published (DESIGN.md §8). Results and timings still land in slot
  /// order, so the cost model downstream is unaffected.
  template <typename R>
  void MapGraph(int num_tasks, const std::function<R(int)>& task,
                const std::vector<int>& deps,
                const std::vector<std::vector<int>>& dependents,
                std::vector<R>* results, std::vector<double>* task_seconds) {
    results->clear();
    results->resize(num_tasks);
    task_seconds->assign(num_tasks, 0.0);
    auto timed = [&](int i) {
      common::Timer timer;
      (*results)[i] = task(i);
      (*task_seconds)[i] = timer.ElapsedSeconds();
    };
    if (pool_ == nullptr) {
      for (int i = 0; i < num_tasks; ++i) timed(i);
      return;
    }
    pool_->ParallelForGraph(num_tasks, timed, deps, dependents);
  }

 private:
  RuntimeOptions options_;
  int num_threads_;
  /// Null when num_threads == 1 and no shared pool is configured: the
  /// sequential path allocates nothing and takes no locks, matching the
  /// pre-runtime executor exactly. Points at `owned_pool_` or at the
  /// externally-owned RuntimeOptions::shared_pool.
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace rasql::runtime

#endif  // RASQL_RUNTIME_STAGE_EXECUTOR_H_
