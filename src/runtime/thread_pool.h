#ifndef RASQL_RUNTIME_THREAD_POOL_H_
#define RASQL_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/task_queue.h"

namespace rasql::runtime {

/// A work-stealing thread pool for stage execution. `num_threads` is the
/// number of threads that execute tasks: the calling thread participates as
/// worker 0, so the pool spawns `num_threads - 1` background workers. With
/// one thread, ParallelFor degenerates to an inline sequential loop — no
/// threads, no locks, exactly the pre-runtime behaviour.
///
/// Scheduling: ParallelFor deals task indices round-robin across the
/// per-worker deques, wakes every worker, and lets the pool self-balance —
/// a worker that drains its own deque steals the oldest half of a victim's
/// (TaskQueue::StealHalf), repatriating the surplus to its own deque where
/// other thieves can find it. Stolen work therefore diffuses instead of
/// ping-ponging one task at a time.
///
/// ParallelForGraph generalizes this to a task DAG: tasks may declare
/// dependencies and are released into the deques incrementally as their
/// prerequisites complete, so downstream tasks overlap with still-running
/// upstream ones (the async-shuffle pipeline, DESIGN.md §8). Workers park
/// on a signal epoch that is bumped both at submission and whenever a
/// completing task releases new work, so a sleeping worker never misses a
/// mid-job release.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(i) for every i in [0, num_tasks), returning after all calls
  /// complete. The calling thread executes tasks too. Concurrent calls from
  /// different threads are serialized; nested calls from inside a task
  /// would self-deadlock and must not be made.
  void ParallelFor(int num_tasks, const std::function<void(int)>& body);

  /// Runs body(i) for every i in [0, num_tasks) respecting a dependency
  /// DAG: task i starts only after deps[i] prerequisite tasks finished,
  /// and finishing task i decrements the wait count of every task in
  /// dependents[i] (releasing those that reach zero). Tasks must be
  /// topologically ordered by index — i's prerequisites all have smaller
  /// indices — so the one-thread path can run 0..n-1 inline. At least one
  /// task must have deps == 0. The same nesting/serialization rules as
  /// ParallelFor apply.
  void ParallelForGraph(int num_tasks, const std::function<void(int)>& body,
                        const std::vector<int>& deps,
                        const std::vector<std::vector<int>>& dependents);

  /// Number of hardware threads, always >= 1.
  static int HardwareThreads();

 private:
  void WorkerLoop(int self);
  /// Pops one task from `self`'s deque or steals from a victim; runs it.
  /// False when no runnable task was found anywhere.
  bool RunOneTask(int self);
  void FinishTask();
  /// Bumps the signal epoch and wakes everyone: parked workers re-drain,
  /// and a waiting submitter re-enters its drain loop. Called at submission
  /// and whenever a completing task releases dependent tasks.
  void NotifyMoreWork();
  /// The submitter's half of a job: announce it, participate as worker 0
  /// until the deques are dry, park until either the job completes or a
  /// release signal arrives, repeat.
  void RunJobAsWorkerZero();

  int num_threads_;
  std::vector<std::unique_ptr<TaskQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here between signals
  std::condition_variable done_cv_;  ///< the submitter waits here
  /// Epoch bumped on submission and on every mid-job release of dependent
  /// tasks. A worker whose last observed epoch differs has work to look for.
  uint64_t signal_ = 0;
  bool stop_ = false;
  std::atomic<int> pending_{0};

  std::mutex submit_mu_;  ///< serializes concurrent ParallelFor calls
};

/// `pool->ParallelFor(num_tasks, body)`, or an inline loop in index order
/// when `pool` is null — a one-thread cluster runtime owns no pool
/// (StageExecutor::pool()).
void ParallelFor(ThreadPool* pool, int num_tasks,
                 const std::function<void(int)>& body);

}  // namespace rasql::runtime

#endif  // RASQL_RUNTIME_THREAD_POOL_H_
