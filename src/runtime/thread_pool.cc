#include "runtime/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace rasql::runtime {

namespace {
/// Which pool worker the current thread is acting as. Tasks released
/// mid-job (ParallelForGraph) are pushed onto the releasing worker's own
/// deque, where it pops them LIFO-hot or thieves find them.
thread_local int tl_worker = 0;
}  // namespace

int ThreadPool::HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  queues_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    queues_.push_back(std::make_unique<TaskQueue>());
  }
  workers_.reserve(num_threads_ - 1);
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::FinishTask() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task of the job: wake the submitter. Locking mu_ orders the
    // notify after the submitter's wait registration.
    std::lock_guard<std::mutex> lock(mu_);
    done_cv_.notify_all();
  }
}

void ThreadPool::NotifyMoreWork() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++signal_;
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
}

bool ThreadPool::RunOneTask(int self) {
  Task task;
  if (queues_[self]->PopBottom(&task)) {
    task();
    FinishTask();
    return true;
  }
  for (int i = 1; i < num_threads_; ++i) {
    const int victim = (self + i) % num_threads_;
    std::vector<Task> stolen;
    if (queues_[victim]->StealHalf(&stolen) > 0) {
      // Run the oldest stolen task now; repatriate the rest to our own
      // deque, where further thieves can find them.
      task = std::move(stolen.front());
      for (size_t j = 1; j < stolen.size(); ++j) {
        queues_[self]->PushBottom(std::move(stolen[j]));
      }
      task();
      FinishTask();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int self) {
  tl_worker = self;
  uint64_t seen_signal = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || signal_ != seen_signal; });
      if (stop_) return;
      seen_signal = signal_;
    }
    // Drain: own deque first, then steal. A task that releases dependents
    // bumps the signal, so a worker that goes back to sleep between the
    // release and the next drain attempt is re-woken — no release is ever
    // missed.
    while (RunOneTask(self)) {
    }
  }
}

void ThreadPool::RunJobAsWorkerZero() {
  uint64_t seen;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seen = ++signal_;
  }
  work_cv_.notify_all();
  tl_worker = 0;
  // The submitter is worker 0: drain, park until the job completes or new
  // work is released, drain again.
  while (true) {
    while (RunOneTask(0)) {
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (pending_.load(std::memory_order_acquire) == 0) return;
    done_cv_.wait(lock, [&] {
      return pending_.load(std::memory_order_acquire) == 0 ||
             signal_ != seen;
    });
    if (pending_.load(std::memory_order_acquire) == 0) return;
    seen = signal_;
  }
}

void ThreadPool::ParallelFor(int num_tasks,
                             const std::function<void(int)>& body) {
  if (num_tasks <= 0) return;
  if (num_threads_ == 1 || num_tasks == 1) {
    for (int i = 0; i < num_tasks; ++i) body(i);
    return;
  }
  std::lock_guard<std::mutex> submit(submit_mu_);
  RASQL_CHECK(pending_.load(std::memory_order_relaxed) == 0);
  pending_.store(num_tasks, std::memory_order_release);
  for (int i = 0; i < num_tasks; ++i) {
    queues_[i % num_threads_]->PushBottom([&body, i] { body(i); });
  }
  RunJobAsWorkerZero();
}

void ThreadPool::ParallelForGraph(
    int num_tasks, const std::function<void(int)>& body,
    const std::vector<int>& deps,
    const std::vector<std::vector<int>>& dependents) {
  if (num_tasks <= 0) return;
  RASQL_CHECK(static_cast<int>(deps.size()) == num_tasks);
  RASQL_CHECK(static_cast<int>(dependents.size()) == num_tasks);
  if (num_threads_ == 1) {
    // Topological index order satisfies every dependency inline.
    for (int i = 0; i < num_tasks; ++i) body(i);
    return;
  }
  std::lock_guard<std::mutex> submit(submit_mu_);
  RASQL_CHECK(pending_.load(std::memory_order_relaxed) == 0);
  pending_.store(num_tasks, std::memory_order_release);

  // Outstanding prerequisites per task. Lives on the submitter's stack:
  // every access happens before the job's last FinishTask, which the
  // submitter waits out before returning.
  std::vector<std::atomic<int>> remaining(num_tasks);
  for (int i = 0; i < num_tasks; ++i) {
    remaining[i].store(deps[i], std::memory_order_relaxed);
  }

  // Run the body, then release any dependent whose last prerequisite this
  // was. The acq_rel RMW chain on remaining[d] makes every producer's
  // writes visible to the released task (which the releasing worker pushes
  // onto its own deque under that deque's lock).
  std::function<void(int)> run_task;
  run_task = [&](int i) {
    body(i);
    bool released = false;
    for (int d : dependents[i]) {
      if (remaining[d].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        queues_[tl_worker]->PushBottom([&run_task, d] { run_task(d); });
        released = true;
      }
    }
    if (released) NotifyMoreWork();
  };

  int roots = 0;
  for (int i = 0; i < num_tasks; ++i) {
    if (deps[i] == 0) {
      queues_[roots++ % num_threads_]->PushBottom(
          [&run_task, i] { run_task(i); });
    }
  }
  RASQL_CHECK(roots > 0);
  RunJobAsWorkerZero();
}

void ParallelFor(ThreadPool* pool, int num_tasks,
                 const std::function<void(int)>& body) {
  if (pool != nullptr) {
    pool->ParallelFor(num_tasks, body);
    return;
  }
  for (int i = 0; i < num_tasks; ++i) body(i);
}

}  // namespace rasql::runtime
