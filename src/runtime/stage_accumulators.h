#ifndef RASQL_RUNTIME_STAGE_ACCUMULATORS_H_
#define RASQL_RUNTIME_STAGE_ACCUMULATORS_H_

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"

namespace rasql::runtime {

// ---- Stage-shared accumulators. Task closures may run concurrently on
// the work-stealing runtime, so anything shared across partitions goes
// through one of these instead of a bare captured variable. ----

/// Counter updated from concurrent tasks. Each task owns a slot and the
/// driver sums the slots after the stage barrier in ascending partition
/// order, so the total is bit-identical at any thread count.
class StageCounter {
 public:
  explicit StageCounter(int num_tasks) : slots_(num_tasks, 0) {}

  void Add(int p, size_t n) { slots_[p] += n; }

  /// Post-barrier total; call only after the stage completes.
  size_t Total() const {
    size_t total = 0;
    for (size_t s : slots_) total += s;
    return total;
  }

 private:
  std::vector<size_t> slots_;
};

/// Per-task failure slots plus a shared abort flag. Each task records its
/// own failure; long-running tasks poll `aborted()` to stop early once any
/// sibling failed. The driver reports the lowest-partition failure, so the
/// surfaced error is deterministic regardless of completion order.
class StageStatus {
 public:
  explicit StageStatus(int num_tasks) : statuses_(num_tasks) {}

  void Fail(int p, common::Status s) {
    statuses_[p] = std::move(s);
    aborted_.store(true, std::memory_order_release);
  }
  bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }
  /// Post-barrier: the first (lowest-partition) failure, or OK.
  common::Status First() const {
    for (const common::Status& s : statuses_) {
      if (!s.ok()) return s;
    }
    return common::Status::OK();
  }

 private:
  std::vector<common::Status> statuses_;
  std::atomic<bool> aborted_{false};
};

}  // namespace rasql::runtime

#endif  // RASQL_RUNTIME_STAGE_ACCUMULATORS_H_
