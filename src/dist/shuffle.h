#ifndef RASQL_DIST_SHUFFLE_H_
#define RASQL_DIST_SHUFFLE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "dist/partition.h"

namespace rasql::dist {

/// Lifecycle tracker for the slices of one map→reduce shuffle exchange.
/// Producer partition p's ShuffleWrite holds one slice per consumer; the
/// whole write is *published* atomically when p's map task completes, and
/// a consumer marks itself *consumed* once it has gathered its slices.
/// Publication is a release store and observation an acquire load, so a
/// consumer that sees a slice as published also sees its rows — the
/// happens-before edge the async-shuffle pipeline rides on (DESIGN.md §8).
class SliceReadiness {
 public:
  SliceReadiness() = default;
  explicit SliceReadiness(int num_partitions) { Reset(num_partitions); }

  /// Re-arms the tracker for `num_partitions` producers/consumers, all
  /// unpublished and unconsumed. Not thread-safe; call between stages.
  void Reset(int num_partitions) {
    published_ = std::vector<std::atomic<uint8_t>>(num_partitions);
    consumed_ = std::vector<std::atomic<uint8_t>>(num_partitions);
  }

  int num_partitions() const { return static_cast<int>(published_.size()); }

  void Publish(int producer) {
    published_[producer].store(1, std::memory_order_release);
  }
  bool Published(int producer) const {
    return published_[producer].load(std::memory_order_acquire) != 0;
  }
  int NumPublished() const {
    int n = 0;
    for (const auto& f : published_) {
      n += f.load(std::memory_order_acquire) != 0;
    }
    return n;
  }
  bool AllPublished() const {
    return NumPublished() == num_partitions();
  }

  void MarkConsumed(int consumer) {
    consumed_[consumer].store(1, std::memory_order_release);
  }
  bool Consumed(int consumer) const {
    return consumed_[consumer].load(std::memory_order_acquire) != 0;
  }

 private:
  std::vector<std::atomic<uint8_t>> published_;
  std::vector<std::atomic<uint8_t>> consumed_;
};

/// One shuffle exchange: the per-producer ShuffleWrite slots plus their
/// readiness lifecycle. Producer tasks deposit with Put(); the stage
/// runtime publishes a producer's slices when its task completes; consumer
/// tasks Gather() the slices addressed to them. A StageSpec names the
/// channel a stage reads and/or writes, which is what lets the runtime
/// schedule consumers against producers instead of against a stage barrier.
class ShuffleChannel {
 public:
  explicit ShuffleChannel(int num_partitions)
      : num_partitions_(num_partitions),
        writes_(num_partitions, ShuffleWrite(num_partitions)),
        readiness_(num_partitions) {}

  /// Clears rows, byte counts and readiness so the channel can carry the
  /// next iteration's exchange. Not thread-safe; call between stages.
  void Reset() {
    writes_.assign(num_partitions_, ShuffleWrite(num_partitions_));
    readiness_.Reset(num_partitions_);
  }

  int num_partitions() const { return num_partitions_; }

  /// Deposits producer p's map output. The slices stay invisible to
  /// consumers until Publish(p).
  void Put(int producer, ShuffleWrite write) {
    writes_[producer] = std::move(write);
  }
  void Publish(int producer) { readiness_.Publish(producer); }

  const ShuffleWrite& write(int producer) const { return writes_[producer]; }

  /// Moves the rows addressed to `consumer` out of every *published*
  /// producer's slice, in ascending producer order, and marks the consumer
  /// done. Each slice has exactly one consumer, so its chunks move whole
  /// into one relation: no row is copied or materialized, and the slice is
  /// left empty (the cost model reads `bytes_per_dest`, not the rows).
  /// Under the all-slices dependency the pipeline declares, every producer
  /// is published by the time a consumer runs, so this gathers the full
  /// exchange — the partial-visibility behaviour exists so tests can pin
  /// down that unpublished slices are never observed, and stay in place.
  storage::Relation Gather(int consumer) {
    storage::Relation rows;
    for (int src = 0; src < num_partitions_; ++src) {
      if (!readiness_.Published(src)) continue;
      rows.AppendChunks(
          std::move(writes_[src].slice_per_dest[consumer]));
    }
    readiness_.MarkConsumed(consumer);
    return rows;
  }

  /// Rows currently buffered across all slices. Driver-side, post-barrier
  /// and before the consuming stage Gathers them: the fixpoint's "anything
  /// new this iteration?" check.
  size_t TotalRows() const {
    size_t n = 0;
    for (const ShuffleWrite& w : writes_) {
      for (const auto& slice : w.slice_per_dest) n += slice.size();
    }
    return n;
  }

  SliceReadiness& readiness() { return readiness_; }
  const SliceReadiness& readiness() const { return readiness_; }

 private:
  int num_partitions_;
  std::vector<ShuffleWrite> writes_;
  SliceReadiness readiness_;
};

}  // namespace rasql::dist

#endif  // RASQL_DIST_SHUFFLE_H_
