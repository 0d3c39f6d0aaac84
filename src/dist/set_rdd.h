#ifndef RASQL_DIST_SET_RDD_H_
#define RASQL_DIST_SET_RDD_H_

#include <vector>

#include "dist/aggregates.h"
#include "dist/partition.h"
#include "storage/group_table.h"
#include "storage/key_arrays.h"
#include "storage/relation.h"

namespace rasql::dist {

/// One partition of the `all` relation held as mutable hash state — the
/// paper's SetRDD (Sec. 6.1). Union is O(new tuples) instead of copying the
/// whole RDD; with an aggregate, the state maps each key to its best or
/// accumulated value, implementing Alg. 5's extended set-difference/union.
/// The state is one storage::GroupTable (DESIGN.md §17): rows stay in typed
/// key arrays from the shuffle slice to the sorted epilogue run.
class SetRddPartition {
 public:
  SetRddPartition(storage::Schema schema, AggSpec spec);

  /// Merges candidate rows into the state, in slice order. Rows that
  /// change the state (new key, improved min/max, or a sum/count
  /// increment) are appended to `*delta` in the form that must drive the
  /// next iteration — the candidate row itself:
  ///   - set semantics / min / max: the row now stored;
  ///   - sum / count: the *increment* (new paths discovered this round).
  void MergeDelta(const storage::Relation& candidates,
                  storage::Relation* delta);

  /// Loads already-converged rows into the state without emitting a delta —
  /// the warm-start prologue (DESIGN.md §14). Aggregate rows overwrite any
  /// existing key outright: the input is a prior fixpoint, not a candidate
  /// stream, so its value for a key IS the converged value.
  void Absorb(const storage::Relation& converged);

  size_t size() const { return state_.num_groups(); }
  /// Approximate bytes of cached state — feeds TaskIo::cached_state_bytes.
  /// The RowByteSize sum of the rows that opened a group.
  size_t byte_size() const { return byte_size_; }

  const storage::Schema& schema() const { return schema_; }

  /// Materializes the state as a relation (final fixpoint output), groups
  /// in first-seen order.
  storage::Relation ToRelation() const;
  /// Appends the state's rows, in group order, to `*out`.
  void AppendTo(storage::Relation* out) const { state_.rows().AppendTo(out); }

  /// Moves the state's typed key arrays out, sorted in the canonical order:
  /// the per-partition half of SetRdd::CanonicalCollect. The partition is
  /// empty afterwards.
  storage::KeyArrays TakeSortedRun();

 private:
  storage::Schema schema_;
  AggSpec spec_;
  storage::GroupTable state_;
  size_t byte_size_ = 0;
};

/// The partitioned `all` relation: one SetRddPartition per partition,
/// co-partitioned with the delta on the recursive relation's key columns.
class SetRdd {
 public:
  SetRdd(storage::Schema schema, AggSpec spec, Partitioning partitioning);

  const Partitioning& partitioning() const { return partitioning_; }
  int num_partitions() const { return partitioning_.num_partitions; }

  SetRddPartition* partition(int p) { return &partitions_[p]; }
  const SetRddPartition& partition(int p) const { return partitions_[p]; }

  size_t TotalRows() const;
  size_t TotalBytes() const;

  /// Gathers the fixpoint result across partitions.
  storage::Relation Collect() const;

  /// The fixpoint epilogue (DESIGN.md §16): every partition, as one task
  /// on `pool` (inline when null), sorts its state's key arrays into a run
  /// and frees its hash slots; the runs are then k-way merged into chunks,
  /// by key range on the same pool when the result is large enough
  /// (storage::MergeSortedRuns). Equals `Collect()` followed by
  /// `SortRows()` byte for byte, and leaves every partition empty.
  storage::Relation CanonicalCollect(runtime::ThreadPool* pool);

 private:
  Partitioning partitioning_;
  std::vector<SetRddPartition> partitions_;
};

}  // namespace rasql::dist

#endif  // RASQL_DIST_SET_RDD_H_
