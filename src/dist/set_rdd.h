#ifndef RASQL_DIST_SET_RDD_H_
#define RASQL_DIST_SET_RDD_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dist/aggregates.h"
#include "dist/partition.h"
#include "storage/key_arrays.h"
#include "storage/relation.h"

namespace rasql::dist {

/// One partition of the `all` relation held as mutable hash state — the
/// paper's SetRDD (Sec. 6.1). Union is O(new tuples) instead of copying the
/// whole RDD; with an aggregate, the state is a key -> best/accumulated
/// value map implementing Alg. 5's extended set-difference/union.
class SetRddPartition {
 public:
  SetRddPartition(storage::Schema schema, AggSpec spec)
      : schema_(std::move(schema)), spec_(std::move(spec)) {}

  /// Merges candidate rows into the state. Rows that change the state (new
  /// key, improved min/max, or a sum/count increment) are appended to
  /// `*delta` in the form that must drive the next iteration:
  ///   - set semantics / min / max: the stored row;
  ///   - sum / count: the *increment* (new paths discovered this round).
  void MergeDelta(const std::vector<storage::Row>& candidates,
                  std::vector<storage::Row>* delta);

  /// Same merge over a chunked candidate slice (shuffle payloads); rows are
  /// visited in slice order, so the delta order matches the row overload.
  void MergeDelta(const storage::Relation& candidates,
                  std::vector<storage::Row>* delta);

  /// Loads already-converged rows into the state without emitting a delta —
  /// the warm-start prologue (DESIGN.md §14). Aggregate rows overwrite any
  /// existing key outright: the input is a prior fixpoint, not a candidate
  /// stream, so its value for a key IS the converged value.
  void Absorb(const storage::Relation& converged);

  size_t size() const {
    return spec_.has_aggregate() ? agg_state_.size() : set_state_.size();
  }
  /// Approximate bytes of cached state — feeds TaskIo::cached_state_bytes.
  size_t byte_size() const { return byte_size_; }

  const storage::Schema& schema() const { return schema_; }

  /// Materializes the state as a relation (final fixpoint output).
  storage::Relation ToRelation() const;

  /// Moves the state into typed key arrays sorted in the canonical order
  /// and frees the hash state: the per-partition half of
  /// SetRdd::CanonicalCollect. The partition is empty afterwards.
  storage::KeyArrays TakeSortedRun();

 private:
  void MergeOne(const storage::Row& row, bool accumulates,
                std::vector<storage::Row>* delta);

  storage::Schema schema_;
  AggSpec spec_;
  std::unordered_set<storage::Row, storage::RowHash, storage::RowEq>
      set_state_;
  std::unordered_map<storage::Row, storage::Value, storage::RowHash,
                     storage::RowEq>
      agg_state_;
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
  /// on `pool` (inline when null), turns its state into a sorted run of
  /// typed key arrays and frees its hash state; the caller then k-way
  /// merges the runs into chunks. Equals `Collect()` followed by
  /// `SortRows()` byte for byte, and leaves every partition empty.
  storage::Relation CanonicalCollect(runtime::ThreadPool* pool);

 private:
  Partitioning partitioning_;
  std::vector<SetRddPartition> partitions_;
};

}  // namespace rasql::dist

#endif  // RASQL_DIST_SET_RDD_H_
