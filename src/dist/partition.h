#ifndef RASQL_DIST_PARTITION_H_
#define RASQL_DIST_PARTITION_H_

#include <string>
#include <vector>

#include "storage/relation.h"

namespace rasql::runtime {
class ThreadPool;
}  // namespace rasql::runtime

namespace rasql::dist {

/// Hash partitioning spec: which columns form the key and how many
/// partitions exist (paper Appendix A).
struct Partitioning {
  std::vector<int> key_columns;
  int num_partitions = 0;

  bool valid() const { return num_partitions > 0; }
  /// Partition id of a row under this spec.
  int PartitionOf(const storage::Row& row) const {
    return static_cast<int>(storage::HashRowKey(row, key_columns) %
                            static_cast<uint64_t>(num_partitions));
  }
  /// PartitionOf the materialized row `row` of `chunk`, hashed from its
  /// column arrays.
  int PartitionOf(const storage::ColumnChunk& chunk, size_t row) const {
    return static_cast<int>(chunk.HashKey(row, key_columns) %
                            static_cast<uint64_t>(num_partitions));
  }
  bool operator==(const Partitioning& other) const {
    return key_columns == other.key_columns &&
           num_partitions == other.num_partitions;
  }
};

/// A relation hash-partitioned across the cluster — the RDD analogue. The
/// `partitioning` records how rows were placed so downstream operators can
/// tell whether a shuffle is needed (co-partitioning checks in Alg. 4-6).
class PartitionedRelation {
 public:
  PartitionedRelation() = default;
  PartitionedRelation(storage::Schema schema, Partitioning partitioning);

  const storage::Schema& schema() const { return schema_; }
  const Partitioning& partitioning() const { return partitioning_; }
  int num_partitions() const { return partitioning_.num_partitions; }

  const storage::Relation& partition(int p) const { return partitions_[p]; }
  storage::Relation* mutable_partition(int p) { return &partitions_[p]; }

  /// Adds a row to the partition selected by the partitioning spec.
  void Add(storage::Row row);

  size_t TotalRows() const;
  size_t TotalBytes() const;
  bool Empty() const { return TotalRows() == 0; }

  /// Gathers all partitions into one local relation (driver collect()).
  storage::Relation Collect() const;

 private:
  storage::Schema schema_;
  Partitioning partitioning_;
  std::vector<storage::Relation> partitions_;
};

/// Hash-partitions `input` on `key_columns` into `num_partitions` pieces,
/// each holding its rows in input order — identical to adding the rows one
/// by one. Runs on `pool` when given: destinations are hashed chunk by
/// chunk straight from the column arrays (ColumnChunk::HashKey), then
/// every partition gathers its own rows as one task.
PartitionedRelation Partition(const storage::Relation& input,
                              std::vector<int> key_columns,
                              int num_partitions,
                              runtime::ThreadPool* pool = nullptr);

/// Map-side shuffle output: rows bucketed by destination partition as
/// column-chunked slices, plus the byte counts the cost model needs.
/// `bytes_per_dest` keeps the row-encoding estimate (RowByteSize) so the
/// modeled shuffle volumes are unchanged by the columnar layout.
struct ShuffleWrite {
  std::vector<storage::Relation> slice_per_dest;
  std::vector<size_t> bytes_per_dest;

  explicit ShuffleWrite(int num_partitions)
      : slice_per_dest(num_partitions), bytes_per_dest(num_partitions, 0) {}

  /// Routes row `row` of `chunk` to its destination's slice, copying the
  /// cells from the column arrays.
  void Add(const storage::ColumnChunk& chunk, size_t row,
           const Partitioning& partitioning) {
    const int dest = partitioning.PartitionOf(chunk, row);
    bytes_per_dest[dest] += chunk.RowByteSize(row);
    slice_per_dest[dest].AppendRowFrom(chunk, row);
  }

  /// Routes every row of `rel`, in order.
  void AddAll(const storage::Relation& rel, const Partitioning& partitioning) {
    for (size_t c = 0; c < rel.num_chunks(); ++c) {
      const storage::ColumnChunk& chunk = rel.chunk(c);
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        Add(chunk, r, partitioning);
      }
    }
  }
};

/// Moves the slices addressed to partition `dest` out of every map task's
/// ShuffleWrite, in writer order — the reduce-side read. Each slice has
/// one reader, so its chunks move whole and the slice is left empty; no
/// row is copied or materialized. Reduce tasks of distinct `dest` may run
/// concurrently: each touches only its own slices.
storage::Relation GatherShuffle(std::vector<ShuffleWrite>* writes, int dest);

}  // namespace rasql::dist

#endif  // RASQL_DIST_PARTITION_H_
