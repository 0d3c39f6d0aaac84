#include "dist/partition.h"

#include "common/check.h"
#include "runtime/thread_pool.h"

namespace rasql::dist {

using storage::Relation;
using storage::Row;

PartitionedRelation::PartitionedRelation(storage::Schema schema,
                                         Partitioning partitioning)
    : schema_(std::move(schema)), partitioning_(std::move(partitioning)) {
  RASQL_CHECK(partitioning_.num_partitions > 0);
  partitions_.resize(partitioning_.num_partitions, Relation(schema_));
}

void PartitionedRelation::Add(Row row) {
  const int p = partitioning_.PartitionOf(row);
  partitions_[p].Add(std::move(row));
}

size_t PartitionedRelation::TotalRows() const {
  size_t n = 0;
  for (const Relation& p : partitions_) n += p.size();
  return n;
}

size_t PartitionedRelation::TotalBytes() const {
  size_t n = 0;
  for (const Relation& p : partitions_) n += p.ByteSize();
  return n;
}

Relation PartitionedRelation::Collect() const {
  Relation out(schema_);
  out.Reserve(TotalRows());
  for (const Relation& p : partitions_) {
    p.ForEachRow([&](const Row& row) { out.Add(row); });
  }
  return out;
}

PartitionedRelation Partition(const Relation& input,
                              std::vector<int> key_columns,
                              int num_partitions, runtime::ThreadPool* pool) {
  Partitioning spec{std::move(key_columns), num_partitions};
  PartitionedRelation out(input.schema(), spec);
  const int num_chunks = static_cast<int>(input.num_chunks());
  std::vector<uint32_t> dest(input.size());
  runtime::ParallelFor(pool, num_chunks, [&](int c) {
    const storage::ColumnChunk& chunk = input.chunk(c);
    uint32_t* out_dest = dest.data() + input.chunk_begin(c);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      out_dest[r] = static_cast<uint32_t>(
          chunk.HashKey(r, spec.key_columns) %
          static_cast<uint64_t>(num_partitions));
    }
  });
  runtime::ParallelFor(pool, num_partitions, [&](int p) {
    Relation* part = out.mutable_partition(p);
    for (int c = 0; c < num_chunks; ++c) {
      const storage::ColumnChunk& chunk = input.chunk(c);
      const uint32_t* chunk_dest = dest.data() + input.chunk_begin(c);
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        if (chunk_dest[r] != static_cast<uint32_t>(p)) continue;
        part->AppendRowFrom(chunk, r);
      }
    }
  });
  return out;
}

Relation GatherShuffle(std::vector<ShuffleWrite>* writes, int dest) {
  Relation out;
  for (ShuffleWrite& w : *writes) {
    out.AppendChunks(std::move(w.slice_per_dest[dest]));
  }
  return out;
}

}  // namespace rasql::dist
