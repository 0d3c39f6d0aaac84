#include "dist/set_rdd.h"

#include "common/check.h"
#include "runtime/thread_pool.h"

namespace rasql::dist {

using storage::Relation;

namespace {

bool Accumulates(const AggSpec& spec) {
  return spec.function == expr::AggregateFunction::kSum ||
         spec.function == expr::AggregateFunction::kCount;
}

}  // namespace

SetRddPartition::SetRddPartition(storage::Schema schema, AggSpec spec)
    : schema_(std::move(schema)),
      spec_(std::move(spec)),
      state_(static_cast<size_t>(schema_.num_columns()), spec_.key_columns,
             spec_.has_aggregate() ? spec_.agg_column : -1) {}

void SetRddPartition::MergeDelta(const Relation& candidates,
                                 Relation* delta) {
  const bool accumulates = Accumulates(spec_);
  for (size_t ch = 0; ch < candidates.num_chunks(); ++ch) {
    const storage::ColumnChunk& chunk = candidates.chunk(ch);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      const auto [g, inserted] = state_.FindOrInsert(chunk, r);
      if (inserted) {
        // Plain semi-naive set difference + union (paper Alg. 4
        // ReduceStage), or a key seen for the first time (Alg. 5).
        byte_size_ += chunk.RowByteSize(r);
        delta->AppendRowFrom(chunk, r);
      } else if (accumulates) {
        // The delta carries the *increment*: downstream joins propagate
        // only the newly discovered contribution, never re-counting old
        // ones.
        CombineInto(spec_, chunk, r, g, &state_);
        delta->AppendRowFrom(chunk, r);
      } else if (spec_.has_aggregate() &&
                 ImproveInto(spec_, chunk, r, g, &state_)) {
        delta->AppendRowFrom(chunk, r);
      }
      // Otherwise: a duplicate or dominated tuple, discarded (paper Sec.
      // 6.2: "(b, 3) will be ignored and discarded due to the property of
      // monotonic aggregates").
    }
  }
}

void SetRddPartition::Absorb(const Relation& converged) {
  for (size_t ch = 0; ch < converged.num_chunks(); ++ch) {
    const storage::ColumnChunk& chunk = converged.chunk(ch);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      const auto [g, inserted] = state_.FindOrInsert(chunk, r);
      if (inserted) {
        byte_size_ += chunk.RowByteSize(r);
      } else if (spec_.has_aggregate()) {
        state_.SetValue(g, chunk.ValueAt(r, static_cast<size_t>(
                                                spec_.agg_column)));
      }
    }
  }
}

Relation SetRddPartition::ToRelation() const {
  Relation out(schema_);
  AppendTo(&out);
  return out;
}

storage::KeyArrays SetRddPartition::TakeSortedRun() {
  storage::KeyArrays run = state_.TakeRows();
  byte_size_ = 0;
  run.Sort();
  return run;
}

SetRdd::SetRdd(storage::Schema schema, AggSpec spec, Partitioning partitioning)
    : partitioning_(std::move(partitioning)) {
  RASQL_CHECK(partitioning_.num_partitions > 0);
  partitions_.reserve(partitioning_.num_partitions);
  for (int p = 0; p < partitioning_.num_partitions; ++p) {
    partitions_.emplace_back(schema, spec);
  }
}

size_t SetRdd::TotalRows() const {
  size_t n = 0;
  for (const SetRddPartition& p : partitions_) n += p.size();
  return n;
}

size_t SetRdd::TotalBytes() const {
  size_t n = 0;
  for (const SetRddPartition& p : partitions_) n += p.byte_size();
  return n;
}

Relation SetRdd::Collect() const {
  Relation out(partitions_[0].schema());
  for (const SetRddPartition& p : partitions_) p.AppendTo(&out);
  return out;
}

Relation SetRdd::CanonicalCollect(runtime::ThreadPool* pool) {
  std::vector<storage::KeyArrays> runs(partitions_.size());
  runtime::ParallelFor(pool, num_partitions(), [&](int p) {
    runs[p] = partitions_[p].TakeSortedRun();
  });
  return storage::MergeSortedRuns(partitions_[0].schema(), runs, pool);
}

}  // namespace rasql::dist
