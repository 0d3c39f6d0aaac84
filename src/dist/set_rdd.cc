#include "dist/set_rdd.h"

#include "common/check.h"
#include "runtime/thread_pool.h"

namespace rasql::dist {

using storage::Relation;
using storage::Row;
using storage::Value;

void SetRddPartition::MergeOne(const Row& row, bool accumulates,
                               std::vector<Row>* delta) {
  if (!spec_.has_aggregate()) {
    // Plain semi-naive set difference + union (paper Alg. 4 ReduceStage).
    auto [it, inserted] = set_state_.insert(row);
    if (inserted) {
      byte_size_ += storage::RowByteSize(row);
      delta->push_back(row);
    }
    return;
  }

  // Aggregate semantics (paper Alg. 5 ReduceStage, extended to sum/count).
  Row key = storage::ProjectKey(row, spec_.key_columns);
  const Value& v = row[spec_.agg_column];
  auto [it, inserted] = agg_state_.try_emplace(std::move(key), v);
  if (inserted) {
    byte_size_ += storage::RowByteSize(row);
    delta->push_back(row);
    return;
  }
  if (accumulates) {
    // The delta carries the *increment*: downstream joins propagate only
    // the newly discovered contribution, never re-counting old ones.
    it->second = CombineAgg(spec_.function, it->second, v);
    delta->push_back(row);
  } else if (ImprovesAgg(spec_.function, it->second, v)) {
    it->second = v;
    delta->push_back(row);
  }
  // Otherwise: dominated tuple, discarded (paper Sec. 6.2: "(b, 3) will
  // be ignored and discarded due to the property of monotonic
  // aggregates").
}

void SetRddPartition::MergeDelta(const std::vector<Row>& candidates,
                                 std::vector<Row>* delta) {
  const bool accumulates =
      spec_.function == expr::AggregateFunction::kSum ||
      spec_.function == expr::AggregateFunction::kCount;
  for (const Row& row : candidates) MergeOne(row, accumulates, delta);
}

void SetRddPartition::MergeDelta(const Relation& candidates,
                                 std::vector<Row>* delta) {
  const bool accumulates =
      spec_.function == expr::AggregateFunction::kSum ||
      spec_.function == expr::AggregateFunction::kCount;
  candidates.ForEachRow(
      [&](const Row& row) { MergeOne(row, accumulates, delta); });
}

void SetRddPartition::Absorb(const Relation& converged) {
  converged.ForEachRow([&](const Row& row) {
    if (!spec_.has_aggregate()) {
      auto [it, inserted] = set_state_.insert(row);
      if (inserted) byte_size_ += storage::RowByteSize(row);
      return;
    }
    Row key = storage::ProjectKey(row, spec_.key_columns);
    const Value& v = row[spec_.agg_column];
    auto [it, inserted] = agg_state_.try_emplace(std::move(key), v);
    if (inserted) {
      byte_size_ += storage::RowByteSize(row);
    } else {
      it->second = v;
    }
  });
}

Relation SetRddPartition::ToRelation() const {
  Relation out(schema_);
  if (!spec_.has_aggregate()) {
    out.Reserve(set_state_.size());
    for (const Row& row : set_state_) out.Add(row);
    return out;
  }
  out.Reserve(agg_state_.size());
  const int num_columns = schema_.num_columns();
  for (const auto& [key, value] : agg_state_) {
    Row row(num_columns);
    for (size_t i = 0; i < spec_.key_columns.size(); ++i) {
      row[spec_.key_columns[i]] = key[i];
    }
    row[spec_.agg_column] = value;
    out.Add(std::move(row));
  }
  return out;
}

storage::KeyArrays SetRddPartition::TakeSortedRun() {
  storage::KeyArrays run(static_cast<size_t>(schema_.num_columns()));
  run.Reserve(size());
  if (!spec_.has_aggregate()) {
    for (const Row& row : set_state_) run.AppendRow(row);
  } else {
    Row row(schema_.num_columns());
    for (const auto& [key, value] : agg_state_) {
      for (size_t i = 0; i < spec_.key_columns.size(); ++i) {
        row[spec_.key_columns[i]] = key[i];
      }
      row[spec_.agg_column] = value;
      run.AppendRow(row);
    }
  }
  // Free the hash state here, inside the partition's task, before sorting:
  // tearing down hundreds of thousands of boxed rows is real work, and the
  // typed arrays are a fraction of its footprint.
  decltype(set_state_)().swap(set_state_);
  decltype(agg_state_)().swap(agg_state_);
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
  Relation out;
  bool first = true;
  for (const SetRddPartition& p : partitions_) {
    Relation part = p.ToRelation();
    if (first) {
      out = std::move(part);
      first = false;
    } else {
      part.ForEachRow([&](const Row& row) { out.Add(row); });
    }
  }
  return out;
}

Relation SetRdd::CanonicalCollect(runtime::ThreadPool* pool) {
  std::vector<storage::KeyArrays> runs(partitions_.size());
  runtime::ParallelFor(pool, num_partitions(), [&](int p) {
    runs[p] = partitions_[p].TakeSortedRun();
  });
  return storage::MergeSortedRuns(partitions_[0].schema(), runs);
}

}  // namespace rasql::dist
