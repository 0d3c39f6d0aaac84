#include "dist/aggregates.h"

#include <unordered_map>

#include "common/check.h"

namespace rasql::dist {

using expr::AggregateFunction;
using storage::Row;
using storage::Value;

AggSpec AggSpec::For(int num_columns, int agg_column,
                     AggregateFunction function) {
  AggSpec spec;
  spec.agg_column = agg_column;
  spec.function = function;
  for (int c = 0; c < num_columns; ++c) {
    if (c != agg_column || function == AggregateFunction::kNone) {
      spec.key_columns.push_back(c);
    }
  }
  if (function == AggregateFunction::kNone) spec.agg_column = -1;
  return spec;
}

Value CombineAgg(AggregateFunction function, const Value& a, const Value& b) {
  switch (function) {
    case AggregateFunction::kMin:
      return a.Compare(b) <= 0 ? a : b;
    case AggregateFunction::kMax:
      return a.Compare(b) >= 0 ? a : b;
    case AggregateFunction::kSum:
    case AggregateFunction::kCount:
      // count is the continuous monotonic count (paper Sec. 3): like sum,
      // contributions accumulate; int-typed inputs stay int.
      if (a.type() == storage::ValueType::kInt64 &&
          b.type() == storage::ValueType::kInt64) {
        return Value::Int(a.AsInt() + b.AsInt());
      }
      return Value::Double(a.AsNumeric() + b.AsNumeric());
    case AggregateFunction::kNone:
      break;
  }
  RASQL_CHECK(false);
}

bool ImprovesAgg(AggregateFunction function, const Value& current,
                 const Value& candidate) {
  switch (function) {
    case AggregateFunction::kMin:
      return candidate.Compare(current) < 0;
    case AggregateFunction::kMax:
      return candidate.Compare(current) > 0;
    default:
      return false;
  }
}

std::vector<Row> PartialAggregate(std::vector<Row> rows,
                                  const AggSpec& spec) {
  if (!spec.has_aggregate()) {
    // Set semantics: deduplicate.
    std::unordered_map<Row, bool, storage::RowHash, storage::RowEq> seen;
    std::vector<Row> out;
    out.reserve(rows.size());
    for (Row& row : rows) {
      if (seen.try_emplace(row, true).second) out.push_back(std::move(row));
    }
    return out;
  }

  // Group by key columns; combine the aggregate column.
  std::unordered_map<Row, Value, storage::RowHash, storage::RowEq> groups;
  groups.reserve(rows.size());
  for (const Row& row : rows) {
    Row key = storage::ProjectKey(row, spec.key_columns);
    const Value& v = row[spec.agg_column];
    auto [it, inserted] = groups.try_emplace(std::move(key), v);
    if (!inserted) it->second = CombineAgg(spec.function, it->second, v);
  }

  std::vector<Row> out;
  out.reserve(groups.size());
  const int num_columns =
      static_cast<int>(spec.key_columns.size()) + 1;
  for (auto& [key, value] : groups) {
    Row row(num_columns);
    for (size_t i = 0; i < spec.key_columns.size(); ++i) {
      row[spec.key_columns[i]] = key[i];
    }
    row[spec.agg_column] = value;
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<Row> PartialAggregate(const storage::Relation& rel,
                                  const AggSpec& spec) {
  if (!spec.has_aggregate()) {
    std::unordered_map<Row, bool, storage::RowHash, storage::RowEq> seen;
    std::vector<Row> out;
    out.reserve(rel.size());
    rel.ForEachRow([&](const Row& row) {
      if (seen.try_emplace(row, true).second) out.push_back(row);
    });
    return out;
  }

  std::unordered_map<Row, Value, storage::RowHash, storage::RowEq> groups;
  groups.reserve(rel.size());
  Row key(spec.key_columns.size());
  for (size_t ch = 0; ch < rel.num_chunks(); ++ch) {
    const storage::ColumnChunk& chunk = rel.chunk(ch);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      for (size_t i = 0; i < spec.key_columns.size(); ++i) {
        key[i] = chunk.ValueAt(r, static_cast<size_t>(spec.key_columns[i]));
      }
      const Value v = chunk.ValueAt(r, static_cast<size_t>(spec.agg_column));
      auto [it, inserted] = groups.try_emplace(key, v);
      if (!inserted) it->second = CombineAgg(spec.function, it->second, v);
    }
  }

  std::vector<Row> out;
  out.reserve(groups.size());
  const int num_columns = static_cast<int>(spec.key_columns.size()) + 1;
  for (auto& [key_row, value] : groups) {
    Row row(num_columns);
    for (size_t i = 0; i < spec.key_columns.size(); ++i) {
      row[spec.key_columns[i]] = key_row[i];
    }
    row[spec.agg_column] = value;
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace rasql::dist
