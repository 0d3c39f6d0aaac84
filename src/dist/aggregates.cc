#include "dist/aggregates.h"

#include <algorithm>

#include "common/check.h"
#include "expr/int64_arith.h"

namespace rasql::dist {

using expr::AggregateFunction;
using storage::GroupTable;
using storage::Relation;
using storage::Value;
using storage::ValueType;

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
      // contributions accumulate; int-typed inputs stay int and wrap past
      // INT64_MAX like expression arithmetic (expr/int64_arith.h).
      if (a.type() == storage::ValueType::kInt64 &&
          b.type() == storage::ValueType::kInt64) {
        return Value::Int(expr::WrapAdd(a.AsInt(), b.AsInt()));
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

void CombineInto(const AggSpec& spec, const storage::ColumnChunk& chunk,
                 size_t row, uint32_t g, GroupTable* table) {
  const size_t col = static_cast<size_t>(spec.agg_column);
  const storage::ColumnChunk::ColumnData& data = chunk.column(col);
  if (!data.variant && !data.IsNull(row)) {
    // Same-typed cells: CombineAgg's result without boxing either side.
    // min keeps the current value unless the cell orders strictly before
    // it (Value::Compare), max symmetrically; sum/count add.
    if (data.tag == ValueType::kInt64 &&
        table->value_kind() == GroupTable::ValueKind::kInt64) {
      int64_t& acc = table->Int64Value(g);
      const int64_t v = data.i64[row];
      switch (spec.function) {
        case AggregateFunction::kMin:
          if (v < acc) acc = v;
          return;
        case AggregateFunction::kMax:
          if (v > acc) acc = v;
          return;
        case AggregateFunction::kSum:
        case AggregateFunction::kCount:
          acc = expr::WrapAdd(acc, v);
          return;
        case AggregateFunction::kNone:
          break;
      }
    }
    if (data.tag == ValueType::kDouble &&
        table->value_kind() == GroupTable::ValueKind::kDouble) {
      double& acc = table->DoubleValue(g);
      const double v = data.f64[row];
      switch (spec.function) {
        case AggregateFunction::kMin:
          if (acc > v) acc = v;
          return;
        case AggregateFunction::kMax:
          if (acc < v) acc = v;
          return;
        case AggregateFunction::kSum:
        case AggregateFunction::kCount:
          acc = acc + v;
          return;
        case AggregateFunction::kNone:
          break;
      }
    }
  }
  table->SetValue(g, CombineAgg(spec.function, table->ValueOf(g),
                                chunk.ValueAt(row, col)));
}

bool ImproveInto(const AggSpec& spec, const storage::ColumnChunk& chunk,
                 size_t row, uint32_t g, GroupTable* table) {
  const size_t col = static_cast<size_t>(spec.agg_column);
  const bool min = spec.function == AggregateFunction::kMin;
  const storage::ColumnChunk::ColumnData& data = chunk.column(col);
  if (!data.variant && !data.IsNull(row)) {
    if (data.tag == ValueType::kInt64 &&
        table->value_kind() == GroupTable::ValueKind::kInt64) {
      int64_t& current = table->Int64Value(g);
      const int64_t v = data.i64[row];
      if (min ? v < current : v > current) {
        current = v;
        return true;
      }
      return false;
    }
    if (data.tag == ValueType::kDouble &&
        table->value_kind() == GroupTable::ValueKind::kDouble) {
      double& current = table->DoubleValue(g);
      const double v = data.f64[row];
      if (min ? v < current : v > current) {
        current = v;
        return true;
      }
      return false;
    }
  }
  const Value candidate = chunk.ValueAt(row, col);
  if (!ImprovesAgg(spec.function, table->ValueOf(g), candidate)) return false;
  table->SetValue(g, candidate);
  return true;
}

Relation PartialAggregate(const Relation& rel, const AggSpec& spec) {
  size_t width = spec.key_columns.size() + 1;
  if (!spec.has_aggregate()) {
    width = 0;
    for (size_t ch = 0; ch < rel.num_chunks(); ++ch) {
      width = std::max(width, rel.chunk(ch).num_columns());
    }
  }
  GroupTable table(width, spec.key_columns,
                   spec.has_aggregate() ? spec.agg_column : -1);
  for (size_t ch = 0; ch < rel.num_chunks(); ++ch) {
    const storage::ColumnChunk& chunk = rel.chunk(ch);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      const auto [g, inserted] = table.FindOrInsert(chunk, r);
      if (!inserted && spec.has_aggregate()) {
        CombineInto(spec, chunk, r, g, &table);
      }
    }
  }
  Relation out(rel.schema());
  table.rows().AppendTo(&out);
  return out;
}

}  // namespace rasql::dist
