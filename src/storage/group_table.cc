#include "storage/group_table.h"

#include "common/check.h"

namespace rasql::storage {

namespace {

constexpr size_t kInitialSlots = 16;

/// Value::Compare(a, b) == 0 for two numbers: neither orders before the
/// other (so a NaN ties with every number, as in Value::Compare).
bool NumbersTie(double a, double b) { return !(a < b) && !(a > b); }

}  // namespace

bool GroupTable::CellMatches(const ColumnChunk& chunk, size_t row, size_t c,
                             const KeyArrays::Column& col, uint32_t g) {
  using Kind = KeyArrays::Column::Kind;
  const ColumnChunk::ColumnData& data = chunk.column(c);
  if (!data.variant && !data.IsNull(row)) {
    switch (data.tag) {
      case ValueType::kInt64:
        if (col.kind == Kind::kInt64) return data.i64[row] == col.i64[g];
        if (col.kind == Kind::kDouble) {
          return NumbersTie(static_cast<double>(data.i64[row]), col.f64[g]);
        }
        break;
      case ValueType::kDouble:
        if (col.kind == Kind::kDouble) {
          return NumbersTie(data.f64[row], col.f64[g]);
        }
        if (col.kind == Kind::kInt64) {
          return NumbersTie(data.f64[row], static_cast<double>(col.i64[g]));
        }
        break;
      case ValueType::kString:
        if (col.kind == Kind::kBoxed) {
          const Value& v = col.boxed[g];
          return v.type() == ValueType::kString &&
                 v.AsString() == data.dict[data.codes[row]];
        }
        break;
      case ValueType::kNull:
        break;
    }
  }
  return chunk.ValueAt(row, c).Compare(col.ValueAt(g)) == 0;
}

GroupTable::GroupTable(size_t num_columns, std::vector<int> key_columns,
                       int value_column)
    : rows_(num_columns),
      key_columns_(std::move(key_columns)),
      value_column_(value_column) {
  if (value_column_ >= 0) {
    RASQL_CHECK(static_cast<size_t>(value_column_) < num_columns);
    RASQL_CHECK(key_columns_.size() + 1 == num_columns);
  }
}

bool GroupTable::RowMatches(const ColumnChunk& chunk, size_t row,
                            uint32_t g) const {
  if (value_column_ < 0) {
    const size_t w = chunk.num_columns();
    if (rows_.width(g) != w) return false;
    for (size_t c = 0; c < w; ++c) {
      if (!CellMatches(chunk, row, c, rows_.columns_[c], g)) return false;
    }
    return true;
  }
  for (int c : key_columns_) {
    const size_t col = static_cast<size_t>(c);
    if (!CellMatches(chunk, row, col, rows_.columns_[col], g)) return false;
  }
  return true;
}

std::pair<uint32_t, bool> GroupTable::FindOrInsert(const ColumnChunk& chunk,
                                                   size_t row) {
  uint64_t hash;
  if (value_column_ < 0) {
    hash = chunk.HashWholeRow(row);
  } else {
    RASQL_CHECK(chunk.num_columns() == rows_.num_columns());
    hash = chunk.HashKey(row, key_columns_);
  }
  if (2 * (num_groups() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash >> shift_;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.group == 0) {
      const uint32_t g = static_cast<uint32_t>(num_groups());
      RASQL_CHECK(g < UINT32_MAX);
      slot.hash = hash;
      slot.group = g + 1;
      rows_.AppendRowFrom(chunk, row);
      return {g, true};
    }
    if (slot.hash == hash && RowMatches(chunk, row, slot.group - 1)) {
      return {slot.group - 1, false};
    }
  }
}

void GroupTable::Grow() {
  const size_t capacity =
      slots_.empty() ? kInitialSlots : 2 * slots_.size();
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 64 - __builtin_ctzll(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.group == 0) continue;
    size_t i = slot.hash >> shift_;
    while (slots_[i].group != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

KeyArrays GroupTable::TakeRows() {
  KeyArrays out = std::move(rows_);
  rows_ = KeyArrays(out.num_columns());
  std::vector<Slot>().swap(slots_);
  shift_ = 64;
  return out;
}

GroupTable::ValueKind GroupTable::value_kind() const {
  switch (rows_.columns_[static_cast<size_t>(value_column_)].kind) {
    case KeyArrays::Column::Kind::kInt64:
      return ValueKind::kInt64;
    case KeyArrays::Column::Kind::kDouble:
      return ValueKind::kDouble;
    default:
      return ValueKind::kOther;
  }
}

}  // namespace rasql::storage
