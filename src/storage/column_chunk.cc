#include "storage/column_chunk.h"

#include "common/check.h"

namespace rasql::storage {

namespace {

/// Interns `s` into the column dictionary, returning its code.
int32_t DictCode(ColumnChunk::ColumnData* col, const std::string& s,
                 std::unordered_map<std::string, int32_t>* index) {
  auto it = index->find(s);
  if (it != index->end()) return it->second;
  const int32_t code = static_cast<int32_t>(col->dict.size());
  col->dict.push_back(s);
  index->emplace(s, code);
  return code;
}

}  // namespace

void ColumnChunk::AppendRow(const Row& row) {
  RASQL_CHECK(row.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    AppendCell(&columns_[c], row[c]);
  }
  ++num_rows_;
}

void ColumnChunk::AppendInt64(size_t col, int64_t v) {
  ColumnData& c = columns_[col];
  if (!c.variant && c.tag == ValueType::kInt64 && c.nulls.empty()) {
    c.i64.push_back(v);
    return;
  }
  AppendCell(&c, Value::Int(v));
}

void ColumnChunk::AppendDouble(size_t col, double v) {
  ColumnData& c = columns_[col];
  if (!c.variant && c.tag == ValueType::kDouble && c.nulls.empty()) {
    c.f64.push_back(v);
    return;
  }
  AppendCell(&c, Value::Double(v));
}

void ColumnChunk::AppendCellFrom(size_t col, const ColumnChunk& src,
                                 size_t src_row, size_t src_col) {
  const ColumnData& s = src.columns_[src_col];
  if (!s.variant && !s.IsNull(src_row)) {
    switch (s.tag) {
      case ValueType::kInt64:
        AppendInt64(col, s.i64[src_row]);
        return;
      case ValueType::kDouble:
        AppendDouble(col, s.f64[src_row]);
        return;
      case ValueType::kString: {
        ColumnData& c = columns_[col];
        if (!c.variant && c.tag == ValueType::kString && c.nulls.empty()) {
          c.codes.push_back(DictCode(&c, s.dict[s.codes[src_row]],
                                     &dict_index_[col]));
          return;
        }
        break;
      }
      case ValueType::kNull:
        break;
    }
  }
  AppendCell(&columns_[col], src.ValueAt(src_row, src_col));
}

void ColumnChunk::MigrateToBoxed(ColumnData* col) {
  std::vector<Value> boxed;
  boxed.reserve(num_rows_ + 1);
  for (size_t r = 0; r < num_rows_; ++r) {
    if (col->IsNull(r)) {
      boxed.push_back(Value::Null());
      continue;
    }
    switch (col->tag) {
      case ValueType::kInt64:
        boxed.push_back(Value::Int(col->i64[r]));
        break;
      case ValueType::kDouble:
        boxed.push_back(Value::Double(col->f64[r]));
        break;
      case ValueType::kString:
        boxed.push_back(Value::String(col->dict[col->codes[r]]));
        break;
      case ValueType::kNull:
        boxed.push_back(Value::Null());
        break;
    }
  }
  col->i64.clear();
  col->f64.clear();
  col->codes.clear();
  col->dict.clear();
  col->boxed = std::move(boxed);
  col->variant = true;
  dict_index_.erase(static_cast<size_t>(col - columns_.data()));
}

void ColumnChunk::AppendCell(ColumnData* col, const Value& v) {
  if (v.is_null()) {
    if (col->nulls.empty() && num_rows_ > 0) {
      col->nulls.assign((num_rows_ >> 6) + 1, 0);
    }
    if (col->nulls.size() <= (num_rows_ >> 6)) col->nulls.push_back(0);
    col->nulls[num_rows_ >> 6] |= uint64_t{1} << (num_rows_ & 63);
    ++col->null_count;
    // Keep the payload row-aligned with a placeholder.
    if (col->variant) {
      col->boxed.push_back(Value::Null());
    } else {
      switch (col->tag) {
        case ValueType::kNull:
          break;  // no payload decided yet
        case ValueType::kInt64:
          col->i64.push_back(0);
          break;
        case ValueType::kDouble:
          col->f64.push_back(0.0);
          break;
        case ValueType::kString:
          col->codes.push_back(-1);
          break;
      }
    }
    return;
  }
  // Null bitmap stays aligned lazily: absent bits read as not-null.
  if (!col->nulls.empty() && col->nulls.size() <= (num_rows_ >> 6)) {
    col->nulls.push_back(0);
  }
  if (!col->variant && col->tag == ValueType::kNull) {
    // First non-null value decides the storage type; backfill placeholders
    // for the all-null prefix.
    col->tag = v.type();
    switch (v.type()) {
      case ValueType::kInt64:
        col->i64.assign(num_rows_, 0);
        break;
      case ValueType::kDouble:
        col->f64.assign(num_rows_, 0.0);
        break;
      case ValueType::kString:
        col->codes.assign(num_rows_, -1);
        break;
      case ValueType::kNull:
        break;
    }
  } else if (!col->variant && col->tag != v.type()) {
    MigrateToBoxed(col);
  }
  if (col->variant) {
    col->boxed.push_back(v);
    return;
  }
  switch (col->tag) {
    case ValueType::kInt64:
      col->i64.push_back(v.AsInt());
      break;
    case ValueType::kDouble:
      col->f64.push_back(v.AsDouble());
      break;
    case ValueType::kString: {
      std::unordered_map<std::string, int32_t>& index =
          dict_index_[static_cast<size_t>(col - columns_.data())];
      col->codes.push_back(DictCode(col, v.AsString(), &index));
      break;
    }
    case ValueType::kNull:
      break;  // unreachable: tag was decided above
  }
}

Value ColumnChunk::ValueAt(size_t row, size_t col) const {
  const ColumnData& c = columns_[col];
  if (c.IsNull(row)) return Value::Null();
  if (c.variant) return c.boxed[row];
  switch (c.tag) {
    case ValueType::kInt64:
      return Value::Int(c.i64[row]);
    case ValueType::kDouble:
      return Value::Double(c.f64[row]);
    case ValueType::kString:
      return Value::String(c.dict[c.codes[row]]);
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

void ColumnChunk::MaterializeRow(size_t row, Row* out) const {
  out->resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    (*out)[c] = ValueAt(row, c);
  }
}

void ColumnChunk::CopyRowTo(size_t row, Row* dest, size_t offset) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    (*dest)[offset + c] = ValueAt(row, c);
  }
}

uint64_t ColumnChunk::HashCell(size_t row, size_t col) const {
  const ColumnData& c = columns_[col];
  if (c.IsNull(row)) return kNullHash;
  if (c.variant) return c.boxed[row].Hash();
  switch (c.tag) {
    case ValueType::kInt64:
      return common::MixHash64(static_cast<uint64_t>(c.i64[row]));
    case ValueType::kDouble:
      return HashDouble(c.f64[row]);
    case ValueType::kString:
      return common::HashBytes(c.dict[c.codes[row]]);
    case ValueType::kNull:
      return kNullHash;
  }
  return 0;
}

size_t ColumnChunk::RowByteSize(size_t row) const {
  size_t n = 0;
  for (const ColumnData& c : columns_) {
    if (c.IsNull(row)) {
      n += 8;
    } else if (c.variant) {
      n += c.boxed[row].ByteSize();
    } else if (c.tag == ValueType::kString) {
      n += 8 + c.dict[c.codes[row]].size();
    } else {
      n += 8;
    }
  }
  return n;
}

bool ColumnChunk::CellEquals(size_t row, size_t col, const Value& v) const {
  const ColumnData& c = columns_[col];
  if (c.IsNull(row)) return v.is_null();
  if (c.variant) return c.boxed[row] == v;
  switch (c.tag) {
    case ValueType::kInt64:
      if (v.type() == ValueType::kInt64) return c.i64[row] == v.AsInt();
      if (v.type() == ValueType::kDouble) {
        return static_cast<double>(c.i64[row]) == v.AsDouble();
      }
      return false;
    case ValueType::kDouble:
      if (v.type() == ValueType::kDouble) return c.f64[row] == v.AsDouble();
      if (v.type() == ValueType::kInt64) {
        return c.f64[row] == static_cast<double>(v.AsInt());
      }
      return false;
    case ValueType::kString:
      return v.type() == ValueType::kString &&
             c.dict[c.codes[row]] == v.AsString();
    case ValueType::kNull:
      return v.is_null();
  }
  return false;
}

bool ColumnChunk::CellsEqual(const ColumnChunk& a, size_t a_row, size_t a_col,
                             const ColumnChunk& b, size_t b_row,
                             size_t b_col) {
  const ColumnData& ca = a.columns_[a_col];
  if (ca.IsNull(a_row)) return b.IsNull(b_row, b_col);
  if (ca.variant) return b.CellEquals(b_row, b_col, ca.boxed[a_row]);
  switch (ca.tag) {
    case ValueType::kInt64:
      return b.CellEquals(b_row, b_col, Value::Int(ca.i64[a_row]));
    case ValueType::kDouble:
      return b.CellEquals(b_row, b_col, Value::Double(ca.f64[a_row]));
    case ValueType::kString: {
      const std::string& s = ca.dict[ca.codes[a_row]];
      const ColumnData& cb = b.columns_[b_col];
      if (cb.IsNull(b_row)) return false;
      if (cb.variant) {
        const Value& v = cb.boxed[b_row];
        return v.type() == ValueType::kString && v.AsString() == s;
      }
      return cb.tag == ValueType::kString && cb.dict[cb.codes[b_row]] == s;
    }
    case ValueType::kNull:
      return b.IsNull(b_row, b_col);
  }
  return false;
}

int32_t ColumnChunk::FindDictCode(size_t col, const std::string& s) const {
  const ColumnData& c = columns_[col];
  if (c.variant || c.tag != ValueType::kString) return -1;
  const auto index_it = dict_index_.find(col);
  if (index_it != dict_index_.end()) {
    const auto it = index_it->second.find(s);
    return it != index_it->second.end() ? it->second : -1;
  }
  // No interning index (e.g. a column whose dictionary arrived by copy):
  // fall back to a scan — callers do this once per chunk, not per row.
  for (size_t i = 0; i < c.dict.size(); ++i) {
    if (c.dict[i] == s) return static_cast<int32_t>(i);
  }
  return -1;
}

void ColumnChunk::GatherI64(size_t col, const uint32_t* sel, size_t n,
                            int64_t* out) const {
  const int64_t* data = columns_[col].i64.data();
  for (size_t i = 0; i < n; ++i) out[i] = data[sel[i]];
}

void ColumnChunk::GatherF64(size_t col, const uint32_t* sel, size_t n,
                            double* out) const {
  const double* data = columns_[col].f64.data();
  for (size_t i = 0; i < n; ++i) out[i] = data[sel[i]];
}

void ColumnChunk::GatherCodes(size_t col, const uint32_t* sel, size_t n,
                              int32_t* out) const {
  const int32_t* data = columns_[col].codes.data();
  for (size_t i = 0; i < n; ++i) out[i] = data[sel[i]];
}

bool ColumnChunk::GatherNulls(size_t col, const uint32_t* sel, size_t n,
                              uint8_t* out) const {
  const ColumnData& c = columns_[col];
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    const bool null = c.IsNull(sel[i]);
    out[i] = null ? 1 : 0;
    any |= null;
  }
  return any;
}

size_t ColumnChunk::ByteSize() const {
  size_t n = 0;
  for (const ColumnData& c : columns_) {
    n += c.i64.size() * sizeof(int64_t);
    n += c.f64.size() * sizeof(double);
    n += c.codes.size() * sizeof(int32_t);
    for (const std::string& s : c.dict) n += s.size() + sizeof(int32_t);
    n += c.nulls.size() * sizeof(uint64_t);
    for (const Value& v : c.boxed) n += v.ByteSize();
  }
  return n;
}

}  // namespace rasql::storage
