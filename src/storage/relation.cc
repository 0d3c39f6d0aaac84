#include "storage/relation.h"

#include "storage/key_arrays.h"

namespace rasql::storage {

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

ColumnChunk* Relation::OpenTail(size_t width) {
  if (chunks_.empty() || chunks_.back().full() ||
      chunks_.back().num_columns() != width) {
    // A width change seals a short chunk and breaks the uniform O(1)
    // row-location invariant; row location falls back to binary search.
    if (!chunks_.empty() && !chunks_.back().full()) uniform_ = false;
    chunk_begins_.push_back(num_rows_);
    chunks_.emplace_back(width);
  }
  return &chunks_.back();
}

void Relation::AppendRow(const Row& row) {
  OpenTail(row.size())->AppendRow(row);
  ++num_rows_;
}

void Relation::AppendRowFrom(const ColumnChunk& chunk, size_t row) {
  const size_t width = chunk.num_columns();
  AppendRowWith(width, [&](ColumnChunk* tail) {
    for (size_t c = 0; c < width; ++c) tail->AppendCellFrom(c, chunk, row, c);
  });
}

std::vector<Row> Relation::MaterializeRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  ForEachRow([&rows](const Row& row) { rows.push_back(row); });
  return rows;
}

size_t Relation::ByteSize() const {
  size_t n = 0;
  for (const ColumnChunk& chunk : chunks_) n += chunk.ByteSize();
  return n;
}

void Relation::SortRows() {
  KeyArrays keys = KeyArrays::FromRelation(*this);
  keys.Sort();
  Clear();
  keys.AppendTo(this);
}

void Relation::Dedup() {
  KeyArrays keys = KeyArrays::FromRelation(*this);
  keys.Sort();
  Clear();
  for (size_t r = 0; r < keys.num_rows(); ++r) {
    if (r > 0 && keys.Compare(r - 1, r) == 0) continue;
    keys.AppendRowTo(r, this);
  }
}

void Relation::AppendChunks(Relation&& other) {
  for (ColumnChunk& chunk : other.chunks_) {
    // A short tail chunk sealed mid-relation breaks O(1) row location.
    if (!chunks_.empty() && !chunks_.back().full()) uniform_ = false;
    chunk_begins_.push_back(num_rows_);
    num_rows_ += chunk.num_rows();
    chunks_.push_back(std::move(chunk));
  }
  other.Clear();
}

std::string Relation::ToString(size_t max_rows) const {
  std::string out = schema_.ToString() + "\n";
  Row scratch;
  for (size_t i = 0; i < num_rows_; ++i) {
    if (i >= max_rows) {
      out += "... (" + std::to_string(num_rows_) + " rows total)\n";
      break;
    }
    MaterializeRowInto(i, &scratch);
    for (size_t c = 0; c < scratch.size(); ++c) {
      if (c > 0) out += "|";
      out += scratch[c].ToString();
    }
    out += "\n";
  }
  return out;
}

Relation MakeIntRelation(const std::vector<std::string>& names,
                         const std::vector<std::vector<int64_t>>& rows) {
  std::vector<Column> cols;
  cols.reserve(names.size());
  for (const std::string& name : names) {
    cols.push_back(Column{name, ValueType::kInt64});
  }
  Relation rel{Schema(std::move(cols))};
  Row row;
  for (const auto& r : rows) {
    row.clear();
    row.reserve(r.size());
    for (int64_t v : r) row.push_back(Value::Int(v));
    rel.AppendRow(row);
  }
  return rel;
}

bool SameBag(const Relation& a, const Relation& b) {
  if (a.size() != b.size()) return false;
  KeyArrays ka = KeyArrays::FromRelation(a);
  KeyArrays kb = KeyArrays::FromRelation(b);
  ka.Sort();
  kb.Sort();
  for (size_t i = 0; i < ka.num_rows(); ++i) {
    if (KeyArrays::Compare(ka, i, kb, i) != 0) return false;
  }
  return true;
}

bool SameRows(const Relation& a, const Relation& b) {
  if (a.size() != b.size()) return false;
  Row ra;
  Row rb;
  RowEq eq;
  for (size_t i = 0; i < a.size(); ++i) {
    a.MaterializeRowInto(i, &ra);
    b.MaterializeRowInto(i, &rb);
    if (!eq(ra, rb)) return false;
  }
  return true;
}

}  // namespace rasql::storage
