#ifndef RASQL_STORAGE_RELATION_H_
#define RASQL_STORAGE_RELATION_H_

#include <algorithm>
#include <string>
#include <vector>

#include "storage/column_chunk.h"
#include "storage/row.h"
#include "storage/row_range.h"
#include "storage/schema.h"

namespace rasql::storage {

/// Cheap cursor over one stored row: a chunk pointer plus the row's offset
/// inside it. The row-view compatibility layer for call sites that want
/// cell access without materializing a whole Row.
class RowAccessor {
 public:
  RowAccessor(const ColumnChunk* chunk, size_t row)
      : chunk_(chunk), row_(row) {}

  size_t width() const { return chunk_->num_columns(); }
  bool is_null(int col) const {
    return chunk_->IsNull(row_, static_cast<size_t>(col));
  }
  Value value(int col) const {
    return chunk_->ValueAt(row_, static_cast<size_t>(col));
  }
  Value operator[](int col) const { return value(col); }

  Row ToRow() const {
    Row out;
    chunk_->MaterializeRow(row_, &out);
    return out;
  }

  /// Physical position — for cell-vs-cell comparisons and batch kernels.
  const ColumnChunk& chunk() const { return *chunk_; }
  size_t chunk_row() const { return row_; }

 private:
  const ColumnChunk* chunk_;
  size_t row_;
};

/// A materialized bag of rows with a schema — the unit of data flow between
/// physical operators and the payload of one partition of a distributed
/// dataset. Stored column-major as an ordered sequence of ColumnChunks
/// (typed contiguous arrays + null bitmaps, the Tungsten-style layout);
/// row-oriented call sites go through the compatibility layer
/// (AppendRow / row(i) / ForEachRow / GetRow), vectorized kernels loop over
/// `chunk(c).column(col)` arrays directly.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, const std::vector<Row>& rows)
      : schema_(std::move(schema)) {
    for (const Row& row : rows) AppendRow(row);
  }

  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Appends one row, cell by cell, to the open tail chunk. Rows of a new
  /// width seal the current chunk and open a fresh one.
  void AppendRow(const Row& row);

  /// Appends row `row` of `chunk` (any relation's), copying cells straight
  /// from its typed arrays — no Row is materialized.
  void AppendRowFrom(const ColumnChunk& chunk, size_t row);

  /// Appends one row of `width` cells that `fill(ColumnChunk*)` writes
  /// with the chunk's cell-wise appenders (one cell per column, in column
  /// order). Stores exactly what AppendRow stores for the equal Row.
  template <class Fill>
  void AppendRowWith(size_t width, Fill&& fill) {
    ColumnChunk* tail = OpenTail(width);
    fill(tail);
    tail->FinishRow();
    ++num_rows_;
  }
  /// Historical alias of AppendRow.
  void Add(const Row& row) { AppendRow(row); }

  /// Capacity hint — chunk growth is amortized; kept for call-site compat.
  void Reserve(size_t n) { (void)n; }
  void Clear() {
    chunks_.clear();
    chunk_begins_.clear();
    num_rows_ = 0;
    uniform_ = true;
  }

  /// Row views -----------------------------------------------------------

  RowAccessor row(size_t i) const {
    size_t c;
    size_t r;
    LocateRow(i, &c, &r);
    return RowAccessor(&chunks_[c], r);
  }

  Value ValueAt(size_t i, int col) const {
    size_t c;
    size_t r;
    LocateRow(i, &c, &r);
    return chunks_[c].ValueAt(r, static_cast<size_t>(col));
  }

  /// Materialized copy of row `i`.
  Row GetRow(size_t i) const {
    Row out;
    MaterializeRowInto(i, &out);
    return out;
  }

  void MaterializeRowInto(size_t i, Row* out) const {
    size_t c;
    size_t r;
    LocateRow(i, &c, &r);
    chunks_[c].MaterializeRow(r, out);
  }

  /// Copies row `i` into `(*dest)[offset ...]` without a temporary.
  void CopyRowTo(size_t i, Row* dest, size_t offset) const {
    size_t c;
    size_t r;
    LocateRow(i, &c, &r);
    chunks_[c].CopyRowTo(r, dest, offset);
  }

  /// Calls `fn(const Row&)` for every row in `[range.begin, range.end)`
  /// (clamped), in order, reusing one scratch Row. The reference is only
  /// valid during the call.
  template <class Fn>
  void ForEachRow(RowRange range, Fn&& fn) const {
    const size_t end = std::min(range.end, num_rows_);
    if (range.begin >= end) return;
    Row scratch;
    size_t i = range.begin;
    while (i < end) {
      size_t c;
      size_t r;
      LocateRow(i, &c, &r);
      const ColumnChunk& chunk = chunks_[c];
      const size_t stop = std::min(end - i + r, chunk.num_rows());
      for (; r < stop; ++r, ++i) {
        chunk.MaterializeRow(r, &scratch);
        fn(static_cast<const Row&>(scratch));
      }
    }
  }

  template <class Fn>
  void ForEachRow(Fn&& fn) const {
    ForEachRow(RowRange{0, num_rows_}, std::forward<Fn>(fn));
  }

  /// Materializes every row — for sort/canonicalization paths and tests.
  std::vector<Row> MaterializeRows() const;


  /// Chunk views ---------------------------------------------------------

  size_t num_chunks() const { return chunks_.size(); }
  const ColumnChunk& chunk(size_t c) const { return chunks_[c]; }
  /// Global index of chunk `c`'s first row.
  size_t chunk_begin(size_t c) const { return chunk_begins_[c]; }
  /// Chunk containing global row `i` and `i`'s offset within it.
  void Locate(size_t i, size_t* c, size_t* r) const { LocateRow(i, c, r); }

  /// Key hashing/equality against stored cells, consistent with
  /// HashRowKey / Value::operator== on the materialized row.
  uint64_t HashKeyAt(size_t i, const std::vector<int>& key_cols) const {
    size_t c;
    size_t r;
    LocateRow(i, &c, &r);
    return chunks_[c].HashKey(r, key_cols);
  }
  bool CellEquals(size_t i, int col, const Value& v) const {
    size_t c;
    size_t r;
    LocateRow(i, &c, &r);
    return chunks_[c].CellEquals(r, static_cast<size_t>(col), v);
  }

  /// Real columnar footprint (typed arrays + null bitmaps + dictionaries);
  /// feeds the shuffle/broadcast cost model.
  size_t ByteSize() const;

  /// Sorts rows into the canonical order (RowLess / CanonicalCompare) —
  /// a stable typed sort over KeyArrays (storage/key_arrays.h).
  void SortRows();

  /// Removes duplicate rows (set semantics: rows equal under the canonical
  /// order); sorts as a side effect, keeping the first of each run.
  void Dedup();

  /// Moves `other`'s chunks onto the end of this relation without copying
  /// rows; `other` is left empty.
  void AppendChunks(Relation&& other);

  /// Multi-line "v1|v2|..." table rendering (rows in current order).
  std::string ToString(size_t max_rows = 20) const;

 private:
  /// The chunk the next row of `width` cells goes to.
  ColumnChunk* OpenTail(size_t width);

  void LocateRow(size_t i, size_t* c, size_t* r) const {
    if (uniform_) {
      *c = i / kChunkRows;
      *r = i % kChunkRows;
      return;
    }
    // Rare: a width change sealed a short chunk; binary-search the starts.
    const auto it = std::upper_bound(chunk_begins_.begin(),
                                     chunk_begins_.end(), i);
    *c = static_cast<size_t>(it - chunk_begins_.begin()) - 1;
    *r = i - chunk_begins_[*c];
  }

  Schema schema_;
  std::vector<ColumnChunk> chunks_;
  std::vector<size_t> chunk_begins_;
  size_t num_rows_ = 0;
  /// True while every sealed chunk holds exactly kChunkRows rows, enabling
  /// O(1) row location.
  bool uniform_ = true;
};

/// Builds a relation of int64 columns from a literal list, e.g.
/// MakeIntRelation({"Src","Dst"}, {{1,2},{2,3}}). Test/bench convenience.
Relation MakeIntRelation(const std::vector<std::string>& names,
                         const std::vector<std::vector<int64_t>>& rows);

/// True when the two relations contain the same bag of rows (order-
/// insensitive, rows compared under the canonical order); used heavily by
/// tests, the naive fixpoint's convergence check and the PreM validator.
bool SameBag(const Relation& a, const Relation& b);

/// True when the two relations contain the same rows in the same order.
bool SameRows(const Relation& a, const Relation& b);

}  // namespace rasql::storage

#endif  // RASQL_STORAGE_RELATION_H_
