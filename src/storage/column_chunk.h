#ifndef RASQL_STORAGE_COLUMN_CHUNK_H_
#define RASQL_STORAGE_COLUMN_CHUNK_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "storage/row.h"
#include "storage/value.h"

namespace rasql::storage {

/// Rows per chunk before Relation seals it and opens the next one. 1024
/// int64 cells fit comfortably in L1/L2 per column, the usual vectorized
/// batch size ballpark.
inline constexpr size_t kChunkRows = 1024;

/// A column-major slice of a relation: one typed contiguous array per
/// column plus a null bitmap — the Tungsten-style layout the paper's
/// performance story rides on (Sec. 7.3). The storage type of each column
/// is decided by the first non-null value appended to it:
///
///   kInt64  -> std::vector<int64_t>
///   kDouble -> std::vector<double>
///   kString -> std::vector<int32_t> codes into a per-chunk dictionary
///
/// A column that later sees a value of a different type migrates to a
/// boxed `std::vector<Value>` fallback (`variant`), preserving the exact
/// Value round-trip — an int64 is never silently widened to double, so
/// hashing, comparison and rendering are bit-identical to the row layout.
/// Null cells set a bit in the bitmap and push a placeholder into the
/// payload so every array stays row-aligned.
class ColumnChunk {
 public:
  /// Physical storage of one column. Public so vectorized kernels (batch
  /// filters, typed aggregate loops, writers) can loop over the arrays
  /// directly; Append invariants are maintained by the chunk.
  struct ColumnData {
    /// Storage tag: kNull until the first non-null value decides it.
    ValueType tag = ValueType::kNull;
    /// True when mixed types forced the boxed fallback; `boxed` is then
    /// the only payload.
    bool variant = false;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<int32_t> codes;  ///< dictionary codes; -1 for null cells
    std::vector<std::string> dict;
    std::vector<Value> boxed;
    /// Null bitmap, one bit per row (set = NULL). Allocated lazily on the
    /// first null; empty means "no nulls in this column".
    std::vector<uint64_t> nulls;
    size_t null_count = 0;

    bool IsNull(size_t row) const {
      return null_count > 0 && (row >> 6) < nulls.size() &&
             (nulls[row >> 6] >> (row & 63)) & 1;
    }
  };

  ColumnChunk() = default;
  explicit ColumnChunk(size_t num_columns) : columns_(num_columns) {}

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  bool full() const { return num_rows_ >= kChunkRows; }

  const ColumnData& column(size_t c) const { return columns_[c]; }

  /// Appends one row; `row.size()` must equal `num_columns()`.
  void AppendRow(const Row& row);

  /// Cell-wise row append without a Row temporary: append exactly one cell
  /// to every column, in column order, then call FinishRow(). Each call
  /// stores the cell exactly as AppendRow would store the equal Value.
  void AppendValue(size_t col, const Value& v) {
    AppendCell(&columns_[col], v);
  }
  void AppendInt64(size_t col, int64_t v);
  void AppendDouble(size_t col, double v);
  /// Appends cell (`src_row`, `src_col`) of `src`, copied from its typed
  /// arrays (dictionary strings are re-interned by value).
  void AppendCellFrom(size_t col, const ColumnChunk& src, size_t src_row,
                      size_t src_col);
  void FinishRow() { ++num_rows_; }

  bool IsNull(size_t row, size_t col) const {
    return columns_[col].IsNull(row);
  }

  /// The cell as a Value — exact round-trip of what was appended.
  Value ValueAt(size_t row, size_t col) const;

  /// Overwrites `*out` with row `row` (resizing as needed).
  void MaterializeRow(size_t row, Row* out) const;

  /// Copies the row's cells into `(*dest)[offset ...]`; `dest` must
  /// already span `offset + num_columns()` cells. Lets join probes fill a
  /// preallocated combined row without constructing a temporary.
  void CopyRowTo(size_t row, Row* dest, size_t offset) const;

  /// Hash of one cell — identical to `ValueAt(row, col).Hash()` without
  /// materializing the Value.
  uint64_t HashCell(size_t row, size_t col) const;

  /// Hash of the key columns — identical to HashRowKey on the
  /// materialized row.
  uint64_t HashKey(size_t row, const std::vector<int>& key_cols) const {
    uint64_t h = 0x84222325cbf29ce4ULL;
    for (int c : key_cols) h = common::HashCombine(h, HashCell(row, c));
    return h;
  }

  /// HashKey over every column — identical to HashRow on the materialized
  /// row.
  uint64_t HashWholeRow(size_t row) const {
    uint64_t h = 0x84222325cbf29ce4ULL;
    for (size_t c = 0; c < columns_.size(); ++c) {
      h = common::HashCombine(h, HashCell(row, c));
    }
    return h;
  }

  /// RowByteSize of the materialized row — the shuffle cost model's
  /// row-encoding estimate.
  size_t RowByteSize(size_t row) const;

  /// Equality of one cell against a Value, consistent with
  /// `ValueAt(row, col) == v`.
  bool CellEquals(size_t row, size_t col, const Value& v) const;

  /// Equality of two stored cells without materializing either (dictionary
  /// strings compare by reference). Consistent with Value::operator== on
  /// the materialized cells.
  static bool CellsEqual(const ColumnChunk& a, size_t a_row, size_t a_col,
                         const ColumnChunk& b, size_t b_row, size_t b_col);

  /// Columnar memory footprint: typed arrays + null bitmaps + dictionary.
  size_t ByteSize() const;

  /// Dictionary code of `s` in string column `col`, or -1 when the value
  /// (or the dictionary itself) is absent. Lets equality filters on
  /// dictionary-encoded strings compare codes instead of materialized
  /// strings (vectorized kernels, DESIGN.md §15).
  int32_t FindDictCode(size_t col, const std::string& s) const;

  /// Selection-vector gathers into caller-provided dense arrays: `out`
  /// receives the payload of rows `sel[0..n)` of column `col`. The column
  /// must carry the matching typed payload (null placeholders come along
  /// as stored: 0 / 0.0 / -1).
  void GatherI64(size_t col, const uint32_t* sel, size_t n,
                 int64_t* out) const;
  void GatherF64(size_t col, const uint32_t* sel, size_t n,
                 double* out) const;
  void GatherCodes(size_t col, const uint32_t* sel, size_t n,
                   int32_t* out) const;

  /// Gathers the null bits of rows `sel[0..n)` (1 = NULL) into `out`;
  /// returns true when any selected row is null.
  bool GatherNulls(size_t col, const uint32_t* sel, size_t n,
                   uint8_t* out) const;

 private:
  void AppendCell(ColumnData* col, const Value& v);
  void MigrateToBoxed(ColumnData* col);

  std::vector<ColumnData> columns_;
  size_t num_rows_ = 0;
  /// Dictionary lookup index per string column, keyed by column ordinal —
  /// only paid for by columns that actually hold strings.
  std::unordered_map<size_t, std::unordered_map<std::string, int32_t>>
      dict_index_;
};

}  // namespace rasql::storage

#endif  // RASQL_STORAGE_COLUMN_CHUNK_H_
