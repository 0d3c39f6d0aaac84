#ifndef RASQL_STORAGE_KEY_ARRAYS_H_
#define RASQL_STORAGE_KEY_ARRAYS_H_

#include <cstdint>
#include <vector>

#include "storage/column_chunk.h"
#include "storage/row.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace rasql::runtime {
class ThreadPool;
}  // namespace rasql::runtime

namespace rasql::storage {

class Relation;

/// A bag of rows held column-major as typed key arrays — the unit the
/// canonical sort and the k-way merge of sorted runs work on. A column
/// whose cells are all non-null int64 (or all non-null double) is one
/// contiguous typed array compared with integer (or CompareDoubles)
/// comparisons; any other column — strings, nulls, mixed types — falls
/// back to boxed Values compared with CanonicalCompare. Every comparison
/// is therefore exactly CanonicalCompare on the materialized cells, and
/// rows narrower than `num_columns()` (a width-change-sealed relation)
/// order by their common prefix, shorter first, like RowLess.
class KeyArrays {
 public:
  KeyArrays() = default;
  explicit KeyArrays(size_t num_columns) : columns_(num_columns) {}

  /// The relation's rows in order; typed columns copy whole chunk arrays.
  static KeyArrays FromRelation(const Relation& rel);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Appends row `row` of `chunk` (at most `num_columns()` cells), copying
  /// typed cells without boxing. A cell whose type disagrees with its
  /// column's typed array migrates that column to boxed Values, preserving
  /// every earlier cell exactly.
  void AppendRowFrom(const ColumnChunk& chunk, size_t row);

  /// Canonical three-way comparison of rows `a` and `b` of this bag.
  int Compare(size_t a, size_t b) const {
    return Compare(*this, a, *this, b);
  }
  /// Canonical three-way comparison across two bags whose columns may be
  /// stored differently (e.g. typed in one sorted run, boxed in another).
  static int Compare(const KeyArrays& x, size_t a, const KeyArrays& y,
                     size_t b);

  /// Stable canonical sort in place: rows that compare equal keep their
  /// relative order, so the result equals std::stable_sort under RowLess.
  void Sort();

  /// Overwrites `*out` with row `row` (resized to the row's width).
  void MaterializeRow(size_t row, Row* out) const;

  /// Appends rows [0, num_rows()) in order to `*out`.
  void AppendTo(Relation* out) const;
  /// Appends row `row` to `*out` straight from the typed arrays; stores
  /// exactly what `out->AppendRow` of the materialized row stores.
  void AppendRowTo(size_t row, Relation* out) const;

 private:
  friend class GroupTable;
  friend Relation MergeSortedRuns(const Schema& schema,
                                  const std::vector<KeyArrays>& runs,
                                  runtime::ThreadPool* pool);

  /// Appends to `*out` rows [skip, count) of the merge of `runs` that
  /// starts at run positions `pos` (a cut the merge order passes through).
  static void MergeRange(const std::vector<KeyArrays>& runs,
                         std::vector<size_t> pos, size_t skip, size_t count,
                         Relation* out);

  size_t width(size_t row) const {
    return widths_.empty() ? columns_.size() : widths_[row];
  }
  /// True when every row spans all columns and every column is a typed
  /// int64 array — the shape the specialized comparators handle.
  bool AllInt64() const;

  struct Column {
    enum class Kind : uint8_t { kEmpty, kInt64, kDouble, kBoxed };
    Kind kind = Kind::kEmpty;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<Value> boxed;

    Value ValueAt(size_t row) const;
    /// Overwrites an existing cell, migrating to boxed Values when `v`
    /// does not fit the typed array.
    void Set(size_t row, const Value& v);
    /// Appends `v` as row `rows_before`, migrating the column to boxed
    /// Values on a type change. The first present cell decides the
    /// storage and backfills placeholders for the narrower rows before it.
    void Append(const Value& v, size_t rows_before);
    /// Placeholder for a row too narrow to have this column.
    void AppendAbsent();
    void MigrateToBoxed();
    void Reserve(size_t n);
  };

  static int CompareCells(const Column& x, size_t a, const Column& y,
                          size_t b);

  std::vector<Column> columns_;
  /// Per-row widths; empty while every row spans all columns.
  std::vector<uint32_t> widths_;
  size_t num_rows_ = 0;
};

/// K-way merges bags that are each sorted (KeyArrays::Sort) into one
/// canonical relation with `schema`. Rows that compare equal come out in
/// run order, so the result equals a stable sort of the runs' concatenation.
///
/// With a `pool` of several threads, key ranges merge as pool tasks
/// (DESIGN.md §16): splitters
/// sampled from the runs cut every run at its lower bound, and each task
/// merges its range widened to whole chunks. Rows and chunk layout equal
/// the serial merge byte for byte. Runs whose rows vary in width merge
/// serially.
Relation MergeSortedRuns(const Schema& schema,
                         const std::vector<KeyArrays>& runs,
                         runtime::ThreadPool* pool = nullptr);

}  // namespace rasql::storage

#endif  // RASQL_STORAGE_KEY_ARRAYS_H_
