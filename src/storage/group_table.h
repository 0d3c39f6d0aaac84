#ifndef RASQL_STORAGE_GROUP_TABLE_H_
#define RASQL_STORAGE_GROUP_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "storage/column_chunk.h"
#include "storage/key_arrays.h"

namespace rasql::storage {

/// An open-addressing hash table of row groups: the one grouping structure
/// behind partial aggregation and the SetRDD state (DESIGN.md §17).
///
/// Group g is row g of a KeyArrays, so its key cells and its aggregate cell
/// live in typed int64/double arrays with the per-column boxed fallback;
/// rows stream in from column chunks and out to relations or sorted runs
/// without being boxed. Groups are numbered in first-seen order.
///
/// The hash is ColumnChunk::HashKey over the key columns (HashWholeRow
/// under set semantics). Two rows share a group exactly when their hashes
/// are equal and every key cell compares equal under Value::Compare — the
/// grouping of a RowHash/RowEq hash container, which compares cached hash
/// codes first. So 1 and 1.0 share a group, and so do -0.0 and 0.0, while
/// NaN joins only a NaN with the same bits. A group keeps its first-seen
/// key cells.
class GroupTable {
 public:
  /// With `value_column` < 0 a group is a distinct whole row (set
  /// semantics): rows may be up to `num_columns` cells wide, and rows of
  /// different widths never share a group. Otherwise every row spans
  /// exactly `num_columns` cells, groups on `key_columns`, and carries one
  /// aggregate cell at `value_column`.
  GroupTable(size_t num_columns, std::vector<int> key_columns,
             int value_column);

  size_t num_groups() const { return rows_.num_rows(); }

  /// Finds the group of row `row` of `chunk`. When none matches, the row
  /// becomes group num_groups(). Returns the group and whether it is new.
  std::pair<uint32_t, bool> FindOrInsert(const ColumnChunk& chunk,
                                         size_t row);

  /// Group rows in group order: the first-seen row of every group, with
  /// the aggregate cell as last set.
  const KeyArrays& rows() const { return rows_; }
  /// Moves the group rows out and leaves the table empty.
  KeyArrays TakeRows();

  /// The aggregate cell of group `g`. It is stored in a typed array while
  /// every group's cell has that type (`value_kind()`): Int64Value and
  /// DoubleValue then update it in place. Otherwise go through Value.
  enum class ValueKind { kInt64, kDouble, kOther };
  ValueKind value_kind() const;
  int64_t& Int64Value(uint32_t g) { return value_col().i64[g]; }
  double& DoubleValue(uint32_t g) { return value_col().f64[g]; }
  Value ValueOf(uint32_t g) const {
    return rows_.columns_[static_cast<size_t>(value_column_)].ValueAt(g);
  }
  /// Overwrites the aggregate cell; a cell of another type moves the
  /// column to boxed Values.
  void SetValue(uint32_t g, const Value& v) { value_col().Set(g, v); }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t group = 0;  ///< group index + 1; 0 marks an empty slot
  };

  KeyArrays::Column& value_col() {
    return rows_.columns_[static_cast<size_t>(value_column_)];
  }
  bool RowMatches(const ColumnChunk& chunk, size_t row, uint32_t g) const;
  /// Value::Compare(cell, stored) == 0 for cell (`row`, `c`) of `chunk`
  /// and row `g` of `col`, without boxing the common typed pairs.
  static bool CellMatches(const ColumnChunk& chunk, size_t row, size_t c,
                          const KeyArrays::Column& col, uint32_t g);
  /// Doubles the slot array and re-places every group by its stored hash.
  void Grow();

  KeyArrays rows_;
  std::vector<int> key_columns_;
  int value_column_;
  std::vector<Slot> slots_;
  /// Slots are addressed by the top bits of the hash: partitioning takes
  /// the hash modulo the partition count, which fixes its low bits within
  /// one partition's table.
  int shift_ = 64;
};

}  // namespace rasql::storage

#endif  // RASQL_STORAGE_GROUP_TABLE_H_
