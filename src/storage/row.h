#ifndef RASQL_STORAGE_ROW_H_
#define RASQL_STORAGE_ROW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "storage/value.h"

namespace rasql::storage {

/// A tuple: a fixed-arity vector of values. Rows are passed by value inside
/// operators (they are cheap to move) and stored contiguously in Relations.
using Row = std::vector<Value>;

/// Hash of the whole row (all columns).
inline uint64_t HashRow(const Row& row) {
  uint64_t h = 0x84222325cbf29ce4ULL;
  for (const Value& v : row) h = common::HashCombine(h, v.Hash());
  return h;
}

/// Hash of a subset of columns (the join/group-by key).
inline uint64_t HashRowKey(const Row& row, const std::vector<int>& key_cols) {
  uint64_t h = 0x84222325cbf29ce4ULL;
  for (int c : key_cols) h = common::HashCombine(h, row[c].Hash());
  return h;
}

/// Extracts the named key columns into a new row.
inline Row ProjectKey(const Row& row, const std::vector<int>& key_cols) {
  Row key;
  key.reserve(key_cols.size());
  for (int c : key_cols) key.push_back(row[c]);
  return key;
}

/// True when the two rows agree on every listed column pair.
inline bool RowKeysEqual(const Row& a, const std::vector<int>& a_cols,
                         const Row& b, const std::vector<int>& b_cols) {
  if (a_cols.size() != b_cols.size()) return false;
  for (size_t i = 0; i < a_cols.size(); ++i) {
    if (a[a_cols[i]] != b[b_cols[i]]) return false;
  }
  return true;
}

/// Approximate serialized size of a row; feeds the shuffle cost model.
inline size_t RowByteSize(const Row& row) {
  size_t n = 0;
  for (const Value& v : row) n += v.ByteSize();
  return n;
}

/// "(v1, v2, ...)" rendering for tests and debugging.
std::string RowToString(const Row& row);

/// Functors for using Row in hash containers.
struct RowHash {
  size_t operator()(const Row& row) const {
    return static_cast<size_t>(HashRow(row));
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
};

/// Lexicographic row comparison under the canonical value order
/// (CanonicalCompare, so NaN sorts after every number instead of tying
/// with it); on a common prefix the shorter row sorts first.
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    const size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; ++i) {
      const int c = CanonicalCompare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

}  // namespace rasql::storage

#endif  // RASQL_STORAGE_ROW_H_
