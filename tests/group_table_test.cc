// The typed fixpoint data plane (DESIGN.md §17): storage::GroupTable must
// group rows exactly as the Row-keyed hash containers it replaced, and
// dist::PartialAggregate and dist::SetRddPartition built on it must produce
// the same rows, bit for bit, as that row code — kept below as the oracle,
// with groups listed in first-seen order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dist/aggregates.h"
#include "dist/set_rdd.h"
#include "storage/group_table.h"
#include "storage/key_arrays.h"
#include "storage/relation.h"

namespace rasql {
namespace {

using dist::AggSpec;
using expr::AggregateFunction;
using storage::GroupTable;
using storage::Relation;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kTwo53 = int64_t{1} << 53;

// ---- Oracle: the Row-keyed code the group table replaced ----
//
// RowHash is not noexcept, so libstdc++ caches hash codes in these
// containers and compares them before RowEq: two rows share an entry
// exactly when their hashes are equal and RowEq holds. That is the
// GroupTable contract.

using RowSet = std::unordered_set<Row, storage::RowHash, storage::RowEq>;
using RowMap =
    std::unordered_map<Row, Value, storage::RowHash, storage::RowEq>;

/// The row overload of PartialAggregate, emitting groups in first-seen
/// order (element pointers stay valid across rehashes).
std::vector<Row> OraclePartialAggregate(const std::vector<Row>& rows,
                                        const AggSpec& spec) {
  std::vector<Row> out;
  if (!spec.has_aggregate()) {
    RowSet seen;
    for (const Row& row : rows) {
      if (seen.insert(row).second) out.push_back(row);
    }
    return out;
  }
  RowMap groups;
  std::vector<const RowMap::value_type*> order;
  for (const Row& row : rows) {
    const Value& v = row[spec.agg_column];
    auto [it, inserted] =
        groups.try_emplace(storage::ProjectKey(row, spec.key_columns), v);
    if (inserted) {
      order.push_back(&*it);
    } else {
      it->second = dist::CombineAgg(spec.function, it->second, v);
    }
  }
  for (const RowMap::value_type* group : order) {
    Row row(spec.key_columns.size() + 1);
    for (size_t i = 0; i < spec.key_columns.size(); ++i) {
      row[spec.key_columns[i]] = group->first[i];
    }
    row[spec.agg_column] = group->second;
    out.push_back(std::move(row));
  }
  return out;
}

/// The Row-keyed SetRddPartition (MergeOne and Absorb), state listed in
/// first-seen order.
class OracleSetRdd {
 public:
  explicit OracleSetRdd(AggSpec spec) : spec_(std::move(spec)) {}

  void MergeDelta(const std::vector<Row>& candidates,
                  std::vector<Row>* delta) {
    const bool accumulates = spec_.function == AggregateFunction::kSum ||
                             spec_.function == AggregateFunction::kCount;
    for (const Row& row : candidates) {
      if (!spec_.has_aggregate()) {
        auto [it, inserted] = set_state_.insert(row);
        if (inserted) {
          set_order_.push_back(&*it);
          byte_size_ += storage::RowByteSize(row);
          delta->push_back(row);
        }
        continue;
      }
      const Value& v = row[spec_.agg_column];
      auto [it, inserted] = agg_state_.try_emplace(
          storage::ProjectKey(row, spec_.key_columns), v);
      if (inserted) {
        agg_order_.push_back(&*it);
        byte_size_ += storage::RowByteSize(row);
        delta->push_back(row);
      } else if (accumulates) {
        it->second = dist::CombineAgg(spec_.function, it->second, v);
        delta->push_back(row);
      } else if (dist::ImprovesAgg(spec_.function, it->second, v)) {
        it->second = v;
        delta->push_back(row);
      }
    }
  }

  std::vector<Row> Rows() const {
    std::vector<Row> out;
    for (const Row* row : set_order_) out.push_back(*row);
    for (const RowMap::value_type* group : agg_order_) {
      Row row(spec_.key_columns.size() + 1);
      for (size_t i = 0; i < spec_.key_columns.size(); ++i) {
        row[spec_.key_columns[i]] = group->first[i];
      }
      row[spec_.agg_column] = group->second;
      out.push_back(std::move(row));
    }
    return out;
  }

  size_t byte_size() const { return byte_size_; }

 private:
  AggSpec spec_;
  RowSet set_state_;
  RowMap agg_state_;
  std::vector<const Row*> set_order_;
  std::vector<const RowMap::value_type*> agg_order_;
  size_t byte_size_ = 0;
};

// ---- Helpers ----

/// Exact cell identity: same type and, for doubles, the same bit pattern
/// (so -0.0 vs 0.0 and NaN payloads are told apart).
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt() == b.AsInt();
    case ValueType::kDouble: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

void ExpectSameRows(const std::vector<Row>& got,
                    const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "row " << i;
    for (size_t c = 0; c < got[i].size(); ++c) {
      ASSERT_TRUE(SameCell(got[i][c], want[i][c]))
          << "row " << i << " col " << c << ": " << got[i][c] << " vs "
          << want[i][c];
    }
  }
}

Relation Rel(const std::vector<Row>& rows) {
  Relation rel;
  for (const Row& row : rows) rel.AppendRow(row);
  return rel;
}

/// Key cell shapes. Small pools make duplicate keys common.
Value DrawKey(int shape, size_t row, std::mt19937_64& rng) {
  auto pick = [&](size_t n) { return static_cast<int64_t>(rng() % n); };
  switch (shape) {
    case 0: {  // int64 extremes and values past double precision
      const int64_t pool[] = {std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(),
                              kTwo53 + 1,
                              kTwo53,
                              -1,
                              0,
                              7};
      return Value::Int(pool[pick(7)]);
    }
    case 1:  // int64 and integral doubles in one column: 1 vs 1.0
      return rng() % 2 == 0 ? Value::Int(pick(5))
                            : Value::Double(static_cast<double>(pick(5)));
    case 2: {  // signed zeros, infinities, NaNs with two payloads
      const double pool[] = {0.0, -0.0, kNaN, -kNaN, 1.5, kInf, -kInf};
      return Value::Double(pool[pick(7)]);
    }
    case 3:  // nullable int64
      return rng() % 4 == 0 ? Value::Null() : Value::Int(pick(4));
    case 4: {  // dictionary strings
      const char* pool[] = {"", "a", "b", "zz"};
      return Value::String(pool[pick(4)]);
    }
    default:  // typed per chunk: int64 in even chunks, double in odd ones
      return (row / storage::kChunkRows) % 2 == 0
                 ? Value::Int(pick(6))
                 : Value::Double(static_cast<double>(pick(6)));
  }
}

/// Aggregate cells for `function`. Sums stay small so int64 sums never
/// overflow. Min/max pools put cells that tie under Value::Compare but
/// differ in bits (-0.0 vs 0.0, 3 vs 3.0, NaN) at the winning end, so
/// which of them a group keeps is observable.
Value DrawValue(AggregateFunction function, int shape, size_t row,
                std::mt19937_64& rng) {
  auto pick = [&](size_t n) { return static_cast<int64_t>(rng() % n); };
  const bool accumulates = function == AggregateFunction::kSum ||
                           function == AggregateFunction::kCount;
  const double away = function == AggregateFunction::kMax ? -1.0 : 1.0;
  switch (shape) {
    case 0:
      return Value::Int(pick(50) - 10);
    case 1: {
      if (accumulates) {
        const double pool[] = {0.1, -0.0, 0.0, 1.5, -2.25, 3.0};
        return Value::Double(pool[pick(6)]);
      }
      const double pool[] = {0.0, -0.0, 1.5 * away, kNaN, 2.0 * away};
      return Value::Double(pool[pick(5)]);
    }
    case 2: {  // ints and doubles in one column, equal values included
      const int64_t k = pick(4);
      switch (rng() % 3) {
        case 0:
          return Value::Int(k);
        case 1:
          return Value::Double(static_cast<double>(k));
        default:
          return Value::Double(static_cast<double>(k) + 0.5 * away);
      }
    }
    case 3:
      if (!accumulates && rng() % 5 == 0) return Value::Null();
      return Value::Int(pick(9));
    default:
      return (row / storage::kChunkRows) % 2 == 0
                 ? Value::Int(pick(9))
                 : Value::Double(static_cast<double>(pick(9)) * 0.5);
  }
}

/// A multi-chunk relation of `key_shapes.size()` key columns followed by
/// one value column (when `function` aggregates).
Relation RandomRelation(const std::vector<int>& key_shapes,
                        AggregateFunction function, int value_shape,
                        size_t rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Relation rel;
  Row row;
  for (size_t r = 0; r < rows; ++r) {
    row.clear();
    for (int shape : key_shapes) row.push_back(DrawKey(shape, r, rng));
    if (function != AggregateFunction::kNone) {
      row.push_back(DrawValue(function, value_shape, r, rng));
    }
    rel.AppendRow(row);
  }
  return rel;
}

const AggregateFunction kFunctions[] = {
    AggregateFunction::kNone, AggregateFunction::kMin,
    AggregateFunction::kMax, AggregateFunction::kSum,
    AggregateFunction::kCount};

const std::vector<std::vector<int>> kKeyLayouts = {
    {0}, {1}, {2}, {3}, {4}, {5}, {0, 4}, {1, 2}, {3, 5}};

AggSpec SpecFor(size_t num_keys, AggregateFunction function) {
  const int width = static_cast<int>(num_keys) +
                    (function == AggregateFunction::kNone ? 0 : 1);
  return AggSpec::For(width,
                      function == AggregateFunction::kNone ? -1 : width - 1,
                      function);
}

// ---- GroupTable ----

TEST(GroupTableTest, GroupsFollowTheHashAndCompareContract) {
  const Relation rel = Rel({
      {Value::Int(1), Value::Int(10)},             // g0
      {Value::Double(1.0), Value::Int(11)},        // g0: equal, same hash
      {Value::Double(-0.0), Value::Int(12)},       // g1
      {Value::Int(0), Value::Int(13)},             // g1
      {Value::Double(kNaN), Value::Int(14)},       // g2
      {Value::Double(kNaN), Value::Int(15)},       // g2: same bits
      {Value::Double(5.0), Value::Int(16)},        // g3: NaN ties, hash not
      {Value::Int(kTwo53 + 1), Value::Int(17)},    // g4
      {Value::Double(9007199254740992.0), Value::Int(18)},  // g5
      {Value::Null(), Value::Int(19)},             // g6
      {Value::Null(), Value::Int(20)},             // g6
      {Value::String("a"), Value::Int(21)},        // g7
  });
  GroupTable table(2, {0}, 1);
  std::vector<uint32_t> groups;
  std::vector<bool> inserted;
  for (size_t r = 0; r < rel.size(); ++r) {
    const auto [g, is_new] = table.FindOrInsert(rel.chunk(0), r);
    groups.push_back(g);
    inserted.push_back(is_new);
  }
  EXPECT_EQ(groups, (std::vector<uint32_t>{0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 6,
                                           7}));
  EXPECT_EQ(inserted, (std::vector<bool>{true, false, true, false, true,
                                         false, true, true, true, true,
                                         false, true}));
  ASSERT_EQ(table.num_groups(), 8u);
  // A group keeps its first-seen row.
  Row row;
  table.rows().MaterializeRow(0, &row);
  EXPECT_TRUE(SameCell(row[0], Value::Int(1)));
  EXPECT_TRUE(SameCell(row[1], Value::Int(10)));
  table.rows().MaterializeRow(1, &row);
  EXPECT_TRUE(SameCell(row[0], Value::Double(-0.0)));
}

TEST(GroupTableTest, TypedKeysMatchAcrossDifferentlyTypedChunks) {
  // An int64 chunk then a double chunk: the stored column turns boxed once
  // a double key opens a group, and lookups still compare numerically.
  GroupTable table(1, {}, -1);
  const Relation ints = Rel({{Value::Int(3)}, {Value::Int(4)}});
  const Relation doubles = Rel({{Value::Double(4.0)}, {Value::Double(4.5)},
                                {Value::Double(3.0)}});
  EXPECT_TRUE(table.FindOrInsert(ints.chunk(0), 0).second);
  EXPECT_TRUE(table.FindOrInsert(ints.chunk(0), 1).second);
  EXPECT_EQ(table.FindOrInsert(doubles.chunk(0), 0),
            (std::pair<uint32_t, bool>{1, false}));
  EXPECT_EQ(table.FindOrInsert(doubles.chunk(0), 1),
            (std::pair<uint32_t, bool>{2, true}));
  EXPECT_EQ(table.FindOrInsert(doubles.chunk(0), 2),
            (std::pair<uint32_t, bool>{0, false}));
  EXPECT_EQ(table.FindOrInsert(ints.chunk(0), 0),
            (std::pair<uint32_t, bool>{0, false}));
}

TEST(GroupTableTest, PartialAggregateMatchesRowOracle) {
  uint64_t seed = 100;
  for (AggregateFunction function : kFunctions) {
    for (const std::vector<int>& keys : kKeyLayouts) {
      for (int value_shape = 0; value_shape < 5; ++value_shape) {
        if (function == AggregateFunction::kNone && value_shape > 0) break;
        const AggSpec spec = SpecFor(keys.size(), function);
        const Relation rel =
            RandomRelation(keys, function, value_shape, 2600, ++seed);
        SCOPED_TRACE("function=" + std::to_string(static_cast<int>(function)) +
                     " keys=" + std::to_string(keys[0]) + "/" +
                     std::to_string(keys.size()) +
                     " value_shape=" + std::to_string(value_shape));
        const Relation got = dist::PartialAggregate(rel, spec);
        EXPECT_TRUE(got.schema() == rel.schema());
        ExpectSameRows(got.MaterializeRows(),
                       OraclePartialAggregate(rel.MaterializeRows(), spec));
      }
    }
  }
}

TEST(GroupTableTest, SetSemanticsOverWidthSealedChunks) {
  // Rows of width 3 and 2 in one relation: a width change seals a chunk,
  // and rows of different widths never share a group.
  std::mt19937_64 rng(7);
  Relation rel;
  for (size_t r = 0; r < 3000; ++r) {
    const bool narrow = (r / 700) % 2 == 1;
    Row row = {Value::Int(static_cast<int64_t>(rng() % 4)),
               DrawKey(1, r, rng)};
    if (!narrow) row.push_back(DrawKey(2, r, rng));
    rel.AppendRow(row);
  }
  ASSERT_GT(rel.num_chunks(), 4u);
  const AggSpec spec = SpecFor(3, AggregateFunction::kNone);
  ExpectSameRows(dist::PartialAggregate(rel, spec).MaterializeRows(),
                 OraclePartialAggregate(rel.MaterializeRows(), spec));
}

// ---- SetRddPartition ----

TEST(SetRddPartitionTest, DeltasStateAndBytesMatchRowOracle) {
  uint64_t seed = 500;
  for (AggregateFunction function : kFunctions) {
    for (const std::vector<int>& keys : kKeyLayouts) {
      for (int value_shape = 0; value_shape < 5; ++value_shape) {
        if (function == AggregateFunction::kNone && value_shape > 0) break;
        SCOPED_TRACE("function=" + std::to_string(static_cast<int>(function)) +
                     " keys=" + std::to_string(keys[0]) + "/" +
                     std::to_string(keys.size()) +
                     " value_shape=" + std::to_string(value_shape));
        const AggSpec spec = SpecFor(keys.size(), function);
        std::vector<storage::Column> columns;
        const size_t width =
            keys.size() + (function == AggregateFunction::kNone ? 0 : 1);
        for (size_t c = 0; c < width; ++c) {
          columns.push_back({"c" + std::to_string(c), ValueType::kInt64});
        }
        dist::SetRddPartition part(Schema(columns), spec);
        OracleSetRdd oracle(spec);
        for (int round = 0; round < 4; ++round) {
          const Relation candidates =
              RandomRelation(keys, function, value_shape, 1300, ++seed);
          Relation delta(part.schema());
          part.MergeDelta(candidates, &delta);
          std::vector<Row> want_delta;
          oracle.MergeDelta(candidates.MaterializeRows(), &want_delta);
          ExpectSameRows(delta.MaterializeRows(), want_delta);
          ExpectSameRows(part.ToRelation().MaterializeRows(), oracle.Rows());
          EXPECT_EQ(part.byte_size(), oracle.byte_size());
          EXPECT_EQ(part.size(), oracle.Rows().size());
        }
        // The sorted run is the stable canonical sort of the state.
        std::vector<Row> want = oracle.Rows();
        std::stable_sort(want.begin(), want.end(), storage::RowLess());
        const storage::KeyArrays run = part.TakeSortedRun();
        ExpectSameRows(
            storage::MergeSortedRuns(part.schema(), {run}).MaterializeRows(),
            want);
        EXPECT_EQ(part.size(), 0u);
        EXPECT_EQ(part.byte_size(), 0u);
      }
    }
  }
}

TEST(SetRddPartitionTest, AbsorbOverwritesExistingKeys) {
  const Schema schema = Schema::Of(
      {{"K", ValueType::kInt64}, {"V", ValueType::kInt64}});
  dist::SetRddPartition part(schema,
                             AggSpec::For(2, 1, AggregateFunction::kMin));
  Relation delta(schema);
  part.MergeDelta(Rel({{Value::Int(1), Value::Int(10)},
                       {Value::Int(2), Value::Int(20)}}),
                  &delta);
  const size_t bytes = part.byte_size();
  EXPECT_EQ(bytes, 32u);
  // A converged value replaces the stored one even when a min() merge
  // would have kept the old value, and may change the cell's type.
  part.Absorb(Rel({{Value::Int(1), Value::Int(50)},
                   {Value::Int(3), Value::Int(30)},
                   {Value::Int(2), Value::Double(2.5)}}));
  EXPECT_EQ(part.size(), 3u);
  EXPECT_EQ(part.byte_size(), bytes + 16);
  ExpectSameRows(part.ToRelation().MaterializeRows(),
                 {{Value::Int(1), Value::Int(50)},
                  {Value::Int(2), Value::Double(2.5)},
                  {Value::Int(3), Value::Int(30)}});
  // Absorbing emits no delta; a later merge compares against the state.
  delta.Clear();
  part.MergeDelta(Rel({{Value::Int(1), Value::Int(40)},
                       {Value::Int(3), Value::Int(31)}}),
                  &delta);
  ExpectSameRows(delta.MaterializeRows(), {{Value::Int(1), Value::Int(40)}});
}

}  // namespace
}  // namespace rasql
