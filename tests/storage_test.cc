#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "storage/relation.h"
#include "storage/row.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace rasql::storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
}

TEST(ValueTest, NumericWidening) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Double(3.5).AsNumeric(), 3.5);
}

TEST(ValueTest, CompareSameType) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Int(3).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
  EXPECT_EQ(Value::String("a").Compare(Value::String("a")), 0);
}

TEST(ValueTest, CompareCrossNumeric) {
  // int64 vs double compares numerically — this is what lets min()/max()
  // aggregates mix integer and double contributions.
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(3.0).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  // Integral doubles hash like their int64 counterpart because they compare
  // equal to it.
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
  EXPECT_NE(Value::Int(7).Hash(), Value::Int(8).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
}

TEST(ValueTest, DoubleHashEdgesMatchCellHash) {
  const double two63 = 9223372036854775808.0;  // 2^63: not an int64
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> edges = {two63, -two63, inf, -inf, nan,
                                     0.0,   -0.0,   9007199254740993.0};
  Relation rel{Schema::Of({{"X", ValueType::kDouble}})};
  for (double v : edges) rel.AppendRow({Value::Double(v)});
  for (size_t i = 0; i < edges.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(rel.chunk(0).HashCell(i, 0), Value::Double(edges[i]).Hash());
    EXPECT_EQ(HashDouble(edges[i]), Value::Double(edges[i]).Hash());
  }
  // -2^63 is INT64_MIN; 2^63 is out of range and hashes its bit pattern.
  EXPECT_EQ(Value::Double(-two63).Hash(),
            Value::Int(std::numeric_limits<int64_t>::min()).Hash());
  uint64_t bits;
  std::memcpy(&bits, &two63, sizeof(bits));
  EXPECT_EQ(Value::Double(two63).Hash(), common::MixHash64(bits));
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Int(0).Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::String("bob").ToString(), "'bob'");
}

TEST(ValueTest, ByteSize) {
  EXPECT_EQ(Value::Int(1).ByteSize(), 8u);
  EXPECT_EQ(Value::Double(1.0).ByteSize(), 8u);
  EXPECT_EQ(Value::String("abcd").ByteSize(), 12u);
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s = Schema::Of({{"Src", ValueType::kInt64},
                         {"Dst", ValueType::kInt64},
                         {"Cost", ValueType::kDouble}});
  EXPECT_EQ(s.FindColumn("src"), 0);
  EXPECT_EQ(s.FindColumn("DST"), 1);
  EXPECT_EQ(s.FindColumn("Cost"), 2);
  EXPECT_EQ(s.FindColumn("missing"), -1);
}

TEST(SchemaTest, Equality) {
  Schema a = Schema::Of({{"A", ValueType::kInt64}});
  Schema b = Schema::Of({{"a", ValueType::kInt64}});
  Schema c = Schema::Of({{"a", ValueType::kDouble}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(RowTest, KeyHashingAndProjection) {
  Row r = {Value::Int(1), Value::Int(2), Value::Double(5.0)};
  Row key = ProjectKey(r, {0, 1});
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].AsInt(), 1);

  Row r2 = {Value::Int(9), Value::Int(2), Value::Int(1)};
  EXPECT_EQ(HashRowKey(r, {0}), HashRowKey(r2, {2}));
  EXPECT_TRUE(RowKeysEqual(r, {0}, r2, {2}));
  EXPECT_FALSE(RowKeysEqual(r, {0}, r2, {0}));
}

TEST(RowTest, LexicographicOrdering) {
  RowLess less;
  Row a = {Value::Int(1), Value::Int(2)};
  Row b = {Value::Int(1), Value::Int(3)};
  EXPECT_TRUE(less(a, b));
  EXPECT_FALSE(less(b, a));
  EXPECT_FALSE(less(a, a));

  // NaN sorts after every number (infinity included) and ties with NaN,
  // so the order stays a strict weak order and a sort is input-order
  // independent.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Row n = {Value::Int(1), Value::Double(nan)};
  Row neg_n = {Value::Int(1), Value::Double(-nan)};
  Row big = {Value::Int(1), Value::Double(inf)};
  Row small = {Value::Int(1), Value::Int(-5)};
  EXPECT_TRUE(less(big, n));
  EXPECT_TRUE(less(small, n));
  EXPECT_TRUE(less(b, n));
  EXPECT_FALSE(less(n, big));
  EXPECT_FALSE(less(n, small));
  EXPECT_FALSE(less(n, neg_n));
  EXPECT_FALSE(less(neg_n, n));
  // A NaN only matters after the columns before it tie.
  Row later = {Value::Int(2), Value::Int(0)};
  EXPECT_TRUE(less(n, later));
  // Strings still sort after numbers, nulls before them.
  EXPECT_TRUE(less(n, Row{Value::Int(1), Value::String("")}));
  EXPECT_TRUE(less(Row{Value::Int(1), Value::Null()}, n));
  // -0.0 and 0.0 tie, as do int64 and double cells that compare equal.
  EXPECT_FALSE(less(Row{Value::Double(-0.0)}, Row{Value::Double(0.0)}));
  EXPECT_FALSE(less(Row{Value::Double(0.0)}, Row{Value::Double(-0.0)}));
  EXPECT_FALSE(less(Row{Value::Int(3)}, Row{Value::Double(3.0)}));

  std::vector<Row> rows = {n, small, neg_n, big, b};
  std::sort(rows.begin(), rows.end(), less);
  EXPECT_EQ(rows[0][1].AsInt(), -5);
  EXPECT_EQ(rows[1][1].AsInt(), 3);
  EXPECT_EQ(rows[2][1].AsDouble(), inf);
  EXPECT_TRUE(std::isnan(rows[3][1].AsDouble()));
  EXPECT_TRUE(std::isnan(rows[4][1].AsDouble()));
}

TEST(RelationTest, MakeIntRelation) {
  Relation r = MakeIntRelation({"Src", "Dst"}, {{1, 2}, {2, 3}});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.schema().num_columns(), 2);
  EXPECT_EQ(r.row(1)[1].AsInt(), 3);
}

TEST(RelationTest, DedupRemovesDuplicates) {
  Relation r = MakeIntRelation({"X"}, {{3}, {1}, {3}, {2}, {1}});
  r.Dedup();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.row(0)[0].AsInt(), 1);
  EXPECT_EQ(r.row(2)[0].AsInt(), 3);
}

TEST(RelationTest, SameBagIsOrderInsensitive) {
  Relation a = MakeIntRelation({"X", "Y"}, {{1, 2}, {3, 4}});
  Relation b = MakeIntRelation({"X", "Y"}, {{3, 4}, {1, 2}});
  Relation c = MakeIntRelation({"X", "Y"}, {{3, 4}, {1, 5}});
  EXPECT_TRUE(SameBag(a, b));
  EXPECT_FALSE(SameBag(a, c));
}

TEST(RelationTest, SameBagRespectsMultiplicity) {
  Relation a = MakeIntRelation({"X"}, {{1}, {1}, {2}});
  Relation b = MakeIntRelation({"X"}, {{1}, {2}, {2}});
  EXPECT_FALSE(SameBag(a, b));
}

TEST(RelationTest, ByteSizeSums) {
  Relation r = MakeIntRelation({"X", "Y"}, {{1, 2}, {3, 4}});
  EXPECT_EQ(r.ByteSize(), 32u);
}

}  // namespace
}  // namespace rasql::storage
