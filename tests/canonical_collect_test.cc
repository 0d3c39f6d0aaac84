// Canonical collect (DESIGN.md §16): the typed sort over KeyArrays must
// equal a reference std::stable_sort under RowLess on every column shape;
// SetRdd::CanonicalCollect must equal Collect() + SortRows() byte for byte
// at any partition and thread count; the range-parallel MergeSortedRuns
// must equal the serial merge row for row and chunk for chunk; the pool-parallel Partition must equal
// row-by-row placement; and the distributed base case aggregated from
// chunks must equal the materialized-row path row for row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "datagen/graph_gen.h"
#include "dist/aggregates.h"
#include "dist/partition.h"
#include "dist/set_rdd.h"
#include "engine/rasql_context.h"
#include "runtime/thread_pool.h"
#include "storage/key_arrays.h"
#include "storage/relation.h"
#include "storage/result_format.h"

namespace rasql {
namespace {

using dist::AggSpec;
using expr::AggregateFunction;
using storage::KeyArrays;
using storage::Relation;
using storage::Row;
using storage::RowLess;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

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

void ExpectSameRowsExactly(const std::vector<Row>& got,
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

/// Same rows, same cells, same chunk layout.
void ExpectSameRelation(const Relation& got, const Relation& want) {
  EXPECT_TRUE(got.schema() == want.schema());
  EXPECT_EQ(got.num_chunks(), want.num_chunks());
  EXPECT_EQ(got.ByteSize(), want.ByteSize());
  ExpectSameRowsExactly(got.MaterializeRows(), want.MaterializeRows());
}

Relation MakeRelationOfDoubles(const std::vector<double>& values) {
  Relation rel{Schema::Of({{"X", ValueType::kDouble}})};
  for (double v : values) rel.AppendRow({Value::Double(v)});
  return rel;
}

// ---- Typed sort vs reference stable sort ----

/// Draws cells for one column shape. Small pools make ties (equal keys in
/// column 0 decided by later columns, and fully equal rows) common.
Value DrawCell(int shape, std::mt19937_64& rng) {
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  switch (shape) {
    case 0: {  // int64 with extremes and values past double precision
      const int64_t pool[] = {std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(),
                              (int64_t{1} << 53) + 1,
                              int64_t{1} << 53,
                              -1,
                              0,
                              7,
                              42};
      return Value::Int(pool[pick(8)]);
    }
    case 1: {  // doubles with signed zeros, infinities and NaNs
      const double pool[] = {0.0, -0.0, kInf, -kInf, kNaN, -kNaN, 1.5, -2.25};
      return Value::Double(pool[pick(8)]);
    }
    case 2: {  // dictionary strings
      const char* pool[] = {"", "a", "ab", "b", "zz"};
      return Value::String(pool[pick(5)]);
    }
    case 3:  // nullable int64
      return rng() % 3 == 0 ? Value::Null() : Value::Int(pick(4));
    case 4:  // boxed: ints and doubles in one chunk column
      return rng() % 2 == 0 ? Value::Int(pick(4))
                            : Value::Double(static_cast<double>(pick(4)) +
                                            (rng() % 2 == 0 ? 0.0 : 0.5));
    default:  // NaN-heavy doubles
      return Value::Double(rng() % 2 == 0 ? kNaN
                                          : static_cast<double>(pick(3)));
  }
}

Relation RandomRelation(const std::vector<int>& shapes, size_t rows,
                        uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<storage::Column> cols;
  for (size_t c = 0; c < shapes.size(); ++c) {
    cols.push_back({"c" + std::to_string(c), ValueType::kInt64});
  }
  Relation rel{Schema(std::move(cols))};
  Row row(shapes.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < shapes.size(); ++c) {
      row[c] = DrawCell(shapes[c], rng);
    }
    rel.AppendRow(row);
  }
  return rel;
}

void ExpectTypedSortMatchesReference(const Relation& input) {
  std::vector<Row> want = input.MaterializeRows();
  std::stable_sort(want.begin(), want.end(), RowLess());

  Relation sorted = input;
  sorted.SortRows();
  ExpectSameRowsExactly(sorted.MaterializeRows(), want);
  // Rebuilt exactly like appending the reference rows.
  ExpectSameRelation(sorted, Relation(input.schema(), want));

  // Dedup keeps the first row of every run of canonically equal rows.
  std::vector<Row> unique;
  for (const Row& row : want) {
    if (unique.empty() || RowLess()(unique.back(), row)) unique.push_back(row);
  }
  Relation deduped = input;
  deduped.Dedup();
  ExpectSameRowsExactly(deduped.MaterializeRows(), unique);
}

TEST(TypedSortTest, MatchesStableSortOnEveryColumnShape) {
  // Pure int64 bags of one to five columns cover the packed sorts (up to
  // four columns) and the index sort past them.
  const std::vector<std::vector<int>> layouts = {
      {0},
      {0, 0},
      {0, 0, 0},
      {0, 0, 0, 0, 0},
      {0, 1},        // int64 then doubles
      {1, 0},        // doubles first: NaN / signed-zero ties
      {2, 0},        // dictionary strings
      {3, 1},        // nulls
      {4, 2},        // boxed int/double
      {5, 3, 4},     // NaN-heavy + nulls + boxed
      {0, 1, 2, 3},  // everything
  };
  uint64_t seed = 1;
  for (const auto& layout : layouts) {
    for (size_t rows : {size_t{0}, size_t{1}, size_t{700}, size_t{3100}}) {
      SCOPED_TRACE("layout size " + std::to_string(layout.size()) +
                   " rows " + std::to_string(rows));
      ExpectTypedSortMatchesReference(RandomRelation(layout, rows, seed++));
    }
  }
}

TEST(TypedSortTest, ColumnsTypedDifferentlyAcrossChunks) {
  // Column 0 is int64 in one chunk and double in the next, so the column
  // is typed per chunk but boxed across the relation.
  Relation rel{
      Schema::Of({{"A", ValueType::kInt64}, {"B", ValueType::kInt64}})};
  std::mt19937_64 rng(9);
  for (size_t r = 0; r < 2 * storage::kChunkRows + 17; ++r) {
    const bool ints = (r / storage::kChunkRows) % 2 == 0;
    const int64_t v = static_cast<int64_t>(rng() % 50);
    rel.AppendRow({ints ? Value::Int(v) : Value::Double(v + 0.5),
                   Value::Int(static_cast<int64_t>(rng() % 3))});
  }
  ExpectTypedSortMatchesReference(rel);
}

TEST(TypedSortTest, WidthChangeSealedChunks) {
  // Rows of width 2, then 1, then 2 again: two sealed short chunks and
  // rows compared on their common prefix, shorter first.
  Relation rel;
  std::mt19937_64 rng(3);
  for (int block = 0; block < 3; ++block) {
    for (int i = 0; i < 600; ++i) {
      Row row = {Value::Int(static_cast<int64_t>(rng() % 20))};
      if (block != 1) row.push_back(DrawCell(1, rng));
      rel.AppendRow(row);
    }
  }
  ASSERT_EQ(rel.num_chunks(), 3u);
  ExpectTypedSortMatchesReference(rel);
}

TEST(TypedSortTest, SameBagUsesTheCanonicalOrder) {
  Relation a = RandomRelation({1, 0, 2}, 2500, 77);
  std::vector<Row> rows = a.MaterializeRows();
  std::mt19937_64 rng(5);
  std::shuffle(rows.begin(), rows.end(), rng);
  Relation b(a.schema(), rows);
  EXPECT_TRUE(storage::SameBag(a, b));

  // NaN matches NaN only, not every number.
  Relation nan = MakeRelationOfDoubles({kNaN, 1.0});
  Relation num = MakeRelationOfDoubles({2.0, 1.0});
  EXPECT_FALSE(storage::SameBag(nan, num));
  EXPECT_TRUE(storage::SameBag(nan, MakeRelationOfDoubles({1.0, -kNaN})));
  // int64 and double cells that compare equal still match.
  Relation ints = storage::MakeIntRelation({"X"}, {{1}, {2}});
  EXPECT_TRUE(storage::SameBag(ints, MakeRelationOfDoubles({2.0, 1.0})));
}

// ---- SetRdd canonical collect vs Collect() + SortRows() ----

struct CollectCase {
  const char* name;
  AggregateFunction function;
};

/// A three-column SetRdd (int key, second key, value) filled by a few
/// MergeDelta rounds of random candidates routed to their partitions. With
/// `all_int` every cell is an int64 (set and count states then take the
/// all-int64 sort and merge paths); otherwise the second key is a string.
dist::SetRdd BuildRdd(AggregateFunction function, int num_partitions,
                      bool all_int, uint64_t seed) {
  const Schema schema = Schema::Of(
      {{"K", ValueType::kInt64},
       {"S", all_int ? ValueType::kInt64 : ValueType::kString},
       {"V", ValueType::kDouble}});
  const bool aggregate = function != AggregateFunction::kNone;
  const AggSpec spec = AggSpec::For(3, aggregate ? 2 : -1, function);
  const dist::Partitioning partitioning{spec.key_columns, num_partitions};
  dist::SetRdd rdd(schema, spec, partitioning);
  std::mt19937_64 rng(seed);
  const char* names[] = {"x", "y", "zz"};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<Row>> candidates(num_partitions);
    for (int i = 0; i < 1500; ++i) {
      Value v;
      switch (function) {
        case AggregateFunction::kCount:
          v = Value::Int(static_cast<int64_t>(rng() % 5) + 1);
          break;
        case AggregateFunction::kSum:
          v = Value::Double(static_cast<double>(rng() % 100) / 4);
          break;
        default:  // set, min, max: NaN-heavy values
          v = all_int ? Value::Int(static_cast<int64_t>(rng() % 7))
                      : DrawCell(5, rng);
          break;
      }
      const size_t second = rng() % 3;
      Row row = {Value::Int(static_cast<int64_t>(rng() % 400)),
                 all_int ? Value::Int(static_cast<int64_t>(second))
                         : Value::String(names[second]),
                 v};
      candidates[partitioning.PartitionOf(row)].push_back(std::move(row));
    }
    for (int p = 0; p < num_partitions; ++p) {
      Relation delta(schema);
      rdd.partition(p)->MergeDelta(
          dist::PartialAggregate(Relation(schema, candidates[p]), spec),
          &delta);
    }
  }
  return rdd;
}

void ExpectCanonicalCollectMatches(const CollectCase& c, int partitions,
                                   bool all_int) {
  dist::SetRdd reference = BuildRdd(c.function, partitions, all_int, 17);
  Relation want = reference.Collect();
  want.SortRows();
  const std::string want_csv =
      storage::FormatRelation(want, storage::ResultFormat::kCsv);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::string(c.name) + " P=" + std::to_string(partitions) +
                 " all_int=" + std::to_string(all_int) +
                 " threads=" + std::to_string(threads));
    dist::SetRdd rdd = BuildRdd(c.function, partitions, all_int, 17);
    ASSERT_EQ(rdd.TotalRows(), reference.TotalRows());
    runtime::ThreadPool pool(threads);
    Relation got = rdd.CanonicalCollect(&pool);
    ExpectSameRelation(got, want);
    EXPECT_EQ(storage::FormatRelation(got, storage::ResultFormat::kCsv),
              want_csv);
    // The collect consumed every partition's hash state.
    EXPECT_EQ(rdd.TotalRows(), 0u);
    EXPECT_EQ(rdd.TotalBytes(), 0u);
  }
  // No pool: the one-thread cluster runtime's inline path.
  dist::SetRdd rdd = BuildRdd(c.function, partitions, all_int, 17);
  ExpectSameRelation(rdd.CanonicalCollect(nullptr), want);
}

TEST(CanonicalCollectTest, MatchesCollectThenSortRowsByteForByte) {
  const CollectCase cases[] = {{"set", AggregateFunction::kNone},
                               {"min", AggregateFunction::kMin},
                               {"max", AggregateFunction::kMax},
                               {"sum", AggregateFunction::kSum},
                               {"count", AggregateFunction::kCount}};
  for (const CollectCase& c : cases) {
    for (int partitions : {1, 8, 30}) {
      for (bool all_int : {false, true}) {
        ExpectCanonicalCollectMatches(c, partitions, all_int);
      }
    }
  }
}

TEST(CanonicalCollectTest, MergeKeepsRunOrderOnTies) {
  // Cells that compare equal but differ in bits (signed zeros, NaN
  // payloads, int64 vs double) tie across runs: they come out in run
  // order, as a stable sort of the runs' concatenation would place them.
  const Schema schema = Schema::Of({{"X", ValueType::kDouble}});
  const Relation cells[2] = {
      Relation(schema, {{Value::Double(-0.0)},
                        {Value::Double(kNaN)},
                        {Value::Int(3)}}),
      Relation(schema, {{Value::Double(0.0)},
                        {Value::Double(-kNaN)},
                        {Value::Double(3.0)}})};
  std::vector<KeyArrays> runs(2, KeyArrays(1));
  for (size_t r = 0; r < 3; ++r) {
    runs[0].AppendRowFrom(cells[0].chunk(0), r);
    runs[1].AppendRowFrom(cells[1].chunk(0), r);
  }
  for (KeyArrays& run : runs) run.Sort();
  ExpectSameRowsExactly(
      storage::MergeSortedRuns(schema, runs).MaterializeRows(),
      {{Value::Double(-0.0)},
       {Value::Double(0.0)},
       {Value::Int(3)},
       {Value::Double(3.0)},
       {Value::Double(kNaN)},
       {Value::Double(-kNaN)}});
}

// ---- Pooled MergeSortedRuns vs the serial merge ----

/// Same chunks (row count, width, bytes and every column's storage) and
/// the same rows, bit for bit.
void ExpectSameChunks(const Relation& got, const Relation& want) {
  ASSERT_EQ(got.num_chunks(), want.num_chunks());
  for (size_t c = 0; c < got.num_chunks(); ++c) {
    const storage::ColumnChunk& a = got.chunk(c);
    const storage::ColumnChunk& b = want.chunk(c);
    ASSERT_EQ(a.num_rows(), b.num_rows()) << "chunk " << c;
    ASSERT_EQ(a.num_columns(), b.num_columns()) << "chunk " << c;
    EXPECT_EQ(a.ByteSize(), b.ByteSize()) << "chunk " << c;
    for (size_t col = 0; col < a.num_columns(); ++col) {
      EXPECT_EQ(a.column(col).tag, b.column(col).tag) << c << "/" << col;
      EXPECT_EQ(a.column(col).variant, b.column(col).variant)
          << c << "/" << col;
      EXPECT_EQ(a.column(col).null_count, b.column(col).null_count)
          << c << "/" << col;
      EXPECT_EQ(a.column(col).dict, b.column(col).dict) << c << "/" << col;
    }
  }
  ExpectSameRelation(got, want);
}

/// Run sizes summing to `total`: uneven, with an empty run every fifth.
std::vector<size_t> RunSizes(size_t num_runs, size_t total) {
  std::vector<size_t> weights(num_runs);
  size_t sum = 0;
  for (size_t r = 0; r < num_runs; ++r) {
    weights[r] = r % 5 == 3 ? 0 : r % 7 + 1;
    sum += weights[r];
  }
  std::vector<size_t> sizes(num_runs, 0);
  size_t given = 0;
  for (size_t r = 0; r < num_runs; ++r) {
    sizes[r] = sum == 0 ? 0 : total * weights[r] / sum;
    given += sizes[r];
  }
  if (num_runs > 0) sizes[0] += total - given;
  return sizes;
}

/// One sorted run per relation, as SetRddPartition::TakeSortedRun makes.
std::vector<KeyArrays> SortedRuns(const std::vector<Relation>& rels) {
  std::vector<KeyArrays> runs;
  for (const Relation& rel : rels) {
    runs.push_back(KeyArrays::FromRelation(rel));
    runs.back().Sort();
  }
  return runs;
}

/// The pooled merge equals the serial one at threads {1, 2, 8}, and the
/// serial one equals a stable sort of the runs' concatenation.
void ExpectPooledMergeMatchesSerial(const Schema& schema,
                                    const std::vector<Relation>& rels) {
  const std::vector<KeyArrays> runs = SortedRuns(rels);
  const Relation want = storage::MergeSortedRuns(schema, runs);
  std::vector<Row> concat;
  for (const Relation& rel : rels) {
    for (Row& row : rel.MaterializeRows()) concat.push_back(std::move(row));
  }
  std::stable_sort(concat.begin(), concat.end(), RowLess());
  ExpectSameRowsExactly(want.MaterializeRows(), concat);
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    runtime::ThreadPool pool(threads);
    ExpectSameChunks(storage::MergeSortedRuns(schema, runs, &pool), want);
  }
}

/// Relations of `shapes` columns (DrawCell) with the given run sizes.
std::vector<Relation> RandomRuns(const std::vector<int>& shapes,
                                 const std::vector<size_t>& sizes,
                                 uint64_t seed) {
  std::vector<Relation> rels;
  for (size_t r = 0; r < sizes.size(); ++r) {
    rels.push_back(RandomRelation(shapes, sizes[r], seed + r));
  }
  return rels;
}

// Every pool of two or more threads merges in ranges, at most one per
// output chunk: under one chunk is a single range, 3 and 9 chunks give
// single-chunk ranges, 40 chunks give multi-chunk ranges at 2 threads.
constexpr size_t kTotals[] = {5, 3 * 1024 - 5, 9 * 1024 + 3,
                              40 * 1024 + 77};

TEST(PooledMergeTest, EqualsSerialMergeOnEveryColumnShape) {
  const std::vector<std::vector<int>> layouts = {
      {0, 0},     // all-int64: the raw-array comparator
      {0, 0, 0},  // all-int64, three columns, extremes and many ties
      {4, 0},     // boxed int/double cells in one column
      {2, 3},     // dictionary strings and nulls
      {1, 5},     // signed zeros, infinities and NaNs
      {5, 2, 3},  // NaN-heavy doubles, strings, nulls
  };
  uint64_t seed = 100;
  for (const auto& layout : layouts) {
    for (size_t total : kTotals) {
      SCOPED_TRACE("layout size " + std::to_string(layout.size()) +
                   " total " + std::to_string(total));
      std::vector<Relation> rels =
          RandomRuns(layout, RunSizes(30, total), seed);
      seed += 100;
      ExpectPooledMergeMatchesSerial(rels[0].schema(), rels);
    }
  }
  // Many runs far smaller than the sampling stride.
  std::vector<Relation> rels =
      RandomRuns({0, 0}, RunSizes(2000, kTotals[2]), seed);
  ExpectPooledMergeMatchesSerial(rels[0].schema(), rels);
}

TEST(PooledMergeTest, IntAndDoubleRunsTieAcrossRuns) {
  // Column 0 is a typed int64 array in even runs and a typed double array
  // in odd ones, so 1 and 1.0 compare equal across runs and must come out
  // in run order; column 1 is a mixed boxed column.
  for (size_t total : kTotals) {
    SCOPED_TRACE("total " + std::to_string(total));
    const std::vector<size_t> sizes = RunSizes(12, total);
    std::vector<Relation> rels;
    std::mt19937_64 rng(total);
    for (size_t r = 0; r < sizes.size(); ++r) {
      Relation rel{
          Schema::Of({{"A", ValueType::kInt64}, {"B", ValueType::kInt64}})};
      for (size_t i = 0; i < sizes[r]; ++i) {
        const int64_t k = static_cast<int64_t>(rng() % 50);
        rel.AppendRow({r % 2 == 0 ? Value::Int(k)
                                  : Value::Double(static_cast<double>(k)),
                       DrawCell(4, rng)});
      }
      rels.push_back(std::move(rel));
    }
    ExpectPooledMergeMatchesSerial(rels[0].schema(), rels);
  }
}

TEST(PooledMergeTest, ManyEqualKeysLeaveEmptyRanges) {
  // Most rows are one key, so most splitters are equal and their ranges
  // are empty; one range holds nearly everything.
  for (size_t total : kTotals) {
    for (int distinct : {1, 3}) {
      SCOPED_TRACE("total " + std::to_string(total) + " distinct " +
                   std::to_string(distinct));
      const std::vector<size_t> sizes = RunSizes(30, total);
      std::vector<Relation> rels;
      std::mt19937_64 rng(total + distinct);
      for (size_t size : sizes) {
        Relation rel{
            Schema::Of({{"A", ValueType::kInt64}, {"B", ValueType::kInt64}})};
        for (size_t i = 0; i < size; ++i) {
          const bool common = rng() % 8 != 0;
          rel.AppendRow(
              {Value::Int(common ? 7 : static_cast<int64_t>(rng() % distinct)),
               Value::Int(1)});
        }
        rels.push_back(std::move(rel));
      }
      ExpectPooledMergeMatchesSerial(rels[0].schema(), rels);
    }
  }
}

TEST(PooledMergeTest, EmptyRunsSingleRunAndWidthChanges) {
  const Schema schema =
      Schema::Of({{"A", ValueType::kInt64}, {"B", ValueType::kDouble}});
  // No rows at all, and only empty runs.
  ExpectPooledMergeMatchesSerial(schema, {});
  ExpectPooledMergeMatchesSerial(schema,
                                 std::vector<Relation>(4, Relation(schema)));
  for (size_t total : kTotals) {
    SCOPED_TRACE("total " + std::to_string(total));
    // A single run, alone and among empty runs.
    const Relation one = RandomRelation({0, 1}, total, total);
    ExpectPooledMergeMatchesSerial(one.schema(), {one});
    ExpectPooledMergeMatchesSerial(
        one.schema(), {Relation(one.schema()), one, Relation(one.schema())});
    // Rows of width 2, 1 and 2 in one run: width changes seal short
    // chunks, so these runs merge whole.
    std::vector<Relation> rels = RandomRuns({0, 1}, RunSizes(6, total), 7);
    Relation& mixed = rels[1];
    std::mt19937_64 rng(total);
    for (int i = 0; i < 600; ++i) {
      mixed.AppendRow({Value::Int(static_cast<int64_t>(rng() % 20))});
    }
    for (int i = 0; i < 600; ++i) {
      mixed.AppendRow({Value::Int(static_cast<int64_t>(rng() % 20)),
                       DrawCell(1, rng)});
    }
    ExpectPooledMergeMatchesSerial(rels[0].schema(), rels);
  }
}

// ---- Parallel Partition vs row-by-row placement ----

TEST(ParallelPartitionTest, EqualsSerialPlacementInContentsAndOrder) {
  const Relation input = RandomRelation({0, 2, 3, 1}, 5 * 1024 + 321, 41);
  const std::vector<int> keys = {0, 2};
  for (int partitions : {1, 7, 30}) {
    dist::PartitionedRelation want(input.schema(),
                                   dist::Partitioning{keys, partitions});
    input.ForEachRow([&](const Row& row) { want.Add(row); });
    auto expect_equal = [&](const dist::PartitionedRelation& got) {
      ASSERT_EQ(got.num_partitions(), partitions);
      EXPECT_TRUE(got.partitioning() == want.partitioning());
      for (int p = 0; p < partitions; ++p) {
        SCOPED_TRACE("partition " + std::to_string(p));
        ExpectSameRelation(got.partition(p), want.partition(p));
      }
    };
    expect_equal(dist::Partition(input, keys, partitions));
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("P=" + std::to_string(partitions) +
                   " threads=" + std::to_string(threads));
      runtime::ThreadPool pool(threads);
      expect_equal(dist::Partition(input, keys, partitions, &pool));
    }
  }
}

// ---- Distributed base case: chunks vs materialized rows ----

TEST(BaseCaseAggregateTest, RelationOverloadEqualsRowOverload) {
  // Two base branches, as a multi-branch view's base case yields them.
  // Aggregating their concatenated chunks equals aggregating the same rows
  // appended one by one into a single relation.
  const Relation branch_a = RandomRelation({0, 3, 1}, 2 * 1024 + 5, 61);
  const Relation branch_b = RandomRelation({0, 3, 1}, 700, 62);
  for (AggregateFunction function :
       {AggregateFunction::kNone, AggregateFunction::kMin,
        AggregateFunction::kMax, AggregateFunction::kSum,
        AggregateFunction::kCount}) {
    const bool aggregate = function != AggregateFunction::kNone;
    const AggSpec spec = AggSpec::For(3, aggregate ? 2 : -1, function);

    std::vector<Row> rows = branch_a.MaterializeRows();
    for (Row& row : branch_b.MaterializeRows()) rows.push_back(row);
    const std::vector<Row> want =
        dist::PartialAggregate(Relation(branch_a.schema(), rows), spec)
            .MaterializeRows();

    Relation base(branch_a.schema());
    base.AppendChunks(Relation(branch_a));
    base.AppendChunks(Relation(branch_b));
    ASSERT_EQ(base.size(), branch_a.size() + branch_b.size());
    ExpectSameRowsExactly(dist::PartialAggregate(base, spec).MaterializeRows(),
                          want);
  }
}

TEST(BaseCaseAggregateTest, AppendChunksKeepsRowsAndLocation) {
  Relation a = RandomRelation({0, 2}, 1500, 3);
  const Relation b = RandomRelation({0, 2}, 1100, 4);
  std::vector<Row> want = a.MaterializeRows();
  for (Row& row : b.MaterializeRows()) want.push_back(row);
  a.AppendChunks(Relation(b));
  ASSERT_EQ(a.size(), want.size());
  for (size_t i = 0; i < want.size(); i += 97) {
    EXPECT_TRUE(SameCell(a.ValueAt(i, 0), want[i][0])) << i;
    EXPECT_TRUE(SameCell(a.ValueAt(i, 1), want[i][1])) << i;
  }
  ExpectSameRowsExactly(a.MaterializeRows(), want);
}

// ---- End to end: the NaN repro orders identically in both engines ----

TEST(CanonicalOrderTest, NaNQueryLocalAndDistributedBytesAgree) {
  datagen::RmatOptions opt;
  opt.num_vertices = 4000;
  opt.weighted = true;
  const Relation edges = datagen::ToEdgeRelation(datagen::GenerateRmat(opt));
  const char* sql =
      "WITH recursive r (max() AS B, A) AS "
      "(SELECT 0.0/0.0, edge.Dst FROM edge WHERE edge.Src < 1500) UNION "
      "(SELECT edge.Cost, edge.Dst FROM edge WHERE edge.Src >= 1500) UNION "
      "(SELECT r.B, edge.Dst FROM r, edge WHERE r.A = edge.Src) "
      "SELECT B, A FROM r";

  auto run = [&](bool distributed, int threads) {
    engine::EngineConfig config;
    config.distributed = distributed;
    config.runtime.num_threads = threads;
    engine::RaSqlContext ctx(config);
    EXPECT_TRUE(ctx.RegisterTable("edge", Relation(edges)).ok());
    auto result = ctx.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? std::move(result->relation) : Relation();
  };
  const Relation local = run(false, 1);
  const Relation dist = run(true, 4);
  ASSERT_GT(local.size(), 0u);
  EXPECT_EQ(storage::FormatRelation(local, storage::ResultFormat::kCsv),
            storage::FormatRelation(dist, storage::ResultFormat::kCsv));

  // Canonical: sorted under RowLess, NaN after every number.
  const std::vector<Row> rows = local.MaterializeRows();
  bool seen_nan = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) {
      EXPECT_FALSE(RowLess()(rows[i], rows[i - 1])) << i;
    }
    const bool nan = rows[i][0].type() == ValueType::kDouble &&
                     std::isnan(rows[i][0].AsDouble());
    EXPECT_FALSE(seen_nan && !nan) << "number after NaN at row " << i;
    seen_nan |= nan;
  }
  EXPECT_TRUE(seen_nan);
}

}  // namespace
}  // namespace rasql
