#include "storage/key_arrays.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/check.h"
#include "runtime/thread_pool.h"
#include "storage/relation.h"

namespace rasql::storage {

// ---- Column ----

Value KeyArrays::Column::ValueAt(size_t row) const {
  switch (kind) {
    case Kind::kInt64:
      return Value::Int(i64[row]);
    case Kind::kDouble:
      return Value::Double(f64[row]);
    case Kind::kBoxed:
      return boxed[row];
    case Kind::kEmpty:
      break;
  }
  return Value::Null();
}

void KeyArrays::Column::Set(size_t row, const Value& v) {
  if (kind == Kind::kInt64 && v.type() == ValueType::kInt64) {
    i64[row] = v.AsInt();
    return;
  }
  if (kind == Kind::kDouble && v.type() == ValueType::kDouble) {
    f64[row] = v.AsDouble();
    return;
  }
  if (kind != Kind::kBoxed) MigrateToBoxed();
  boxed[row] = v;
}

void KeyArrays::Column::MigrateToBoxed() {
  std::vector<Value> values;
  values.reserve(std::max(i64.size(), f64.size()) + 1);
  for (int64_t v : i64) values.push_back(Value::Int(v));
  for (double v : f64) values.push_back(Value::Double(v));
  i64 = {};
  f64 = {};
  boxed = std::move(values);
  kind = Kind::kBoxed;
}

void KeyArrays::Column::Append(const Value& v, size_t rows_before) {
  if (kind == Kind::kEmpty) {
    // The first present cell decides the storage; rows before it were too
    // narrow to have this column and get placeholders.
    switch (v.type()) {
      case ValueType::kInt64:
        kind = Kind::kInt64;
        i64.assign(rows_before, 0);
        break;
      case ValueType::kDouble:
        kind = Kind::kDouble;
        f64.assign(rows_before, 0.0);
        break;
      default:
        kind = Kind::kBoxed;
        boxed.assign(rows_before, Value::Null());
        break;
    }
  } else if ((kind == Kind::kInt64 && v.type() != ValueType::kInt64) ||
             (kind == Kind::kDouble && v.type() != ValueType::kDouble)) {
    MigrateToBoxed();
  }
  switch (kind) {
    case Kind::kInt64:
      i64.push_back(v.AsInt());
      break;
    case Kind::kDouble:
      f64.push_back(v.AsDouble());
      break;
    default:
      boxed.push_back(v);
      break;
  }
}

void KeyArrays::Column::AppendAbsent() {
  switch (kind) {
    case Kind::kEmpty:
      break;  // backfilled when the first present cell arrives
    case Kind::kInt64:
      i64.push_back(0);
      break;
    case Kind::kDouble:
      f64.push_back(0.0);
      break;
    case Kind::kBoxed:
      boxed.push_back(Value::Null());
      break;
  }
}

// ---- KeyArrays ----

KeyArrays KeyArrays::FromRelation(const Relation& rel) {
  size_t width = 0;
  for (size_t ch = 0; ch < rel.num_chunks(); ++ch) {
    width = std::max(width, rel.chunk(ch).num_columns());
  }
  KeyArrays keys(width);
  keys.num_rows_ = rel.size();
  for (size_t ch = 0; ch < rel.num_chunks(); ++ch) {
    if (rel.chunk(ch).num_columns() == width) continue;
    // A width change sealed this relation: record every row's width.
    keys.widths_.reserve(rel.size());
    for (size_t c = 0; c < rel.num_chunks(); ++c) {
      keys.widths_.insert(keys.widths_.end(), rel.chunk(c).num_rows(),
                          static_cast<uint32_t>(rel.chunk(c).num_columns()));
    }
    break;
  }

  using Kind = Column::Kind;
  for (size_t col = 0; col < width; ++col) {
    // Typed only when every chunk that has the column stores it as the
    // same clean (null-free, unboxed) numeric array.
    Kind kind = Kind::kEmpty;
    for (size_t ch = 0; ch < rel.num_chunks(); ++ch) {
      const ColumnChunk& chunk = rel.chunk(ch);
      if (col >= chunk.num_columns()) continue;
      const ColumnChunk::ColumnData& data = chunk.column(col);
      Kind chunk_kind = Kind::kBoxed;
      if (!data.variant && data.null_count == 0) {
        if (data.tag == ValueType::kInt64) chunk_kind = Kind::kInt64;
        if (data.tag == ValueType::kDouble) chunk_kind = Kind::kDouble;
      }
      if (kind == Kind::kEmpty) {
        kind = chunk_kind;
      } else if (kind != chunk_kind) {
        kind = Kind::kBoxed;
      }
    }
    Column& out = keys.columns_[col];
    out.kind = kind;
    out.Reserve(rel.size());
    if (kind == Kind::kEmpty) continue;
    for (size_t ch = 0; ch < rel.num_chunks(); ++ch) {
      const ColumnChunk& chunk = rel.chunk(ch);
      const size_t n = chunk.num_rows();
      const bool present = col < chunk.num_columns();
      switch (kind) {
        case Kind::kInt64:
          if (present) {
            const std::vector<int64_t>& src = chunk.column(col).i64;
            out.i64.insert(out.i64.end(), src.begin(), src.end());
          } else {
            out.i64.insert(out.i64.end(), n, 0);
          }
          break;
        case Kind::kDouble:
          if (present) {
            const std::vector<double>& src = chunk.column(col).f64;
            out.f64.insert(out.f64.end(), src.begin(), src.end());
          } else {
            out.f64.insert(out.f64.end(), n, 0.0);
          }
          break;
        default:
          for (size_t r = 0; r < n; ++r) {
            out.boxed.push_back(present ? chunk.ValueAt(r, col)
                                        : Value::Null());
          }
          break;
      }
    }
  }
  return keys;
}

void KeyArrays::Column::Reserve(size_t n) {
  switch (kind) {
    case Kind::kInt64:
      i64.reserve(n);
      break;
    case Kind::kDouble:
      f64.reserve(n);
      break;
    case Kind::kBoxed:
      boxed.reserve(n);
      break;
    case Kind::kEmpty:
      break;
  }
}

void KeyArrays::AppendRowFrom(const ColumnChunk& chunk, size_t row) {
  const size_t w = chunk.num_columns();
  RASQL_CHECK(w <= columns_.size());
  if (w != columns_.size() && widths_.empty()) {
    widths_.assign(num_rows_, static_cast<uint32_t>(columns_.size()));
  }
  if (!widths_.empty()) widths_.push_back(static_cast<uint32_t>(w));
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& col = columns_[c];
    if (c >= w) {
      col.AppendAbsent();
      continue;
    }
    const ColumnChunk::ColumnData& data = chunk.column(c);
    if (!data.variant && !data.IsNull(row)) {
      if (data.tag == ValueType::kInt64 && col.kind == Column::Kind::kInt64) {
        col.i64.push_back(data.i64[row]);
        continue;
      }
      if (data.tag == ValueType::kDouble &&
          col.kind == Column::Kind::kDouble) {
        col.f64.push_back(data.f64[row]);
        continue;
      }
    }
    col.Append(chunk.ValueAt(row, c), num_rows_);
  }
  ++num_rows_;
}

int KeyArrays::CompareCells(const Column& x, size_t a, const Column& y,
                            size_t b) {
  using Kind = Column::Kind;
  if (x.kind == y.kind) {
    switch (x.kind) {
      case Kind::kInt64:
        return (x.i64[a] > y.i64[b]) - (x.i64[a] < y.i64[b]);
      case Kind::kDouble:
        return CompareDoubles(x.f64[a], y.f64[b]);
      case Kind::kBoxed:
        return CanonicalCompare(x.boxed[a], y.boxed[b]);
      case Kind::kEmpty:
        return 0;  // no present cells: never reached within row widths
    }
  }
  // Differently stored runs of one column: int64 vs double compares
  // numerically, exactly as CanonicalCompare does on the Values.
  if (x.kind == Kind::kInt64 && y.kind == Kind::kDouble) {
    return CompareDoubles(static_cast<double>(x.i64[a]), y.f64[b]);
  }
  if (x.kind == Kind::kDouble && y.kind == Kind::kInt64) {
    return CompareDoubles(x.f64[a], static_cast<double>(y.i64[b]));
  }
  return CanonicalCompare(x.ValueAt(a), y.ValueAt(b));
}

int KeyArrays::Compare(const KeyArrays& x, size_t a, const KeyArrays& y,
                       size_t b) {
  const size_t wa = x.width(a);
  const size_t wb = y.width(b);
  const size_t n = std::min(wa, wb);
  for (size_t c = 0; c < n; ++c) {
    const int r = CompareCells(x.columns_[c], a, y.columns_[c], b);
    if (r != 0) return r;
  }
  return (wa > wb) - (wa < wb);
}

namespace {

/// Sorts `n` rows of `W` int64 columns as packed row-major tuples — one
/// contiguous array instead of an index permutation over W arrays. Rows
/// that tie on every column are identical, so the unstable std::sort
/// yields exactly the stable order.
template <size_t W>
void SortPackedInt64(size_t n, std::vector<int64_t>* const* cols) {
  std::vector<std::array<int64_t, W>> rows(n);
  for (size_t c = 0; c < W; ++c) {
    const int64_t* src = cols[c]->data();
    for (size_t r = 0; r < n; ++r) rows[r][c] = src[r];
  }
  std::sort(rows.begin(), rows.end());
  for (size_t c = 0; c < W; ++c) {
    int64_t* dst = cols[c]->data();
    for (size_t r = 0; r < n; ++r) dst[r] = rows[r][c];
  }
}

template <class T>
void Permute(const std::vector<uint32_t>& order, std::vector<T>* v) {
  if (v->empty()) return;
  std::vector<T> out;
  out.reserve(v->size());
  for (uint32_t i : order) out.push_back(std::move((*v)[i]));
  *v = std::move(out);
}

}  // namespace

void KeyArrays::Sort() {
  if (num_rows_ < 2) return;
  if (AllInt64()) {
    // The common fixpoint shape (vertex ids, counts).
    std::vector<std::vector<int64_t>*> cols;
    for (Column& col : columns_) cols.push_back(&col.i64);
    switch (cols.size()) {
      case 1:
        std::sort(cols[0]->begin(), cols[0]->end());
        return;
      case 2:
        SortPackedInt64<2>(num_rows_, cols.data());
        return;
      case 3:
        SortPackedInt64<3>(num_rows_, cols.data());
        return;
      case 4:
        SortPackedInt64<4>(num_rows_, cols.data());
        return;
      default:
        break;
    }
  }

  // Ties break on the original position, which makes the order total and
  // the sort stable.
  RASQL_CHECK(num_rows_ <= UINT32_MAX);
  std::vector<uint32_t> order(num_rows_);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    const int c = Compare(a, b);
    return c != 0 ? c < 0 : a < b;
  });
  for (Column& col : columns_) {
    Permute(order, &col.i64);
    Permute(order, &col.f64);
    Permute(order, &col.boxed);
  }
  Permute(order, &widths_);
}

bool KeyArrays::AllInt64() const {
  if (!widths_.empty()) return false;
  for (const Column& col : columns_) {
    if (col.kind != Column::Kind::kInt64) return false;
  }
  return true;
}

void KeyArrays::MaterializeRow(size_t row, Row* out) const {
  const size_t w = width(row);
  out->resize(w);
  for (size_t c = 0; c < w; ++c) (*out)[c] = columns_[c].ValueAt(row);
}

void KeyArrays::AppendTo(Relation* out) const {
  for (size_t r = 0; r < num_rows_; ++r) AppendRowTo(r, out);
}

void KeyArrays::AppendRowTo(size_t row, Relation* out) const {
  const size_t w = width(row);
  out->AppendRowWith(w, [&](ColumnChunk* chunk) {
    for (size_t c = 0; c < w; ++c) {
      const Column& col = columns_[c];
      switch (col.kind) {
        case Column::Kind::kInt64:
          chunk->AppendInt64(c, col.i64[row]);
          break;
        case Column::Kind::kDouble:
          chunk->AppendDouble(c, col.f64[row]);
          break;
        case Column::Kind::kBoxed:
          chunk->AppendValue(c, col.boxed[row]);
          break;
        case Column::Kind::kEmpty:
          chunk->AppendValue(c, Value::Null());
          break;
      }
    }
  });
}

namespace {

/// Tournament (winner) tree over the runs' head rows: every internal node
/// holds the better of its two children, so replacing the winner replays
/// one leaf-to-root path — log2(runs) comparisons per output row. Leaves
/// past the last run, and exhausted runs, hold kNone. `before(x, y)` must
/// be a strict total order on the runs' current heads.
///
/// The merge starts at the runs' positions `*pos` and pops at most `count`
/// rows; the first `skip` of them advance the positions without `emit`.
template <class Before, class Emit>
void TournamentMerge(const std::vector<KeyArrays>& runs,
                     std::vector<size_t>* pos, size_t skip, size_t count,
                     const Before& before, const Emit& emit) {
  constexpr size_t kNone = ~size_t{0};
  size_t leaves = 1;
  while (leaves < runs.size()) leaves *= 2;
  std::vector<size_t> tree(2 * leaves, kNone);
  for (size_t i = 0; i < runs.size(); ++i) {
    if ((*pos)[i] < runs[i].num_rows()) tree[leaves + i] = i;
  }
  auto better = [&](size_t x, size_t y) {
    if (x == kNone) return y;
    if (y == kNone) return x;
    return before(x, y) ? x : y;
  };
  for (size_t n = leaves; n-- > 1;) {
    tree[n] = better(tree[2 * n], tree[2 * n + 1]);
  }
  for (size_t popped = 0; popped < count && tree[1] != kNone; ++popped) {
    const size_t run = tree[1];
    if (popped >= skip) emit(run, (*pos)[run]);
    if (++(*pos)[run] == runs[run].num_rows()) tree[leaves + run] = kNone;
    for (size_t n = (leaves + run) / 2; n >= 1; n /= 2) {
      tree[n] = better(tree[2 * n], tree[2 * n + 1]);
    }
  }
}

}  // namespace

void KeyArrays::MergeRange(const std::vector<KeyArrays>& runs,
                           std::vector<size_t> pos, size_t skip,
                           size_t count, Relation* out) {
  auto emit = [&](size_t run, size_t row) {
    runs[run].AppendRowTo(row, out);
  };

  // Equal heads pop in run order, so the merge is a stable sort of the
  // runs' concatenation.
  size_t width = 0;
  bool all_int = true;
  for (const KeyArrays& run : runs) {
    if (run.num_rows() == 0) continue;
    all_int &= run.AllInt64() && (width == 0 || width == run.num_columns());
    width = run.num_columns();
  }
  if (all_int) {
    // The common fixpoint shape: compare the runs' raw int64 arrays.
    std::vector<const int64_t*> cols(runs.size() * width, nullptr);
    for (size_t r = 0; r < runs.size(); ++r) {
      if (runs[r].num_rows() == 0) continue;
      for (size_t c = 0; c < width; ++c) {
        cols[r * width + c] = runs[r].columns_[c].i64.data();
      }
    }
    TournamentMerge(
        runs, &pos, skip, count,
        [&](size_t x, size_t y) {
          const int64_t* const* cx = &cols[x * width];
          const int64_t* const* cy = &cols[y * width];
          for (size_t c = 0; c < width; ++c) {
            const int64_t a = cx[c][pos[x]];
            const int64_t b = cy[c][pos[y]];
            if (a != b) return a < b;
          }
          return x < y;
        },
        emit);
  } else {
    TournamentMerge(
        runs, &pos, skip, count,
        [&](size_t x, size_t y) {
          const int c = Compare(runs[x], pos[x], runs[y], pos[y]);
          return c != 0 ? c < 0 : x < y;
        },
        emit);
  }
}

Relation MergeSortedRuns(const Schema& schema,
                         const std::vector<KeyArrays>& runs,
                         runtime::ThreadPool* pool) {
  constexpr size_t kRangesPerThread = 4;
  constexpr size_t kSamplesPerRange = 8;

  size_t total = 0;
  bool uniform = true;
  size_t width = 0;
  for (const KeyArrays& run : runs) {
    if (run.num_rows() == 0) continue;
    total += run.num_rows();
    // Rows of varying width seal short chunks wherever the width changes,
    // so chunk starts are not multiples of kChunkRows: merge those whole.
    uniform &= run.widths_.empty() &&
               (width == 0 || width == run.num_columns());
    width = run.num_columns();
  }
  const size_t threads =
      pool == nullptr ? 1 : static_cast<size_t>(pool->num_threads());
  const size_t chunks = (total + kChunkRows - 1) / kChunkRows;
  Relation out(schema);
  if (total == 0) return out;
  if (threads <= 1 || !uniform) {
    KeyArrays::MergeRange(runs, std::vector<size_t>(runs.size(), 0), 0,
                          total, &out);
    return out;
  }

  // Splitters: every stride-th row of the runs laid end to end (so each
  // run contributes in proportion to its size), sorted canonically.
  const size_t num_ranges = std::min(chunks, kRangesPerThread * threads);
  const size_t stride =
      std::max<size_t>(1, total / (num_ranges * kSamplesPerRange));
  struct RunRow {
    size_t run;
    size_t row;
  };
  std::vector<RunRow> samples;
  for (size_t r = 0, offset = 0, next = stride / 2; r < runs.size(); ++r) {
    offset += runs[r].num_rows();
    for (; next < offset; next += stride) {
      samples.push_back({r, runs[r].num_rows() - (offset - next)});
    }
  }
  std::sort(samples.begin(), samples.end(),
            [&](const RunRow& a, const RunRow& b) {
              return KeyArrays::Compare(runs[a.run], a.row, runs[b.run],
                                        b.row) < 0;
            });

  // Range k starts, in every run, at the first row not below splitter k,
  // so all rows equal to a splitter fall in its range, and the merge from
  // those positions continues the serial merge from rank start[k].
  std::vector<std::vector<size_t>> cuts(
      num_ranges, std::vector<size_t>(runs.size(), 0));
  std::vector<size_t> start(num_ranges + 1, 0);
  start[num_ranges] = total;
  for (size_t k = 1; k < num_ranges; ++k) {
    const RunRow& splitter = samples[k * samples.size() / num_ranges];
    for (size_t r = 0; r < runs.size(); ++r) {
      size_t lo = 0;
      size_t hi = runs[r].num_rows();
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (KeyArrays::Compare(runs[r], mid, runs[splitter.run],
                               splitter.row) < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      cuts[k][r] = lo;
      start[k] += lo;
    }
  }

  // Task k emits output rows [chunk_start(k), chunk_start(k + 1)): its
  // range widened to whole chunks. It skips the head rows that fill range
  // k - 1's tail chunk and continues into range k + 1 to fill its own, so
  // every part but the last is whole chunks, appended as the serial merge
  // would.
  auto chunk_start = [&](size_t k) {
    return std::min(total, (start[k] + kChunkRows - 1) / kChunkRows *
                               kChunkRows);
  };
  std::vector<Relation> parts(num_ranges, Relation(schema));
  runtime::ParallelFor(pool, static_cast<int>(num_ranges), [&](int task) {
    const size_t k = static_cast<size_t>(task);
    const size_t begin = chunk_start(k);
    const size_t end = chunk_start(k + 1);
    if (begin >= end) return;
    KeyArrays::MergeRange(runs, cuts[k], begin - start[k], end - start[k],
                          &parts[k]);
  });
  for (Relation& part : parts) out.AppendChunks(std::move(part));
  return out;
}

}  // namespace rasql::storage
