#include "physical/executor.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/hash.h"
#include "expr/int64_arith.h"
#include "expr/vec_program.h"
#include "physical/pipeline.h"

namespace rasql::physical {

using common::Result;
using common::Status;
using expr::AggregateFunction;
using plan::LogicalPlan;
using plan::PlanKind;
using storage::Relation;
using storage::Row;
using storage::Value;
using storage::ValueType;

JoinHashTable::JoinHashTable(const Relation& build,
                             std::vector<int> key_columns)
    : build_(&build), key_columns_(std::move(key_columns)) {
  size_t capacity = 16;
  while (capacity < build.size() * 2) capacity <<= 1;
  buckets_ = capacity;
  mask_ = capacity - 1;
  heads_.assign(capacity, -1);
  next_.assign(build.size(), -1);
  for (size_t i = 0; i < build.size(); ++i) {
    const uint64_t h = build.HashKeyAt(i, key_columns_);
    const size_t slot = h & mask_;
    next_[i] = heads_[slot];
    heads_[slot] = static_cast<int>(i);
  }
}

void JoinHashTable::Probe(const Row& probe,
                          const std::vector<int>& probe_keys,
                          std::vector<int>* out) const {
  const uint64_t h = storage::HashRowKey(probe, probe_keys);
  for (int i = heads_[h & mask_]; i >= 0; i = next_[i]) {
    const storage::RowAccessor build_row = build_->row(i);
    bool eq = true;
    for (size_t k = 0; k < key_columns_.size() && eq; ++k) {
      eq = build_row.chunk().CellEquals(build_row.chunk_row(),
                                        static_cast<size_t>(key_columns_[k]),
                                        probe[probe_keys[k]]);
    }
    if (eq) out->push_back(i);
  }
}

void JoinHashTable::ProbeChunk(const storage::ColumnChunk& chunk, size_t row,
                               const std::vector<int>& probe_keys,
                               std::vector<int>* out) const {
  const uint64_t h = chunk.HashKey(row, probe_keys);
  for (int i = heads_[h & mask_]; i >= 0; i = next_[i]) {
    const storage::RowAccessor build_row = build_->row(i);
    bool eq = true;
    for (size_t k = 0; k < key_columns_.size() && eq; ++k) {
      eq = storage::ColumnChunk::CellsEqual(
          chunk, row, static_cast<size_t>(probe_keys[k]), build_row.chunk(),
          build_row.chunk_row(), static_cast<size_t>(key_columns_[k]));
    }
    if (eq) out->push_back(i);
  }
}

Row ProjectionEvaluator::Eval(const Row& input) const {
  Row out;
  EvalInto(input, &out);
  return out;
}

void ProjectionEvaluator::EvalInto(const Row& input, Row* out) const {
  out->resize(exprs_->size());
  for (size_t i = 0; i < exprs_->size(); ++i) {
    (*out)[i] = (*exprs_)[i]->Eval(input);
  }
}

namespace {

/// The executor's recursion: `fuse` runs filter/probe/project chains as
/// pipelines (Execute); false is the unfused tree walk (ExecuteInterpreted).
Result<BorrowedRelation> Exec(const LogicalPlan& node, const ExecContext& ctx,
                              bool fuse);

BorrowedRelation Own(Relation rel) {
  BorrowedRelation r;
  r.owned = std::make_unique<Relation>(std::move(rel));
  r.rel = r.owned.get();
  return r;
}

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

Result<BorrowedRelation> ExecTableScan(const plan::TableScanNode& node,
                                 const ExecContext& ctx) {
  auto it = ctx.tables.find(node.table_name());
  if (it == ctx.tables.end() || it->second == nullptr) {
    return Status::ExecutionError("no data bound for table '" +
                                  node.table_name() + "'");
  }
  BorrowedRelation r;
  r.rel = it->second;
  return r;
}

Result<BorrowedRelation> ExecRecursiveRef(const plan::RecursiveRefNode& node,
                                    const ExecContext& ctx) {
  if (!ctx.recursive_resolver) {
    return Status::ExecutionError(
        "recursive reference '" + node.view_name() +
        "' reached the executor without a fixpoint binding");
  }
  const Relation* rel = ctx.recursive_resolver(node);
  if (rel == nullptr) {
    return Status::ExecutionError("recursive resolver returned null for '" +
                                  node.view_name() + "'");
  }
  BorrowedRelation r;
  r.rel = rel;
  return r;
}

Result<BorrowedRelation> ExecJoinGeneric(const plan::JoinNode& node,
                                         const ExecContext& ctx, bool fuse) {
  RASQL_ASSIGN_OR_RETURN(BorrowedRelation left,
                         Exec(node.child(0), ctx, fuse));
  RASQL_ASSIGN_OR_RETURN(BorrowedRelation right,
                         Exec(node.child(1), ctx, fuse));

  Relation out(node.schema());
  if (node.is_cross()) {
    const std::vector<Row> right_rows = right.rel->MaterializeRows();
    left.rel->ForEachRow([&](const Row& l) {
      for (const Row& r : right_rows) {
        out.Add(ConcatRows(l, r));
      }
    });
    return Own(std::move(out));
  }

  if (ctx.join_algorithm == JoinAlgorithm::kSortMerge) {
    // Sort both inputs by their key columns, then merge matching runs.
    const std::vector<Row> left_rows = left.rel->MaterializeRows();
    const std::vector<Row> right_rows = right.rel->MaterializeRows();
    std::vector<const Row*> ls;
    ls.reserve(left_rows.size());
    for (const Row& r : left_rows) ls.push_back(&r);
    std::vector<const Row*> rs;
    rs.reserve(right_rows.size());
    for (const Row& r : right_rows) rs.push_back(&r);
    const std::vector<int>& lk = node.left_keys();
    const std::vector<int>& rk = node.right_keys();
    auto key_less = [](const Row& a, const std::vector<int>& ak,
                       const Row& b, const std::vector<int>& bk) {
      for (size_t i = 0; i < ak.size(); ++i) {
        const int c = a[ak[i]].Compare(b[bk[i]]);
        if (c != 0) return c < 0;
      }
      return false;
    };
    std::sort(ls.begin(), ls.end(), [&](const Row* a, const Row* b) {
      return key_less(*a, lk, *b, lk);
    });
    std::sort(rs.begin(), rs.end(), [&](const Row* a, const Row* b) {
      return key_less(*a, rk, *b, rk);
    });
    size_t i = 0;
    size_t j = 0;
    while (i < ls.size() && j < rs.size()) {
      if (key_less(*ls[i], lk, *rs[j], rk)) {
        ++i;
      } else if (key_less(*rs[j], rk, *ls[i], lk)) {
        ++j;
      } else {
        // Equal keys: emit the cartesian product of the two runs.
        size_t j_end = j;
        while (j_end < rs.size() &&
               !key_less(*rs[j], rk, *rs[j_end], rk) &&
               !key_less(*rs[j_end], rk, *rs[j], rk)) {
          ++j_end;
        }
        size_t i_end = i;
        while (i_end < ls.size() &&
               !key_less(*ls[i], lk, *ls[i_end], lk) &&
               !key_less(*ls[i_end], lk, *ls[i], lk)) {
          ++i_end;
        }
        for (size_t a = i; a < i_end; ++a) {
          for (size_t b = j; b < j_end; ++b) {
            out.Add(ConcatRows(*ls[a], *rs[b]));
          }
        }
        i = i_end;
        j = j_end;
      }
    }
    return Own(std::move(out));
  }

  // Hash join: build on the right side (base relations sit right of the
  // recursive delta in the common FROM order), probe with the left.
  JoinHashTable table(*right.rel, node.right_keys());
  std::vector<int> matches;
  const size_t right_width =
      static_cast<size_t>(node.child(1).schema().num_columns());
  Row combined;
  left.rel->ForEachRow([&](const Row& l) {
    matches.clear();
    table.Probe(l, node.left_keys(), &matches);
    if (matches.empty()) return;
    combined.resize(l.size() + right_width);
    std::copy(l.begin(), l.end(), combined.begin());
    for (int m : matches) {
      right.rel->CopyRowTo(static_cast<size_t>(m), &combined, l.size());
      out.Add(combined);
    }
  });
  return Own(std::move(out));
}

Result<BorrowedRelation> ExecFilter(const plan::FilterNode& node,
                                    const ExecContext& ctx, bool fuse) {
  RASQL_ASSIGN_OR_RETURN(BorrowedRelation child,
                         Exec(node.child(0), ctx, fuse));
  const expr::Expr& predicate = node.predicate();
  Relation out(node.schema());
  child.rel->ForEachRow([&](const Row& row) {
    if (expr::IsTruthy(predicate.Eval(row))) out.Add(row);
  });
  return Own(std::move(out));
}

/// Interpreted projection over a materialized child. Fused chains reach
/// here only from ExecuteInterpreted — Execute routes them through the
/// PipelineProgram compiler (which subsumed the old ad-hoc
/// Project(Filter(X)) / Project(Join(X, Y)) special cases).
Result<BorrowedRelation> ExecProject(const plan::ProjectNode& node,
                                     const ExecContext& ctx, bool fuse) {
  ProjectionEvaluator projector(node.exprs());
  Relation out(node.schema());
  RASQL_ASSIGN_OR_RETURN(BorrowedRelation input,
                         Exec(node.child(0), ctx, fuse));
  out.Reserve(input.rel->size());
  input.rel->ForEachRow([&](const Row& row) {
    out.Add(projector.Eval(row));
  });
  return Own(std::move(out));
}

Result<BorrowedRelation> ExecAggregate(const plan::AggregateNode& node,
                                       const ExecContext& ctx, bool fuse) {
  RASQL_ASSIGN_OR_RETURN(BorrowedRelation input,
                         Exec(node.child(0), ctx, fuse));

  const std::vector<expr::ExprPtr>& group_exprs = node.group_exprs();
  const std::vector<plan::AggregateItem>& items = node.items();
  for (const plan::AggregateItem& item : items) {
    if (item.function == AggregateFunction::kNone) {
      return Status::Internal("aggregate item without function");
    }
  }

  struct GroupState {
    std::vector<Value> accumulators;
    std::vector<std::unique_ptr<
        std::unordered_set<Row, storage::RowHash, storage::RowEq>>>
        distinct;
  };
  std::unordered_map<Row, GroupState, storage::RowHash, storage::RowEq>
      groups;

  auto init_state = [&](GroupState* state) {
    state->accumulators.resize(items.size());
    state->distinct.resize(items.size());
    for (size_t j = 0; j < items.size(); ++j) {
      if (items[j].distinct) {
        state->distinct[j] = std::make_unique<std::unordered_set<
            Row, storage::RowHash, storage::RowEq>>();
      }
      if (items[j].function == AggregateFunction::kCount) {
        state->accumulators[j] = Value::Int(0);
      }
    }
  };
  // One aggregate step; shared verbatim by both execution modes so the
  // batch path can never drift from the row-at-a-time oracle.
  auto accumulate = [&](GroupState* state, size_t j, Value arg,
                        bool has_argument) {
    const plan::AggregateItem& item = items[j];
    if (has_argument && arg.is_null()) return;  // SQL: nulls ignored
    if (item.distinct) {
      if (!state->distinct[j]->insert(Row{arg}).second) return;
    }
    Value& acc = state->accumulators[j];
    switch (item.function) {
      case AggregateFunction::kCount:
        acc = Value::Int(acc.AsInt() + 1);
        break;
      case AggregateFunction::kMin:
        if (acc.is_null() || arg.Compare(acc) < 0) acc = std::move(arg);
        break;
      case AggregateFunction::kMax:
        if (acc.is_null() || arg.Compare(acc) > 0) acc = std::move(arg);
        break;
      case AggregateFunction::kSum:
        if (acc.is_null()) {
          acc = std::move(arg);
        } else if (acc.type() == ValueType::kInt64 &&
                   arg.type() == ValueType::kInt64) {
          acc = Value::Int(expr::WrapAdd(acc.AsInt(), arg.AsInt()));
        } else {
          acc = Value::Double(acc.AsNumeric() + arg.AsNumeric());
        }
        break;
      case AggregateFunction::kNone:
        break;  // rejected above
    }
  };

  // Vectorized fast path (DESIGN.md §13, §15): when batch mode is on and
  // no aggregate is DISTINCT, group keys and aggregate arguments evaluate
  // column-at-a-time — plain column references read straight from the
  // chunk arrays, computed expressions run through expr::VecProgram — and
  // min/max/sum/count over non-null int64/double lanes run as typed loops.
  // Group insertion order (and therefore output order) is identical to the
  // row path; a chunk the kernels cannot mirror exactly drops to
  // interpreted rows, chunk by chunk.
  bool vectorized = ctx.batch_rows > 0;
  bool groups_plain = true;
  std::vector<int> group_cols(group_exprs.size(), -1);
  std::vector<std::optional<expr::VecProgram>> group_progs(
      group_exprs.size());
  for (size_t i = 0; vectorized && i < group_exprs.size(); ++i) {
    const expr::Expr& g = *group_exprs[i];
    if (g.kind() == expr::Expr::Kind::kColumnRef) {
      group_cols[i] = static_cast<const expr::ColumnRefExpr&>(g).index();
    } else {
      groups_plain = false;
      group_progs[i] = expr::VecProgram::Compile(g);
      if (!group_progs[i]) vectorized = false;
    }
  }
  std::vector<int> item_cols(items.size(), -1);
  std::vector<std::optional<expr::VecProgram>> item_progs(items.size());
  for (size_t j = 0; vectorized && j < items.size(); ++j) {
    if (items[j].distinct) vectorized = false;
    if (items[j].argument == nullptr) continue;  // count(*)
    if (items[j].argument->kind() == expr::Expr::Kind::kColumnRef) {
      item_cols[j] =
          static_cast<const expr::ColumnRefExpr&>(*items[j].argument)
              .index();
    } else {
      item_progs[j] = expr::VecProgram::Compile(*items[j].argument);
      if (!item_progs[j]) vectorized = false;
    }
  }

  if (vectorized) {
    // Per-chunk typed dispatch per aggregate item.
    enum class Mode { kGeneric, kCount, kSumI64, kMinI64, kMaxI64,
                      kSumF64, kMinF64, kMaxF64 };
    std::vector<Mode> modes(items.size());
    const Relation& rel = *input.rel;
    expr::VecProgram::Scratch vec_scratch;
    std::vector<expr::VecBatch> group_batches(group_exprs.size());
    std::vector<expr::VecBatch> item_batches(items.size());
    std::vector<uint32_t> identity;

    // Evaluates every computed group/argument expression over the whole
    // chunk (identity selection, so batch index r == chunk row r). False
    // means this chunk takes the interpreted row oracle instead.
    auto eval_programs = [&](const storage::ColumnChunk& chunk) {
      const size_t n = chunk.num_rows();
      for (size_t i = identity.size(); i < n; ++i) {
        identity.push_back(static_cast<uint32_t>(i));
      }
      for (size_t i = 0; i < group_exprs.size(); ++i) {
        if (group_progs[i] &&
            !group_progs[i]->EvalChunk(chunk, identity.data(), n,
                                       &vec_scratch, &group_batches[i])) {
          return false;
        }
      }
      for (size_t j = 0; j < items.size(); ++j) {
        if (item_progs[j] &&
            !item_progs[j]->EvalChunk(chunk, identity.data(), n,
                                      &vec_scratch, &item_batches[j])) {
          return false;
        }
      }
      return true;
    };
    auto compute_modes = [&](const storage::ColumnChunk& chunk) {
      for (size_t j = 0; j < items.size(); ++j) {
        Mode mode = Mode::kGeneric;
        if (items[j].argument == nullptr) {
          mode = Mode::kCount;  // count(*): argument Int(1), never null
        } else if (item_progs[j]) {
          // Computed argument: the evaluated batch is the typed lane.
          const expr::VecBatch& vb = item_batches[j];
          if (!vb.any_null && (vb.tag == ValueType::kInt64 ||
                               vb.tag == ValueType::kDouble)) {
            const bool is_int = vb.tag == ValueType::kInt64;
            switch (items[j].function) {
              case AggregateFunction::kCount: mode = Mode::kCount; break;
              case AggregateFunction::kSum:
                mode = is_int ? Mode::kSumI64 : Mode::kSumF64;
                break;
              case AggregateFunction::kMin:
                mode = is_int ? Mode::kMinI64 : Mode::kMinF64;
                break;
              case AggregateFunction::kMax:
                mode = is_int ? Mode::kMaxI64 : Mode::kMaxF64;
                break;
              default: break;
            }
          }
        } else {
          const storage::ColumnChunk::ColumnData& cd =
              chunk.column(static_cast<size_t>(item_cols[j]));
          if (!cd.variant && cd.null_count == 0) {
            if (cd.tag == ValueType::kInt64) {
              switch (items[j].function) {
                case AggregateFunction::kCount: mode = Mode::kCount; break;
                case AggregateFunction::kSum: mode = Mode::kSumI64; break;
                case AggregateFunction::kMin: mode = Mode::kMinI64; break;
                case AggregateFunction::kMax: mode = Mode::kMaxI64; break;
                default: break;
              }
            } else if (cd.tag == ValueType::kDouble) {
              switch (items[j].function) {
                case AggregateFunction::kCount: mode = Mode::kCount; break;
                case AggregateFunction::kSum: mode = Mode::kSumF64; break;
                case AggregateFunction::kMin: mode = Mode::kMinF64; break;
                case AggregateFunction::kMax: mode = Mode::kMaxF64; break;
                default: break;
              }
            }
          }
        }
        modes[j] = mode;
      }
    };
    // Raw typed lanes and the generic Value view of aggregate argument j at
    // chunk row r — from the chunk array (plain refs) or the evaluated
    // batch (computed expressions).
    auto arg_i64 = [&](const storage::ColumnChunk& chunk, size_t j,
                       size_t r) {
      return item_progs[j]
                 ? item_batches[j].i64[r]
                 : chunk.column(static_cast<size_t>(item_cols[j])).i64[r];
    };
    auto arg_f64 = [&](const storage::ColumnChunk& chunk, size_t j,
                       size_t r) {
      return item_progs[j]
                 ? item_batches[j].f64[r]
                 : chunk.column(static_cast<size_t>(item_cols[j])).f64[r];
    };
    auto arg_value = [&](const storage::ColumnChunk& chunk, size_t j,
                         size_t r) {
      if (items[j].argument == nullptr) return Value::Int(1);
      return item_progs[j]
                 ? item_batches[j].ValueAt(r)
                 : chunk.ValueAt(r, static_cast<size_t>(item_cols[j]));
    };
    auto accumulate_typed = [&](const storage::ColumnChunk& chunk, size_t r,
                                GroupState* state) {
      for (size_t j = 0; j < items.size(); ++j) {
        Value& acc = state->accumulators[j];
        // Modes are chosen per chunk, but the accumulator carries state
        // across chunks: when a column's tag flips mid-relation (int64
        // chunks followed by double chunks, say), acc no longer matches
        // the typed arm's assumption. Those rows take the shared oracle
        // step, which promotes exactly like the row-at-a-time path.
        const bool acc_typed_as = acc.is_null() ||
                                  ((modes[j] == Mode::kSumI64 ||
                                    modes[j] == Mode::kMinI64 ||
                                    modes[j] == Mode::kMaxI64)
                                       ? acc.type() == ValueType::kInt64
                                       : acc.type() == ValueType::kDouble);
        if (modes[j] != Mode::kCount && modes[j] != Mode::kGeneric &&
            !acc_typed_as) {
          accumulate(state, j, arg_value(chunk, j, r), true);
          continue;
        }
        switch (modes[j]) {
          case Mode::kCount:
            acc = Value::Int(acc.AsInt() + 1);
            break;
          case Mode::kSumI64: {
            const int64_t raw = arg_i64(chunk, j, r);
            acc = acc.is_null() ? Value::Int(raw)
                                : Value::Int(expr::WrapAdd(acc.AsInt(), raw));
            break;
          }
          case Mode::kMinI64: {
            const int64_t raw = arg_i64(chunk, j, r);
            if (acc.is_null() || raw < acc.AsInt()) acc = Value::Int(raw);
            break;
          }
          case Mode::kMaxI64: {
            const int64_t raw = arg_i64(chunk, j, r);
            if (acc.is_null() || raw > acc.AsInt()) acc = Value::Int(raw);
            break;
          }
          case Mode::kSumF64: {
            const double raw = arg_f64(chunk, j, r);
            acc = acc.is_null() ? Value::Double(raw)
                                : Value::Double(acc.AsDouble() + raw);
            break;
          }
          case Mode::kMinF64: {
            const double raw = arg_f64(chunk, j, r);
            if (acc.is_null() || raw < acc.AsDouble()) {
              acc = Value::Double(raw);
            }
            break;
          }
          case Mode::kMaxF64: {
            const double raw = arg_f64(chunk, j, r);
            if (acc.is_null() || raw > acc.AsDouble()) {
              acc = Value::Double(raw);
            }
            break;
          }
          case Mode::kGeneric:
            accumulate(state, j, arg_value(chunk, j, r),
                       items[j].argument != nullptr);
            break;
        }
      }
    };
    // The interpreted oracle step for one materialized row — what a chunk
    // takes when eval_programs can't mirror it.
    Row row_scratch;
    auto accumulate_row = [&](const Row& row, GroupState* state) {
      for (size_t j = 0; j < items.size(); ++j) {
        accumulate(state, j,
                   items[j].argument ? items[j].argument->Eval(row)
                                     : Value::Int(1),
                   items[j].argument != nullptr);
      }
    };

    // Dense fast paths: when the group columns are plain references over
    // clean int64 arrays in every chunk, group lookup runs on the raw
    // integers (one key, or two packed into 128 bits) — no per-row Row
    // key, no Value hashing. States accumulate in a dense vector; the keys
    // are then inserted into `groups` in first-seen order, which is
    // exactly the row path's insertion sequence, so the final hash-map
    // iteration (and the output row order) is bit-identical.
    auto clean_int64_group = [&](int gc) {
      for (size_t ci = 0; ci < rel.num_chunks(); ++ci) {
        const storage::ColumnChunk::ColumnData& cd =
            rel.chunk(ci).column(static_cast<size_t>(gc));
        if (cd.variant || cd.null_count != 0 ||
            (rel.chunk(ci).num_rows() > 0 && cd.tag != ValueType::kInt64)) {
          return false;
        }
      }
      return true;
    };
    const bool int64_key = groups_plain && group_cols.size() == 1 &&
                           clean_int64_group(group_cols[0]);
    const bool int64_key2 = groups_plain && group_cols.size() == 2 &&
                            clean_int64_group(group_cols[0]) &&
                            clean_int64_group(group_cols[1]);
    if (int64_key) {
      std::unordered_map<int64_t, uint32_t> index;
      std::vector<GroupState> states;
      std::vector<int64_t> first_seen;
      for (size_t ci = 0; ci < rel.num_chunks(); ++ci) {
        const storage::ColumnChunk& chunk = rel.chunk(ci);
        const bool vec_ok = eval_programs(chunk);
        if (vec_ok) compute_modes(chunk);
        const std::vector<int64_t>& keys =
            chunk.column(static_cast<size_t>(group_cols[0])).i64;
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          auto [it, inserted] =
              index.try_emplace(keys[r],
                                static_cast<uint32_t>(states.size()));
          if (inserted) {
            states.emplace_back();
            init_state(&states.back());
            first_seen.push_back(keys[r]);
          }
          if (vec_ok) {
            accumulate_typed(chunk, r, &states[it->second]);
          } else {
            chunk.MaterializeRow(r, &row_scratch);
            accumulate_row(row_scratch, &states[it->second]);
          }
        }
      }
      for (size_t g = 0; g < states.size(); ++g) {
        groups.emplace(Row{Value::Int(first_seen[g])},
                       std::move(states[g]));
      }
    } else if (int64_key2) {
      // Two-int64 composite keys pack into one 128-bit integer; hashing
      // mixes both halves. Everything else matches the single-key path.
      struct PackedHash {
        size_t operator()(unsigned __int128 k) const {
          return static_cast<size_t>(common::HashCombine(
              common::MixHash64(static_cast<uint64_t>(k >> 64)),
              common::MixHash64(static_cast<uint64_t>(k))));
        }
      };
      std::unordered_map<unsigned __int128, uint32_t, PackedHash> index;
      std::vector<GroupState> states;
      std::vector<std::pair<int64_t, int64_t>> first_seen;
      for (size_t ci = 0; ci < rel.num_chunks(); ++ci) {
        const storage::ColumnChunk& chunk = rel.chunk(ci);
        const bool vec_ok = eval_programs(chunk);
        if (vec_ok) compute_modes(chunk);
        const std::vector<int64_t>& keys0 =
            chunk.column(static_cast<size_t>(group_cols[0])).i64;
        const std::vector<int64_t>& keys1 =
            chunk.column(static_cast<size_t>(group_cols[1])).i64;
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          const unsigned __int128 packed =
              (static_cast<unsigned __int128>(
                   static_cast<uint64_t>(keys0[r]))
               << 64) |
              static_cast<uint64_t>(keys1[r]);
          auto [it, inserted] =
              index.try_emplace(packed,
                                static_cast<uint32_t>(states.size()));
          if (inserted) {
            states.emplace_back();
            init_state(&states.back());
            first_seen.emplace_back(keys0[r], keys1[r]);
          }
          if (vec_ok) {
            accumulate_typed(chunk, r, &states[it->second]);
          } else {
            chunk.MaterializeRow(r, &row_scratch);
            accumulate_row(row_scratch, &states[it->second]);
          }
        }
      }
      for (size_t g = 0; g < states.size(); ++g) {
        groups.emplace(Row{Value::Int(first_seen[g].first),
                           Value::Int(first_seen[g].second)},
                       std::move(states[g]));
      }
    } else {
      Row key;
      for (size_t ci = 0; ci < rel.num_chunks(); ++ci) {
        const storage::ColumnChunk& chunk = rel.chunk(ci);
        const bool vec_ok = eval_programs(chunk);
        if (vec_ok) compute_modes(chunk);
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          key.clear();
          if (vec_ok) {
            for (size_t gi = 0; gi < group_exprs.size(); ++gi) {
              key.push_back(group_progs[gi]
                                ? group_batches[gi].ValueAt(r)
                                : chunk.ValueAt(
                                      r, static_cast<size_t>(group_cols[gi])));
            }
          } else {
            chunk.MaterializeRow(r, &row_scratch);
            for (const expr::ExprPtr& g : group_exprs) {
              key.push_back(g->Eval(row_scratch));
            }
          }
          auto [it, inserted] = groups.try_emplace(key);
          GroupState& state = it->second;
          if (inserted) init_state(&state);
          if (vec_ok) {
            accumulate_typed(chunk, r, &state);
          } else {
            accumulate_row(row_scratch, &state);
          }
        }
      }
    }
  } else {
    Row key;
    input.rel->ForEachRow([&](const Row& row) {
      key.clear();
      key.reserve(group_exprs.size());
      for (const expr::ExprPtr& g : group_exprs) key.push_back(g->Eval(row));
      auto [it, inserted] = groups.try_emplace(key);
      GroupState& state = it->second;
      if (inserted) init_state(&state);
      for (size_t j = 0; j < items.size(); ++j) {
        accumulate(&state, j,
                   items[j].argument ? items[j].argument->Eval(row)
                                     : Value::Int(1),
                   items[j].argument != nullptr);
      }
    });
  }

  Relation out(node.schema());
  // SQL semantics: a global aggregate (no GROUP BY) over an empty input
  // still produces one row (count = 0, min/max/sum = NULL).
  if (groups.empty() && group_exprs.empty()) {
    Row row;
    for (const plan::AggregateItem& item : items) {
      row.push_back(item.function == AggregateFunction::kCount
                        ? Value::Int(0)
                        : Value::Null());
    }
    out.Add(std::move(row));
    return Own(std::move(out));
  }
  out.Reserve(groups.size());
  for (auto& [key, state] : groups) {
    Row row = key;
    for (Value& acc : state.accumulators) row.push_back(std::move(acc));
    out.Add(std::move(row));
  }
  return Own(std::move(out));
}

Result<BorrowedRelation> ExecSort(const plan::SortNode& node,
                                  const ExecContext& ctx, bool fuse) {
  RASQL_ASSIGN_OR_RETURN(BorrowedRelation input,
                         Exec(node.child(0), ctx, fuse));
  std::vector<Row> rows = input.rel->MaterializeRows();
  std::stable_sort(
      rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
        for (const plan::SortNode::SortKey& key : node.keys()) {
          const int c = key.expr->Eval(a).Compare(key.expr->Eval(b));
          if (c != 0) return key.ascending ? c < 0 : c > 0;
        }
        return false;
      });
  return Own(Relation(input.rel->schema(), rows));
}

Result<BorrowedRelation> Exec(const LogicalPlan& node, const ExecContext& ctx,
                              bool fuse) {
  // Whole-stage fusion: compile the filter/probe/project chain rooted here
  // into one pipeline and run it over the full driver — no per-node
  // intermediates. Under sort-merge only probe-free chains compile; the
  // tree walk below stays the oracle either way.
  if (fuse &&
      (node.kind() == PlanKind::kProject || node.kind() == PlanKind::kFilter ||
       node.kind() == PlanKind::kJoin)) {
    std::optional<PipelineProgram> program =
        PipelineProgram::Compile(node, ctx.join_algorithm);
    if (program.has_value()) {
      RASQL_ASSIGN_OR_RETURN(BoundPipeline pipeline, program->Bind(ctx));
      Relation rows(node.schema());
      RASQL_RETURN_IF_ERROR(pipeline.RunAll(&rows));
      return Own(std::move(rows));
    }
  }
  switch (node.kind()) {
    case PlanKind::kTableScan:
      return ExecTableScan(static_cast<const plan::TableScanNode&>(node),
                           ctx);
    case PlanKind::kRecursiveRef:
      return ExecRecursiveRef(
          static_cast<const plan::RecursiveRefNode&>(node), ctx);
    case PlanKind::kValues: {
      const auto& values = static_cast<const plan::ValuesNode&>(node);
      return Own(Relation(values.schema(), values.rows()));
    }
    case PlanKind::kFilter:
      return ExecFilter(static_cast<const plan::FilterNode&>(node), ctx,
                        fuse);
    case PlanKind::kProject:
      return ExecProject(static_cast<const plan::ProjectNode&>(node), ctx,
                         fuse);
    case PlanKind::kJoin:
      return ExecJoinGeneric(static_cast<const plan::JoinNode&>(node), ctx,
                             fuse);
    case PlanKind::kAggregate:
      return ExecAggregate(static_cast<const plan::AggregateNode&>(node),
                           ctx, fuse);
    case PlanKind::kSort:
      return ExecSort(static_cast<const plan::SortNode&>(node), ctx, fuse);
    case PlanKind::kLimit: {
      const auto& limit = static_cast<const plan::LimitNode&>(node);
      RASQL_ASSIGN_OR_RETURN(BorrowedRelation input,
                             Exec(node.child(0), ctx, fuse));
      Relation out(node.schema());
      const size_t n = std::min<size_t>(input.rel->size(),
                                        static_cast<size_t>(limit.limit()));
      input.rel->ForEachRow(storage::RowRange{0, n},
                            [&](const Row& row) { out.Add(row); });
      return Own(std::move(out));
    }
  }
  return Status::Internal("unhandled plan node");
}

Result<Relation> Materialize(BorrowedRelation result) {
  if (result.owned) return std::move(*result.owned);
  return *result.rel;  // borrowed: copy out
}

}  // namespace

Result<Relation> Execute(const LogicalPlan& plan, const ExecContext& ctx) {
  RASQL_ASSIGN_OR_RETURN(BorrowedRelation result,
                         Exec(plan, ctx, /*fuse=*/true));
  return Materialize(std::move(result));
}

Result<Relation> ExecuteInterpreted(const LogicalPlan& plan,
                                    const ExecContext& ctx) {
  RASQL_ASSIGN_OR_RETURN(BorrowedRelation result,
                         Exec(plan, ctx, /*fuse=*/false));
  return Materialize(std::move(result));
}

Result<BorrowedRelation> ExecuteBorrowed(const LogicalPlan& plan,
                                         const ExecContext& ctx) {
  return Exec(plan, ctx, /*fuse=*/true);
}

}  // namespace rasql::physical
