#ifndef RASQL_DIST_AGGREGATES_H_
#define RASQL_DIST_AGGREGATES_H_

#include <vector>

#include "expr/expr.h"
#include "storage/group_table.h"
#include "storage/relation.h"

namespace rasql::dist {

/// Describes the aggregate structure of a recursive relation (paper Sec. 2:
/// implicit group-by — every column except the aggregate is a key).
/// `agg_column == -1` means plain set semantics (no aggregate in the head).
struct AggSpec {
  std::vector<int> key_columns;
  int agg_column = -1;
  expr::AggregateFunction function = expr::AggregateFunction::kNone;

  bool has_aggregate() const {
    return function != expr::AggregateFunction::kNone;
  }

  /// AggSpec for a relation with `num_columns` columns whose aggregate (if
  /// any) sits at `agg_column`.
  static AggSpec For(int num_columns, int agg_column,
                     expr::AggregateFunction function);
};

/// Combines two aggregate contributions: min/max keep the better value;
/// sum/count add. Used by map-side partial aggregation and SetRDD merges.
storage::Value CombineAgg(expr::AggregateFunction function,
                          const storage::Value& a, const storage::Value& b);

/// True when `candidate` improves on `current` for min/max (strictly
/// better). For sum/count this is never used — contributions always
/// accumulate.
bool ImprovesAgg(expr::AggregateFunction function,
                 const storage::Value& current,
                 const storage::Value& candidate);

/// Folds the aggregate cell (`row`, `spec.agg_column`) of `chunk` into
/// group `g` of `table` exactly as CombineAgg(current, cell) would: min/max
/// keep the better value, sum/count add. Typed cells combine in place.
void CombineInto(const AggSpec& spec, const storage::ColumnChunk& chunk,
                 size_t row, uint32_t g, storage::GroupTable* table);

/// For min/max: replaces group `g`'s aggregate with cell (`row`,
/// `spec.agg_column`) of `chunk` when ImprovesAgg says the cell is strictly
/// better, and returns whether it did.
bool ImproveInto(const AggSpec& spec, const storage::ColumnChunk& chunk,
                 size_t row, uint32_t g, storage::GroupTable* table);

/// Map-side partial aggregation (paper Alg. 5 line 5): collapses `rel` by
/// key, combining aggregate values; reduces shuffle volume. For set
/// semantics this deduplicates whole rows. Groups come out in first-seen
/// order, each with its first-seen key cells, and the relation keeps
/// `rel`'s schema. Key and aggregate cells stream from the column arrays
/// into a storage::GroupTable — no row is materialized.
storage::Relation PartialAggregate(const storage::Relation& rel,
                                   const AggSpec& spec);

}  // namespace rasql::dist

#endif  // RASQL_DIST_AGGREGATES_H_
