#include "lint/gptest.h"

#include "analysis/analyzer.h"
#include "dist/aggregates.h"
#include "dist/set_rdd.h"
#include "physical/executor.h"
#include "sql/parser.h"

namespace rasql::lint {

using analysis::RecursiveView;
using common::Result;
using common::Status;
using dist::AggSpec;
using storage::Relation;

namespace {

/// One naive step T over the given state: evaluates all recursive plans
/// with every reference bound to `state`.
Result<Relation> Step(
    const RecursiveView& view,
    const std::map<std::string, const Relation*>& tables,
    const Relation& state) {
  physical::ExecContext ctx;
  ctx.tables = tables;
  ctx.recursive_resolver =
      [&](const plan::RecursiveRefNode&) -> const Relation* {
    return &state;
  };
  Relation out(view.schema);
  for (const plan::PlanPtr& p : view.recursive_plans) {
    RASQL_ASSIGN_OR_RETURN(Relation rel, physical::Execute(*p, ctx));
    out.AppendChunks(std::move(rel));
  }
  return out;
}

}  // namespace

Result<PremCheckResult> ValidatePrem(
    const std::string& sql,
    const std::map<std::string, const Relation*>& tables,
    int max_iterations) {
  // Parse and analyze against a catalog synthesized from the bindings.
  RASQL_ASSIGN_OR_RETURN(sql::Query query, sql::Parser::ParseQuery(sql));
  analysis::Catalog catalog;
  for (const auto& [name, rel] : tables) {
    catalog.PutTable(name, rel->schema());
  }
  analysis::Analyzer analyzer(&catalog);
  RASQL_ASSIGN_OR_RETURN(analysis::AnalyzedQuery analyzed,
                         analyzer.Analyze(query));

  const RecursiveView* view = nullptr;
  for (const analysis::RecursiveClique& clique : analyzed.cliques) {
    if (!clique.IsRecursive()) continue;
    if (view != nullptr || clique.views.size() != 1) {
      return Status::InvalidArgument(
          "PreM validation expects exactly one recursive view");
    }
    view = &clique.views[0];
  }
  if (view == nullptr) {
    return Status::InvalidArgument("query has no recursive view");
  }
  if (view->aggregate != expr::AggregateFunction::kMin &&
      view->aggregate != expr::AggregateFunction::kMax) {
    return Status::InvalidArgument(
        "PreM validation applies to min()/max() heads; sum/count rest on "
        "the monotonic-count argument (paper Sec. 3)");
  }

  const AggSpec spec = AggSpec::For(view->schema.num_columns(),
                                    view->agg_column, view->aggregate);

  // Base case feeds both fixpoints.
  physical::ExecContext base_ctx;
  base_ctx.tables = tables;
  Relation base_rows(view->schema);
  for (const plan::PlanPtr& p : view->base_plans) {
    RASQL_ASSIGN_OR_RETURN(Relation rel, physical::Execute(*p, base_ctx));
    base_rows.AppendChunks(std::move(rel));
  }

  // X: the aggregated fixpoint (the original query). Merge semantics via
  // the same state structure the engine uses.
  dist::SetRddPartition x_state(view->schema, spec);
  Relation x_delta(view->schema);
  x_state.MergeDelta(dist::PartialAggregate(base_rows, spec), &x_delta);

  // Y: the unaggregated fixpoint (the Appendix-G `all` view): plain set
  // accumulation of every derived tuple.
  dist::SetRddPartition y_state(
      view->schema,
      AggSpec::For(view->schema.num_columns(), -1,
                   expr::AggregateFunction::kNone));
  Relation y_delta(view->schema);
  y_state.MergeDelta(base_rows, &y_delta);

  PremCheckResult result;
  while (true) {
    // Invariant under PreM: γ(Y_n) == X_n.
    Relation gamma_y = dist::PartialAggregate(y_state.ToRelation(), spec);
    Relation x = x_state.ToRelation();
    if (!storage::SameBag(gamma_y, x)) {
      result.holds = false;
      result.message = "PreM violated at iteration " +
                       std::to_string(result.iterations_checked) +
                       ": gamma(T(X)) != gamma(T(gamma(X))) — " +
                       std::to_string(gamma_y.size()) + " vs " +
                       std::to_string(x.size()) + " aggregated groups";
      return result;
    }

    if (y_delta.empty() && x_delta.empty()) break;
    if (result.iterations_checked >= max_iterations) {
      result.exhausted_limit = true;
      break;
    }
    ++result.iterations_checked;

    // Advance X by one aggregated step.
    if (!x_delta.empty()) {
      Relation x_rel = x_state.ToRelation();
      RASQL_ASSIGN_OR_RETURN(Relation x_candidates,
                             Step(*view, tables, x_rel));
      x_delta.Clear();
      x_state.MergeDelta(dist::PartialAggregate(x_candidates, spec),
                         &x_delta);
    }
    // Advance Y by one unaggregated step.
    if (!y_delta.empty()) {
      Relation y_rel = y_state.ToRelation();
      RASQL_ASSIGN_OR_RETURN(Relation y_candidates,
                             Step(*view, tables, y_rel));
      y_delta.Clear();
      y_state.MergeDelta(y_candidates, &y_delta);
    }
  }

  result.holds = true;
  result.message =
      result.exhausted_limit
          ? "PreM held for all " + std::to_string(result.iterations_checked) +
                " checked iterations (unaggregated recursion still active "
                "at the cap)"
          : "PreM held through fixpoint (" +
                std::to_string(result.iterations_checked) + " iterations)";
  return result;
}

}  // namespace rasql::lint
