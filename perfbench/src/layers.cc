#include "layers.h"

#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "fixpoint/distributed_fixpoint.h"
#include "fixpoint/local_fixpoint.h"
#include "physical/executor.h"
#include "sql/parser.h"
#include "storage/result_format.h"

namespace perfbench {

using rasql::common::Result;
using rasql::common::Status;
using rasql::storage::Relation;

rasql::analysis::Catalog CatalogOf(const TableMap& tables) {
  rasql::analysis::Catalog catalog;
  for (const auto& [name, rel] : tables) catalog.PutTable(name, rel->schema());
  return catalog;
}

Result<DriveResult> DriveQuery(const std::string& sql,
                               const rasql::engine::EngineConfig& config,
                               const TableMap& tables,
                               const rasql::analysis::Catalog& catalog,
                               Tracer* tracer, int64_t op) {
  const double cpu_start = ProcessCpuSeconds();
  DriveResult out;

  Result<std::vector<rasql::sql::Statement>> statements =
      Status::InvalidArgument("unparsed");
  {
    ScopedSpan span(tracer, "sql.parse", op);
    statements = rasql::sql::Parser::ParseScript(sql);
  }
  if (!statements.ok()) return statements.status();
  if (statements->size() != 1 ||
      statements->front().kind != rasql::sql::Statement::Kind::kQuery) {
    return Status::InvalidArgument("drive expects one query statement");
  }

  rasql::analysis::Analyzer analyzer(&catalog);
  Result<rasql::analysis::AnalyzedQuery> analyzed =
      Status::InvalidArgument("unanalyzed");
  {
    ScopedSpan span(tracer, "analysis.analyze", op);
    analyzed = analyzer.Analyze(*statements->front().query);
  }
  if (!analyzed.ok()) return analyzed.status();
  {
    ScopedSpan span(tracer, "plan.optimize", op);
    analyzed->Optimize(config.optimizer);
  }

  // The engine's cold dispatch (RaSqlContext::ExecuteQuery): cliques in
  // topological order, each on the distributed evaluator when configured
  // and eligible, views materialized for later cliques and the body.
  std::map<std::string, Relation> views;
  rasql::dist::Cluster cluster(config.cluster, config.runtime);
  for (const rasql::analysis::RecursiveClique& clique : analyzed->cliques) {
    TableMap bindings = tables;
    for (const auto& [name, rel] : views) bindings[name] = &rel;
    std::map<std::string, Relation> results;
    rasql::fixpoint::FixpointStats clique_stats;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "fixpoint.eval", op);
      Result<std::map<std::string, Relation>> evaluated =
          Status::InvalidArgument("unevaluated");
      if (config.distributed && clique.IsRecursive() &&
          rasql::fixpoint::EligibleForDistributed(clique)) {
        rasql::fixpoint::DistFixpointOptions options = config.dist_fixpoint;
        static_cast<rasql::fixpoint::CommonFixpointOptions&>(options) =
            config.fixpoint;
        evaluated = rasql::fixpoint::EvaluateCliqueDistributed(
            clique, bindings, &cluster, options, &clique_stats);
      } else {
        rasql::fixpoint::FixpointOptions options = config.fixpoint;
        options.runtime = config.runtime;
        evaluated = rasql::fixpoint::EvaluateCliqueLocal(clique, bindings,
                                                         options,
                                                         &clique_stats);
      }
      if (!evaluated.ok()) return evaluated.status();
      results = std::move(evaluated).value();
    }
    out.fixpoint_seconds += SecondsBetween(start, Clock::now());
    out.stats.MergeFrom(clique_stats);
    for (auto& [name, rel] : results) views[name] = std::move(rel);
  }
  out.metrics = cluster.metrics();

  rasql::physical::ExecContext exec;
  exec.tables = tables;
  for (const auto& [name, rel] : views) exec.tables[name] = &rel;
  exec.batch_rows = config.runtime.batch_rows;
  exec.join_algorithm = config.fixpoint.join_algorithm;
  {
    ScopedSpan span(tracer, "physical.body", op);
    Result<Relation> body = rasql::physical::Execute(*analyzed->body, exec);
    if (!body.ok()) return body.status();
    out.relation = std::move(body).value();
  }
  {
    ScopedSpan span(tracer, "storage.format", op);
    out.body = rasql::storage::FormatRelation(out.relation,
                                              rasql::storage::ResultFormat::kCsv);
  }
  out.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  return out;
}

}  // namespace perfbench
