#include "engine/rasql_context.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "analysis/analyzer.h"
#include "common/check.h"
#include "fixpoint/stage_plan.h"
#include "sql/parser.h"
#include "verify/verifier.h"

namespace rasql::engine {

using common::Result;
using common::Status;
using storage::Relation;
using storage::ToLower;

RaSqlContext::RaSqlContext(EngineConfig config)
    : config_(std::move(config)) {}

Status RaSqlContext::RegisterTable(const std::string& name,
                                   Relation relation) {
  std::unique_lock lock(mu_);
  return RegisterTableLocked(name, std::move(relation));
}

Status RaSqlContext::RegisterTableLocked(const std::string& name,
                                         Relation relation) {
  RASQL_RETURN_IF_ERROR(catalog_.RegisterTable(name, relation.schema()));
  const std::string key = ToLower(name);
  tables_.insert_or_assign(key, std::move(relation));
  // A (re)registration replaces the table's contents wholesale: bump the
  // rewrite counter so warm-start marks taken before it can never treat
  // the new contents as an append delta.
  ++rewrites_[key];
  BumpVersionLocked(key);
  return Status::OK();
}

Status RaSqlContext::DropTable(const std::string& name) {
  std::unique_lock lock(mu_);
  const std::string key = ToLower(name);
  if (tables_.erase(key) == 0) {
    return Status::NotFound("no table named '" + name + "'");
  }
  // Rebuild the catalog without the dropped entry.
  analysis::Catalog fresh;
  for (const auto& [table_name, rel] : tables_) {
    fresh.PutTable(table_name, rel.schema());
  }
  catalog_ = std::move(fresh);
  ++rewrites_[key];
  BumpVersionLocked(key);
  return Status::OK();
}

uint64_t RaSqlContext::TableRewrites(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = rewrites_.find(ToLower(name));
  return it == rewrites_.end() ? 0 : it->second;
}

const Relation* RaSqlContext::FindTable(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : &it->second;
}

uint64_t RaSqlContext::TableVersion(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = versions_.find(ToLower(name));
  return it == versions_.end() ? 0 : it->second;
}

uint64_t RaSqlContext::CatalogVersion() const {
  std::shared_lock lock(mu_);
  return catalog_version_;
}

void RaSqlContext::BumpVersionLocked(const std::string& key) {
  ++versions_[key];
  ++catalog_version_;
}

Result<Relation> RaSqlContext::ExecuteInsertLocked(
    const sql::InsertStmt& insert) {
  const std::string key = ToLower(insert.table);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + insert.table + "'");
  }
  Relation& table = it->second;
  const storage::Schema& schema = table.schema();
  // Validate (and coerce) every row before appending any: an INSERT either
  // lands completely or not at all, so cache invalidation never observes a
  // half-applied write.
  std::vector<storage::Row> coerced;
  coerced.reserve(insert.rows.size());
  for (const storage::Row& row : insert.rows) {
    if (static_cast<int>(row.size()) != schema.num_columns()) {
      return Status::InvalidArgument(
          "INSERT row has " + std::to_string(row.size()) +
          " values but table '" + insert.table + "' has " +
          std::to_string(schema.num_columns()) + " columns");
    }
    storage::Row out = row;
    for (int c = 0; c < schema.num_columns(); ++c) {
      const storage::ValueType want = schema.column(c).type;
      const storage::ValueType got = out[c].type();
      if (got == storage::ValueType::kNull || got == want) continue;
      if (got == storage::ValueType::kInt64 &&
          want == storage::ValueType::kDouble) {
        out[c] = storage::Value::Double(static_cast<double>(out[c].AsInt()));
        continue;
      }
      return Status::InvalidArgument(
          std::string("INSERT value type ") + storage::ValueTypeName(got) +
          " does not fit column '" + schema.column(c).name + "' (" +
          storage::ValueTypeName(want) + ") of table '" + insert.table + "'");
    }
    coerced.push_back(std::move(out));
  }
  table.Reserve(table.size() + coerced.size());
  for (storage::Row& row : coerced) table.Add(std::move(row));
  BumpVersionLocked(key);

  Relation result(storage::Schema::Of(
      {{"rows_inserted", storage::ValueType::kInt64}}));
  result.Add({storage::Value::Int(static_cast<int64_t>(insert.rows.size()))});
  return result;
}

Result<ExecutionResult> RaSqlContext::Execute(const std::string& sql) {
  RASQL_ASSIGN_OR_RETURN(std::vector<sql::Statement> statements,
                         sql::Parser::ParseScript(sql));
  if (statements.empty()) {
    return Status::InvalidArgument("empty statement");
  }
  // Lock discipline: a script that writes the shared catalog (CREATE VIEW
  // materialization, INSERT) is exclusive; pure query scripts share. The
  // lock covers the whole script so multi-statement scripts are atomic
  // with respect to other sessions.
  bool writes = false;
  for (const sql::Statement& stmt : statements) {
    writes |= stmt.kind != sql::Statement::Kind::kQuery;
  }
  std::shared_lock<std::shared_mutex> shared(mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(mu_, std::defer_lock);
  if (writes) {
    exclusive.lock();
  } else {
    shared.lock();
  }
  ExecutionResult execution;
  if (config_.lint_before_execute) {
    lint::Linter linter(&catalog_);
    RASQL_ASSIGN_OR_RETURN(execution.lint_report, linter.LintSql(sql));
    if (execution.lint_report.BlocksExecution(config_.lint)) {
      return Status::AnalysisError(
          "query refused by lint" +
          std::string(config_.lint.werror ? " (werror)" : "") + ":\n" +
          execution.lint_report.ToString());
    }
  }
  bool produced_result = false;
  for (const sql::Statement& stmt : statements) {
    if (stmt.kind == sql::Statement::Kind::kInsert) {
      RASQL_ASSIGN_OR_RETURN(execution.relation,
                             ExecuteInsertLocked(*stmt.insert));
      produced_result = true;
      continue;
    }
    if (stmt.kind == sql::Statement::Kind::kCreateView) {
      const sql::CreateViewStmt& view = *stmt.create_view;
      analysis::Analyzer analyzer(&catalog_);
      RASQL_ASSIGN_OR_RETURN(plan::PlanPtr view_plan,
                             analyzer.AnalyzeSelect(*view.definition));
      view_plan = plan::Optimize(std::move(view_plan), config_.optimizer);
      if (view_plan->schema().num_columns() !=
          static_cast<int>(view.columns.size())) {
        return Status::AnalysisError(
            "view '" + view.name + "' declares " +
            std::to_string(view.columns.size()) +
            " columns but its query produces " +
            std::to_string(view_plan->schema().num_columns()));
      }
      physical::ExecContext ctx;
      for (const auto& [name, rel] : tables_) ctx.tables[name] = &rel;
      ctx.batch_rows = config_.runtime.batch_rows;
      ctx.join_algorithm = config_.fixpoint.join_algorithm;
      RASQL_ASSIGN_OR_RETURN(Relation rel,
                             physical::Execute(*view_plan, ctx));
      // Rename output columns to the declared view columns.
      std::vector<storage::Column> cols = rel.schema().columns();
      for (size_t i = 0; i < cols.size(); ++i) {
        cols[i].name = view.columns[i];
      }
      *rel.mutable_schema() = storage::Schema(std::move(cols));
      RASQL_RETURN_IF_ERROR(RegisterTableLocked(view.name, std::move(rel)));
      continue;
    }
    RASQL_ASSIGN_OR_RETURN(execution.relation,
                           ExecuteQuery(*stmt.query, &execution.fixpoint_stats,
                                        &execution.job_metrics));
    produced_result = true;
  }
  if (!produced_result) {
    return Status::InvalidArgument(
        "script contains no query statement (only CREATE VIEW)");
  }
  return execution;
}

Result<std::string> RaSqlContext::NormalizedPlanKey(
    const std::string& sql) const {
  RASQL_ASSIGN_OR_RETURN(std::vector<sql::Statement> statements,
                         sql::Parser::ParseScript(sql));
  if (statements.size() != 1 ||
      statements[0].kind != sql::Statement::Kind::kQuery) {
    return Status::InvalidArgument(
        "prepared statements must be a single query statement");
  }
  std::shared_lock lock(mu_);
  analysis::Analyzer analyzer(&catalog_);
  RASQL_ASSIGN_OR_RETURN(analysis::AnalyzedQuery analyzed,
                         analyzer.Analyze(*statements[0].query));
  analyzed.Optimize(config_.optimizer);
  return analyzed.ToString();
}

Result<Relation> RaSqlContext::ExecuteQuery(const sql::Query& query,
                                            fixpoint::FixpointStats* stats,
                                            dist::JobMetrics* metrics) {
  *stats = fixpoint::FixpointStats();
  *metrics = dist::JobMetrics();

  analysis::Analyzer analyzer(&catalog_);
  RASQL_ASSIGN_OR_RETURN(analysis::AnalyzedQuery analyzed,
                         analyzer.Analyze(query));

  analyzed.Optimize(config_.optimizer);

  // Warm-start bookkeeping (DESIGN.md §14). The plan key is the normalized
  // plan rendering — the same identity the server's caches key on; the
  // lint pass runs once per query and only when incremental mode is on.
  std::string warm_plan_key;
  lint::LintReport warm_lint;
  bool warm_lint_ran = false;
  auto view_proven = [&](const std::string& name) {
    if (!warm_lint_ran) {
      lint::Linter linter(&catalog_);
      warm_lint = linter.LintQuery(query);
      warm_lint_ran = true;
    }
    const auto& proven = warm_lint.proven_views;
    return std::find(proven.begin(), proven.end(), name) != proven.end();
  };
  if (config_.incremental) warm_plan_key = analyzed.ToString();

  // Evaluate cliques in topological order, materializing views.
  std::map<std::string, Relation> views;
  dist::Cluster cluster(config_.cluster, config_.runtime);
  int clique_index = -1;
  for (const analysis::RecursiveClique& clique : analyzed.cliques) {
    ++clique_index;
    std::map<std::string, const Relation*> bindings;
    for (const auto& [name, rel] : tables_) bindings[name] = &rel;
    for (const auto& [name, rel] : views) bindings[name] = &rel;

    // ---- Warm-start gate. `capturable` = this clique's converged state
    // is worth retaining (statically proven safe, semi-naive, every scan
    // hits a versioned base table). `warm_input` is armed only when a
    // retained state exists whose marks show append-only drift the plan
    // structure can seed exactly; everything else runs cold.
    bool warm_capturable = false;
    bool warm_armed = false;
    std::string warm_key;
    std::map<std::string, int> warm_scans;
    std::shared_ptr<const fixpoint::CliqueWarmState> warm_prior;
    std::map<std::string, Relation> warm_deltas;
    fixpoint::WarmStartInput warm_input;
    if (config_.incremental && clique.IsRecursive() &&
        clique.views.size() == 1 && clique.views[0].semi_naive_safe &&
        config_.fixpoint.mode != fixpoint::FixpointMode::kNaive) {
      const analysis::RecursiveView& view = clique.views[0];
      // Accumulation over floats is not replayable bit-identically (the
      // addition order of a warm run differs), so sum heads always run
      // cold; count increments are exact integers.
      const bool agg_ok =
          view.aggregate == expr::AggregateFunction::kNone ||
          view.aggregate == expr::AggregateFunction::kMin ||
          view.aggregate == expr::AggregateFunction::kMax ||
          view.aggregate == expr::AggregateFunction::kCount;
      if (agg_ok && view_proven(view.name)) {
        warm_scans = fixpoint::CollectViewTableScans(view);
        warm_capturable = true;
        for (const auto& [table, count] : warm_scans) {
          // Every scan must hit a versioned base table — a reference to a
          // same-query clique view has no version to mark.
          if (tables_.find(table) == tables_.end()) {
            warm_capturable = false;
            break;
          }
        }
      }
      if (warm_capturable) {
        warm_key =
            warm_plan_key + "#clique" + std::to_string(clique_index);
        warm_prior = warm_store_.Lookup(warm_key);
      }
      if (warm_prior != nullptr) {
        bool marks_ok = warm_prior->marks.size() == warm_scans.size();
        std::set<std::string> changed;
        for (const auto& [table, mark] : warm_prior->marks) {
          auto tit = tables_.find(table);
          auto vit = versions_.find(table);
          auto rit = rewrites_.find(table);
          if (tit == tables_.end() || vit == versions_.end() ||
              rit == rewrites_.end() || rit->second != mark.rewrites ||
              tit->second.size() < mark.rows ||
              warm_scans.find(table) == warm_scans.end()) {
            marks_ok = false;
            break;
          }
          if (vit->second != mark.version) changed.insert(table);
        }
        if (marks_ok && fixpoint::WarmSeedCompatible(clique.views[0],
                                                     changed)) {
          for (const std::string& table : changed) {
            const Relation& full = tables_.at(table);
            const size_t from = warm_prior->marks.at(table).rows;
            Relation delta(full.schema());
            full.ForEachRow(storage::RowRange{from, full.size()},
                            [&](const storage::Row& row) {
                              delta.AppendRow(row);
                            });
            warm_deltas.emplace(table, std::move(delta));
          }
          warm_input.converged = &warm_prior->converged;
          warm_input.deltas = &warm_deltas;
          warm_input.prior_iterations = warm_prior->cold_iterations;
          warm_armed = true;
        }
      }
    }

    std::map<std::string, Relation> results;
    fixpoint::FixpointStats clique_stats;
    if (config_.distributed && clique.IsRecursive() &&
        fixpoint::EligibleForDistributed(clique)) {
      fixpoint::DistFixpointOptions dist_options = config_.dist_fixpoint;
      // The iteration-cap/join knobs are configured once on the
      // local options; copy the shared slice so both paths honor them.
      static_cast<fixpoint::CommonFixpointOptions&>(dist_options) =
          config_.fixpoint;
      if (warm_armed) dist_options.warm_start = &warm_input;
      RASQL_ASSIGN_OR_RETURN(
          results,
          fixpoint::EvaluateCliqueDistributed(clique, bindings, &cluster,
                                              dist_options, &clique_stats));
    } else {
      fixpoint::FixpointOptions local_options = config_.fixpoint;
      // --threads applies to the local path too: the local evaluator runs
      // its per-partition work on the same runtime configuration.
      local_options.runtime = config_.runtime;
      if (warm_armed) local_options.warm_start = &warm_input;
      RASQL_ASSIGN_OR_RETURN(
          results, fixpoint::EvaluateCliqueLocal(clique, bindings,
                                                 local_options,
                                                 &clique_stats));
    }
    stats->MergeFrom(clique_stats);

    // ---- Retain the converged state for the next INSERT. After a warm
    // run the original cold iteration count is kept so iterations_saved
    // stays an honest before/after comparison.
    if (warm_capturable) {
      auto snapshot = std::make_shared<fixpoint::CliqueWarmState>();
      snapshot->converged = results.at(clique.views[0].name);
      for (const auto& [table, count] : warm_scans) {
        fixpoint::TableMark mark;
        auto vit = versions_.find(table);
        mark.version = vit == versions_.end() ? 0 : vit->second;
        auto rit = rewrites_.find(table);
        mark.rewrites = rit == rewrites_.end() ? 0 : rit->second;
        mark.rows = tables_.at(table).size();
        snapshot->marks.emplace(table, mark);
      }
      snapshot->cold_iterations = warm_armed
                                      ? warm_input.prior_iterations
                                      : clique_stats.iterations;
      warm_store_.Put(warm_key, std::move(snapshot));
    }

    for (auto& [name, rel] : results) views[name] = std::move(rel);
  }
  *metrics = cluster.metrics();

  // Execute the body against base tables + materialized views.
  physical::ExecContext ctx;
  for (const auto& [name, rel] : tables_) ctx.tables[name] = &rel;
  for (const auto& [name, rel] : views) ctx.tables[name] = &rel;
  ctx.batch_rows = config_.runtime.batch_rows;
  ctx.join_algorithm = config_.fixpoint.join_algorithm;
  return physical::Execute(*analyzed.body, ctx);
}

namespace {

/// EXPLAIN variants register CREATE VIEW schemas into the shared catalog so
/// later statements analyze; that makes them writers for locking purposes.
bool ScriptWritesCatalog(const std::vector<sql::Statement>& statements) {
  for (const sql::Statement& stmt : statements) {
    if (stmt.kind != sql::Statement::Kind::kQuery) return true;
  }
  return false;
}

}  // namespace

Result<std::string> RaSqlContext::ExplainStages(const std::string& sql) {
  RASQL_ASSIGN_OR_RETURN(std::vector<sql::Statement> statements,
                         sql::Parser::ParseScript(sql));
  std::shared_lock<std::shared_mutex> shared(mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(mu_, std::defer_lock);
  if (ScriptWritesCatalog(statements)) {
    exclusive.lock();
  } else {
    shared.lock();
  }
  std::string out;
  for (const sql::Statement& stmt : statements) {
    if (stmt.kind == sql::Statement::Kind::kInsert) {
      out += "=== INSERT INTO " + stmt.insert->table + " ===\n(" +
             std::to_string(stmt.insert->rows.size()) +
             " literal rows; no stages)\n";
      continue;
    }
    if (stmt.kind == sql::Statement::Kind::kCreateView) {
      // Views evaluate as one physical plan on the driver — no stage
      // submissions to render. Register the schema so later statements
      // referencing the view still analyze.
      analysis::Analyzer analyzer(&catalog_);
      RASQL_ASSIGN_OR_RETURN(
          plan::PlanPtr view_plan,
          analyzer.AnalyzeSelect(*stmt.create_view->definition));
      std::vector<storage::Column> cols = view_plan->schema().columns();
      for (size_t i = 0; i < cols.size(); ++i) {
        cols[i].name = stmt.create_view->columns[i];
      }
      catalog_.PutTable(stmt.create_view->name,
                        storage::Schema(std::move(cols)));
      continue;
    }
    analysis::Analyzer analyzer(&catalog_);
    RASQL_ASSIGN_OR_RETURN(analysis::AnalyzedQuery analyzed,
                           analyzer.Analyze(*stmt.query));
    analyzed.Optimize(config_.optimizer);
    for (const analysis::RecursiveClique& clique : analyzed.cliques) {
      // Same dispatch as ExecuteQuery, same orchestration analysis as the
      // evaluators — the rendered template cannot drift from a real run.
      verify::StageGraph graph;
      if (config_.distributed && clique.IsRecursive() &&
          fixpoint::EligibleForDistributed(clique)) {
        fixpoint::DistFixpointOptions dist_options = config_.dist_fixpoint;
        static_cast<fixpoint::CommonFixpointOptions&>(dist_options) =
            config_.fixpoint;
        RASQL_ASSIGN_OR_RETURN(
            graph, fixpoint::PlanDistributedStages(
                       clique, dist_options, config_.runtime,
                       config_.cluster.num_partitions));
        out += "=== STAGES (distributed) ===\n";
      } else {
        fixpoint::FixpointOptions local_options = config_.fixpoint;
        local_options.runtime = config_.runtime;
        RASQL_ASSIGN_OR_RETURN(
            graph, fixpoint::PlanLocalStages(clique, local_options));
        out += "=== STAGES (local) ===\n";
      }
      out += graph.ToString();
      lint::DiagnosticEngine diag;
      verify::VerifyStageGraph(graph, &diag);
      out += diag.ToString();
    }
  }
  if (out.empty()) {
    return Status::InvalidArgument(
        "script contains no query statement (only CREATE VIEW)");
  }
  return out;
}

Result<lint::LintReport> RaSqlContext::Lint(const std::string& sql) const {
  std::shared_lock lock(mu_);
  lint::Linter linter(&catalog_);
  return linter.LintSql(sql);
}

Result<std::string> RaSqlContext::Explain(const std::string& sql) {
  RASQL_ASSIGN_OR_RETURN(std::vector<sql::Statement> statements,
                         sql::Parser::ParseScript(sql));
  std::shared_lock<std::shared_mutex> shared(mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive(mu_, std::defer_lock);
  if (ScriptWritesCatalog(statements)) {
    exclusive.lock();
  } else {
    shared.lock();
  }
  std::string out;
  for (const sql::Statement& stmt : statements) {
    if (stmt.kind == sql::Statement::Kind::kInsert) {
      out += "=== INSERT INTO " + stmt.insert->table + " ===\n";
      continue;
    }
    if (stmt.kind == sql::Statement::Kind::kCreateView) {
      analysis::Analyzer analyzer(&catalog_);
      RASQL_ASSIGN_OR_RETURN(
          plan::PlanPtr view_plan,
          analyzer.AnalyzeSelect(*stmt.create_view->definition));
      view_plan = plan::Optimize(std::move(view_plan), config_.optimizer);
      out += "=== CREATE VIEW " + stmt.create_view->name + " ===\n";
      out += view_plan->ToString(0);
      // Later statements may reference the view; register its schema only.
      std::vector<storage::Column> cols = view_plan->schema().columns();
      for (size_t i = 0; i < cols.size(); ++i) {
        cols[i].name = stmt.create_view->columns[i];
      }
      catalog_.PutTable(stmt.create_view->name,
                        storage::Schema(std::move(cols)));
      continue;
    }
    analysis::Analyzer analyzer(&catalog_);
    RASQL_ASSIGN_OR_RETURN(analysis::AnalyzedQuery analyzed,
                           analyzer.Analyze(*stmt.query));
    analyzed.Optimize(config_.optimizer);
    out += analyzed.ToString();
  }
  return out;
}

}  // namespace rasql::engine
