// Layer-by-layer drive of one query for the traced run: the benchmark calls
// each layer's own entry point in the order RaSqlContext::Execute does for a
// cold query, with a span around each call.

#ifndef RASQL_PERFBENCH_LAYERS_H_
#define RASQL_PERFBENCH_LAYERS_H_

#include <map>
#include <string>

#include "analysis/catalog.h"
#include "common/status.h"
#include "dist/cluster.h"
#include "engine/rasql_context.h"
#include "fixpoint/fixpoint_options.h"
#include "perfbench.h"
#include "storage/relation.h"

namespace perfbench {

using TableMap = std::map<std::string, const rasql::storage::Relation*>;

struct DriveResult {
  rasql::storage::Relation relation;
  rasql::fixpoint::FixpointStats stats;
  rasql::dist::JobMetrics metrics;
  double fixpoint_seconds = 0;  ///< wall time of the clique evaluations
  double cpu_seconds = 0;       ///< process CPU over the whole drive
  std::string body;             ///< the CSV a server would send
};

/// Catalog of the given tables' schemas, as the engine builds it.
rasql::analysis::Catalog CatalogOf(const TableMap& tables);

/// Parses, analyzes and optimizes `sql`, evaluates every clique with the
/// evaluator the engine would dispatch to under `config` (distributed on a
/// dist::Cluster when eligible, local otherwise), runs the body with
/// physical::Execute and formats it as CSV. Spans: sql.parse,
/// analysis.analyze, plan.optimize, fixpoint.eval, physical.body,
/// storage.format.
rasql::common::Result<DriveResult> DriveQuery(
    const std::string& sql, const rasql::engine::EngineConfig& config,
    const TableMap& tables, const rasql::analysis::Catalog& catalog,
    Tracer* tracer, int64_t op);

}  // namespace perfbench

#endif  // RASQL_PERFBENCH_LAYERS_H_
