#ifndef RASQL_ENGINE_RASQL_CONTEXT_H_
#define RASQL_ENGINE_RASQL_CONTEXT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <type_traits>

#include "analysis/catalog.h"
#include "common/status.h"
#include "dist/cluster.h"
#include "fixpoint/distributed_fixpoint.h"
#include "fixpoint/local_fixpoint.h"
#include "fixpoint/warm_state.h"
#include "lint/linter.h"
#include "plan/optimizer.h"
#include "runtime/runtime_options.h"
#include "sql/ast.h"
#include "storage/relation.h"

namespace rasql::engine {

/// Engine configuration: every optimization the paper evaluates is a knob
/// here so the benches can ablate them.
struct EngineConfig {
  /// Local fixpoint options (mode, iteration cap, join algorithm).
  fixpoint::FixpointOptions fixpoint;
  plan::OptimizerOptions optimizer;

  /// Run eligible recursive cliques on the simulated cluster with
  /// distributed semi-naive evaluation. Ineligible cliques (mutual
  /// recursion etc.) fall back to local evaluation.
  bool distributed = false;
  dist::ClusterConfig cluster;
  fixpoint::DistFixpointOptions dist_fixpoint;

  /// Real task-execution runtime under the simulated cluster: how many OS
  /// threads run each stage's tasks (see DESIGN.md §7). Defaults to one
  /// thread (sequential).
  runtime::RuntimeOptions runtime;

  /// Run the static PreM/monotonicity linter before executing each query
  /// and refuse error-level queries (`--lint`). `lint.werror` also
  /// refuses warning-level queries (`--werror-lint`).
  bool lint_before_execute = false;
  lint::LintOptions lint;

  /// Warm-start fixpoint maintenance (`--incremental`, DESIGN.md §14):
  /// retain each converged recursive clique's state and, when every write
  /// since that run was an append (INSERT) and the lint layer statically
  /// proved the view's head safe (PreM min/max, monotone count, or
  /// aggregate-free monotone RA — float sums are excluded because their
  /// accumulation order is not replayable), resume the fixpoint with the
  /// new tuples as the seed delta instead of recomputing from scratch.
  /// Everything else falls back to a cold recompute; warm results are
  /// bit-identical to cold ones.
  bool incremental = false;
};

/// Everything one Execute() produces, returned as a unit: the result
/// relation plus the execution's fixpoint statistics, cluster metrics and
/// lint report. Callers that only want rows read `.relation`; benches and
/// tests read the rest directly — the context keeps no per-execution
/// state behind the caller's back.
struct ExecutionResult {
  storage::Relation relation;
  /// Fixpoint statistics (iterations, delta sizes, evaluation mode).
  fixpoint::FixpointStats fixpoint_stats;
  /// Simulated-cluster metrics; empty when running locally.
  dist::JobMetrics job_metrics;
  /// Lint report when `lint_before_execute` is set; empty otherwise.
  lint::LintReport lint_report;
};

/// ExecutionResult travels by value from the engine through the server's
/// result cache to the wire serializer; moving it must never copy the
/// result relation. Enforced here so a grown member cannot silently turn
/// every query's hot path into a deep copy.
static_assert(std::is_move_constructible_v<ExecutionResult> &&
                  std::is_move_assignable_v<ExecutionResult>,
              "ExecutionResult must be movable");
static_assert(std::is_nothrow_move_constructible_v<storage::Relation>,
              "Relation moves must not copy rows");

/// The RaSQL system entry point — the analogue of the paper's extended
/// SparkSession:
///
///   RaSqlContext ctx;
///   ctx.RegisterTable("edge", edges);
///   auto result = ctx.Execute(
///       "WITH recursive path(Dst, min() AS Cost) AS (...) ...");
///   if (result.ok()) Print(result->relation);
///
/// Concurrency contract (DESIGN.md §12): one context may be shared by many
/// threads. Read-only calls — Execute/Explain/ExplainStages of scripts
/// without CREATE VIEW or INSERT, Lint, FindTable, NormalizedPlanKey,
/// TableVersion — run concurrently under a shared lock; writes
/// (RegisterTable, DropTable, and scripts containing CREATE VIEW or
/// INSERT) are exclusive and bump the affected tables' versions. Each
/// execution's scratch state (Cluster, thread pools, views) is stack-owned
/// per call, so parallel queries never alias mutable engine state; when
/// `config().runtime.shared_pool` is set, concurrent stage submissions to
/// the one pool serialize per job (ThreadPool's contract) but interleave
/// across stages. `mutable_config()` is NOT thread-safe — configure before
/// sharing the context.
class RaSqlContext {
 public:
  explicit RaSqlContext(EngineConfig config = {});

  /// Registers a base relation under `name` (case-insensitive).
  common::Status RegisterTable(const std::string& name,
                               storage::Relation relation);

  /// Drops a table or materialized view.
  common::Status DropTable(const std::string& name);

  /// Returns the named table/materialized view, or nullptr. The pointer
  /// stays valid until the next write (RegisterTable/DropTable/INSERT);
  /// concurrent readers must not hold it across their own writes.
  const storage::Relation* FindTable(const std::string& name) const;

  /// Monotone per-table write counter: 0 while unregistered, bumped by
  /// RegisterTable, DropTable and INSERT. The server's result cache keys
  /// converged fixpoints on the versions of every referenced base table,
  /// so a base-relation write makes all dependent entries unreachable.
  uint64_t TableVersion(const std::string& name) const;

  /// Bumped on every catalog write of any kind — a cheap "anything
  /// changed?" fence for whole-catalog consumers.
  uint64_t CatalogVersion() const;

  /// Canonical cache key for a prepared statement: parses and analyzes
  /// `sql` (which must be a single query statement), optimizes its clique
  /// and body plans, and returns the normalized plan rendering. Two
  /// textually different queries that compile to the same recursive-clique
  /// plans share a key — the prepared-plan cache and the result cache both
  /// key on this, never on raw SQL text (DESIGN.md §12).
  common::Result<std::string> NormalizedPlanKey(const std::string& sql) const;

  /// Parses and runs a `;`-separated RaSQL script. CREATE VIEW statements
  /// materialize views into the session; the ExecutionResult carries the
  /// value of the last query statement together with its stats, metrics
  /// and lint report.
  common::Result<ExecutionResult> Execute(const std::string& sql);

  /// Returns the EXPLAIN rendering (clique plans + body physical plan)
  /// without executing.
  common::Result<std::string> Explain(const std::string& sql);

  /// Returns the `EXPLAIN STAGES` rendering without executing: per clique,
  /// the declared stage graph the dispatched evaluator would submit
  /// (distributed when the engine is configured distributed and the clique
  /// is eligible, local otherwise), verified by the static stage-graph
  /// checker with its RASQL-G report appended (DESIGN.md §11).
  common::Result<std::string> ExplainStages(const std::string& sql);

  /// Statically analyzes `sql` (the shell's `EXPLAIN LINT`) without
  /// executing: PreM provability for min/max heads, the monotonic-count
  /// argument for sum/count, semi-naive safety, and the structural rules.
  /// Fails only on parse errors — analysis failures surface as
  /// RASQL-E000 diagnostics inside the report.
  common::Result<lint::LintReport> Lint(const std::string& sql) const;

  const EngineConfig& config() const { return config_; }
  EngineConfig* mutable_config() { return &config_; }

  /// Retained warm-start clique states (observability for tests/tools).
  size_t WarmStateEntries() const { return warm_store_.size(); }
  /// Drops every retained clique state; subsequent queries run cold.
  void ClearWarmState() { warm_store_.Clear(); }

  /// Monotone per-table rewrite counter: bumped by RegisterTable and
  /// DropTable but NOT by INSERT. Warm-start eligibility compares it
  /// against the retained marks — a version bump with an unchanged rewrite
  /// count proves every intervening write was an append.
  uint64_t TableRewrites(const std::string& name) const;

 private:
  /// Runs one query statement, filling `stats`/`metrics` with the
  /// execution's fixpoint statistics and cluster metrics (reset first).
  common::Result<storage::Relation> ExecuteQuery(
      const sql::Query& query, fixpoint::FixpointStats* stats,
      dist::JobMetrics* metrics);

  /// RegisterTable body without the exclusive lock — for callers already
  /// holding `mu_` (the CREATE VIEW path inside Execute).
  common::Status RegisterTableLocked(const std::string& name,
                                     storage::Relation relation);

  /// Appends the INSERT's literal rows to a registered base table after
  /// validating every row (arity + types, int→double promotion); all rows
  /// land or none do. Returns a one-row `rows_inserted` relation. Caller
  /// holds `mu_` exclusively.
  common::Result<storage::Relation> ExecuteInsertLocked(
      const sql::InsertStmt& insert);

  /// Bumps the named table's version and the catalog version. Caller holds
  /// `mu_` exclusively; `key` is already lowercased.
  void BumpVersionLocked(const std::string& key);

  EngineConfig config_;

  /// Guards catalog_/tables_/versions_: shared for query execution and all
  /// analysis entry points, exclusive for writes. See the class comment.
  mutable std::shared_mutex mu_;
  analysis::Catalog catalog_;
  std::map<std::string, storage::Relation> tables_;
  std::map<std::string, uint64_t> versions_;
  /// Rewrite counters (see TableRewrites); keys are lowercased.
  std::map<std::string, uint64_t> rewrites_;
  uint64_t catalog_version_ = 0;

  /// Retained converged clique states for warm starts. Internally locked —
  /// pure queries run under the shared lock yet capture state after an
  /// eligible run; shared_ptr values keep in-flight snapshots alive across
  /// concurrent replacement.
  mutable fixpoint::WarmStateStore warm_store_;
};

}  // namespace rasql::engine

#endif  // RASQL_ENGINE_RASQL_CONTEXT_H_
