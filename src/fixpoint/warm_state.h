#ifndef RASQL_FIXPOINT_WARM_STATE_H_
#define RASQL_FIXPOINT_WARM_STATE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzed_query.h"
#include "common/status.h"
#include "fixpoint/fixpoint_options.h"
#include "physical/executor.h"
#include "storage/relation.h"

namespace rasql::fixpoint {

/// Warm-start fixpoint maintenance (DESIGN.md §14): the engine retains each
/// converged recursive clique's state and, when every write since that run
/// was an append (`INSERT`), re-enters the semi-naive loop with the new
/// tuples as the seed delta instead of recomputing from scratch. This
/// header holds the retained-state store plus the helpers shared by the
/// engine's eligibility gate and both evaluators' seed paths.

/// Where one base table stood when a clique's state was captured.
struct TableMark {
  /// TableVersion at capture time — any write bumps it.
  uint64_t version = 0;
  /// Rewrite counter at capture time — bumped only by RegisterTable /
  /// DropTable (CREATE VIEW / CREATE TABLE / DROP), never by INSERT. A
  /// version mismatch with an equal rewrite count means every intervening
  /// write was an append, so rows `[rows, current_size)` are the delta.
  uint64_t rewrites = 0;
  /// Row count at capture time.
  size_t rows = 0;
};

/// One clique's retained converged state.
struct CliqueWarmState {
  /// The converged relation of the clique's single view, in canonical
  /// (sorted) order — the exact bytes a cold run returns.
  storage::Relation converged;
  /// Marks of every base table the clique's plans scan.
  std::map<std::string, TableMark> marks;
  /// Iterations of the original cold run, for the iterations_saved stat.
  int cold_iterations = 0;
};

/// Thread-safe LRU store of retained clique states, keyed on the
/// normalized plan rendering plus a clique ordinal — the same plan identity
/// the server's ResultCache keys on, minus the version vector (versions
/// live in the marks so a lookup can distinguish "fresh", "append-only
/// stale" and "rewritten"). Values are shared_ptr-to-const: a warm run
/// keeps its snapshot alive while concurrent queries replace the entry.
class WarmStateStore {
 public:
  explicit WarmStateStore(size_t capacity = 32) : capacity_(capacity) {}

  std::shared_ptr<const CliqueWarmState> Lookup(const std::string& key);
  void Put(const std::string& key,
           std::shared_ptr<const CliqueWarmState> state);
  void Clear();
  size_t size() const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  /// key -> (state, position in lru_), most-recent at the front of lru_.
  struct Slot {
    std::shared_ptr<const CliqueWarmState> state;
    std::list<std::string>::iterator lru_pos;
  };
  std::map<std::string, Slot> entries_;
  std::list<std::string> lru_;
};

/// Counts how many times each table is scanned under `node`. Names are the
/// canonical (lowercase) names the analyzer bound.
void CollectTableScans(const plan::LogicalPlan& node,
                       std::map<std::string, int>* counts);

/// Union of CollectTableScans over every base and recursive plan of `view`.
std::map<std::string, int> CollectViewTableScans(
    const analysis::RecursiveView& view);

/// True when `view`'s plan structure admits an exact warm seed against the
/// given set of changed (append-only) tables:
///   - every plan scans each changed table at most once — the seed binds a
///     changed table to its delta by name, so a plan scanning it twice
///     would only see (new, new) tuple pairs and silently miss (new, old);
///   - for the accumulating aggregates (sum/count) at most one table
///     changed, so no new derivation is seeded twice (for the idempotent
///     min/max/set heads double-seeding is harmless, cross-changed-table
///     derivations are covered by evaluating each changed table against
///     the full contents of the others).
/// The aggregate-class gate itself (PreM min/max / monotone count / plain
/// monotone RA only, no float sums) is the engine's job — this function
/// only checks plan structure.
bool WarmSeedCompatible(const analysis::RecursiveView& view,
                        const std::set<std::string>& changed);

/// Evaluates the warm seed delta on the driver: for every changed table t
/// and every plan (base or recursive) that scans t, runs the plan with t
/// bound to its delta rows, every other table bound to its current (full)
/// contents, and every recursive reference bound to the converged state.
/// The concatenation — plans in declaration order, changed tables in
/// lexicographic order within a plan — is deterministic, so warm results
/// stay bit-identical across thread counts like everything downstream. The
/// plans' chunks are concatenated into one relation with the view's schema.
common::Result<storage::Relation> EvaluateWarmSeed(
    const analysis::RecursiveView& view, const WarmStartInput& warm,
    const physical::ExecContext& base_ctx, FixpointStats* stats);

}  // namespace rasql::fixpoint

#endif  // RASQL_FIXPOINT_WARM_STATE_H_
