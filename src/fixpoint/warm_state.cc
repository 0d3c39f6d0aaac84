#include "fixpoint/warm_state.h"

#include <utility>

namespace rasql::fixpoint {

using analysis::RecursiveView;
using common::Result;
using plan::LogicalPlan;
using plan::PlanKind;
using storage::Relation;

std::shared_ptr<const CliqueWarmState> WarmStateStore::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.state;
}

void WarmStateStore::Put(const std::string& key,
                         std::shared_ptr<const CliqueWarmState> state) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.state = std::move(state);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  lru_.push_front(key);
  entries_.emplace(key, Slot{std::move(state), lru_.begin()});
  while (entries_.size() > capacity_ && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
}

void WarmStateStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t WarmStateStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void CollectTableScans(const LogicalPlan& node,
                       std::map<std::string, int>* counts) {
  if (node.kind() == PlanKind::kTableScan) {
    ++(*counts)[static_cast<const plan::TableScanNode&>(node).table_name()];
  }
  for (const plan::PlanPtr& child : node.children()) {
    CollectTableScans(*child, counts);
  }
}

std::map<std::string, int> CollectViewTableScans(const RecursiveView& view) {
  std::map<std::string, int> counts;
  for (const plan::PlanPtr& p : view.base_plans) {
    CollectTableScans(*p, &counts);
  }
  for (const plan::PlanPtr& p : view.recursive_plans) {
    CollectTableScans(*p, &counts);
  }
  return counts;
}

bool WarmSeedCompatible(const RecursiveView& view,
                        const std::set<std::string>& changed) {
  const bool accumulates =
      view.aggregate == expr::AggregateFunction::kSum ||
      view.aggregate == expr::AggregateFunction::kCount;
  if (accumulates && changed.size() > 1) return false;
  auto plan_ok = [&](const LogicalPlan& p) {
    std::map<std::string, int> counts;
    CollectTableScans(p, &counts);
    for (const std::string& t : changed) {
      auto it = counts.find(t);
      if (it != counts.end() && it->second > 1) return false;
    }
    return true;
  };
  for (const plan::PlanPtr& p : view.base_plans) {
    if (!plan_ok(*p)) return false;
  }
  for (const plan::PlanPtr& p : view.recursive_plans) {
    if (!plan_ok(*p)) return false;
  }
  return true;
}

Result<Relation> EvaluateWarmSeed(const RecursiveView& view,
                                  const WarmStartInput& warm,
                                  const physical::ExecContext& base_ctx,
                                  FixpointStats* stats) {
  Relation seed(view.schema);
  const Relation* converged = warm.converged;
  auto seed_plan = [&](const LogicalPlan& p) -> common::Status {
    std::map<std::string, int> counts;
    CollectTableScans(p, &counts);
    // `deltas` is an ordered map, so changed tables are visited in a fixed
    // (lexicographic) order regardless of how the engine discovered them.
    for (const auto& [table, delta] : *warm.deltas) {
      if (counts.find(table) == counts.end()) continue;
      if (delta.empty()) continue;
      physical::ExecContext ctx = base_ctx;
      ctx.tables[table] = &delta;
      ctx.recursive_resolver =
          [converged](const plan::RecursiveRefNode&) -> const Relation* {
        return converged;
      };
      RASQL_ASSIGN_OR_RETURN(Relation rel, physical::Execute(p, ctx));
      ++stats->plan_executions;
      seed.AppendChunks(std::move(rel));
    }
    return common::Status::OK();
  };
  for (const plan::PlanPtr& p : view.base_plans) {
    RASQL_RETURN_IF_ERROR(seed_plan(*p));
  }
  for (const plan::PlanPtr& p : view.recursive_plans) {
    RASQL_RETURN_IF_ERROR(seed_plan(*p));
  }
  return seed;
}

}  // namespace rasql::fixpoint
