#include "fixpoint/stage_plan.h"

#include <algorithm>
#include <string>
#include <utility>

#include "fixpoint/local_fixpoint.h"

namespace rasql::fixpoint {

using common::Result;
using common::Status;
using verify::AccessMode;
using verify::StageGraph;
using verify::StageKind;
using verify::StageNode;

namespace {

constexpr AccessMode kReadShared = AccessMode::kReadShared;
constexpr AccessMode kPartitionOwned = AccessMode::kPartitionOwned;
constexpr AccessMode kSplitSlotOwned = AccessMode::kSplitSlotOwned;

/// Joins the clique's view names for the graph note.
std::string ViewNames(const analysis::RecursiveClique& clique) {
  std::string out;
  for (const analysis::RecursiveView& view : clique.views) {
    if (!out.empty()) out += ", ";
    out += view.name;
  }
  return out;
}

}  // namespace

Result<StageGraph> PlanDistributedStages(
    const analysis::RecursiveClique& clique,
    const DistFixpointOptions& options,
    const runtime::RuntimeOptions& runtime, int num_partitions) {
  if (!EligibleForDistributed(clique)) {
    return Status::InvalidArgument(
        "clique is not eligible for distributed evaluation; EXPLAIN STAGES "
        "would dispatch it to the local evaluator");
  }
  RASQL_ASSIGN_OR_RETURN(DistOrchestration orch,
                         AnalyzeOrchestration(clique, options));

  StageGraph g;
  g.num_partitions = num_partitions;

  // Shared driver-side state the task closures touch — the same objects
  // the evaluator Claim()s on its live StageSpecs, by the same names.
  const int r_all = g.AddResource("all");
  const int r_delta = g.AddResource("delta");
  const int r_steps = g.AddResource("step-caches");
  const int r_copart =
      orch.copartitioned.empty() ? -1 : g.AddResource("coparted-base");
  const int c_delta_rows = g.AddCounter("delta-rows");
  const int s_failure = g.AddStatus("failure");

  // ---- Prologue: distribute base relations per the orchestration. ----
  for (const std::string& name : orch.copartitioned) {
    g.AddStage("partition-base:" + name, StageKind::kShuffleMap);
  }

  // ---- Warm start (DESIGN.md §14): the retained converged state is
  // absorbed into the partitions before the seed merge runs against it;
  // the seed stages then carry the appended-rows delta, not the base case.
  if (options.warm_start != nullptr) {
    const int r_warm = g.AddResource("warm-state");
    g.AddStage("warm-absorb", StageKind::kLocal);
    g.Claim(r_all, kPartitionOwned);
    g.Claim(r_warm, kReadShared);
  }

  // ---- Seed: each task evaluates its range of the base case on the base
  // pipelines bound driver-side (shared read-only), pre-aggregates and
  // scatters it; merge per partition. Submitted as one pipelined pair. ----
  const int ch_seed = g.AddChannel("seed-exchange");
  int group = 0;
  {
    const int r_base = g.AddResource("base-pipelines");
    StageNode& seed = g.AddStage("seed-base-case", StageKind::kShuffleMap);
    seed.output_channel = ch_seed;
    seed.status = s_failure;
    seed.group = group;
    g.Claim(r_base, kReadShared);
    StageNode& merge =
        g.AddStage("merge-base-case", StageKind::kShuffleReduce);
    merge.input_channel = ch_seed;
    merge.group = group;
    g.Claim(r_all, kPartitionOwned);
    g.Claim(r_delta, kPartitionOwned);
    ++group;
  }

  std::string note = "clique: " + ViewNames(clique);
  if (!orch.broadcast.empty()) {
    note += "\nbroadcast (no stage): ";
    for (size_t i = 0; i < orch.broadcast.size(); ++i) {
      if (i > 0) note += ", ";
      note += orch.broadcast[i];
    }
  }

  if (orch.decomposed) {
    // ---- Decomposed evaluation (Sec. 7.2): one stage, each partition
    // iterates to its own fixpoint with no cross-partition exchange. ----
    StageNode& node = g.AddStage("decomposed-fixpoint", StageKind::kLocal);
    node.counter = c_delta_rows;
    node.status = s_failure;
    g.Claim(r_all, kPartitionOwned);
    g.Claim(r_delta, kPartitionOwned);
    g.Claim(r_steps, kPartitionOwned);
    if (r_copart >= 0) g.Claim(r_copart, kReadShared);
    note += "\nmode: decomposed (Sec. 7.2) — single stage, no iteration";
  } else if (orch.combine_stages) {
    // ---- Combined reduce+map stages (Alg. 6): iteration i consumes the
    // channel iteration i-1 published and publishes the other one; the
    // driver Reset()s the about-to-be-written channel each round. Unrolled
    // three iterations so the template shows the ping-pong including the
    // first Reset-then-republish. ----
    const int ch_ping = g.AddChannel("iter-exchange[0]");
    const int ch_pong = g.AddChannel("iter-exchange[1]");
    {
      StageNode& first = g.AddStage("iter-1", StageKind::kShuffleMap);
      first.output_channel = ch_ping;
      first.status = s_failure;
      g.Claim(r_all, kReadShared);
      g.Claim(r_delta, kPartitionOwned);
      g.Claim(r_steps, kPartitionOwned);
      if (r_copart >= 0) g.Claim(r_copart, kReadShared);
    }
    const struct {
      const char* name;
      int in, out;
      bool reset_out;
    } iters[] = {{"iter-2", ch_ping, ch_pong, false},
                 {"iter-3", ch_pong, ch_ping, true}};
    for (const auto& it : iters) {
      StageNode& node = g.AddStage(it.name, StageKind::kCombined);
      node.input_channel = it.in;
      node.output_channel = it.out;
      node.counter = c_delta_rows;
      node.status = s_failure;
      if (it.reset_out) node.resets.push_back(it.out);
      g.Claim(r_all, kPartitionOwned);
      g.Claim(r_delta, kPartitionOwned);
      g.Claim(r_steps, kPartitionOwned);
      if (r_copart >= 0) g.Claim(r_copart, kReadShared);
    }
    note +=
        "\nmode: combined reduce+map (Alg. 6) — iter-2/iter-3 template "
        "repeats, alternating exchanges, until the delta is empty";
  } else {
    // ---- Plain DSN (Alg. 4/5): map-i/reduce-i per iteration over one
    // exchange, Reset() before every map after the first. Splittable maps
    // run as a morsel DAG (separate submissions); otherwise the pair is
    // pipelined. Unrolled twice to show the Reset-then-republish. ----
    const bool split = runtime.morsel_rows > 0 && orch.delta_splittable;
    const int ch_exchange = g.AddChannel("delta-exchange");
    int r_frozen = -1, r_sub = -1, r_slots = -1, r_sub_status = -1;
    if (split) {
      r_frozen = g.AddResource("frozen-delta");
      r_sub = g.AddResource("sub-plan");
      r_slots = g.AddResource("morsel-slots");
      r_sub_status = g.AddResource("morsel-status");
    }
    for (int i = 1; i <= 2; ++i) {
      const std::string suffix = "-" + std::to_string(i);
      StageNode& map = g.AddStage("map" + suffix, StageKind::kShuffleMap);
      map.output_channel = ch_exchange;
      map.status = s_failure;
      map.split = split;
      if (!split) map.group = group;
      if (i > 1) map.resets.push_back(ch_exchange);
      if (split) {
        g.Claim(r_frozen, kReadShared);
        g.Claim(r_sub, kReadShared);
        g.Claim(r_slots, kSplitSlotOwned);
        g.Claim(r_sub_status, kSplitSlotOwned);
      } else {
        g.Claim(r_delta, kPartitionOwned);
      }
      g.Claim(r_steps, kPartitionOwned);
      if (r_copart >= 0) g.Claim(r_copart, kReadShared);
      StageNode& reduce =
          g.AddStage("reduce" + suffix, StageKind::kShuffleReduce);
      reduce.input_channel = ch_exchange;
      reduce.counter = c_delta_rows;
      if (!split) reduce.group = group;
      g.Claim(r_all, kPartitionOwned);
      g.Claim(r_delta, kPartitionOwned);
      ++group;
    }
    note += split ? "\nmode: plain DSN (Alg. 4/5), morsel-split map DAG — "
                    "map/reduce template repeats until the delta is empty"
                  : "\nmode: plain DSN (Alg. 4/5), pipelined pairs — "
                    "map/reduce template repeats until the delta is empty";
  }
  g.note = std::move(note);
  return g;
}

Result<StageGraph> PlanLocalStages(const analysis::RecursiveClique& clique,
                                   const FixpointOptions& options) {
  StageGraph g;
  // The local evaluator's "partitions" are its hash slices; every phase
  // below runs one task per slice (or per view/branch) on the pool.
  g.num_partitions = std::max(1, options.local_partitions);
  std::string note = "clique: " + ViewNames(clique);

  if (!clique.IsRecursive()) {
    // One-shot evaluation, views in parallel; each task owns its slot.
    const int r_results = g.AddResource("result-slots");
    const int s_failure = g.AddStatus("failure");
    StageNode& node = g.AddStage("eval-views", StageKind::kLocal);
    node.status = s_failure;
    g.Claim(r_results, kPartitionOwned);
    g.note = std::move(note) + "\nmode: non-recursive, single evaluation";
    return g;
  }

  RASQL_ASSIGN_OR_RETURN(const FixpointMode mode,
                         ResolveLocalMode(clique, options));
  // Every unit of an iteration borrows its plan's loop-invariant steps —
  // join build sides with their hash tables, compiled filters and
  // projections — bound once per evaluation on the driver (DESIGN.md §18).
  const int r_build = g.AddResource("shared-build-sides");
  if (mode == FixpointMode::kSemiNaive) {
    // Phases of one EvaluateSemiNaive iteration (local_fixpoint.cc): the
    // frozen inputs are read-shared, morsel slots are split-slot-owned,
    // and every merge target is a partition-indexed slot.
    const int r_state = g.AddResource("state");
    const int r_delta = g.AddResource("delta");
    const int r_frozen = g.AddResource("frozen-inputs");
    const int r_slots = g.AddResource("morsel-slots");
    const int r_writes = g.AddResource("shuffle-writes");
    if (options.warm_start != nullptr) {
      // Warm start: load the retained converged state into the partition
      // slices before the seed delta merges against it (DESIGN.md §14).
      const int r_warm = g.AddResource("warm-state");
      g.AddStage("warm-absorb", StageKind::kLocal);
      g.Claim(r_state, kPartitionOwned);
      g.Claim(r_warm, kReadShared);
    }
    {
      g.AddStage("seed-merge", StageKind::kLocal);
      g.Claim(r_state, kPartitionOwned);
      g.Claim(r_delta, kPartitionOwned);
    }
    {
      StageNode& map = g.AddStage("iter-map", StageKind::kLocal);
      map.split = true;
      g.Claim(r_frozen, kReadShared);
      g.Claim(r_build, kReadShared);
      g.Claim(r_slots, kSplitSlotOwned);
    }
    {
      g.AddStage("iter-merge", StageKind::kLocal);
      g.Claim(r_slots, kReadShared);
      g.Claim(r_writes, kPartitionOwned);
    }
    {
      // Reduce task p moves out the slices addressed to it, one per
      // producer: column p of the shuffle writes, where iter-merge's map
      // task p owned row p. The same partition-owned claim covers both
      // only because iter-merge has finished before iter-reduce starts
      // (the local stages are barriered); pipelined, reduce p would race
      // every producer still writing its slice p.
      g.AddStage("iter-reduce", StageKind::kLocal);
      g.Claim(r_writes, kPartitionOwned);
      g.Claim(r_state, kPartitionOwned);
      g.Claim(r_delta, kPartitionOwned);
    }
    g.note = std::move(note) +
             "\nmode: local semi-naive (Alg. 3/5) — iter-* template "
             "repeats until the delta is empty";
    return g;
  }

  // Naive (Alg. 2): every branch reads the frozen X_n and fills its own
  // morsel slots; canonicalization writes one slot per view.
  const int r_state = g.AddResource("state");
  const int r_slots = g.AddResource("branch-slots");
  const int r_next = g.AddResource("next-state");
  {
    StageNode& branches = g.AddStage("naive-branches", StageKind::kLocal);
    branches.split = true;
    g.Claim(r_state, kReadShared);
    g.Claim(r_build, kReadShared);
    g.Claim(r_slots, kSplitSlotOwned);
  }
  {
    g.AddStage("naive-canonicalize", StageKind::kLocal);
    g.Claim(r_slots, kReadShared);
    g.Claim(r_next, kPartitionOwned);
  }
  g.note = std::move(note) +
           "\nmode: local naive (Alg. 2) — template repeats until the "
           "state stabilizes";
  return g;
}

}  // namespace rasql::fixpoint
