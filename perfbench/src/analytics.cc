// analytics-dist: a closed loop with one query in flight, running the
// paper's query families (REACH, SSSP, CC, TC, MLM) through
// RaSqlContext::Execute on the distributed engine (15 workers, 30
// partitions) with one runtime thread per hardware thread.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/serial/serial_graph.h"
#include "engine/rasql_context.h"
#include "layers.h"
#include "perfbench.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rasql::engine::EngineConfig;
using rasql::engine::RaSqlContext;
using rasql::storage::Relation;

constexpr int64_t kRmatVertices = 32768;
constexpr int64_t kRmatDegree = 10;
constexpr int64_t kGridSide = 35;
constexpr int64_t kTreeNodes = 80000;
constexpr size_t kHubs = 64;
constexpr int kSetupRepetitions = 3;

/// The paper's distributed configuration: every knob at its default except
/// the cluster shape and the runtime thread count.
EngineConfig DistributedConfig() {
  EngineConfig config;
  config.distributed = true;
  config.cluster.num_workers = 15;
  config.cluster.num_partitions = 30;
  config.runtime.num_threads = HardwareThreads();
  return config;
}

/// The tables plus the oracle answers they imply.
struct Inputs {
  Tables tables;
  rasql::baselines::Csr csr;
  std::vector<int64_t> hubs;
  int64_t components = 0;
  Relation mlm_expected;  ///< MLM by the local row interpreter
  std::map<int64_t, std::vector<int64_t>> bfs;
  std::map<int64_t, std::vector<double>> sssp;

  const std::vector<int64_t>& Bfs(int64_t source) {
    auto it = bfs.find(source);
    if (it == bfs.end()) {
      it = bfs.emplace(source, rasql::baselines::SerialBfs(csr, source)).first;
    }
    return it->second;
  }
  const std::vector<double>& Sssp(int64_t source) {
    auto it = sssp.find(source);
    if (it == sssp.end()) {
      it = sssp.emplace(source, rasql::baselines::SerialSssp(csr, source))
               .first;
    }
    return it->second;
  }
};

Inputs MakeInputs() {
  Inputs in;
  in.tables = MakeTables(kRmatVertices, kRmatDegree, kGridSide, kTreeNodes);
  in.csr = rasql::baselines::Csr::Build(in.tables.rmat);
  in.hubs = Hubs(in.tables.rmat, kHubs);
  in.components = ComponentCount(in.tables.sym);
  in.mlm_expected = LocalMlm(in.tables);
  return in;
}

struct Query {
  Family family;
  int64_t source = -1;  ///< REACH/SSSP only
  std::string sql;
};

/// Checks one family's result against its oracle.
bool Correct(const Query& q, const Relation& rel, Inputs* in) {
  switch (q.family) {
    case kReach: return ReachMatches(rel, in->Bfs(q.source));
    case kSssp: return SsspMatches(rel, in->Sssp(q.source));
    case kCc: return ScalarInt(rel) == in->components;
    case kTc: return ScalarInt(rel) == GridClosureSize(kGridSide);
    case kMlm: return BonusMatches(rel, in->mlm_expected);
    default: return false;
  }
}

/// The op sequence: rounds over the five families, REACH/SSSP from
/// seed-drawn hub sources.
class QueryStream {
 public:
  QueryStream(const std::vector<int64_t>& hubs, uint64_t seed)
      : hubs_(hubs), rng_(seed ^ 0x5eed0a11ULL) {}

  Query Next() {
    Query q;
    q.family = static_cast<Family>(next_++ % kFamilies);
    switch (q.family) {
      case kReach:
        q.source = hubs_[rng_.Below(hubs_.size())];
        q.sql = ReachQuery(q.source);
        break;
      case kSssp:
        q.source = hubs_[rng_.Below(hubs_.size())];
        q.sql = SsspQuery(q.source);
        break;
      case kCc: q.sql = kCcQuery; break;
      case kTc: q.sql = kTcQuery; break;
      default: q.sql = kMlmQuery; break;
    }
    return q;
  }

 private:
  const std::vector<int64_t>& hubs_;
  Rng rng_;
  int64_t next_ = 0;
};

std::unique_ptr<RaSqlContext> NewContext(const Inputs& in) {
  auto ctx = std::make_unique<RaSqlContext>(DistributedConfig());
  for (const auto& [name, rel] : in.tables.relations) {
    const auto status = ctx->RegisterTable(name, rel);
    if (!status.ok()) {
      std::fprintf(stderr, "register %s: %s\n", name.c_str(),
                   status.ToString().c_str());
      return nullptr;
    }
  }
  return ctx;
}

double TableMb(const Inputs& in) {
  size_t bytes = 0;
  for (const auto& [name, rel] : in.tables.relations) bytes += rel.ByteSize();
  return bytes / 1e6;
}

}  // namespace

Outcome RunAnalytics(const Args& args) {
  Outcome out;
  Inputs in = MakeInputs();
  if (in.mlm_expected.empty()) {
    out.Fail("MLM oracle");
    return out;
  }
  QueryStream stream(in.hubs, args.seed);

  // ---- Set-up, repeated for its median: load the tables into a fresh
  // context and run one pass per family, outside the timed loop, so lazy
  // state is built before timing. ----
  std::unique_ptr<RaSqlContext> ctx;
  std::vector<double> setup_seconds;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    ctx.reset();
    const Clock::time_point start = Clock::now();
    ctx = NewContext(in);
    if (ctx == nullptr) {
      out.Fail("context set-up");
      return out;
    }
    std::vector<std::pair<Query, Relation>> warm;
    for (int f = 0; f < kFamilies; ++f) {
      const Query q = stream.Next();
      auto result = ctx->Execute(q.sql);
      ++out.attempted;
      if (!result.ok()) {
        out.Fail(std::string("warm-up ") + kFamilyNames[q.family] + ": " +
                 result.status().ToString());
        continue;
      }
      warm.emplace_back(q, std::move(result->relation));
    }
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    // Checked after the clock stops: the oracles are not set-up work.
    for (const auto& [q, rel] : warm) {
      if (!Correct(q, rel, &in)) {
        out.Fail(std::string("warm-up ") + kFamilyNames[q.family] +
                 " result diverges");
      }
    }
  }

  const int threads = DistributedConfig().runtime.num_threads;
  out.details["engine_threads"] = std::to_string(threads);
  out.details["cluster"] = "15 workers / 30 partitions";

  Tracer tracer;
  Tracer* trace = args.trace ? &tracer : nullptr;
  const TableMap tables = [&] {
    TableMap map;
    for (const auto& [name, rel] : in.tables.relations) map[name] = &rel;
    return map;
  }();
  const rasql::analysis::Catalog catalog = CatalogOf(tables);

  // ---- Timed closed loop. ----
  std::vector<double> latency_ms[kFamilies];
  std::vector<double> all_ms;
  double busy_seconds = 0;
  // Traced-run accumulators.
  std::vector<double> iterations, delta_rows, plan_executions, stages,
      shuffle_mb, remote_mb, broadcast_mb, task_s, critical_s, exec_tasks,
      sim_s, cpu_ms, result_kb;
  double task_total = 0;
  double eval_thread_total = 0;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  int64_t op = 0;
  while (Clock::now() < deadline) {
    const Query q = stream.Next();
    ++out.attempted;
    const Clock::time_point start = Clock::now();
    auto result = ctx->Execute(q.sql);
    const double seconds = SecondsBetween(start, Clock::now());
    if (!result.ok()) {
      out.Fail(std::string(kFamilyNames[q.family]) + ": " +
               result.status().ToString());
      continue;
    }
    if (!Correct(q, result->relation, &in)) {
      out.Fail(std::string(kFamilyNames[q.family]) + " result diverges");
      continue;
    }
    latency_ms[q.family].push_back(seconds * 1e3);
    all_ms.push_back(seconds * 1e3);
    busy_seconds += seconds;
    if (trace == nullptr) continue;

    // Traced: the same query again, layer by layer, and the replay's rows
    // must equal Execute's so the replay cannot drift from the engine.
    const int root = tracer.Begin("op", op);
    auto driven = DriveQuery(q.sql, ctx->config(), tables, catalog, trace, op);
    tracer.End(root);
    if (!driven.ok() ||
        !rasql::storage::SameBag(driven->relation, result->relation)) {
      out.Fail(std::string("layer replay of ") + kFamilyNames[q.family] +
               " diverges from Execute");
      ++op;
      continue;
    }
    const rasql::dist::JobMetrics& m = driven->metrics;
    iterations.push_back(driven->stats.iterations);
    delta_rows.push_back(static_cast<double>(driven->stats.total_delta_rows));
    plan_executions.push_back(
        static_cast<double>(driven->stats.plan_executions));
    stages.push_back(m.num_stages());
    shuffle_mb.push_back(m.TotalShuffleBytes() / 1e6);
    remote_mb.push_back(m.TotalRemoteBytes() / 1e6);
    broadcast_mb.push_back(m.broadcast_bytes / 1e6);
    double critical = 0;
    double tasks = 0;
    for (const rasql::dist::StageMetrics& stage : m.stages) {
      critical += stage.max_worker_compute_sec;
      tasks += stage.num_exec_tasks;
    }
    task_s.push_back(m.TotalComputeTime());
    critical_s.push_back(critical);
    exec_tasks.push_back(tasks);
    sim_s.push_back(m.TotalSimTime());
    cpu_ms.push_back(driven->cpu_seconds * 1e3);
    result_kb.push_back(driven->body.size() / 1e3);
    task_total += m.TotalComputeTime();
    eval_thread_total += driven->fixpoint_seconds * threads;
    ++op;
  }

  if (trace == nullptr) {
    for (int f = 0; f < kFamilies; ++f) {
      out.metrics.Set(std::string(kFamilyNames[f]) + ".p50_ms",
                      Median(latency_ms[f]), "ms");
      out.details[std::string(kFamilyNames[f]) + ".samples"] =
          std::to_string(latency_ms[f].size());
    }
    // Every query here computes a fixpoint.
    out.metrics.Set("compute.p50_ms", Median(all_ms), "ms");
    double percentile = 0;
    out.details["tail_ms"] = std::to_string(Tail(all_ms, &percentile));
    out.details["tail_percentile"] = std::to_string(percentile);
    out.details["samples"] = std::to_string(all_ms.size());
    out.metrics.Set("max_qps",
                    busy_seconds > 0 ? all_ms.size() / busy_seconds : 0,
                    "1/s");
    out.metrics.Set("setup_s", Median(setup_seconds), "s");
    out.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  // ---- Per-layer metrics from the spans and the engine's counters. ----
  auto us = [&](const char* span) {
    return Median(tracer.SelfSeconds(span)) * 1e6;
  };
  auto ms = [&](const char* span) {
    return Median(tracer.SelfSeconds(span)) * 1e3;
  };
  std::vector<double> eval_ms;
  for (const auto& [id, seconds] : tracer.SelfSecondsByOp("fixpoint.eval")) {
    eval_ms.push_back(seconds * 1e3);
  }
  // The traced replay's wall time against the untraced Execute of the
  // same queries: the tracing overhead.
  double replay_total = 0;
  for (const char* span : {"sql.parse", "analysis.analyze", "plan.optimize",
                           "fixpoint.eval", "physical.body", "storage.format",
                           "op"}) {
    for (double s : tracer.SelfSeconds(span)) replay_total += s;
  }
  Metrics& lm = out.metrics;
  FillLayerDefaults(&lm);
  lm.Set("sql.parse_us", us("sql.parse"), "us");
  lm.Set("analysis.analyze_us", us("analysis.analyze"), "us");
  lm.Set("plan.optimize_us", us("plan.optimize"), "us");
  lm.Set("fixpoint.eval_ms", Median(eval_ms), "ms");
  lm.Set("fixpoint.iterations", Mean(iterations), "count");
  lm.Set("fixpoint.delta_rows", Mean(delta_rows), "count");
  lm.Set("fixpoint.plan_executions", Mean(plan_executions), "count");
  lm.Set("dist.stages", Mean(stages), "count");
  lm.Set("dist.shuffle_mb", Mean(shuffle_mb), "MB");
  lm.Set("dist.remote_mb", Mean(remote_mb), "MB");
  lm.Set("dist.broadcast_mb", Mean(broadcast_mb), "MB");
  lm.Set("dist.task_compute_s", Mean(task_s), "s");
  lm.Set("dist.critical_compute_s", Mean(critical_s), "s");
  lm.Set("dist.exec_tasks", Mean(exec_tasks), "count");
  lm.Set("dist.sim_s", Mean(sim_s), "s");
  lm.Set("runtime.utilization",
         eval_thread_total > 0 ? task_total / eval_thread_total : 0, "ratio");
  lm.Set("runtime.cpu_ms", Median(cpu_ms), "ms");
  lm.Set("physical.body_ms", ms("physical.body"), "ms");
  lm.Set("storage.format_ms", ms("storage.format"), "ms");
  lm.Set("storage.result_kb", Mean(result_kb), "KB");
  lm.Set("storage.table_mb", TableMb(in), "MB");
  lm.Set("trace.overhead_pct",
         busy_seconds > 0 ? 100.0 * (replay_total - busy_seconds) / busy_seconds
                          : 0,
         "%");
  out.details["traced_ops"] = std::to_string(op);
  if (!tracer.WriteJsonl(args.trace_dir + "/analytics-dist.seed" +
                         std::to_string(args.seed) + ".spans.jsonl")) {
    std::fprintf(stderr, "warning: could not write the span file\n");
  }
  return out;
}

}  // namespace perfbench
