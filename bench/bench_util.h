#ifndef RASQL_BENCH_BENCH_UTIL_H_
#define RASQL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "baselines/pregel/pregel.h"
#include "baselines/serial/serial_graph.h"
#include "baselines/sqlloop/sql_loop.h"
#include "common/timer.h"
#include "datagen/graph_gen.h"
#include "engine/rasql_context.h"

namespace rasql::bench {

/// All benches run on the paper's cluster shape scaled to one machine:
/// 15 workers, 30 partitions, 1 Gbit network. Dataset sizes are the
/// paper's divided by ~2000 (EXPERIMENTS.md documents the mapping).
inline dist::ClusterConfig PaperCluster() {
  dist::ClusterConfig config;
  config.num_workers = 15;
  config.num_partitions = 30;
  return config;
}

/// Calibration constants mapping our tight C++ CSR vertex loops to the
/// JVM-based systems' per-edge cost (documented substitution; the
/// *structural* differences — stages per superstep, RDD re-creation,
/// shuffles — are modeled directly).
inline constexpr double kGiraphComputeScale = 15.0;
inline constexpr double kGraphXComputeScale = 60.0;
/// GAP-Parallel (Table 3) = the measured serial work spread over the
/// paper's 8 cores at 70% parallel efficiency.
inline constexpr double kGapParallelCores = 8.0 * 0.7;

// ---- The benchmark queries (paper Sec. 4 / Sec. 8) ----

inline std::string SsspQuery(int64_t source) {
  return R"(WITH recursive path (Dst, min() AS Cost) AS
      (SELECT )" + std::to_string(source) + R"(, 0.0) UNION
      (SELECT edge.Dst, path.Cost + edge.Cost
       FROM path, edge WHERE path.Dst = edge.Src)
    SELECT Dst, Cost FROM path)";
}

inline std::string ReachQuery(int64_t source) {
  return R"(WITH recursive reach (Dst) AS
      (SELECT )" + std::to_string(source) + R"() UNION
      (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = edge.Src)
    SELECT Dst FROM reach)";
}

inline constexpr char kCcQuery[] =
    R"(WITH recursive cc (Src, min() AS CmpId) AS
      (SELECT Src, Src FROM edge) UNION
      (SELECT edge.Dst, cc.CmpId FROM cc, edge WHERE cc.Src = edge.Src)
    SELECT count(distinct CmpId) FROM cc)";

inline constexpr char kTcQuery[] =
    R"(WITH recursive tc (Src, Dst) AS
      (SELECT Src, Dst FROM edge) UNION
      (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
    SELECT count(*) FROM tc)";

inline constexpr char kSgQuery[] =
    R"(WITH recursive sg (X, Y) AS
      (SELECT a.Child, b.Child FROM rel a, rel b
       WHERE a.Parent = b.Parent AND a.Child <> b.Child) UNION
      (SELECT a.Child, b.Child FROM rel a, sg, rel b
       WHERE a.Parent = sg.X AND b.Parent = sg.Y)
    SELECT count(*) FROM sg)";

inline constexpr char kDeliveryQuery[] =
    R"(WITH recursive waitfor(Part, max() as Days) AS
      (SELECT Part, Days FROM basic) UNION
      (SELECT assbl.Part, waitfor.Days FROM assbl, waitfor
       WHERE assbl.Spart = waitfor.Part)
    SELECT count(*) FROM waitfor)";

inline constexpr char kManagementQuery[] =
    R"(WITH recursive empCount (Mgr, count() AS Cnt) AS
      (SELECT report.Emp, 1 FROM report) UNION
      (SELECT report.Mgr, empCount.Cnt FROM empCount, report
       WHERE empCount.Mgr = report.Emp)
    SELECT count(*) FROM empCount)";

inline constexpr char kMlmQuery[] =
    R"(WITH recursive bonus(M, sum() as B) AS
      (SELECT M, P*0.1 FROM sales) UNION
      (SELECT sponsor.M1, bonus.B*0.5 FROM bonus, sponsor
       WHERE bonus.M = sponsor.M2)
    SELECT count(*) FROM bonus)";

// ---- Run helpers ----

struct RunTiming {
  double sim_time = 0;   ///< cost-model makespan (the headline number)
  double wall_time = 0;  ///< this machine's wall clock
  double compute_time = 0;
  int stages = 0;
  int iterations = 0;
  size_t shuffle_bytes = 0;
  size_t remote_bytes = 0;
  int64_t result = 0;  ///< first int value of the (usually count) result
};

/// Runs a query on a configured engine over the given tables.
inline RunTiming RunEngine(engine::EngineConfig config,
                           const std::map<std::string, storage::Relation>&
                               tables,
                           const std::string& query) {
  engine::RaSqlContext ctx(std::move(config));
  for (const auto& [name, rel] : tables) {
    auto status = ctx.RegisterTable(name, rel);
    if (!status.ok()) {
      std::fprintf(stderr, "register %s: %s\n", name.c_str(),
                   status.ToString().c_str());
      std::abort();
    }
  }
  common::Timer timer;
  auto result = ctx.Execute(query);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  RunTiming timing;
  timing.wall_time = timer.ElapsedSeconds();
  timing.sim_time = result->job_metrics.TotalSimTime();
  timing.compute_time = result->job_metrics.TotalComputeTime();
  timing.stages = result->job_metrics.num_stages();
  timing.shuffle_bytes = result->job_metrics.TotalShuffleBytes();
  timing.remote_bytes = result->job_metrics.TotalRemoteBytes();
  timing.iterations = result->fixpoint_stats.iterations;
  const storage::Relation& rel = result->relation;
  if (!rel.empty() && rel.row(0).width() > 0 &&
      rel.row(0)[0].type() == storage::ValueType::kInt64) {
    timing.result = rel.row(0)[0].AsInt();
  }
  return timing;
}

/// RaSQL with every optimization on (the paper's default configuration).
inline engine::EngineConfig RaSqlConfig() {
  engine::EngineConfig config;
  config.distributed = true;
  config.cluster = PaperCluster();
  return config;
}

/// BigDatalog profile: SetRDD-style state but without RaSQL's stage
/// combination and decomposed plans (the architecture gap the paper credits
/// for its improvements over BigDatalog, Sec. 9). Expressions evaluate
/// through the same engine in every profile.
inline engine::EngineConfig BigDatalogConfig() {
  engine::EngineConfig config = RaSqlConfig();
  config.dist_fixpoint.combine_stages = false;
  config.dist_fixpoint.decomposed =
      fixpoint::DistFixpointOptions::Decomposed::kOff;
  return config;
}

/// Myria profile: very low per-stage overhead (fast on small inputs) but a
/// less efficient communication layer (the paper's explanation for its
/// poor scaling, Sec. 8.1).
inline engine::EngineConfig MyriaConfig() {
  engine::EngineConfig config = RaSqlConfig();
  config.dist_fixpoint.combine_stages = false;
  config.dist_fixpoint.decomposed =
      fixpoint::DistFixpointOptions::Decomposed::kOff;
  config.cluster.per_stage_overhead_sec = 0.002;
  config.cluster.per_task_overhead_sec = 0.0002;
  // A fragile communication layer and per-tuple processing overheads: the
  // paper's explanation for Myria lagging as data grows.
  config.cluster.network_bytes_per_sec = 125.0e6 / 12.0;
  config.cluster.compute_scale = 3.0;
  return config;
}

/// Vertex-centric baseline (Giraph / GraphX profile) on the same cluster.
inline RunTiming RunPregelSystem(const datagen::Graph& graph,
                                 baselines::PregelAlgorithm algorithm,
                                 baselines::SystemProfile profile,
                                 int64_t source = 0) {
  dist::ClusterConfig config = PaperCluster();
  config.compute_scale = profile == baselines::SystemProfile::kGiraph
                             ? kGiraphComputeScale
                             : kGraphXComputeScale;
  dist::Cluster cluster(config);
  baselines::PregelOptions options;
  options.profile = profile;
  options.source = source;
  common::Timer timer;
  baselines::PregelResult result =
      baselines::RunPregel(graph, algorithm, options, &cluster);
  RunTiming timing;
  timing.wall_time = timer.ElapsedSeconds();
  timing.sim_time = cluster.metrics().TotalSimTime();
  timing.compute_time = cluster.metrics().TotalComputeTime();
  timing.stages = cluster.metrics().num_stages();
  timing.iterations = result.supersteps;
  timing.result = static_cast<int64_t>(result.NumReached());
  return timing;
}

/// Measured single-threaded baseline (GAP-serial role).
inline double RunGapSerial(const datagen::Graph& graph,
                           baselines::PregelAlgorithm algorithm,
                           int64_t source = 0) {
  common::Timer timer;
  baselines::Csr csr = baselines::Csr::Build(graph);
  // `volatile X += v` is deprecated in C++20; read-modify-write spelled
  // out keeps the optimizer from discarding the computation.
  volatile int64_t sink = 0;
  switch (algorithm) {
    case baselines::PregelAlgorithm::kReach:
      sink = sink + baselines::SerialBfs(csr, source)[0];
      break;
    case baselines::PregelAlgorithm::kConnectedComponents:
      sink = sink + baselines::SerialCcLabelProp(csr)[0];
      break;
    case baselines::PregelAlgorithm::kSssp:
      sink = sink +
             static_cast<int64_t>(baselines::SerialSssp(csr, source)[0]);
      break;
  }
  (void)sink;
  return timer.ElapsedSeconds();
}

// ---- Output helpers: every harness prints a self-describing table. ----

inline void PrintHeader(const std::string& title,
                        const std::string& paper_ref) {
  std::printf("\n================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s; sizes scaled per EXPERIMENTS.md)\n",
              paper_ref.c_str());
  std::printf("================================================\n");
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline std::string Fmt(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  return buf;
}

// ---- JSON artifacts: machine-readable bench records (BENCH_*.json). ----

/// Minimal insertion-ordered JSON object writer. Values are rendered
/// eagerly; nest objects/arrays with Raw + Array. Covers exactly what the
/// bench artifacts need — not a general serializer.
class JsonEmitter {
 public:
  void Number(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, buf);
  }

  void Integer(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }

  void Text(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, Quote(value));
  }

  /// Inserts pre-rendered JSON verbatim (a nested object or array).
  void Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }

  static std::string Array(const std::vector<std::string>& elements) {
    std::string out = "[";
    for (size_t i = 0; i < elements.size(); ++i) {
      if (i > 0) out += ", ";
      out += elements[i];
    }
    out += "]";
    return out;
  }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

  /// Writes the object (plus trailing newline) to `path`; false on error.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string text = ToString() + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += "\"";
    return out;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Parses `--json` / `--json=path` from a bench's argv. Returns the output
/// path (default_path when the flag carries no value) or "" when the flag
/// is absent and the bench should stay table-only.
inline std::string JsonPathFromArgs(int argc, char** argv,
                                    const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") return default_path;
    if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
  }
  return "";
}

}  // namespace rasql::bench

#endif  // RASQL_BENCH_BENCH_UTIL_H_
