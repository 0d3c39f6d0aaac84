// perfbench — the benchmark binary that perfbench/run.py builds and runs.
//
//   perfbench --workload <analytics-dist|serve-read|serve-write>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints detail lines starting with '#', then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when an output check failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"
#include "workloads.h"

namespace perfbench {

void FillLayerDefaults(Metrics* m) {
  static const char* const kLayerMetrics[][2] = {
      {"sql.parse_us", "us"},
      {"analysis.analyze_us", "us"},
      {"plan.optimize_us", "us"},
      {"engine.plan_key_us", "us"},
      {"engine.insert_us", "us"},
      {"lint.lint_us", "us"},
      {"fixpoint.eval_ms", "ms"},
      {"fixpoint.iterations", "count"},
      {"fixpoint.delta_rows", "count"},
      {"fixpoint.plan_executions", "count"},
      {"fixpoint.warm_ratio", "ratio"},
      {"fixpoint.iterations_saved", "count"},
      {"fixpoint.seed_delta_rows", "count"},
      {"dist.stages", "count"},
      {"dist.shuffle_mb", "MB"},
      {"dist.remote_mb", "MB"},
      {"dist.broadcast_mb", "MB"},
      {"dist.task_compute_s", "s"},
      {"dist.critical_compute_s", "s"},
      {"dist.exec_tasks", "count"},
      {"dist.sim_s", "s"},
      {"runtime.utilization", "ratio"},
      {"runtime.cpu_ms", "ms"},
      {"physical.body_ms", "ms"},
      {"storage.format_ms", "ms"},
      {"storage.result_kb", "KB"},
      {"storage.table_mb", "MB"},
      {"server.result_hit_ratio", "ratio"},
      {"server.plan_hit_ratio", "ratio"},
      {"server.refreshes", "count"},
      {"server.evictions", "count"},
      {"server.admission_rejects", "count"},
      {"server.frame_us", "us"},
      {"server.overhead_ms", "ms"},
      {"client.hit_ms", "ms"},
      {"client.miss_ms", "ms"},
      {"client.refresh_ms", "ms"},
      {"client.write_ms", "ms"},
      {"gen.late_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  for (const auto& [name, unit] : kLayerMetrics) m->Set(name, 0, unit);
}

namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return have_workload && args->seconds > 0;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <analytics-dist|serve-read|"
                 "serve-write> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  Outcome out;
  if (args.workload == "analytics-dist") {
    out = RunAnalytics(args);
  } else if (args.workload == "serve-read") {
    out = RunServe(args, /*write=*/false);
  } else if (args.workload == "serve-write") {
    out = RunServe(args, /*write=*/true);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // A set-up that failed before its first op still counts as one attempt.
  out.attempted = std::max<int64_t>({out.attempted, out.failed, 1});

  std::string details = "{\"workload\": " + Quote(args.workload) +
                        ", \"seed\": " + std::to_string(args.seed) +
                        ", \"nproc\": " + std::to_string(HardwareThreads()) +
                        ", \"trace\": " + (args.trace ? "1" : "0");
  for (const auto& [key, value] : out.details) {
    details += ", " + Quote(key) + ": " + Quote(value);
  }
  details += "}";
  std::printf("# details %s\n", details.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed),
              out.metrics.ToJson().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
