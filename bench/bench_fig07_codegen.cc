// Reproduces paper Figure 7 (Sec. 7.3, whole-stage code generation) on
// CC/REACH/SSSP, re-expressed for the one expression engine: the
// row-at-a-time interpreter (batch_rows = 0) against VecProgram batch mode
// (batch_rows = 1024), which runs filters as column-wise kernels and
// extracts join keys straight from the chunks. Both modes must reach the
// same answer in the same number of iterations, or the bench fails. Like
// the paper, the comparison is on the pure recursive-iteration compute,
// which is genuinely measured (not modeled) here.

#include "bench/bench_util.h"

namespace rasql::bench {
namespace {

constexpr size_t kBatchRows = 1024;

void Run() {
  PrintHeader("Figure 7: Effect of Code Generation (row vs batch)",
              "paper Fig. 7");
  PrintRow({"dataset", "query", "row", "batch", "speedup"});

  for (int64_t n : {int64_t{8} << 10, int64_t{16} << 10, int64_t{32} << 10,
                    int64_t{64} << 10}) {
    datagen::RmatOptions opt;
    opt.num_vertices = n;
    opt.edges_per_vertex = 10;
    opt.weighted = true;
    opt.seed = 7;
    std::map<std::string, storage::Relation> tables;
    tables.emplace("edge",
                   datagen::ToEdgeRelation(datagen::GenerateRmat(opt)));
    const std::string name = "RMAT-" + std::to_string(n >> 10) + "K";

    struct QuerySpec {
      const char* label;
      std::string sql;
    };
    const QuerySpec queries[] = {
        {"CC", kCcQuery},
        {"REACH", ReachQuery(0)},
        {"SSSP", SsspQuery(0)},
    };
    for (const QuerySpec& q : queries) {
      // Pure-compute comparison is noisy on a shared machine: take the
      // best of three runs for each configuration.
      auto best_of = [&](size_t batch_rows) {
        engine::EngineConfig config = RaSqlConfig();
        config.runtime.batch_rows = batch_rows;
        RunTiming best = RunEngine(config, tables, q.sql);
        for (int rep = 1; rep < 3; ++rep) {
          RunTiming t = RunEngine(config, tables, q.sql);
          if (t.compute_time < best.compute_time) best = t;
        }
        return best;
      };
      RunTiming row = best_of(0);
      RunTiming batch = best_of(kBatchRows);
      if (row.iterations != batch.iterations ||
          row.result != batch.result) {
        std::fprintf(stderr, "FAIL: %s %s: batch mode changed the answer\n",
                     name.c_str(), q.label);
        std::exit(1);
      }

      char speedup[16];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    row.compute_time / batch.compute_time);
      PrintRow({name, q.label, Fmt(row.compute_time),
                Fmt(batch.compute_time), speedup});
    }
  }
}

}  // namespace
}  // namespace rasql::bench

int main() {
  rasql::bench::Run();
  return 0;
}
