// The `rasql` interactive shell: load CSV tables, run RaSQL queries, show
// plans and statistics. The tool-level counterpart of the paper's
// spark-shell integration.
//
// Usage:
//   rasql [--distributed] [--workers N] [--threads N] [--async-shuffle]
//         [--morsel-rows=N] [--batch-rows=N] [--lint] [--werror-lint]
//         [--verify-stages] [--incremental] [script.sql]
//
// --threads=N runs the task closures of every distributed stage AND the
// local fixpoint path's partitioned semi-naive/naive evaluation on a
// work-stealing pool of N real threads (0 = one per hardware thread);
// query results and fixpoint stats are identical for any thread count.
// --async-shuffle pipelines each map→reduce stage pair: reduce tasks are
// released per published shuffle slice instead of waiting for a stage
// barrier. Results and simulated metrics are unchanged; wall time drops.
// --morsel-rows=N splits each partition's delta into N-row morsels that
// run as independent tasks (0 = whole-partition); results, fixpoint stats
// and modeled metrics are identical for any value.
// --batch-rows=N runs fused pipelines and the aggregate loop in vectorized
// sub-batches of at most N rows over the columnar chunks (0 = the
// row-at-a-time interpreter); results, fixpoint stats and modeled metrics
// are bit-identical for any value.
// --lint runs the static PreM/monotonicity analyzer before every query
// and refuses error-level queries; --werror-lint also refuses
// warning-level ones.
// --incremental retains each converged recursive clique's state and
// warm-starts the fixpoint from the appended rows after INSERTs into its
// base tables (lint-proven queries only; everything else recomputes cold).
// Warm results are bit-identical to cold ones (DESIGN.md §14).
//
// Dot-commands inside the shell:
//   .load <table> <file.csv>   register a CSV/TSV file as a table
//   .gen rmat <table> <n>      register an RMAT edge table (n vertices)
//   .tables                    list registered tables
//   .schema <table>            show a table's schema
//   .explain <query>           print the compiled plan
//   .stats                     fixpoint/cluster stats of the last query
//   .quit
// --verify-stages forces the static stage-graph verifier on (DESIGN.md
// §11) even in release builds; debug builds always verify.
//
// `EXPLAIN LINT <query>;` prints the static-analysis report without
// executing; `EXPLAIN STAGES <query>;` prints the verified stage graph
// the query's cliques would submit, also without executing. Anything
// else is executed as RaSQL (statements end with ';').

#include <csignal>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "datagen/graph_gen.h"
#include "engine/rasql_context.h"
#include "server/server.h"
#include "storage/csv.h"
#include "storage/result_format.h"

namespace rasql::tools {
namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  .load <table> <file>   load a CSV file as a table\n"
      "  .gen rmat <table> <n>  generate a weighted RMAT edge table\n"
      "  .tables                list tables\n"
      "  .schema <table>        show a table's schema\n"
      "  .explain <query>;      show the compiled plan\n"
      "  .stats                 stats of the last query\n"
      "  .help                  this text\n"
      "  .quit                  exit\n"
      "  EXPLAIN LINT <query>;  static PreM/monotonicity report\n"
      "  EXPLAIN STAGES <query>;  verified stage graph, no execution\n"
      "anything else runs as RaSQL (end statements with ';').\n");
}

class Shell {
 public:
  explicit Shell(engine::EngineConfig config,
                 storage::ResultFormat format = storage::ResultFormat::kText)
      : ctx_(std::move(config)), format_(format) {}

  /// The shell's engine context — `--serve` hands it to server::Server
  /// after the setup script ran.
  engine::RaSqlContext* context() { return &ctx_; }

  /// Processes one complete input (a dot-command or a SQL statement).
  /// Returns false when the shell should exit.
  bool Handle(const std::string& input) {
    if (input.empty()) return true;
    if (input[0] == '.') return HandleCommand(input);
    if (std::string rest; StripExplainPrefix(input, "LINT", &rest)) {
      auto report = ctx_.Lint(rest);
      if (!report.ok()) {
        ++num_errors_;
        std::printf("error: %s\n", report.status().ToString().c_str());
      } else {
        std::printf("%s", report->ToString().c_str());
      }
      return true;
    }
    if (std::string rest; StripExplainPrefix(input, "STAGES", &rest)) {
      auto stages = ctx_.ExplainStages(rest);
      if (!stages.ok()) {
        ++num_errors_;
        std::printf("error: %s\n", stages.status().ToString().c_str());
      } else {
        std::printf("%s", stages->c_str());
      }
      return true;
    }
    auto result = ctx_.Execute(input);
    if (!result.ok()) {
      ++num_errors_;
      std::printf("error: %s\n", result.status().ToString().c_str());
      return true;
    }
    // Non-blocking lint findings (warnings under --lint without
    // --werror-lint) still deserve eyeballs; surface them on stderr so
    // they don't corrupt piped query output.
    if (ctx_.config().lint_before_execute &&
        result->lint_report.engine.HasWarnings()) {
      std::fprintf(stderr, "%s", result->lint_report.ToString().c_str());
    }
    if (format_ == storage::ResultFormat::kText) {
      // Interactive default: a 40-row preview, not a data export.
      std::printf("%s", result->relation.ToString(40).c_str());
      std::printf("(%zu rows)\n", result->relation.size());
    } else {
      // --format=csv|json: machine-readable, every row, same writer the
      // server uses for RESULT frames (storage::FormatRelation).
      std::printf("%s",
                  storage::FormatRelation(result->relation, format_).c_str());
    }
    last_ = std::move(*result);
    return true;
  }

 private:
  /// Recognizes the `EXPLAIN <mode> <query>` prefix (case-insensitive,
  /// `mode` = LINT or STAGES); fills `rest` with the query that follows.
  static bool StripExplainPrefix(const std::string& input, const char* mode,
                                 std::string* rest) {
    const char* const kWords[] = {"EXPLAIN", mode};
    size_t pos = input.find_first_not_of(" \t\n");
    for (const char* word : kWords) {
      if (pos == std::string::npos) return false;
      const size_t len = std::strlen(word);
      if (input.size() - pos < len) return false;
      for (size_t i = 0; i < len; ++i) {
        if (std::toupper(static_cast<unsigned char>(input[pos + i])) !=
            word[i]) {
          return false;
        }
      }
      pos = input.find_first_not_of(" \t\n", pos + len);
    }
    *rest = pos == std::string::npos ? "" : input.substr(pos);
    return true;
  }

  bool HandleCommand(const std::string& input) {
    std::istringstream in(input);
    std::string cmd;
    in >> cmd;
    if (cmd == ".quit" || cmd == ".exit") return false;
    if (cmd == ".help") {
      PrintHelp();
    } else if (cmd == ".tables") {
      for (const std::string& name : tables_) std::printf("%s\n", name.c_str());
    } else if (cmd == ".load") {
      std::string table, file;
      in >> table >> file;
      if (table.empty() || file.empty()) {
        std::printf("usage: .load <table> <file>\n");
        return true;
      }
      storage::CsvOptions options;
      if (file.size() > 4 && file.substr(file.size() - 4) == ".tsv") {
        options.delimiter = '\t';
      }
      auto rel = storage::LoadCsv(file, options);
      if (!rel.ok()) {
        std::printf("error: %s\n", rel.status().ToString().c_str());
        return true;
      }
      std::printf("loaded %zu rows [%s]\n", rel->size(),
                  rel->schema().ToString().c_str());
      Register(table, std::move(*rel));
    } else if (cmd == ".gen") {
      std::string kind, table;
      int64_t n = 0;
      in >> kind >> table >> n;
      if (kind != "rmat" || table.empty() || n <= 1) {
        std::printf("usage: .gen rmat <table> <num_vertices>\n");
        return true;
      }
      datagen::RmatOptions opt;
      opt.num_vertices = n;
      opt.weighted = true;
      auto rel = datagen::ToEdgeRelation(datagen::GenerateRmat(opt));
      std::printf("generated %zu weighted edges\n", rel.size());
      Register(table, std::move(rel));
    } else if (cmd == ".schema") {
      std::string table;
      in >> table;
      const storage::Relation* rel = ctx_.FindTable(table);
      if (rel == nullptr) {
        std::printf("no table named '%s'\n", table.c_str());
      } else {
        std::printf("%s (%zu rows)\n", rel->schema().ToString().c_str(),
                    rel->size());
      }
    } else if (cmd == ".explain") {
      std::string rest;
      std::getline(in, rest);
      auto plan = ctx_.Explain(rest);
      if (!plan.ok()) {
        std::printf("error: %s\n", plan.status().ToString().c_str());
      } else {
        std::printf("%s", plan->c_str());
      }
    } else if (cmd == ".stats") {
      const auto& stats = last_.fixpoint_stats;
      std::printf(
          "iterations=%d delta_rows=%zu plans=%zu hash_builds=%zu "
          "semi_naive=%d decomposed=%d capped=%d\n",
          stats.iterations, stats.total_delta_rows, stats.plan_executions,
          stats.hash_builds, stats.used_semi_naive, stats.used_decomposed,
          stats.hit_iteration_limit);
      if (ctx_.config().incremental) {
        std::printf("warm_starts=%d seed_delta_rows=%zu iterations_saved=%d\n",
                    stats.warm_starts, stats.seed_delta_rows,
                    stats.iterations_saved);
      }
      if (ctx_.config().distributed) {
        std::printf("%s\n", last_.job_metrics.Summary().c_str());
      }
    } else {
      std::printf("unknown command %s (try .help)\n", cmd.c_str());
    }
    return true;
  }

  void Register(const std::string& table, storage::Relation rel) {
    (void)ctx_.DropTable(table);  // replace silently if present
    auto status = ctx_.RegisterTable(table, std::move(rel));
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    tables_.push_back(table);
  }

 public:
  /// Statements that failed (parse, analysis, lint refusal, execution).
  /// Script mode turns this into the process exit code so CI can gate on
  /// `rasql --werror-lint script.sql`.
  int num_errors() const { return num_errors_; }

 private:
  engine::RaSqlContext ctx_;
  const storage::ResultFormat format_;
  std::vector<std::string> tables_;
  /// The most recent successful execution, backing `.stats`.
  engine::ExecutionResult last_;
  int num_errors_ = 0;
};

sigset_t ShutdownSignalSet() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  return set;
}

/// Blocks SIGINT/SIGTERM process-wide for `--serve`. Must run before
/// Server::Start so every pool thread inherits the mask — an unblocked
/// thread receiving SIGINT would kill the process instead of letting
/// sigwait drive the clean shutdown.
void BlockShutdownSignals() {
  sigset_t set = ShutdownSignalSet();
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

int WaitForShutdownSignal() {
  sigset_t set = ShutdownSignalSet();
  int sig = 0;
  sigwait(&set, &sig);
  return sig;
}

int Main(int argc, char** argv) {
  engine::EngineConfig config;
  std::string script_path;
  storage::ResultFormat format = storage::ResultFormat::kText;
  bool serve = false;
  server::ServerOptions server_options;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--distributed") == 0) {
      config.distributed = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      config.cluster.num_workers = std::atoi(argv[++i]);
      config.cluster.num_partitions = config.cluster.num_workers * 2;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      config.runtime.num_threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      config.runtime.num_threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--async-shuffle") == 0) {
      config.runtime.async_shuffle = true;
    } else if (std::strncmp(argv[i], "--morsel-rows=", 14) == 0) {
      config.runtime.morsel_rows =
          static_cast<size_t>(std::atoll(argv[i] + 14));
    } else if (std::strncmp(argv[i], "--batch-rows=", 13) == 0) {
      config.runtime.batch_rows =
          static_cast<size_t>(std::atoll(argv[i] + 13));
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      config.lint_before_execute = true;
    } else if (std::strcmp(argv[i], "--werror-lint") == 0) {
      config.lint_before_execute = true;
      config.lint.werror = true;
    } else if (std::strcmp(argv[i], "--verify-stages") == 0) {
      config.runtime.verify_stages = true;
    } else if (std::strcmp(argv[i], "--incremental") == 0) {
      config.incremental = true;
    } else if (std::strncmp(argv[i], "--format=", 9) == 0) {
      auto parsed = storage::ParseResultFormat(argv[i] + 9);
      if (!parsed.ok()) {
        std::fprintf(stderr, "unknown --format '%s' (csv, json, text)\n",
                     argv[i] + 9);
        return 1;
      }
      format = *parsed;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strncmp(argv[i], "--port=", 7) == 0) {
      server_options.port = static_cast<uint16_t>(std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--port-file=", 12) == 0) {
      port_file = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: rasql [--distributed] [--workers N] [--threads N] "
          "[--async-shuffle] [--morsel-rows=N] [--batch-rows=N] [--lint] "
          "[--werror-lint] [--verify-stages] [--incremental] "
          "[--format=csv|json|text] "
          "[--serve [--port=N] [--port-file=PATH]] [script]\n");
      PrintHelp();
      return 0;
    } else {
      script_path = argv[i];
    }
  }

  Shell shell(config, format);
  std::istream* in = &std::cin;
  std::ifstream file;
  const bool interactive = script_path.empty() && !serve;
  if (!script_path.empty()) {
    file.open(script_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", script_path.c_str());
      return 1;
    }
    in = &file;
  }

  if (interactive) {
    std::printf("RaSQL shell — .help for commands\n");
  }
  if (!serve || !script_path.empty()) {
    std::string pending;
    std::string line;
    while (true) {
      if (interactive) std::printf(pending.empty() ? "rasql> " : "   ...> ");
      if (!std::getline(*in, line)) break;
      // Dot-commands are line-oriented; SQL accumulates until ';'.
      if (pending.empty() && !line.empty() && line[0] == '.') {
        if (!shell.Handle(line)) break;
        continue;
      }
      pending += line;
      pending += "\n";
      const auto semi = pending.find_last_not_of(" \t\n");
      if (semi != std::string::npos && pending[semi] == ';') {
        const bool keep_going = shell.Handle(pending);
        pending.clear();
        if (!keep_going) break;
      }
    }
    if (!pending.empty()) shell.Handle(pending);
  }

  if (serve) {
    // `--serve [--port=N]`: the script above seeded the catalog; serve it.
    if (shell.num_errors() > 0) {
      std::fprintf(stderr, "refusing to serve: setup script had errors\n");
      return 1;
    }
    BlockShutdownSignals();
    server::Server server(shell.context(), server_options);
    const auto status = server.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "cannot serve: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("RASQL_SERVER_PORT=%u\n", server.port());
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << "\n";
    }
    WaitForShutdownSignal();
    server.Stop();
    return 0;
  }
  // Interactive users saw the errors already; scripts gate on the code.
  return interactive ? 0 : (shell.num_errors() > 0 ? 1 : 0);
}

}  // namespace
}  // namespace rasql::tools

int main(int argc, char** argv) { return rasql::tools::Main(argc, argv); }
