// Shared pieces of the repository benchmark: arguments, the metric sink,
// the span tracer, latency statistics, the seeded inputs and the query
// families. Every workload drives the program only through its public
// entry points (engine::RaSqlContext, server::Server / server::Client and,
// in the traced run, each layer's own functions).

#ifndef RASQL_PERFBENCH_PERFBENCH_H_
#define RASQL_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "datagen/graph_gen.h"
#include "storage/relation.h"

namespace perfbench {

namespace datagen = rasql::datagen;
using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string trace_dir = ".";
};

/// Insertion-ordered metric sink: name -> (value, unit).
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// What one workload run reports back to main().
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  /// Extra key/value facts printed on the detail line (percentiles used,
  /// sample counts, thread counts, validity flags).
  std::map<std::string, std::string> details;

  /// Records an output-check failure: the op counts as failed and the run
  /// as incorrect. `what` goes to stderr.
  void Fail(const std::string& what);
};

/// In-memory span recorder for the traced run. Single-threaded: spans nest
/// by a stack, so a span's parent is the innermost span open when it began.
/// Spans are written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t op = -1;
  };

  int Begin(const std::string& name, int64_t op);
  void End(int id);
  /// Records an already-timed span (e.g. a client call timed on another
  /// thread) as a root span.
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int64_t op);

  /// Duration of each span called `name` minus the time its children cover.
  std::vector<double> SelfSeconds(const std::string& name) const;
  /// Self seconds per op: the sum over every span of `name` in that op.
  std::map<int64_t, double> SelfSecondsByOp(const std::string& name) const;
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t Now() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t op)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- Statistics ----

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Mean of the values between the first and third quartile (all of them
/// when there are fewer than four).
double InterquartileMean(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest value. `percentile` receives that percentile (0-100).
double Tail(std::vector<double> values, double* percentile);

/// Median of each `window_s` slice of (scheduled second, latency) samples,
/// and the median over the slices, so a passing disturbance moves few
/// slices.
double WindowedMedian(const std::vector<std::pair<double, double>>& samples,
                      double window_s);

// ---- Process measurements ----

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();
/// CPU seconds this process has used, all threads.
double ProcessCpuSeconds();
/// Hardware threads of this machine (>= 1).
int HardwareThreads();

// ---- Seeded inputs ----

/// Generator seed of every table. Tables are the same in every run, so runs
/// compare like with like; the run's --seed draws what is asked of them
/// (query sources, the op order, the inserted edges).
inline constexpr uint64_t kDataSeed = 42;

/// SplitMix64: the benchmark's own generator, so input sequences depend
/// only on the seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// The `count` vertices of highest out-degree (ties: lower id first).
std::vector<int64_t> Hubs(const datagen::Graph& graph, size_t count);

/// The tables every workload registers, from kDataSeed: `edge` (RMAT with
/// integer weights >= 1, so SSSP distances are exact sums), `uedge` (its
/// edges both ways, unweighted), `grid` ((side+1)^2 vertices, edges right
/// and down) and `sponsor`/`sales` (a tree of at most `tree_nodes`).
struct Tables {
  datagen::Graph rmat;
  datagen::Graph sym;
  std::map<std::string, rasql::storage::Relation> relations;
};
Tables MakeTables(int64_t vertices, int64_t edges_per_vertex,
                  int64_t grid_side, int64_t tree_nodes);

/// The MLM query's result on the local row interpreter over `tables`.
rasql::storage::Relation LocalMlm(const Tables& tables);

// ---- Query families ----

enum Family { kReach, kSssp, kCc, kTc, kMlm, kFamilies };
inline constexpr const char* kFamilyNames[kFamilies] = {"reach", "sssp",
                                                        "cc", "tc", "mlm"};

std::string ReachQuery(int64_t source);
std::string SsspQuery(int64_t source);
/// Connected components over the symmetrized `uedge` table.
extern const char kCcQuery[];
/// Transitive closure over the `grid` table.
extern const char kTcQuery[];
/// Multi-level-marketing bonus over `sponsor`/`sales` (a sum head).
extern const char kMlmQuery[];
/// CC and TC with every row of the view as the result instead of a count:
/// the serving hot set fetches whole results.
extern const char kCcRowsQuery[];
extern const char kTcRowsQuery[];

/// Number of paths of the transitive closure of an (n+1)x(n+1) grid whose
/// edges go right and down: ((n+1)(n+2)/2)^2 - (n+1)^2.
int64_t GridClosureSize(int64_t side);

// ---- Output checks against independent oracles ----

/// REACH rows (one Dst column) equal the BFS reachable set from `source`.
bool ReachMatches(const rasql::storage::Relation& rel,
                  const std::vector<int64_t>& depth);
/// SSSP rows (Dst, Cost) equal the serial shortest-path distances.
bool SsspMatches(const rasql::storage::Relation& rel,
                 const std::vector<double>& distance);
/// Number of components among vertices touching an edge of `sym`.
int64_t ComponentCount(const datagen::Graph& sym);
/// (Src, CmpId) rows: one per vertex touching an edge of `sym`, labelled
/// with the smallest vertex id of its component.
bool ComponentsMatch(const rasql::storage::Relation& rel,
                     const datagen::Graph& sym);
/// (Src, Dst) rows equal the closure of the grid of the given side.
bool GridClosureMatches(const rasql::storage::Relation& rel, int64_t side);
/// Same (M, B) keys and values within a relative 1e-9 (sum order differs
/// between evaluators).
bool BonusMatches(const rasql::storage::Relation& got,
                  const rasql::storage::Relation& expected);
/// Single int64 cell of a one-row result, or -1.
int64_t ScalarInt(const rasql::storage::Relation& rel);

/// FNV-1a of a byte string, for remembering served bodies.
uint64_t Fingerprint(const std::string& bytes);

}  // namespace perfbench

#endif  // RASQL_PERFBENCH_PERFBENCH_H_
