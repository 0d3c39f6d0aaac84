#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "baselines/serial/serial_graph.h"
#include "engine/rasql_context.h"
#include "perfbench.h"

namespace perfbench {

using rasql::storage::Relation;
using rasql::storage::Row;

// ---- Metrics / Outcome ----

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    char buf[64];
    // %.17g keeps every digit the measurement has; non-finite values are
    // not JSON, so they are reported as 0.
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    if (i > 0) out += ", ";
    out += "\"" + order_[i] + "\": {\"value\": " + buf + ", \"unit\": \"" +
           unit + "\"}";
  }
  return out + "}";
}

void Outcome::Fail(const std::string& what) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

// ---- Tracer ----

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(const std::string& name, int64_t op) {
  Span span;
  span.name = name;
  span.start_ns = Now();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end_ns = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int64_t op) {
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  span.op = op;
  spans_.push_back(std::move(span));
}

namespace {

/// Self time of every span: its duration minus its direct children's.
std::vector<int64_t> SelfNs(const std::vector<Tracer::Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Tracer::Span& span : spans) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  return self;
}

}  // namespace

std::vector<double> Tracer::SelfSeconds(const std::string& name) const {
  const std::vector<int64_t> self = SelfNs(spans_);
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self[i] * 1e-9);
  }
  return out;
}

std::map<int64_t, double> Tracer::SelfSecondsByOp(
    const std::string& name) const {
  const std::vector<int64_t> self = SelfNs(spans_);
  std::map<int64_t, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out[spans_[i].op] += self[i] * 1e-9;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<int64_t> self = SelfNs(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << self[i] << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- Statistics ----

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double InterquartileMean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t quarter = values.size() / 4;
  return Mean(std::vector<double>(values.begin() + quarter,
                                  values.end() - quarter));
}

double Tail(std::vector<double> values, double* percentile) {
  if (values.empty()) {
    *percentile = 0;
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= 10) {
    *percentile = 100;
    return values.back();
  }
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return values[n - 11];
}

double WindowedMedian(const std::vector<std::pair<double, double>>& samples,
                      double window_s) {
  std::map<int64_t, std::vector<double>> slices;
  for (const auto& [at, value] : samples) {
    slices[static_cast<int64_t>(at / window_s)].push_back(value);
  }
  std::vector<double> medians;
  for (auto& [index, values] : slices) medians.push_back(Median(values));
  return Median(medians);
}

// ---- Process measurements ----

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// ---- Seeded inputs ----

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

datagen::Graph WeightedRmat(int64_t vertices, int64_t edges_per_vertex) {
  datagen::RmatOptions options;
  options.num_vertices = vertices;
  options.edges_per_vertex = edges_per_vertex;
  options.weighted = true;
  options.min_weight = 1.0;
  options.seed = kDataSeed;
  return datagen::GenerateRmat(options);
}

datagen::Graph Symmetrized(const datagen::Graph& graph) {
  datagen::Graph sym;
  sym.num_vertices = graph.num_vertices;
  sym.edges.reserve(2 * graph.edges.size());
  for (const auto& [s, d] : graph.edges) {
    sym.edges.emplace_back(s, d);
    sym.edges.emplace_back(d, s);
  }
  return sym;
}

}  // namespace

std::vector<int64_t> Hubs(const datagen::Graph& graph, size_t count) {
  std::vector<int64_t> degree(graph.num_vertices, 0);
  for (const auto& edge : graph.edges) ++degree[edge.first];
  std::vector<int64_t> order(graph.num_vertices);
  for (int64_t v = 0; v < graph.num_vertices; ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return degree[a] > degree[b];
  });
  order.resize(std::min(count, order.size()));
  return order;
}

Tables MakeTables(int64_t vertices, int64_t edges_per_vertex,
                  int64_t grid_side, int64_t tree_nodes) {
  Tables t;
  t.rmat = WeightedRmat(vertices, edges_per_vertex);
  t.sym = Symmetrized(t.rmat);
  datagen::GridOptions grid;
  grid.side = grid_side;
  datagen::TreeOptions tree_options;
  tree_options.max_nodes = tree_nodes;
  tree_options.seed = kDataSeed;
  Relation sponsor;
  Relation sales;
  datagen::ToMlmRelations(datagen::GenerateTree(tree_options), kDataSeed,
                          &sponsor, &sales);
  t.relations["edge"] = datagen::ToEdgeRelation(t.rmat);
  t.relations["uedge"] = datagen::ToEdgeRelation(t.sym);
  t.relations["grid"] = datagen::ToEdgeRelation(datagen::GenerateGrid(grid));
  t.relations["sponsor"] = std::move(sponsor);
  t.relations["sales"] = std::move(sales);
  return t;
}

Relation LocalMlm(const Tables& tables) {
  rasql::engine::RaSqlContext local;
  for (const char* name : {"sponsor", "sales"}) {
    if (!local.RegisterTable(name, tables.relations.at(name)).ok()) {
      return Relation();
    }
  }
  auto result = local.Execute(kMlmQuery);
  return result.ok() ? std::move(result->relation) : Relation();
}

// ---- Query families ----

std::string ReachQuery(int64_t source) {
  return "WITH recursive reach (Dst) AS (SELECT " + std::to_string(source) +
         ") UNION (SELECT edge.Dst FROM reach, edge WHERE reach.Dst = "
         "edge.Src) SELECT Dst FROM reach";
}

std::string SsspQuery(int64_t source) {
  return "WITH recursive path (Dst, min() AS Cost) AS (SELECT " +
         std::to_string(source) +
         ", 0.0) UNION (SELECT edge.Dst, path.Cost + edge.Cost FROM path, "
         "edge WHERE path.Dst = edge.Src) SELECT Dst, Cost FROM path";
}

const char kCcQuery[] =
    "WITH recursive cc (Src, min() AS CmpId) AS (SELECT Src, Src FROM uedge) "
    "UNION (SELECT uedge.Dst, cc.CmpId FROM cc, uedge WHERE cc.Src = "
    "uedge.Src) SELECT count(distinct CmpId) FROM cc";

const char kTcQuery[] =
    "WITH recursive tc (Src, Dst) AS (SELECT Src, Dst FROM grid) UNION "
    "(SELECT tc.Src, grid.Dst FROM tc, grid WHERE tc.Dst = grid.Src) "
    "SELECT count(*) FROM tc";

const char kMlmQuery[] =
    "WITH recursive bonus (M, sum() AS B) AS (SELECT M, P * 0.1 FROM sales) "
    "UNION (SELECT sponsor.M1, bonus.B * 0.5 FROM bonus, sponsor WHERE "
    "bonus.M = sponsor.M2) SELECT M, B FROM bonus";

const char kCcRowsQuery[] =
    "WITH recursive cc (Src, min() AS CmpId) AS (SELECT Src, Src FROM uedge) "
    "UNION (SELECT uedge.Dst, cc.CmpId FROM cc, uedge WHERE cc.Src = "
    "uedge.Src) SELECT Src, CmpId FROM cc";

const char kTcRowsQuery[] =
    "WITH recursive tc (Src, Dst) AS (SELECT Src, Dst FROM grid) UNION "
    "(SELECT tc.Src, grid.Dst FROM tc, grid WHERE tc.Dst = grid.Src) "
    "SELECT Src, Dst FROM tc";

int64_t GridClosureSize(int64_t side) {
  const int64_t n = side + 1;
  const int64_t pairs = n * (n + 1) / 2;
  return pairs * pairs - n * n;
}

// ---- Output checks ----

bool ReachMatches(const Relation& rel, const std::vector<int64_t>& depth) {
  std::vector<int64_t> got;
  got.reserve(rel.size());
  bool typed = true;
  rel.ForEachRow([&](const Row& row) {
    if (row.size() != 1 ||
        row[0].type() != rasql::storage::ValueType::kInt64) {
      typed = false;
      return;
    }
    got.push_back(row[0].AsInt());
  });
  if (!typed) return false;
  std::sort(got.begin(), got.end());
  std::vector<int64_t> expected;
  for (size_t v = 0; v < depth.size(); ++v) {
    if (depth[v] >= 0) expected.push_back(static_cast<int64_t>(v));
  }
  return got == expected;
}

bool SsspMatches(const Relation& rel, const std::vector<double>& distance) {
  size_t reachable = 0;
  for (double d : distance) reachable += std::isinf(d) ? 0 : 1;
  if (rel.size() != reachable) return false;
  std::vector<bool> seen(distance.size(), false);
  bool ok = true;
  rel.ForEachRow([&](const Row& row) {
    if (!ok) return;
    if (row.size() != 2) {
      ok = false;
      return;
    }
    const int64_t v = row[0].AsInt();
    if (v < 0 || static_cast<size_t>(v) >= distance.size() || seen[v] ||
        row[1].AsNumeric() != distance[v]) {
      ok = false;
      return;
    }
    seen[v] = true;
  });
  return ok;
}

int64_t ComponentCount(const datagen::Graph& sym) {
  const rasql::baselines::Csr csr = rasql::baselines::Csr::Build(sym);
  const std::vector<int64_t> label = rasql::baselines::SerialCcLabelProp(csr);
  std::vector<bool> touched(sym.num_vertices, false);
  for (const auto& [s, d] : sym.edges) {
    touched[s] = true;
    touched[d] = true;
  }
  std::set<int64_t> components;
  for (int64_t v = 0; v < sym.num_vertices; ++v) {
    if (touched[v]) components.insert(label[v]);
  }
  return static_cast<int64_t>(components.size());
}

bool ComponentsMatch(const Relation& rel, const datagen::Graph& sym) {
  const rasql::baselines::Csr csr = rasql::baselines::Csr::Build(sym);
  const std::vector<int64_t> label = rasql::baselines::SerialCcLabelProp(csr);
  std::vector<bool> touched(sym.num_vertices, false);
  for (const auto& [s, d] : sym.edges) {
    touched[s] = true;
    touched[d] = true;
  }
  const size_t expected_rows =
      static_cast<size_t>(std::count(touched.begin(), touched.end(), true));
  if (rel.size() != expected_rows) return false;
  std::vector<bool> seen(sym.num_vertices, false);
  bool ok = true;
  rel.ForEachRow([&](const Row& row) {
    const int64_t v = row[0].AsInt();
    if (!ok || v < 0 || v >= sym.num_vertices || !touched[v] || seen[v] ||
        row[1].AsInt() != label[v]) {
      ok = false;
      return;
    }
    seen[v] = true;
  });
  return ok;
}

bool GridClosureMatches(const Relation& rel, int64_t side) {
  const int64_t n = side + 1;
  if (static_cast<int64_t>(rel.size()) != GridClosureSize(side)) return false;
  std::set<std::pair<int64_t, int64_t>> pairs;
  bool ok = true;
  rel.ForEachRow([&](const Row& row) {
    const int64_t s = row[0].AsInt();
    const int64_t d = row[1].AsInt();
    // Edges go right and down, so d is reachable from s exactly when it is
    // another vertex no higher and no further left.
    if (s < 0 || d < 0 || s >= n * n || d >= n * n || s == d ||
        d / n < s / n || d % n < s % n || !pairs.emplace(s, d).second) {
      ok = false;
    }
  });
  return ok;
}

bool BonusMatches(const Relation& got, const Relation& expected) {
  if (got.size() != expected.size()) return false;
  std::map<int64_t, double> want;
  expected.ForEachRow(
      [&](const Row& row) { want[row[0].AsInt()] = row[1].AsNumeric(); });
  bool ok = want.size() == expected.size();
  got.ForEachRow([&](const Row& row) {
    auto it = want.find(row[0].AsInt());
    if (it == want.end()) {
      ok = false;
      return;
    }
    const double a = row[1].AsNumeric();
    if (std::fabs(a - it->second) >
        1e-9 * std::max(1.0, std::fabs(it->second))) {
      ok = false;
    }
  });
  return ok;
}

int64_t ScalarInt(const Relation& rel) {
  if (rel.size() != 1 || rel.row(0).width() != 1) return -1;
  const rasql::storage::Value v = rel.row(0)[0];
  return v.type() == rasql::storage::ValueType::kInt64 ? v.AsInt() : -1;
}

uint64_t Fingerprint(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
