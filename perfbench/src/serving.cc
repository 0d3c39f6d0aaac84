// serve-read and serve-write: traffic from min(nproc, 3) client connections
// in this process against an in-process server::Server with default
// ServerOptions over a default local-engine context.
//
// serve-read: hot reads (repeated statements of the five families:
// result-cache hits), and every eightieth op a cold read (an SSSP statement
// from a source not asked before: a plan-cache and result-cache miss).
// serve-write: the context runs with EngineConfig::incremental, and every
// thirtieth op is an INSERT of a fresh edge; the next read of each hot
// statement over `edge` after a write is a result-cache refresh resumed
// from warm state.
//
// The latency phase is an open loop: requests go out on a fixed schedule
// and are timed from their scheduled send. The capacity phase runs the same
// op mix as a closed loop, each connection sending its next op as soon as
// the previous one returns; its completions per second are max_qps, the
// offered rate beyond which an open loop's backlog grows.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/serial/serial_graph.h"
#include "engine/rasql_context.h"
#include "layers.h"
#include "lint/linter.h"
#include "perfbench.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/plan_cache.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "sql/parser.h"
#include "storage/result_format.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rasql::engine::EngineConfig;
using rasql::engine::RaSqlContext;
using rasql::server::Client;
using rasql::server::Server;
using rasql::server::ServerOptions;
using rasql::storage::Relation;
using rasql::storage::Row;
using rasql::storage::Value;
using rasql::storage::ValueType;

constexpr int64_t kVertices = 4096;
constexpr int64_t kDegree = 4;
constexpr int64_t kGridSide = 10;
constexpr int64_t kTreeNodes = 2000;
constexpr int kHotSourcesPerFamily = 3;  // REACH and SSSP each
/// serve-read: every eightieth op is cold, so at most one cold read runs
/// at a time and hits rarely wait behind one.
constexpr size_t kColdEvery = 80;
constexpr size_t kWriteEvery = 30;  // serve-write: every thirtieth a write
/// Offered rate of the latency phase, requests per second.
constexpr double kNominalRate = 400;
/// Share of --seconds spent in the open-loop latency phase; the closed-loop
/// capacity phase gets the rest.
constexpr double kLatencyShare = 0.6;
/// Ops prepared per second of the capacity phase, above what the server
/// completes, so no connection runs out before the deadline.
constexpr double kCapacityOpsPerSecond = 8000;
constexpr int kSetupRepetitions = 5;
constexpr int kMaxConnections = 3;
/// Latency medians and completion counts are taken per slice of this many
/// seconds, then the median over the slices, so a passing disturbance of
/// the machine moves few slices.
constexpr double kWindowSeconds = 1.0;
/// A phase whose generator woke later than this (p99) is invalid; the
/// measured phase is tried at most kPhaseAttempts times.
constexpr double kLateLimitMs = 2;
constexpr int kPhaseAttempts = 2;

struct Statement {
  Family family = kReach;
  int64_t source = -1;
  std::string sql;
  bool hot = false;
};

enum class OpKind { kRead, kWrite };

struct Op {
  OpKind kind = OpKind::kRead;
  int stmt = -1;    ///< reads: index into the statement table
  std::string sql;  ///< writes: the INSERT
  double at = 0;    ///< scheduled send, seconds after the phase start
};

/// What the client saw for one op.
struct Record {
  Clock::time_point sched;
  Clock::time_point wake;
  Clock::time_point done;
  bool free = false;  ///< a connection was idle at the scheduled send
  bool sent = false;
  bool ok = false;
  bool hit = false;
  uint64_t fp = 0;
  std::string body;  ///< kept for cold reads and writes
  std::string error;
};

enum class Kind { kHit, kMiss, kRefresh, kWrite, kFailed };
constexpr int kKinds = 5;

/// p99 of how late the generator sent the ops it was free to send on
/// time, in ms: the generator's own lateness, not the server's backlog.
double GeneratorLateP99(const std::vector<Record>& recs) {
  std::vector<double> late_ms;
  for (const Record& r : recs) {
    if (r.free) late_ms.push_back(SecondsBetween(r.sched, r.wake) * 1e3);
  }
  if (late_ms.empty()) return 0;
  std::sort(late_ms.begin(), late_ms.end());
  return late_ms[late_ms.size() * 99 / 100];
}

/// Parses a served CSV body into a relation typed for `family`: REACH
/// (int), SSSP and MLM (int, double), CC and TC (int, int).
Relation ParseBody(const std::string& body, Family family) {
  const bool pair = family != kReach;
  const bool real = family == kSssp || family == kMlm;
  Relation rel(pair ? rasql::storage::Schema::Of(
                          {{"a", ValueType::kInt64},
                           {"b", real ? ValueType::kDouble : ValueType::kInt64}})
                    : rasql::storage::Schema::Of({{"a", ValueType::kInt64}}));
  size_t pos = body.find('\n');  // skip the header
  while (pos != std::string::npos && pos + 1 < body.size()) {
    const size_t end = body.find('\n', pos + 1);
    const std::string line = body.substr(
        pos + 1, end == std::string::npos ? std::string::npos : end - pos - 1);
    pos = end;
    if (line.empty()) continue;
    Row row;
    const size_t comma = line.find(',');
    row.push_back(Value::Int(std::strtoll(line.c_str(), nullptr, 10)));
    if (pair && comma != std::string::npos) {
      const char* cell = line.c_str() + comma + 1;
      row.push_back(real ? Value::Double(std::strtod(cell, nullptr))
                         : Value::Int(std::strtoll(cell, nullptr, 10)));
    }
    rel.AppendRow(row);
  }
  return rel;
}

class ServeBench {
 public:
  ServeBench(const Args& args, bool write) : args_(args), write_(write) {}

  Outcome Run();

 private:
  void MakeInputs();
  EngineConfig Config() const {
    EngineConfig config;
    config.incremental = write_;
    return config;
  }
  /// Builds the context and the server, connects the clients and fills the
  /// hot-set cache; false when set-up failed.
  bool SetUp();
  /// Checks the set-up's cold bodies against the oracles.
  void CheckSetUp();
  void TearDown();
  bool CheckBody(const Statement& s, const std::string& body);
  /// `n` ops scheduled at kNominalRate, fixed by the seed and `phase`.
  std::vector<Op> MakeOps(size_t n, uint64_t phase);
  /// Open loop when `closed_s` is 0: each op goes out at its scheduled
  /// send. Otherwise a closed loop for `closed_s` seconds: each connection
  /// sends its next op as soon as the previous one returned.
  std::vector<Record> RunPhase(const std::vector<Op>& ops, double closed_s);
  std::vector<Kind> Classify(const std::vector<Op>& ops,
                             const std::vector<Record>& recs) const;
  /// Output checks of one phase (bodies are released afterwards).
  void CheckPhase(const std::vector<Op>& ops, std::vector<Record>* recs);
  void CheckHits();
  /// Serves each hot statement once more and compares it with a fresh
  /// cold context over the same table contents.
  void CheckFinal();
  double Latency(const Record& r, double phase_s) const {
    return r.sent && r.ok ? SecondsBetween(r.sched, r.done) * 1e3
                          : phase_s * 1e3;
  }
  /// Completions per second of a closed-loop phase of `seconds`: the mean
  /// over the middle half of its one-second slices.
  double Capacity(double seconds);
  void Replay(const std::vector<Op>& ops, const std::vector<Record>& recs,
              const std::vector<Kind>& kinds, Tracer* tracer);

  const Args args_;
  const bool write_;
  Outcome out_;

  Tables data_;
  rasql::baselines::Csr csr_;
  std::string mlm_body_;
  std::string insert_body_;
  std::vector<Statement> statements_;
  size_t hot_count_ = 0;
  std::vector<int64_t> cold_sources_;
  size_t next_cold_ = 0;
  std::vector<std::string> setup_bodies_;  ///< cold bodies of the hot set
  std::map<int, uint64_t> cold_fp_;  ///< hot statement -> setup body
  /// Bodies a non-hit read produced per statement: a hit must equal one.
  std::map<int, std::set<uint64_t>> produced_;
  std::vector<std::pair<int, uint64_t>> hits_;

  std::unique_ptr<RaSqlContext> ctx_;
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::mutex trace_mu_;
  Tracer* phase_tracer_ = nullptr;  ///< client spans during a traced phase
};

void ServeBench::MakeInputs() {
  data_ = MakeTables(kVertices, kDegree, kGridSide, kTreeNodes);
  csr_ = rasql::baselines::Csr::Build(data_.rmat);
  // MLM oracle: the local row interpreter, the engine the server runs.
  const Relation mlm = LocalMlm(data_);
  if (!mlm.empty()) {
    mlm_body_ =
        rasql::storage::FormatRelation(mlm, rasql::storage::ResultFormat::kCsv);
  }
  Relation inserted(
      rasql::storage::Schema::Of({{"rows_inserted", ValueType::kInt64}}));
  inserted.AppendRow({Value::Int(1)});
  insert_body_ = rasql::storage::FormatRelation(
      inserted, rasql::storage::ResultFormat::kCsv);

  // Hot statements: REACH and SSSP from the top hubs, then CC, TC, MLM.
  // They are the same in every run; the seed draws the order they are read.
  const std::vector<int64_t> hubs =
      Hubs(data_.rmat, 2 * kHotSourcesPerFamily);
  std::set<int64_t> hot_sources;
  size_t next_hub = 0;
  for (Family family : {kReach, kSssp}) {
    for (int i = 0; i < kHotSourcesPerFamily; ++i) {
      const int64_t source = hubs[next_hub++];
      hot_sources.insert(source);
      Statement s;
      s.family = family;
      s.source = source;
      s.sql = family == kReach ? ReachQuery(source) : SsspQuery(source);
      s.hot = true;
      statements_.push_back(s);
    }
  }
  for (Family family : {kCc, kTc, kMlm}) {
    Statement s;
    s.family = family;
    s.sql = family == kCc   ? kCcRowsQuery
            : family == kTc ? kTcRowsQuery
                            : kMlmQuery;
    s.hot = true;
    statements_.push_back(s);
  }
  hot_count_ = statements_.size();

  // Cold sources: every other vertex that reaches at least half the graph
  // (so each cold read costs about the same), in id order. Each phase
  // takes the next block of them and the seed draws its order, so every
  // run reads the same sources.
  for (int64_t v = 0; v < kVertices; ++v) {
    if (hot_sources.count(v) != 0) continue;
    const std::vector<int64_t> depth = rasql::baselines::SerialBfs(csr_, v);
    const auto reached = std::count_if(depth.begin(), depth.end(),
                                       [](int64_t d) { return d >= 0; });
    if (2 * reached >= kVertices) cold_sources_.push_back(v);
  }
}

bool ServeBench::CheckBody(const Statement& s, const std::string& body) {
  switch (s.family) {
    case kReach:
      return ReachMatches(ParseBody(body, kReach),
                          rasql::baselines::SerialBfs(csr_, s.source));
    case kSssp:
      return SsspMatches(ParseBody(body, kSssp),
                         rasql::baselines::SerialSssp(csr_, s.source));
    case kCc: return ComponentsMatch(ParseBody(body, kCc), data_.sym);
    case kTc: return GridClosureMatches(ParseBody(body, kTc), kGridSide);
    case kMlm: return body == mlm_body_;
    default: return false;
  }
}

bool ServeBench::SetUp() {
  ctx_ = std::make_unique<RaSqlContext>(Config());
  for (const auto& [name, rel] : data_.relations) {
    if (!ctx_->RegisterTable(name, rel).ok()) return false;
  }
  server_ = std::make_unique<Server>(ctx_.get(), ServerOptions{});
  if (!server_->Start().ok()) return false;
  const int connections = std::min(HardwareThreads(), kMaxConnections);
  clients_.clear();
  for (int c = 0; c < connections; ++c) {
    auto client = std::make_unique<Client>();
    if (!client->Connect(server_->port()).ok()) return false;
    clients_.push_back(std::move(client));
  }
  // Fill the hot-set cache: a cold run per statement, then a hit. The
  // bodies are checked by CheckSetUp, outside the timed set-up.
  setup_bodies_.assign(hot_count_, "");
  for (size_t i = 0; i < hot_count_; ++i) {
    const Statement& s = statements_[i];
    auto cold = clients_[0]->Query(s.sql);
    ++out_.attempted;
    if (!cold.ok() || cold->cache_hit) {
      out_.Fail(std::string("set-up cold read of ") + kFamilyNames[s.family]);
      continue;
    }
    setup_bodies_[i] = std::move(cold->body);
    auto hit = clients_[0]->Query(s.sql);
    ++out_.attempted;
    if (!hit.ok() || !hit->cache_hit || hit->body != setup_bodies_[i]) {
      out_.Fail(std::string("set-up hit of ") + kFamilyNames[s.family]);
    }
  }
  return true;
}

void ServeBench::CheckSetUp() {
  for (size_t i = 0; i < hot_count_; ++i) {
    const Statement& s = statements_[i];
    if (!CheckBody(s, setup_bodies_[i])) {
      out_.Fail(std::string("set-up read of ") + kFamilyNames[s.family] +
                " diverges from its oracle");
    }
    cold_fp_[static_cast<int>(i)] = Fingerprint(setup_bodies_[i]);
  }
  setup_bodies_.clear();
}

void ServeBench::TearDown() {
  clients_.clear();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  ctx_.reset();
}

std::vector<Op> ServeBench::MakeOps(size_t n, uint64_t phase) {
  Rng rng(args_.seed * 1000003ULL + phase);
  std::vector<int64_t> cold;
  if (!write_) {
    for (size_t k = n / kColdEvery; k > 0; --k) {
      cold.push_back(cold_sources_[next_cold_++ % cold_sources_.size()]);
    }
    for (size_t i = cold.size(); i > 1; --i) {
      std::swap(cold[i - 1], cold[rng.Below(i)]);
    }
  }
  size_t next = 0;
  std::vector<Op> ops(n);
  for (size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    op.at = static_cast<double>(i) / kNominalRate;
    // Cold reads and writes come at fixed positions, so no run draws a
    // burst of them; which hot statement is read is drawn from the seed.
    if (write_ && i % kWriteEvery == kWriteEvery - 1) {
      op.kind = OpKind::kWrite;
      const int64_t src = static_cast<int64_t>(rng.Below(kVertices));
      const int64_t dst = static_cast<int64_t>(rng.Below(kVertices));
      const int64_t cost = 1 + static_cast<int64_t>(rng.Below(99));
      op.sql = "INSERT INTO edge VALUES (" + std::to_string(src) + ", " +
               std::to_string(dst) + ", " + std::to_string(cost) + ".0)";
    } else if (!write_ && i % kColdEvery == kColdEvery - 1) {
      const int64_t source = cold[next++];
      Statement s;
      s.family = kSssp;
      s.source = source;
      s.sql = SsspQuery(source);
      statements_.push_back(s);
      op.stmt = static_cast<int>(statements_.size()) - 1;
    } else {
      op.stmt = static_cast<int>(rng.Below(hot_count_));
    }
  }
  return ops;
}

std::vector<Record> ServeBench::RunPhase(const std::vector<Op>& ops,
                                         double closed_s) {
  std::vector<Record> recs(ops.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(closed_s));
  std::vector<std::thread> threads;
  for (auto& client_ptr : clients_) {
    Client* client = client_ptr.get();
    threads.emplace_back([&, client] {
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= ops.size()) break;
        Record& r = recs[i];
        Clock::time_point now = Clock::now();
        if (closed_s > 0) {
          if (now < start) std::this_thread::sleep_until(start);
          now = Clock::now();
          if (now >= deadline) break;
          r.sched = now;
        } else {
          r.sched = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(ops[i].at));
          if (now < r.sched) {
            // Sleep, then spin the last stretch so sends go out on time.
            std::this_thread::sleep_until(r.sched -
                                          std::chrono::microseconds(300));
            while ((now = Clock::now()) < r.sched) {
            }
            r.free = true;
          }
        }
        r.wake = now;
        const Op& op = ops[i];
        const bool keep =
            op.kind == OpKind::kWrite || !statements_[op.stmt].hot;
        auto result = client->Query(op.kind == OpKind::kWrite
                                        ? op.sql
                                        : statements_[op.stmt].sql);
        r.done = Clock::now();
        r.sent = true;
        if (result.ok()) {
          r.ok = true;
          r.hit = result->cache_hit;
          r.fp = Fingerprint(result->body);
          if (keep) r.body = std::move(result->body);
        } else {
          r.error = result.status().ToString();
        }
        if (phase_tracer_ != nullptr) {
          std::lock_guard<std::mutex> lock(trace_mu_);
          phase_tracer_->Add("client.call", r.wake, r.done,
                             static_cast<int64_t>(i));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return recs;
}

std::vector<Kind> ServeBench::Classify(const std::vector<Op>& ops,
                                       const std::vector<Record>& recs) const {
  std::vector<Kind> kinds(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const Record& r = recs[i];
    if (!r.sent || !r.ok) {
      kinds[i] = Kind::kFailed;
    } else if (ops[i].kind == OpKind::kWrite) {
      kinds[i] = Kind::kWrite;
    } else if (r.hit) {
      kinds[i] = Kind::kHit;
    } else if (write_ && statements_[ops[i].stmt].hot) {
      kinds[i] = Kind::kRefresh;
    } else {
      kinds[i] = Kind::kMiss;
    }
  }
  return kinds;
}

void ServeBench::CheckPhase(const std::vector<Op>& ops,
                            std::vector<Record>* recs) {
  for (size_t i = 0; i < ops.size(); ++i) {
    Record& r = (*recs)[i];
    if (!r.sent) continue;  // never sent: the capacity phase ended first
    ++out_.attempted;
    if (!r.ok) {
      ++out_.failed;
      std::fprintf(stderr, "request failed: %s\n", r.error.c_str());
      continue;
    }
    if (ops[i].kind == OpKind::kWrite) {
      if (r.body != insert_body_) out_.Fail("INSERT response");
    } else if (!statements_[ops[i].stmt].hot) {
      if (!CheckBody(statements_[ops[i].stmt], r.body)) {
        out_.Fail(std::string("cold ") +
                  kFamilyNames[statements_[ops[i].stmt].family] +
                  " read diverges from its oracle");
      }
    } else if (r.hit) {
      hits_.emplace_back(ops[i].stmt, r.fp);
    } else {
      produced_[ops[i].stmt].insert(r.fp);
    }
    r.body.clear();
    r.body.shrink_to_fit();
  }
}

void ServeBench::CheckHits() {
  for (const auto& [stmt, fp] : hits_) {
    const bool from_setup = cold_fp_.count(stmt) && cold_fp_.at(stmt) == fp;
    if (!from_setup && produced_[stmt].count(fp) == 0) {
      out_.Fail(std::string("hit of ") +
                kFamilyNames[statements_[stmt].family] +
                " differs from every cold or refreshed body");
    }
  }
  hits_.clear();
}

void ServeBench::CheckFinal() {
  RaSqlContext fresh;
  for (const auto& [name, rel] : data_.relations) {
    const Relation* now = ctx_->FindTable(name);
    if (now == nullptr || !fresh.RegisterTable(name, *now).ok()) {
      out_.Fail("fresh context for the final check");
      return;
    }
  }
  for (size_t i = 0; i < hot_count_; ++i) {
    const Statement& s = statements_[i];
    auto served = clients_[0]->Query(s.sql);
    auto cold = fresh.Execute(s.sql);
    ++out_.attempted;
    if (!served.ok() || !cold.ok() ||
        served->body != rasql::storage::FormatRelation(
                            cold->relation,
                            rasql::storage::ResultFormat::kCsv)) {
      out_.Fail(std::string("final ") + kFamilyNames[s.family] +
                " differs from a fresh cold context");
    }
  }
}

double ServeBench::Capacity(double seconds) {
  const std::vector<Op> ops = MakeOps(
      static_cast<size_t>(kCapacityOpsPerSecond * seconds), 100);
  std::vector<Record> recs = RunPhase(ops, seconds);
  // Completions per one-second slice of the phase (a slice the last op
  // sent did not reach is left out), averaged over the middle half of the
  // slices.
  Clock::time_point start = Clock::time_point::max();
  Clock::time_point last = Clock::time_point::min();
  for (const Record& r : recs) {
    if (!r.sent) continue;
    start = std::min(start, r.sched);
    last = std::max(last, r.sched);
  }
  std::map<int64_t, double> slices;
  for (const Record& r : recs) {
    if (!r.sent || !r.ok || r.done > last) continue;
    ++slices[static_cast<int64_t>(SecondsBetween(start, r.done) /
                                  kWindowSeconds)];
  }
  const int64_t whole = static_cast<int64_t>(SecondsBetween(start, last) /
                                             kWindowSeconds);
  std::vector<double> rates;
  for (int64_t w = 0; w < whole; ++w) {
    rates.push_back(slices[w] / kWindowSeconds);
  }
  out_.details["capacity.ops"] = std::to_string(
      std::count_if(recs.begin(), recs.end(),
                    [](const Record& r) { return r.sent; }));
  out_.details["capacity.slices"] = std::to_string(rates.size());
  CheckPhase(ops, &recs);
  return InterquartileMean(rates);
}

Outcome ServeBench::Run() {
  MakeInputs();
  if (mlm_body_.empty()) {
    out_.Fail("MLM oracle");
    return out_;
  }
  std::vector<double> setup_seconds;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    TearDown();
    const Clock::time_point start = Clock::now();
    if (!SetUp()) {
      out_.Fail("server set-up");
      TearDown();
      return out_;
    }
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    CheckSetUp();
  }
  out_.details["connections"] = std::to_string(clients_.size());
  out_.details["server_io_slots"] = std::to_string(ServerOptions{}.io_slots);
  out_.details["server_exec_slots"] =
      std::to_string(ServerOptions{}.exec_slots);
  out_.details["engine_threads"] = std::to_string(
      Config().runtime.ResolvedThreads());
  out_.details["nominal_rate"] = std::to_string(kNominalRate);
  out_.details["cold_sources"] = std::to_string(cold_sources_.size());

  // ---- The latency phase: an open loop at the nominal rate. A phase whose
  // generator could not send on schedule (the machine was taken from this
  // process) measured the machine, not the program: it is checked, set
  // aside and run once more. ----
  const double latency_s = args_.seconds * kLatencyShare;
  const size_t n = static_cast<size_t>(std::llround(kNominalRate * latency_s));
  std::vector<Op> ops;
  std::vector<Record> recs;
  double late_p99 = 0;
  for (int attempt = 0; attempt < kPhaseAttempts; ++attempt) {
    if (attempt > 0) {
      std::fprintf(stderr,
                   "warning: generator fell behind (p99 %.3f ms); "
                   "repeating the phase\n",
                   late_p99);
      CheckPhase(ops, &recs);
    }
    ops = MakeOps(n, 1 + 10 * attempt);
    recs = RunPhase(ops, 0);
    late_p99 = GeneratorLateP99(recs);
    if (late_p99 <= kLateLimitMs) break;
  }
  out_.details["gen.late_ms"] = std::to_string(late_p99);
  out_.details["valid"] = late_p99 <= kLateLimitMs ? "true" : "false";
  const std::vector<Kind> kinds = Classify(ops, recs);

  // Per family, the hits on its hot statements: (scheduled s, ms).
  auto family_hits = [&](const std::vector<Op>& phase_ops,
                         const std::vector<Record>& phase_recs,
                         const std::vector<Kind>& phase_kinds, Family f) {
    std::vector<std::pair<double, double>> out;
    for (size_t i = 0; i < phase_ops.size(); ++i) {
      if (phase_kinds[i] == Kind::kHit &&
          statements_[phase_ops[i].stmt].family == f) {
        out.emplace_back(phase_ops[i].at, Latency(phase_recs[i], latency_s));
      }
    }
    return out;
  };
  std::vector<double> all_ms;
  std::vector<std::pair<double, double>> compute_ms;  // ran a fixpoint
  // Latency by op class, for the detail line.
  const char* const kKindNames[kKinds] = {"hit", "miss", "refresh",
                                          "write", "failed"};
  std::vector<double> kind_ms[kKinds];
  for (size_t i = 0; i < ops.size(); ++i) {
    const double ms = Latency(recs[i], latency_s);
    all_ms.push_back(ms);
    kind_ms[static_cast<int>(kinds[i])].push_back(ms);
    if (kinds[i] == Kind::kMiss || kinds[i] == Kind::kRefresh) {
      compute_ms.emplace_back(ops[i].at, ms);
    }
  }
  for (int k = 0; k < kKinds; ++k) {
    if (kind_ms[k].empty()) continue;
    double percentile = 0;
    out_.details[std::string(kKindNames[k]) + ".count"] =
        std::to_string(kind_ms[k].size());
    out_.details[std::string(kKindNames[k]) + ".p50_ms"] =
        std::to_string(Median(kind_ms[k]));
    out_.details[std::string(kKindNames[k]) + ".tail_ms"] =
        std::to_string(Tail(kind_ms[k], &percentile));
  }

  if (!args_.trace) {
    CheckPhase(ops, &recs);
    const double max_qps = Capacity(args_.seconds - latency_s);
    CheckHits();
    CheckFinal();
    for (int f = 0; f < kFamilies; ++f) {
      out_.metrics.Set(
          std::string(kFamilyNames[f]) + ".p50_ms",
          WindowedMedian(family_hits(ops, recs, kinds, static_cast<Family>(f)),
                         kWindowSeconds),
          "ms");
    }
    out_.metrics.Set("compute.p50_ms",
                     WindowedMedian(compute_ms, kWindowSeconds), "ms");
    double percentile = 0;
    out_.details["tail_ms"] = std::to_string(Tail(all_ms, &percentile));
    out_.details["tail_percentile"] = std::to_string(percentile);
    out_.details["samples"] = std::to_string(all_ms.size());
    out_.metrics.Set("max_qps", max_qps, "1/s");
    out_.metrics.Set("setup_s", Median(setup_seconds), "s");
    out_.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    TearDown();
    return out_;
  }

  // ---- Traced: a second phase with client spans recorded, then the
  // server-side work of each of its ops replayed in-process. ----
  Tracer tracer;
  phase_tracer_ = &tracer;
  const std::vector<Op> traced_ops = MakeOps(n, 2);
  std::vector<Record> traced = RunPhase(traced_ops, 0);
  phase_tracer_ = nullptr;
  const std::vector<Kind> traced_kinds = Classify(traced_ops, traced);
  // Tracing overhead: the per-family hit medians of the traced phase
  // against those of the untraced one, summed over the families.
  double traced_sum = 0;
  double untraced_sum = 0;
  for (int f = 0; f < kFamilies; ++f) {
    std::vector<double> traced_ms;
    for (const auto& [at, ms] : family_hits(traced_ops, traced, traced_kinds,
                                             static_cast<Family>(f))) {
      traced_ms.push_back(ms);
    }
    std::vector<double> untraced_ms;
    for (const auto& [at, ms] :
         family_hits(ops, recs, kinds, static_cast<Family>(f))) {
      untraced_ms.push_back(ms);
    }
    traced_sum += Median(traced_ms);
    untraced_sum += Median(untraced_ms);
  }
  const rasql::server::ServerStats stats = server_->stats();
  CheckPhase(ops, &recs);

  Metrics& lm = out_.metrics;
  FillLayerDefaults(&lm);
  Replay(traced_ops, traced, traced_kinds, &tracer);
  CheckPhase(traced_ops, &traced);
  CheckHits();
  CheckFinal();

  const auto& rc = stats.result_cache;
  const auto& pc = stats.plan_cache;
  lm.Set("server.result_hit_ratio",
         rc.hits + rc.misses > 0
             ? static_cast<double>(rc.hits) / (rc.hits + rc.misses)
             : 0,
         "ratio");
  lm.Set("server.plan_hit_ratio",
         pc.hits + pc.misses > 0
             ? static_cast<double>(pc.hits) / (pc.hits + pc.misses)
             : 0,
         "ratio");
  lm.Set("server.refreshes", static_cast<double>(rc.refreshes), "count");
  lm.Set("server.evictions", static_cast<double>(rc.evictions), "count");
  lm.Set("server.admission_rejects",
         static_cast<double>(stats.admission_rejects), "count");
  lm.Set("gen.late_ms", late_p99, "ms");
  lm.Set("trace.overhead_pct",
         untraced_sum > 0 ? 100.0 * (traced_sum / untraced_sum - 1) : 0, "%");
  if (!tracer.WriteJsonl(args_.trace_dir + "/" + args_.workload + ".seed" +
                         std::to_string(args_.seed) + ".spans.jsonl")) {
    std::fprintf(stderr, "warning: could not write the span file\n");
  }
  TearDown();
  return out_;
}

void ServeBench::Replay(const std::vector<Op>& ops,
                        const std::vector<Record>& recs,
                        const std::vector<Kind>& kinds, Tracer* tracer) {
  namespace srv = rasql::server;
  // A replica of the server's state: same engine config and tables, its
  // own plan and result caches with the server's default capacities.
  const ServerOptions defaults;
  RaSqlContext replica(Config());
  for (const auto& [name, rel] : data_.relations) {
    (void)replica.RegisterTable(name, rel);
  }
  srv::PlanCache plans(defaults.plan_cache_entries);
  srv::ResultCache results(defaults.result_cache_entries);
  const rasql::analysis::Catalog catalog = [&] {
    TableMap map;
    for (const auto& [name, rel] : data_.relations) map[name] = &rel;
    return CatalogOf(map);
  }();

  std::vector<double> iterations, delta_rows, plan_execs, cpu_ms, result_kb,
      saved, seed_rows, overhead_ms;
  int warm_starts = 0;
  int refreshes = 0;

  // One read as the server runs it (server.cc RunCached); `op` < 0 replays
  // untraced (the set-up fill).
  auto read = [&](const Statement& s, int64_t op, Tracer* t,
                  bool drive) -> std::string {
    ScopedSpan root(t, "op", op);
    {
      ScopedSpan span(t, "sql.parse", op);
      (void)rasql::sql::Parser::ParseScript(s.sql);
    }
    std::shared_ptr<const srv::PlanEntry> entry;
    {
      ScopedSpan span(t, "server.plan_cache", op);
      entry = plans.LookupSql(s.sql);
    }
    if (entry == nullptr) {
      srv::PlanEntry fresh;
      {
        ScopedSpan span(t, "engine.plan_key", op);
        auto key = replica.NormalizedPlanKey(s.sql);
        if (!key.ok()) return "";
        fresh.plan_key = std::move(key).value();
      }
      ScopedSpan span(t, "server.plan_cache", op);
      auto parsed = rasql::sql::Parser::ParseScript(s.sql);
      fresh.sql = s.sql;
      fresh.tables = rasql::sql::ReferencedTables(*parsed->at(0).query);
      entry = plans.Intern(std::move(fresh));
    }
    std::vector<std::pair<std::string, uint64_t>> versions;
    for (const std::string& table : entry->tables) {
      versions.emplace_back(table, replica.TableVersion(table));
    }
    const std::string key = srv::ResultCache::MakeKey(entry->plan_key,
                                                      versions);
    std::shared_ptr<const srv::CachedResult> cached;
    srv::ResultCache::Outcome outcome = srv::ResultCache::Outcome::kMiss;
    {
      ScopedSpan span(t, "server.result_cache", op);
      cached = results.Lookup(key, entry->plan_key, &outcome);
    }
    std::string body;
    if (cached == nullptr) {
      if (outcome == srv::ResultCache::Outcome::kRefresh) ++refreshes;
      srv::CachedResult cold;
      if (drive) {
        // Layer by layer, then Execute untraced: the two must agree, so
        // the replay cannot drift from the engine's dispatch.
        TableMap bindings;
        for (const auto& [name, rel] : data_.relations) {
          bindings[name] = replica.FindTable(name);
        }
        auto driven = DriveQuery(s.sql, replica.config(), bindings, catalog,
                                 t, op);
        auto executed = replica.Execute(s.sql);
        if (!driven.ok() || !executed.ok() ||
            !rasql::storage::SameBag(driven->relation, executed->relation)) {
          out_.Fail("layer replay diverges from Execute");
          return "";
        }
        iterations.push_back(driven->stats.iterations);
        delta_rows.push_back(
            static_cast<double>(driven->stats.total_delta_rows));
        plan_execs.push_back(
            static_cast<double>(driven->stats.plan_executions));
        cpu_ms.push_back(driven->cpu_seconds * 1e3);
        cold.execution = std::move(executed).value();
      } else {
        if (t != nullptr) {
          // Linter::LintQuery, which Execute runs per query under
          // `incremental`, timed on its own.
          auto parsed = rasql::sql::Parser::ParseScript(s.sql);
          ScopedSpan span(t, "lint.lint", op);
          rasql::lint::Linter linter(&catalog);
          (void)linter.LintQuery(*parsed->at(0).query);
        }
        const double cpu_start = ProcessCpuSeconds();
        {
          ScopedSpan span(t, "engine.execute", op);
          auto executed = replica.Execute(s.sql);
          if (!executed.ok()) return "";
          cold.execution = std::move(executed).value();
        }
        if (t != nullptr) {
          const auto& st = cold.execution.fixpoint_stats;
          iterations.push_back(st.iterations);
          delta_rows.push_back(static_cast<double>(st.total_delta_rows));
          plan_execs.push_back(static_cast<double>(st.plan_executions));
          cpu_ms.push_back((ProcessCpuSeconds() - cpu_start) * 1e3);
          if (outcome == srv::ResultCache::Outcome::kRefresh) {
            warm_starts += st.warm_starts;
            saved.push_back(st.iterations_saved);
            seed_rows.push_back(static_cast<double>(st.seed_delta_rows));
          }
        }
      }
      cached = results.Insert(key, entry->plan_key, std::move(cold),
                              entry->tables);
    }
    {
      ScopedSpan span(t, "storage.format", op);
      body = rasql::storage::FormatRelation(
          cached->execution.relation, rasql::storage::ResultFormat::kCsv);
    }
    {
      ScopedSpan span(t, "server.frame", op);
      srv::ResultPayload payload;
      payload.cache_hit = outcome == srv::ResultCache::Outcome::kHit;
      payload.body = body;
      srv::Frame frame;
      frame.type = srv::FrameType::kResult;
      frame.payload = srv::EncodeResultPayload(payload);
      std::string wire = srv::EncodeFrame(frame);
      srv::Frame decoded;
      if (srv::TryDecodeFrame(&wire, &decoded) != 1 ||
          !srv::DecodeResultPayload(decoded.payload).ok()) {
        out_.Fail("RESULT frame round trip");
      }
    }
    if (t != nullptr) result_kb.push_back(body.size() / 1e3);
    return body;
  };

  for (size_t i = 0; i < hot_count_; ++i) {
    read(statements_[i], -1, nullptr, false);
  }

  // Replay in send order, the order the server admitted them.
  std::vector<size_t> order;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (kinds[i] != Kind::kFailed) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return recs[a].wake < recs[b].wake;
  });
  std::vector<double> client_ms[kKinds];
  for (size_t i : order) {
    const int64_t op = static_cast<int64_t>(i);
    client_ms[static_cast<int>(kinds[i])].push_back(
        SecondsBetween(recs[i].wake, recs[i].done) * 1e3);
    if (ops[i].kind == OpKind::kWrite) {
      ScopedSpan root(tracer, "op", op);
      ScopedSpan span(tracer, "engine.insert", op);
      if (!replica.Execute(ops[i].sql).ok()) out_.Fail("replayed INSERT");
      if (!Config().incremental) results.InvalidateTable("edge");
      continue;
    }
    const Statement& s = statements_[ops[i].stmt];
    const std::string body = read(s, op, tracer, !write_ && !s.hot);
    // Without writes the replica serves exactly what the server did.
    if (!write_ && Fingerprint(body) != recs[i].fp) {
      out_.Fail("replayed read differs from the served body");
    }
  }

  // Server overhead: the client span minus the replayed in-process work
  // (every span of the op but the standalone lint pass, which Execute
  // repeats internally).
  std::map<int64_t, double> work;
  for (const char* name :
       {"op", "sql.parse", "server.plan_cache", "engine.plan_key",
        "server.result_cache", "analysis.analyze", "plan.optimize",
        "fixpoint.eval", "physical.body", "storage.format", "server.frame",
        "engine.insert", "engine.execute"}) {
    for (const auto& [op, seconds] : tracer->SelfSecondsByOp(name)) {
      work[op] += seconds;
    }
  }
  for (size_t i : order) {
    overhead_ms.push_back(SecondsBetween(recs[i].wake, recs[i].done) * 1e3 -
                          work[static_cast<int64_t>(i)] * 1e3);
  }

  auto us = [&](const char* span) {
    return Median(tracer->SelfSeconds(span)) * 1e6;
  };
  auto ms = [&](const char* span) {
    return Median(tracer->SelfSeconds(span)) * 1e3;
  };
  std::vector<double> eval_ms;
  for (const auto& [op, seconds] : tracer->SelfSecondsByOp("fixpoint.eval")) {
    eval_ms.push_back(seconds * 1e3);
  }
  double table_bytes = 0;
  for (const auto& [name, rel] : data_.relations) table_bytes += rel.ByteSize();

  Metrics& lm = out_.metrics;
  lm.Set("sql.parse_us", us("sql.parse"), "us");
  lm.Set("analysis.analyze_us", us("analysis.analyze"), "us");
  lm.Set("plan.optimize_us", us("plan.optimize"), "us");
  lm.Set("engine.plan_key_us", us("engine.plan_key"), "us");
  lm.Set("engine.insert_us", us("engine.insert"), "us");
  lm.Set("lint.lint_us", us("lint.lint"), "us");
  lm.Set("fixpoint.eval_ms", Median(eval_ms), "ms");
  lm.Set("fixpoint.iterations", Mean(iterations), "count");
  lm.Set("fixpoint.delta_rows", Mean(delta_rows), "count");
  lm.Set("fixpoint.plan_executions", Mean(plan_execs), "count");
  lm.Set("fixpoint.warm_ratio",
         refreshes > 0 ? static_cast<double>(warm_starts) / refreshes : 0,
         "ratio");
  lm.Set("fixpoint.iterations_saved", Mean(saved), "count");
  lm.Set("fixpoint.seed_delta_rows", Mean(seed_rows), "count");
  lm.Set("runtime.cpu_ms", Median(cpu_ms), "ms");
  lm.Set("physical.body_ms", ms("physical.body"), "ms");
  lm.Set("storage.format_ms", ms("storage.format"), "ms");
  lm.Set("storage.result_kb", Mean(result_kb), "KB");
  lm.Set("storage.table_mb", table_bytes / 1e6, "MB");
  lm.Set("server.frame_us", us("server.frame"), "us");
  lm.Set("server.overhead_ms", Median(overhead_ms), "ms");
  lm.Set("client.hit_ms", Median(client_ms[static_cast<int>(Kind::kHit)]),
         "ms");
  lm.Set("client.miss_ms", Median(client_ms[static_cast<int>(Kind::kMiss)]),
         "ms");
  lm.Set("client.refresh_ms",
         Median(client_ms[static_cast<int>(Kind::kRefresh)]), "ms");
  lm.Set("client.write_ms", Median(client_ms[static_cast<int>(Kind::kWrite)]),
         "ms");
}

}  // namespace

Outcome RunServe(const Args& args, bool write) {
  ServeBench bench(args, write);
  return bench.Run();
}

}  // namespace perfbench
