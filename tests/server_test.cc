// Tests for the query server stack (DESIGN.md §12): wire framing, the
// prepared-plan and result caches, and end-to-end serving over real
// sockets — including the cache-correctness crossval that re-validates
// every cache hit against a cold RaSqlContext::Execute.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/rasql_context.h"
#include "server/client.h"
#include "server/frame.h"
#include "server/plan_cache.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "storage/relation.h"
#include "storage/result_format.h"

namespace rasql::server {
namespace {

using storage::MakeIntRelation;
using storage::Relation;
using storage::ResultFormat;
using storage::Schema;
using storage::Value;
using storage::ValueType;

constexpr char kTc[] = R"(
    WITH recursive tc (Src, Dst) AS
      (SELECT Src, Dst FROM edge) UNION
      (SELECT tc.Src, edge.Dst FROM tc, edge WHERE tc.Dst = edge.Src)
    SELECT Src, Dst FROM tc)";

constexpr char kSssp[] = R"(
    WITH recursive path (Dst, min() AS Cost) AS
      (SELECT 1, 0.0) UNION
      (SELECT edge.Dst, path.Cost + edge.Cost
       FROM path, edge WHERE path.Dst = edge.Src)
    SELECT Dst, Cost FROM path)";

Relation WeightedEdges() {
  Relation rel{Schema::Of({{"Src", ValueType::kInt64},
                           {"Dst", ValueType::kInt64},
                           {"Cost", ValueType::kDouble}})};
  const std::vector<std::tuple<int64_t, int64_t, double>> edges = {
      {1, 2, 1.0}, {2, 3, 2.0}, {3, 4, 1.0}, {1, 3, 5.0},
      {4, 5, 1.0}, {2, 5, 9.0}, {5, 6, 2.0}, {3, 6, 8.0}};
  for (const auto& [s, d, c] : edges) {
    rel.Add({Value::Int(s), Value::Int(d), Value::Double(c)});
  }
  return rel;
}

std::unique_ptr<engine::RaSqlContext> MakeSeededContext(
    engine::EngineConfig config = {}) {
  auto ctx = std::make_unique<engine::RaSqlContext>(std::move(config));
  EXPECT_TRUE(ctx->RegisterTable("edge", WeightedEdges()).ok());
  return ctx;
}

/// A server on an ephemeral port over its own context, torn down on
/// destruction.
struct TestServer {
  explicit TestServer(ServerOptions options = {},
                      engine::EngineConfig config = {}) {
    ctx = MakeSeededContext(std::move(config));
    options.port = 0;
    server = std::make_unique<Server>(ctx.get(), options);
    auto status = server->Start();
    EXPECT_TRUE(status.ok()) << status;
  }
  ~TestServer() { server->Stop(); }

  Client Connect() {
    Client client;
    EXPECT_TRUE(client.Connect(server->port()).ok());
    return client;
  }

  std::unique_ptr<engine::RaSqlContext> ctx;
  std::unique_ptr<Server> server;
};

/// The crossval at the heart of the cache-correctness satellite: the
/// served result (cached or not) must match a cold Execute on a freshly
/// seeded context — identical serialized rows AND identical fixpoint
/// statistics.
void ExpectMatchesColdExecution(const ClientResult& served,
                                const std::string& sql) {
  auto cold_ctx = MakeSeededContext();
  auto cold = cold_ctx->Execute(sql);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(served.body,
            storage::FormatRelation(cold->relation, served.format));
  EXPECT_EQ(served.iterations, cold->fixpoint_stats.iterations);
  EXPECT_EQ(served.total_delta_rows, cold->fixpoint_stats.total_delta_rows);
  EXPECT_EQ(served.plan_executions, cold->fixpoint_stats.plan_executions);
  EXPECT_EQ(served.used_semi_naive, cold->fixpoint_stats.used_semi_naive);
}

// ---- Framing ----

TEST(FrameTest, RoundTripsThroughBuffer) {
  Frame in;
  in.type = FrameType::kQuery;
  in.payload = std::string("\x01", 1) + "SELECT 1";
  std::string buffer = EncodeFrame(in);
  buffer += EncodeFrame(Frame{FrameType::kExplain, "SELECT 2"});

  Frame out;
  ASSERT_EQ(TryDecodeFrame(&buffer, &out), 1);
  EXPECT_EQ(out.type, FrameType::kQuery);
  EXPECT_EQ(out.payload, in.payload);
  ASSERT_EQ(TryDecodeFrame(&buffer, &out), 1);
  EXPECT_EQ(out.type, FrameType::kExplain);
  EXPECT_EQ(out.payload, "SELECT 2");
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(TryDecodeFrame(&buffer, &out), 0);
}

TEST(FrameTest, PartialFrameNeedsMoreBytes) {
  const std::string whole = EncodeFrame(Frame{FrameType::kPrepare, "abcdef"});
  Frame out;
  for (size_t cut = 0; cut < whole.size(); ++cut) {
    std::string buffer = whole.substr(0, cut);
    EXPECT_EQ(TryDecodeFrame(&buffer, &out), 0) << "cut=" << cut;
  }
}

TEST(FrameTest, OversizedLengthIsMalformed) {
  std::string buffer;
  AppendU32(&buffer, kMaxFrameBytes + 1);
  buffer += std::string(8, 'x');
  Frame out;
  EXPECT_EQ(TryDecodeFrame(&buffer, &out), -1);
}

TEST(FrameTest, ResultPayloadRoundTrip) {
  ResultPayload in;
  in.format = ResultFormat::kJson;
  in.cache_hit = true;
  in.iterations = 7;
  in.total_delta_rows = 1234567;
  in.plan_executions = 42;
  in.used_semi_naive = true;
  in.body = "[{\"a\": 1}]";
  auto out = DecodeResultPayload(EncodeResultPayload(in));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->format, in.format);
  EXPECT_EQ(out->cache_hit, in.cache_hit);
  EXPECT_EQ(out->iterations, in.iterations);
  EXPECT_EQ(out->total_delta_rows, in.total_delta_rows);
  EXPECT_EQ(out->plan_executions, in.plan_executions);
  EXPECT_EQ(out->used_semi_naive, in.used_semi_naive);
  EXPECT_EQ(out->body, in.body);
}

TEST(FrameTest, ErrorPayloadRoundTrip) {
  auto out = DecodeErrorPayload(
      EncodeErrorPayload(ErrorCode::kAdmissionRejected, "full"));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->first, ErrorCode::kAdmissionRejected);
  EXPECT_EQ(out->second, "full");
}

// ---- Caches ----

TEST(PlanCacheTest, InternsBySqlAndKey) {
  PlanCache cache(4);
  EXPECT_EQ(cache.LookupSql("q1"), nullptr);
  bool existed = true;
  auto entry = cache.Intern({"q1", "planA", {"edge"}}, &existed);
  EXPECT_FALSE(existed);
  EXPECT_EQ(cache.LookupSql("q1"), entry);
  // A textually different query compiling to the same plan key interns to
  // the same entry.
  auto other = cache.Intern({"q2", "planA", {"edge"}}, &existed);
  EXPECT_TRUE(existed);
  EXPECT_EQ(other, entry);
  EXPECT_EQ(cache.LookupSql("q2"), entry);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  cache.Intern({"a", "ka", {}});
  cache.Intern({"b", "kb", {}});
  ASSERT_NE(cache.LookupSql("a"), nullptr);  // touches "a"; "b" is now LRU
  cache.Intern({"c", "kc", {}});
  EXPECT_EQ(cache.LookupSql("b"), nullptr);
  EXPECT_NE(cache.LookupSql("a"), nullptr);
  EXPECT_NE(cache.LookupSql("c"), nullptr);
}

TEST(ResultCacheTest, KeyChangesWithVersions) {
  const std::string k1 = ResultCache::MakeKey("plan", {{"edge", 1}});
  const std::string k2 = ResultCache::MakeKey("plan", {{"edge", 2}});
  EXPECT_NE(k1, k2);
}

TEST(ResultCacheTest, InvalidateTablePurgesDependents) {
  ResultCache cache(8);
  CachedResult r1;
  cache.Insert(ResultCache::MakeKey("p1", {{"edge", 1}}), "p1", std::move(r1),
               {"edge"});
  CachedResult r2;
  cache.Insert(ResultCache::MakeKey("p2", {{"other", 1}}), "p2",
               std::move(r2), {"other"});
  EXPECT_EQ(cache.InvalidateTable("edge"), 1u);
  EXPECT_EQ(cache.Lookup(ResultCache::MakeKey("p1", {{"edge", 1}})), nullptr);
  EXPECT_NE(cache.Lookup(ResultCache::MakeKey("p2", {{"other", 1}})),
            nullptr);
}

TEST(ResultCacheTest, RefreshOutcomeOnStaleSamePlanEntry) {
  ResultCache cache(8);
  CachedResult r1;
  cache.Insert(ResultCache::MakeKey("plan", {{"edge", 1}}), "plan",
               std::move(r1), {"edge"});

  // Exact key → hit.
  ResultCache::Outcome outcome = ResultCache::Outcome::kMiss;
  EXPECT_NE(cache.Lookup(ResultCache::MakeKey("plan", {{"edge", 1}}), "plan",
                         &outcome),
            nullptr);
  EXPECT_EQ(outcome, ResultCache::Outcome::kHit);

  // Same plan, bumped version (an INSERT landed) → refresh, no rows served.
  EXPECT_EQ(cache.Lookup(ResultCache::MakeKey("plan", {{"edge", 2}}), "plan",
                         &outcome),
            nullptr);
  EXPECT_EQ(outcome, ResultCache::Outcome::kRefresh);

  // Unrelated plan → plain miss.
  EXPECT_EQ(cache.Lookup(ResultCache::MakeKey("other", {{"edge", 2}}),
                         "other", &outcome),
            nullptr);
  EXPECT_EQ(outcome, ResultCache::Outcome::kMiss);

  // Re-memoizing under the new version vector purges the stale
  // predecessor: entry count stays 1 and the old key is gone for good.
  CachedResult r2;
  cache.Insert(ResultCache::MakeKey("plan", {{"edge", 2}}), "plan",
               std::move(r2), {"edge"});
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.Lookup(ResultCache::MakeKey("plan", {{"edge", 1}})),
            nullptr);
  EXPECT_EQ(cache.stats().refreshes, 1u);
}

// ---- End-to-end serving ----

TEST(ServerTest, QueryTwiceHitsSharedCacheAndMatchesColdExecution) {
  TestServer ts;
  Client c1 = ts.Connect();
  auto cold = c1.Query(kTc);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->cache_hit);
  ExpectMatchesColdExecution(*cold, kTc);

  // A different session hits the shared cache and gets bit-identical
  // bytes plus the memoized run's exact fixpoint statistics.
  Client c2 = ts.Connect();
  auto hit = c2.Query(kTc);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->body, cold->body);
  ExpectMatchesColdExecution(*hit, kTc);

  const ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.result_cache.hits, 1u);
  EXPECT_EQ(stats.result_cache.misses, 1u);
}

TEST(ServerTest, ResultCacheDisabledNeverHits) {
  ServerOptions options;
  options.enable_result_cache = false;
  TestServer ts(options);
  Client client = ts.Connect();
  for (int i = 0; i < 2; ++i) {
    auto result = client.Query(kTc);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->cache_hit);
    ExpectMatchesColdExecution(*result, kTc);
  }
}

TEST(ServerTest, PrepareExecuteSharesNormalizedPlans) {
  TestServer ts;
  Client c1 = ts.Connect();
  bool plan_hit = true;
  auto stmt = c1.Prepare(kSssp, &plan_hit);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_FALSE(plan_hit);

  auto first = c1.Execute(*stmt);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->cache_hit);
  ExpectMatchesColdExecution(*first, kSssp);

  auto second = c1.Execute(*stmt);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->body, first->body);
  ExpectMatchesColdExecution(*second, kSssp);

  // Another session preparing the same statement finds the interned plan.
  Client c2 = ts.Connect();
  auto stmt2 = c2.Prepare(kSssp, &plan_hit);
  ASSERT_TRUE(stmt2.ok()) << stmt2.status();
  EXPECT_TRUE(plan_hit);
  auto third = c2.Execute(*stmt2);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_TRUE(third->cache_hit);
  EXPECT_EQ(third->body, first->body);
}

TEST(ServerTest, InsertInvalidatesCacheAndHitsMatchColdAgain) {
  TestServer ts;
  Client client = ts.Connect();
  auto before = client.Query(kTc);
  ASSERT_TRUE(before.ok()) << before.status();
  auto warmed = client.Query(kTc);
  ASSERT_TRUE(warmed.ok());
  EXPECT_TRUE(warmed->cache_hit);

  // The write bumps edge's version: the next query must re-execute, and
  // its rows must match a cold context that saw the same insert.
  auto insert =
      client.Query("INSERT INTO edge VALUES (6, 1, 1.0), (6, 7, 0.5)");
  ASSERT_TRUE(insert.ok()) << insert.status();
  EXPECT_FALSE(insert->cache_hit);

  auto after = client.Query(kTc);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->cache_hit);
  EXPECT_NE(after->body, before->body);
  {
    auto cold_ctx = MakeSeededContext();
    auto inserted =
        cold_ctx->Execute("INSERT INTO edge VALUES (6, 1, 1.0), (6, 7, 0.5)");
    ASSERT_TRUE(inserted.ok()) << inserted.status();
    auto cold = cold_ctx->Execute(kTc);
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_EQ(after->body,
              storage::FormatRelation(cold->relation, after->format));
    EXPECT_EQ(after->iterations, cold->fixpoint_stats.iterations);
    EXPECT_EQ(after->total_delta_rows, cold->fixpoint_stats.total_delta_rows);
  }

  // And the re-warmed entry serves the post-insert rows, not the stale ones.
  auto rewarmed = client.Query(kTc);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_TRUE(rewarmed->cache_hit);
  EXPECT_EQ(rewarmed->body, after->body);
  EXPECT_GE(ts.server->stats().result_cache.invalidations, 1u);
}

TEST(ServerTest, MixedCaseWritesInvalidateNormalizedEntries) {
  // Regression for the table-name normalization chain: plan keys, the
  // result cache's dependency lists (sql::ReferencedTables), the version
  // counters, and both InvalidateTable call sites must all agree on
  // lowercase, so a write spelled in a different case still purges (and
  // never resurrects) entries cached under another spelling.
  TestServer ts;
  Client client = ts.Connect();
  auto before = client.Query(kTc);
  ASSERT_TRUE(before.ok()) << before.status();

  // A textually different spelling of the same table reuses the entry —
  // the key is the normalized plan, never the raw SQL.
  const std::string upper_tc = R"(
    WITH recursive tc (Src, Dst) AS
      (SELECT Src, Dst FROM EDGE) UNION
      (SELECT tc.Src, EDGE.Dst FROM tc, EDGE WHERE tc.Dst = EDGE.Src)
    SELECT Src, Dst FROM tc)";
  auto aliased = client.Query(upper_tc);
  ASSERT_TRUE(aliased.ok()) << aliased.status();
  EXPECT_TRUE(aliased->cache_hit);
  EXPECT_EQ(aliased->body, before->body);

  // The write names the table in yet another case; the cached entry
  // (keyed and dep-listed lowercase) must still be purged.
  auto insert = client.Query("INSERT INTO Edge VALUES (6, 1, 1.0)");
  ASSERT_TRUE(insert.ok()) << insert.status();
  EXPECT_GE(ts.server->stats().result_cache.invalidations, 1u);

  auto after = client.Query(kTc);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->cache_hit);
  EXPECT_NE(after->body, before->body);
}

TEST(ServerTest, IncrementalServerRefreshesInsteadOfInvalidating) {
  // Under --incremental the INSERT purge is skipped: the next same-plan
  // query classifies the stale entry as a *refresh*, recomputes (the
  // engine warm-starts internally) and re-memoizes under the new version
  // vector — and the served bytes are bit-identical to a cold context
  // that saw the same insert.
  engine::EngineConfig config;
  config.incremental = true;
  TestServer ts(ServerOptions{}, config);
  Client client = ts.Connect();
  auto before = client.Query(kTc);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_GE(ts.ctx->WarmStateEntries(), 1u);

  auto insert = client.Query("INSERT INTO edge VALUES (6, 1, 1.0)");
  ASSERT_TRUE(insert.ok()) << insert.status();
  EXPECT_EQ(ts.server->stats().result_cache.invalidations, 0u);

  auto refreshed = client.Query(kTc);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status();
  EXPECT_FALSE(refreshed->cache_hit);
  EXPECT_EQ(ts.server->stats().result_cache.refreshes, 1u);
  {
    auto cold_ctx = MakeSeededContext();
    auto inserted = cold_ctx->Execute("INSERT INTO edge VALUES (6, 1, 1.0)");
    ASSERT_TRUE(inserted.ok()) << inserted.status();
    auto cold = cold_ctx->Execute(kTc);
    ASSERT_TRUE(cold.ok()) << cold.status();
    // Row bytes are bit-identical; iteration counts legitimately differ
    // (the warm run resumes from the converged state — that is the
    // speedup being measured, not a divergence).
    EXPECT_EQ(refreshed->body,
              storage::FormatRelation(cold->relation, refreshed->format));
  }

  // The refreshed entry replaced the stale one: next lookup is a hit and
  // the cache holds one entry for this plan.
  auto hit = client.Query(kTc);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->body, refreshed->body);
  EXPECT_EQ(ts.server->stats().result_cache.entries, 1u);
}

TEST(ServerTest, JsonFormatMatchesShellWriter) {
  TestServer ts;
  Client client = ts.Connect();
  auto result = client.Query("SELECT Src, Cost FROM edge WHERE Dst = 2",
                             ResultFormat::kJson);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->format, ResultFormat::kJson);
  auto cold_ctx = MakeSeededContext();
  auto cold = cold_ctx->Execute("SELECT Src, Cost FROM edge WHERE Dst = 2");
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(result->body,
            storage::FormatRelation(cold->relation, ResultFormat::kJson));
  EXPECT_NE(result->body.find("\"Src\": 1"), std::string::npos)
      << result->body;
}

TEST(ServerTest, TypedErrorsForBadSqlAndUnknownStatement) {
  TestServer ts;
  Client client = ts.Connect();
  auto bad = client.Query("SELEKT 1");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(client.last_error_code(), ErrorCode::kParse);

  auto missing = client.Query("SELECT A FROM no_such_table");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(client.last_error_code(), ErrorCode::kAnalysis);

  auto unknown = client.Execute(999);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(client.last_error_code(), ErrorCode::kUnknownStatement);

  // The session survives typed errors.
  auto ok = client.Query("SELECT Src FROM edge WHERE Dst = 2");
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(ServerTest, OverlyNestedSqlIsAParseErrorAndServingContinues) {
  TestServer ts;
  Client client = ts.Connect();
  // Far past the parser's nesting cap: an ERROR frame, not a crashed
  // server.
  const std::string deep =
      "SELECT " + std::string(200000, '(') + "1" + std::string(200000, ')');
  auto bad = client.Query(deep);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(client.last_error_code(), ErrorCode::kParse);

  // A deep expression under the cap is served, on the same session and on
  // a new one.
  std::string nested = "Src";
  for (int i = 0; i < 70; ++i) nested = "1 + (" + nested + ")";
  auto ok = client.Query("SELECT " + nested + " FROM edge WHERE Dst = 2");
  ASSERT_TRUE(ok.ok()) << ok.status();
  Client other = ts.Connect();
  auto again = other.Query("SELECT Src FROM edge WHERE Dst = 2");
  EXPECT_TRUE(again.ok()) << again.status();
}

TEST(ServerTest, Int64MinDividedByMinusOneWrapsAndServingContinues) {
  TestServer ts;
  Client client = ts.Connect();
  // INT64_MIN / -1 traps in hardware; the engine defines it as INT64_MIN
  // (two's-complement wrap), so the query is answered, not a dead server.
  auto wrapped = client.Query(
      "SELECT (Src - Src - 9223372036854775807 - 1) / -1 FROM edge "
      "WHERE Src = 1");
  ASSERT_TRUE(wrapped.ok()) << wrapped.status();
  std::istringstream lines(wrapped->body);
  std::string line;
  std::getline(lines, line);  // CSV header
  int rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line, "-9223372036854775808");
    ++rows;
  }
  EXPECT_EQ(rows, 2);

  auto again = ts.Connect().Query("SELECT Src FROM edge WHERE Dst = 2");
  EXPECT_TRUE(again.ok()) << again.status();
}

TEST(ServerTest, OverlyWideFromListIsAParseErrorAndServingContinues) {
  TestServer ts;
  ASSERT_TRUE(
      ts.ctx->RegisterTable("one", MakeIntRelation({"a"}, {{1}})).ok());
  Client client = ts.Connect();
  // Past the FROM-list cap the join tree's schemas would grow
  // quadratically; the parser refuses the list before any plan exists.
  std::string wide = "SELECT t0.a FROM one t0";
  for (int i = 1; i < 300; ++i) wide += ", one t" + std::to_string(i);
  auto bad = client.Query(wide);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(client.last_error_code(), ErrorCode::kParse);

  auto ok = client.Query("SELECT t0.a FROM one t0, one t1");
  ASSERT_TRUE(ok.ok()) << ok.status();
  auto again = client.Query("SELECT Src FROM edge WHERE Dst = 2");
  EXPECT_TRUE(again.ok()) << again.status();
}

TEST(ServerTest, AdmissionControlRejectsWithTypedError) {
  // max_queue_depth=0 makes every request overflow the queue — the
  // deterministic version of "exec slots saturated, queue full".
  ServerOptions options;
  options.max_queue_depth = 0;
  TestServer ts(options);
  Client client = ts.Connect();
  auto rejected = client.Query("SELECT Src FROM edge");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(client.last_error_code(), ErrorCode::kAdmissionRejected);
  EXPECT_GE(ts.server->stats().admission_rejects, 1u);
}

TEST(ServerTest, ConcurrentSessionsSeeIdenticalResults) {
  ServerOptions options;
  options.io_slots = 2;
  options.exec_slots = 4;
  TestServer ts(options);

  constexpr int kSessions = 8;
  constexpr int kQueriesEach = 4;
  std::vector<std::string> bodies(kSessions);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&ts, &bodies, i] {
      Client client;
      ASSERT_TRUE(client.Connect(ts.server->port()).ok());
      for (int q = 0; q < kQueriesEach; ++q) {
        const char* sql = (i + q) % 2 == 0 ? kTc : kSssp;
        auto result = client.Query(sql);
        ASSERT_TRUE(result.ok()) << result.status();
        if (q == 0 && i % 2 == 0) bodies[i] = result->body;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every even session ran kTc first; all must have produced identical
  // bytes regardless of which session warmed the cache.
  for (int i = 2; i < kSessions; i += 2) EXPECT_EQ(bodies[i], bodies[0]);
  const ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kSessions * kQueriesEach));
  EXPECT_GE(stats.result_cache.hits, 1u);
}

TEST(ServerTest, ExplainRoundTrip) {
  TestServer ts;
  Client client = ts.Connect();
  auto rendering = client.Explain(kTc);
  ASSERT_TRUE(rendering.ok()) << rendering.status();
  EXPECT_NE(rendering->find("TableScan"), std::string::npos) << *rendering;
}

TEST(ServerTest, StopWithConnectedSessionsReturns) {
  auto ts = std::make_unique<TestServer>();
  Client client = ts->Connect();
  auto result = client.Query("SELECT Src FROM edge WHERE Dst = 2");
  ASSERT_TRUE(result.ok());
  ts->server->Stop();
  ts.reset();  // double-stop via destructor must also be safe
}

}  // namespace
}  // namespace rasql::server
