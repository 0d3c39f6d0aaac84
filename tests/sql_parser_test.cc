#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sql/lexer.h"
#include "sql/parser.h"

namespace rasql::sql {
namespace {

using expr::AggregateFunction;
using expr::BinaryOp;

TEST(LexerTest, BasicTokens) {
  auto tokens = Lex("SELECT x, 42 FROM t WHERE y <= 3.5");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // incl. kEnd
  EXPECT_TRUE((*tokens)[0].IsKeyword("select"));
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[3].int_value, 42);
  EXPECT_EQ((*tokens)[8].type, TokenType::kLe);
  EXPECT_DOUBLE_EQ((*tokens)[9].double_value, 3.5);
}

TEST(LexerTest, CommentsAndStrings) {
  auto tokens = Lex("-- a comment\nSELECT 'it''s'");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[1].type, TokenType::kStringLiteral);
  EXPECT_EQ((*tokens)[1].text, "it's");
}

TEST(LexerTest, OperatorVariants) {
  auto tokens = Lex("a <> b != c >= d");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[3].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[5].type, TokenType::kGe);
}

TEST(LexerTest, ReportsErrorsWithPosition) {
  auto tokens = Lex("SELECT 'unterminated");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("line 1"), std::string::npos);
  EXPECT_FALSE(Lex("SELECT #").ok());
}

TEST(LexerTest, OutOfRangeIntegerLiteralsAreParseErrors) {
  // strtoll would saturate each of these at INT64_MAX.
  for (const char* sql :
       {"SELECT a FROM t WHERE a = 9223372036854775808",
        "SELECT a FROM t WHERE a = 99999999999999999999",
        "SELECT 9223372036854775808 FROM t WHERE a = 5"}) {
    auto q = Parser::ParseQuery(sql);
    ASSERT_FALSE(q.ok()) << sql;
    EXPECT_EQ(q.status().code(), common::StatusCode::kParseError) << sql;
    EXPECT_NE(q.status().message().find("out of range"), std::string::npos)
        << q.status().message();
  }
}

TEST(LexerTest, Int64BoundsStillLex) {
  auto tokens = Lex("9223372036854775807");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  EXPECT_EQ((*tokens)[0].type, TokenType::kIntLiteral);
  EXPECT_EQ((*tokens)[0].int_value, INT64_MAX);
  // INT64_MIN is written as an expression over in-range literals.
  EXPECT_TRUE(
      Parser::ParseQuery("SELECT -9223372036854775807 - 1 FROM t").ok());
}

TEST(ParserTest, SimpleSelect) {
  auto q = Parser::ParseQuery("SELECT Src, Dst FROM edge WHERE Src = 1");
  ASSERT_TRUE(q.ok()) << q.status();
  const SelectStmt& body = *q->body;
  EXPECT_EQ(body.items.size(), 2u);
  EXPECT_EQ(body.from.size(), 1u);
  EXPECT_EQ(body.from[0].table_name, "edge");
  ASSERT_NE(body.where, nullptr);
  EXPECT_EQ(body.where->op, BinaryOp::kEq);
}

TEST(ParserTest, TableAliases) {
  auto q = Parser::ParseQuery(
      "SELECT a.Child, b.Child FROM rel a, rel AS b WHERE a.P = b.P");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->body->from[0].alias, "a");
  EXPECT_EQ(q->body->from[1].alias, "b");
  EXPECT_EQ(q->body->items[0].expr->qualifier, "a");
}

TEST(ParserTest, ExpressionPrecedence) {
  auto q = Parser::ParseQuery("SELECT 1 + 2 * 3");
  ASSERT_TRUE(q.ok());
  const AstExpr& e = *q->body->items[0].expr;
  ASSERT_EQ(e.kind, AstExpr::Kind::kBinary);
  EXPECT_EQ(e.op, BinaryOp::kAdd);
  EXPECT_EQ(e.rhs->op, BinaryOp::kMul);
}

TEST(ParserTest, BooleanPrecedence) {
  auto q = Parser::ParseQuery("SELECT 1 FROM t WHERE a = 1 AND b = 2 OR c = 3");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->body->where->op, BinaryOp::kOr);
  EXPECT_EQ(q->body->where->lhs->op, BinaryOp::kAnd);
}

TEST(ParserTest, NegativeLiteralFolds) {
  auto q = Parser::ParseQuery("SELECT -5, -2.5");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->body->items[0].expr->kind, AstExpr::Kind::kLiteral);
  EXPECT_EQ(q->body->items[0].expr->literal.AsInt(), -5);
  EXPECT_DOUBLE_EQ(q->body->items[1].expr->literal.AsDouble(), -2.5);
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  auto q = Parser::ParseQuery(
      "SELECT Part, max(Days) FROM waitfor GROUP BY Part "
      "HAVING max(Days) > 3 ORDER BY Part DESC LIMIT 10");
  ASSERT_TRUE(q.ok()) << q.status();
  const SelectStmt& body = *q->body;
  EXPECT_EQ(body.group_by.size(), 1u);
  ASSERT_NE(body.having, nullptr);
  EXPECT_EQ(body.order_by.size(), 1u);
  EXPECT_FALSE(body.order_by[0].ascending);
  EXPECT_EQ(body.limit, 10);
  EXPECT_EQ(body.items[1].expr->kind, AstExpr::Kind::kAggCall);
  EXPECT_EQ(body.items[1].expr->agg_fn, AggregateFunction::kMax);
}

TEST(ParserTest, CountDistinctAndStar) {
  auto q = Parser::ParseQuery(
      "SELECT count(distinct cc.CmpId), count(*) FROM cc");
  ASSERT_TRUE(q.ok()) << q.status();
  const AstExpr& d = *q->body->items[0].expr;
  EXPECT_TRUE(d.distinct);
  EXPECT_EQ(d.agg_fn, AggregateFunction::kCount);
  const AstExpr& star = *q->body->items[1].expr;
  EXPECT_EQ(star.lhs->kind, AstExpr::Kind::kStar);
}

// The paper's Q2 (BOM endo-max query).
constexpr char kBomQuery[] = R"(
WITH recursive waitfor(Part, max() as Days) AS
  (SELECT Part, Days FROM basic) UNION
  (SELECT assbl.Part, waitfor.Days
   FROM assbl, waitfor
   WHERE assbl.Spart = waitfor.Part)
SELECT Part, Days FROM waitfor
)";

TEST(ParserTest, RecursiveAggregateCte) {
  auto q = Parser::ParseQuery(kBomQuery);
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->ctes.size(), 1u);
  const CteDef& cte = q->ctes[0];
  EXPECT_TRUE(cte.recursive);
  EXPECT_EQ(cte.name, "waitfor");
  ASSERT_EQ(cte.columns.size(), 2u);
  EXPECT_EQ(cte.columns[0].aggregate, AggregateFunction::kNone);
  EXPECT_EQ(cte.columns[1].aggregate, AggregateFunction::kMax);
  EXPECT_EQ(cte.columns[1].name, "Days");
  EXPECT_EQ(cte.branches.size(), 2u);
}

// SSSP (paper Example 1): base case is a literal select with no FROM.
TEST(ParserTest, SsspQuery) {
  auto q = Parser::ParseQuery(R"(
    WITH recursive path (Dst, min() AS Cost) AS
      (SELECT 1, 0) UNION
      (SELECT edge.Dst, path.Cost + edge.Cost
       FROM path, edge
       WHERE path.Dst = edge.Src)
    SELECT Dst, Cost FROM path)");
  ASSERT_TRUE(q.ok()) << q.status();
  const CteDef& cte = q->ctes[0];
  EXPECT_TRUE(cte.branches[0]->from.empty());
  EXPECT_EQ(cte.columns[1].aggregate, AggregateFunction::kMin);
}

// Mutual recursion (paper Example 8, Company Control).
TEST(ParserTest, MutualRecursion) {
  auto q = Parser::ParseQuery(R"(
    WITH recursive cshares(ByCom, OfCom, sum() AS Tot) AS
      (SELECT By, Of, Percent FROM shares) UNION
      (SELECT control.Com1, cshares.OfCom, cshares.Tot
       FROM control, cshares
       WHERE control.Com2 = cshares.ByCom),
    recursive control(Com1, Com2) AS
      (SELECT ByCom, OfCom FROM cshares WHERE Tot > 50)
    SELECT ByCom, OfCom, Tot FROM cshares)");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->ctes.size(), 2u);
  EXPECT_EQ(q->ctes[0].name, "cshares");
  EXPECT_EQ(q->ctes[1].name, "control");
  EXPECT_EQ(q->ctes[1].branches.size(), 1u);
}

// `all` must be usable as a view name (PreM-checking rewrite, Appendix G)
// while UNION ALL still parses.
TEST(ParserTest, AllAsViewNameAndUnionAll) {
  auto q = Parser::ParseQuery(R"(
    WITH recursive all(Src, Dst) AS
      (SELECT Src, Dst FROM edge) UNION ALL
      (SELECT all.Src, edge.Dst FROM all, edge WHERE all.Dst = edge.Src)
    SELECT Src, Dst FROM all)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->ctes[0].name, "all");
  EXPECT_EQ(q->ctes[0].branches.size(), 2u);
}

TEST(ParserTest, CreateViewScript) {
  auto script = Parser::ParseScript(R"(
    CREATE VIEW lstart(T) AS
      (SELECT a.S FROM inter a, inter b WHERE a.S <= b.E
       GROUP BY a.S HAVING a.S = min(b.S));
    WITH recursive coal (S, max() AS E) AS
      (SELECT lstart.T, inter.E FROM lstart, inter
       WHERE lstart.T = inter.S) UNION
      (SELECT coal.S, inter.E FROM coal, inter
       WHERE coal.S <= inter.S AND inter.S <= coal.E)
    SELECT S, E FROM coal)");
  ASSERT_TRUE(script.ok()) << script.status();
  ASSERT_EQ(script->size(), 2u);
  EXPECT_EQ((*script)[0].kind, Statement::Kind::kCreateView);
  EXPECT_EQ((*script)[0].create_view->name, "lstart");
  EXPECT_EQ((*script)[1].kind, Statement::Kind::kQuery);
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto q = Parser::ParseQuery("SELECT FROM t");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("line 1"), std::string::npos);

  EXPECT_FALSE(Parser::ParseQuery("WITH x() AS (SELECT 1) SELECT 1").ok());
  EXPECT_FALSE(Parser::ParseQuery("SELECT 1 FROM").ok());
  EXPECT_FALSE(Parser::ParseQuery("SELECT (1 + ").ok());
  EXPECT_FALSE(Parser::ParseQuery("SELECT 1 LIMIT x").ok());
  EXPECT_FALSE(Parser::ParseQuery("SELECT 1 extra garbage ,").ok());
}

std::string Parenthesized(int levels) {
  return "SELECT " + std::string(levels, '(') + "1" +
         std::string(levels, ')');
}

TEST(ParserTest, NestingDepthIsCapped) {
  // Exactly at the cap parses; one level over is a typed parse error.
  EXPECT_TRUE(Parser::ParseQuery(Parenthesized(Parser::kMaxExprDepth)).ok());
  auto over = Parser::ParseQuery(Parenthesized(Parser::kMaxExprDepth + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), common::StatusCode::kParseError);
  EXPECT_NE(over.status().message().find("nests deeper than"),
            std::string::npos);
  // Hostile depths fail the same way instead of overflowing the stack.
  EXPECT_EQ(Parser::ParseQuery(Parenthesized(200000)).status().code(),
            common::StatusCode::kParseError);
  std::string negations = "SELECT ";
  for (int i = 0; i < 200000; ++i) negations += "- ";
  EXPECT_FALSE(Parser::ParseQuery(negations + "1").ok());
  std::string nots = "SELECT a FROM t WHERE ";
  for (int i = 0; i < 100000; ++i) nots += "NOT ";
  EXPECT_FALSE(Parser::ParseQuery(nots + "a = 1").ok());
}

TEST(ParserTest, ExpressionHeightIsCapped) {
  // A flat chain nests no parentheses but builds a left-deep tree whose
  // height every downstream walker recurses over.
  auto chain = [](int operands) {
    std::string sql = "SELECT 1";
    for (int i = 1; i < operands; ++i) sql += " + 1";
    return sql;
  };
  EXPECT_TRUE(Parser::ParseQuery(chain(Parser::kMaxExprDepth / 2)).ok());
  auto tall = Parser::ParseQuery(chain(Parser::kMaxExprDepth + 1));
  ASSERT_FALSE(tall.ok());
  EXPECT_EQ(tall.status().code(), common::StatusCode::kParseError);
  EXPECT_FALSE(Parser::ParseQuery(chain(100000)).ok());

  // A deep right-nested expression under the cap parses and keeps its
  // shape: 1 + (1 + (... edge.Src)).
  std::string nested = "edge.Src";
  for (int i = 0; i < 70; ++i) nested = "1 + (" + nested + ")";
  auto q = Parser::ParseQuery("SELECT " + nested + " FROM edge");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->body->items[0].expr->height, 71);
}

std::string WideFrom(int tables) {
  std::string sql = "SELECT t0.a FROM one t0";
  for (int i = 1; i < tables; ++i) sql += ", one t" + std::to_string(i);
  return sql;
}

TEST(ParserTest, FromListLengthIsCapped) {
  // Every FROM item adds a join level; the list is capped like nesting.
  auto at_cap = Parser::ParseQuery(WideFrom(Parser::kMaxExprDepth));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status();
  EXPECT_EQ(at_cap->body->from.size(),
            static_cast<size_t>(Parser::kMaxExprDepth));
  auto over = Parser::ParseQuery(WideFrom(Parser::kMaxExprDepth + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), common::StatusCode::kParseError);
  EXPECT_NE(over.status().message().find("FROM list has more than 256"),
            std::string::npos)
      << over.status();
}

TEST(ParserTest, InsertLiteralRows) {
  auto script = Parser::ParseScript(
      "INSERT INTO edge VALUES (1, 2, 1.5), (-3, 4, -0.5), (5, NULL, 'x')");
  ASSERT_TRUE(script.ok()) << script.status();
  ASSERT_EQ(script->size(), 1u);
  const Statement& stmt = (*script)[0];
  ASSERT_EQ(stmt.kind, Statement::Kind::kInsert);
  ASSERT_NE(stmt.insert, nullptr);
  EXPECT_EQ(stmt.insert->table, "edge");
  ASSERT_EQ(stmt.insert->rows.size(), 3u);
  EXPECT_EQ(stmt.insert->rows[0][0], storage::Value::Int(1));
  EXPECT_EQ(stmt.insert->rows[0][2], storage::Value::Double(1.5));
  // Signed literals fold the leading minus into the constant.
  EXPECT_EQ(stmt.insert->rows[1][0], storage::Value::Int(-3));
  EXPECT_EQ(stmt.insert->rows[1][2], storage::Value::Double(-0.5));
  // `null` is contextual, not a lexer keyword.
  EXPECT_TRUE(stmt.insert->rows[2][1].is_null());
  EXPECT_EQ(stmt.insert->rows[2][2], storage::Value::String("x"));
}

TEST(ParserTest, InsertErrors) {
  EXPECT_FALSE(Parser::ParseScript("INSERT edge VALUES (1)").ok());
  EXPECT_FALSE(Parser::ParseScript("INSERT INTO edge (1, 2)").ok());
  EXPECT_FALSE(Parser::ParseScript("INSERT INTO edge VALUES (1,)").ok());
  EXPECT_FALSE(Parser::ParseScript("INSERT INTO edge VALUES (1 + 2)").ok());
  EXPECT_FALSE(Parser::ParseScript("INSERT INTO edge VALUES (-'s')").ok());
  EXPECT_FALSE(Parser::ParseScript("INSERT INTO edge VALUES (Src)").ok());
}

TEST(ParserTest, InsertInScriptWithQuery) {
  auto script = Parser::ParseScript(R"(
      INSERT INTO edge VALUES (1, 2, 1.0);
      SELECT count(*) FROM edge)");
  ASSERT_TRUE(script.ok()) << script.status();
  ASSERT_EQ(script->size(), 2u);
  EXPECT_EQ((*script)[0].kind, Statement::Kind::kInsert);
  EXPECT_EQ((*script)[1].kind, Statement::Kind::kQuery);
}

TEST(ParserTest, ReferencedTablesExcludesCtes) {
  auto q = Parser::ParseQuery(R"(
      WITH recursive tc (Src, Dst) AS
        (SELECT Src, Dst FROM edge) UNION
        (SELECT tc.Src, arc.Dst FROM tc, arc WHERE tc.Dst = arc.Src)
      SELECT Src, Dst FROM tc)");
  ASSERT_TRUE(q.ok()) << q.status();
  const std::vector<std::string> tables = ReferencedTables(*q);
  EXPECT_EQ(tables, (std::vector<std::string>{"arc", "edge"}));
}

TEST(ParserTest, RoundTripToString) {
  auto q = Parser::ParseQuery(kBomQuery);
  ASSERT_TRUE(q.ok());
  // Re-parse the printed form; it must parse to the same shape.
  auto q2 = Parser::ParseQuery(q->ToString());
  ASSERT_TRUE(q2.ok()) << q2.status() << "\n" << q->ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

}  // namespace
}  // namespace rasql::sql
