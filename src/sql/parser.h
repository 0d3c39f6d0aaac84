#ifndef RASQL_SQL_PARSER_H_
#define RASQL_SQL_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace rasql::sql {

/// Recursive-descent parser for the RaSQL dialect (paper Sec. 2):
///
///   WITH [recursive] view(col | agg() AS col, ...) AS
///     (select) UNION (select) ... [, more views]
///   SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...
///     [ORDER BY ...] [LIMIT n]
///
/// plus `CREATE VIEW name(cols) AS (select)` for non-recursive helper views
/// and `;`-separated scripts.
class Parser {
 public:
  /// Deepest expression nesting the parser accepts: both the parser's own
  /// recursion (parentheses, NOT, unary minus, aggregate arguments) and the
  /// height of every expression tree it builds (AstExpr::height) are
  /// capped here. Deeper input is a parse error, not a stack overflow.
  /// It caps a FROM list's length too: each item adds a level to the join
  /// tree, whose schemas grow quadratically with the list.
  static constexpr int kMaxExprDepth = 256;

  /// Parses a single query (optionally WITH-prefixed).
  static common::Result<Query> ParseQuery(const std::string& sql);

  /// Parses a `;`-separated script of CREATE VIEW / query statements.
  static common::Result<std::vector<Statement>> ParseScript(
      const std::string& sql);

 private:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  const Token& Peek(int ahead = 0) const;
  const Token& Advance();
  bool Match(TokenType type);
  bool MatchKeyword(const char* kw);
  common::Status Expect(TokenType type, const char* what);
  common::Status ExpectKeyword(const char* kw);
  common::Status ExpectContextualBy();
  common::Status ErrorHere(const std::string& message) const;
  /// The typed parse error for input nested deeper than kMaxExprDepth.
  common::Status NestingError() const;
  /// NestingError when `e` is taller than kMaxExprDepth.
  common::Status CheckHeight(const AstExpr& e) const;

  /// One level of parser recursion for the lifetime of the scope.
  class Nesting {
   public:
    explicit Nesting(int* depth) : depth_(depth) { ++*depth_; }
    ~Nesting() { --*depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    int* depth_;
  };

  common::Result<Statement> ParseStatement();
  common::Result<std::unique_ptr<CreateViewStmt>> ParseCreateView();
  common::Result<std::unique_ptr<InsertStmt>> ParseInsert();
  common::Result<storage::Value> ParseInsertLiteral();
  common::Result<std::unique_ptr<Query>> ParseQueryInternal();
  common::Result<CteDef> ParseCte();
  common::Result<ViewColumn> ParseViewColumn();
  common::Result<SelectStmtPtr> ParseParenthesizedSelect();
  common::Result<SelectStmtPtr> ParseSelect();
  common::Result<AstExprPtr> ParseExpr();
  common::Result<AstExprPtr> ParseOr();
  common::Result<AstExprPtr> ParseAnd();
  common::Result<AstExprPtr> ParseNot();
  common::Result<AstExprPtr> ParseComparison();
  common::Result<AstExprPtr> ParseAdditive();
  common::Result<AstExprPtr> ParseMultiplicative();
  common::Result<AstExprPtr> ParseUnary();
  common::Result<AstExprPtr> ParsePrimary();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Open nesting levels (see kMaxExprDepth).
  int depth_ = 0;
};

/// Maps "min"/"max"/"sum"/"count" (case-insensitive) to the aggregate enum;
/// kNone when the name is not an aggregate.
expr::AggregateFunction AggregateFromName(const std::string& name);

}  // namespace rasql::sql

#endif  // RASQL_SQL_PARSER_H_
