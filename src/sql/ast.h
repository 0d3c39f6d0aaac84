#ifndef RASQL_SQL_AST_H_
#define RASQL_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "storage/row.h"
#include "storage/value.h"

namespace rasql::sql {

/// Unresolved scalar expression produced by the parser. Name resolution and
/// typing happen in the analyzer.
struct AstExpr {
  enum class Kind {
    kColumn,     ///< [qualifier.]name
    kLiteral,    ///< number or 'string'
    kBinary,     ///< lhs op rhs
    kNot,        ///< NOT lhs
    kNegate,     ///< -lhs
    kAggCall,    ///< fn([DISTINCT] lhs) or fn(*) or fn()
    kStar,       ///< * (only inside count(*))
  };

  Kind kind = Kind::kLiteral;
  std::string qualifier;  // kColumn
  std::string name;       // kColumn
  storage::Value literal;
  expr::BinaryOp op = expr::BinaryOp::kAdd;  // kBinary
  std::unique_ptr<AstExpr> lhs;
  std::unique_ptr<AstExpr> rhs;
  expr::AggregateFunction agg_fn = expr::AggregateFunction::kNone;
  bool distinct = false;  // kAggCall with DISTINCT
  /// Nodes on the longest path from this node down to a leaf. The parser
  /// refuses trees taller than Parser::kMaxExprDepth, which bounds the
  /// recursion of every AST and expression walker downstream.
  int height = 1;

  std::string ToString() const;
};

using AstExprPtr = std::unique_ptr<AstExpr>;

AstExprPtr MakeAstColumn(std::string qualifier, std::string name);
AstExprPtr MakeAstLiteral(storage::Value value);
AstExprPtr MakeAstBinary(expr::BinaryOp op, AstExprPtr lhs, AstExprPtr rhs);

/// FROM-clause table reference: `name [alias]`, e.g. `rel a`.
struct TableRef {
  std::string table_name;
  std::string alias;  // empty = table name itself

  const std::string& BindingName() const {
    return alias.empty() ? table_name : alias;
  }
};

/// One SELECT-list item: expression plus optional alias.
struct SelectItem {
  AstExprPtr expr;
  std::string alias;
};

/// ORDER BY item.
struct OrderItem {
  AstExprPtr expr;
  bool ascending = true;
};

/// A single SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...
/// [ORDER BY ... LIMIT n] block.
struct SelectStmt {
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  AstExprPtr where;  // nullable
  std::vector<AstExprPtr> group_by;
  AstExprPtr having;  // nullable
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1 = none

  std::string ToString() const;
};

using SelectStmtPtr = std::unique_ptr<SelectStmt>;

/// One declared column of a CTE head: either a plain column `Name` or the
/// paper's aggregate head `min() AS Name` / `sum() AS Name` etc.
struct ViewColumn {
  std::string name;
  expr::AggregateFunction aggregate = expr::AggregateFunction::kNone;
};

/// One [recursive] view of a WITH clause: a union of SELECT branches.
struct CteDef {
  bool recursive = false;
  std::string name;
  std::vector<ViewColumn> columns;
  std::vector<SelectStmtPtr> branches;
};

/// A full RaSQL query: optional WITH views followed by the final SELECT.
struct Query {
  std::vector<CteDef> ctes;
  SelectStmtPtr body;

  std::string ToString() const;
};

/// CREATE VIEW name(cols) AS (select) — non-recursive named view, used by
/// e.g. the Interval Coalesce example.
struct CreateViewStmt {
  std::string name;
  std::vector<std::string> columns;
  SelectStmtPtr definition;
};

/// INSERT INTO name VALUES (lit, ...), (...) — literal rows appended to a
/// registered base relation. This is the engine's only base-data write
/// statement; the server's result-cache invalidation hangs off it
/// (DESIGN.md §12).
struct InsertStmt {
  std::string table;
  std::vector<storage::Row> rows;
};

/// A parsed script statement.
struct Statement {
  enum class Kind { kQuery, kCreateView, kInsert };
  Kind kind = Kind::kQuery;
  std::unique_ptr<Query> query;
  std::unique_ptr<CreateViewStmt> create_view;
  std::unique_ptr<InsertStmt> insert;
};

/// Lowercased names of every table a query's FROM clauses reference,
/// excluding the query's own CTE views — i.e. the base relations (or
/// externally-created views) whose contents determine the query's result.
/// Sorted and deduplicated. The server's result cache keys on these
/// tables' versions (DESIGN.md §12).
std::vector<std::string> ReferencedTables(const Query& query);

}  // namespace rasql::sql

#endif  // RASQL_SQL_AST_H_
