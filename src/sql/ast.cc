#include "sql/ast.h"

#include <algorithm>
#include <set>

#include "storage/schema.h"

namespace rasql::sql {

std::string AstExpr::ToString() const {
  switch (kind) {
    case Kind::kColumn:
      return qualifier.empty() ? name : qualifier + "." + name;
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kBinary:
      return "(" + lhs->ToString() + " " + expr::BinaryOpName(op) + " " +
             rhs->ToString() + ")";
    case Kind::kNot:
      return "NOT (" + lhs->ToString() + ")";
    case Kind::kNegate:
      return "-(" + lhs->ToString() + ")";
    case Kind::kAggCall: {
      std::string out = expr::AggregateFunctionName(agg_fn);
      out += "(";
      if (distinct) out += "DISTINCT ";
      if (lhs) out += lhs->ToString();
      out += ")";
      return out;
    }
    case Kind::kStar:
      return "*";
  }
  return "?";
}

AstExprPtr MakeAstColumn(std::string qualifier, std::string name) {
  auto e = std::make_unique<AstExpr>();
  e->kind = AstExpr::Kind::kColumn;
  e->qualifier = std::move(qualifier);
  e->name = std::move(name);
  return e;
}

AstExprPtr MakeAstLiteral(storage::Value value) {
  auto e = std::make_unique<AstExpr>();
  e->kind = AstExpr::Kind::kLiteral;
  e->literal = std::move(value);
  return e;
}

AstExprPtr MakeAstBinary(expr::BinaryOp op, AstExprPtr lhs, AstExprPtr rhs) {
  auto e = std::make_unique<AstExpr>();
  e->kind = AstExpr::Kind::kBinary;
  e->op = op;
  e->height = 1 + std::max(lhs->height, rhs->height);
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

std::string SelectStmt::ToString() const {
  std::string out = "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].expr->ToString();
    if (!items[i].alias.empty()) out += " AS " + items[i].alias;
  }
  if (!from.empty()) {
    out += " FROM ";
    for (size_t i = 0; i < from.size(); ++i) {
      if (i > 0) out += ", ";
      out += from[i].table_name;
      if (!from[i].alias.empty()) out += " " + from[i].alias;
    }
  }
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (!order_by[i].ascending) out += " DESC";
    }
  }
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

std::string Query::ToString() const {
  std::string out;
  if (!ctes.empty()) {
    out += "WITH ";
    for (size_t i = 0; i < ctes.size(); ++i) {
      if (i > 0) out += ", ";
      const CteDef& cte = ctes[i];
      if (cte.recursive) out += "recursive ";
      out += cte.name + "(";
      for (size_t c = 0; c < cte.columns.size(); ++c) {
        if (c > 0) out += ", ";
        if (cte.columns[c].aggregate != expr::AggregateFunction::kNone) {
          out += std::string(
                     expr::AggregateFunctionName(cte.columns[c].aggregate)) +
                 "() AS ";
        }
        out += cte.columns[c].name;
      }
      out += ") AS ";
      for (size_t b = 0; b < cte.branches.size(); ++b) {
        if (b > 0) out += " UNION ";
        out += "(" + cte.branches[b]->ToString() + ")";
      }
    }
    out += " ";
  }
  out += body->ToString();
  return out;
}

std::vector<std::string> ReferencedTables(const Query& query) {
  std::set<std::string> ctes;
  for (const CteDef& cte : query.ctes) ctes.insert(storage::ToLower(cte.name));
  std::set<std::string> tables;
  auto collect = [&](const SelectStmt& select) {
    for (const TableRef& ref : select.from) {
      std::string name = storage::ToLower(ref.table_name);
      if (ctes.count(name) == 0) tables.insert(std::move(name));
    }
  };
  for (const CteDef& cte : query.ctes) {
    for (const SelectStmtPtr& branch : cte.branches) collect(*branch);
  }
  if (query.body != nullptr) collect(*query.body);
  return {tables.begin(), tables.end()};
}

}  // namespace rasql::sql
