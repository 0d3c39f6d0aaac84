#include "sql/parser.h"

#include "storage/schema.h"

namespace rasql::sql {

using common::Result;
using common::Status;
using expr::AggregateFunction;
using expr::BinaryOp;

expr::AggregateFunction AggregateFromName(const std::string& name) {
  const std::string lower = storage::ToLower(name);
  if (lower == "min") return AggregateFunction::kMin;
  if (lower == "max") return AggregateFunction::kMax;
  if (lower == "sum") return AggregateFunction::kSum;
  if (lower == "count") return AggregateFunction::kCount;
  return AggregateFunction::kNone;
}

const Token& Parser::Peek(int ahead) const {
  const size_t i = pos_ + ahead;
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& Parser::Advance() {
  const Token& t = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::Match(TokenType type) {
  if (Peek().type != type) return false;
  Advance();
  return true;
}

bool Parser::MatchKeyword(const char* kw) {
  if (!Peek().IsKeyword(kw)) return false;
  Advance();
  return true;
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& t = Peek();
  std::string near =
      t.type == TokenType::kEnd ? "end of input" : "'" + t.text + "'";
  return Status::ParseError("line " + std::to_string(t.line) + ":" +
                            std::to_string(t.column) + ": " + message +
                            " near " + near);
}

Status Parser::NestingError() const {
  return ErrorHere("expression nests deeper than " +
                   std::to_string(kMaxExprDepth) + " levels");
}

Status Parser::CheckHeight(const AstExpr& e) const {
  return e.height > kMaxExprDepth ? NestingError() : Status::OK();
}

Status Parser::Expect(TokenType type, const char* what) {
  if (Peek().type != type) {
    return ErrorHere(std::string("expected ") + what);
  }
  Advance();
  return Status::OK();
}

// `by` is an identifier at the lexer level (it can name a column); after
// GROUP/ORDER it must appear literally.
Status Parser::ExpectContextualBy() {
  if (Peek().type != TokenType::kIdentifier ||
      !storage::EqualsIgnoreCase(Peek().text, "by")) {
    return ErrorHere("expected 'by'");
  }
  Advance();
  return Status::OK();
}

Status Parser::ExpectKeyword(const char* kw) {
  if (!Peek().IsKeyword(kw)) {
    return ErrorHere(std::string("expected '") + kw + "'");
  }
  Advance();
  return Status::OK();
}

Result<Query> Parser::ParseQuery(const std::string& sql) {
  RASQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  RASQL_ASSIGN_OR_RETURN(std::unique_ptr<Query> query,
                         parser.ParseQueryInternal());
  parser.Match(TokenType::kSemicolon);
  if (parser.Peek().type != TokenType::kEnd) {
    return parser.ErrorHere("unexpected trailing input");
  }
  return std::move(*query);
}

Result<std::vector<Statement>> Parser::ParseScript(const std::string& sql) {
  RASQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  std::vector<Statement> statements;
  while (parser.Peek().type != TokenType::kEnd) {
    RASQL_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
    statements.push_back(std::move(stmt));
    // Statements are separated by semicolons; trailing semicolon optional.
    if (!parser.Match(TokenType::kSemicolon)) break;
  }
  if (parser.Peek().type != TokenType::kEnd) {
    return parser.ErrorHere("unexpected trailing input");
  }
  return statements;
}

Result<Statement> Parser::ParseStatement() {
  Statement stmt;
  if (Peek().IsKeyword("create")) {
    stmt.kind = Statement::Kind::kCreateView;
    RASQL_ASSIGN_OR_RETURN(stmt.create_view, ParseCreateView());
    return stmt;
  }
  if (Peek().IsKeyword("insert")) {
    stmt.kind = Statement::Kind::kInsert;
    RASQL_ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
    return stmt;
  }
  stmt.kind = Statement::Kind::kQuery;
  RASQL_ASSIGN_OR_RETURN(stmt.query, ParseQueryInternal());
  return stmt;
}

Result<std::unique_ptr<InsertStmt>> Parser::ParseInsert() {
  RASQL_RETURN_IF_ERROR(ExpectKeyword("insert"));
  RASQL_RETURN_IF_ERROR(ExpectKeyword("into"));
  auto insert = std::make_unique<InsertStmt>();
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected table name");
  }
  insert->table = Advance().text;
  RASQL_RETURN_IF_ERROR(ExpectKeyword("values"));
  do {
    RASQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    storage::Row row;
    do {
      RASQL_ASSIGN_OR_RETURN(storage::Value value, ParseInsertLiteral());
      row.push_back(std::move(value));
    } while (Match(TokenType::kComma));
    RASQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    insert->rows.push_back(std::move(row));
  } while (Match(TokenType::kComma));
  return insert;
}

/// INSERT rows are literal constants only — a signed number, a string, or
/// NULL (`null` is not a lexer keyword; it is recognized contextually here,
/// like `UNION ALL`'s `all`).
Result<storage::Value> Parser::ParseInsertLiteral() {
  const bool negate = Match(TokenType::kMinus);
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kIntLiteral: {
      const int64_t v = Advance().int_value;
      return storage::Value::Int(negate ? -v : v);
    }
    case TokenType::kDoubleLiteral: {
      const double v = Advance().double_value;
      return storage::Value::Double(negate ? -v : v);
    }
    case TokenType::kStringLiteral: {
      if (negate) return ErrorHere("cannot negate a string literal");
      return storage::Value::String(Advance().text);
    }
    case TokenType::kIdentifier: {
      if (!negate && storage::EqualsIgnoreCase(t.text, "null")) {
        Advance();
        return storage::Value::Null();
      }
      return ErrorHere("expected literal value");
    }
    default:
      return ErrorHere("expected literal value");
  }
}

Result<std::unique_ptr<CreateViewStmt>> Parser::ParseCreateView() {
  RASQL_RETURN_IF_ERROR(ExpectKeyword("create"));
  RASQL_RETURN_IF_ERROR(ExpectKeyword("view"));
  auto view = std::make_unique<CreateViewStmt>();
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected view name");
  }
  view->name = Advance().text;
  RASQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
  do {
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected column name");
    }
    view->columns.push_back(Advance().text);
  } while (Match(TokenType::kComma));
  RASQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  RASQL_RETURN_IF_ERROR(ExpectKeyword("as"));
  RASQL_ASSIGN_OR_RETURN(view->definition, ParseParenthesizedSelect());
  return view;
}

Result<std::unique_ptr<Query>> Parser::ParseQueryInternal() {
  auto query = std::make_unique<Query>();
  if (MatchKeyword("with")) {
    do {
      RASQL_ASSIGN_OR_RETURN(CteDef cte, ParseCte());
      query->ctes.push_back(std::move(cte));
    } while (Match(TokenType::kComma));
  }
  RASQL_ASSIGN_OR_RETURN(query->body, ParseSelect());
  return query;
}

Result<CteDef> Parser::ParseCte() {
  CteDef cte;
  cte.recursive = MatchKeyword("recursive");
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected view name");
  }
  cte.name = Advance().text;
  RASQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
  do {
    RASQL_ASSIGN_OR_RETURN(ViewColumn col, ParseViewColumn());
    cte.columns.push_back(std::move(col));
  } while (Match(TokenType::kComma));
  RASQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  RASQL_RETURN_IF_ERROR(ExpectKeyword("as"));
  do {
    RASQL_ASSIGN_OR_RETURN(SelectStmtPtr branch, ParseParenthesizedSelect());
    cte.branches.push_back(std::move(branch));
    if (!MatchKeyword("union")) break;
    // Optional ALL quantifier. `all` is not a lexer keyword (it can name a
    // view, see Appendix G), so match it contextually: after UNION, a bare
    // `all` identifier can only be the quantifier.
    if (Peek().type == TokenType::kIdentifier &&
        storage::EqualsIgnoreCase(Peek().text, "all") &&
        Peek(1).type == TokenType::kLParen) {
      Advance();
    }
  } while (true);
  return cte;
}

Result<ViewColumn> Parser::ParseViewColumn() {
  ViewColumn col;
  // Aggregate head: `min() AS Name` (paper Q2 syntax).
  if (Peek().type == TokenType::kIdentifier &&
      AggregateFromName(Peek().text) != AggregateFunction::kNone &&
      Peek(1).type == TokenType::kLParen) {
    col.aggregate = AggregateFromName(Advance().text);
    RASQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    RASQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    RASQL_RETURN_IF_ERROR(ExpectKeyword("as"));
    if (Peek().type != TokenType::kIdentifier) {
      return ErrorHere("expected column name after AS");
    }
    col.name = Advance().text;
    return col;
  }
  if (Peek().type != TokenType::kIdentifier) {
    return ErrorHere("expected column name or aggregate");
  }
  col.name = Advance().text;
  return col;
}

Result<SelectStmtPtr> Parser::ParseParenthesizedSelect() {
  // Branches are normally parenthesized as in the paper; a bare SELECT is
  // also accepted for convenience.
  if (Match(TokenType::kLParen)) {
    RASQL_ASSIGN_OR_RETURN(SelectStmtPtr select, ParseSelect());
    RASQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return select;
  }
  return ParseSelect();
}

Result<SelectStmtPtr> Parser::ParseSelect() {
  RASQL_RETURN_IF_ERROR(ExpectKeyword("select"));
  auto select = std::make_unique<SelectStmt>();

  do {
    SelectItem item;
    RASQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (MatchKeyword("as")) {
      if (Peek().type != TokenType::kIdentifier) {
        return ErrorHere("expected alias after AS");
      }
      item.alias = Advance().text;
    } else if (Peek().type == TokenType::kIdentifier) {
      item.alias = Advance().text;  // bare alias
    }
    select->items.push_back(std::move(item));
  } while (Match(TokenType::kComma));

  if (MatchKeyword("from")) {
    do {
      if (select->from.size() == static_cast<size_t>(kMaxExprDepth)) {
        return ErrorHere("FROM list has more than " +
                         std::to_string(kMaxExprDepth) + " tables");
      }
      TableRef ref;
      if (Peek().type != TokenType::kIdentifier) {
        return ErrorHere("expected table name");
      }
      ref.table_name = Advance().text;
      if (MatchKeyword("as")) {
        if (Peek().type != TokenType::kIdentifier) {
          return ErrorHere("expected alias after AS");
        }
        ref.alias = Advance().text;
      } else if (Peek().type == TokenType::kIdentifier) {
        ref.alias = Advance().text;
      }
      select->from.push_back(std::move(ref));
    } while (Match(TokenType::kComma));
  }

  if (MatchKeyword("where")) {
    RASQL_ASSIGN_OR_RETURN(select->where, ParseExpr());
  }
  if (Peek().IsKeyword("group")) {
    Advance();
    RASQL_RETURN_IF_ERROR(ExpectContextualBy());
    do {
      RASQL_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
      select->group_by.push_back(std::move(e));
    } while (Match(TokenType::kComma));
  }
  if (MatchKeyword("having")) {
    RASQL_ASSIGN_OR_RETURN(select->having, ParseExpr());
  }
  if (Peek().IsKeyword("order")) {
    Advance();
    RASQL_RETURN_IF_ERROR(ExpectContextualBy());
    do {
      OrderItem item;
      RASQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("desc")) {
        item.ascending = false;
      } else {
        MatchKeyword("asc");
      }
      select->order_by.push_back(std::move(item));
    } while (Match(TokenType::kComma));
  }
  if (MatchKeyword("limit")) {
    if (Peek().type != TokenType::kIntLiteral) {
      return ErrorHere("expected integer after LIMIT");
    }
    select->limit = Advance().int_value;
  }
  return select;
}

Result<AstExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<AstExprPtr> Parser::ParseOr() {
  RASQL_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAnd());
  while (MatchKeyword("or")) {
    RASQL_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAnd());
    lhs = MakeAstBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    RASQL_RETURN_IF_ERROR(CheckHeight(*lhs));
  }
  return lhs;
}

Result<AstExprPtr> Parser::ParseAnd() {
  RASQL_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseNot());
  while (MatchKeyword("and")) {
    RASQL_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseNot());
    lhs = MakeAstBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    RASQL_RETURN_IF_ERROR(CheckHeight(*lhs));
  }
  return lhs;
}

Result<AstExprPtr> Parser::ParseNot() {
  if (MatchKeyword("not")) {
    Nesting nesting(&depth_);
    if (depth_ > kMaxExprDepth) return NestingError();
    RASQL_ASSIGN_OR_RETURN(AstExprPtr input, ParseNot());
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExpr::Kind::kNot;
    e->height = 1 + input->height;
    e->lhs = std::move(input);
    RASQL_RETURN_IF_ERROR(CheckHeight(*e));
    return AstExprPtr(std::move(e));
  }
  return ParseComparison();
}

Result<AstExprPtr> Parser::ParseComparison() {
  RASQL_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAdditive());
  BinaryOp op;
  switch (Peek().type) {
    case TokenType::kEq:
      op = BinaryOp::kEq;
      break;
    case TokenType::kNe:
      op = BinaryOp::kNe;
      break;
    case TokenType::kLt:
      op = BinaryOp::kLt;
      break;
    case TokenType::kLe:
      op = BinaryOp::kLe;
      break;
    case TokenType::kGt:
      op = BinaryOp::kGt;
      break;
    case TokenType::kGe:
      op = BinaryOp::kGe;
      break;
    default:
      return lhs;
  }
  Advance();
  RASQL_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAdditive());
  AstExprPtr e = MakeAstBinary(op, std::move(lhs), std::move(rhs));
  RASQL_RETURN_IF_ERROR(CheckHeight(*e));
  return e;
}

Result<AstExprPtr> Parser::ParseAdditive() {
  RASQL_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseMultiplicative());
  while (true) {
    BinaryOp op;
    if (Peek().type == TokenType::kPlus) {
      op = BinaryOp::kAdd;
    } else if (Peek().type == TokenType::kMinus) {
      op = BinaryOp::kSub;
    } else {
      return lhs;
    }
    Advance();
    RASQL_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseMultiplicative());
    lhs = MakeAstBinary(op, std::move(lhs), std::move(rhs));
    RASQL_RETURN_IF_ERROR(CheckHeight(*lhs));
  }
}

Result<AstExprPtr> Parser::ParseMultiplicative() {
  RASQL_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseUnary());
  while (true) {
    BinaryOp op;
    if (Peek().type == TokenType::kStar) {
      op = BinaryOp::kMul;
    } else if (Peek().type == TokenType::kSlash) {
      op = BinaryOp::kDiv;
    } else {
      return lhs;
    }
    Advance();
    RASQL_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseUnary());
    lhs = MakeAstBinary(op, std::move(lhs), std::move(rhs));
    RASQL_RETURN_IF_ERROR(CheckHeight(*lhs));
  }
}

Result<AstExprPtr> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    Nesting nesting(&depth_);
    if (depth_ > kMaxExprDepth) return NestingError();
    RASQL_ASSIGN_OR_RETURN(AstExprPtr input, ParseUnary());
    // Fold literal negation so `-3` is a literal, not an expression.
    if (input->kind == AstExpr::Kind::kLiteral) {
      if (input->literal.type() == storage::ValueType::kInt64) {
        return MakeAstLiteral(storage::Value::Int(-input->literal.AsInt()));
      }
      if (input->literal.type() == storage::ValueType::kDouble) {
        return MakeAstLiteral(
            storage::Value::Double(-input->literal.AsDouble()));
      }
    }
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExpr::Kind::kNegate;
    e->height = 1 + input->height;
    e->lhs = std::move(input);
    RASQL_RETURN_IF_ERROR(CheckHeight(*e));
    return AstExprPtr(std::move(e));
  }
  return ParsePrimary();
}

Result<AstExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kIntLiteral: {
      const int64_t v = Advance().int_value;
      return MakeAstLiteral(storage::Value::Int(v));
    }
    case TokenType::kDoubleLiteral: {
      const double v = Advance().double_value;
      return MakeAstLiteral(storage::Value::Double(v));
    }
    case TokenType::kStringLiteral: {
      std::string s = Advance().text;
      return MakeAstLiteral(storage::Value::String(std::move(s)));
    }
    case TokenType::kLParen: {
      Advance();
      Nesting nesting(&depth_);
      if (depth_ > kMaxExprDepth) return NestingError();
      RASQL_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
      RASQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return e;
    }
    case TokenType::kIdentifier: {
      // Aggregate call?
      if (AggregateFromName(t.text) != AggregateFunction::kNone &&
          Peek(1).type == TokenType::kLParen) {
        auto e = std::make_unique<AstExpr>();
        e->kind = AstExpr::Kind::kAggCall;
        e->agg_fn = AggregateFromName(Advance().text);
        Advance();  // '('
        if (MatchKeyword("distinct")) e->distinct = true;
        if (Match(TokenType::kStar)) {
          auto star = std::make_unique<AstExpr>();
          star->kind = AstExpr::Kind::kStar;
          e->lhs = std::move(star);
          e->height = 2;
        } else if (Peek().type != TokenType::kRParen) {
          Nesting nesting(&depth_);
          if (depth_ > kMaxExprDepth) return NestingError();
          RASQL_ASSIGN_OR_RETURN(e->lhs, ParseExpr());
          e->height = 1 + e->lhs->height;
          RASQL_RETURN_IF_ERROR(CheckHeight(*e));
        }
        RASQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return AstExprPtr(std::move(e));
      }
      // Column reference, possibly qualified.
      std::string first = Advance().text;
      if (Match(TokenType::kDot)) {
        if (Peek().type != TokenType::kIdentifier) {
          return ErrorHere("expected column name after '.'");
        }
        std::string second = Advance().text;
        return MakeAstColumn(std::move(first), std::move(second));
      }
      return MakeAstColumn("", std::move(first));
    }
    default:
      return ErrorHere("expected expression");
  }
}

}  // namespace rasql::sql
