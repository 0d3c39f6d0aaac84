#include "sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <unordered_set>

#include "storage/schema.h"

namespace rasql::sql {

using common::Result;
using common::Status;

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const auto* kKeywords = new std::unordered_set<std::string>{
      "with",   "recursive", "as",     "select", "from",  "where",
      "group",  "having", "union",  "order", "limit",
      "and",    "or",        "not",    "distinct", "asc", "desc",
      "create", "view",   "insert", "into",  "values",
      // NOTE: "all" and "by" are deliberately NOT keywords — the paper's
      // PreM-checking rewrite (Appendix G) names a recursive view `all`.
      // `UNION ALL` is recognized contextually by the parser.
  };
  return *kKeywords;
}

Status LexError(int line, int column, const std::string& message) {
  return Status::ParseError("line " + std::to_string(line) + ":" +
                            std::to_string(column) + ": " + message);
}

}  // namespace

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && storage::EqualsIgnoreCase(text, kw);
}

Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  int line = 1;
  int col = 1;

  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n && i < input.size(); ++k, ++i) {
      if (input[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };
  auto push = [&](TokenType type, std::string text) {
    Token t;
    t.type = type;
    t.text = std::move(text);
    t.line = line;
    t.column = col;
    tokens.push_back(std::move(t));
  };

  while (i < input.size()) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    // -- line comment
    if (c == '-' && i + 1 < input.size() && input[i + 1] == '-') {
      while (i < input.size() && input[i] != '\n') advance(1);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[j])) ||
              input[j] == '_')) {
        ++j;
      }
      std::string word = input.substr(i, j - i);
      const bool is_kw = Keywords().count(storage::ToLower(word)) > 0;
      push(is_kw ? TokenType::kKeyword : TokenType::kIdentifier, word);
      advance(j - i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool is_double = false;
      while (j < input.size() &&
             std::isdigit(static_cast<unsigned char>(input[j]))) {
        ++j;
      }
      if (j < input.size() && input[j] == '.' && j + 1 < input.size() &&
          std::isdigit(static_cast<unsigned char>(input[j + 1]))) {
        is_double = true;
        ++j;
        while (j < input.size() &&
               std::isdigit(static_cast<unsigned char>(input[j]))) {
          ++j;
        }
      }
      // Exponent suffix (1e6, 2.5E-3).
      if (j < input.size() && (input[j] == 'e' || input[j] == 'E')) {
        size_t k = j + 1;
        if (k < input.size() && (input[k] == '+' || input[k] == '-')) ++k;
        if (k < input.size() &&
            std::isdigit(static_cast<unsigned char>(input[k]))) {
          is_double = true;
          j = k;
          while (j < input.size() &&
                 std::isdigit(static_cast<unsigned char>(input[j]))) {
            ++j;
          }
        }
      }
      const std::string num = input.substr(i, j - i);
      Token t;
      t.line = line;
      t.column = col;
      t.text = num;
      if (is_double) {
        t.type = TokenType::kDoubleLiteral;
        t.double_value = std::strtod(num.c_str(), nullptr);
      } else {
        t.type = TokenType::kIntLiteral;
        // strtoll saturates out-of-range digits at INT64_MAX; reject them
        // instead of silently clamping (INT64_MIN is spelled
        // `-9223372036854775807 - 1`).
        errno = 0;
        t.int_value = std::strtoll(num.c_str(), nullptr, 10);
        if (errno == ERANGE) {
          return LexError(line, col,
                          "integer literal " + num +
                              " is out of range for a 64-bit integer");
        }
      }
      tokens.push_back(std::move(t));
      advance(j - i);
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      std::string s;
      bool closed = false;
      while (j < input.size()) {
        if (input[j] == '\'') {
          if (j + 1 < input.size() && input[j + 1] == '\'') {
            s += '\'';  // escaped quote
            j += 2;
            continue;
          }
          closed = true;
          break;
        }
        s += input[j++];
      }
      if (!closed) return LexError(line, col, "unterminated string literal");
      Token t;
      t.type = TokenType::kStringLiteral;
      t.text = s;
      t.line = line;
      t.column = col;
      tokens.push_back(std::move(t));
      advance(j + 1 - i);
      continue;
    }
    switch (c) {
      case '(':
        push(TokenType::kLParen, "(");
        advance(1);
        break;
      case ')':
        push(TokenType::kRParen, ")");
        advance(1);
        break;
      case ',':
        push(TokenType::kComma, ",");
        advance(1);
        break;
      case '.':
        push(TokenType::kDot, ".");
        advance(1);
        break;
      case ';':
        push(TokenType::kSemicolon, ";");
        advance(1);
        break;
      case '*':
        push(TokenType::kStar, "*");
        advance(1);
        break;
      case '+':
        push(TokenType::kPlus, "+");
        advance(1);
        break;
      case '-':
        push(TokenType::kMinus, "-");
        advance(1);
        break;
      case '/':
        push(TokenType::kSlash, "/");
        advance(1);
        break;
      case '=':
        push(TokenType::kEq, "=");
        advance(1);
        break;
      case '!':
        if (i + 1 < input.size() && input[i + 1] == '=') {
          push(TokenType::kNe, "!=");
          advance(2);
        } else {
          return LexError(line, col, "unexpected character '!'");
        }
        break;
      case '<':
        if (i + 1 < input.size() && input[i + 1] == '>') {
          push(TokenType::kNe, "<>");
          advance(2);
        } else if (i + 1 < input.size() && input[i + 1] == '=') {
          push(TokenType::kLe, "<=");
          advance(2);
        } else {
          push(TokenType::kLt, "<");
          advance(1);
        }
        break;
      case '>':
        if (i + 1 < input.size() && input[i + 1] == '=') {
          push(TokenType::kGe, ">=");
          advance(2);
        } else {
          push(TokenType::kGt, ">");
          advance(1);
        }
        break;
      default:
        return LexError(line, col, std::string("unexpected character '") +
                                       c + "'");
    }
  }

  Token end;
  end.type = TokenType::kEnd;
  end.line = line;
  end.column = col;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace rasql::sql
