#include "src/ris/relational/sql.h"

#include <cctype>

#include "src/common/string_util.h"

namespace hcm::ris::relational {
namespace {

enum class TokKind { kIdent, kNumber, kString, kSymbol, kParam, kEnd };

struct Token {
  TokKind kind;
  std::string text;
  int param = -1;  // kParam: 0..8 for $1..$9, kValueParam for $v
};

class Lexer {
 public:
  // `templated` lexes a command template: '$' starts a parameter marker,
  // and "$$" inside a quoted string is a '$'.
  Lexer(const std::string& input, bool templated)
      : in_(input), templated_(templated) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      if (pos_ >= in_.size()) break;
      char c = in_[pos_];
      if (templated_ && c == '$' && pos_ + 1 < in_.size()) {
        char next = in_[pos_ + 1];
        if (next == '$') {
          return Status::InvalidArgument("unexpected character '$' in SQL");
        }
        HCM_ASSIGN_OR_RETURN(int param, ParamNumber(next));
        out.push_back({TokKind::kParam, in_.substr(pos_, 2), param});
        pos_ += 2;
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < in_.size() &&
               (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
                in_[pos_] == '_')) {
          ++pos_;
        }
        out.push_back({TokKind::kIdent, in_.substr(start, pos_ - start)});
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 ((c == '-' || c == '+') && pos_ + 1 < in_.size() &&
                  std::isdigit(static_cast<unsigned char>(in_[pos_ + 1])))) {
        size_t start = pos_;
        ++pos_;
        while (pos_ < in_.size() &&
               (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
                in_[pos_] == '.' || in_[pos_] == 'e' || in_[pos_] == 'E' ||
                ((in_[pos_] == '-' || in_[pos_] == '+') &&
                 (in_[pos_ - 1] == 'e' || in_[pos_ - 1] == 'E')))) {
          ++pos_;
        }
        out.push_back({TokKind::kNumber, in_.substr(start, pos_ - start)});
      } else if (c == '\'') {
        ++pos_;
        std::string s;
        while (true) {
          if (pos_ >= in_.size()) {
            return Status::InvalidArgument("unterminated string literal");
          }
          if (in_[pos_] == '\'') {
            if (pos_ + 1 < in_.size() && in_[pos_ + 1] == '\'') {
              s += '\'';
              pos_ += 2;
            } else {
              ++pos_;
              break;
            }
          } else if (templated_ && in_[pos_] == '$' &&
                     pos_ + 1 < in_.size()) {
            char next = in_[pos_ + 1];
            if (next != '$') {
              HCM_RETURN_IF_ERROR(ParamNumber(next).status());
              return Status::InvalidArgument(StrFormat(
                  "placeholder $%c inside a quoted SQL string", next));
            }
            s += '$';
            pos_ += 2;
          } else {
            s += in_[pos_++];
          }
        }
        out.push_back({TokKind::kString, std::move(s)});
      } else {
        // Multi-char operators first.
        static const char* kTwoChar[] = {"!=", "<=", ">=", "<>"};
        bool matched = false;
        for (const char* op : kTwoChar) {
          if (in_.compare(pos_, 2, op) == 0) {
            out.push_back({TokKind::kSymbol, op});
            pos_ += 2;
            matched = true;
            break;
          }
        }
        if (!matched) {
          static const std::string kSingles = "(),=<>*;";
          if (kSingles.find(c) == std::string::npos) {
            return Status::InvalidArgument(
                StrFormat("unexpected character '%c' in SQL", c));
          }
          out.push_back({TokKind::kSymbol, std::string(1, c)});
          ++pos_;
        }
      }
    }
    out.push_back({TokKind::kEnd, ""});
    return out;
  }

 private:
  // The parameter number of "$<next>", or the error SubstituteCommand
  // reports for a bad placeholder.
  static Result<int> ParamNumber(char next) {
    if (next == 'v') return kValueParam;
    if (next >= '1' && next <= '9') return next - '1';
    return Status::InvalidArgument(
        StrFormat("bad placeholder $%c in command template", next));
  }

  void SkipSpace() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& in_;
  const bool templated_;
  size_t pos_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    if (AcceptKeyword("create")) return ParseCreate();
    if (AcceptKeyword("drop")) return ParseDrop();
    if (AcceptKeyword("insert")) return ParseInsert();
    if (AcceptKeyword("update")) return ParseUpdate();
    if (AcceptKeyword("delete")) return ParseDelete();
    if (AcceptKeyword("select")) return ParseSelect();
    return Status::InvalidArgument("expected a SQL statement, got '" +
                                   Peek().text + "'");
  }

  Status ExpectDone() {
    AcceptSymbol(";");
    if (Peek().kind != TokKind::kEnd) {
      return Status::InvalidArgument("trailing tokens after statement: '" +
                                     Peek().text + "'");
    }
    return Status::OK();
  }

  // The parameter markers met so far, in textual order.
  std::vector<ParamSlot> TakeParams() { return std::move(params_); }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool AcceptKeyword(const std::string& kw) {
    if (Peek().kind == TokKind::kIdent && StrEqualsIgnoreCase(Peek().text, kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AcceptSymbol(const std::string& sym) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      return Status::InvalidArgument("expected '" + kw + "', got '" +
                                     Peek().text + "'");
    }
    return Status::OK();
  }

  Status ExpectSymbol(const std::string& sym) {
    if (!AcceptSymbol(sym)) {
      return Status::InvalidArgument("expected '" + sym + "', got '" +
                                     Peek().text + "'");
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected identifier, got '" +
                                     Peek().text + "'");
    }
    return Advance().text;
  }

  // A literal, or a parameter marker recorded as the `index`-th value at
  // `site` (bound later; Null until then).
  Result<Value> ExpectLiteral(ParamSlot::Site site, size_t index) {
    const Token& t = Peek();
    if (t.kind == TokKind::kParam) {
      ++pos_;
      params_.push_back(ParamSlot{site, index, t.param});
      return Value::Null();
    }
    if (t.kind == TokKind::kString) {
      ++pos_;
      return Value::Str(t.text);
    }
    if (t.kind == TokKind::kNumber) {
      ++pos_;
      auto as_int = ParseInt64(t.text);
      if (as_int.ok()) return Value::Int(*as_int);
      HCM_ASSIGN_OR_RETURN(double d, ParseDouble(t.text));
      return Value::Real(d);
    }
    if (t.kind == TokKind::kIdent) {
      if (StrEqualsIgnoreCase(t.text, "null")) {
        ++pos_;
        return Value::Null();
      }
      if (StrEqualsIgnoreCase(t.text, "true")) {
        ++pos_;
        return Value::Bool(true);
      }
      if (StrEqualsIgnoreCase(t.text, "false")) {
        ++pos_;
        return Value::Bool(false);
      }
    }
    return Status::InvalidArgument("expected literal, got '" + t.text + "'");
  }

  Result<Statement> ParseCreate() {
    HCM_RETURN_IF_ERROR(ExpectKeyword("table"));
    HCM_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    HCM_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<Column> columns;
    while (true) {
      Column col;
      HCM_ASSIGN_OR_RETURN(col.name, ExpectIdent());
      HCM_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent());
      HCM_ASSIGN_OR_RETURN(col.type, ParseColumnType(type_name));
      if (AcceptKeyword("primary")) {
        HCM_RETURN_IF_ERROR(ExpectKeyword("key"));
        col.primary_key = true;
      }
      columns.push_back(std::move(col));
      if (AcceptSymbol(",")) continue;
      HCM_RETURN_IF_ERROR(ExpectSymbol(")"));
      break;
    }
    TableSchema schema(name, std::move(columns));
    HCM_RETURN_IF_ERROR(schema.Validate());
    return Statement{CreateTableStmt{std::move(schema)}};
  }

  Result<Statement> ParseDrop() {
    HCM_RETURN_IF_ERROR(ExpectKeyword("table"));
    HCM_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    return Statement{DropTableStmt{std::move(name)}};
  }

  Result<Statement> ParseInsert() {
    HCM_RETURN_IF_ERROR(ExpectKeyword("into"));
    InsertStmt stmt;
    HCM_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (AcceptSymbol("(")) {
      while (true) {
        HCM_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        stmt.columns.push_back(std::move(col));
        if (AcceptSymbol(",")) continue;
        HCM_RETURN_IF_ERROR(ExpectSymbol(")"));
        break;
      }
    }
    HCM_RETURN_IF_ERROR(ExpectKeyword("values"));
    HCM_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      HCM_ASSIGN_OR_RETURN(
          Value v,
          ExpectLiteral(ParamSlot::Site::kInsertValue, stmt.values.size()));
      stmt.values.push_back(std::move(v));
      if (AcceptSymbol(",")) continue;
      HCM_RETURN_IF_ERROR(ExpectSymbol(")"));
      break;
    }
    return Statement{std::move(stmt)};
  }

  Result<CompareOp> ExpectCompareOp() {
    if (AcceptSymbol("=")) return CompareOp::kEq;
    if (AcceptSymbol("!=") || AcceptSymbol("<>")) return CompareOp::kNe;
    if (AcceptSymbol("<=")) return CompareOp::kLe;
    if (AcceptSymbol(">=")) return CompareOp::kGe;
    if (AcceptSymbol("<")) return CompareOp::kLt;
    if (AcceptSymbol(">")) return CompareOp::kGt;
    return Status::InvalidArgument("expected comparison operator, got '" +
                                   Peek().text + "'");
  }

  Result<Predicate> ParseWhere() {
    std::vector<Condition> conds;
    if (AcceptKeyword("where")) {
      while (true) {
        Condition c;
        HCM_ASSIGN_OR_RETURN(c.column, ExpectIdent());
        HCM_ASSIGN_OR_RETURN(c.op, ExpectCompareOp());
        HCM_ASSIGN_OR_RETURN(
            c.literal,
            ExpectLiteral(ParamSlot::Site::kWhereValue, conds.size()));
        conds.push_back(std::move(c));
        if (!AcceptKeyword("and")) break;
      }
    }
    return Predicate(std::move(conds));
  }

  Result<Statement> ParseUpdate() {
    UpdateStmt stmt;
    HCM_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    HCM_RETURN_IF_ERROR(ExpectKeyword("set"));
    while (true) {
      HCM_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      HCM_RETURN_IF_ERROR(ExpectSymbol("="));
      HCM_ASSIGN_OR_RETURN(
          Value v, ExpectLiteral(ParamSlot::Site::kSetValue, stmt.sets.size()));
      stmt.sets.emplace_back(std::move(col), std::move(v));
      if (!AcceptSymbol(",")) break;
    }
    HCM_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseDelete() {
    HCM_RETURN_IF_ERROR(ExpectKeyword("from"));
    DeleteStmt stmt;
    HCM_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    HCM_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    return Statement{std::move(stmt)};
  }

  Result<Statement> ParseSelect() {
    SelectStmt stmt;
    if (!AcceptSymbol("*")) {
      while (true) {
        HCM_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        stmt.columns.push_back(std::move(col));
        if (!AcceptSymbol(",")) break;
      }
    }
    HCM_RETURN_IF_ERROR(ExpectKeyword("from"));
    HCM_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    HCM_ASSIGN_OR_RETURN(stmt.where, ParseWhere());
    return Statement{std::move(stmt)};
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::vector<ParamSlot> params_;
};

Result<SqlTemplate> Parse(const std::string& text, bool templated) {
  Lexer lexer(text, templated);
  HCM_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  HCM_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
  HCM_RETURN_IF_ERROR(parser.ExpectDone());
  return SqlTemplate{std::move(stmt), parser.TakeParams()};
}

}  // namespace

Result<Statement> ParseSql(const std::string& sql) {
  HCM_ASSIGN_OR_RETURN(SqlTemplate parsed, Parse(sql, /*templated=*/false));
  return std::move(parsed.stmt);
}

Result<SqlTemplate> ParseSqlTemplate(const std::string& command_template) {
  return Parse(command_template, /*templated=*/true);
}

std::string ToSqlLiteral(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return v.AsBool() ? "true" : "false";
    case ValueKind::kInt:
    case ValueKind::kReal:
      return v.ToString();
    case ValueKind::kStr: {
      std::string out = "'";
      for (char c : v.AsStr()) {
        if (c == '\'') out += '\'';  // escape by doubling
        out += c;
      }
      out += '\'';
      return out;
    }
  }
  return "null";
}

}  // namespace hcm::ris::relational
