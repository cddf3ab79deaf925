#include "parser/parser.h"

#include <chrono>

#include "catalog/schema.h"
#include "parser/lexer.h"

namespace starburst {

using ast::BinaryOp;
using ast::ExprPtr;

namespace {

/// Keywords that terminate an implicit alias position. Hydrogen keywords
/// are not reserved in general, but an alias may not be one of these.
bool IsClauseKeyword(const std::string& ident) {
  static const char* kClauseWords[] = {
      "WHERE", "GROUP", "HAVING", "ORDER", "UNION", "INTERSECT", "EXCEPT",
      "ON", "JOIN", "LEFT", "RIGHT", "INNER", "OUTER", "CROSS", "LIMIT",
      "SET", "VALUES", "USING", "AS", "FROM", "AND", "OR", "NOT", "IN",
      "BETWEEN", "LIKE", "IS", "EXISTS", "SELECT", "WITH", "RECURSIVE",
      "DISTINCT", "ALL", "ASC", "DESC", "WHEN", "THEN", "ELSE", "END",
  };
  for (const char* kw : kClauseWords) {
    if (IdentEquals(ident, kw)) return true;
  }
  return false;
}

bool IsComparisonOp(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEq:
    case TokenKind::kNe:
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:
      return true;
    default:
      return false;
  }
}

BinaryOp ComparisonOp(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEq: return BinaryOp::kEq;
    case TokenKind::kNe: return BinaryOp::kNe;
    case TokenKind::kLt: return BinaryOp::kLt;
    case TokenKind::kLe: return BinaryOp::kLe;
    case TokenKind::kGt: return BinaryOp::kGt;
    default: return BinaryOp::kGe;
  }
}

}  // namespace

Status Parser::EnsureTokens() {
  if (tokenized_) return Status::OK();
  Lexer lexer(sql_);
  STARBURST_ASSIGN_OR_RETURN(tokens_, lexer.Tokenize());
  tokenized_ = true;
  pos_ = 0;
  return Status::OK();
}

const Token& Parser::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) i = tokens_.size() - 1;  // EOF token
  return tokens_[i];
}

Token Parser::Advance() {
  Token t = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::CheckKeyword(const char* kw, size_t ahead) const {
  const Token& t = Peek(ahead);
  return t.kind == TokenKind::kIdentifier && IdentEquals(t.text, kw);
}

bool Parser::MatchToken(TokenKind kind) {
  if (Check(kind)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::MatchKeyword(const char* kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

Result<Token> Parser::Expect(TokenKind kind, const char* what) {
  if (!Check(kind)) {
    return Status::SyntaxError(std::string("expected ") + what + " but found " +
                               Peek().Describe() + " at line " +
                               std::to_string(Peek().line));
  }
  return Advance();
}

Status Parser::ExpectKeyword(const char* kw) {
  if (!MatchKeyword(kw)) {
    return Status::SyntaxError(std::string("expected ") + kw + " but found " +
                               Peek().Describe() + " at line " +
                               std::to_string(Peek().line));
  }
  return Status::OK();
}

Result<std::string> Parser::ExpectIdentifier(const char* what) {
  STARBURST_ASSIGN_OR_RETURN(Token t, Expect(TokenKind::kIdentifier, what));
  return t.text;
}

Result<std::string> Parser::ParseQualifiedTableName(const char* what) {
  STARBURST_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier(what));
  while (Check(TokenKind::kDot) && Peek(1).kind == TokenKind::kIdentifier) {
    Advance();  // '.'
    name += '.';
    name += Advance().text;
  }
  return name;
}

Status Parser::ErrorHere(const std::string& message) const {
  return Status::SyntaxError(message + " (found " + Peek().Describe() +
                             " at line " + std::to_string(Peek().line) + ")");
}

bool Parser::AtQueryStart(size_t ahead) const {
  if (CheckKeyword("SELECT", ahead) || CheckKeyword("WITH", ahead)) return true;
  if (Peek(ahead).kind == TokenKind::kLParen) return AtQueryStart(ahead + 1);
  return false;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Result<ast::StatementPtr> Parser::ParseStatement() {
  STARBURST_RETURN_IF_ERROR(EnsureTokens());
  STARBURST_ASSIGN_OR_RETURN(ast::StatementPtr stmt, ParseStatementInner());
  MatchToken(TokenKind::kSemicolon);
  if (!Check(TokenKind::kEof)) {
    return ErrorHere("trailing input after statement");
  }
  return stmt;
}

Result<std::vector<ast::StatementPtr>> Parser::ParseScript() {
  STARBURST_RETURN_IF_ERROR(EnsureTokens());
  statement_parse_us_.clear();
  std::vector<ast::StatementPtr> out;
  while (!Check(TokenKind::kEof)) {
    if (MatchToken(TokenKind::kSemicolon)) continue;
    auto start = std::chrono::steady_clock::now();
    STARBURST_ASSIGN_OR_RETURN(ast::StatementPtr stmt, ParseStatementInner());
    statement_parse_us_.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
    out.push_back(std::move(stmt));
    if (!Check(TokenKind::kEof)) {
      STARBURST_RETURN_IF_ERROR(
          Expect(TokenKind::kSemicolon, "';'").status());
    }
  }
  return out;
}

Result<std::unique_ptr<ast::Query>> Parser::ParseQueryText(
    const std::string& sql) {
  Parser parser(sql);
  STARBURST_RETURN_IF_ERROR(parser.EnsureTokens());
  STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::Query> q, parser.ParseQuery());
  parser.MatchToken(TokenKind::kSemicolon);
  if (!parser.Check(TokenKind::kEof)) {
    return parser.ErrorHere("trailing input after query");
  }
  return q;
}

Result<ast::StatementPtr> Parser::ParseStatementInner() {
  if (CheckKeyword("SELECT") || CheckKeyword("WITH") ||
      Check(TokenKind::kLParen)) {
    STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::Query> q, ParseQuery());
    return ast::StatementPtr(new ast::SelectStatement(std::move(q)));
  }
  if (CheckKeyword("CREATE")) return ParseCreate();
  if (CheckKeyword("DROP")) return ParseDrop();
  if (CheckKeyword("INSERT")) return ParseInsert();
  if (CheckKeyword("UPDATE")) return ParseUpdate();
  if (CheckKeyword("DELETE")) return ParseDelete();
  if (CheckKeyword("EXPLAIN")) return ParseExplain();
  if (MatchKeyword("SET")) {
    auto stmt = std::make_unique<ast::SetStatement>();
    STARBURST_ASSIGN_OR_RETURN(std::string name,
                               ParseQualifiedTableName("option name"));
    stmt->name = IdentUpper(name);
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kEq, "'='").status());
    if (MatchKeyword("DEFAULT")) {
      stmt->is_default = true;
    } else if (Check(TokenKind::kIdentifier)) {
      // Word values (SET STATEMENT_PRIORITY = HIGH). The engine decides
      // which options accept them.
      STARBURST_ASSIGN_OR_RETURN(std::string word,
                                 ExpectIdentifier("option value"));
      stmt->ident_value = IdentUpper(word);
    } else if (Check(TokenKind::kStringLiteral)) {
      stmt->string_value = Advance().text;
    } else {
      bool negative = MatchToken(TokenKind::kMinus);
      STARBURST_ASSIGN_OR_RETURN(Token value,
                                 Expect(TokenKind::kIntLiteral, "integer"));
      stmt->value = negative ? -value.int_value : value.int_value;
      // Optional byte-unit suffix: SET SORT_MEMORY = 64 KB.
      if (MatchKeyword("K") || MatchKeyword("KB")) {
        stmt->unit = int64_t{1} << 10;
      } else if (MatchKeyword("M") || MatchKeyword("MB")) {
        stmt->unit = int64_t{1} << 20;
      } else if (MatchKeyword("G") || MatchKeyword("GB")) {
        stmt->unit = int64_t{1} << 30;
      }
    }
    return ast::StatementPtr(std::move(stmt));
  }
  if (MatchKeyword("KILL")) {
    auto stmt = std::make_unique<ast::KillStatement>();
    STARBURST_ASSIGN_OR_RETURN(Token value,
                               Expect(TokenKind::kIntLiteral, "statement id"));
    stmt->statement_id = value.int_value;
    return ast::StatementPtr(std::move(stmt));
  }
  if (MatchKeyword("ANALYZE")) {
    auto stmt = std::make_unique<ast::AnalyzeStatement>();
    if (Check(TokenKind::kIdentifier)) {
      STARBURST_ASSIGN_OR_RETURN(stmt->table,
                                 ParseQualifiedTableName("table name"));
    }
    return ast::StatementPtr(std::move(stmt));
  }
  return ErrorHere("expected a statement");
}

Result<ast::StatementPtr> Parser::ParseCreate() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
  if (MatchKeyword("TABLE")) return ParseCreateTable();
  if (MatchKeyword("VIEW")) return ParseCreateView();
  if (MatchKeyword("INDEX")) return ParseCreateIndex(/*unique=*/false);
  if (MatchKeyword("UNIQUE")) {
    STARBURST_RETURN_IF_ERROR(ExpectKeyword("INDEX"));
    return ParseCreateIndex(/*unique=*/true);
  }
  return ErrorHere("expected TABLE, VIEW, INDEX, or UNIQUE INDEX");
}

Result<ast::StatementPtr> Parser::ParseCreateTable() {
  auto stmt = std::make_unique<ast::CreateTableStatement>();
  STARBURST_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedTableName("table name"));
  STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());

  std::vector<std::string> pk;
  while (true) {
    if (MatchKeyword("PRIMARY")) {
      STARBURST_RETURN_IF_ERROR(ExpectKeyword("KEY"));
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());
      if (!pk.empty()) return ErrorHere("duplicate PRIMARY KEY");
      do {
        STARBURST_ASSIGN_OR_RETURN(std::string col,
                                   ExpectIdentifier("column name"));
        pk.push_back(std::move(col));
      } while (MatchToken(TokenKind::kComma));
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    } else if (MatchKeyword("UNIQUE")) {
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());
      std::vector<std::string> cols;
      do {
        STARBURST_ASSIGN_OR_RETURN(std::string col,
                                   ExpectIdentifier("column name"));
        cols.push_back(std::move(col));
      } while (MatchToken(TokenKind::kComma));
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
      stmt->unique_constraints.push_back(std::move(cols));
    } else {
      ast::ColumnSpec col;
      STARBURST_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
      STARBURST_ASSIGN_OR_RETURN(col.type_name, ExpectIdentifier("type name"));
      // Tolerate a length spec like VARCHAR(20) and ignore it.
      if (MatchToken(TokenKind::kLParen)) {
        STARBURST_RETURN_IF_ERROR(
            Expect(TokenKind::kIntLiteral, "length").status());
        STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
      }
      while (true) {
        if (MatchKeyword("NOT")) {
          STARBURST_RETURN_IF_ERROR(ExpectKeyword("NULL"));
          col.not_null = true;
        } else if (MatchKeyword("PRIMARY")) {
          STARBURST_RETURN_IF_ERROR(ExpectKeyword("KEY"));
          col.primary_key = true;
          col.not_null = true;
        } else if (MatchKeyword("UNIQUE")) {
          col.unique = true;
        } else {
          break;
        }
      }
      stmt->columns.push_back(std::move(col));
    }
    if (!MatchToken(TokenKind::kComma)) break;
  }
  STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());

  // Column-level PRIMARY KEY / UNIQUE become table constraints.
  std::vector<std::string> col_pk;
  for (const ast::ColumnSpec& col : stmt->columns) {
    if (col.primary_key) col_pk.push_back(col.name);
    if (col.unique) stmt->unique_constraints.push_back({col.name});
  }
  if (!pk.empty() && !col_pk.empty()) {
    return Status::SyntaxError("PRIMARY KEY specified twice");
  }
  if (pk.empty()) pk = std::move(col_pk);
  if (!pk.empty()) {
    stmt->unique_constraints.insert(stmt->unique_constraints.begin(),
                                    std::move(pk));
  }

  if (MatchKeyword("USING")) {
    STARBURST_ASSIGN_OR_RETURN(stmt->storage_manager,
                               ExpectIdentifier("storage manager name"));
  }
  return ast::StatementPtr(std::move(stmt));
}

Result<ast::StatementPtr> Parser::ParseCreateIndex(bool unique) {
  auto stmt = std::make_unique<ast::CreateIndexStatement>();
  stmt->unique = unique;
  STARBURST_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("index name"));
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("ON"));
  STARBURST_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedTableName("table name"));
  STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());
  do {
    STARBURST_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
    stmt->columns.push_back(std::move(col));
  } while (MatchToken(TokenKind::kComma));
  STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
  if (MatchKeyword("USING")) {
    STARBURST_ASSIGN_OR_RETURN(stmt->access_method,
                               ExpectIdentifier("access method name"));
  }
  return ast::StatementPtr(std::move(stmt));
}

Result<ast::StatementPtr> Parser::ParseCreateView() {
  auto stmt = std::make_unique<ast::CreateViewStatement>();
  STARBURST_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedTableName("view name"));
  if (MatchToken(TokenKind::kLParen)) {
    do {
      STARBURST_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      stmt->column_names.push_back(std::move(col));
    } while (MatchToken(TokenKind::kComma));
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
  }
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("AS"));
  size_t body_start = Peek().offset;
  STARBURST_ASSIGN_OR_RETURN(stmt->query, ParseQuery());
  size_t body_end =
      Check(TokenKind::kEof) ? sql_.size() : Peek().offset;
  stmt->body_text = sql_.substr(body_start, body_end - body_start);
  return ast::StatementPtr(std::move(stmt));
}

Result<ast::StatementPtr> Parser::ParseDrop() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("DROP"));
  if (MatchKeyword("TABLE")) {
    auto stmt = std::make_unique<ast::DropTableStatement>();
    STARBURST_ASSIGN_OR_RETURN(stmt->name,
                               ParseQualifiedTableName("table name"));
    return ast::StatementPtr(std::move(stmt));
  }
  if (MatchKeyword("VIEW")) {
    auto stmt = std::make_unique<ast::DropViewStatement>();
    STARBURST_ASSIGN_OR_RETURN(stmt->name, ParseQualifiedTableName("view name"));
    return ast::StatementPtr(std::move(stmt));
  }
  if (MatchKeyword("INDEX")) {
    auto stmt = std::make_unique<ast::DropIndexStatement>();
    STARBURST_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("index name"));
    return ast::StatementPtr(std::move(stmt));
  }
  return ErrorHere("expected TABLE, VIEW, or INDEX");
}

Result<ast::StatementPtr> Parser::ParseInsert() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("INTO"));
  auto stmt = std::make_unique<ast::InsertStatement>();
  STARBURST_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedTableName("table name"));
  if (Check(TokenKind::kLParen) && !AtQueryStart(1)) {
    Advance();
    do {
      STARBURST_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      stmt->columns.push_back(std::move(col));
    } while (MatchToken(TokenKind::kComma));
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
  }
  if (MatchKeyword("VALUES")) {
    do {
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());
      STARBURST_ASSIGN_OR_RETURN(std::vector<ExprPtr> row, ParseExprList());
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
      stmt->rows.push_back(std::move(row));
    } while (MatchToken(TokenKind::kComma));
  } else {
    STARBURST_ASSIGN_OR_RETURN(stmt->query, ParseQuery());
  }
  return ast::StatementPtr(std::move(stmt));
}

Result<ast::StatementPtr> Parser::ParseUpdate() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
  auto stmt = std::make_unique<ast::UpdateStatement>();
  STARBURST_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedTableName("table name"));
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("SET"));
  do {
    STARBURST_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kEq, "'='").status());
    STARBURST_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
    stmt->assignments.emplace_back(std::move(col), std::move(value));
  } while (MatchToken(TokenKind::kComma));
  if (MatchKeyword("WHERE")) {
    STARBURST_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return ast::StatementPtr(std::move(stmt));
}

Result<ast::StatementPtr> Parser::ParseDelete() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  auto stmt = std::make_unique<ast::DeleteStatement>();
  STARBURST_ASSIGN_OR_RETURN(stmt->table, ParseQualifiedTableName("table name"));
  if (MatchKeyword("WHERE")) {
    STARBURST_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  return ast::StatementPtr(std::move(stmt));
}

Result<ast::StatementPtr> Parser::ParseExplain() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("EXPLAIN"));
  auto stmt = std::make_unique<ast::ExplainStatement>();
  if (MatchKeyword("QGM")) {
    stmt->what = ast::ExplainStatement::What::kQgm;
    if (MatchKeyword("BEFORE")) stmt->before_rewrite = true;
  } else if (MatchKeyword("PLAN")) {
    stmt->what = ast::ExplainStatement::What::kPlan;
  } else {
    if (MatchKeyword("ANALYZE")) stmt->analyze = true;
    if (MatchKeyword("VERBOSE")) stmt->verbose = true;
  }
  STARBURST_ASSIGN_OR_RETURN(stmt->statement, ParseStatementInner());
  switch (stmt->statement->kind) {
    case ast::StatementKind::kSelect:
    case ast::StatementKind::kInsert:
    case ast::StatementKind::kUpdate:
    case ast::StatementKind::kDelete:
      return ast::StatementPtr(std::move(stmt));
    default:
      return ErrorHere("EXPLAIN takes a SELECT, INSERT, UPDATE or DELETE");
  }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ast::Query>> Parser::ParseQuery() {
  auto query = std::make_unique<ast::Query>();
  if (MatchKeyword("WITH")) {
    query->recursive = MatchKeyword("RECURSIVE");
    do {
      ast::CommonTableExpr cte;
      STARBURST_ASSIGN_OR_RETURN(cte.name, ExpectIdentifier("table expression name"));
      if (MatchToken(TokenKind::kLParen)) {
        do {
          STARBURST_ASSIGN_OR_RETURN(std::string col,
                                     ExpectIdentifier("column name"));
          cte.column_names.push_back(std::move(col));
        } while (MatchToken(TokenKind::kComma));
        STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
      }
      STARBURST_RETURN_IF_ERROR(ExpectKeyword("AS"));
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());
      STARBURST_ASSIGN_OR_RETURN(cte.query, ParseQuery());
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
      query->ctes.push_back(std::move(cte));
    } while (MatchToken(TokenKind::kComma));
  }

  STARBURST_ASSIGN_OR_RETURN(query->body, ParseQueryBody());

  if (MatchKeyword("ORDER")) {
    STARBURST_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      ast::OrderItem item;
      STARBURST_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("DESC")) {
        item.ascending = false;
      } else {
        MatchKeyword("ASC");
      }
      query->order_by.push_back(std::move(item));
    } while (MatchToken(TokenKind::kComma));
  }
  if (MatchKeyword("LIMIT")) {
    STARBURST_ASSIGN_OR_RETURN(Token n, Expect(TokenKind::kIntLiteral, "limit"));
    query->limit = n.int_value;
  }
  return query;
}

// UNION / EXCEPT level (left-associative); INTERSECT binds tighter.
Result<std::unique_ptr<ast::QueryBody>> Parser::ParseQueryBody() {
  STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::QueryBody> left,
                             ParseQueryTerm());
  while (CheckKeyword("UNION") || CheckKeyword("EXCEPT")) {
    ast::SetOpKind op = CheckKeyword("UNION") ? ast::SetOpKind::kUnion
                                              : ast::SetOpKind::kExcept;
    Advance();
    bool all = MatchKeyword("ALL");
    STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::QueryBody> right,
                               ParseQueryTerm());
    left = std::make_unique<ast::QueryBody>(op, all, std::move(left),
                                            std::move(right));
  }
  return left;
}

Result<std::unique_ptr<ast::QueryBody>> Parser::ParseQueryTerm() {
  STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::QueryBody> left,
                             ParseQueryPrimary());
  while (CheckKeyword("INTERSECT")) {
    Advance();
    bool all = MatchKeyword("ALL");
    STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::QueryBody> right,
                               ParseQueryPrimary());
    left = std::make_unique<ast::QueryBody>(ast::SetOpKind::kIntersect, all,
                                            std::move(left), std::move(right));
  }
  return left;
}

Result<std::unique_ptr<ast::QueryBody>> Parser::ParseQueryPrimary() {
  if (MatchToken(TokenKind::kLParen)) {
    STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::QueryBody> body,
                               ParseQueryBody());
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    return body;
  }
  STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::SelectCore> core,
                             ParseSelectCore());
  return std::make_unique<ast::QueryBody>(std::move(core));
}

Result<std::unique_ptr<ast::SelectCore>> Parser::ParseSelectCore() {
  STARBURST_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  auto core = std::make_unique<ast::SelectCore>();
  if (MatchKeyword("DISTINCT")) {
    core->distinct = true;
  } else {
    MatchKeyword("ALL");
  }

  // Select list.
  do {
    ast::SelectItem item;
    if (MatchToken(TokenKind::kStar)) {
      item.star = true;
    } else if (Check(TokenKind::kIdentifier) &&
               Peek(1).kind == TokenKind::kDot &&
               Peek(2).kind == TokenKind::kStar) {
      item.star = true;
      item.star_qualifier = Advance().text;
      Advance();  // '.'
      Advance();  // '*'
    } else {
      STARBURST_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("AS")) {
        STARBURST_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("column alias"));
      } else if (Check(TokenKind::kIdentifier) &&
                 !IsClauseKeyword(Peek().text)) {
        item.alias = Advance().text;
      }
    }
    core->items.push_back(std::move(item));
  } while (MatchToken(TokenKind::kComma));

  if (MatchKeyword("FROM")) {
    do {
      STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::TableRef> ref,
                                 ParseTableRef());
      core->from.push_back(std::move(ref));
    } while (MatchToken(TokenKind::kComma));
  }

  if (MatchKeyword("WHERE")) {
    STARBURST_ASSIGN_OR_RETURN(core->where, ParseExpr());
  }
  if (MatchKeyword("GROUP")) {
    STARBURST_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      STARBURST_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      core->group_by.push_back(std::move(e));
    } while (MatchToken(TokenKind::kComma));
  }
  if (MatchKeyword("HAVING")) {
    STARBURST_ASSIGN_OR_RETURN(core->having, ParseExpr());
  }
  return core;
}

Result<std::unique_ptr<ast::TableRef>> Parser::ParseTableRef() {
  STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::TableRef> left,
                             ParseTablePrimary());
  while (true) {
    ast::JoinKind join_kind;
    if (CheckKeyword("JOIN") || CheckKeyword("INNER")) {
      MatchKeyword("INNER");
      STARBURST_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      join_kind = ast::JoinKind::kInner;
    } else if (CheckKeyword("LEFT")) {
      Advance();
      MatchKeyword("OUTER");
      STARBURST_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      join_kind = ast::JoinKind::kLeftOuter;
    } else {
      break;
    }
    STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::TableRef> right,
                               ParseTablePrimary());
    STARBURST_RETURN_IF_ERROR(ExpectKeyword("ON"));
    STARBURST_ASSIGN_OR_RETURN(ExprPtr on, ParseExpr());
    auto join = std::make_unique<ast::TableRef>();
    join->kind = ast::TableRef::Kind::kJoin;
    join->join_kind = join_kind;
    join->left = std::move(left);
    join->right = std::move(right);
    join->on_condition = std::move(on);
    left = std::move(join);
  }
  return left;
}

Result<std::unique_ptr<ast::TableRef>> Parser::ParseTablePrimary() {
  auto ref = std::make_unique<ast::TableRef>();

  if (Check(TokenKind::kLParen)) {
    // (query) AS alias
    Advance();
    ref->kind = ast::TableRef::Kind::kSubquery;
    STARBURST_ASSIGN_OR_RETURN(ref->subquery, ParseQuery());
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    STARBURST_ASSIGN_OR_RETURN(ref->alias, ParseOptionalAlias());
    return ref;
  }

  STARBURST_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));

  if (Check(TokenKind::kDot) && Peek(1).kind == TokenKind::kIdentifier) {
    // Schema-qualified reference (sys.metrics): join into one name; the
    // binder defaults the alias to the last component.
    while (Check(TokenKind::kDot) && Peek(1).kind == TokenKind::kIdentifier) {
      Advance();  // '.'
      name += '.';
      name += Advance().text;
    }
    ref->kind = ast::TableRef::Kind::kNamed;
    ref->name = std::move(name);
    STARBURST_ASSIGN_OR_RETURN(ref->alias, ParseOptionalAlias());
    return ref;
  }

  if (Check(TokenKind::kLParen)) {
    // Table function: NAME(arg, ...). Args are queries, bare table names,
    // or scalar expressions.
    Advance();
    ref->kind = ast::TableRef::Kind::kTableFunction;
    ref->function_name = std::move(name);
    if (!Check(TokenKind::kRParen)) {
      do {
        ast::TableFuncArg arg;
        if (AtQueryStart()) {
          STARBURST_ASSIGN_OR_RETURN(arg.table, ParseQuery());
        } else if (Check(TokenKind::kIdentifier) &&
                   (Peek(1).kind == TokenKind::kComma ||
                    Peek(1).kind == TokenKind::kRParen)) {
          // Bare identifier: a table argument, per the paper's
          // SAMPLE(table, int) example. Desugar to SELECT * FROM ident.
          std::string table_name = Advance().text;
          auto q = std::make_unique<ast::Query>();
          auto core = std::make_unique<ast::SelectCore>();
          ast::SelectItem star;
          star.star = true;
          core->items.push_back(std::move(star));
          auto inner = std::make_unique<ast::TableRef>();
          inner->kind = ast::TableRef::Kind::kNamed;
          inner->name = std::move(table_name);
          core->from.push_back(std::move(inner));
          q->body = std::make_unique<ast::QueryBody>(std::move(core));
          arg.table = std::move(q);
        } else {
          STARBURST_ASSIGN_OR_RETURN(arg.scalar, ParseExpr());
        }
        ref->func_args.push_back(std::move(arg));
      } while (MatchToken(TokenKind::kComma));
    }
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    STARBURST_ASSIGN_OR_RETURN(ref->alias, ParseOptionalAlias());
    return ref;
  }

  ref->kind = ast::TableRef::Kind::kNamed;
  ref->name = std::move(name);
  STARBURST_ASSIGN_OR_RETURN(ref->alias, ParseOptionalAlias());
  return ref;
}

Result<std::string> Parser::ParseOptionalAlias() {
  if (MatchKeyword("AS")) {
    return ExpectIdentifier("alias");
  }
  if (Check(TokenKind::kIdentifier) && !IsClauseKeyword(Peek().text)) {
    return Advance().text;
  }
  return std::string();
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Result<std::vector<ExprPtr>> Parser::ParseExprList() {
  std::vector<ExprPtr> out;
  do {
    STARBURST_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    out.push_back(std::move(e));
  } while (MatchToken(TokenKind::kComma));
  return out;
}

Result<ExprPtr> Parser::ParseExpr() {
  STARBURST_ASSIGN_OR_RETURN(ExprPtr left, ParseAndExpr());
  while (MatchKeyword("OR")) {
    STARBURST_ASSIGN_OR_RETURN(ExprPtr right, ParseAndExpr());
    left = std::make_unique<ast::BinaryExpr>(BinaryOp::kOr, std::move(left),
                                             std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseAndExpr() {
  STARBURST_ASSIGN_OR_RETURN(ExprPtr left, ParseNotExpr());
  while (MatchKeyword("AND")) {
    STARBURST_ASSIGN_OR_RETURN(ExprPtr right, ParseNotExpr());
    left = std::make_unique<ast::BinaryExpr>(BinaryOp::kAnd, std::move(left),
                                             std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseNotExpr() {
  if (MatchKeyword("NOT")) {
    STARBURST_ASSIGN_OR_RETURN(ExprPtr e, ParseNotExpr());
    return ExprPtr(new ast::UnaryExpr(ast::UnaryOp::kNot, std::move(e)));
  }
  return ParsePredicate();
}

Result<ExprPtr> Parser::ParsePredicate() {
  // EXISTS (subquery)
  if (CheckKeyword("EXISTS") && Peek(1).kind == TokenKind::kLParen) {
    Advance();
    Advance();
    STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::Query> q, ParseQuery());
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    return ExprPtr(new ast::ExistsExpr(std::move(q), /*negated=*/false));
  }

  STARBURST_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());

  // expr cmp [quantifier] rhs
  if (IsComparisonOp(Peek().kind)) {
    BinaryOp op = ComparisonOp(Advance().kind);
    // Quantified comparison: cmp QUANT (query). QUANT is any identifier
    // directly followed by a parenthesized query — this is how DBC set
    // predicates (MAJORITY, ...) enter the grammar without new keywords.
    if (Check(TokenKind::kIdentifier) && Peek(1).kind == TokenKind::kLParen &&
        AtQueryStart(2)) {
      std::string quant = Advance().text;
      Advance();  // '('
      STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::Query> q, ParseQuery());
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
      return ExprPtr(new ast::QuantifiedCmpExpr(std::move(left), op,
                                                std::move(quant), std::move(q)));
    }
    STARBURST_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    return ExprPtr(
        new ast::BinaryExpr(op, std::move(left), std::move(right)));
  }

  bool negated = false;
  if (CheckKeyword("NOT") &&
      (CheckKeyword("IN", 1) || CheckKeyword("BETWEEN", 1) ||
       CheckKeyword("LIKE", 1))) {
    Advance();
    negated = true;
  }

  if (MatchKeyword("IN")) {
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('").status());
    if (AtQueryStart()) {
      STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::Query> q, ParseQuery());
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
      return ExprPtr(new ast::InSubqueryExpr(std::move(left), std::move(q),
                                             negated));
    }
    STARBURST_ASSIGN_OR_RETURN(std::vector<ExprPtr> items, ParseExprList());
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    return ExprPtr(
        new ast::InListExpr(std::move(left), std::move(items), negated));
  }

  if (MatchKeyword("BETWEEN")) {
    STARBURST_ASSIGN_OR_RETURN(ExprPtr low, ParseAdditive());
    STARBURST_RETURN_IF_ERROR(ExpectKeyword("AND"));
    STARBURST_ASSIGN_OR_RETURN(ExprPtr high, ParseAdditive());
    return ExprPtr(new ast::BetweenExpr(std::move(left), std::move(low),
                                        std::move(high), negated));
  }

  if (MatchKeyword("LIKE")) {
    STARBURST_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
    return ExprPtr(
        new ast::LikeExpr(std::move(left), std::move(pattern), negated));
  }

  if (MatchKeyword("IS")) {
    bool is_not = MatchKeyword("NOT");
    STARBURST_RETURN_IF_ERROR(ExpectKeyword("NULL"));
    return ExprPtr(new ast::IsNullExpr(std::move(left), is_not));
  }

  return left;
}

Result<ExprPtr> Parser::ParseAdditive() {
  STARBURST_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
  while (true) {
    BinaryOp op;
    if (Check(TokenKind::kPlus)) {
      op = BinaryOp::kAdd;
    } else if (Check(TokenKind::kMinus)) {
      op = BinaryOp::kSub;
    } else if (Check(TokenKind::kConcat)) {
      op = BinaryOp::kConcat;
    } else {
      break;
    }
    Advance();
    STARBURST_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
    left = std::make_unique<ast::BinaryExpr>(op, std::move(left),
                                             std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  STARBURST_ASSIGN_OR_RETURN(ExprPtr left, ParseUnaryExpr());
  while (true) {
    BinaryOp op;
    if (Check(TokenKind::kStar)) {
      op = BinaryOp::kMul;
    } else if (Check(TokenKind::kSlash)) {
      op = BinaryOp::kDiv;
    } else if (Check(TokenKind::kPercent)) {
      op = BinaryOp::kMod;
    } else {
      break;
    }
    Advance();
    STARBURST_ASSIGN_OR_RETURN(ExprPtr right, ParseUnaryExpr());
    left = std::make_unique<ast::BinaryExpr>(op, std::move(left),
                                             std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseUnaryExpr() {
  if (MatchToken(TokenKind::kMinus)) {
    STARBURST_ASSIGN_OR_RETURN(ExprPtr e, ParseUnaryExpr());
    return ExprPtr(new ast::UnaryExpr(ast::UnaryOp::kNegate, std::move(e)));
  }
  if (MatchToken(TokenKind::kPlus)) {
    return ParseUnaryExpr();
  }
  return ParsePrimaryExpr();
}

Result<ExprPtr> Parser::ParsePrimaryExpr() {
  const Token& t = Peek();
  switch (t.kind) {
    case TokenKind::kIntLiteral: {
      Token tok = Advance();
      return ExprPtr(new ast::LiteralExpr(Value::Int(tok.int_value)));
    }
    case TokenKind::kDoubleLiteral: {
      Token tok = Advance();
      return ExprPtr(new ast::LiteralExpr(Value::Double(tok.double_value)));
    }
    case TokenKind::kStringLiteral: {
      Token tok = Advance();
      return ExprPtr(new ast::LiteralExpr(Value::String(tok.text)));
    }
    case TokenKind::kQuestion: {
      Advance();
      return ExprPtr(new ast::ParamExpr(num_params_++));
    }
    case TokenKind::kLParen: {
      if (AtQueryStart(1)) {
        Advance();
        STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<ast::Query> q, ParseQuery());
        STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
        return ExprPtr(new ast::ScalarSubqueryExpr(std::move(q)));
      }
      Advance();
      STARBURST_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
      return e;
    }
    case TokenKind::kIdentifier:
      break;  // handled below
    default:
      return ErrorHere("expected an expression");
  }

  // Literal keywords.
  if (MatchKeyword("NULL")) return ExprPtr(new ast::LiteralExpr(Value::Null()));
  if (MatchKeyword("TRUE")) {
    return ExprPtr(new ast::LiteralExpr(Value::Bool(true)));
  }
  if (MatchKeyword("FALSE")) {
    return ExprPtr(new ast::LiteralExpr(Value::Bool(false)));
  }

  if (CheckKeyword("CASE")) {
    Advance();
    auto case_expr = std::make_unique<ast::CaseExpr>();
    while (MatchKeyword("WHEN")) {
      ast::CaseExpr::WhenClause clause;
      STARBURST_ASSIGN_OR_RETURN(clause.condition, ParseExpr());
      STARBURST_RETURN_IF_ERROR(ExpectKeyword("THEN"));
      STARBURST_ASSIGN_OR_RETURN(clause.result, ParseExpr());
      case_expr->when_clauses.push_back(std::move(clause));
    }
    if (case_expr->when_clauses.empty()) {
      return ErrorHere("CASE requires at least one WHEN clause");
    }
    if (MatchKeyword("ELSE")) {
      STARBURST_ASSIGN_OR_RETURN(case_expr->else_result, ParseExpr());
    }
    STARBURST_RETURN_IF_ERROR(ExpectKeyword("END"));
    return ExprPtr(std::move(case_expr));
  }

  // Clause keywords cannot start a bare column reference (quote the
  // identifier to use such a name); this keeps `SELECT FROM t` an error
  // even though Hydrogen keywords are otherwise unreserved.
  if (IsClauseKeyword(Peek().text) && Peek(1).kind != TokenKind::kLParen &&
      Peek(1).kind != TokenKind::kDot) {
    return ErrorHere("expected an expression");
  }

  std::string name = Advance().text;

  // Function call.
  if (Check(TokenKind::kLParen)) {
    Advance();
    auto call = std::make_unique<ast::FunctionCallExpr>(
        name, std::vector<ExprPtr>());
    if (MatchToken(TokenKind::kStar)) {
      call->star = true;
    } else if (!Check(TokenKind::kRParen)) {
      if (MatchKeyword("DISTINCT")) call->distinct = true;
      STARBURST_ASSIGN_OR_RETURN(call->args, ParseExprList());
    }
    STARBURST_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'").status());
    return ExprPtr(std::move(call));
  }

  // Column reference, possibly qualified.
  if (MatchToken(TokenKind::kDot)) {
    STARBURST_ASSIGN_OR_RETURN(std::string column,
                               ExpectIdentifier("column name"));
    return ExprPtr(new ast::ColumnRefExpr(std::move(name), std::move(column)));
  }
  return ExprPtr(new ast::ColumnRefExpr("", std::move(name)));
}

}  // namespace starburst
