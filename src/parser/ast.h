#ifndef STARBURST_PARSER_AST_H_
#define STARBURST_PARSER_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"

namespace starburst::ast {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct Query;  // forward

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kBinary,
  kUnary,
  kFunctionCall,   // scalar or aggregate; resolved during binding
  kIsNull,
  kBetween,
  kInList,
  kInSubquery,
  kExists,
  kQuantifiedCmp,  // expr op ALL/ANY/SOME/<set predicate>(subquery)
  kScalarSubquery,
  kLike,
  kCase,
  kParam,          // ? positional parameter, numbered in parse order
};

enum class BinaryOp {
  kAnd, kOr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv, kMod,
  kConcat,
};

enum class UnaryOp { kNot, kNegate };

const char* BinaryOpName(BinaryOp op);

struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  /// Roughly the Hydrogen spelling; for diagnostics and tests.
  virtual std::string ToString() const = 0;

  const ExprKind kind;
};

using ExprPtr = std::unique_ptr<Expr>;

struct LiteralExpr : Expr {
  explicit LiteralExpr(Value v) : Expr(ExprKind::kLiteral), value(std::move(v)) {}
  std::string ToString() const override { return value.ToString(); }
  Value value;
};

struct ParamExpr : Expr {
  explicit ParamExpr(size_t i) : Expr(ExprKind::kParam), index(i) {}
  std::string ToString() const override {
    return "?" + std::to_string(index + 1);
  }
  size_t index;  // zero-based position among the statement's ? markers
};

struct ColumnRefExpr : Expr {
  ColumnRefExpr(std::string q, std::string c)
      : Expr(ExprKind::kColumnRef), qualifier(std::move(q)), column(std::move(c)) {}
  std::string ToString() const override {
    return qualifier.empty() ? column : qualifier + "." + column;
  }
  std::string qualifier;  // table/alias, may be empty
  std::string column;
};

struct BinaryExpr : Expr {
  BinaryExpr(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kBinary), op(o), left(std::move(l)), right(std::move(r)) {}
  std::string ToString() const override;
  BinaryOp op;
  ExprPtr left, right;
};

struct UnaryExpr : Expr {
  UnaryExpr(UnaryOp o, ExprPtr e)
      : Expr(ExprKind::kUnary), op(o), operand(std::move(e)) {}
  std::string ToString() const override;
  UnaryOp op;
  ExprPtr operand;
};

struct FunctionCallExpr : Expr {
  FunctionCallExpr(std::string n, std::vector<ExprPtr> a)
      : Expr(ExprKind::kFunctionCall), name(std::move(n)), args(std::move(a)) {}
  std::string ToString() const override;
  std::string name;
  std::vector<ExprPtr> args;
  bool star = false;     // COUNT(*)
  bool distinct = false; // COUNT(DISTINCT x)
};

struct IsNullExpr : Expr {
  IsNullExpr(ExprPtr e, bool neg)
      : Expr(ExprKind::kIsNull), operand(std::move(e)), negated(neg) {}
  std::string ToString() const override;
  ExprPtr operand;
  bool negated;
};

struct BetweenExpr : Expr {
  BetweenExpr(ExprPtr e, ExprPtr l, ExprPtr h, bool neg)
      : Expr(ExprKind::kBetween), operand(std::move(e)), low(std::move(l)),
        high(std::move(h)), negated(neg) {}
  std::string ToString() const override;
  ExprPtr operand, low, high;
  bool negated;
};

struct InListExpr : Expr {
  InListExpr(ExprPtr e, std::vector<ExprPtr> items_in, bool neg)
      : Expr(ExprKind::kInList), operand(std::move(e)), items(std::move(items_in)),
        negated(neg) {}
  std::string ToString() const override;
  ExprPtr operand;
  std::vector<ExprPtr> items;
  bool negated;
};

struct InSubqueryExpr : Expr {
  InSubqueryExpr(ExprPtr e, std::unique_ptr<Query> q, bool neg)
      : Expr(ExprKind::kInSubquery), operand(std::move(e)), query(std::move(q)),
        negated(neg) {}
  std::string ToString() const override;
  ExprPtr operand;
  std::unique_ptr<Query> query;
  bool negated;
};

struct ExistsExpr : Expr {
  ExistsExpr(std::unique_ptr<Query> q, bool neg)
      : Expr(ExprKind::kExists), query(std::move(q)), negated(neg) {}
  std::string ToString() const override;
  std::unique_ptr<Query> query;
  bool negated;
};

/// `expr op QUANT (subquery)` where QUANT is ALL/ANY/SOME or any registered
/// set-predicate function (the paper's MAJORITY example).
struct QuantifiedCmpExpr : Expr {
  QuantifiedCmpExpr(ExprPtr e, BinaryOp c, std::string quant,
                    std::unique_ptr<Query> q)
      : Expr(ExprKind::kQuantifiedCmp), operand(std::move(e)), cmp(c),
        quantifier(std::move(quant)), query(std::move(q)) {}
  std::string ToString() const override;
  ExprPtr operand;
  BinaryOp cmp;
  std::string quantifier;
  std::unique_ptr<Query> query;
};

struct ScalarSubqueryExpr : Expr {
  explicit ScalarSubqueryExpr(std::unique_ptr<Query> q)
      : Expr(ExprKind::kScalarSubquery), query(std::move(q)) {}
  std::string ToString() const override;
  std::unique_ptr<Query> query;
};

struct LikeExpr : Expr {
  LikeExpr(ExprPtr e, ExprPtr p, bool neg)
      : Expr(ExprKind::kLike), operand(std::move(e)), pattern(std::move(p)),
        negated(neg) {}
  std::string ToString() const override;
  ExprPtr operand, pattern;
  bool negated;
};

struct CaseExpr : Expr {
  struct WhenClause {
    ExprPtr condition;
    ExprPtr result;
  };
  CaseExpr() : Expr(ExprKind::kCase) {}
  std::string ToString() const override;
  std::vector<WhenClause> when_clauses;
  ExprPtr else_result;  // may be null (NULL)
};

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

enum class SetOpKind { kUnion, kIntersect, kExcept };
enum class JoinKind { kInner, kLeftOuter };

struct TableRef;

/// One item of a SELECT list.
struct SelectItem {
  ExprPtr expr;            // null when star
  std::string alias;
  bool star = false;
  std::string star_qualifier;  // "T.*"
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

/// SELECT core: SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...
struct SelectCore {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<std::unique_ptr<TableRef>> from;
  ExprPtr where;                 // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;                // may be null
};

/// A query body is a SELECT core or a set operation over two bodies.
struct QueryBody {
  enum class Kind { kSelect, kSetOp };
  explicit QueryBody(std::unique_ptr<SelectCore> s)
      : kind(Kind::kSelect), select(std::move(s)) {}
  QueryBody(SetOpKind o, bool all_in, std::unique_ptr<QueryBody> l,
            std::unique_ptr<QueryBody> r)
      : kind(Kind::kSetOp), op(o), all(all_in), left(std::move(l)),
        right(std::move(r)) {}

  Kind kind;
  // kSelect
  std::unique_ptr<SelectCore> select;
  // kSetOp
  SetOpKind op = SetOpKind::kUnion;
  bool all = false;
  std::unique_ptr<QueryBody> left, right;
};

/// A named table expression (§2): WITH [RECURSIVE] name [(cols)] AS (query).
struct CommonTableExpr {
  std::string name;
  std::vector<std::string> column_names;
  std::unique_ptr<Query> query;
};

/// A full query: table expressions, a body, and an optional ORDER BY/LIMIT.
struct Query {
  bool recursive = false;
  std::vector<CommonTableExpr> ctes;
  std::unique_ptr<QueryBody> body;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1 = no limit
};

/// Argument to a table function: a table (query) or a scalar expression.
struct TableFuncArg {
  std::unique_ptr<Query> table;  // set for table args
  ExprPtr scalar;                // set for scalar args
};

/// A FROM-clause element.
struct TableRef {
  enum class Kind { kNamed, kSubquery, kJoin, kTableFunction };

  Kind kind = Kind::kNamed;
  std::string alias;

  // kNamed: a base table, view, or table-expression (CTE) reference.
  std::string name;

  // kSubquery: (query) AS alias
  std::unique_ptr<Query> subquery;

  // kJoin: left JOIN right ON condition
  JoinKind join_kind = JoinKind::kInner;
  std::unique_ptr<TableRef> left, right;
  ExprPtr on_condition;

  // kTableFunction: SAMPLE(table_arg, 10)
  std::string function_name;
  std::vector<TableFuncArg> func_args;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind {
  kSelect,
  kCreateTable,
  kDropTable,
  kCreateIndex,
  kDropIndex,
  kCreateView,
  kDropView,
  kInsert,
  kUpdate,
  kDelete,
  kExplain,
  kAnalyze,
  kSet,
  kKill,
};

struct Statement {
  explicit Statement(StatementKind k) : kind(k) {}
  virtual ~Statement() = default;
  Statement(const Statement&) = delete;
  Statement& operator=(const Statement&) = delete;

  const StatementKind kind;
};

using StatementPtr = std::unique_ptr<Statement>;

struct SelectStatement : Statement {
  explicit SelectStatement(std::unique_ptr<Query> q)
      : Statement(StatementKind::kSelect), query(std::move(q)) {}
  std::unique_ptr<Query> query;
};

struct ColumnSpec {
  std::string name;
  std::string type_name;  // resolved against built-ins then TypeRegistry
  bool not_null = false;
  bool primary_key = false;
  bool unique = false;
};

struct CreateTableStatement : Statement {
  CreateTableStatement() : Statement(StatementKind::kCreateTable) {}
  std::string name;
  std::vector<ColumnSpec> columns;
  std::vector<std::vector<std::string>> unique_constraints;  // incl. PK first
  std::string storage_manager;  // empty = default HEAP
};

struct DropTableStatement : Statement {
  DropTableStatement() : Statement(StatementKind::kDropTable) {}
  std::string name;
};

struct CreateIndexStatement : Statement {
  CreateIndexStatement() : Statement(StatementKind::kCreateIndex) {}
  std::string name;
  std::string table;
  std::vector<std::string> columns;
  bool unique = false;
  std::string access_method;  // empty = BTREE
};

struct DropIndexStatement : Statement {
  DropIndexStatement() : Statement(StatementKind::kDropIndex) {}
  std::string name;
};

struct CreateViewStatement : Statement {
  CreateViewStatement() : Statement(StatementKind::kCreateView) {}
  std::string name;
  std::vector<std::string> column_names;
  std::unique_ptr<Query> query;
  std::string body_text;  // original SELECT text, stored in the catalog
};

struct DropViewStatement : Statement {
  DropViewStatement() : Statement(StatementKind::kDropView) {}
  std::string name;
};

/// INSERT, UPDATE and DELETE: the statements that change `table`.
struct DmlStatement : Statement {
  using Statement::Statement;
  std::string table;
};

struct InsertStatement : DmlStatement {
  InsertStatement() : DmlStatement(StatementKind::kInsert) {}
  std::vector<std::string> columns;       // empty = all, in schema order
  std::vector<std::vector<ExprPtr>> rows; // VALUES rows (literal exprs)
  std::unique_ptr<Query> query;           // INSERT ... SELECT
};

struct UpdateStatement : DmlStatement {
  UpdateStatement() : DmlStatement(StatementKind::kUpdate) {}
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // may be null
};

struct DeleteStatement : DmlStatement {
  DeleteStatement() : DmlStatement(StatementKind::kDelete) {}
  ExprPtr where;  // may be null
};

/// ANALYZE [table]: recompute optimizer statistics (row counts, NDVs,
/// min/max) for one table or all of them.
struct AnalyzeStatement : Statement {
  AnalyzeStatement() : Statement(StatementKind::kAnalyze) {}
  std::string table;  // empty = all tables
};

/// SET <name> = <integer> | <identifier> | DEFAULT: session option
/// assignment (e.g. SET PARALLELISM = 4, SET STATEMENT_PRIORITY = HIGH).
struct SetStatement : Statement {
  SetStatement() : Statement(StatementKind::kSet) {}
  std::string name;       // upper-cased option name, dotted if nested
  int64_t value = 0;
  /// Byte-unit suffix multiplier (SET SORT_MEMORY = 64 KB: 1024); 1 when
  /// there is none. The engine decides which options accept one.
  int64_t unit = 1;
  /// Upper-cased word value (SET STATEMENT_PRIORITY = HIGH); empty for
  /// numeric and DEFAULT assignments.
  std::string ident_value;
  /// Quoted value (SET REWRITE.ENABLED_CLASSES = 'merge,subquery').
  std::optional<std::string> string_value;
  bool is_default = false;  // SET <name> = DEFAULT
};

/// KILL <statement_id>: trips the cancel token of a live statement (as
/// listed in sys.statements), making it unwind with a Cancelled status
/// at its next batch boundary.
struct KillStatement : Statement {
  KillStatement() : Statement(StatementKind::kKill) {}
  int64_t statement_id = 0;
};

/// EXPLAIN [QGM [BEFORE] | PLAN | [ANALYZE] [VERBOSE]] <statement>:
/// dumps the rewritten QGM or the chosen plan instead of executing. The
/// statement is a SELECT, INSERT, UPDATE or DELETE (DML explains the
/// query of the rows it changes). ANALYZE additionally executes the
/// statement, DML changes included, and reports actual rows/time per
/// operator beside the estimates; VERBOSE adds the QGM and the
/// rewrite-rule firing log without executing (ANALYZE implies VERBOSE's
/// sections plus the actuals).
struct ExplainStatement : Statement {
  enum class What { kQgm, kPlan };
  ExplainStatement() : Statement(StatementKind::kExplain) {}
  What what = What::kPlan;
  /// When true, dump the QGM as produced by the binder, before rewrite.
  bool before_rewrite = false;
  bool analyze = false;
  bool verbose = false;
  StatementPtr statement;
};

}  // namespace starburst::ast

#endif  // STARBURST_PARSER_AST_H_
