#ifndef STARBURST_QGM_BINDER_H_
#define STARBURST_QGM_BINDER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "parser/ast.h"
#include "qgm/box.h"

namespace starburst::qgm {

/// Maps a Hydrogen type name ("INT", "VARCHAR", a registered extension
/// type, ...) to a DataType. Used by DDL and by the binder.
Result<DataType> BindTypeName(const std::string& name);

/// Semantic analysis: turns a parsed Hydrogen query into a *valid* QGM
/// (§3: "Semantic analysis of the query is also done during parsing, so
/// the QGM produced is guaranteed to be valid"). Performs name resolution
/// against the catalog, view expansion, subquery-to-quantifier conversion,
/// aggregation restructuring (SELECT→GROUPBY→SELECT sandwich), recursion
/// wiring, and type checking.
class Binder {
 public:
  explicit Binder(const Catalog* catalog) : catalog_(catalog) {}

  /// Binds a full query to a fresh graph; the result passes
  /// Graph::Validate().
  Result<std::unique_ptr<Graph>> BindQuery(const ast::Query& query);

  /// Binds INSERT, UPDATE or DELETE as the query of the rows it changes;
  /// the engine drains that query before it applies any change.
  ///  * DELETE: one column, the rid of each qualifying row of the target.
  ///  * UPDATE: the rid, then the new value of each assigned column.
  ///  * INSERT: the rows to insert, from a VALUES box or the bound query.
  /// A view target binds through the normal view expansion, so rewrite's
  /// view merge folds its WHERE into the query, and must be unambiguously
  /// updatable (§2).
  struct DmlTarget {
    const TableDef* table = nullptr;  // the base table written
    /// Base column written by each root column after the rid.
    std::vector<size_t> columns;
  };
  Result<std::unique_ptr<Graph>> BindDml(const ast::Statement& stmt,
                                         DmlTarget* target);

  /// Catalog objects this binder resolved, keyed "T:NAME" / "V:NAME"
  /// (uppercase). View bodies bind through the same binder, so references
  /// made inside expanded views are included — the transitive dependency
  /// set a cached plan must be invalidated on.
  const std::set<std::string>& referenced_objects() const {
    return referenced_objects_;
  }

 private:
  /// A name visible in a FROM scope: alias -> a slice of a quantifier's
  /// columns (a slice, because wrapped outer joins expose two tables'
  /// columns through one quantifier).
  struct RangeVar {
    std::string alias;
    Quantifier* quantifier = nullptr;
    size_t column_offset = 0;
    size_t column_count = 0;
  };

  struct Scope {
    Scope* parent = nullptr;
    Box* select_box = nullptr;  // where subquery quantifiers attach
    std::vector<RangeVar> range_vars;
  };

  struct CteEntry {
    Box* box = nullptr;        // bound body (non-recursive, shared)
    Box* recursion = nullptr;  // in-flight recursive union
    std::vector<std::string> column_names;
  };
  using CteEnv = std::map<std::string, CteEntry>;

  /// How expressions bind: normal, or aggregation-translating.
  struct ExprContext {
    Scope* scope = nullptr;  // resolution + subquery attachment
    CteEnv* env = nullptr;
    // Aggregation mode (HAVING / select list above a GROUP BY):
    bool agg_mode = false;
    Scope* low_scope = nullptr;
    Box* low_box = nullptr;
    Box* gb_box = nullptr;
    Quantifier* upper_q = nullptr;
    std::vector<ExprPtr>* low_group_keys = nullptr;  // keys bound over low box
  };

  Result<Box*> BindQueryNode(const ast::Query& query, Scope* outer,
                             CteEnv env);
  Result<Box*> BindBody(const ast::QueryBody& body, Scope* outer, CteEnv* env);
  Result<Box*> BindSelectCore(const ast::SelectCore& core, Scope* outer,
                              CteEnv* env);
  Result<Box*> BindAggregation(const ast::SelectCore& core, Box* low_box,
                               Scope* low_scope, CteEnv* env);

  /// Binds `ref` into `box`; appends visible names to `vars`.
  Status BindTableRef(const ast::TableRef& ref, Box* box, Scope* scope,
                      CteEnv* env, std::vector<RangeVar>* vars);
  Result<Box*> ResolveNamedTable(const std::string& name, CteEnv* env);
  Result<Box*> BindView(const ViewDef& view);
  /// The graph's shared box for `table`; with `rid`, a new unshared one
  /// whose head ends with the rid column.
  Box* BaseTableBox(const TableDef* table, bool rid = false);

  /// A DML target bound as a box to range over: the table's own box, or
  /// the expanded view's. With `rid`, the box's last column is the rid of
  /// the base row (from an unshared base-table box that carries it).
  struct BoundTarget {
    Box* box = nullptr;
    const TableDef* table = nullptr;
    std::vector<size_t> base_columns;  // exposed column -> base column
    /// Position of exposed column `column` (the error says it is not `in`).
    Result<size_t> Find(const std::string& column, const std::string& in) const;
  };
  Result<BoundTarget> BindDmlTarget(const std::string& name, bool rid);
  /// UPDATE (with `assignments`) or DELETE: the rid query over the target.
  Result<Box*> BindRidQuery(
      const std::string& name, const ast::Expr* where,
      const std::vector<std::pair<std::string, ast::ExprPtr>>* assignments,
      DmlTarget* target);
  Result<Box*> BindInsert(const ast::InsertStatement& stmt, DmlTarget* target);

  Result<ExprPtr> BindExpr(const ast::Expr& e, ExprContext* ctx);
  Result<ExprPtr> BindColumnRef(const ast::ColumnRefExpr& e, ExprContext* ctx);
  Result<ExprPtr> BindFunctionCall(const ast::FunctionCallExpr& e,
                                   ExprContext* ctx);
  Result<ExprPtr> BindAggregateCall(const ast::FunctionCallExpr& e,
                                    ExprContext* ctx);
  Result<Box*> BindSubquery(const ast::Query& q, ExprContext* ctx);
  Result<ExprPtr> ResolveInScope(Scope* scope, const std::string& qualifier,
                                 const std::string& column, int* out_level);

  /// Returns the position of a head column of `box` whose expression is
  /// structurally `expr`, appending one if absent.
  size_t EnsureHeadColumn(Box* box, const Expr& expr, const std::string& name);

  Result<DataType> CheckComparable(const DataType& a, const DataType& b,
                                   const std::string& what);
  Result<DataType> NumericResult(ast::BinaryOp op, const DataType& a,
                                 const DataType& b);

  Status BindOrderByLimit(const ast::Query& query, Box* root);

  const Catalog* catalog_;
  Graph* graph_ = nullptr;  // graph under construction
  std::map<std::string, Box*> base_table_boxes_;
  std::set<std::string> referenced_objects_;
  std::set<const Box*> view_boxes_;  // bodies of expanded views
  int view_depth_ = 0;
};

}  // namespace starburst::qgm

#endif  // STARBURST_QGM_BINDER_H_
