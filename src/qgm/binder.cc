#include "qgm/binder.h"

#include <algorithm>
#include <numeric>

#include "parser/parser.h"

namespace starburst::qgm {

namespace {

/// Is `name` an aggregate in this catalog (and not shadowed by a scalar)?
bool IsAggregateName(const Catalog& catalog, const std::string& name) {
  return catalog.functions().FindAggregate(name) != nullptr &&
         catalog.functions().FindScalar(name) == nullptr;
}

bool ContainsAggregate(const ast::Expr& e, const Catalog& catalog) {
  if (e.kind == ast::ExprKind::kFunctionCall) {
    const auto& call = static_cast<const ast::FunctionCallExpr&>(e);
    if (IsAggregateName(catalog, call.name)) return true;
    for (const auto& a : call.args) {
      if (ContainsAggregate(*a, catalog)) return true;
    }
    return false;
  }
  switch (e.kind) {
    case ast::ExprKind::kBinary: {
      const auto& b = static_cast<const ast::BinaryExpr&>(e);
      return ContainsAggregate(*b.left, catalog) ||
             ContainsAggregate(*b.right, catalog);
    }
    case ast::ExprKind::kUnary: {
      const auto& u = static_cast<const ast::UnaryExpr&>(e);
      return ContainsAggregate(*u.operand, catalog);
    }
    case ast::ExprKind::kIsNull:
      return ContainsAggregate(
          *static_cast<const ast::IsNullExpr&>(e).operand, catalog);
    case ast::ExprKind::kBetween: {
      const auto& b = static_cast<const ast::BetweenExpr&>(e);
      return ContainsAggregate(*b.operand, catalog) ||
             ContainsAggregate(*b.low, catalog) ||
             ContainsAggregate(*b.high, catalog);
    }
    case ast::ExprKind::kInList: {
      const auto& in = static_cast<const ast::InListExpr&>(e);
      if (ContainsAggregate(*in.operand, catalog)) return true;
      for (const auto& item : in.items) {
        if (ContainsAggregate(*item, catalog)) return true;
      }
      return false;
    }
    case ast::ExprKind::kCase: {
      const auto& c = static_cast<const ast::CaseExpr&>(e);
      for (const auto& w : c.when_clauses) {
        if (ContainsAggregate(*w.condition, catalog) ||
            ContainsAggregate(*w.result, catalog)) {
          return true;
        }
      }
      return c.else_result && ContainsAggregate(*c.else_result, catalog);
    }
    case ast::ExprKind::kLike: {
      const auto& l = static_cast<const ast::LikeExpr&>(e);
      return ContainsAggregate(*l.operand, catalog) ||
             ContainsAggregate(*l.pattern, catalog);
    }
    default:
      return false;  // subqueries are separate scopes
  }
}

bool ContainsSubqueryAst(const ast::Expr& e) {
  switch (e.kind) {
    case ast::ExprKind::kScalarSubquery:
    case ast::ExprKind::kExists:
    case ast::ExprKind::kInSubquery:
    case ast::ExprKind::kQuantifiedCmp:
      return true;
    case ast::ExprKind::kBinary: {
      const auto& b = static_cast<const ast::BinaryExpr&>(e);
      return ContainsSubqueryAst(*b.left) || ContainsSubqueryAst(*b.right);
    }
    case ast::ExprKind::kUnary:
      return ContainsSubqueryAst(
          *static_cast<const ast::UnaryExpr&>(e).operand);
    case ast::ExprKind::kFunctionCall: {
      const auto& call = static_cast<const ast::FunctionCallExpr&>(e);
      for (const auto& a : call.args) {
        if (ContainsSubqueryAst(*a)) return true;
      }
      return false;
    }
    case ast::ExprKind::kIsNull:
      return ContainsSubqueryAst(
          *static_cast<const ast::IsNullExpr&>(e).operand);
    case ast::ExprKind::kBetween: {
      const auto& b = static_cast<const ast::BetweenExpr&>(e);
      return ContainsSubqueryAst(*b.operand) || ContainsSubqueryAst(*b.low) ||
             ContainsSubqueryAst(*b.high);
    }
    case ast::ExprKind::kInList: {
      const auto& in = static_cast<const ast::InListExpr&>(e);
      if (ContainsSubqueryAst(*in.operand)) return true;
      for (const auto& item : in.items) {
        if (ContainsSubqueryAst(*item)) return true;
      }
      return false;
    }
    case ast::ExprKind::kLike: {
      const auto& l = static_cast<const ast::LikeExpr&>(e);
      return ContainsSubqueryAst(*l.operand) || ContainsSubqueryAst(*l.pattern);
    }
    case ast::ExprKind::kCase: {
      const auto& c = static_cast<const ast::CaseExpr&>(e);
      for (const auto& w : c.when_clauses) {
        if (ContainsSubqueryAst(*w.condition) ||
            ContainsSubqueryAst(*w.result)) {
          return true;
        }
      }
      return c.else_result && ContainsSubqueryAst(*c.else_result);
    }
    default:
      return false;
  }
}

Result<DataType> UnifyTypes(const DataType& a, const DataType& b,
                            const std::string& what) {
  if (a == b) return a;
  if (a.id == TypeId::kNull) return b;
  if (b.id == TypeId::kNull) return a;
  if (a.is_numeric() && b.is_numeric()) return DataType::Double();
  return Status::TypeError(what + ": incompatible types " + a.ToString() +
                           " and " + b.ToString());
}

std::string DeriveColumnName(const ast::Expr& e, size_t position) {
  if (e.kind == ast::ExprKind::kColumnRef) {
    return static_cast<const ast::ColumnRefExpr&>(e).column;
  }
  if (e.kind == ast::ExprKind::kFunctionCall) {
    return static_cast<const ast::FunctionCallExpr&>(e).name;
  }
  return "C" + std::to_string(position + 1);
}

Result<DataType> ResolveTypeName(const std::string& name) {
  if (IdentEquals(name, "INT") || IdentEquals(name, "INTEGER") ||
      IdentEquals(name, "BIGINT") || IdentEquals(name, "SMALLINT")) {
    return DataType::Int();
  }
  if (IdentEquals(name, "DOUBLE") || IdentEquals(name, "FLOAT") ||
      IdentEquals(name, "REAL") || IdentEquals(name, "DECIMAL")) {
    return DataType::Double();
  }
  if (IdentEquals(name, "STRING") || IdentEquals(name, "VARCHAR") ||
      IdentEquals(name, "CHAR") || IdentEquals(name, "TEXT")) {
    return DataType::String();
  }
  if (IdentEquals(name, "BOOL") || IdentEquals(name, "BOOLEAN")) {
    return DataType::Bool();
  }
  if (TypeRegistry::Global().Contains(IdentUpper(name))) {
    return DataType::Extension(IdentUpper(name));
  }
  return Status::SemanticError("unknown type '" + name + "'");
}

}  // namespace

/// Exposed for DDL: maps a Hydrogen type name to a DataType, consulting
/// the extension TypeRegistry.
Result<DataType> BindTypeName(const std::string& name) {
  return ResolveTypeName(name);
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Graph>> Binder::BindQuery(const ast::Query& query) {
  auto graph = std::make_unique<Graph>();
  graph_ = graph.get();
  base_table_boxes_.clear();

  CteEnv env;
  STARBURST_ASSIGN_OR_RETURN(Box * root, BindQueryNode(query, nullptr, env));
  graph_->set_root(root);
  STARBURST_RETURN_IF_ERROR(BindOrderByLimit(query, root));
  STARBURST_RETURN_IF_ERROR(graph_->Validate());
  graph_ = nullptr;
  return graph;
}

Result<std::unique_ptr<Graph>> Binder::BindDml(const ast::Statement& stmt,
                                               DmlTarget* target) {
  auto graph = std::make_unique<Graph>();
  graph_ = graph.get();
  base_table_boxes_.clear();
  Result<Box*> root = Status::Internal("not a DML statement");
  if (stmt.kind == ast::StatementKind::kInsert) {
    root = BindInsert(static_cast<const ast::InsertStatement&>(stmt), target);
  } else if (stmt.kind == ast::StatementKind::kUpdate) {
    const auto& update = static_cast<const ast::UpdateStatement&>(stmt);
    root = BindRidQuery(update.table, update.where.get(), &update.assignments,
                        target);
  } else if (stmt.kind == ast::StatementKind::kDelete) {
    const auto& del = static_cast<const ast::DeleteStatement&>(stmt);
    root = BindRidQuery(del.table, del.where.get(), nullptr, target);
  }
  if (!root.ok()) return root.status();
  graph_->set_root(*root);
  STARBURST_RETURN_IF_ERROR(graph_->Validate());
  graph_ = nullptr;
  return graph;
}

// ---------------------------------------------------------------------------
// Query structure
// ---------------------------------------------------------------------------

Result<Box*> Binder::BindQueryNode(const ast::Query& query, Scope* outer,
                                   CteEnv env) {
  for (const ast::CommonTableExpr& cte : query.ctes) {
    std::string key = IdentUpper(cte.name);
    if (query.recursive && cte.query->body->kind == ast::QueryBody::Kind::kSetOp &&
        cte.query->body->op == ast::SetOpKind::kUnion) {
      // Recursive table expression: base UNION [ALL] step, where the step
      // may reference `name` (§2: "cyclic references to named table
      // expressions").
      const ast::QueryBody& body = *cte.query->body;
      Box* ru = graph_->NewBox(BoxKind::kRecursiveUnion);
      ru->cte_name = key;
      ru->setop_all = body.all;

      STARBURST_ASSIGN_OR_RETURN(Box * base, BindBody(*body.left, outer, &env));
      if (!cte.column_names.empty() &&
          cte.column_names.size() != base->head.size()) {
        return Status::SemanticError("table expression '" + cte.name +
                                     "' column list arity mismatch");
      }
      for (size_t i = 0; i < base->head.size(); ++i) {
        std::string name = cte.column_names.empty() ? base->head[i].name
                                                    : cte.column_names[i];
        ru->head.push_back(HeadColumn{std::move(name), base->head[i].type,
                                      nullptr});
      }

      CteEnv step_env = env;
      step_env[key] = CteEntry{nullptr, ru, cte.column_names};
      STARBURST_ASSIGN_OR_RETURN(Box * step,
                                 BindBody(*body.right, outer, &step_env));
      if (step->head.size() != ru->head.size()) {
        return Status::SemanticError(
            "recursive table expression '" + cte.name +
            "': base and step column counts differ");
      }
      for (size_t i = 0; i < ru->head.size(); ++i) {
        STARBURST_ASSIGN_OR_RETURN(
            ru->head[i].type,
            UnifyTypes(ru->head[i].type, step->head[i].type,
                       "recursive table expression '" + cte.name + "'"));
      }
      ru->AddQuantifier(graph_->NewQuantifier(QuantifierType::kForEach, base));
      ru->AddQuantifier(graph_->NewQuantifier(QuantifierType::kForEach, step));
      env[key] = CteEntry{ru, nullptr, {}};
    } else {
      STARBURST_ASSIGN_OR_RETURN(Box * box,
                                 BindQueryNode(*cte.query, outer, env));
      if (!cte.column_names.empty()) {
        if (cte.column_names.size() != box->head.size()) {
          return Status::SemanticError("table expression '" + cte.name +
                                       "' column list arity mismatch");
        }
        for (size_t i = 0; i < box->head.size(); ++i) {
          box->head[i].name = cte.column_names[i];
        }
      }
      env[key] = CteEntry{box, nullptr, {}};
    }
  }

  return BindBody(*query.body, outer, &env);
}

// ORDER BY / LIMIT belong to the outermost query only — they order and
// trim the final result table, they do not define one. Inner occurrences
// are rejected rather than silently dropped.
Status RejectInnerOrdering(const ast::Query& q, const char* where) {
  if (!q.order_by.empty() || q.limit >= 0) {
    return Status::NotImplemented(std::string("ORDER BY / LIMIT inside ") +
                                  where + " is not supported");
  }
  return Status::OK();
}

Result<Box*> Binder::BindBody(const ast::QueryBody& body, Scope* outer,
                              CteEnv* env) {
  if (body.kind == ast::QueryBody::Kind::kSelect) {
    return BindSelectCore(*body.select, outer, env);
  }
  STARBURST_ASSIGN_OR_RETURN(Box * left, BindBody(*body.left, outer, env));
  STARBURST_ASSIGN_OR_RETURN(Box * right, BindBody(*body.right, outer, env));
  if (left->head.size() != right->head.size()) {
    return Status::SemanticError(
        "set operation operands have different column counts");
  }
  Box* box = graph_->NewBox(BoxKind::kSetOp);
  box->setop = body.op;
  box->setop_all = body.all;
  box->distinct_enforced = !body.all;
  for (size_t i = 0; i < left->head.size(); ++i) {
    STARBURST_ASSIGN_OR_RETURN(
        DataType t, UnifyTypes(left->head[i].type, right->head[i].type,
                               "set operation column " + std::to_string(i + 1)));
    box->head.push_back(HeadColumn{left->head[i].name, std::move(t), nullptr});
  }
  box->AddQuantifier(graph_->NewQuantifier(QuantifierType::kForEach, left));
  box->AddQuantifier(graph_->NewQuantifier(QuantifierType::kForEach, right));
  return box;
}

Result<Box*> Binder::BindSelectCore(const ast::SelectCore& core, Scope* outer,
                                    CteEnv* env) {
  Box* box = graph_->NewBox(BoxKind::kSelect);
  Scope scope;
  scope.parent = outer;
  scope.select_box = box;

  for (const auto& ref : core.from) {
    STARBURST_RETURN_IF_ERROR(
        BindTableRef(*ref, box, &scope, env, &scope.range_vars));
  }

  ExprContext ctx;
  ctx.scope = &scope;
  ctx.env = env;

  if (core.where != nullptr) {
    if (ContainsAggregate(*core.where, *catalog_)) {
      return Status::SemanticError("aggregates are not allowed in WHERE");
    }
    STARBURST_ASSIGN_OR_RETURN(ExprPtr where, BindExpr(*core.where, &ctx));
    if (where->type.id != TypeId::kBool && where->type.id != TypeId::kNull) {
      return Status::TypeError("WHERE clause must be boolean");
    }
    SplitConjuncts(std::move(where), &box->predicates);
  }

  bool has_aggregation = !core.group_by.empty() || core.having != nullptr;
  if (!has_aggregation) {
    for (const ast::SelectItem& item : core.items) {
      if (!item.star && ContainsAggregate(*item.expr, *catalog_)) {
        has_aggregation = true;
        break;
      }
    }
  }
  if (has_aggregation) {
    return BindAggregation(core, box, &scope, env);
  }

  // Plain select list.
  for (const ast::SelectItem& item : core.items) {
    if (item.star) {
      bool matched = false;
      for (const RangeVar& rv : scope.range_vars) {
        if (!item.star_qualifier.empty() &&
            !IdentEquals(rv.alias, item.star_qualifier)) {
          continue;
        }
        matched = true;
        for (size_t i = 0; i < rv.column_count; ++i) {
          size_t col = rv.column_offset + i;
          box->head.push_back(HeadColumn{
              rv.quantifier->ColumnName(col), rv.quantifier->ColumnType(col),
              MakeColumnRef(rv.quantifier, col, rv.quantifier->ColumnType(col))});
        }
      }
      if (!matched) {
        return Status::SemanticError(
            item.star_qualifier.empty()
                ? "SELECT * with no FROM clause"
                : "no table named '" + item.star_qualifier + "' in FROM");
      }
      continue;
    }
    STARBURST_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*item.expr, &ctx));
    std::string name = !item.alias.empty()
                           ? item.alias
                           : DeriveColumnName(*item.expr, box->head.size());
    DataType type = bound->type;
    box->head.push_back(HeadColumn{std::move(name), std::move(type),
                                   std::move(bound)});
  }
  box->distinct_enforced = core.distinct;
  return box;
}

Result<Box*> Binder::BindAggregation(const ast::SelectCore& core, Box* low_box,
                                     Scope* low_scope, CteEnv* env) {
  // The SELECT -> GROUPBY -> SELECT sandwich. `low_box` already holds the
  // FROM quantifiers and WHERE predicates; give it a head of exactly the
  // columns the grouping needs, hang a GROUPBY box over it, and evaluate
  // the select list and HAVING in an upper SELECT box.
  low_box->head.clear();

  ExprContext low_ctx;
  low_ctx.scope = low_scope;
  low_ctx.env = env;

  std::vector<ExprPtr> low_group_keys;
  for (const auto& g : core.group_by) {
    if (ContainsAggregate(*g, *catalog_)) {
      return Status::SemanticError("aggregates are not allowed in GROUP BY");
    }
    STARBURST_ASSIGN_OR_RETURN(ExprPtr key, BindExpr(*g, &low_ctx));
    low_group_keys.push_back(std::move(key));
  }

  Box* gb = graph_->NewBox(BoxKind::kGroupBy);
  Quantifier* gb_q = gb->AddQuantifier(
      graph_->NewQuantifier(QuantifierType::kForEach, low_box));

  for (size_t i = 0; i < low_group_keys.size(); ++i) {
    std::string name = core.group_by[i]->kind == ast::ExprKind::kColumnRef
                           ? static_cast<const ast::ColumnRefExpr&>(
                                 *core.group_by[i]).column
                           : "K" + std::to_string(i + 1);
    size_t pos = EnsureHeadColumn(low_box, *low_group_keys[i], name);
    DataType t = low_group_keys[i]->type;
    gb->group_keys.push_back(MakeColumnRef(gb_q, pos, t));
    gb->head.push_back(HeadColumn{low_box->head[pos].name, t,
                                  MakeColumnRef(gb_q, pos, t)});
  }

  Box* upper = graph_->NewBox(BoxKind::kSelect);
  Quantifier* upper_q =
      upper->AddQuantifier(graph_->NewQuantifier(QuantifierType::kForEach, gb));
  upper_q->alias = "";

  Scope upper_scope;
  upper_scope.parent = low_scope->parent;
  upper_scope.select_box = upper;

  ExprContext agg_ctx;
  agg_ctx.scope = &upper_scope;
  agg_ctx.env = env;
  agg_ctx.agg_mode = true;
  agg_ctx.low_scope = low_scope;
  agg_ctx.low_box = low_box;
  agg_ctx.gb_box = gb;
  agg_ctx.upper_q = upper_q;
  agg_ctx.low_group_keys = &low_group_keys;

  for (const ast::SelectItem& item : core.items) {
    if (item.star) {
      return Status::SemanticError("SELECT * cannot be combined with GROUP BY");
    }
    STARBURST_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*item.expr, &agg_ctx));
    std::string name = !item.alias.empty()
                           ? item.alias
                           : DeriveColumnName(*item.expr, upper->head.size());
    DataType type = bound->type;
    upper->head.push_back(HeadColumn{std::move(name), std::move(type),
                                     std::move(bound)});
  }
  if (core.having != nullptr) {
    STARBURST_ASSIGN_OR_RETURN(ExprPtr having, BindExpr(*core.having, &agg_ctx));
    if (having->type.id != TypeId::kBool && having->type.id != TypeId::kNull) {
      return Status::TypeError("HAVING clause must be boolean");
    }
    SplitConjuncts(std::move(having), &upper->predicates);
  }
  upper->distinct_enforced = core.distinct;
  return upper;
}

// ---------------------------------------------------------------------------
// FROM clause
// ---------------------------------------------------------------------------

Box* Binder::BaseTableBox(const TableDef* table, bool rid) {
  std::string key = IdentUpper(table->name);
  auto it = base_table_boxes_.find(key);
  if (!rid && it != base_table_boxes_.end()) return it->second;
  Box* box = graph_->NewBox(BoxKind::kBaseTable);
  box->table = table;
  for (const ColumnDef& col : table->schema.columns()) {
    box->head.push_back(HeadColumn{col.name, col.type, nullptr});
  }
  if (!rid) {
    base_table_boxes_[key] = box;
    return box;
  }
  // A DML target's own, unshared box: its hidden last column is the rid.
  box->head.push_back(HeadColumn{kRidColumnName, DataType::Int(), nullptr});
  box->rid_column = true;
  return box;
}

Result<Box*> Binder::BindView(const ViewDef& view) {
  if (++view_depth_ > 64) {
    --view_depth_;
    return Status::SemanticError("view nesting too deep (cycle?)");
  }
  auto parsed = Parser::ParseQueryText(view.body_sql);
  if (!parsed.ok()) {
    --view_depth_;
    return Status::SemanticError("view '" + view.name +
                                 "' body failed to parse: " +
                                 parsed.status().message());
  }
  CteEnv env;
  Result<Box*> bound = BindQueryNode(**parsed, nullptr, env);
  --view_depth_;
  if (!bound.ok()) return bound.status();
  Box* box = *bound;
  view_boxes_.insert(box);
  if (!view.column_names.empty()) {
    if (view.column_names.size() != box->head.size()) {
      return Status::SemanticError("view '" + view.name +
                                   "' column list arity mismatch");
    }
    for (size_t i = 0; i < box->head.size(); ++i) {
      box->head[i].name = view.column_names[i];
    }
  }
  return box;
}

Result<Box*> Binder::ResolveNamedTable(const std::string& name, CteEnv* env) {
  auto it = env->find(IdentUpper(name));
  if (it != env->end()) {
    if (it->second.recursion != nullptr) {
      // A reference to the recursive table expression being defined: an
      // iteration-reference box fed by the fixpoint loop at runtime.
      Box* ref = graph_->NewBox(BoxKind::kIterationRef);
      ref->cte_name = it->second.recursion->cte_name;
      ref->recursion = it->second.recursion;
      for (const HeadColumn& h : it->second.recursion->head) {
        ref->head.push_back(HeadColumn{h.name, h.type, nullptr});
      }
      return ref;
    }
    return it->second.box;
  }
  if (catalog_->HasView(name)) {
    STARBURST_ASSIGN_OR_RETURN(const ViewDef* view, catalog_->GetView(name));
    referenced_objects_.insert("V:" + IdentUpper(name));
    return BindView(*view);
  }
  if (catalog_->HasTable(name)) {
    STARBURST_ASSIGN_OR_RETURN(const TableDef* table, catalog_->GetTable(name));
    referenced_objects_.insert("T:" + IdentUpper(name));
    return BaseTableBox(table);
  }
  return Status::SemanticError("no table, view, or table expression named '" +
                               name + "'");
}

Status Binder::BindTableRef(const ast::TableRef& ref, Box* box, Scope* scope,
                            CteEnv* env, std::vector<RangeVar>* vars) {
  switch (ref.kind) {
    case ast::TableRef::Kind::kNamed: {
      STARBURST_ASSIGN_OR_RETURN(Box * input, ResolveNamedTable(ref.name, env));
      Quantifier* q = box->AddQuantifier(
          graph_->NewQuantifier(QuantifierType::kForEach, input));
      // Default alias for a qualified name (sys.metrics) is its last
      // component, so `metrics.name` resolves the way SQL users expect.
      std::string default_alias = ref.name;
      size_t dot = default_alias.rfind('.');
      if (dot != std::string::npos) default_alias = default_alias.substr(dot + 1);
      q->alias = ref.alias.empty() ? default_alias : ref.alias;
      vars->push_back(RangeVar{q->alias, q, 0, input->head.size()});
      return Status::OK();
    }
    case ast::TableRef::Kind::kSubquery: {
      STARBURST_RETURN_IF_ERROR(
          RejectInnerOrdering(*ref.subquery, "a FROM subquery"));
      STARBURST_ASSIGN_OR_RETURN(
          Box * input, BindQueryNode(*ref.subquery, scope->parent, *env));
      Quantifier* q = box->AddQuantifier(
          graph_->NewQuantifier(QuantifierType::kForEach, input));
      q->alias = ref.alias;
      vars->push_back(RangeVar{
          ref.alias.empty() ? "Q" + std::to_string(q->id) : ref.alias, q, 0,
          input->head.size()});
      return Status::OK();
    }
    case ast::TableRef::Kind::kJoin: {
      if (ref.join_kind == ast::JoinKind::kInner) {
        // Inner joins flatten into the current box; ON is just predicate.
        std::vector<RangeVar> join_vars;
        STARBURST_RETURN_IF_ERROR(
            BindTableRef(*ref.left, box, scope, env, &join_vars));
        STARBURST_RETURN_IF_ERROR(
            BindTableRef(*ref.right, box, scope, env, &join_vars));
        Scope on_scope;
        on_scope.parent = scope->parent;
        on_scope.select_box = box;
        on_scope.range_vars = join_vars;
        ExprContext ctx;
        ctx.scope = &on_scope;
        ctx.env = env;
        STARBURST_ASSIGN_OR_RETURN(ExprPtr on, BindExpr(*ref.on_condition, &ctx));
        SplitConjuncts(std::move(on), &box->predicates);
        vars->insert(vars->end(), join_vars.begin(), join_vars.end());
        return Status::OK();
      }
      // LEFT OUTER JOIN — the paper's worked extension (§4): a dedicated
      // SELECT box whose preserved side ranges with the PF setformer.
      Box* oj = graph_->NewBox(BoxKind::kSelect);
      Scope oj_scope;
      oj_scope.parent = scope->parent;
      oj_scope.select_box = oj;
      size_t before = oj->quantifiers.size();
      STARBURST_RETURN_IF_ERROR(
          BindTableRef(*ref.left, oj, &oj_scope, env, &oj_scope.range_vars));
      size_t left_count = oj->quantifiers.size() - before;
      if (left_count != 1) {
        return Status::NotImplemented(
            "LEFT OUTER JOIN with a flattened join as preserved side; "
            "parenthesize it as a subquery");
      }
      oj->quantifiers.back()->type = QuantifierType::kPreservedForEach;
      STARBURST_RETURN_IF_ERROR(
          BindTableRef(*ref.right, oj, &oj_scope, env, &oj_scope.range_vars));
      ExprContext ctx;
      ctx.scope = &oj_scope;
      ctx.env = env;
      STARBURST_ASSIGN_OR_RETURN(ExprPtr on, BindExpr(*ref.on_condition, &ctx));
      SplitConjuncts(std::move(on), &oj->predicates);
      // Head: every column of both sides (null-padded right at runtime).
      for (const RangeVar& rv : oj_scope.range_vars) {
        for (size_t i = 0; i < rv.column_count; ++i) {
          size_t col = rv.column_offset + i;
          DataType t = rv.quantifier->ColumnType(col);
          oj->head.push_back(HeadColumn{
              rv.quantifier->ColumnName(col), t,
              MakeColumnRef(rv.quantifier, col, t)});
        }
      }
      // Surface both sides' names through one quantifier over the OJ box.
      Quantifier* q = box->AddQuantifier(
          graph_->NewQuantifier(QuantifierType::kForEach, oj));
      size_t offset = 0;
      for (const RangeVar& rv : oj_scope.range_vars) {
        vars->push_back(RangeVar{rv.alias, q, offset, rv.column_count});
        offset += rv.column_count;
      }
      return Status::OK();
    }
    case ast::TableRef::Kind::kTableFunction: {
      const TableFunctionDef* def =
          catalog_->functions().FindTableFunction(ref.function_name);
      if (def == nullptr) {
        return Status::SemanticError("no table function named '" +
                                     ref.function_name + "'");
      }
      Box* tf = graph_->NewBox(BoxKind::kTableFunction);
      tf->table_function = def;
      tf->function_name = IdentUpper(ref.function_name);
      std::vector<TableSchema> input_schemas;
      for (const ast::TableFuncArg& arg : ref.func_args) {
        if (arg.table != nullptr) {
          STARBURST_ASSIGN_OR_RETURN(
              Box * input, BindQueryNode(*arg.table, scope->parent, *env));
          tf->AddQuantifier(
              graph_->NewQuantifier(QuantifierType::kForEach, input));
          TableSchema schema;
          for (const HeadColumn& h : input->head) {
            schema.AddColumn(ColumnDef{h.name, h.type, true});
          }
          input_schemas.push_back(std::move(schema));
        } else {
          // Scalar args must fold to constants at bind time.
          Scope empty_scope;
          empty_scope.select_box = tf;
          ExprContext ctx;
          ctx.scope = &empty_scope;
          ctx.env = env;
          STARBURST_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*arg.scalar, &ctx));
          Value folded;
          if (bound->kind == Expr::Kind::kLiteral) {
            folded = bound->literal;
          } else if (bound->kind == Expr::Kind::kUnary &&
                     bound->uop == ast::UnaryOp::kNegate &&
                     bound->children[0]->kind == Expr::Kind::kLiteral) {
            const Value& v = bound->children[0]->literal;
            folded = v.type_id() == TypeId::kDouble
                         ? Value::Double(-v.double_value())
                         : Value::Int(-v.int_value());
          } else {
            return Status::SemanticError(
                "table function scalar arguments must be constants");
          }
          tf->function_args.push_back(std::move(folded));
        }
      }
      STARBURST_ASSIGN_OR_RETURN(
          TableSchema out_schema,
          def->infer_schema(input_schemas, tf->function_args));
      for (const ColumnDef& col : out_schema.columns()) {
        tf->head.push_back(HeadColumn{col.name, col.type, nullptr});
      }
      Quantifier* q = box->AddQuantifier(
          graph_->NewQuantifier(QuantifierType::kForEach, tf));
      q->alias = ref.alias.empty() ? ref.function_name : ref.alias;
      vars->push_back(RangeVar{q->alias, q, 0, tf->head.size()});
      return Status::OK();
    }
  }
  return Status::Internal("unknown table reference kind");
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

size_t Binder::EnsureHeadColumn(Box* box, const Expr& expr,
                                const std::string& name) {
  std::string wanted = expr.ToString();
  for (size_t i = 0; i < box->head.size(); ++i) {
    if (box->head[i].expr != nullptr && box->head[i].expr->ToString() == wanted) {
      return i;
    }
  }
  std::string unique_name = name;
  int suffix = 2;
  auto taken = [&](const std::string& n) {
    return std::any_of(box->head.begin(), box->head.end(),
                       [&](const HeadColumn& h) { return IdentEquals(h.name, n); });
  };
  while (taken(unique_name)) {
    unique_name = name + "_" + std::to_string(suffix++);
  }
  box->head.push_back(HeadColumn{unique_name, expr.type, expr.Clone()});
  return box->head.size() - 1;
}

Result<ExprPtr> Binder::ResolveInScope(Scope* scope,
                                       const std::string& qualifier,
                                       const std::string& column,
                                       int* out_level) {
  int level = 0;
  for (Scope* s = scope; s != nullptr; s = s->parent, ++level) {
    ExprPtr found;
    for (const RangeVar& rv : s->range_vars) {
      if (!qualifier.empty() && !IdentEquals(rv.alias, qualifier)) continue;
      for (size_t i = 0; i < rv.column_count; ++i) {
        size_t col = rv.column_offset + i;
        if (!IdentEquals(rv.quantifier->ColumnName(col), column)) continue;
        if (found != nullptr) {
          return Status::SemanticError("ambiguous column reference '" +
                                       (qualifier.empty()
                                            ? column
                                            : qualifier + "." + column) +
                                       "'");
        }
        found = MakeColumnRef(rv.quantifier, col,
                              rv.quantifier->ColumnType(col));
      }
    }
    if (found != nullptr) {
      *out_level = level;
      return found;
    }
  }
  return Status::SemanticError(
      "unresolved column reference '" +
      (qualifier.empty() ? column : qualifier + "." + column) + "'");
}

Result<ExprPtr> Binder::BindColumnRef(const ast::ColumnRefExpr& e,
                                      ExprContext* ctx) {
  if (!ctx->agg_mode) {
    int level = 0;
    return ResolveInScope(ctx->scope, e.qualifier, e.column, &level);
  }
  // Aggregation mode: a plain column must be (part of) a group key, or be
  // a correlated reference to an outer query.
  int level = 0;
  STARBURST_ASSIGN_OR_RETURN(
      ExprPtr low, ResolveInScope(ctx->low_scope, e.qualifier, e.column, &level));
  if (level > 0) return low;  // correlation: passes through untouched
  std::string wanted = low->ToString();
  for (size_t i = 0; i < ctx->low_group_keys->size(); ++i) {
    if ((*ctx->low_group_keys)[i]->ToString() == wanted) {
      DataType t = (*ctx->low_group_keys)[i]->type;
      return MakeColumnRef(ctx->upper_q, i, t);
    }
  }
  return Status::SemanticError("column '" + e.ToString() +
                               "' must appear in GROUP BY or inside an "
                               "aggregate function");
}

Result<ExprPtr> Binder::BindAggregateCall(const ast::FunctionCallExpr& e,
                                          ExprContext* ctx) {
  if (!ctx->agg_mode) {
    return Status::SemanticError("aggregate '" + e.name +
                                 "' is not allowed here");
  }
  const AggregateFunctionDef* def = catalog_->functions().FindAggregate(e.name);
  AggregateSpec spec;
  spec.def = def;
  spec.name = IdentUpper(e.name);
  spec.distinct = e.distinct;

  DataType input_type = DataType::Null();
  ExprPtr low_arg;
  if (e.star) {
    if (!IdentEquals(e.name, "COUNT")) {
      return Status::SemanticError("only COUNT(*) takes '*'");
    }
  } else {
    if (e.args.size() != 1) {
      return Status::SemanticError("aggregate '" + e.name +
                                   "' takes exactly one argument");
    }
    if (ContainsAggregate(*e.args[0], *catalog_)) {
      return Status::SemanticError("aggregates cannot be nested");
    }
    ExprContext low_ctx;
    low_ctx.scope = ctx->low_scope;
    low_ctx.env = ctx->env;
    STARBURST_ASSIGN_OR_RETURN(low_arg, BindExpr(*e.args[0], &low_ctx));
    input_type = low_arg->type;
  }
  STARBURST_ASSIGN_OR_RETURN(spec.result_type, def->infer_type(input_type));

  // Register the aggregate on the GROUP BY box (deduplicating), routing
  // its argument through the low box head.
  Box* gb = ctx->gb_box;
  std::string signature = spec.name + "|" + (e.star ? "*" : low_arg->ToString()) +
                          (spec.distinct ? "|D" : "");
  for (size_t j = 0; j < gb->aggregates.size(); ++j) {
    const AggregateSpec& existing = gb->aggregates[j];
    std::string existing_sig =
        existing.name + "|" +
        (existing.arg == nullptr ? "*" : existing.arg_source_text) +
        (existing.distinct ? "|D" : "");
    if (existing_sig == signature) {
      size_t pos = gb->group_keys.size() + j;
      return MakeColumnRef(ctx->upper_q, pos, existing.result_type);
    }
  }
  if (low_arg != nullptr) {
    size_t pos = EnsureHeadColumn(ctx->low_box, *low_arg, "A" + spec.name);
    Quantifier* gb_q = gb->quantifiers[0].get();
    spec.arg_source_text = low_arg->ToString();
    spec.arg = MakeColumnRef(gb_q, pos, input_type);
  } else {
    spec.arg_source_text = "*";
  }
  gb->aggregates.push_back(std::move(spec));
  size_t agg_index = gb->aggregates.size() - 1;
  DataType result_type = gb->aggregates.back().result_type;
  gb->head.push_back(HeadColumn{
      gb->aggregates.back().name + std::to_string(agg_index + 1), result_type,
      MakeAggRef(agg_index, result_type)});
  size_t pos = gb->group_keys.size() + agg_index;
  return MakeColumnRef(ctx->upper_q, pos, result_type);
}

Result<ExprPtr> Binder::BindFunctionCall(const ast::FunctionCallExpr& e,
                                         ExprContext* ctx) {
  if (catalog_->functions().FindAggregate(e.name) != nullptr &&
      catalog_->functions().FindScalar(e.name) == nullptr) {
    return BindAggregateCall(e, ctx);
  }
  const ScalarFunctionDef* def = catalog_->functions().FindScalar(e.name);
  if (def == nullptr) {
    return Status::SemanticError("no function named '" + e.name + "'");
  }
  if (def->arity >= 0 && static_cast<size_t>(def->arity) != e.args.size()) {
    return Status::SemanticError(
        "function '" + e.name + "' expects " + std::to_string(def->arity) +
        " argument(s), got " + std::to_string(e.args.size()));
  }
  auto out = std::make_unique<Expr>();
  out->kind = Expr::Kind::kScalarFunc;
  out->func = def;
  out->func_name = IdentUpper(e.name);
  std::vector<DataType> arg_types;
  for (const auto& a : e.args) {
    STARBURST_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*a, ctx));
    arg_types.push_back(bound->type);
    out->children.push_back(std::move(bound));
  }
  STARBURST_ASSIGN_OR_RETURN(out->type, def->infer_type(arg_types));
  return ExprPtr(std::move(out));
}

Result<Box*> Binder::BindSubquery(const ast::Query& q, ExprContext* ctx) {
  STARBURST_RETURN_IF_ERROR(RejectInnerOrdering(q, "a subquery"));
  return BindQueryNode(q, ctx->scope, *ctx->env);
}

Result<DataType> Binder::CheckComparable(const DataType& a, const DataType& b,
                                         const std::string& what) {
  if (a.id == TypeId::kNull || b.id == TypeId::kNull) return DataType::Bool();
  if (a.is_numeric() && b.is_numeric()) return DataType::Bool();
  if (a.id == b.id) {
    if (a.id == TypeId::kExtension && a.type_name != b.type_name) {
      return Status::TypeError(what + ": cannot compare " + a.ToString() +
                               " with " + b.ToString());
    }
    return DataType::Bool();
  }
  return Status::TypeError(what + ": cannot compare " + a.ToString() +
                           " with " + b.ToString());
}

Result<DataType> Binder::NumericResult(ast::BinaryOp op, const DataType& a,
                                       const DataType& b) {
  if (op == ast::BinaryOp::kConcat) {
    if ((a.id == TypeId::kString || a.id == TypeId::kNull) &&
        (b.id == TypeId::kString || b.id == TypeId::kNull)) {
      return DataType::String();
    }
    return Status::TypeError("|| expects strings");
  }
  if ((!a.is_numeric() && a.id != TypeId::kNull) ||
      (!b.is_numeric() && b.id != TypeId::kNull)) {
    return Status::TypeError(std::string("operator ") + ast::BinaryOpName(op) +
                             " expects numeric operands, got " + a.ToString() +
                             " and " + b.ToString());
  }
  if (op == ast::BinaryOp::kMod) return DataType::Int();
  if (a.id == TypeId::kDouble || b.id == TypeId::kDouble) {
    return DataType::Double();
  }
  return DataType::Int();
}

Result<ExprPtr> Binder::BindExpr(const ast::Expr& e, ExprContext* ctx) {
  // In aggregation mode, a non-trivial expression may itself *be* a group
  // key (e.g. SELECT salary/50 ... GROUP BY salary/50): probe by binding
  // it against the grouping input and matching the key expressions.
  if (ctx->agg_mode && e.kind != ast::ExprKind::kLiteral &&
      e.kind != ast::ExprKind::kColumnRef &&
      !ContainsAggregate(e, *catalog_) && !ContainsSubqueryAst(e)) {
    ExprContext low_ctx;
    low_ctx.scope = ctx->low_scope;
    low_ctx.env = ctx->env;
    Result<ExprPtr> probe = BindExpr(e, &low_ctx);
    if (probe.ok()) {
      std::string text = (*probe)->ToString();
      for (size_t i = 0; i < ctx->low_group_keys->size(); ++i) {
        if ((*ctx->low_group_keys)[i]->ToString() == text) {
          DataType t = (*ctx->low_group_keys)[i]->type;
          return MakeColumnRef(ctx->upper_q, i, t);
        }
      }
    }
    // No key matched: recurse normally (parts may still resolve).
  }
  switch (e.kind) {
    case ast::ExprKind::kLiteral:
      return MakeLiteral(static_cast<const ast::LiteralExpr&>(e).value);

    case ast::ExprKind::kParam: {
      const auto& p = static_cast<const ast::ParamExpr&>(e);
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kParam;
      out->param_index = p.index;
      out->type = DataType::Null();  // unknown until a value is bound
      graph_->num_params = std::max(graph_->num_params, p.index + 1);
      return ExprPtr(std::move(out));
    }

    case ast::ExprKind::kColumnRef:
      return BindColumnRef(static_cast<const ast::ColumnRefExpr&>(e), ctx);

    case ast::ExprKind::kFunctionCall:
      return BindFunctionCall(static_cast<const ast::FunctionCallExpr&>(e), ctx);

    case ast::ExprKind::kBinary: {
      const auto& b = static_cast<const ast::BinaryExpr&>(e);
      STARBURST_ASSIGN_OR_RETURN(ExprPtr left, BindExpr(*b.left, ctx));
      STARBURST_ASSIGN_OR_RETURN(ExprPtr right, BindExpr(*b.right, ctx));
      DataType type;
      switch (b.op) {
        case ast::BinaryOp::kAnd:
        case ast::BinaryOp::kOr:
          if ((left->type.id != TypeId::kBool && left->type.id != TypeId::kNull) ||
              (right->type.id != TypeId::kBool && right->type.id != TypeId::kNull)) {
            return Status::TypeError("AND/OR expect boolean operands");
          }
          type = DataType::Bool();
          break;
        case ast::BinaryOp::kEq:
        case ast::BinaryOp::kNe:
        case ast::BinaryOp::kLt:
        case ast::BinaryOp::kLe:
        case ast::BinaryOp::kGt:
        case ast::BinaryOp::kGe: {
          STARBURST_ASSIGN_OR_RETURN(
              type, CheckComparable(left->type, right->type, "comparison"));
          break;
        }
        default: {
          STARBURST_ASSIGN_OR_RETURN(type,
                                     NumericResult(b.op, left->type, right->type));
          break;
        }
      }
      return MakeBinary(b.op, std::move(left), std::move(right), type);
    }

    case ast::ExprKind::kUnary: {
      const auto& u = static_cast<const ast::UnaryExpr&>(e);
      STARBURST_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*u.operand, ctx));
      if (u.op == ast::UnaryOp::kNot) {
        if (operand->type.id != TypeId::kBool &&
            operand->type.id != TypeId::kNull) {
          return Status::TypeError("NOT expects a boolean operand");
        }
        return MakeUnary(u.op, std::move(operand), DataType::Bool());
      }
      if (!operand->type.is_numeric() && operand->type.id != TypeId::kNull) {
        return Status::TypeError("unary '-' expects a numeric operand");
      }
      DataType t = operand->type;
      return MakeUnary(u.op, std::move(operand), t);
    }

    case ast::ExprKind::kIsNull: {
      const auto& n = static_cast<const ast::IsNullExpr&>(e);
      STARBURST_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*n.operand, ctx));
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kIsNull;
      out->negated = n.negated;
      out->type = DataType::Bool();
      out->children.push_back(std::move(operand));
      return ExprPtr(std::move(out));
    }

    case ast::ExprKind::kBetween: {
      // a BETWEEN x AND y  ==>  a >= x AND a <= y
      const auto& b = static_cast<const ast::BetweenExpr&>(e);
      STARBURST_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*b.operand, ctx));
      STARBURST_ASSIGN_OR_RETURN(ExprPtr low, BindExpr(*b.low, ctx));
      STARBURST_ASSIGN_OR_RETURN(ExprPtr high, BindExpr(*b.high, ctx));
      STARBURST_RETURN_IF_ERROR(
          CheckComparable(operand->type, low->type, "BETWEEN").status());
      STARBURST_RETURN_IF_ERROR(
          CheckComparable(operand->type, high->type, "BETWEEN").status());
      ExprPtr ge = MakeBinary(ast::BinaryOp::kGe, operand->Clone(),
                              std::move(low), DataType::Bool());
      ExprPtr le = MakeBinary(ast::BinaryOp::kLe, std::move(operand),
                              std::move(high), DataType::Bool());
      ExprPtr both = MakeBinary(ast::BinaryOp::kAnd, std::move(ge),
                                std::move(le), DataType::Bool());
      if (b.negated) {
        return MakeUnary(ast::UnaryOp::kNot, std::move(both), DataType::Bool());
      }
      return both;
    }

    case ast::ExprKind::kInList: {
      const auto& in = static_cast<const ast::InListExpr&>(e);
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kInList;
      out->negated = in.negated;
      out->type = DataType::Bool();
      STARBURST_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*in.operand, ctx));
      DataType operand_type = operand->type;
      out->children.push_back(std::move(operand));
      for (const auto& item : in.items) {
        STARBURST_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*item, ctx));
        STARBURST_RETURN_IF_ERROR(
            CheckComparable(operand_type, bound->type, "IN").status());
        out->children.push_back(std::move(bound));
      }
      return ExprPtr(std::move(out));
    }

    case ast::ExprKind::kLike: {
      const auto& l = static_cast<const ast::LikeExpr&>(e);
      STARBURST_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*l.operand, ctx));
      STARBURST_ASSIGN_OR_RETURN(ExprPtr pattern, BindExpr(*l.pattern, ctx));
      if ((operand->type.id != TypeId::kString &&
           operand->type.id != TypeId::kNull) ||
          (pattern->type.id != TypeId::kString &&
           pattern->type.id != TypeId::kNull)) {
        return Status::TypeError("LIKE expects string operands");
      }
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kLike;
      out->negated = l.negated;
      out->type = DataType::Bool();
      out->children.push_back(std::move(operand));
      out->children.push_back(std::move(pattern));
      return ExprPtr(std::move(out));
    }

    case ast::ExprKind::kCase: {
      const auto& c = static_cast<const ast::CaseExpr&>(e);
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kCase;
      DataType result_type = DataType::Null();
      for (const auto& w : c.when_clauses) {
        STARBURST_ASSIGN_OR_RETURN(ExprPtr cond, BindExpr(*w.condition, ctx));
        if (cond->type.id != TypeId::kBool && cond->type.id != TypeId::kNull) {
          return Status::TypeError("CASE WHEN condition must be boolean");
        }
        STARBURST_ASSIGN_OR_RETURN(ExprPtr result, BindExpr(*w.result, ctx));
        STARBURST_ASSIGN_OR_RETURN(
            result_type, UnifyTypes(result_type, result->type, "CASE"));
        out->children.push_back(std::move(cond));
        out->children.push_back(std::move(result));
      }
      if (c.else_result != nullptr) {
        STARBURST_ASSIGN_OR_RETURN(ExprPtr els, BindExpr(*c.else_result, ctx));
        STARBURST_ASSIGN_OR_RETURN(result_type,
                                   UnifyTypes(result_type, els->type, "CASE"));
        out->children.push_back(std::move(els));
        out->has_else = true;
      }
      out->type = result_type;
      return ExprPtr(std::move(out));
    }

    case ast::ExprKind::kScalarSubquery: {
      const auto& s = static_cast<const ast::ScalarSubqueryExpr&>(e);
      STARBURST_ASSIGN_OR_RETURN(Box * sub, BindSubquery(*s.query, ctx));
      if (sub->head.size() != 1) {
        return Status::SemanticError(
            "scalar subquery must produce exactly one column");
      }
      Quantifier* q = ctx->scope->select_box->AddQuantifier(
          graph_->NewQuantifier(QuantifierType::kScalar, sub));
      return MakeColumnRef(q, 0, sub->head[0].type);
    }

    case ast::ExprKind::kExists: {
      const auto& x = static_cast<const ast::ExistsExpr&>(e);
      STARBURST_ASSIGN_OR_RETURN(Box * sub, BindSubquery(*x.query, ctx));
      Quantifier* q = ctx->scope->select_box->AddQuantifier(
          graph_->NewQuantifier(QuantifierType::kExists, sub));
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kExistsTest;
      out->quantifier = q;
      out->negated = x.negated;
      out->type = DataType::Bool();
      return ExprPtr(std::move(out));
    }

    case ast::ExprKind::kInSubquery: {
      // x IN (sub)      ==>  x = E(sub)   — existential quantifier
      // x NOT IN (sub)  ==>  x <> A(sub)  — universal, null-aware like SQL
      const auto& in = static_cast<const ast::InSubqueryExpr&>(e);
      STARBURST_ASSIGN_OR_RETURN(Box * sub, BindSubquery(*in.query, ctx));
      if (sub->head.size() != 1) {
        return Status::SemanticError("IN subquery must produce one column");
      }
      STARBURST_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*in.operand, ctx));
      STARBURST_RETURN_IF_ERROR(
          CheckComparable(operand->type, sub->head[0].type, "IN").status());
      Quantifier* q = ctx->scope->select_box->AddQuantifier(
          graph_->NewQuantifier(in.negated ? QuantifierType::kAll
                                           : QuantifierType::kExists,
                                sub));
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kQuantCompare;
      out->quantifier = q;
      out->bop = in.negated ? ast::BinaryOp::kNe : ast::BinaryOp::kEq;
      out->type = DataType::Bool();
      out->children.push_back(std::move(operand));
      return ExprPtr(std::move(out));
    }

    case ast::ExprKind::kQuantifiedCmp: {
      const auto& qc = static_cast<const ast::QuantifiedCmpExpr&>(e);
      STARBURST_ASSIGN_OR_RETURN(Box * sub, BindSubquery(*qc.query, ctx));
      if (sub->head.size() != 1) {
        return Status::SemanticError(
            "quantified subquery must produce one column");
      }
      STARBURST_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*qc.operand, ctx));
      STARBURST_RETURN_IF_ERROR(
          CheckComparable(operand->type, sub->head[0].type, qc.quantifier)
              .status());
      QuantifierType qtype;
      std::string set_function;
      if (IdentEquals(qc.quantifier, "ALL")) {
        qtype = QuantifierType::kAll;
      } else if (IdentEquals(qc.quantifier, "ANY") ||
                 IdentEquals(qc.quantifier, "SOME")) {
        qtype = QuantifierType::kExists;
      } else if (catalog_->functions().FindSetPredicate(qc.quantifier) !=
                 nullptr) {
        qtype = QuantifierType::kSetPredicate;
        set_function = IdentUpper(qc.quantifier);
      } else {
        return Status::SemanticError("no set predicate function named '" +
                                     qc.quantifier + "'");
      }
      Quantifier* q = ctx->scope->select_box->AddQuantifier(
          graph_->NewQuantifier(qtype, sub));
      q->set_function = std::move(set_function);
      auto out = std::make_unique<Expr>();
      out->kind = Expr::Kind::kQuantCompare;
      out->quantifier = q;
      out->bop = qc.cmp;
      out->type = DataType::Bool();
      out->children.push_back(std::move(operand));
      return ExprPtr(std::move(out));
    }
  }
  return Status::Internal("unknown expression kind");
}

// ---------------------------------------------------------------------------
// DML targets
// ---------------------------------------------------------------------------

Result<size_t> Binder::BoundTarget::Find(const std::string& column,
                                         const std::string& in) const {
  for (size_t i = 0; i < base_columns.size(); ++i) {
    if (IdentEquals(box->head[i].name, column)) return i;
  }
  return Status::SemanticError("no column '" + column + "' in " + in);
}

Result<Binder::BoundTarget> Binder::BindDmlTarget(const std::string& name,
                                                  bool rid) {
  BoundTarget out;
  if (!catalog_->HasView(name)) {
    STARBURST_ASSIGN_OR_RETURN(out.table, catalog_->GetTable(name));
    referenced_objects_.insert("T:" + IdentUpper(name));
    out.box = BaseTableBox(out.table, rid);
    out.base_columns.resize(out.table->schema.num_columns());
    std::iota(out.base_columns.begin(), out.base_columns.end(), 0);
    return out;
  }
  STARBURST_ASSIGN_OR_RETURN(const ViewDef* view, catalog_->GetView(name));
  referenced_objects_.insert("V:" + IdentUpper(name));
  STARBURST_ASSIGN_OR_RETURN(out.box, BindView(*view));
  // §2: "Update through views will be allowed when the update is
  // unambiguous": one F iterator over a base table, no duplicate
  // elimination, grouping or set operation, and plain base columns out.
  Box* box = out.box;
  auto ambiguous = [&](const std::string& why) {
    return Status::SemanticError("view '" + view->name +
                                 "' is not unambiguously updatable: " + why);
  };
  if (box->kind == BoxKind::kSetOp) return ambiguous("it uses set operations");
  if (box->kind != BoxKind::kSelect) {
    return ambiguous("it uses table expressions");
  }
  if (box->distinct_enforced) return ambiguous("it eliminates duplicates");
  std::vector<Quantifier*> iterators;
  for (const auto& q : box->quantifiers) {
    if (q->ContributesTuples()) iterators.push_back(q.get());
  }
  if (iterators.size() == 1 && iterators[0]->input->kind == BoxKind::kGroupBy) {
    return ambiguous("it performs aggregation");
  }
  if (iterators.size() != 1 ||
      iterators[0]->type != QuantifierType::kForEach) {
    return ambiguous("it ranges over more than one table");
  }
  Quantifier* base = iterators[0];
  if (base->input->kind != BoxKind::kBaseTable) {
    return ambiguous(view_boxes_.count(base->input) > 0
                         ? "it is defined over another view"
                         : "it uses table expressions");
  }
  for (size_t i = 0; i < box->head.size(); ++i) {
    const Expr* e = box->head[i].expr.get();
    if (e->kind != Expr::Kind::kColumnRef || e->quantifier != base) {
      return ambiguous("output column " + std::to_string(i + 1) +
                       " is a computed expression");
    }
    out.base_columns.push_back(e->column);
  }
  out.table = base->input->table;
  if (rid) {
    // The view's iterator ranges over the rid-bearing copy of its table,
    // and the rid leaves through the view head.
    base->input = BaseTableBox(out.table, true);
    box->head.push_back(HeadColumn{
        kRidColumnName, DataType::Int(),
        MakeColumnRef(base, out.table->schema.num_columns(), DataType::Int())});
  }
  return out;
}

Result<Box*> Binder::BindRidQuery(
    const std::string& name, const ast::Expr* where,
    const std::vector<std::pair<std::string, ast::ExprPtr>>* assignments,
    DmlTarget* target) {
  STARBURST_ASSIGN_OR_RETURN(BoundTarget t, BindDmlTarget(name, true));
  const size_t exposed = t.base_columns.size();  // the rid follows
  Box* root = graph_->NewBox(BoxKind::kSelect);
  Quantifier* q = root->AddQuantifier(
      graph_->NewQuantifier(QuantifierType::kForEach, t.box));
  q->alias = name;
  root->head.push_back(HeadColumn{kRidColumnName, DataType::Int(),
                                  MakeColumnRef(q, exposed, DataType::Int())});
  Scope scope;
  scope.select_box = root;
  scope.range_vars.push_back(RangeVar{name, q, 0, exposed});
  CteEnv env;
  ExprContext ctx{&scope, &env};
  if (where != nullptr) {
    STARBURST_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*where, &ctx));
    if (bound->type.id != TypeId::kBool && bound->type.id != TypeId::kNull) {
      return Status::TypeError("WHERE clause must be boolean");
    }
    SplitConjuncts(std::move(bound), &root->predicates);
  }
  target->table = t.table;
  if (assignments == nullptr) return root;
  for (const auto& [col_name, value_expr] : *assignments) {
    STARBURST_ASSIGN_OR_RETURN(size_t pos, t.Find(col_name, "table " + name));
    STARBURST_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*value_expr, &ctx));
    STARBURST_RETURN_IF_ERROR(
        UnifyTypes(q->ColumnType(pos), bound->type, "SET " + col_name)
            .status());
    DataType type = bound->type;
    root->head.push_back(HeadColumn{col_name, type, std::move(bound)});
    target->columns.push_back(t.base_columns[pos]);
  }
  return root;
}

Result<Box*> Binder::BindInsert(const ast::InsertStatement& stmt,
                                DmlTarget* target) {
  STARBURST_ASSIGN_OR_RETURN(BoundTarget t, BindDmlTarget(stmt.table, false));
  std::vector<size_t> exposed;  // target columns, as exposed positions
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < t.base_columns.size(); ++i) exposed.push_back(i);
  }
  for (const std::string& name : stmt.columns) {
    STARBURST_ASSIGN_OR_RETURN(size_t pos, t.Find(name, stmt.table));
    exposed.push_back(pos);
  }
  target->table = t.table;
  for (size_t pos : exposed) target->columns.push_back(t.base_columns[pos]);
  auto arity_error = [&](size_t got) {
    return Status::SemanticError("INSERT arity mismatch: expected " +
                                 std::to_string(exposed.size()) +
                                 " values, got " + std::to_string(got));
  };
  if (stmt.query != nullptr) {
    CteEnv env;
    STARBURST_ASSIGN_OR_RETURN(Box * root,
                               BindQueryNode(*stmt.query, nullptr, env));
    STARBURST_RETURN_IF_ERROR(BindOrderByLimit(*stmt.query, root));
    size_t width = root->head.size() - graph_->hidden_order_columns;
    if (width != exposed.size()) return arity_error(width);
    return root;
  }
  // VALUES: a leaf box whose rows are bound expressions over no input,
  // typed by the columns they fill (the apply step coerces and checks).
  Box* values = graph_->NewBox(BoxKind::kValues);
  for (size_t pos : exposed) {
    values->head.push_back(
        HeadColumn{t.box->head[pos].name, t.box->head[pos].type, nullptr});
  }
  Scope scope;
  scope.select_box = values;
  CteEnv env;
  ExprContext ctx{&scope, &env};
  for (const std::vector<ast::ExprPtr>& row : stmt.rows) {
    if (row.size() != exposed.size()) return arity_error(row.size());
    std::vector<ExprPtr> bound_row;
    bound_row.reserve(row.size());
    for (const ast::ExprPtr& e : row) {
      STARBURST_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*e, &ctx));
      bound_row.push_back(std::move(bound));
    }
    values->rows.push_back(std::move(bound_row));
  }
  return values;
}

// ---------------------------------------------------------------------------
// ORDER BY / LIMIT
// ---------------------------------------------------------------------------

Status Binder::BindOrderByLimit(const ast::Query& query, Box* root) {
  for (const ast::OrderItem& item : query.order_by) {
    Graph::OrderKey key;
    key.ascending = item.ascending;
    if (item.expr->kind == ast::ExprKind::kLiteral) {
      const Value& v = static_cast<const ast::LiteralExpr&>(*item.expr).value;
      if (v.type_id() != TypeId::kInt || v.int_value() < 1 ||
          v.int_value() > static_cast<int64_t>(root->head.size())) {
        return Status::SemanticError("ORDER BY position out of range");
      }
      key.head_column = static_cast<size_t>(v.int_value() - 1);
    } else if (item.expr->kind == ast::ExprKind::kColumnRef) {
      const auto& cr = static_cast<const ast::ColumnRefExpr&>(*item.expr);
      // An output column wins, matched by name (the qualifier is ignored
      // for output columns, as aliases are not visible at this level).
      bool found = false;
      for (size_t i = 0; i < root->head.size(); ++i) {
        if (IdentEquals(root->head[i].name, cr.column)) {
          key.head_column = i;
          found = true;
          break;
        }
      }
      if (!found) {
        // Not an output column: order by a hidden column resolved against
        // the root box's own iterators (stripped from the final result).
        if (root->kind != BoxKind::kSelect) {
          return Status::SemanticError("ORDER BY column '" + cr.column +
                                       "' is not in the select list");
        }
        if (root->distinct_enforced) {
          return Status::SemanticError(
              "ORDER BY column '" + cr.column +
              "' must be in the select list when SELECT DISTINCT is used");
        }
        Scope scope;
        scope.select_box = root;
        for (const auto& q : root->quantifiers) {
          if (!q->ContributesTuples()) continue;
          scope.range_vars.push_back(
              RangeVar{q->alias, q.get(), 0, q->NumColumns()});
        }
        int level = 0;
        Result<ExprPtr> resolved =
            ResolveInScope(&scope, cr.qualifier, cr.column, &level);
        if (!resolved.ok()) {
          return Status::SemanticError("ORDER BY column '" + cr.ToString() +
                                       "' is neither an output column nor a "
                                       "column of the FROM tables");
        }
        DataType type = (*resolved)->type;
        root->head.push_back(
            HeadColumn{"$order" + std::to_string(graph_->hidden_order_columns),
                       type, resolved.TakeValue()});
        ++graph_->hidden_order_columns;
        key.head_column = root->head.size() - 1;
      }
    } else {
      return Status::NotImplemented(
          "ORDER BY expressions must be output columns or positions");
    }
    graph_->order_by.push_back(key);
  }
  graph_->limit = query.limit;
  return Status::OK();
}

}  // namespace starburst::qgm
