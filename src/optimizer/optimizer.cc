#include "optimizer/optimizer.h"

#include <algorithm>
#include <set>

namespace starburst::optimizer {

using qgm::Box;
using qgm::BoxKind;
using qgm::Expr;
using qgm::Quantifier;
using qgm::QuantifierType;

Optimizer::Optimizer(const Catalog* catalog, Options options)
    : catalog_(catalog), options_(options), cost_(options.cost) {
  RegisterDefaultStars(&registry_);
  generator_ = std::make_unique<PlanGenerator>(&registry_, &cost_, catalog_,
                                               options_.generator);
}

Result<PlanPtr> Optimizer::Optimize(const qgm::Graph& graph) {
  graph_ = &graph;
  box_plans_.clear();
  shared_temp_plans_.clear();
  // Bottom-up over every operation, so even boxes only reachable as
  // correlated subqueries have plans available to the refiner.
  for (const qgm::Box* box : graph.BottomUpOrder()) {
    if (box->kind == BoxKind::kBaseTable) continue;
    STARBURST_RETURN_IF_ERROR(OptimizeBox(box).status());
  }
  STARBURST_ASSIGN_OR_RETURN(PlanPtr plan, OptimizeBox(graph.root()));

  if (!graph.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> wanted;
    for (const qgm::Graph::OrderKey& k : graph.order_by) {
      wanted.push_back({k.head_column, k.ascending});
    }
    if (!OrderSatisfies(plan->props.order, wanted)) {
      auto sort = NewPlan(Lolepop::kSort);
      sort->inputs = {plan};
      sort->output = plan->output;
      sort->sort_keys = std::move(wanted);
      cost_.FinishSort(sort.get());
      plan = sort;
    }
  }
  stats_.generator = generator_->stats();
  graph_ = nullptr;
  return plan;
}

Result<PlanPtr> Optimizer::OptimizeBox(const Box* box) {
  auto memo = box_plans_.find(box);
  if (memo != box_plans_.end()) return memo->second;

  Result<PlanPtr> result = [&]() -> Result<PlanPtr> {
    switch (box->kind) {
      case BoxKind::kSelect: {
        for (const auto& q : box->quantifiers) {
          if (q->type == QuantifierType::kPreservedForEach) {
            return OptimizeOuterJoin(box);
          }
        }
        return OptimizeSelect(box);
      }
      case BoxKind::kGroupBy:
        return OptimizeGroupBy(box);
      case BoxKind::kSetOp:
        return OptimizeSetOp(box);
      case BoxKind::kValues: {
        auto values = NewPlan(Lolepop::kValues);
        values->box = box;
        for (size_t i = 0; i < box->head.size(); ++i) {
          values->output.push_back(ColumnBinding{nullptr, box, i});
        }
        cost_.FinishValues(values.get(), box->rows.size());
        generator_->CountPlan();
        return PlanPtr(values);
      }
      case BoxKind::kTableFunction:
        return OptimizeTableFunction(box);
      case BoxKind::kChoose: {
        // CHOOSE links rewrite alternatives; the optimizer "can eliminate
        // [it] when [it] chooses an alternative" — pick the cheapest.
        PlanPtr best;
        for (const auto& q : box->quantifiers) {
          STARBURST_ASSIGN_OR_RETURN(PlanPtr alt, OptimizeBox(q->input));
          if (best == nullptr || alt->props.cost < best->props.cost) {
            best = alt;
          }
        }
        if (best == nullptr) {
          return Status::Internal("CHOOSE box has no alternatives");
        }
        // Relabel into this box's output space.
        auto relabel = NewPlan(Lolepop::kProject);
        relabel->inputs = {best};
        relabel->box = box;
        for (size_t i = 0; i < box->head.size(); ++i) {
          relabel->output.push_back(ColumnBinding{nullptr, box, i});
        }
        relabel->props = best->props;
        return PlanPtr(relabel);
      }
      case BoxKind::kRecursiveUnion:
        return OptimizeRecursion(box);
      case BoxKind::kIterationRef: {
        auto ref = NewPlan(Lolepop::kIterRef);
        ref->box = box;
        for (size_t i = 0; i < box->head.size(); ++i) {
          ref->output.push_back(ColumnBinding{nullptr, box, i});
        }
        cost_.FinishIterRef(ref.get(), cost_.params().default_table_rows);
        return PlanPtr(ref);
      }
      case BoxKind::kBaseTable:
        return Status::Internal(
            "base tables are accessed through quantifiers, not planned");
    }
    return Status::Internal("unknown box kind");
  }();

  if (result.ok()) box_plans_[box] = *result;
  return result;
}

// ---------------------------------------------------------------------------
// SELECT boxes
// ---------------------------------------------------------------------------

bool Optimizer::SubtreeCorrelated(const Box* sub) const {
  std::set<const Box*> subtree;
  std::vector<const Box*> stack = {sub};
  while (!stack.empty()) {
    const Box* b = stack.back();
    stack.pop_back();
    if (!subtree.insert(b).second) continue;
    for (const auto& q : b->quantifiers) {
      if (q->input != nullptr) stack.push_back(q->input);
    }
  }
  for (const Box* b : subtree) {
    auto uses_foreign = [&](const Expr* e) {
      if (e == nullptr) return false;
      std::set<Quantifier*> used;
      e->CollectQuantifiers(&used);
      for (Quantifier* q : used) {
        if (subtree.count(q->owner) == 0) return true;
      }
      return false;
    };
    for (const auto& p : b->predicates) {
      if (uses_foreign(p.get())) return true;
    }
    for (const auto& h : b->head) {
      if (uses_foreign(h.expr.get())) return true;
    }
    for (const auto& g : b->group_keys) {
      if (uses_foreign(g.get())) return true;
    }
    for (const auto& a : b->aggregates) {
      if (uses_foreign(a.arg.get())) return true;
    }
  }
  return false;
}

std::vector<size_t> Optimizer::NeededColumns(const Quantifier* q) const {
  std::set<size_t> needed;
  for (const auto& box : graph_->boxes()) {
    auto scan = [&](const Expr* e) {
      if (e == nullptr) return;
      std::vector<std::pair<Quantifier*, size_t>> refs;
      e->CollectColumnRefs(&refs);
      for (const auto& [rq, col] : refs) {
        if (rq == q) needed.insert(col);
      }
    };
    for (const auto& p : box->predicates) scan(p.get());
    for (const auto& h : box->head) scan(h.expr.get());
    for (const auto& g : box->group_keys) scan(g.get());
    for (const auto& a : box->aggregates) scan(a.arg.get());
  }
  if (needed.empty() && q->NumColumns() > 0) needed.insert(0);
  return std::vector<size_t>(needed.begin(), needed.end());
}

bool Optimizer::SubtreeHasIterationRef(const Box* box) const {
  std::set<const Box*> seen;
  std::vector<const Box*> stack = {box};
  while (!stack.empty()) {
    const Box* b = stack.back();
    stack.pop_back();
    if (!seen.insert(b).second) continue;
    if (b->kind == BoxKind::kIterationRef) return true;
    for (const auto& q : b->quantifiers) stack.push_back(q->input);
  }
  return false;
}

Result<PlanPtr> Optimizer::DerivedTablePlan(const Box* input) {
  STARBURST_ASSIGN_OR_RETURN(PlanPtr child, OptimizeBox(input));
  if (!options_.materialize_shared) return child;

  // "Materialized once and used several times" (§5): a table expression
  // with several consumers gets one shared TEMP — unless its contents are
  // context-dependent (correlated, or fed by a recursion's delta).
  int refs = 0;
  for (const auto& box : graph_->boxes()) {
    for (const auto& q : box->quantifiers) {
      if (q->input == input) ++refs;
    }
  }
  if (refs < 2) return child;
  if (SubtreeCorrelated(input) || SubtreeHasIterationRef(input)) return child;

  auto memo = shared_temp_plans_.find(input);
  if (memo != shared_temp_plans_.end()) return memo->second;
  auto temp = NewPlan(Lolepop::kTemp);
  temp->inputs = {child};
  temp->output = child->output;
  temp->shared = true;
  cost_.FinishTemp(temp.get());
  // Later consumers see only the cheap rescan.
  PlanPtr shared = temp;
  shared_temp_plans_[input] = shared;
  return shared;
}

PlanPtr Optimizer::Relabel(PlanPtr input, const Quantifier* q) {
  auto relabel = NewPlan(Lolepop::kProject);
  relabel->inputs = {input};
  relabel->quantifier = q;
  for (size_t i = 0; i < input->output.size(); ++i) {
    relabel->output.push_back(ColumnBinding{q, nullptr, i});
  }
  relabel->props = input->props;  // pure renaming: order/cost preserved
  return relabel;
}

Result<std::vector<PlanPtr>> Optimizer::AccessQuantifier(
    const Quantifier* q, const std::vector<const Expr*>& preds) {
  const Box* input = q->input;
  if (input == nullptr) return Status::Internal("iterator without range edge");

  std::vector<PlanPtr> plans;
  if (input->kind == BoxKind::kBaseTable) {
    StarContext ctx;
    ctx.catalog = catalog_;
    ctx.box = q->owner;
    ctx.quantifier = q;
    ctx.local_preds = preds;
    ctx.needed_columns = NeededColumns(q);
    STARBURST_ASSIGN_OR_RETURN(plans, generator_->Expand("TableAccess", ctx));
  } else {
    STARBURST_ASSIGN_OR_RETURN(PlanPtr child, DerivedTablePlan(input));
    PlanPtr access = Relabel(child, q);
    if (!preds.empty()) {
      access = AddFilter(access, preds);
    }
    plans.push_back(access);
  }

  // Remote streams are glued to the local site before joining.
  std::vector<PlanPtr> local;
  for (PlanPtr& plan : plans) {
    if (plan->props.site == "local") {
      local.push_back(std::move(plan));
      continue;
    }
    StarContext glue;
    glue.glue_input = plan;
    glue.required_site = "local";
    STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> shipped,
                               generator_->Expand("Glue", glue));
    for (PlanPtr& s : shipped) local.push_back(std::move(s));
  }
  return local;
}

namespace {

bool ContainsSubqueryNode(const Expr& e) {
  if (e.kind == Expr::Kind::kExistsTest || e.kind == Expr::Kind::kQuantCompare) {
    return true;
  }
  if (e.kind == Expr::Kind::kColumnRef && e.quantifier != nullptr &&
      !e.quantifier->ContributesTuples()) {
    return true;
  }
  for (const auto& c : e.children) {
    if (ContainsSubqueryNode(*c)) return true;
  }
  return false;
}

}  // namespace

PlanPtr Optimizer::AddFilter(PlanPtr input, std::vector<const Expr*> preds) {
  if (preds.empty()) return input;
  // Disjunctions containing subqueries route through §7's OR operator so
  // the subquery branch only runs for tuples the cheap branches rejected.
  std::vector<const Expr*> or_preds;
  std::vector<const Expr*> plain;
  for (const Expr* p : preds) {
    if (p->kind == Expr::Kind::kBinary && p->bop == ast::BinaryOp::kOr &&
        ContainsSubqueryNode(*p)) {
      or_preds.push_back(p);
    } else {
      plain.push_back(p);
    }
  }
  PlanPtr plan = input;
  if (!plain.empty()) {
    auto filter = NewPlan(Lolepop::kFilter);
    filter->inputs = {plan};
    filter->output = plan->output;
    filter->predicates = std::move(plain);
    cost_.FinishFilter(filter.get());
    plan = filter;
  }
  if (!or_preds.empty()) {
    auto orop = NewPlan(Lolepop::kOrRoute);
    orop->inputs = {plan};
    orop->output = plan->output;
    orop->predicates = std::move(or_preds);
    cost_.FinishOrRoute(orop.get());
    plan = orop;
  }
  return plan;
}

Result<PlanPtr> Optimizer::ProjectToHead(const Box* box, PlanPtr input) {
  auto project = NewPlan(Lolepop::kProject);
  project->inputs = {input};
  project->box = box;
  for (size_t i = 0; i < box->head.size(); ++i) {
    project->output.push_back(ColumnBinding{nullptr, box, i});
  }
  cost_.FinishProject(project.get());
  // An input order survives projection as long as its leading columns are
  // re-emitted as plain head column references.
  for (const auto& [slot, asc] : input->props.order) {
    const ColumnBinding& binding = input->output[slot];
    size_t mapped = Plan::kNoSlot;
    for (size_t i = 0; i < box->head.size(); ++i) {
      const qgm::Expr* e = box->head[i].expr.get();
      if (e != nullptr && e->kind == qgm::Expr::Kind::kColumnRef &&
          e->quantifier == binding.quantifier && e->column == binding.column) {
        mapped = i;
        break;
      }
    }
    if (mapped == Plan::kNoSlot) break;
    project->props.order.push_back({mapped, asc});
  }
  generator_->CountPlan();
  PlanPtr plan = project;
  if (box->distinct_enforced) {
    StarContext ctx;
    ctx.glue_input = plan;
    STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> alts,
                               generator_->Expand("Distinct", ctx));
    if (alts.empty()) return Status::Internal("no Distinct strategy");
    plan = alts[0];
    for (const PlanPtr& a : alts) {
      if (a->props.cost < plan->props.cost) plan = a;
    }
  }
  return plan;
}

Result<PlanPtr> Optimizer::AttachSubqueryJoins(
    const Box* box, PlanPtr plan, std::vector<const Expr*>* residual) {
  // Uncorrelated quantified predicates become joins with the appropriate
  // join kind (§7: "we treat subqueries as special types of join").
  std::vector<const Expr*> still_residual;
  std::set<const Quantifier*> joined;

  // Scalar quantifiers used by any expression must be joined in before
  // projection; uncorrelated ones get a scalar-subquery join.
  for (const auto& q : box->quantifiers) {
    if (q->type != QuantifierType::kScalar) continue;
    if (SubtreeCorrelated(q->input)) continue;  // runtime subplan instead
    STARBURST_ASSIGN_OR_RETURN(PlanPtr sub, DerivedTablePlan(q->input));
    StarContext ctx;
    ctx.catalog = catalog_;
    ctx.box = box;
    ctx.outer = plan;
    ctx.inner = Relabel(sub, q.get());
    ctx.kind = JoinKind::kScalar;
    STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> joins,
                               generator_->Expand("JoinMethod", ctx));
    if (joins.empty()) return Status::Internal("no scalar join strategy");
    plan = joins[0];
    for (const PlanPtr& j : joins) {
      if (j->props.cost < plan->props.cost) plan = j;
    }
    joined.insert(q.get());
  }

  for (const Expr* pred : *residual) {
    JoinKind kind;
    const Quantifier* q = pred->quantifier;
    bool join_it = false;
    if (pred->kind == Expr::Kind::kExistsTest && q != nullptr &&
        q->owner == box && !SubtreeCorrelated(q->input)) {
      kind = pred->negated ? JoinKind::kAnti : JoinKind::kExists;
      join_it = true;
    } else if (pred->kind == Expr::Kind::kQuantCompare && q != nullptr &&
               q->owner == box && !SubtreeCorrelated(q->input)) {
      switch (q->type) {
        case QuantifierType::kExists: kind = JoinKind::kExists; break;
        case QuantifierType::kAll: kind = JoinKind::kOpAll; break;
        case QuantifierType::kAntiExists: kind = JoinKind::kAnti; break;
        case QuantifierType::kSetPredicate: kind = JoinKind::kSetPred; break;
        default: kind = JoinKind::kExists; break;
      }
      join_it = true;
    }
    if (!join_it || joined.count(q)) {
      still_residual.push_back(pred);
      continue;
    }
    // The quantified-compare operand must be computable from the current
    // stream (it references this box's F iterators, all present).
    STARBURST_ASSIGN_OR_RETURN(PlanPtr sub, DerivedTablePlan(q->input));
    StarContext ctx;
    ctx.catalog = catalog_;
    ctx.box = box;
    ctx.outer = plan;
    ctx.inner = Relabel(sub, q);
    ctx.kind = kind;
    ctx.set_function = q->set_function;
    ctx.quant_compare = pred->kind == Expr::Kind::kQuantCompare ? pred : nullptr;
    STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> joins,
                               generator_->Expand("JoinMethod", ctx));
    if (joins.empty()) {
      still_residual.push_back(pred);
      continue;
    }
    PlanPtr best = joins[0];
    for (const PlanPtr& j : joins) {
      if (j->props.cost < best->props.cost) best = j;
    }
    plan = best;
    joined.insert(q);
  }
  *residual = std::move(still_residual);
  return plan;
}

Result<PlanPtr> Optimizer::OptimizeSelect(const Box* box) {
  std::vector<const Quantifier*> iterators;
  for (const auto& q : box->quantifiers) {
    if (q->type == QuantifierType::kForEach) iterators.push_back(q.get());
  }

  // Split predicates: enumerable (touch only F iterators of this box)
  // versus residual (subquery tests, pure-correlation predicates).
  std::vector<const Expr*> enumerable;
  std::vector<const Expr*> residual;
  for (const auto& p : box->predicates) {
    std::set<Quantifier*> used;
    p->CollectQuantifiers(&used);
    bool pure = true;
    bool touches_iterator = false;
    for (Quantifier* q : used) {
      if (q->owner != box) continue;  // correlation parameter
      if (q->type == QuantifierType::kForEach) {
        touches_iterator = true;
      } else {
        pure = false;
      }
    }
    if (pure && touches_iterator) {
      enumerable.push_back(p.get());
    } else {
      residual.push_back(p.get());
    }
  }

  PlanPtr joined;
  if (iterators.empty()) {
    // SELECT with no setformers emits a single row (e.g. SELECT 1).
    auto values = NewPlan(Lolepop::kValues);
    values->box = box;
    cost_.FinishValues(values.get(), 1);
    joined = values;
  } else {
    JoinEnumerator enumerator(generator_.get(), options_.join);
    auto access = [this](const Quantifier* q,
                         const std::vector<const Expr*>& preds) {
      return AccessQuantifier(q, preds);
    };
    STARBURST_ASSIGN_OR_RETURN(
        std::vector<PlanPtr> full,
        enumerator.Enumerate(box, iterators, enumerable, access));
    stats_.enumerator.pairs_considered += enumerator.stats().pairs_considered;
    stats_.enumerator.plans_kept += enumerator.stats().plans_kept;
    stats_.enumerator.sets_built += enumerator.stats().sets_built;
    joined = full[0];
  }

  STARBURST_ASSIGN_OR_RETURN(PlanPtr with_subqueries,
                             AttachSubqueryJoins(box, joined, &residual));
  PlanPtr filtered = AddFilter(with_subqueries, residual);
  return ProjectToHead(box, filtered);
}

Result<PlanPtr> Optimizer::OptimizeOuterJoin(const Box* box) {
  // The binder shapes outer-join boxes as exactly [PF, F] with the ON
  // conjuncts as predicates.
  const Quantifier* preserved = nullptr;
  const Quantifier* null_producing = nullptr;
  for (const auto& q : box->quantifiers) {
    if (q->type == QuantifierType::kPreservedForEach) {
      preserved = q.get();
    } else if (q->type == QuantifierType::kForEach) {
      null_producing = q.get();
    }
  }
  if (preserved == nullptr || null_producing == nullptr) {
    return Status::Internal("malformed outer-join box " + box->Label());
  }
  STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> outers,
                             AccessQuantifier(preserved, {}));
  STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> inners,
                             AccessQuantifier(null_producing, {}));
  std::vector<const Expr*> on_preds;
  for (const auto& p : box->predicates) on_preds.push_back(p.get());

  PlanPtr best;
  for (const PlanPtr& outer : outers) {
    for (const PlanPtr& inner : inners) {
      StarContext ctx;
      ctx.catalog = catalog_;
      ctx.box = box;
      ctx.outer = outer;
      ctx.inner = inner;
      ctx.join_preds = on_preds;
      ctx.kind = JoinKind::kLeftOuter;
      STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> joins,
                                 generator_->Expand("JoinMethod", ctx));
      for (const PlanPtr& j : joins) {
        if (best == nullptr || j->props.cost < best->props.cost) best = j;
      }
    }
  }
  if (best == nullptr) return Status::Internal("no outer-join strategy");
  return ProjectToHead(box, best);
}

Result<PlanPtr> Optimizer::OptimizeGroupBy(const Box* box) {
  if (box->quantifiers.size() != 1) {
    return Status::Internal("GROUP BY box must have one iterator");
  }
  const Quantifier* q = box->quantifiers[0].get();
  STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> inputs,
                             AccessQuantifier(q, {}));
  PlanPtr input = inputs[0];
  for (const PlanPtr& p : inputs) {
    if (p->props.cost < input->props.cost) input = p;
  }
  auto agg = NewPlan(Lolepop::kGroupAgg);
  agg->inputs = {input};
  agg->box = box;
  for (size_t i = 0; i < box->head.size(); ++i) {
    agg->output.push_back(ColumnBinding{nullptr, box, i});
  }
  double groups = cost_.GroupCount(box->group_keys, input->props.cardinality);
  cost_.FinishGroupAgg(agg.get(), groups);
  generator_->CountPlan();
  return PlanPtr(agg);
}

Result<PlanPtr> Optimizer::OptimizeSetOp(const Box* box) {
  if (box->quantifiers.size() != 2) {
    return Status::Internal("set operation box must have two iterators");
  }
  STARBURST_ASSIGN_OR_RETURN(PlanPtr left,
                             DerivedTablePlan(box->quantifiers[0]->input));
  STARBURST_ASSIGN_OR_RETURN(PlanPtr right,
                             DerivedTablePlan(box->quantifiers[1]->input));
  auto setop = NewPlan(Lolepop::kSetOp);
  setop->inputs = {left, right};
  setop->box = box;
  for (size_t i = 0; i < box->head.size(); ++i) {
    setop->output.push_back(ColumnBinding{nullptr, box, i});
  }
  cost_.FinishSetOp(setop.get());
  generator_->CountPlan();
  return PlanPtr(setop);
}

Result<PlanPtr> Optimizer::OptimizeTableFunction(const Box* box) {
  auto tf = NewPlan(Lolepop::kTableFunc);
  tf->box = box;
  for (const auto& q : box->quantifiers) {
    STARBURST_ASSIGN_OR_RETURN(PlanPtr input, OptimizeBox(q->input));
    tf->inputs.push_back(input);
  }
  for (size_t i = 0; i < box->head.size(); ++i) {
    tf->output.push_back(ColumnBinding{nullptr, box, i});
  }
  cost_.FinishTableFunc(tf.get());
  generator_->CountPlan();
  return PlanPtr(tf);
}

Result<PlanPtr> Optimizer::OptimizeRecursion(const Box* box) {
  if (box->quantifiers.size() != 2) {
    return Status::Internal("recursive union box must have two iterators");
  }
  STARBURST_ASSIGN_OR_RETURN(PlanPtr base,
                             OptimizeBox(box->quantifiers[0]->input));
  STARBURST_ASSIGN_OR_RETURN(PlanPtr step,
                             OptimizeBox(box->quantifiers[1]->input));
  auto recurse = NewPlan(Lolepop::kRecurse);
  recurse->inputs = {base, step};
  recurse->box = box;
  for (size_t i = 0; i < box->head.size(); ++i) {
    recurse->output.push_back(ColumnBinding{nullptr, box, i});
  }
  cost_.FinishRecurse(recurse.get());
  generator_->CountPlan();
  return PlanPtr(recurse);
}

}  // namespace starburst::optimizer
