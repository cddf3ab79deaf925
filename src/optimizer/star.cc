#include "optimizer/star.h"

#include <algorithm>
#include <set>

namespace starburst::optimizer {

using qgm::Expr;

Status StarRegistry::Add(Star star) {
  if (!star.generate) {
    return Status::InvalidArgument("STAR '" + star.name + "' has no body");
  }
  for (const auto& [nt, stars] : by_nonterminal_) {
    for (const Star& s : stars) {
      if (s.name == star.name) {
        return Status::AlreadyExists("STAR '" + star.name + "' already added");
      }
    }
  }
  std::string key = star.expands;
  by_nonterminal_[key].push_back(std::move(star));
  // Evaluation order within a nonterminal: a prioritized queue by rank.
  std::stable_sort(by_nonterminal_[key].begin(), by_nonterminal_[key].end(),
                   [](const Star& a, const Star& b) { return a.rank < b.rank; });
  ++count_;
  return Status::OK();
}

const std::vector<Star>* StarRegistry::ForNonterminal(
    const std::string& nonterminal) const {
  auto it = by_nonterminal_.find(nonterminal);
  return it == by_nonterminal_.end() ? nullptr : &it->second;
}

std::vector<std::string> StarRegistry::Names() const {
  std::vector<std::string> names;
  for (const auto& [nt, stars] : by_nonterminal_) {
    for (const Star& s : stars) names.push_back(s.name);
  }
  return names;
}

Result<std::vector<PlanPtr>> PlanGenerator::Expand(
    const std::string& nonterminal, const StarContext& ctx) {
  std::vector<PlanPtr> alternatives;
  STARBURST_RETURN_IF_ERROR(ExpandEach(
      nonterminal, ctx,
      [&alternatives](PlanPtr p) { alternatives.push_back(std::move(p)); }));
  return alternatives;
}

Status PlanGenerator::ExpandEach(const std::string& nonterminal,
                                 const StarContext& ctx,
                                 const std::function<void(PlanPtr)>& keep) {
  const std::vector<Star>* stars = registry_->ForNonterminal(nonterminal);
  if (stars == nullptr) {
    return Status::NotFound("no STAR defines nonterminal '" + nonterminal + "'");
  }
  std::vector<PlanPtr> alternatives;
  for (const Star& star : *stars) {
    if (star.rank > options_.max_rank) continue;  // rank pruning
    ++stats_.stars_evaluated;
    alternatives.clear();
    STARBURST_RETURN_IF_ERROR(star.generate(*this, ctx, &alternatives));
    for (PlanPtr& p : alternatives) keep(std::move(p));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The default STAR array
// ---------------------------------------------------------------------------

namespace {

bool ExprUsesBoxQuantifiers(const Expr& e, const qgm::Box* box,
                            const qgm::Quantifier* except) {
  std::set<qgm::Quantifier*> used;
  e.CollectQuantifiers(&used);
  for (qgm::Quantifier* q : used) {
    if (q == except) continue;
    if (q->owner == box) return true;
  }
  return false;
}

/// outer.slot = inner.slot pairs derivable from the join predicates;
/// predicates consumed this way are removed from `residual`.
std::vector<std::pair<size_t, size_t>> ExtractEquiKeys(
    const PlanPtr& outer, const PlanPtr& inner,
    const std::vector<const Expr*>& preds,
    std::vector<const Expr*>* residual) {
  std::vector<std::pair<size_t, size_t>> keys;
  for (const Expr* p : preds) {
    bool consumed = false;
    if (qgm::IsColumnEquality(*p)) {
      const Expr& l = *p->children[0];
      const Expr& r = *p->children[1];
      size_t lo = outer->FindSlot(l.quantifier, l.column);
      size_t ri = inner->FindSlot(r.quantifier, r.column);
      if (lo != Plan::kNoSlot && ri != Plan::kNoSlot) {
        keys.emplace_back(lo, ri);
        consumed = true;
      } else {
        lo = outer->FindSlot(r.quantifier, r.column);
        ri = inner->FindSlot(l.quantifier, l.column);
        if (lo != Plan::kNoSlot && ri != Plan::kNoSlot) {
          keys.emplace_back(lo, ri);
          consumed = true;
        }
      }
    }
    if (!consumed) residual->push_back(p);
  }
  return keys;
}

/// The join plan a JoinMethod STAR priced at `props`. Its inputs are
/// ctx's streams or a TEMP or glue over them; it emits ctx.outer's
/// columns, then ctx.inner's unless the kind emits outer rows only.
std::shared_ptr<Plan> NewJoin(Lolepop op, const StarContext& ctx,
                              PlanPtr outer, PlanPtr inner, PlanProps props) {
  auto join = NewPlan(op);
  join->join_kind = ctx.kind;
  join->join_set_function = ctx.set_function;
  join->quant_compare = ctx.quant_compare;
  join->output = ctx.outer->output;
  bool outer_only = ctx.kind == JoinKind::kExists ||
                    ctx.kind == JoinKind::kAnti ||
                    ctx.kind == JoinKind::kOpAll ||
                    ctx.kind == JoinKind::kSetPred;
  if (!outer_only) {
    join->output.insert(join->output.end(), ctx.inner->output.begin(),
                        ctx.inner->output.end());
  }
  join->inputs = {std::move(outer), std::move(inner)};
  join->props = std::move(props);
  return join;
}

/// Output rows of the join in `ctx` over an inner of `inner_rows` rows.
double JoinCard(const PlanGenerator& gen, const StarContext& ctx,
                double inner_rows) {
  double selectivity = ctx.join_selectivity >= 0
                           ? ctx.join_selectivity
                           : gen.cost().CombinedSelectivity(ctx.join_preds);
  return gen.cost().JoinCardinality(ctx.kind, ctx.outer->props.cardinality,
                                    inner_rows, selectivity);
}

/// True if a plan the enumerator keeps (ctx.kept) dominates a candidate
/// priced at `props`; the candidate is then counted as costed and not
/// built.
bool Dominated(PlanGenerator& gen, const StarContext& ctx,
               const PlanProps& props) {
  if (ctx.kept == nullptr || !AnyDominates(*ctx.kept, props)) return false;
  gen.CountUnbuilt();
  return true;
}

// -- TableAccess ------------------------------------------------------------

Status SeqScanStar(PlanGenerator& gen, const StarContext& ctx,
                   std::vector<PlanPtr>* out) {
  const qgm::Box* input = ctx.quantifier->input;
  if (input == nullptr || input->kind != qgm::BoxKind::kBaseTable) {
    return Status::OK();
  }
  auto scan = NewPlan(Lolepop::kScan);
  scan->quantifier = ctx.quantifier;
  scan->table = input->table;
  scan->scan_columns = ctx.needed_columns;
  if (scan->scan_columns.empty()) {
    for (size_t i = 0; i < input->head.size(); ++i) {
      scan->scan_columns.push_back(i);
    }
  }
  for (size_t c : scan->scan_columns) {
    scan->output.push_back(ColumnBinding{ctx.quantifier, nullptr, c});
  }
  scan->predicates = ctx.local_preds;
  gen.cost().FinishScan(scan.get());
  gen.CountPlan();
  // Stored tables may live at a remote site: the glue SHIP brings them
  // local (§6: "SHIP changes the site to the specified site").
  PlanPtr plan = scan;
  out->push_back(std::move(plan));
  return Status::OK();
}

Status IndexScanStar(PlanGenerator& gen, const StarContext& ctx,
                     std::vector<PlanPtr>* out) {
  const qgm::Box* input = ctx.quantifier->input;
  if (input == nullptr || input->kind != qgm::BoxKind::kBaseTable ||
      input->table == nullptr || gen.catalog() == nullptr) {
    return Status::OK();
  }
  const TableDef* table = input->table;
  for (const IndexDef* index : gen.catalog()->IndexesOnTable(table->name)) {
    if (!IdentEquals(index->access_method, "BTREE")) continue;
    if (index->key_columns.empty()) continue;
    std::optional<size_t> key_col = table->schema.FindColumn(index->key_columns[0]);
    if (!key_col.has_value()) continue;
    // An unbounded ordered scan of the whole index: rarely the cheapest,
    // but it carries an interesting order the enumerator retains ("the
    // cheapest plan per order"), feeding merge joins and ORDER BY.
    {
      auto ordered = NewPlan(Lolepop::kIndexScan);
      ordered->quantifier = ctx.quantifier;
      ordered->table = table;
      ordered->index = index;
      ordered->index_predicate = nullptr;
      ordered->scan_columns = ctx.needed_columns;
      if (ordered->scan_columns.empty()) {
        for (size_t i = 0; i < input->head.size(); ++i) {
          ordered->scan_columns.push_back(i);
        }
      }
      for (size_t c : ordered->scan_columns) {
        ordered->output.push_back(ColumnBinding{ctx.quantifier, nullptr, c});
      }
      ordered->predicates = ctx.local_preds;
      gen.cost().FinishIndexScan(ordered.get());
      gen.CountPlan();
      out->push_back(std::move(ordered));
    }
    // A sargable predicate: key-column comparison against an expression
    // free of this box's iterators (constants, or correlation parameters
    // for index-driven dependent joins).
    for (const Expr* p : ctx.local_preds) {
      if (p->kind != Expr::Kind::kBinary) continue;
      switch (p->bop) {
        case ast::BinaryOp::kEq:
        case ast::BinaryOp::kLt:
        case ast::BinaryOp::kLe:
        case ast::BinaryOp::kGt:
        case ast::BinaryOp::kGe:
          break;
        default:
          continue;
      }
      const Expr* col_side = p->children[0].get();
      const Expr* other = p->children[1].get();
      if (!(col_side->kind == Expr::Kind::kColumnRef &&
            col_side->quantifier == ctx.quantifier &&
            col_side->column == *key_col)) {
        std::swap(col_side, other);
      }
      if (!(col_side->kind == Expr::Kind::kColumnRef &&
            col_side->quantifier == ctx.quantifier &&
            col_side->column == *key_col)) {
        continue;
      }
      if (other->ReferencesQuantifier(ctx.quantifier)) continue;
      if (ExprUsesBoxQuantifiers(*other, ctx.quantifier->owner,
                                 ctx.quantifier)) {
        continue;  // references sibling iterators: not available here
      }
      auto iscan = NewPlan(Lolepop::kIndexScan);
      iscan->quantifier = ctx.quantifier;
      iscan->table = table;
      iscan->index = index;
      iscan->index_predicate = p;
      iscan->scan_columns = ctx.needed_columns;
      if (iscan->scan_columns.empty()) {
        for (size_t i = 0; i < input->head.size(); ++i) {
          iscan->scan_columns.push_back(i);
        }
      }
      for (size_t c : iscan->scan_columns) {
        iscan->output.push_back(ColumnBinding{ctx.quantifier, nullptr, c});
      }
      for (const Expr* q : ctx.local_preds) {
        if (q != p) iscan->predicates.push_back(q);
      }
      gen.cost().FinishIndexScan(iscan.get());
      gen.CountPlan();
      out->push_back(std::move(iscan));
      break;  // one sargable predicate per index suffices
    }
  }
  return Status::OK();
}

// -- JoinMethod ---------------------------------------------------------------

Status NlJoinStar(PlanGenerator& gen, const StarContext& ctx,
                  std::vector<PlanPtr>* out) {
  PlanProps props = gen.cost().NlJoinProps(
      ctx.outer->props, ctx.inner->props,
      JoinCard(gen, ctx, ctx.inner->props.cardinality), ctx.join_preds.size());
  if (Dominated(gen, ctx, props)) return Status::OK();
  auto join = NewJoin(Lolepop::kNlJoin, ctx, ctx.outer, ctx.inner,
                      std::move(props));
  join->predicates = ctx.join_preds;
  gen.CountPlan();
  out->push_back(std::move(join));
  return Status::OK();
}

Status NlJoinTempStar(PlanGenerator& gen, const StarContext& ctx,
                      std::vector<PlanPtr>* out) {
  // TEMP the inner for cheap rescans — pointless when the inner is
  // correlated with the outer row or already cheap to rescan.
  if (ctx.inner_dependent) return Status::OK();
  if (ctx.inner->props.rescan_cost <= ctx.inner->props.cardinality *
                                          gen.cost().params().cpu_tuple * 1.01) {
    return Status::OK();
  }
  PlanProps temp_props = gen.cost().TempProps(ctx.inner->props);
  PlanProps props = gen.cost().NlJoinProps(
      ctx.outer->props, temp_props,
      JoinCard(gen, ctx, temp_props.cardinality), ctx.join_preds.size());
  if (Dominated(gen, ctx, props)) return Status::OK();
  auto temp = NewPlan(Lolepop::kTemp);
  temp->inputs = {ctx.inner};
  temp->output = ctx.inner->output;
  temp->props = std::move(temp_props);
  auto join = NewJoin(Lolepop::kNlJoin, ctx, ctx.outer, std::move(temp),
                      std::move(props));
  join->predicates = ctx.join_preds;
  gen.CountPlan();
  out->push_back(std::move(join));
  return Status::OK();
}

Status HashJoinStar(PlanGenerator& gen, const StarContext& ctx,
                    std::vector<PlanPtr>* out) {
  if (ctx.inner_dependent) return Status::OK();
  // Quantified compares (x <op> ANY/ALL/IN ...) carry three-valued
  // UNKNOWN semantics that only the NL join evaluates; the hash probe
  // would conflate "no match" with "compared UNKNOWN".
  if (ctx.quant_compare != nullptr) return Status::OK();
  switch (ctx.kind) {
    case JoinKind::kRegular:
    case JoinKind::kExists:
    case JoinKind::kAnti:
    case JoinKind::kLeftOuter:
      break;
    default:
      return Status::OK();  // scalar/ALL/set-predicate kinds: NL territory
  }
  std::vector<const Expr*> residual;
  std::vector<std::pair<size_t, size_t>> keys =
      ExtractEquiKeys(ctx.outer, ctx.inner, ctx.join_preds, &residual);
  if (keys.empty()) return Status::OK();
  // Output rows are estimated from every join predicate, equi keys too.
  PlanProps props = gen.cost().HashJoinProps(
      ctx.outer->props, ctx.inner->props,
      JoinCard(gen, ctx, ctx.inner->props.cardinality));
  if (Dominated(gen, ctx, props)) return Status::OK();
  auto join = NewJoin(Lolepop::kHashJoin, ctx, ctx.outer, ctx.inner,
                      std::move(props));
  join->equi_keys = std::move(keys);
  join->predicates = std::move(residual);
  gen.CountPlan();
  out->push_back(std::move(join));
  return Status::OK();
}

Status MergeJoinStar(PlanGenerator& gen, const StarContext& ctx,
                     std::vector<PlanPtr>* out) {
  if (ctx.inner_dependent) return Status::OK();
  // See HashJoinStar: quantified compares are NL-only.
  if (ctx.quant_compare != nullptr) return Status::OK();
  switch (ctx.kind) {
    case JoinKind::kRegular:
    case JoinKind::kExists:
    case JoinKind::kLeftOuter:
      break;
    default:
      return Status::OK();
  }
  std::vector<const Expr*> residual;
  std::vector<std::pair<size_t, size_t>> keys =
      ExtractEquiKeys(ctx.outer, ctx.inner, ctx.join_preds, &residual);
  if (keys.empty()) return Status::OK();

  // "The merge join requires its input table streams to be ordered by the
  // join columns. Required properties are achieved by additional glue
  // STARS that find the cheapest plan satisfying the requirements."
  std::vector<std::pair<size_t, bool>> outer_order, inner_order;
  for (const auto& [o, i] : keys) {
    outer_order.push_back({o, true});
    inner_order.push_back({i, true});
  }
  // Priced before the glue is expanded. Glue never makes a stream cheaper,
  // so the unglued inputs' costs bound the cost from below. The output
  // order is exact for the built-in Glue STARs: the outer's own order if
  // it already has the key order, else the key order their SORT gives it.
  double card = JoinCard(gen, ctx, ctx.inner->props.cardinality);
  PlanProps lower =
      gen.cost().MergeJoinProps(ctx.outer->props, ctx.inner->props, card);
  if (!OrderSatisfies(lower.order, outer_order)) lower.order = outer_order;
  if (Dominated(gen, ctx, lower)) return Status::OK();

  StarContext outer_glue;
  outer_glue.glue_input = ctx.outer;
  outer_glue.required_order = std::move(outer_order);
  outer_glue.required_site = ctx.outer->props.site;
  STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> outers,
                             gen.Expand("Glue", outer_glue));
  StarContext inner_glue;
  inner_glue.glue_input = ctx.inner;
  inner_glue.required_order = std::move(inner_order);
  inner_glue.required_site = ctx.inner->props.site;
  STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> inners,
                             gen.Expand("Glue", inner_glue));
  if (outers.empty() || inners.empty()) return Status::OK();
  auto cheapest = [](const std::vector<PlanPtr>& plans) {
    PlanPtr best = plans[0];
    for (const PlanPtr& p : plans) {
      if (p->props.cost < best->props.cost) best = p;
    }
    return best;
  };
  PlanPtr outer = cheapest(outers);
  PlanPtr inner = cheapest(inners);
  PlanProps props = gen.cost().MergeJoinProps(outer->props, inner->props, card);
  auto join = NewJoin(Lolepop::kMergeJoin, ctx, std::move(outer),
                      std::move(inner), std::move(props));
  join->equi_keys = std::move(keys);
  join->predicates = std::move(residual);
  gen.CountPlan();
  out->push_back(std::move(join));
  return Status::OK();
}

// -- Glue --------------------------------------------------------------------

Status GlueNoopStar(PlanGenerator& gen, const StarContext& ctx,
                    std::vector<PlanPtr>* out) {
  (void)gen;
  if (ctx.glue_input->props.site == ctx.required_site &&
      OrderSatisfies(ctx.glue_input->props.order, ctx.required_order)) {
    out->push_back(ctx.glue_input);
  }
  return Status::OK();
}

Status GlueShipStar(PlanGenerator& gen, const StarContext& ctx,
                    std::vector<PlanPtr>* out) {
  if (ctx.glue_input->props.site == ctx.required_site) return Status::OK();
  auto ship = NewPlan(Lolepop::kShip);
  ship->inputs = {ctx.glue_input};
  ship->output = ctx.glue_input->output;
  ship->from_site = ctx.glue_input->props.site;
  ship->to_site = ctx.required_site;
  gen.cost().FinishShip(ship.get());
  gen.CountPlan();
  // Recurse for the order requirement on the shipped stream.
  StarContext next = ctx;
  next.glue_input = ship;
  STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> rest,
                             gen.Expand("Glue", next));
  for (PlanPtr& p : rest) out->push_back(std::move(p));
  return Status::OK();
}

Status GlueSortStar(PlanGenerator& gen, const StarContext& ctx,
                    std::vector<PlanPtr>* out) {
  if (ctx.glue_input->props.site != ctx.required_site) return Status::OK();
  if (ctx.required_order.empty() ||
      OrderSatisfies(ctx.glue_input->props.order, ctx.required_order)) {
    return Status::OK();
  }
  auto sort = NewPlan(Lolepop::kSort);
  sort->inputs = {ctx.glue_input};
  sort->output = ctx.glue_input->output;
  sort->sort_keys = ctx.required_order;
  gen.cost().FinishSort(sort.get());
  gen.CountPlan();
  out->push_back(std::move(sort));
  return Status::OK();
}

// -- Distinct ------------------------------------------------------------------

Status DistinctHashStar(PlanGenerator& gen, const StarContext& ctx,
                        std::vector<PlanPtr>* out) {
  auto distinct = NewPlan(Lolepop::kDistinct);
  distinct->inputs = {ctx.glue_input};
  distinct->output = ctx.glue_input->output;
  gen.cost().FinishDistinct(distinct.get());
  gen.CountPlan();
  out->push_back(std::move(distinct));
  return Status::OK();
}

}  // namespace

void RegisterDefaultStars(StarRegistry* registry) {
  (void)registry->Add(Star{"seqscan", "TableAccess", 0, SeqScanStar});
  (void)registry->Add(Star{"indexscan", "TableAccess", 0, IndexScanStar});
  (void)registry->Add(Star{"nljoin", "JoinMethod", 0, NlJoinStar});
  (void)registry->Add(Star{"nljoin_temp", "JoinMethod", 0, NlJoinTempStar});
  (void)registry->Add(Star{"hashjoin", "JoinMethod", 0, HashJoinStar});
  (void)registry->Add(Star{"mergejoin", "JoinMethod", 1, MergeJoinStar});
  (void)registry->Add(Star{"glue_noop", "Glue", 0, GlueNoopStar});
  (void)registry->Add(Star{"glue_ship", "Glue", 0, GlueShipStar});
  (void)registry->Add(Star{"glue_sort", "Glue", 0, GlueSortStar});
  (void)registry->Add(Star{"distinct_hash", "Distinct", 0, DistinctHashStar});
}

}  // namespace starburst::optimizer
