#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace starburst::optimizer {

using qgm::Expr;

namespace {

/// Traces a column expression through SELECT-box heads down to a stored
/// column; returns (table, column name) or nulls.
std::pair<const TableDef*, std::string> ResolveBaseColumn(const Expr& e) {
  const Expr* cur = &e;
  for (int depth = 0; depth < 16; ++depth) {
    if (cur->kind != Expr::Kind::kColumnRef || cur->quantifier == nullptr) {
      return {nullptr, ""};
    }
    const qgm::Box* input = cur->quantifier->input;
    if (input == nullptr) return {nullptr, ""};
    if (input->kind == qgm::BoxKind::kBaseTable) {
      if (cur->column >= input->head.size()) return {nullptr, ""};
      return {input->table, input->head[cur->column].name};
    }
    if (cur->column >= input->head.size() ||
        input->head[cur->column].expr == nullptr) {
      return {nullptr, ""};
    }
    cur = input->head[cur->column].expr.get();
  }
  return {nullptr, ""};
}

double LiteralAsDouble(const Expr& e, bool* ok) {
  *ok = false;
  if (e.kind != Expr::Kind::kLiteral) return 0;
  Result<double> d = e.literal.AsDouble();
  if (!d.ok()) return 0;
  *ok = true;
  return *d;
}

}  // namespace

double CostModel::TableRows(const TableDef* table) const {
  if (table == nullptr || table->stats.row_count <= 0) {
    return params_.default_table_rows;
  }
  return table->stats.row_count;
}

double CostModel::TablePages(const TableDef* table) const {
  if (table == nullptr || table->stats.page_count <= 0) {
    return std::max(1.0, TableRows(table) / 64.0);
  }
  return table->stats.page_count;
}

double CostModel::ColumnNdv(const Expr& e) const {
  auto [table, column] = ResolveBaseColumn(e);
  if (table == nullptr) return 0;
  const ColumnStats* stats = table->stats.FindColumn(column);
  if (stats == nullptr || stats->distinct_count <= 0) return 0;
  return stats->distinct_count;
}

double CostModel::Selectivity(const Expr& pred) const {
  switch (pred.kind) {
    case Expr::Kind::kBinary: {
      // col = literal: 1/NDV; col = col: 1/max(NDV, NDV).
      auto equality_selectivity = [&]() {
        double ndv_l = ColumnNdv(*pred.children[0]);
        double ndv_r = ColumnNdv(*pred.children[1]);
        if (pred.children[1]->kind == Expr::Kind::kLiteral && ndv_l > 0) {
          return 1.0 / ndv_l;
        }
        if (pred.children[0]->kind == Expr::Kind::kLiteral && ndv_r > 0) {
          return 1.0 / ndv_r;
        }
        double ndv = std::max(ndv_l, ndv_r);
        if (ndv > 0) return 1.0 / ndv;
        return params_.default_eq_selectivity;
      };
      switch (pred.bop) {
        case ast::BinaryOp::kEq:
          return equality_selectivity();
        case ast::BinaryOp::kNe:
          return std::clamp(1.0 - equality_selectivity(), 0.001, 1.0);
        case ast::BinaryOp::kLt:
        case ast::BinaryOp::kLe:
        case ast::BinaryOp::kGt:
        case ast::BinaryOp::kGe: {
          // Interpolate against min/max when the comparison is col vs lit.
          const Expr* col = pred.children[0].get();
          const Expr* lit = pred.children[1].get();
          bool flipped = false;
          if (col->kind == Expr::Kind::kLiteral) {
            std::swap(col, lit);
            flipped = true;
          }
          auto [table, name] = ResolveBaseColumn(*col);
          bool ok = false;
          double v = LiteralAsDouble(*lit, &ok);
          if (table != nullptr && ok) {
            const ColumnStats* stats = table->stats.FindColumn(name);
            if (stats != nullptr && stats->min_value && stats->max_value) {
              Result<double> lo = stats->min_value->AsDouble();
              Result<double> hi = stats->max_value->AsDouble();
              if (lo.ok() && hi.ok() && *hi > *lo) {
                double frac = (v - *lo) / (*hi - *lo);
                frac = std::clamp(frac, 0.0, 1.0);
                bool less = pred.bop == ast::BinaryOp::kLt ||
                            pred.bop == ast::BinaryOp::kLe;
                if (flipped) less = !less;
                return std::clamp(less ? frac : 1.0 - frac, 0.001, 1.0);
              }
            }
          }
          return params_.default_range_selectivity;
        }
        case ast::BinaryOp::kAnd:
          return Selectivity(*pred.children[0]) * Selectivity(*pred.children[1]);
        case ast::BinaryOp::kOr: {
          double a = Selectivity(*pred.children[0]);
          double b = Selectivity(*pred.children[1]);
          return std::min(1.0, a + b - a * b);
        }
        default:
          return 1.0;  // arithmetic inside predicates: no restriction
      }
    }
    case Expr::Kind::kUnary:
      if (pred.uop == ast::UnaryOp::kNot) {
        return std::clamp(1.0 - Selectivity(*pred.children[0]), 0.001, 1.0);
      }
      return 1.0;
    case Expr::Kind::kIsNull: {
      auto [table, name] = ResolveBaseColumn(*pred.children[0]);
      double frac = 0.05;
      if (table != nullptr) {
        const ColumnStats* stats = table->stats.FindColumn(name);
        if (stats != nullptr) frac = std::max(stats->null_fraction, 0.001);
      }
      return pred.negated ? 1.0 - frac : frac;
    }
    case Expr::Kind::kLike:
      return 0.25;
    case Expr::Kind::kInList: {
      double ndv = ColumnNdv(*pred.children[0]);
      double n = static_cast<double>(pred.children.size() - 1);
      if (ndv > 0) return std::min(1.0, n / ndv);
      return std::min(1.0, n * params_.default_eq_selectivity);
    }
    case Expr::Kind::kExistsTest:
      return pred.negated ? 0.5 : 0.5;
    case Expr::Kind::kQuantCompare:
      return 0.25;
    default:
      return 0.5;
  }
}

double CostModel::CombinedSelectivity(
    const std::vector<const Expr*>& preds) const {
  double s = 1.0;
  for (const Expr* p : preds) s *= Selectivity(*p);
  return std::max(s, 1e-9);
}

double CostModel::GroupCount(const std::vector<qgm::ExprPtr>& keys,
                             double input_rows) const {
  if (keys.empty()) return 1.0;
  double product = 1.0;
  bool known = false;
  for (const auto& k : keys) {
    double ndv = ColumnNdv(*k);
    if (ndv > 0) {
      product *= ndv;
      known = true;
    }
  }
  if (!known) return std::max(1.0, input_rows / 10.0);
  return std::max(1.0, std::min(product, input_rows));
}

double CostModel::JoinCardinality(JoinKind kind, double outer_rows,
                                  double inner_rows,
                                  double join_selectivity) const {
  switch (kind) {
    case JoinKind::kExists:
    case JoinKind::kAnti:
    case JoinKind::kOpAll:
    case JoinKind::kSetPred:
      return outer_rows * 0.5;
    case JoinKind::kScalar:
      return outer_rows;
    case JoinKind::kLeftOuter:
      // Every outer row survives.
      return std::max(outer_rows * inner_rows * join_selectivity, outer_rows);
    case JoinKind::kRegular:
    default:
      return std::max(outer_rows * inner_rows * join_selectivity, 0.0);
  }
}

double CostModel::JoinOutputCard(const Plan& p) const {
  return JoinCardinality(p.join_kind, p.inputs[0]->props.cardinality,
                         p.inputs[1]->props.cardinality,
                         CombinedSelectivity(p.predicates));
}

void CostModel::FinishScan(Plan* p) const {
  double rows = TableRows(p->table);
  double pages = TablePages(p->table);
  double sel = CombinedSelectivity(p->predicates);
  p->props.cardinality = std::max(rows * sel, 0.0);
  p->props.cost = pages * params_.io_page +
                  rows * (params_.cpu_tuple +
                          params_.cpu_pred * p->predicates.size());
  p->props.rescan_cost = p->props.cost;
  p->props.order.clear();
  if (p->table != nullptr) p->props.site = p->table->site;
}

void CostModel::FinishIndexScan(Plan* p) const {
  double rows = TableRows(p->table);
  double index_sel = p->index_predicate != nullptr
                         ? Selectivity(*p->index_predicate)
                         : 1.0;
  double matched = rows * index_sel;
  double residual_sel = CombinedSelectivity(p->predicates);
  p->props.cardinality = std::max(matched * residual_sel, 0.0);
  double levels = std::max(1.0, std::log2(std::max(rows, 2.0)) / 6.0);
  p->props.cost = levels * params_.index_level +
                  matched * (params_.rid_fetch + params_.cpu_tuple +
                             params_.cpu_pred * p->predicates.size());
  p->props.rescan_cost = p->props.cost;
  // A single-column ascending order on the index's first key column.
  p->props.order.clear();
  if (p->table != nullptr) p->props.site = p->table->site;
  if (p->index != nullptr && !p->index->key_columns.empty() &&
      p->table != nullptr) {
    std::optional<size_t> col =
        p->table->schema.FindColumn(p->index->key_columns[0]);
    if (col.has_value()) {
      size_t slot = p->FindSlot(p->quantifier, *col);
      if (slot != Plan::kNoSlot) p->props.order.push_back({slot, true});
    }
  }
}

void CostModel::FinishValues(Plan* p, size_t rows) const {
  p->props.cardinality = static_cast<double>(rows);
  p->props.cost = rows * params_.cpu_tuple;
  p->props.rescan_cost = p->props.cost;
}

void CostModel::FinishFilter(Plan* p) const {
  const PlanProps& in = p->inputs[0]->props;
  double sel = CombinedSelectivity(p->predicates);
  bool has_subquery = false;
  for (const Expr* e : p->predicates) {
    std::set<qgm::Quantifier*> qs;
    e->CollectQuantifiers(&qs);
    for (qgm::Quantifier* q : qs) {
      if (!q->ContributesTuples()) has_subquery = true;
    }
  }
  double per_row = params_.cpu_pred * p->predicates.size() *
                   (has_subquery ? params_.subquery_pred_factor : 1.0);
  p->props.cardinality = in.cardinality * sel;
  p->props.cost = in.cost + in.cardinality * per_row;
  p->props.rescan_cost = in.rescan_cost + in.cardinality * per_row;
  p->props.order = in.order;  // filter preserves order
  p->props.site = in.site;
}

void CostModel::FinishProject(Plan* p) const {
  const PlanProps& in = p->inputs[0]->props;
  p->props.cardinality = in.cardinality;
  p->props.cost = in.cost + in.cardinality * params_.cpu_tuple;
  p->props.rescan_cost = in.rescan_cost + in.cardinality * params_.cpu_tuple;
  p->props.site = in.site;
  // Projection scrambles slot numbering; order is conservatively dropped.
}

void CostModel::FinishSort(Plan* p) const {
  const PlanProps& in = p->inputs[0]->props;
  double n = std::max(in.cardinality, 2.0);
  double sort_cost = params_.cpu_sort * n * std::log2(n);
  p->props.cardinality = in.cardinality;
  p->props.cost = in.cost + sort_cost;
  // A sorted result is materialized: rescans are cheap.
  p->props.rescan_cost = in.cardinality * params_.cpu_tuple;
  p->props.order = p->sort_keys;
  p->props.site = in.site;
}

void CostModel::FinishNlJoin(Plan* p) const {
  p->props = NlJoinProps(p->inputs[0]->props, p->inputs[1]->props,
                         JoinOutputCard(*p), p->predicates.size());
}

void CostModel::FinishMergeJoin(Plan* p) const {
  p->props = MergeJoinProps(p->inputs[0]->props, p->inputs[1]->props,
                            JoinOutputCard(*p));
}

void CostModel::FinishHashJoin(Plan* p) const {
  p->props = HashJoinProps(p->inputs[0]->props, p->inputs[1]->props,
                           JoinOutputCard(*p));
}

void CostModel::FinishTemp(Plan* p) const {
  p->props = TempProps(p->inputs[0]->props);
}

void CostModel::FinishShip(Plan* p) const {
  const PlanProps& in = p->inputs[0]->props;
  p->props.cardinality = in.cardinality;
  p->props.cost = in.cost + params_.ship_latency +
                  in.cardinality * params_.ship_per_row;
  p->props.rescan_cost = p->props.cost;
  p->props.order = in.order;
  p->props.site = p->to_site;
}

void CostModel::FinishGroupAgg(Plan* p, double groups) const {
  const PlanProps& in = p->inputs[0]->props;
  p->props.cardinality = std::max(1.0, groups);
  p->props.cost = in.cost + in.cardinality * params_.cpu_hash +
                  groups * params_.cpu_tuple;
  p->props.rescan_cost = groups * params_.cpu_tuple;
  p->props.site = in.site;
}

void CostModel::FinishSetOp(Plan* p) const {
  const PlanProps& l = p->inputs[0]->props;
  const PlanProps& r = p->inputs[1]->props;
  double out;
  switch (p->box != nullptr ? p->box->setop : ast::SetOpKind::kUnion) {
    case ast::SetOpKind::kUnion: out = l.cardinality + r.cardinality; break;
    case ast::SetOpKind::kIntersect:
      out = std::min(l.cardinality, r.cardinality) * 0.5;
      break;
    case ast::SetOpKind::kExcept: out = l.cardinality * 0.5; break;
    default: out = l.cardinality + r.cardinality; break;
  }
  p->props.cardinality = std::max(1.0, out);
  p->props.cost = l.cost + r.cost +
                  (l.cardinality + r.cardinality) * params_.cpu_hash;
  p->props.rescan_cost = p->props.cardinality * params_.cpu_tuple;
  p->props.site = l.site;
}

void CostModel::FinishDistinct(Plan* p) const {
  const PlanProps& in = p->inputs[0]->props;
  p->props.cardinality = std::max(1.0, in.cardinality * 0.8);
  p->props.cost = in.cost + in.cardinality * params_.cpu_hash;
  p->props.rescan_cost = p->props.cardinality * params_.cpu_tuple;
  p->props.order = in.order;
  p->props.site = in.site;
}

void CostModel::FinishTableFunc(Plan* p) const {
  double in_cost = 0, in_card = 0;
  for (const PlanPtr& input : p->inputs) {
    in_cost += input->props.cost;
    in_card += input->props.cardinality;
  }
  p->props.cardinality = std::max(1.0, in_card);
  p->props.cost = in_cost + in_card * params_.cpu_tuple * 2;
  p->props.rescan_cost = p->props.cardinality * params_.cpu_tuple;
}

void CostModel::FinishRecurse(Plan* p) const {
  const PlanProps& base = p->inputs[0]->props;
  const PlanProps& step = p->inputs[1]->props;
  // Assume ~5 iterations as a default fixpoint depth.
  p->props.cardinality = std::max(1.0, base.cardinality * 5);
  p->props.cost = base.cost + 5 * step.cost +
                  p->props.cardinality * params_.cpu_hash;
  p->props.rescan_cost = p->props.cardinality * params_.cpu_tuple;
}

void CostModel::FinishIterRef(Plan* p, double working_rows) const {
  p->props.cardinality = std::max(1.0, working_rows);
  p->props.cost = p->props.cardinality * params_.cpu_tuple;
  p->props.rescan_cost = p->props.cost;
}

void CostModel::FinishOrRoute(Plan* p) const {
  const PlanProps& in = p->inputs[0]->props;
  p->props.cardinality = in.cardinality * 0.5;
  p->props.cost = in.cost + in.cardinality * params_.cpu_pred *
                                params_.subquery_pred_factor;
  p->props.rescan_cost = p->props.cost;
  p->props.site = in.site;
}

PlanProps CostModel::NlJoinProps(const PlanProps& outer, const PlanProps& inner,
                                 double card, size_t num_preds) const {
  PlanProps p;
  p.cardinality = card;
  double rescans = std::max(outer.cardinality, 1.0);
  p.cost = outer.cost + inner.cost + (rescans - 1) * inner.rescan_cost +
           outer.cardinality * inner.cardinality *
               (params_.cpu_pred * std::max<size_t>(num_preds, 1));
  p.rescan_cost = p.cost;
  p.order = outer.order;  // NL preserves outer order
  p.site = outer.site;
  return p;
}

PlanProps CostModel::MergeJoinProps(const PlanProps& outer,
                                    const PlanProps& inner,
                                    double card) const {
  PlanProps p;
  p.cardinality = card;
  p.cost = outer.cost + inner.cost +
           (outer.cardinality + inner.cardinality) * params_.cpu_tuple +
           card * params_.cpu_tuple;
  p.rescan_cost = p.cost;
  p.order = outer.order;  // merge preserves the (sorted) outer order
  p.site = outer.site;
  return p;
}

PlanProps CostModel::HashJoinProps(const PlanProps& outer,
                                   const PlanProps& inner, double card) const {
  PlanProps p;
  p.cardinality = card;
  p.cost = outer.cost + inner.cost +
           inner.cardinality * params_.cpu_hash +  // build
           outer.cardinality * params_.cpu_hash +  // probe
           card * params_.cpu_tuple;
  p.rescan_cost = p.cost;
  p.order = outer.order;  // streaming probe preserves outer order
  p.site = outer.site;
  return p;
}

PlanProps CostModel::TempProps(const PlanProps& in) const {
  PlanProps p;
  p.cardinality = in.cardinality;
  p.cost = in.cost + in.cardinality * params_.cpu_tuple;
  p.rescan_cost = in.cardinality * params_.cpu_tuple;
  p.order = in.order;
  p.site = in.site;
  return p;
}

}  // namespace starburst::optimizer
