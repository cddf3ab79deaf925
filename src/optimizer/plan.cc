#include "optimizer/plan.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace starburst::optimizer {

const char* LolepopName(Lolepop op) {
  switch (op) {
    case Lolepop::kScan: return "SCAN";
    case Lolepop::kIndexScan: return "ISCAN";
    case Lolepop::kValues: return "VALUES";
    case Lolepop::kFilter: return "FILTER";
    case Lolepop::kProject: return "PROJECT";
    case Lolepop::kSort: return "SORT";
    case Lolepop::kNlJoin: return "NLJOIN";
    case Lolepop::kMergeJoin: return "MGJOIN";
    case Lolepop::kHashJoin: return "HSJOIN";
    case Lolepop::kTemp: return "TEMP";
    case Lolepop::kShip: return "SHIP";
    case Lolepop::kGroupAgg: return "GROUP";
    case Lolepop::kSetOp: return "SETOP";
    case Lolepop::kDistinct: return "DISTINCT";
    case Lolepop::kTableFunc: return "TABLEFUNC";
    case Lolepop::kRecurse: return "RECURSE";
    case Lolepop::kIterRef: return "ITERREF";
    case Lolepop::kOrRoute: return "OR";
    case Lolepop::kExtension: return "EXT";
  }
  return "?";
}

const char* JoinKindName(JoinKind k) {
  switch (k) {
    case JoinKind::kRegular: return "regular";
    case JoinKind::kLeftOuter: return "left-outer";
    case JoinKind::kExists: return "exists";
    case JoinKind::kAnti: return "anti";
    case JoinKind::kScalar: return "scalar-subquery";
    case JoinKind::kOpAll: return "op-ALL";
    case JoinKind::kSetPred: return "set-predicate";
  }
  return "?";
}

size_t Plan::FindSlot(const qgm::Quantifier* q, size_t column) const {
  for (size_t i = 0; i < output.size(); ++i) {
    if (output[i].quantifier == q && output[i].column == column) return i;
  }
  return kNoSlot;
}

std::string Plan::HeadLine() const {
  std::ostringstream out;
  out << LolepopName(op);
  switch (op) {
    case Lolepop::kScan:
      if (table != nullptr) out << " " << table->name;
      if (!scan_columns.empty()) out << " cols=" << scan_columns.size();
      break;
    case Lolepop::kIndexScan:
      if (index != nullptr) out << " " << index->name;
      if (table != nullptr) out << " on " << table->name;
      break;
    case Lolepop::kNlJoin:
    case Lolepop::kMergeJoin:
    case Lolepop::kHashJoin:
      out << " kind=" << JoinKindName(join_kind);
      if (!join_set_function.empty()) out << "<" << join_set_function << ">";
      break;
    case Lolepop::kShip:
      out << " " << from_site << "->" << to_site;
      break;
    case Lolepop::kExtension:
      out << " " << ext_name;
      if (index != nullptr) out << " " << index->name;
      break;
    case Lolepop::kSort: {
      out << " by(";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) out << ",";
        out << sort_keys[i].first << (sort_keys[i].second ? "+" : "-");
      }
      out << ")";
      break;
    }
    case Lolepop::kProject:
    case Lolepop::kGroupAgg:
    case Lolepop::kSetOp:
    case Lolepop::kTableFunc:
    case Lolepop::kRecurse:
    case Lolepop::kIterRef:
      if (box != nullptr) out << " " << box->Label();
      break;
    default:
      break;
  }
  for (const qgm::Expr* p : predicates) {
    out << " [" << p->ToString() << "]";
  }
  return out.str();
}

std::string Plan::ToString(int indent) const {
  std::ostringstream out;
  out << std::string(indent * 2, ' ') << HeadLine();
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  {card=%.6g cost=%.6g}",
                props.cardinality, props.cost);
  out << buf << "\n";
  for (const PlanPtr& input : inputs) {
    out << input->ToString(indent + 1);
  }
  return out.str();
}

std::shared_ptr<Plan> NewPlan(Lolepop op) {
  auto p = std::make_shared<Plan>();
  p->op = op;
  return p;
}

bool OrderSatisfies(const std::vector<std::pair<size_t, bool>>& have,
                    const std::vector<std::pair<size_t, bool>>& need) {
  return need.size() <= have.size() &&
         std::equal(need.begin(), need.end(), have.begin());
}

bool Dominates(const PlanProps& a, const PlanProps& b) {
  return a.cost <= b.cost && OrderSatisfies(a.order, b.order);
}

bool AnyDominates(const std::vector<PlanPtr>& plans, const PlanProps& props) {
  for (const PlanPtr& p : plans) {
    if (Dominates(p->props, props)) return true;
  }
  return false;
}

namespace {

void CollectScanQuantifiers(const Plan& plan,
                            std::set<const qgm::Quantifier*>* out) {
  if (plan.op == Lolepop::kScan && plan.quantifier != nullptr) {
    out->insert(plan.quantifier);
  }
  for (const PlanPtr& input : plan.inputs) {
    CollectScanQuantifiers(*input, out);
  }
}

bool ExprSafe(const qgm::Expr& e,
              const std::set<const qgm::Quantifier*>& allowed) {
  switch (e.kind) {
    case qgm::Expr::Kind::kExistsTest:
    case qgm::Expr::Kind::kQuantCompare:
      return false;  // subquery runtimes are stateful and correlated
    case qgm::Expr::Kind::kColumnRef:
      return allowed.count(e.quantifier) > 0;
    default:
      break;
  }
  for (const qgm::ExprPtr& child : e.children) {
    if (child != nullptr && !ExprSafe(*child, allowed)) return false;
  }
  return true;
}

bool NodeSafe(const Plan& plan,
              const std::set<const qgm::Quantifier*>& allowed) {
  for (const qgm::Expr* p : plan.predicates) {
    if (p != nullptr && !ExprSafe(*p, allowed)) return false;
  }
  switch (plan.op) {
    case Lolepop::kScan:
      return plan.table != nullptr && plan.quantifier != nullptr;
    case Lolepop::kFilter:
      break;
    case Lolepop::kProject:
      // A computing projection evaluates the box head; relabel nodes
      // (quantifier set / positional aliases) touch nothing.
      if (plan.quantifier == nullptr && plan.box != nullptr) {
        for (const qgm::HeadColumn& h : plan.box->head) {
          if (h.expr != nullptr && !ExprSafe(*h.expr, allowed)) return false;
        }
      }
      break;
    case Lolepop::kHashJoin:
      if (plan.quant_compare != nullptr) return false;
      switch (plan.join_kind) {
        case JoinKind::kRegular:
        case JoinKind::kLeftOuter:
        case JoinKind::kExists:
        case JoinKind::kAnti:
          break;
        default:
          return false;
      }
      break;
    default:
      return false;
  }
  for (const PlanPtr& input : plan.inputs) {
    if (!NodeSafe(*input, allowed)) return false;
  }
  return true;
}

}  // namespace

bool IsParallelSafe(const Plan& plan) {
  std::set<const qgm::Quantifier*> scans;
  CollectScanQuantifiers(plan, &scans);
  if (scans.empty()) return false;  // nothing to morselize
  return NodeSafe(plan, scans);
}

bool ExprIsParallelSafeOver(const qgm::Expr& expr, const Plan& input) {
  std::set<const qgm::Quantifier*> scans;
  CollectScanQuantifiers(input, &scans);
  return ExprSafe(expr, scans);
}

double ParallelScanRows(const Plan& plan) {
  double rows = 0;
  if (plan.op == Lolepop::kScan && plan.table != nullptr) {
    rows += plan.table->stats.row_count;
  }
  for (const PlanPtr& input : plan.inputs) {
    rows += ParallelScanRows(*input);
  }
  return rows;
}

}  // namespace starburst::optimizer
