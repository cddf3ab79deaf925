#include <algorithm>
#include <functional>
#include <set>

#include "catalog/catalog.h"
#include "qgm/box.h"

namespace starburst::qgm {

Box* Graph::NewBox(BoxKind kind) {
  auto box = std::make_unique<Box>();
  box->id = next_box_id_++;
  box->kind = kind;
  boxes_.push_back(std::move(box));
  return boxes_.back().get();
}

std::unique_ptr<Quantifier> Graph::NewQuantifier(QuantifierType type,
                                                 Box* input) {
  auto q = std::make_unique<Quantifier>();
  q->id = next_quantifier_id_++;
  q->type = type;
  q->input = input;
  return q;
}

namespace {

void Visit(Box* box, std::set<Box*>* seen, std::vector<Box*>* order) {
  if (box == nullptr || seen->count(box)) return;
  seen->insert(box);
  for (const auto& q : box->quantifiers) {
    // Recursion back-edges go through kIterationRef, which has no
    // quantifiers, so plain DFS terminates.
    Visit(q->input, seen, order);
  }
  order->push_back(box);
}

}  // namespace

std::vector<Box*> Graph::BottomUpOrder() const {
  std::set<Box*> seen;
  std::vector<Box*> order;
  Visit(root_, &seen, &order);
  return order;
}

void Graph::GarbageCollect() {
  std::set<Box*> seen;
  std::vector<Box*> order;
  Visit(root_, &seen, &order);
  // Iteration refs keep their recursion box alive implicitly.
  for (Box* b : order) {
    if (b->kind == BoxKind::kIterationRef && b->recursion != nullptr) {
      seen.insert(b->recursion);
    }
  }
  boxes_.erase(std::remove_if(boxes_.begin(), boxes_.end(),
                              [&](const std::unique_ptr<Box>& b) {
                                return seen.count(b.get()) == 0;
                              }),
               boxes_.end());
}

namespace {

/// Walks `e` bottom-up applying `fn` to every node; first error wins.
Status ForEachExpr(const Expr* e, const std::function<Status(const Expr&)>& fn) {
  if (e == nullptr) return Status::OK();
  for (const ExprPtr& child : e->children) {
    STARBURST_RETURN_IF_ERROR(ForEachExpr(child.get(), fn));
  }
  return fn(*e);
}

}  // namespace

Status Graph::Validate() const {
  if (root_ == nullptr) return Status::Internal("QGM: no root box");
  // Arc consistency: range edges may only target boxes the graph owns
  // (a dangling input box means a rule freed or forgot to re-point it).
  std::set<const Box*> members;
  for (const auto& b : boxes_) members.insert(b.get());
  if (members.count(root_) == 0) {
    return Status::Internal("QGM: root box is not owned by the graph");
  }
  for (Box* box : BottomUpOrder()) {
    // Heads must be typed, and derived heads must have expressions.
    for (const HeadColumn& h : box->head) {
      bool leaf = box->kind == BoxKind::kBaseTable ||
                  box->kind == BoxKind::kValues ||
                  box->kind == BoxKind::kIterationRef ||
                  box->kind == BoxKind::kSetOp ||
                  box->kind == BoxKind::kTableFunction ||
                  box->kind == BoxKind::kChoose ||
                  box->kind == BoxKind::kRecursiveUnion;
      if (!leaf && h.expr == nullptr) {
        return Status::Internal("QGM: box " + box->Label() + " head column '" +
                                h.name + "' has no defining expression");
      }
    }
    // Head arity of leaf and set-operation boxes.
    if (box->kind == BoxKind::kBaseTable && box->table != nullptr &&
        box->head.size() != box->table->schema.num_columns() +
                                (box->rid_column ? 1 : 0)) {
      return Status::Internal("QGM: base table box " + box->Label() +
                              " head arity does not match the schema");
    }
    if (box->kind == BoxKind::kSetOp) {
      for (const auto& q : box->quantifiers) {
        if (q->input != nullptr && q->input->head.size() != box->head.size()) {
          return Status::Internal("QGM: set operation " + box->Label() +
                                  " input arity mismatch");
        }
      }
    }
    // Quantifier sanity.
    for (const auto& q : box->quantifiers) {
      if (q->owner != box) {
        return Status::Internal("QGM: quantifier Q" + std::to_string(q->id) +
                                " owner mismatch in " + box->Label());
      }
      if (q->input == nullptr) {
        return Status::Internal("QGM: quantifier Q" + std::to_string(q->id) +
                                " has no range edge");
      }
      if (members.count(q->input) == 0) {
        return Status::Internal("QGM: quantifier Q" + std::to_string(q->id) +
                                " in " + box->Label() +
                                " ranges over a box the graph does not own");
      }
    }
    // Every expression must reference only this box's quantifiers — or,
    // for correlation (Figure 2's Q1–Q3 qualifier edge), quantifiers of an
    // ancestor box from which this box is reachable through range edges.
    auto reachable_from = [&](Box* from, Box* target) {
      std::set<Box*> s;
      std::vector<Box*> o;
      Visit(from, &s, &o);
      return s.count(target) > 0;
    };
    auto check_expr = [&](const Expr* e) -> Status {
      if (e == nullptr) return Status::OK();
      std::set<Quantifier*> used;
      e->CollectQuantifiers(&used);
      for (Quantifier* q : used) {
        // Dangling detection: the owner must still list the quantifier
        // (a rule that erased it must also rewrite referencing exprs).
        // RemoveQuantifier nulls the owner, so that is dangling too.
        bool listed = false;
        if (q->owner != nullptr) {
          for (const auto& owned : q->owner->quantifiers) {
            if (owned.get() == q) {
              listed = true;
              break;
            }
          }
        }
        if (!listed) {
          return Status::Internal(
              "QGM: expression '" + e->ToString() + "' in " + box->Label() +
              " references dangling quantifier Q" + std::to_string(q->id));
        }
        if (q->owner != box && !reachable_from(q->owner, box)) {
          return Status::Internal(
              "QGM: expression '" + e->ToString() + "' in " + box->Label() +
              " references foreign quantifier Q" + std::to_string(q->id));
        }
      }
      // Column references must fit the ranged-over box's head arity.
      return ForEachExpr(e, [&](const Expr& node) -> Status {
        if (node.kind == Expr::Kind::kColumnRef && node.quantifier != nullptr &&
            node.quantifier->input != nullptr &&
            node.column >= node.quantifier->input->head.size()) {
          return Status::Internal(
              "QGM: column reference '" + node.ToString() + "' in " +
              box->Label() + " exceeds the head arity of its input box");
        }
        return Status::OK();
      });
    };
    for (const auto& p : box->predicates) {
      STARBURST_RETURN_IF_ERROR(check_expr(p.get()));
    }
    for (const auto& h : box->head) {
      STARBURST_RETURN_IF_ERROR(check_expr(h.expr.get()));
    }
    for (const auto& g : box->group_keys) {
      STARBURST_RETURN_IF_ERROR(check_expr(g.get()));
    }
    for (const auto& a : box->aggregates) {
      STARBURST_RETURN_IF_ERROR(check_expr(a.arg.get()));
    }
  }
  for (const OrderKey& k : order_by) {
    if (k.head_column >= root_->head.size()) {
      return Status::Internal("QGM: ORDER BY column out of range");
    }
  }
  return Status::OK();
}

}  // namespace starburst::qgm
