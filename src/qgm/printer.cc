#include "qgm/printer.h"

#include <sstream>

namespace starburst::qgm {

namespace {

void PrintBoxTo(const Box& box, std::ostringstream& out) {
  out << box.Label();
  if (box.distinct_enforced) out << " [DISTINCT]";
  out << "\n";

  // Head.
  out << "  head: (";
  for (size_t i = 0; i < box.head.size(); ++i) {
    if (i > 0) out << ", ";
    out << box.head[i].name;
    if (box.head[i].expr != nullptr) {
      std::string defining = box.head[i].expr->ToString();
      if (defining != box.head[i].name) out << " := " << defining;
    }
  }
  out << ")\n";

  switch (box.kind) {
    case BoxKind::kBaseTable:
      out << "  stored table";
      if (box.table != nullptr) {
        out << " via storage manager " << box.table->storage_manager;
      }
      out << "\n";
      break;
    case BoxKind::kValues:
      out << "  " << box.rows.size() << " row(s)\n";
      break;
    default:
      break;
  }

  for (const auto& q : box.quantifiers) {
    out << "  " << q->DisplayName() << ": " << QuantifierTypeGlyph(q->type);
    if (q->type == QuantifierType::kSetPredicate) {
      out << "<" << q->set_function << ">";
    }
    out << " over " << (q->input != nullptr ? q->input->Label() : "?") << "\n";
  }

  for (size_t i = 0; i < box.group_keys.size(); ++i) {
    out << "  group key: " << box.group_keys[i]->ToString() << "\n";
  }
  for (size_t i = 0; i < box.aggregates.size(); ++i) {
    const AggregateSpec& a = box.aggregates[i];
    out << "  agg#" << i << ": " << a.name << "(";
    if (a.distinct) out << "DISTINCT ";
    out << (a.arg != nullptr ? a.arg->ToString() : "*") << ")\n";
  }
  for (const auto& p : box.predicates) {
    out << "  pred: " << p->ToString() << "\n";
  }
}

}  // namespace

std::string PrintBox(const Box& box) {
  std::ostringstream out;
  PrintBoxTo(box, out);
  return out.str();
}

std::string PrintGraph(const Graph& graph) {
  std::ostringstream out;
  std::vector<Box*> order = graph.BottomUpOrder();
  // Top-down reads like the paper's figures: root box first.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    PrintBoxTo(**it, out);
  }
  if (!graph.order_by.empty()) {
    out << "ORDER BY:";
    for (const Graph::OrderKey& k : graph.order_by) {
      out << " " << graph.root()->head[k.head_column].name
          << (k.ascending ? " ASC" : " DESC");
    }
    out << "\n";
  }
  if (graph.limit >= 0) out << "LIMIT " << graph.limit << "\n";
  return out.str();
}

}  // namespace starburst::qgm
