#include <gtest/gtest.h>

#include "parser/parser.h"
#include "qgm/binder.h"
#include "qgm/printer.h"

namespace starburst {
namespace {

using qgm::Box;
using qgm::BoxKind;
using qgm::QuantifierType;

class QgmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableDef quotations;
    quotations.name = "quotations";
    quotations.schema = TableSchema({{"partno", DataType::Int(), false},
                                     {"price", DataType::Double(), true},
                                     {"order_qty", DataType::Int(), true}});
    TableDef inventory;
    inventory.name = "inventory";
    inventory.schema = TableSchema({{"partno", DataType::Int(), false},
                                    {"onhand_qty", DataType::Int(), true},
                                    {"type", DataType::String(), true}});
    inventory.unique_keys = {{0}};
    ASSERT_TRUE(catalog_.CreateTable(quotations).ok());
    ASSERT_TRUE(catalog_.CreateTable(inventory).ok());
    ASSERT_TRUE(catalog_
                    .CreateView({"cpu_view",
                                 {},
                                 "SELECT partno, onhand_qty FROM inventory "
                                 "WHERE type = 'CPU'"})
                    .ok());
  }

  Result<std::unique_ptr<qgm::Graph>> Bind(const std::string& sql) {
    auto parsed = Parser::ParseQueryText(sql);
    if (!parsed.ok()) return parsed.status();
    qgm::Binder binder(&catalog_);
    return binder.BindQuery(**parsed);
  }

  std::unique_ptr<qgm::Graph> MustBind(const std::string& sql) {
    Result<std::unique_ptr<qgm::Graph>> g = Bind(sql);
    EXPECT_TRUE(g.ok()) << sql << " -> " << g.status().ToString();
    if (!g.ok()) return nullptr;
    return g.TakeValue();
  }

  Catalog catalog_;
};

TEST_F(QgmTest, PaperQueryShape) {
  // Figure 2(a): two SELECT boxes, an E quantifier linking them, and a
  // correlated qualifier edge into the upper box's Q1.
  auto graph = MustBind(
      "SELECT partno, price, order_qty FROM quotations Q1 "
      "WHERE Q1.partno IN (SELECT partno FROM inventory Q3 "
      "WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')");
  ASSERT_NE(graph, nullptr);
  Box* root = graph->root();
  EXPECT_EQ(root->kind, BoxKind::kSelect);
  ASSERT_EQ(root->quantifiers.size(), 2u);
  EXPECT_EQ(root->quantifiers[0]->type, QuantifierType::kForEach);
  EXPECT_EQ(root->quantifiers[1]->type, QuantifierType::kExists);
  Box* sub = root->quantifiers[1]->input;
  EXPECT_EQ(sub->kind, BoxKind::kSelect);
  EXPECT_EQ(sub->predicates.size(), 2u);
  EXPECT_EQ(root->head.size(), 3u);
  EXPECT_TRUE(graph->Validate().ok());
}

TEST_F(QgmTest, ViewExpandsToSelectBox) {
  auto graph = MustBind("SELECT partno FROM cpu_view WHERE onhand_qty > 5");
  ASSERT_NE(graph, nullptr);
  Box* root = graph->root();
  ASSERT_EQ(root->quantifiers.size(), 1u);
  Box* view_box = root->quantifiers[0]->input;
  EXPECT_EQ(view_box->kind, BoxKind::kSelect);
  EXPECT_EQ(view_box->predicates.size(), 1u);  // type = 'CPU'
}

TEST_F(QgmTest, AggregationSandwich) {
  auto graph = MustBind(
      "SELECT type, COUNT(*), SUM(onhand_qty) FROM inventory "
      "GROUP BY type HAVING COUNT(*) > 1");
  ASSERT_NE(graph, nullptr);
  Box* upper = graph->root();
  EXPECT_EQ(upper->kind, BoxKind::kSelect);
  EXPECT_EQ(upper->predicates.size(), 1u);  // HAVING
  Box* gb = upper->quantifiers[0]->input;
  ASSERT_EQ(gb->kind, BoxKind::kGroupBy);
  EXPECT_EQ(gb->group_keys.size(), 1u);
  EXPECT_EQ(gb->aggregates.size(), 2u);
  Box* low = gb->quantifiers[0]->input;
  EXPECT_EQ(low->kind, BoxKind::kSelect);
}

TEST_F(QgmTest, AggregateDeduplication) {
  auto graph = MustBind(
      "SELECT SUM(onhand_qty), SUM(onhand_qty) + 1 FROM inventory");
  ASSERT_NE(graph, nullptr);
  Box* gb = graph->root()->quantifiers[0]->input;
  EXPECT_EQ(gb->aggregates.size(), 1u);  // shared, not recomputed
}

TEST_F(QgmTest, OuterJoinUsesPreservedForeach) {
  auto graph = MustBind(
      "SELECT q.partno FROM quotations q LEFT OUTER JOIN inventory i "
      "ON q.partno = i.partno");
  ASSERT_NE(graph, nullptr);
  Box* oj = graph->root()->quantifiers[0]->input;
  ASSERT_EQ(oj->quantifiers.size(), 2u);
  EXPECT_EQ(oj->quantifiers[0]->type, QuantifierType::kPreservedForEach);
  EXPECT_EQ(oj->quantifiers[1]->type, QuantifierType::kForEach);
  EXPECT_EQ(oj->predicates.size(), 1u);
}

TEST_F(QgmTest, NotInBindsAsUniversalQuantifier) {
  auto graph = MustBind(
      "SELECT partno FROM inventory WHERE partno NOT IN "
      "(SELECT partno FROM quotations)");
  Box* root = graph->root();
  ASSERT_EQ(root->quantifiers.size(), 2u);
  EXPECT_EQ(root->quantifiers[1]->type, QuantifierType::kAll);
  ASSERT_EQ(root->predicates.size(), 1u);
  EXPECT_EQ(root->predicates[0]->kind, qgm::Expr::Kind::kQuantCompare);
  EXPECT_EQ(root->predicates[0]->bop, ast::BinaryOp::kNe);
}

TEST_F(QgmTest, RecursionWiring) {
  auto graph = MustBind(
      "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r "
      "WHERE n < 3) SELECT n FROM r");
  Box* ru = graph->root()->quantifiers[0]->input;
  ASSERT_EQ(ru->kind, BoxKind::kRecursiveUnion);
  ASSERT_EQ(ru->quantifiers.size(), 2u);
  Box* step = ru->quantifiers[1]->input;
  Box* iter = step->quantifiers[0]->input;
  EXPECT_EQ(iter->kind, BoxKind::kIterationRef);
  EXPECT_EQ(iter->recursion, ru);
}

TEST_F(QgmTest, SemanticErrors) {
  EXPECT_FALSE(Bind("SELECT nosuch FROM inventory").ok());
  EXPECT_FALSE(Bind("SELECT partno FROM nosuch_table").ok());
  EXPECT_FALSE(Bind("SELECT partno FROM inventory, quotations").ok())
      << "ambiguous partno should be rejected";
  EXPECT_FALSE(Bind("SELECT type + 1 FROM inventory").ok());  // type error
  EXPECT_FALSE(Bind("SELECT type FROM inventory GROUP BY partno").ok());
  EXPECT_FALSE(Bind("SELECT SUM(type) FROM inventory").ok());
  EXPECT_FALSE(Bind("SELECT partno FROM inventory WHERE partno IN "
                    "(SELECT partno, type FROM inventory)").ok());
  EXPECT_FALSE(Bind("SELECT partno FROM inventory WHERE SUM(partno) > 1").ok());
  EXPECT_FALSE(
      Bind("SELECT partno FROM inventory UNION SELECT partno, type "
           "FROM inventory").ok());
}

TEST_F(QgmTest, ValidateCatchesForeignQuantifier) {
  auto graph = MustBind("SELECT partno FROM inventory");
  // Sabotage: make the head expression point at a quantifier in a box
  // that is neither this box nor an ancestor of it.
  qgm::Box* other = graph->NewBox(BoxKind::kSelect);
  qgm::Box* detached = graph->NewBox(BoxKind::kValues);
  auto q = graph->NewQuantifier(QuantifierType::kForEach, detached);
  qgm::Quantifier* foreign = other->AddQuantifier(std::move(q));
  graph->root()->head[0].expr = qgm::MakeColumnRef(foreign, 0, DataType::Int());
  EXPECT_FALSE(graph->Validate().ok());
}

TEST_F(QgmTest, PrinterRendersFigureTwoStyle) {
  auto graph = MustBind(
      "SELECT partno FROM inventory WHERE type = 'CPU'");
  std::string text = qgm::PrintGraph(*graph);
  EXPECT_NE(text.find("head:"), std::string::npos);
  EXPECT_NE(text.find("F over inventory"), std::string::npos);
  EXPECT_NE(text.find("pred:"), std::string::npos);
  EXPECT_NE(text.find("stored table via storage manager HEAP"),
            std::string::npos);
}

TEST_F(QgmTest, GarbageCollectDropsUnreachable) {
  auto graph = MustBind("SELECT partno FROM inventory");
  size_t before = graph->boxes().size();
  graph->NewBox(BoxKind::kSelect);  // orphan
  graph->GarbageCollect();
  EXPECT_EQ(graph->boxes().size(), before);
}

TEST_F(QgmTest, DuplicateFreeReasoning) {
  // inventory.partno is a unique key: projecting it keeps the output
  // duplicate-free; projecting type does not.
  auto g1 = MustBind("SELECT partno FROM inventory");
  EXPECT_TRUE(g1->root()->OutputIsDuplicateFree());
  auto g2 = MustBind("SELECT type FROM inventory");
  EXPECT_FALSE(g2->root()->OutputIsDuplicateFree());
  auto g3 = MustBind("SELECT DISTINCT type FROM inventory");
  EXPECT_TRUE(g3->root()->OutputIsDuplicateFree());
  auto g4 = MustBind("SELECT price FROM quotations");  // no key at all
  EXPECT_FALSE(g4->root()->OutputIsDuplicateFree());
}

TEST_F(QgmTest, ExprCloneIsDeep) {
  auto graph = MustBind("SELECT partno + 1 FROM inventory WHERE partno > 2");
  const qgm::ExprPtr& pred = graph->root()->predicates[0];
  qgm::ExprPtr clone = pred->Clone();
  EXPECT_EQ(clone->ToString(), pred->ToString());
  // Mutating the clone leaves the original untouched.
  clone->children[1]->literal = Value::Int(99);
  EXPECT_NE(clone->ToString(), pred->ToString());
}

TEST_F(QgmTest, ConjunctionSplitAndRebuild) {
  auto graph = MustBind(
      "SELECT partno FROM inventory WHERE partno > 1 AND onhand_qty < 5 "
      "AND type = 'CPU'");
  EXPECT_EQ(graph->root()->predicates.size(), 3u);
  // Rebuild a conjunction and re-split it.
  std::vector<qgm::ExprPtr> parts;
  for (auto& p : graph->root()->predicates) parts.push_back(p->Clone());
  qgm::ExprPtr all = qgm::ConjunctionOf(std::move(parts));
  std::vector<qgm::ExprPtr> again;
  qgm::SplitConjuncts(std::move(all), &again);
  EXPECT_EQ(again.size(), 3u);
}

TEST_F(QgmTest, RemapQuantifierWithColumnMap) {
  auto graph = MustBind("SELECT onhand_qty FROM inventory WHERE partno = 1");
  qgm::Box* root = graph->root();
  qgm::Quantifier* q = root->quantifiers[0].get();
  // Swap columns 0 and 1 in every reference.
  std::vector<size_t> map = {1, 0, 2};
  for (auto& p : root->predicates) p->RemapQuantifier(q, q, map);
  EXPECT_EQ(root->predicates[0]->ToString(), "(inventory.onhand_qty = 1)");
}

TEST_F(QgmTest, TableFunctionBindingErrors) {
  // Unknown table function.
  EXPECT_FALSE(Bind("SELECT x FROM NOSUCHFN(inventory, 3) t").ok());
}

TEST_F(QgmTest, UnknownSetPredicateRejected) {
  EXPECT_FALSE(Bind("SELECT partno FROM inventory WHERE partno = "
                    "PLURALITY (SELECT partno FROM quotations)").ok());
}

TEST_F(QgmTest, RecursiveArityMismatchRejected) {
  EXPECT_FALSE(Bind("WITH RECURSIVE r(a, b) AS (SELECT 1 UNION ALL "
                    "SELECT a + 1, 2 FROM r) SELECT a FROM r").ok());
}

TEST_F(QgmTest, PrinterShowsAggregatesAndSetOps) {
  auto g1 = MustBind("SELECT type, SUM(onhand_qty) FROM inventory GROUP BY type");
  std::string agg_text = qgm::PrintGraph(*g1);
  EXPECT_NE(agg_text.find("group key:"), std::string::npos);
  EXPECT_NE(agg_text.find("agg#0: SUM"), std::string::npos);

  auto g2 = MustBind("SELECT partno FROM inventory UNION ALL "
                     "SELECT partno FROM quotations");
  std::string setop_text = qgm::PrintGraph(*g2);
  EXPECT_NE(setop_text.find("UNION ALL"), std::string::npos);
}

TEST_F(QgmTest, DmlBindsToARidQuery) {
  // UPDATE binds as a query over the target: its root outputs the rid of
  // each qualifying row, then the new value of each assigned column.
  Parser parser("UPDATE inventory SET onhand_qty = onhand_qty + 1 "
                "WHERE type = 'CPU'");
  Result<ast::StatementPtr> stmt = parser.ParseStatement();
  ASSERT_TRUE(stmt.ok());
  qgm::Binder binder(&catalog_);
  qgm::Binder::DmlTarget target;
  Result<std::unique_ptr<qgm::Graph>> graph = binder.BindDml(**stmt, &target);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(target.table, *catalog_.GetTable("inventory"));
  ASSERT_EQ(target.columns.size(), 1u);
  EXPECT_EQ(target.columns[0], 1u);  // onhand_qty position

  const Box* root = (*graph)->root();
  ASSERT_EQ(root->kind, BoxKind::kSelect);
  ASSERT_EQ(root->head.size(), 2u);
  EXPECT_EQ(root->head[0].name, qgm::kRidColumnName);
  EXPECT_EQ(root->head[1].name, "onhand_qty");
  EXPECT_EQ(root->head[1].expr->kind, qgm::Expr::Kind::kBinary);  // qty + 1
  ASSERT_EQ(root->predicates.size(), 1u);  // the WHERE, bound

  // The rid comes from the target's own base-table box, one column past
  // its schema; a SELECT over the same table never sees that column.
  ASSERT_EQ(root->quantifiers.size(), 1u);
  const Box* base = root->quantifiers[0]->input;
  ASSERT_EQ(base->kind, BoxKind::kBaseTable);
  EXPECT_TRUE(base->rid_column);
  EXPECT_EQ(base->head.size(), 4u);
  const qgm::Expr& rid = *root->head[0].expr;
  EXPECT_EQ(rid.kind, qgm::Expr::Kind::kColumnRef);
  EXPECT_EQ(rid.column, 3u);
  auto select = MustBind("SELECT * FROM inventory");
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->root()->head.size(), 3u);
}

// ---------------------------------------------------------------------------
// Graph invariant checker (the paranoid mode RuleEngine runs after each
// rule firing under sanitizer builds)
// ---------------------------------------------------------------------------

class QgmValidateTest : public QgmTest {
 protected:
  // First box owning a quantifier, searched root-down (boxes are stored in
  // creation order; the root select is created before its inputs' boxes).
  qgm::Box* FindBoxWithQuantifier(qgm::Graph* g) {
    for (const auto& b : g->boxes()) {
      if (!b->quantifiers.empty()) return b.get();
    }
    return nullptr;
  }
};

TEST_F(QgmValidateTest, AcceptsBoundGraphs) {
  auto graph = MustBind(
      "SELECT partno, price FROM quotations WHERE order_qty > 5");
  ASSERT_NE(graph, nullptr);
  EXPECT_TRUE(graph->Validate().ok());
}

TEST_F(QgmValidateTest, DetectsForeignRangeEdge) {
  auto graph = MustBind("SELECT partno FROM quotations");
  ASSERT_NE(graph, nullptr);
  qgm::Box* box = FindBoxWithQuantifier(graph.get());
  ASSERT_NE(box, nullptr);
  // Re-point a range edge at a box the graph does not own (as if a rule
  // freed the input and forgot to rewrite the edge).
  qgm::Box orphan;
  orphan.kind = BoxKind::kBaseTable;
  box->quantifiers[0]->input = &orphan;
  Status s = graph->Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("does not own"), std::string::npos)
      << s.ToString();
}

TEST_F(QgmValidateTest, DetectsDanglingQuantifierReference) {
  auto graph = MustBind("SELECT partno FROM quotations WHERE order_qty > 5");
  ASSERT_NE(graph, nullptr);
  qgm::Box* box = FindBoxWithQuantifier(graph.get());
  ASSERT_NE(box, nullptr);
  // Detach the quantifier from its owner but keep it alive: the box's
  // head/predicate expressions still reference it.
  std::unique_ptr<qgm::Quantifier> detached =
      box->RemoveQuantifier(box->quantifiers[0].get());
  ASSERT_NE(detached, nullptr);
  Status s = graph->Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("dangling"), std::string::npos) << s.ToString();
}

TEST_F(QgmValidateTest, DetectsColumnPastInputArity) {
  auto graph = MustBind("SELECT partno FROM quotations");
  ASSERT_NE(graph, nullptr);
  // Find any head column reference and push it past its input's arity.
  qgm::Expr* ref = nullptr;
  for (const auto& b : graph->boxes()) {
    for (const qgm::HeadColumn& h : b->head) {
      if (h.expr != nullptr && h.expr->kind == qgm::Expr::Kind::kColumnRef &&
          h.expr->quantifier != nullptr) {
        ref = h.expr.get();
        break;
      }
    }
    if (ref != nullptr) break;
  }
  ASSERT_NE(ref, nullptr);
  ref->column = 999;
  Status s = graph->Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("head arity"), std::string::npos)
      << s.ToString();
}

TEST_F(QgmValidateTest, DetectsBaseTableHeadArityMismatch) {
  auto graph = MustBind("SELECT partno FROM quotations");
  ASSERT_NE(graph, nullptr);
  qgm::Box* base = nullptr;
  for (const auto& b : graph->boxes()) {
    if (b->kind == BoxKind::kBaseTable && b->table != nullptr) {
      base = b.get();
      break;
    }
  }
  ASSERT_NE(base, nullptr);
  base->head.pop_back();
  Status s = graph->Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("arity"), std::string::npos) << s.ToString();
}

}  // namespace
}  // namespace starburst
