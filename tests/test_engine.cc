#include "engine/database.h"

#include <gtest/gtest.h>

#include "ext/extensions.h"

namespace starburst {
namespace {

/// End-to-end coverage of the full Figure-1 pipeline through Database.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Exec("CREATE TABLE quotations ("
                     "partno INT, price DOUBLE, order_qty INT)"));
    ASSERT_TRUE(Exec("CREATE TABLE inventory ("
                     "partno INT PRIMARY KEY, onhand_qty INT, type STRING)"));
    ASSERT_TRUE(Exec("INSERT INTO inventory VALUES "
                     "(1, 10, 'CPU'), (2, 100, 'CPU'), (3, 5, 'DISK'), "
                     "(4, 0, 'CPU'), (5, 50, 'RAM')"));
    ASSERT_TRUE(Exec("INSERT INTO quotations VALUES "
                     "(1, 99.5, 20), (1, 95.0, 5), (2, 40.0, 200), "
                     "(3, 12.0, 10), (6, 7.0, 3)"));
  }

  bool Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    if (!r.ok()) {
      last_error_ = r.status().ToString();
      return false;
    }
    last_ = r.TakeValue();
    return true;
  }

  std::vector<Row> MustQuery(const std::string& sql) {
    Result<std::vector<Row>> r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    if (!r.ok()) return {};
    return r.TakeValue();
  }

  Database db_;
  ResultSet last_;
  std::string last_error_;
};

TEST_F(EngineTest, SimpleSelect) {
  std::vector<Row> rows = MustQuery("SELECT partno, type FROM inventory "
                                    "WHERE type = 'CPU' ORDER BY partno");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
  EXPECT_EQ(rows[1][0], Value::Int(2));
  EXPECT_EQ(rows[2][0], Value::Int(4));
}

TEST_F(EngineTest, SelectNoFrom) {
  std::vector<Row> rows = MustQuery("SELECT 1 + 2, 'x' || 'y'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(3));
  EXPECT_EQ(rows[0][1], Value::String("xy"));
}

TEST_F(EngineTest, PaperQuery) {
  // The paper's §4 running example (Figure 2): quotations for CPU parts
  // in low supply. Parts 1 (10 < 20) and 2 (100 < 200) qualify; the
  // second quotation for part 1 has order_qty 5 <= onhand 10.
  std::vector<Row> rows = MustQuery(
      "SELECT partno, price, order_qty FROM quotations Q1 "
      "WHERE Q1.partno IN (SELECT partno FROM inventory Q3 "
      "WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU') "
      "ORDER BY partno, price");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
  EXPECT_EQ(rows[0][1], Value::Double(99.5));
  EXPECT_EQ(rows[1][0], Value::Int(2));
}

TEST_F(EngineTest, JoinTwoTables) {
  std::vector<Row> rows = MustQuery(
      "SELECT q.partno, q.price, i.type FROM quotations q, inventory i "
      "WHERE q.partno = i.partno ORDER BY q.partno, q.price");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][2], Value::String("CPU"));
  EXPECT_EQ(rows[3][2], Value::String("DISK"));
}

TEST_F(EngineTest, LeftOuterJoin) {
  std::vector<Row> rows = MustQuery(
      "SELECT q.partno, i.type, q.price FROM quotations q "
      "LEFT OUTER JOIN inventory i ON q.partno = i.partno "
      "ORDER BY partno, price");
  ASSERT_EQ(rows.size(), 5u);
  // partno 6 has no inventory row: preserved with NULL type.
  EXPECT_EQ(rows[4][0], Value::Int(6));
  EXPECT_TRUE(rows[4][1].is_null());
}

TEST_F(EngineTest, Aggregation) {
  std::vector<Row> rows = MustQuery(
      "SELECT type, COUNT(*) n, SUM(onhand_qty) total FROM inventory "
      "GROUP BY type HAVING COUNT(*) >= 1 ORDER BY type");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value::String("CPU"));
  EXPECT_EQ(rows[0][1], Value::Int(3));
  EXPECT_EQ(rows[0][2], Value::Int(110));
}

TEST_F(EngineTest, ScalarAggregateOverEmptyInput) {
  std::vector<Row> rows =
      MustQuery("SELECT COUNT(*), SUM(onhand_qty) FROM inventory "
                "WHERE type = 'TAPE'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(0));
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(EngineTest, SetOperations) {
  std::vector<Row> rows = MustQuery(
      "SELECT partno FROM quotations UNION SELECT partno FROM inventory "
      "ORDER BY partno");
  ASSERT_EQ(rows.size(), 6u);  // 1,2,3,4,5,6
  rows = MustQuery(
      "SELECT partno FROM inventory EXCEPT SELECT partno FROM quotations "
      "ORDER BY partno");
  ASSERT_EQ(rows.size(), 2u);  // 4, 5
  rows = MustQuery(
      "SELECT partno FROM inventory INTERSECT SELECT partno FROM quotations");
  ASSERT_EQ(rows.size(), 3u);  // 1, 2, 3
}

TEST_F(EngineTest, ViewsMergeAndAnswer) {
  ASSERT_TRUE(Exec("CREATE VIEW cpu_parts AS "
                   "SELECT partno, onhand_qty FROM inventory WHERE type = 'CPU'"));
  std::vector<Row> rows = MustQuery(
      "SELECT q.partno, q.price FROM quotations q, cpu_parts c "
      "WHERE q.partno = c.partno AND c.onhand_qty < 50 "
      "ORDER BY q.partno, q.price");
  ASSERT_EQ(rows.size(), 2u);  // part 1's two quotations
  EXPECT_EQ(rows[0][0], Value::Int(1));
}

TEST_F(EngineTest, TableExpressions) {
  std::vector<Row> rows = MustQuery(
      "WITH cheap(p, pr) AS (SELECT partno, price FROM quotations "
      "WHERE price < 50) SELECT p, pr FROM cheap ORDER BY pr");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1], Value::Double(7.0));
}

TEST_F(EngineTest, RecursiveTableExpression) {
  std::vector<Row> rows = MustQuery(
      "WITH RECURSIVE seq(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM seq "
      "WHERE n < 10) SELECT COUNT(*), SUM(n) FROM seq");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(10));
  EXPECT_EQ(rows[0][1], Value::Int(55));
}

TEST_F(EngineTest, CorrelatedExists) {
  std::vector<Row> rows = MustQuery(
      "SELECT partno FROM inventory i WHERE EXISTS "
      "(SELECT partno FROM quotations q WHERE q.partno = i.partno "
      "AND q.price > 50) ORDER BY partno");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
}

TEST_F(EngineTest, NotInIsNullAware) {
  ASSERT_TRUE(Exec("INSERT INTO quotations VALUES (NULL, 1.0, 1)"));
  // NULL in the subquery makes NOT IN reject every row (SQL semantics).
  std::vector<Row> rows = MustQuery(
      "SELECT partno FROM inventory WHERE partno NOT IN "
      "(SELECT partno FROM quotations)");
  EXPECT_EQ(rows.size(), 0u);
  ASSERT_TRUE(Exec("DELETE FROM quotations WHERE partno IS NULL"));
  rows = MustQuery(
      "SELECT partno FROM inventory WHERE partno NOT IN "
      "(SELECT partno FROM quotations) ORDER BY partno");
  ASSERT_EQ(rows.size(), 2u);  // 4 and 5
}

TEST_F(EngineTest, QuantifiedAllAny) {
  std::vector<Row> rows = MustQuery(
      "SELECT partno FROM inventory WHERE onhand_qty > ALL "
      "(SELECT order_qty FROM quotations WHERE partno = 1)");
  // order_qtys for part 1 are {20, 5}; onhand > 20: parts 2 (100), 5 (50).
  ASSERT_EQ(rows.size(), 2u);
  rows = MustQuery(
      "SELECT partno FROM inventory WHERE onhand_qty < ANY "
      "(SELECT order_qty FROM quotations) ORDER BY partno");
  // max order_qty = 200; everything below qualifies.
  ASSERT_EQ(rows.size(), 5u);
}

TEST_F(EngineTest, ScalarSubquery) {
  std::vector<Row> rows = MustQuery(
      "SELECT partno, (SELECT type FROM inventory i "
      "WHERE i.partno = q.partno) t, price FROM quotations q "
      "ORDER BY partno, price");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][1], Value::String("CPU"));
  EXPECT_TRUE(rows[4][1].is_null());  // part 6: no inventory row
}

TEST_F(EngineTest, OrWithSubquery) {
  // §7's problem query shape.
  std::vector<Row> rows = MustQuery(
      "SELECT partno FROM quotations q WHERE q.price < 10 OR q.order_qty = "
      "(SELECT onhand_qty FROM inventory i WHERE i.partno = q.partno) "
      "ORDER BY partno");
  // price < 10: part 6 (7.0). order_qty = onhand: none (20!=10,5!=10,...).
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(6));
}

TEST_F(EngineTest, UpdateAndDelete) {
  ASSERT_TRUE(Exec("UPDATE inventory SET onhand_qty = onhand_qty + 1 "
                   "WHERE type = 'CPU'"));
  EXPECT_EQ(last_.affected_rows(), 3);
  std::vector<Row> rows =
      MustQuery("SELECT onhand_qty FROM inventory WHERE partno = 1");
  EXPECT_EQ(rows[0][0], Value::Int(11));

  ASSERT_TRUE(Exec("DELETE FROM quotations WHERE price > 90"));
  EXPECT_EQ(last_.affected_rows(), 2);
  rows = MustQuery("SELECT COUNT(*) FROM quotations");
  EXPECT_EQ(rows[0][0], Value::Int(3));
}

TEST_F(EngineTest, DeleteWithSubqueryPredicate) {
  ASSERT_TRUE(Exec("DELETE FROM quotations WHERE partno IN "
                   "(SELECT partno FROM inventory WHERE type = 'DISK')"));
  EXPECT_EQ(last_.affected_rows(), 1);
}

TEST_F(EngineTest, InsertSelect) {
  ASSERT_TRUE(Exec("CREATE TABLE cpu_copy (partno INT, qty INT)"));
  ASSERT_TRUE(Exec("INSERT INTO cpu_copy SELECT partno, onhand_qty "
                   "FROM inventory WHERE type = 'CPU'"));
  EXPECT_EQ(last_.affected_rows(), 3);
}

TEST_F(EngineTest, UniqueKeyViolationRejected) {
  EXPECT_FALSE(Exec("INSERT INTO inventory VALUES (1, 0, 'DUP')"));
  EXPECT_NE(last_error_.find("AlreadyExists"), std::string::npos);
  // The failed insert must not leave a phantom row behind.
  std::vector<Row> rows =
      MustQuery("SELECT COUNT(*) FROM inventory WHERE partno = 1");
  EXPECT_EQ(rows[0][0], Value::Int(1));
}

TEST_F(EngineTest, IndexedAccessGivesSameAnswers) {
  ASSERT_TRUE(Exec("CREATE INDEX inv_qty ON inventory (onhand_qty)"));
  ASSERT_EQ(db_.AnalyzeAll(), Status::OK());
  std::vector<Row> rows = MustQuery(
      "SELECT partno FROM inventory WHERE onhand_qty = 100");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(2));
  rows = MustQuery("SELECT partno FROM inventory WHERE onhand_qty > 40 "
                   "ORDER BY partno");
  ASSERT_EQ(rows.size(), 2u);
}

TEST_F(EngineTest, RewriteOffMatchesRewriteOn) {
  const std::string sql =
      "SELECT partno, price, order_qty FROM quotations Q1 "
      "WHERE Q1.partno IN (SELECT partno FROM inventory Q3 "
      "WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU') "
      "ORDER BY partno, price";
  std::vector<Row> with = MustQuery(sql);
  ASSERT_TRUE(Exec("SET REWRITE_ENABLED = 0"));
  std::vector<Row> without = MustQuery(sql);
  ASSERT_TRUE(Exec("SET REWRITE_ENABLED = DEFAULT"));
  EXPECT_EQ(with, without);
  EXPECT_EQ(with.size(), 2u);
}

TEST_F(EngineTest, ExplainShowsQgmAndPlan) {
  ASSERT_TRUE(Exec("EXPLAIN QGM SELECT partno FROM inventory WHERE type='CPU'"));
  ASSERT_EQ(last_.rows().size(), 1u);
  std::string qgm = last_.rows()[0][0].string_value();
  EXPECT_NE(qgm.find("SELECT"), std::string::npos);
  EXPECT_NE(qgm.find("F over inventory"), std::string::npos);

  ASSERT_TRUE(Exec("EXPLAIN PLAN SELECT q.partno FROM quotations q, "
                   "inventory i WHERE q.partno = i.partno"));
  std::string plan = last_.rows()[0][0].string_value();
  EXPECT_NE(plan.find("JOIN"), std::string::npos);
  EXPECT_NE(plan.find("SCAN"), std::string::npos);
}

TEST_F(EngineTest, MetricsPopulatedPerPhase) {
  (void)MustQuery("SELECT q.partno FROM quotations q, inventory i "
                  "WHERE q.partno = i.partno");
  const QueryMetrics& m = db_.last_metrics();
  EXPECT_GT(m.parse_us, 0);
  EXPECT_GT(m.bind_us, 0);
  EXPECT_GT(m.optimize_us, 0);
  EXPECT_GT(m.execute_us, 0);
  EXPECT_GT(m.plan_cost, 0);
  EXPECT_GT(m.optimizer_stats.generator.plans_generated, 0u);
  EXPECT_GT(m.exec_stats.rows_emitted, 0u);
}

TEST_F(EngineTest, ExplainBeforeAndAfterRewriteDiffer) {
  const std::string q =
      "SELECT partno FROM quotations WHERE partno IN "
      "(SELECT partno FROM inventory)";
  ASSERT_TRUE(Exec("EXPLAIN QGM BEFORE " + q));
  std::string before = last_.rows()[0][0].string_value();
  ASSERT_TRUE(Exec("EXPLAIN QGM " + q));
  std::string after = last_.rows()[0][0].string_value();
  EXPECT_NE(before.find(": E over"), std::string::npos) << before;
  EXPECT_EQ(after.find(": E over"), std::string::npos) << after;
}

TEST_F(EngineTest, DistinctAndLimit) {
  std::vector<Row> rows = MustQuery("SELECT DISTINCT type FROM inventory");
  EXPECT_EQ(rows.size(), 3u);
  rows = MustQuery(
      "SELECT partno, price FROM quotations ORDER BY price LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(6));
}

TEST_F(EngineTest, CaseExpression) {
  std::vector<Row> rows = MustQuery(
      "SELECT partno, CASE WHEN onhand_qty = 0 THEN 'out' "
      "WHEN onhand_qty < 20 THEN 'low' ELSE 'ok' END FROM inventory "
      "ORDER BY partno");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][1], Value::String("low"));
  EXPECT_EQ(rows[1][1], Value::String("ok"));
  EXPECT_EQ(rows[3][1], Value::String("out"));
}

TEST_F(EngineTest, FixedStorageManager) {
  ASSERT_TRUE(Exec("CREATE TABLE fixed_t (a INT, b DOUBLE) USING FIXED"));
  ASSERT_TRUE(Exec("INSERT INTO fixed_t VALUES (1, 1.5), (2, 2.5), (3, NULL)"));
  std::vector<Row> rows =
      MustQuery("SELECT a, b FROM fixed_t WHERE a >= 2 ORDER BY a");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Value::Double(2.5));
  EXPECT_TRUE(rows[1][1].is_null());
  // FIXED cannot hold strings.
  EXPECT_FALSE(Exec("CREATE TABLE fixed_bad (s STRING) USING FIXED"));
}

TEST_F(EngineTest, SharedTableExpressionMaterializedOnce) {
  // §5: a table expression "used in multiple places ... materialized once
  // and used several times". Both references to `stats` share one
  // evaluation of the aggregation.
  std::vector<Row> rows = MustQuery(
      "WITH stats(t, n) AS (SELECT type, COUNT(*) FROM inventory "
      "GROUP BY type) "
      "SELECT a.t FROM stats a, stats b WHERE a.n > b.n");
  EXPECT_EQ(db_.last_metrics().exec_stats.shared_materializations, 1u);
  // CPU(3) > DISK(1), CPU(3) > RAM(1): plus any other strict pairs.
  EXPECT_EQ(rows.size(), 2u);

  // Ablation: answers identical with sharing disabled.
  ASSERT_TRUE(Exec("SET OPTIMIZER.MATERIALIZE_SHARED = 0"));
  std::vector<Row> unshared = MustQuery(
      "WITH stats(t, n) AS (SELECT type, COUNT(*) FROM inventory "
      "GROUP BY type) "
      "SELECT a.t FROM stats a, stats b WHERE a.n > b.n");
  EXPECT_EQ(db_.last_metrics().exec_stats.shared_materializations, 0u);
  ASSERT_TRUE(Exec("SET OPTIMIZER.MATERIALIZE_SHARED = DEFAULT"));
  EXPECT_EQ(rows.size(), unshared.size());
}

TEST_F(EngineTest, OrderByHiddenColumn) {
  // ORDER BY on a column that is not in the select list: resolved as a
  // hidden sort column, stripped from the result.
  std::vector<Row> rows =
      MustQuery("SELECT partno FROM quotations ORDER BY price");
  ASSERT_EQ(rows.size(), 5u);
  ASSERT_EQ(rows[0].size(), 1u);  // hidden column stripped
  EXPECT_EQ(rows[0][0], Value::Int(6));   // price 7.0
  EXPECT_EQ(rows[4][0], Value::Int(1));   // price 99.5
  // Qualified form too.
  rows = MustQuery("SELECT q.partno FROM quotations q ORDER BY q.price DESC");
  EXPECT_EQ(rows[0][0], Value::Int(1));
  // Still an error under DISTINCT (the dedup key would change).
  EXPECT_FALSE(Exec("SELECT DISTINCT partno FROM quotations ORDER BY price"));
}

TEST_F(EngineTest, AnalyzeStatement) {
  ASSERT_TRUE(Exec("ANALYZE inventory"));
  const TableDef* def = *db_.catalog().GetTable("inventory");
  EXPECT_EQ(def->stats.row_count, 5);
  const ColumnStats* type_stats = def->stats.FindColumn("type");
  ASSERT_NE(type_stats, nullptr);
  EXPECT_EQ(type_stats->distinct_count, 3);
  ASSERT_TRUE(Exec("ANALYZE"));  // all tables
  EXPECT_EQ((*db_.catalog().GetTable("quotations"))->stats.row_count, 5);
  EXPECT_FALSE(Exec("ANALYZE nosuch"));
}

TEST_F(EngineTest, GroupByPushdownStillCorrect) {
  std::vector<Row> rows = MustQuery(
      "SELECT t, n FROM (SELECT type t, COUNT(*) n FROM inventory "
      "GROUP BY type) g WHERE t = 'CPU'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Int(3));
}

}  // namespace
}  // namespace starburst
