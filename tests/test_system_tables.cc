#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/settings.h"

namespace starburst {
namespace {

/// The sys.* virtual tables: plain SQL over engine observability state,
/// served by the read-only SYSTEM storage manager.
class SystemTablesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Exec("CREATE TABLE t (a INT, b STRING)"));
    ASSERT_TRUE(Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')"));
  }

  bool Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    if (!r.ok()) {
      last_error_ = r.status().ToString();
      return false;
    }
    return true;
  }

  std::vector<Row> MustQuery(const std::string& sql) {
    Result<std::vector<Row>> r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    if (!r.ok()) return {};
    return r.TakeValue();
  }

  double MetricValue(const std::string& name) {
    // A unique literal per probe keeps the probe itself out of the plan
    // cache, so probing never perturbs the counters being read.
    std::vector<Row> rows = MustQuery(
        "SELECT value, " + std::to_string(probe_seq_++) +
        " FROM sys.metrics WHERE name = '" + name + "'");
    if (rows.size() != 1) {
      ADD_FAILURE() << "metric '" << name << "' returned " << rows.size()
                    << " rows";
      return -1;
    }
    return rows[0][0].double_value();
  }

  Database db_;
  std::string last_error_;
  int probe_seq_ = 0;
};

TEST_F(SystemTablesTest, MetricsScansLikePlainTable) {
  std::vector<Row> rows =
      MustQuery("SELECT name, kind, value FROM sys.metrics ORDER BY name");
  ASSERT_GT(rows.size(), 10u);
  for (const Row& r : rows) {
    EXPECT_FALSE(r[0].string_value().empty());
    const std::string& kind = r[1].string_value();
    EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
        << kind;
  }
}

TEST_F(SystemTablesTest, MetricsFilterWithLike) {
  std::vector<Row> rows = MustQuery(
      "SELECT name FROM sys.metrics WHERE name LIKE 'plan_cache%' "
      "ORDER BY name");
  ASSERT_GE(rows.size(), 5u);
  for (const Row& r : rows) {
    EXPECT_EQ(r[0].string_value().rfind("plan_cache", 0), 0u);
  }
}

TEST_F(SystemTablesTest, CountersAdvanceAcrossQueries) {
  // Prime the cache, then re-run the identical statement: the second run
  // must surface as a plan-cache hit in sys.metrics.
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a > 1"));
  double hits_before = MetricValue("plan_cache_hits_total");
  double queries_before = MetricValue("queries_total");
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a > 1"));
  EXPECT_EQ(MetricValue("plan_cache_hits_total"), hits_before + 1);
  // The MetricValue probes themselves run queries, so queries_total moved
  // by at least the re-run plus the probes.
  EXPECT_GE(MetricValue("queries_total"), queries_before + 2);
}

TEST_F(SystemTablesTest, QueryLogRecordsStatements) {
  ASSERT_TRUE(Exec("SELECT a FROM t"));
  std::vector<Row> rows = MustQuery(
      "SELECT sql, status, rows FROM sys.query_log "
      "WHERE sql = 'SELECT A FROM T'");
  ASSERT_GE(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].string_value(), "ok");
  EXPECT_EQ(rows[0][2], Value::Int(3));
}

TEST_F(SystemTablesTest, QueryLogRecordsErrors) {
  EXPECT_FALSE(Exec("SELECT nope FROM t"));
  std::vector<Row> rows = MustQuery(
      "SELECT error FROM sys.query_log WHERE status = 'error'");
  ASSERT_GE(rows.size(), 1u);
  EXPECT_FALSE(rows[0][0].is_null());
}

TEST_F(SystemTablesTest, QueryLogFlagsPlanCacheHits) {
  ASSERT_TRUE(Exec("SELECT b FROM t WHERE a = 2"));
  ASSERT_TRUE(Exec("SELECT b FROM t WHERE a = 2"));
  std::vector<Row> rows = MustQuery(
      "SELECT plan_cache_hit FROM sys.query_log "
      "WHERE sql = 'SELECT B FROM T WHERE A = 2' ORDER BY id");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(0));
  EXPECT_EQ(rows[1][0], Value::Int(1));
}

TEST_F(SystemTablesTest, SlowQueryThresholdFlagsAndTraces) {
  db_.tracer().set_enabled(true);
  // 1us threshold: everything qualifies as slow.
  ASSERT_TRUE(Exec("SET SLOW_QUERY_US = 1"));
  ASSERT_TRUE(Exec("SELECT a FROM t"));
  std::vector<Row> rows = MustQuery(
      "SELECT slow FROM sys.query_log WHERE sql = 'SELECT A FROM T'");
  ASSERT_GE(rows.size(), 1u);
  EXPECT_EQ(rows.back()[0], Value::Int(1));
  EXPECT_GE(MetricValue("slow_queries_total"), 1.0);

  bool saw_instant = false;
  for (const obs::TraceEvent& e : db_.tracer().Snapshot()) {
    if (e.name == "slow query") saw_instant = true;
  }
  EXPECT_TRUE(saw_instant);

  // DEFAULT switches flagging back off.
  ASSERT_TRUE(Exec("SET SLOW_QUERY_US = DEFAULT"));
  EXPECT_EQ(db_.slow_query_us(), 0u);
}

TEST_F(SystemTablesTest, PlanCacheTableExposesEntries) {
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a < 3"));
  std::vector<Row> rows = MustQuery(
      "SELECT position, sql, fresh FROM sys.plan_cache "
      "WHERE sql = 'SELECT A FROM T WHERE A < 3'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][2], Value::Int(1));  // fresh against current catalog
}

TEST_F(SystemTablesTest, SettingsTableListsEveryRowAndTheCacheKeysOnIt) {
  std::vector<Row> all = MustQuery("SELECT * FROM sys.settings");
  ASSERT_EQ(all.size(), SettingsTable().size());
  std::vector<Row> batch = MustQuery(
      "SELECT value, default, kind, affects_plan FROM sys.settings "
      "WHERE name = 'BATCH_SIZE'");
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0],
            Row({Value::String("1024"), Value::String("1024"),
                 Value::String("int"), Value::Int(1)}));

  ASSERT_TRUE(Exec("SET BATCH_SIZE = 7"));
  ASSERT_TRUE(Exec("SET PLAN_CACHE_SIZE = 5"));
  ASSERT_TRUE(Exec("SET EXEC.CACHE_MODE = LAST_VALUE"));
  std::vector<Row> changed = MustQuery(
      "SELECT name, value, affects_plan FROM sys.settings WHERE name IN "
      "('BATCH_SIZE', 'PLAN_CACHE_SIZE', 'EXEC.CACHE_MODE') ORDER BY name");
  ASSERT_EQ(changed.size(), 3u);
  EXPECT_EQ(changed[0], Row({Value::String("BATCH_SIZE"), Value::String("7"),
                             Value::Int(1)}));
  EXPECT_EQ(changed[1],
            Row({Value::String("EXEC.CACHE_MODE"),
                 Value::String("LAST_VALUE"), Value::Int(1)}));
  EXPECT_EQ(changed[2], Row({Value::String("PLAN_CACHE_SIZE"),
                             Value::String("5"), Value::Int(0)}));

  // Each plan-cache entry names the plan-affecting settings it was
  // compiled under; settings that do not affect plans are absent.
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a < 2"));
  std::vector<Row> entry = MustQuery(
      "SELECT settings FROM sys.plan_cache "
      "WHERE sql = 'SELECT A FROM T WHERE A < 2'");
  ASSERT_EQ(entry.size(), 1u);
  const std::string& compiled_under = entry[0][0].string_value();
  EXPECT_NE(compiled_under.find("BATCH_SIZE=7 "), std::string::npos);
  EXPECT_NE(compiled_under.find("EXEC.CACHE_MODE=LAST_VALUE"),
            std::string::npos);
  EXPECT_EQ(compiled_under.find("PLAN_CACHE_SIZE"), std::string::npos);
  EXPECT_EQ(compiled_under.find("QUERY_MEMORY"), std::string::npos);
}

TEST_F(SystemTablesTest, SysTablesJoinAndAggregate) {
  ASSERT_TRUE(Exec("SELECT a FROM t"));
  // Aggregate over a system table.
  std::vector<Row> count =
      MustQuery("SELECT COUNT(*), kind FROM sys.metrics GROUP BY kind");
  ASSERT_GE(count.size(), 2u);

  // Join the two observability relations against each other.
  std::vector<Row> joined = MustQuery(
      "SELECT q.id, m.value FROM sys.query_log q, sys.metrics m "
      "WHERE m.name = 'queries_total' AND q.status = 'ok'");
  ASSERT_GE(joined.size(), 1u);

  // Join a system table with a user table.
  std::vector<Row> mixed = MustQuery(
      "SELECT t.a FROM t, sys.metrics m "
      "WHERE m.name = 'queries_total' ORDER BY t.a");
  ASSERT_EQ(mixed.size(), 3u);
}

TEST_F(SystemTablesTest, ScansWorkUnderParallelism) {
  ASSERT_TRUE(Exec("SET PARALLELISM = 4"));
  ASSERT_TRUE(Exec("SET PARALLEL_MIN_ROWS = 0"));
  std::vector<Row> serial_vs_parallel =
      MustQuery("SELECT name FROM sys.metrics ORDER BY name");
  // One page -> one morsel materializes the table; every row exactly once.
  std::vector<Row> again =
      MustQuery("SELECT name FROM sys.metrics ORDER BY name");
  ASSERT_EQ(serial_vs_parallel.size(), again.size());
  for (size_t i = 1; i < again.size(); ++i) {
    EXPECT_NE(again[i - 1][0].string_value(), again[i][0].string_value());
  }
  ASSERT_TRUE(Exec("SET PARALLELISM = 1"));
}

TEST_F(SystemTablesTest, DmlAndDdlAgainstSysTablesFailCleanly) {
  EXPECT_FALSE(Exec("INSERT INTO sys.metrics VALUES ('x', 'counter', 1.0)"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("UPDATE sys.query_log SET status = 'ok'"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("DELETE FROM sys.query_log"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("DROP TABLE sys.metrics"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("CREATE TABLE sys.mine (a INT)"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("CREATE INDEX idx ON sys.metrics (name)"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("CREATE VIEW sys.v AS SELECT 1"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  // Users cannot claim the SYSTEM manager for their own tables either.
  EXPECT_FALSE(Exec("CREATE TABLE mine (a INT) USING SYSTEM"));
  EXPECT_NE(last_error_.find("reserved"), std::string::npos) << last_error_;

  // The guards fire before any mutation: the tables still scan.
  EXPECT_GE(MustQuery("SELECT name FROM sys.metrics").size(), 10u);
}

TEST_F(SystemTablesTest, AnalyzeAllSkipsSystemTables) {
  ASSERT_TRUE(Exec("ANALYZE"));  // must not fail over sys.* tables
}

TEST_F(SystemTablesTest, SpillAndMemoryColumnsPopulate) {
  // Force an external sort: tiny sort budget over enough rows to spill.
  ASSERT_TRUE(Exec("CREATE TABLE big (v INT)"));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(Exec("INSERT INTO big VALUES (" + std::to_string(997 - i) +
                     "), (" + std::to_string(i) + ")"));
  }
  ASSERT_TRUE(Exec("SET SORT_MEMORY = 256"));
  ASSERT_TRUE(Exec("SELECT v FROM big ORDER BY v"));
  ASSERT_TRUE(Exec("SET SORT_MEMORY = DEFAULT"));

  std::vector<Row> rows = MustQuery(
      "SELECT spill_bytes, peak_memory_bytes FROM sys.query_log "
      "WHERE sql = 'SELECT V FROM BIG ORDER BY V'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0][0].int_value(), 0);
  EXPECT_GT(rows[0][1].int_value(), 0);
  EXPECT_GE(MetricValue("spill_bytes_written_total"),
            static_cast<double>(rows[0][0].int_value()));
}

TEST_F(SystemTablesTest, TraceBufferKnobResizesRing) {
  ASSERT_TRUE(Exec("SET TRACE_BUFFER = 16"));
  EXPECT_EQ(db_.tracer().capacity(), 16u);
  ASSERT_TRUE(Exec("SET TRACE_BUFFER = DEFAULT"));
  EXPECT_EQ(db_.tracer().capacity(), obs::Tracer::kDefaultCapacity);
}

TEST_F(SystemTablesTest, MetricsDisabledPathSkipsBookkeeping) {
  ASSERT_TRUE(Exec("SELECT a FROM t"));
  uint64_t logged_before = db_.query_log().total();
  db_.set_metrics_enabled(false);
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a = 1"));
  EXPECT_EQ(db_.query_log().total(), logged_before);
  db_.set_metrics_enabled(true);
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a = 2"));
  EXPECT_EQ(db_.query_log().total(), logged_before + 1);
}

TEST_F(SystemTablesTest, RenderTextServesEngineMetrics) {
  ASSERT_TRUE(Exec("SELECT a FROM t"));
  db_.RefreshMetricsMirrors();
  std::string text = db_.metrics_registry().RenderText();
  EXPECT_NE(text.find("# TYPE queries_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE query_latency_us summary"), std::string::npos);
}

}  // namespace
}  // namespace starburst
