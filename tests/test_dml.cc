// DML through the query pipeline: UPDATE, DELETE and INSERT compile as
// queries that return the rows to change (rids for UPDATE/DELETE), run
// through the same compile/execute path as SELECT, and an apply step
// changes the table all or nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"

namespace starburst {
namespace {

struct RowTotalLess {
  bool operator()(const Row& a, const Row& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].CompareTotal(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), RowTotalLess{});
  return rows;
}

/// An access method that keys nothing and, while `slow` is set, takes a
/// millisecond per key insert, so an UPDATE's apply step outlasts a short
/// statement deadline.
class SlowAttachment : public Attachment {
 public:
  explicit SlowAttachment(IndexDef def) : def_(std::move(def)) {}
  const IndexDef& def() const override { return def_; }
  Status OnInsert(const Row&, Rid) override {
    if (slow) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++slow_inserts;
    }
    ++keys;
    return Status::OK();
  }
  Status OnDelete(const Row&, Rid) override {
    --keys;
    return Status::OK();
  }

  bool slow = false;
  int slow_inserts = 0;
  int keys = 0;

 private:
  IndexDef def_;
};

class DmlTest : public ::testing::Test {
 protected:
  void Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }
  std::vector<Row> Q(const std::string& sql) {
    Result<std::vector<Row>> r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r.TakeValue() : std::vector<Row>{};
  }
  std::string Explain(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    std::string text;
    if (!r.ok()) return text;
    for (const Row& row : r->rows()) text += row[0].string_value() + "\n";
    return text;
  }
  /// The number after `label` on the report line that starts with it.
  static long long ReportNumber(const std::string& text,
                                const std::string& label) {
    size_t at = text.find(label);
    if (at == std::string::npos) return -1;
    return std::stoll(text.substr(at + label.size()));
  }

  /// Every row of `table` through a full scan, and each id through the
  /// unique index on `id` (the lookup must visit index nodes).
  void ExpectRowsAndIndexAgree(const std::string& table,
                               const std::vector<Row>& expected) {
    EXPECT_EQ(Sorted(Q("SELECT id, v FROM " + table)), Sorted(expected));
    for (const Row& row : expected) {
      std::vector<Row> hit = Q("SELECT id, v FROM " + table +
                               " WHERE id = " + row[0].ToString());
      EXPECT_GT(db_.last_metrics().index_node_visits, 0u)
          << "lookup of id " << row[0].ToString() << " skipped the index";
      ASSERT_EQ(hit.size(), 1u) << "id " << row[0].ToString();
      EXPECT_EQ(hit[0], row);
    }
  }

  Database db_;
};

TEST_F(DmlTest, FailedKeyUpdateLeavesHeapAndIndexIntact) {
  Exec("CREATE TABLE u (id INT NOT NULL, v INT)");
  Exec("CREATE UNIQUE INDEX u_id ON u (id)");
  Exec("INSERT INTO u VALUES (1, 10), (2, 20), (3, 30)");
  const std::vector<Row> original = {
      Row({Value::Int(1), Value::Int(10)}),
      Row({Value::Int(2), Value::Int(20)}),
      Row({Value::Int(3), Value::Int(30)})};

  Result<ResultSet> dup = db_.Execute("UPDATE u SET id = 1 WHERE id = 2");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  ExpectRowsAndIndexAgree("u", original);

  // Ids 2 and 3 both become 1, which row 1 still holds.
  Result<ResultSet> onto = db_.Execute("UPDATE u SET id = 1 WHERE id > 1");
  ASSERT_FALSE(onto.ok());
  EXPECT_EQ(onto.status().code(), StatusCode::kAlreadyExists);
  ExpectRowsAndIndexAgree("u", original);
}

TEST_F(DmlTest, KeyUpdateChecksKeysAtTheEndOfTheStatement) {
  Exec("CREATE TABLE u (id INT NOT NULL, v INT)");
  Exec("CREATE UNIQUE INDEX u_id ON u (id)");
  Exec("INSERT INTO u VALUES (1, 10), (2, 20), (3, 30)");
  // In rid order, id 1 moves onto the still-present id 2; only the
  // statement's final state counts.
  Exec("UPDATE u SET id = id + 1");
  ExpectRowsAndIndexAgree("u", {Row({Value::Int(2), Value::Int(10)}),
                                Row({Value::Int(3), Value::Int(20)}),
                                Row({Value::Int(4), Value::Int(30)})});

  Exec("CREATE TABLE w (id INT NOT NULL, v INT)");
  Exec("CREATE UNIQUE INDEX w_id ON w (id)");
  Exec("INSERT INTO w VALUES (1, 10), (2, 20), (3, 30)");
  Exec("UPDATE w SET id = 4 - id");
  ExpectRowsAndIndexAgree("w", {Row({Value::Int(3), Value::Int(10)}),
                                Row({Value::Int(2), Value::Int(20)}),
                                Row({Value::Int(1), Value::Int(30)})});
}

TEST_F(DmlTest, FailedInsertLeavesNoKeyInAnEarlierIndex) {
  // The primary-key index takes the new key before the second unique
  // index (Z_CODE sorts after the key's index) rejects the row.
  Exec("CREATE TABLE m (id INT PRIMARY KEY, v INT NOT NULL)");
  Exec("CREATE UNIQUE INDEX z_code ON m (v)");
  Exec("INSERT INTO m VALUES (1, 10)");
  Result<ResultSet> r = db_.Execute("INSERT INTO m VALUES (2, 10)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  Exec("INSERT INTO m VALUES (2, 20)");
  ExpectRowsAndIndexAgree("m", {Row({Value::Int(1), Value::Int(10)}),
                                Row({Value::Int(2), Value::Int(20)})});
}

TEST_F(DmlTest, MultiRowInsertIsAtomic) {
  Exec("CREATE TABLE a (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO a VALUES (5, 50)");
  Result<ResultSet> r =
      db_.Execute("INSERT INTO a VALUES (1, 10), (2, 20), (5, 99), (6, 60)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  ExpectRowsAndIndexAgree("a", {Row({Value::Int(5), Value::Int(50)})});

  // A NOT NULL failure on the third row undoes the first two.
  Exec("CREATE TABLE n (x INT NOT NULL)");
  r = db_.Execute("INSERT INTO n VALUES (1), (2), (NULL), (4)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("NOT NULL"), std::string::npos);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM n")[0][0], Value::Int(0));
}

TEST_F(DmlTest, MultiRowUpdateIsAtomic) {
  Exec("CREATE TABLE a (id INT PRIMARY KEY, v INT)");
  std::string values;
  std::vector<Row> original;
  for (int i = 1; i <= 10; ++i) {
    values += std::string(i > 1 ? ", " : "") + "(" + std::to_string(i) +
              ", " + std::to_string(i * 10) + ")";
    original.push_back(Row({Value::Int(i), Value::Int(i * 10)}));
  }
  Exec("INSERT INTO a VALUES " + values);
  // Every row moves, and rows 5 and 10 both move to 110: the new keys
  // collide only after rows 1-9's have gone in.
  Result<ResultSet> r = db_.Execute(
      "UPDATE a SET id = CASE WHEN id = 5 THEN 110 ELSE id + 100 END, "
      "v = v + 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  ExpectRowsAndIndexAgree("a", original);
}

TEST_F(DmlTest, ExplainAnalyzeDeleteUsesTheIndexAndDeletes) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  std::string values;
  for (int i = 0; i < 2000; ++i) {
    values += std::string(i > 0 ? ", " : "") + "(" + std::to_string(i) +
              ", " + std::to_string(i % 17) + ")";
  }
  Exec("INSERT INTO t VALUES " + values);
  Exec("ANALYZE t");

  std::string report = Explain("EXPLAIN ANALYZE DELETE FROM t WHERE id = 5");
  EXPECT_NE(report.find("ISCAN"), std::string::npos) << report;
  EXPECT_EQ(ReportNumber(report, "rows changed: "), 1) << report;
  EXPECT_GT(ReportNumber(report, "index node visits: "), 0) << report;
  long long reads = ReportNumber(report, "buffer pool: ");
  EXPECT_GE(reads, 1) << report;
  EXPECT_LE(reads, 4) << report;  // a full scan reads every page
  EXPECT_TRUE(Q("SELECT v FROM t WHERE id = 5").empty());
  EXPECT_EQ(Q("SELECT COUNT(*) FROM t")[0][0], Value::Int(1999));

  // Plain EXPLAIN forms show the query of the changes without running it.
  std::string plan = Explain("EXPLAIN UPDATE t SET v = 0 WHERE id = 7");
  EXPECT_NE(plan.find("ISCAN"), std::string::npos) << plan;
  std::string qgm = Explain("EXPLAIN QGM INSERT INTO t VALUES (9000, 1)");
  EXPECT_NE(qgm.find("VALUES"), std::string::npos) << qgm;
  std::string verbose =
      Explain("EXPLAIN VERBOSE DELETE FROM t WHERE v IN (SELECT v FROM t)");
  EXPECT_NE(verbose.find("== Rewrite rule firings =="), std::string::npos);
  EXPECT_EQ(Q("SELECT v FROM t WHERE id = 7")[0][0], Value::Int(7));
  EXPECT_EQ(Q("SELECT COUNT(*) FROM t")[0][0], Value::Int(1999));
}

TEST_F(DmlTest, DmlRunsThroughEveryPhase) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)");
  for (const std::string sql :
       {"INSERT INTO t VALUES (4, 4)", "UPDATE t SET v = v + 1 WHERE v > 2",
        "INSERT INTO t SELECT id + 10, v FROM t",
        "DELETE FROM t WHERE id = 2"}) {
    Exec(sql);
    const QueryMetrics& m = db_.last_metrics();
    EXPECT_GT(m.bind_us, 0) << sql;
    EXPECT_GT(m.optimize_us, 0) << sql;
    EXPECT_GT(m.execute_us, 0) << sql;
  }
  EXPECT_GT(db_.last_metrics().index_node_visits, 0u);
}

TEST_F(DmlTest, AdmissionRejectsDmlLikeSelect) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 1), (2, 2)");
  Exec("SET QUERY_MEMORY = 8 MB");
  Exec("SET ADMISSION_MEMORY = 1 MB");
  for (const std::string sql :
       {"SELECT COUNT(*) FROM t", "INSERT INTO t VALUES (3, 3)",
        "UPDATE t SET v = 0", "DELETE FROM t"}) {
    Result<ResultSet> r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kAborted) << sql;
    EXPECT_NE(r.status().message().find("admission rejected"),
              std::string::npos)
        << sql;
  }
  Exec("SET ADMISSION_MEMORY = DEFAULT");
  Exec("SET QUERY_MEMORY = DEFAULT");
  EXPECT_EQ(Sorted(Q("SELECT id, v FROM t")),
            Sorted({Row({Value::Int(1), Value::Int(1)}),
                    Row({Value::Int(2), Value::Int(2)})}));
}

TEST_F(DmlTest, InsertValuesHonoursTheStatementTimeout) {
  Exec("CREATE TABLE t (id INT, a INT, b DOUBLE, s STRING)");
  std::string sql = "INSERT INTO t VALUES ";
  for (int i = 0; i < 5000; ++i) {
    sql += std::string(i > 0 ? ", " : "") + "(" + std::to_string(i) + ", " +
           std::to_string(i % 97) + ", " + std::to_string(i) + ".5, 'row" +
           std::to_string(i) + "')";
  }
  Exec("SET STATEMENT_TIMEOUT_MS = 1");
  Result<ResultSet> r = db_.Execute(sql);
  Exec("SET STATEMENT_TIMEOUT_MS = DEFAULT");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout) << r.status().ToString();
  EXPECT_EQ(Q("SELECT COUNT(*) FROM t")[0][0], Value::Int(0));
  // Without the deadline the same statement goes in whole.
  Exec(sql);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM t")[0][0], Value::Int(5000));
}

TEST_F(DmlTest, UpdateHonoursTheStatementTimeoutWhileItChangesRows) {
  ASSERT_TRUE(db_.storage()
                  .attachment_kinds()
                  .Register("SLOW",
                            [](const IndexDef& def, const TableSchema&)
                                -> Result<std::unique_ptr<Attachment>> {
                              return std::unique_ptr<Attachment>(
                                  new SlowAttachment(def));
                            })
                  .ok());
  Exec("CREATE TABLE u (id INT NOT NULL, v INT)");
  Exec("CREATE UNIQUE INDEX u_id ON u (id)");
  Exec("CREATE INDEX u_slow ON u (v) USING SLOW");
  std::string values;
  std::vector<Row> original;
  for (int i = 1; i <= 300; ++i) {
    values += std::string(i > 1 ? ", " : "") + "(" + std::to_string(i) +
              ", " + std::to_string(i * 10) + ")";
    original.push_back(Row({Value::Int(i), Value::Int(i * 10)}));
  }
  Exec("INSERT INTO u VALUES " + values);
  Exec("ANALYZE u");  // so point lookups pick the unique index
  auto* slow = dynamic_cast<SlowAttachment*>(*db_.storage().GetIndex("u_slow"));
  ASSERT_NE(slow, nullptr);
  slow->slow = true;
  Exec("SET STATEMENT_TIMEOUT_MS = 150");
  Result<ResultSet> r = db_.Execute("UPDATE u SET id = id + 1, v = v + 1");
  Exec("SET STATEMENT_TIMEOUT_MS = DEFAULT");
  slow->slow = false;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout) << r.status().ToString();
  // The deadline passed while new keys went in, and everything came back.
  EXPECT_GT(slow->slow_inserts, 0);
  EXPECT_EQ(slow->keys, 300);
  ExpectRowsAndIndexAgree("u", original);
}

TEST_F(DmlTest, ParallelDmlScanFillsRidsUnderGather) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, k INT)");
  std::string values;
  for (int i = 0; i < 3000; ++i) {
    values += std::string(i > 0 ? ", " : "") + "(" + std::to_string(i) +
              ", " + (i % 3 == 0 ? std::string("NULL") : std::to_string(i)) +
              ")";
  }
  Exec("INSERT INTO t VALUES " + values);
  Exec("ANALYZE t");
  Exec("SET PARALLELISM = 4");
  std::string report =
      Explain("EXPLAIN ANALYZE UPDATE t SET k = -k WHERE k > 100");
  EXPECT_NE(report.find("GATHER workers=4"), std::string::npos) << report;
  EXPECT_EQ(ReportNumber(report, "rows changed: "), 1933) << report;
  // Every column read: morsel clones decode whole rows and append rids.
  report = Explain("EXPLAIN ANALYZE DELETE FROM t WHERE k IS NULL AND id >= 0");
  EXPECT_NE(report.find("GATHER workers=4"), std::string::npos) << report;
  EXPECT_EQ(ReportNumber(report, "rows changed: "), 1000) << report;
  Exec("SET PARALLELISM = DEFAULT");
  EXPECT_EQ(Q("SELECT COUNT(*), MIN(k) FROM t")[0],
            Row({Value::Int(2000), Value::Int(-2999)}));
}

// ---------------------------------------------------------------------------
// Corpus: every statement on a fresh copy of one seeded database, under
// every combination of rewrite, parallelism, batch size and kernels, must
// change the tables exactly as the serial, rewrite-off run does.
// ---------------------------------------------------------------------------

struct Config {
  int rewrite;
  int parallelism;
  int batch_size;
  int vectorize;
  std::string Label() const {
    return "REWRITE_ENABLED=" + std::to_string(rewrite) +
           " PARALLELISM=" + std::to_string(parallelism) +
           " BATCH_SIZE=" + std::to_string(batch_size) +
           " VECTORIZE=" + std::to_string(vectorize);
  }
};

/// What a statement did: its affected-row count (or error code) and the
/// sorted contents of every table afterwards.
struct Outcome {
  bool ok = false;
  int64_t affected = 0;
  StatusCode code = StatusCode::kOk;
  std::vector<Row> t, r;
  bool operator==(const Outcome& o) const {
    return ok == o.ok && affected == o.affected && code == o.code &&
           t == o.t && r == o.r;
  }
};

void Seed(Database* db) {
  auto run = [db](const std::string& sql) {
    Result<ResultSet> r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  run("CREATE TABLE t (id INT PRIMARY KEY, k INT, grp INT, v DOUBLE, "
      "s STRING)");
  run("CREATE INDEX t_k ON t (k)");
  run("CREATE TABLE r (id INT PRIMARY KEY, tag INT)");
  // 600 rows, with NULLs in every nullable column.
  std::string values;
  for (int i = 0; i < 600; ++i) {
    if (i % 300 == 0) values.clear();
    values += std::string(i % 300 > 0 ? ", " : "") + "(" + std::to_string(i) +
              ", " + (i % 3 == 0 ? "NULL" : std::to_string((i * 37) % 1000)) +
              ", " + (i % 11 == 0 ? "NULL" : std::to_string(i % 7)) + ", " +
              (i % 5 == 0 ? "NULL" : std::to_string(i) + ".25") + ", " +
              (i % 13 == 0 ? "NULL" : "'s" + std::to_string(i % 50) + "'") +
              ")";
    if (i % 300 == 299) run("INSERT INTO t VALUES " + values);
  }
  values.clear();
  for (int i = 0; i < 40; ++i) {
    values += std::string(i > 0 ? ", " : "") + "(" + std::to_string(i) + ", " +
              (i % 4 == 0 ? "NULL" : std::to_string((i * 53) % 1000)) + ")";
  }
  run("INSERT INTO r VALUES " + values);
  run("CREATE VIEW tv AS SELECT id, k, grp FROM t WHERE grp < 4");
  run("CREATE VIEW tk (ident, kk) AS SELECT id, k FROM t "
      "WHERE k IS NOT NULL");
  run("ANALYZE");
}

Outcome RunOn(const Config& c, const std::string& sql) {
  Database db;
  Seed(&db);
  auto set = [&db](const std::string& sql) {
    Result<ResultSet> r = db.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  set("SET REWRITE_ENABLED = " + std::to_string(c.rewrite));
  set("SET PARALLELISM = " + std::to_string(c.parallelism));
  set("SET BATCH_SIZE = " + std::to_string(c.batch_size));
  set("SET VECTORIZE = " + std::to_string(c.vectorize));
  // Low enough that every scan of t gathers at PARALLELISM = 4.
  set("SET PARALLEL_MIN_ROWS = 100");
  Outcome out;
  Result<ResultSet> r = db.Execute(sql);
  out.ok = r.ok();
  out.affected = r.ok() ? r->affected_rows() : -1;
  out.code = r.status().code();
  out.t = Sorted(db.Query("SELECT * FROM t").TakeValue());
  out.r = Sorted(db.Query("SELECT * FROM r").TakeValue());
  return out;
}

TEST(DmlCorpusTest, EveryConfigurationChangesTheSameRows) {
  const std::vector<std::string> corpus = {
      // NULL-dense predicates (three-valued: NULL k never qualifies).
      "DELETE FROM t WHERE k IS NULL",
      "UPDATE t SET k = k + 1 WHERE grp IS NULL OR k < 100",
      "UPDATE t SET v = v * 2, s = s || 'x' WHERE NOT (k > 500)",
      // Reads every column, so the scan decodes whole rows into the batch
      // and appends the rid.
      "UPDATE t SET v = v + id + k, s = s || 'y' WHERE grp <> 3",
      "DELETE FROM t WHERE k NOT IN (SELECT tag FROM r)",
      // Updatable views with a WHERE (merged into the query by rewrite).
      "UPDATE tv SET k = k * 2 WHERE id % 3 = 1",
      "DELETE FROM tv WHERE k IS NULL OR grp = 2",
      "UPDATE tk SET kk = NULL WHERE ident < 150",
      "INSERT INTO tv VALUES (5000, 1, 1), (5001, NULL, 6)",
      // IN and EXISTS subqueries, over other tables and over the target.
      "DELETE FROM t WHERE id IN (SELECT id FROM t WHERE grp = 3)",
      "UPDATE t SET grp = 99 WHERE EXISTS "
      "(SELECT 1 FROM r WHERE r.id = t.grp AND r.tag > 100)",
      "DELETE FROM t WHERE k IN (SELECT tag FROM r)",
      "UPDATE t SET v = (SELECT MAX(tag) FROM r WHERE r.id = t.grp) "
      "WHERE id < 300",
      // Indexed keys updated while their index drives the read (ISCAN on
      // t_k and on the primary key), and the same keys updated by ranges
      // the optimizer scans.
      "UPDATE t SET k = k + 1 WHERE k = 37",
      "UPDATE t SET id = id + 10000 WHERE id = 7",
      "UPDATE t SET k = k + 1000 WHERE k > 100 AND k < 400",
      "UPDATE t SET id = id + 10000 WHERE id < 200",
      // INSERT ... SELECT from the target itself, and plain VALUES.
      "INSERT INTO t SELECT id + 5000, k, grp, v, s FROM t WHERE grp = 1",
      "INSERT INTO t (id, k) VALUES (9001, NULL), (9002, -5), (9003, 2 * 3)",
      // Failures change nothing.
      "UPDATE t SET id = 1 WHERE id = 2",
      "INSERT INTO t (k) VALUES (1)",
  };
  std::vector<Config> configs;
  for (int rewrite : {0, 1}) {
    for (int parallelism : {1, 4}) {
      for (int batch : {1, 7, 1024}) {
        for (int vectorize : {0, 1}) {
          configs.push_back(Config{rewrite, parallelism, batch, vectorize});
        }
      }
    }
  }
  // The reference is the serial, rewrite-off run at the default batch
  // size with kernels on.
  const size_t reference =
      std::find_if(configs.begin(), configs.end(),
                   [](const Config& c) {
                     return c.rewrite == 0 && c.parallelism == 1 &&
                            c.batch_size == 1024 && c.vectorize == 1;
                   }) -
      configs.begin();
  for (const std::string& sql : corpus) {
    std::vector<Outcome> got;
    for (const Config& c : configs) got.push_back(RunOn(c, sql));
    const Outcome& expected = got[reference];
    for (size_t i = 0; i < configs.size(); ++i) {
      EXPECT_TRUE(got[i] == expected)
          << sql << "\n  under " << configs[i].Label() << "\n  affected "
          << got[i].affected << " (reference " << expected.affected
          << "), rows t " << got[i].t.size() << " (reference "
          << expected.t.size() << ")";
    }
  }
}

}  // namespace
}  // namespace starburst
