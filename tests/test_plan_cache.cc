#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/plan_cache.h"
#include "engine/settings.h"
#include "exec/plan_refiner.h"

namespace starburst {
namespace {

// ---------------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------------

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Run("CREATE TABLE t (id INT, grp INT, payload VARCHAR)");
    Run("CREATE TABLE other (x INT)");
    for (int i = 0; i < 50; ++i) {
      Run("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
          std::to_string(i % 5) + ", 'p" + std::to_string(i) + "')");
    }
    Run("INSERT INTO other VALUES (1)");
  }

  ResultSet Run(const std::string& sql) {
    Result<ResultSet> rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
    return rs.ok() ? rs.TakeValue() : ResultSet::Message("error");
  }

  /// Rows of `rs` stringified and sorted — order-insensitive comparison.
  static std::vector<std::string> Canon(const ResultSet& rs) {
    std::vector<std::string> out;
    for (const Row& r : rs.rows()) {
      std::string line;
      for (size_t i = 0; i < r.size(); ++i) {
        line += r[i].ToString();
        line += '|';
      }
      out.push_back(std::move(line));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  const QueryMetrics& M() const { return db_.last_metrics(); }

  Database db_;
};

// ---------------------------------------------------------------------------
// Transparent caching through Execute
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, RepeatedExecuteHitsAndSkipsCompilation) {
  const std::string q = "SELECT grp, COUNT(*) FROM t GROUP BY grp";
  ResultSet first = Run(q);
  EXPECT_FALSE(M().plan_cache_hit);
  EXPECT_GT(M().bind_us, 0.0);
  uint64_t misses = M().plan_cache.misses;
  EXPECT_GE(misses, 1u);

  ResultSet second = Run(q);
  EXPECT_TRUE(M().plan_cache_hit);
  EXPECT_EQ(M().plan_cache.hits, 1u);
  EXPECT_EQ(M().plan_cache.misses, misses);  // no new miss
  // The whole compile half is skipped: its phase timings stay zero.
  EXPECT_EQ(M().parse_us, 0.0);
  EXPECT_EQ(M().bind_us, 0.0);
  EXPECT_EQ(M().rewrite_us, 0.0);
  EXPECT_EQ(M().optimize_us, 0.0);
  EXPECT_EQ(M().refine_us, 0.0);
  EXPECT_GT(M().execute_us, 0.0);
  EXPECT_EQ(Canon(first), Canon(second));
}

TEST_F(PlanCacheTest, NormalizationSharesOneEntry) {
  Run("SELECT id FROM t WHERE grp = 3");
  ResultSet hit = Run("select   id\nfrom T where GRP = 3;");
  EXPECT_TRUE(M().plan_cache_hit);
  EXPECT_EQ(M().plan_cache_entries, 1u);
  // Literal case stays significant inside quoted strings.
  Run("SELECT id FROM t WHERE payload = 'p1'");
  Run("SELECT id FROM t WHERE payload = 'P1'");
  EXPECT_FALSE(M().plan_cache_hit);
}

TEST_F(PlanCacheTest, CachedPlanSeesFreshData) {
  const std::string q = "SELECT COUNT(*) FROM t";
  ResultSet before = Run(q);
  EXPECT_EQ(before.rows()[0][0].int_value(), 50);
  Run("INSERT INTO t VALUES (99, 9, 'x')");
  ResultSet after = Run(q);
  // DML neither invalidates nor staleness-poisons: the cached plan
  // re-scans storage on every execution.
  EXPECT_TRUE(M().plan_cache_hit);
  EXPECT_EQ(after.rows()[0][0].int_value(), 51);
}

TEST_F(PlanCacheTest, KnobChangeMissesInsteadOfInvalidating) {
  const std::string q = "SELECT id FROM t WHERE grp = 1";
  // The default parallelism is the host's core count, so both values
  // below are taken from it rather than written as constants.
  const size_t default_parallelism =
      exec::ExecOptions::DefaultParallelism();
  Run(q);
  // Setting a knob to the value already in effect is not a knob change.
  Run("SET PARALLELISM = " + std::to_string(default_parallelism));
  Run(q);
  EXPECT_TRUE(M().plan_cache_hit);  // same knob values, same key
  Run("SET PARALLELISM = " + std::to_string(default_parallelism + 1));
  Run(q);
  EXPECT_FALSE(M().plan_cache_hit);  // different knob fingerprint
  EXPECT_EQ(M().plan_cache.invalidations, 0u);
  EXPECT_EQ(M().plan_cache_entries, 2u);  // both entries live side by side
  Run("SET PARALLELISM = DEFAULT");
  Run(q);
  EXPECT_TRUE(M().plan_cache_hit);  // the original entry survived
}

TEST_F(PlanCacheTest, LruEvictsPastCapacity) {
  Run("SET PLAN_CACHE_SIZE = 2");
  Run("SELECT id FROM t WHERE grp = 0");
  Run("SELECT id FROM t WHERE grp = 1");
  Run("SELECT id FROM t WHERE grp = 2");
  EXPECT_EQ(M().plan_cache_entries, 2u);
  EXPECT_GE(M().plan_cache.evictions, 1u);
  // grp=0 was least recently used and evicted; grp=2 is resident.
  Run("SELECT id FROM t WHERE grp = 2");
  EXPECT_TRUE(M().plan_cache_hit);
  Run("SELECT id FROM t WHERE grp = 0");
  EXPECT_FALSE(M().plan_cache_hit);
}

TEST_F(PlanCacheTest, SizeZeroDisablesCaching) {
  Run("SELECT id FROM t WHERE grp = 1");
  Run("SET PLAN_CACHE_SIZE = 0");
  EXPECT_EQ(db_.plan_cache().size(), 0u);  // clears resident entries
  Run("SELECT id FROM t WHERE grp = 1");
  EXPECT_FALSE(M().plan_cache_hit);
  EXPECT_GT(M().bind_us, 0.0);
  Run("SELECT id FROM t WHERE grp = 1");
  EXPECT_FALSE(M().plan_cache_hit);
}

// ---------------------------------------------------------------------------
// Invalidation matrix: what must (and must not) drop a cached plan
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, UnrelatedDdlDoesNotInvalidate) {
  const std::string q = "SELECT id FROM t WHERE grp = 1";
  Run(q);
  Run("CREATE TABLE unrelated (y INT)");
  Run("CREATE INDEX other_x ON other (x)");
  Run("DROP TABLE unrelated");
  Run("ANALYZE other");
  Run(q);
  EXPECT_TRUE(M().plan_cache_hit);
  EXPECT_EQ(M().plan_cache.invalidations, 0u);
}

TEST_F(PlanCacheTest, DropAndRecreateTableInvalidates) {
  const std::string q = "SELECT COUNT(*) FROM other";
  Run(q);
  Run("DROP TABLE other");
  Run("CREATE TABLE other (x INT, z INT)");
  ResultSet rs = Run(q);
  EXPECT_FALSE(M().plan_cache_hit);
  EXPECT_GE(M().plan_cache.invalidations, 1u);
  EXPECT_EQ(rs.rows()[0][0].int_value(), 0);  // fresh plan, fresh table
}

TEST_F(PlanCacheTest, CreateIndexOnReferencedTableInvalidates) {
  const std::string q = "SELECT id FROM t WHERE id = 7";
  Run(q);
  Run("CREATE INDEX t_id ON t (id)");
  Run(q);
  // Access paths changed; the plan must be rebuilt (and may now use the
  // index).
  EXPECT_FALSE(M().plan_cache_hit);
  EXPECT_GE(M().plan_cache.invalidations, 1u);

  Run(q);
  EXPECT_TRUE(M().plan_cache_hit);
  Run("DROP INDEX t_id");
  Run(q);
  EXPECT_FALSE(M().plan_cache_hit);
  EXPECT_GE(M().plan_cache.invalidations, 2u);
}

TEST_F(PlanCacheTest, AnalyzeInvalidates) {
  const std::string q = "SELECT grp FROM t WHERE id < 10";
  Run(q);
  Run("ANALYZE t");
  Run(q);
  EXPECT_FALSE(M().plan_cache_hit);
  EXPECT_GE(M().plan_cache.invalidations, 1u);
}

TEST_F(PlanCacheTest, ViewDependenciesAreTransitive) {
  Run("CREATE VIEW low AS SELECT id, grp FROM t WHERE id < 10");
  const std::string q = "SELECT COUNT(*) FROM low";
  Run(q);
  Run(q);
  EXPECT_TRUE(M().plan_cache_hit);
  // DDL on the *underlying table* invalidates the view query.
  Run("CREATE INDEX t_grp ON t (grp)");
  Run(q);
  EXPECT_FALSE(M().plan_cache_hit);
  EXPECT_GE(M().plan_cache.invalidations, 1u);
  // Re-defining the view invalidates too.
  Run(q);
  EXPECT_TRUE(M().plan_cache_hit);
  Run("DROP VIEW low");
  Run("CREATE VIEW low AS SELECT id, grp FROM t WHERE id < 20");
  ResultSet rs = Run(q);
  EXPECT_FALSE(M().plan_cache_hit);
  EXPECT_EQ(rs.rows()[0][0].int_value(), 20);
}

// ---------------------------------------------------------------------------
// Prepared statements and ? parameters
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, PreparedStatementBindsParams) {
  Result<Database::PreparedHandle> ps =
      db_.Prepare("SELECT id, payload FROM t WHERE grp = ? AND id >= ?");
  ASSERT_TRUE(ps.ok()) << ps.status().ToString();

  Result<ResultSet> got =
      db_.ExecutePrepared(*ps, {Value::Int(3), Value::Int(10)});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ResultSet want =
      Run("SELECT id, payload FROM t WHERE grp = 3 AND id >= 10");
  EXPECT_EQ(Canon(*got), Canon(want));
  EXPECT_FALSE(got->rows().empty());

  // Rebind different values on the same handle: no recompilation.
  got = db_.ExecutePrepared(*ps, {Value::Int(1), Value::Int(40)});
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(db_.last_metrics().plan_cache_hit);
  want = Run("SELECT id, payload FROM t WHERE grp = 1 AND id >= 40");
  EXPECT_EQ(Canon(*got), Canon(want));
}

TEST_F(PlanCacheTest, NullParameterBehavesLikeNullLiteral) {
  Result<Database::PreparedHandle> ps =
      db_.Prepare("SELECT id FROM t WHERE grp = ?");
  ASSERT_TRUE(ps.ok());
  Result<ResultSet> got = db_.ExecutePrepared(*ps, {Value::Null()});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ResultSet want = Run("SELECT id FROM t WHERE grp = NULL");
  EXPECT_EQ(Canon(*got), Canon(want));
  EXPECT_TRUE(got->rows().empty());  // NULL = anything is not true
}

TEST_F(PlanCacheTest, ParamArityIsChecked) {
  Result<Database::PreparedHandle> ps =
      db_.Prepare("SELECT id FROM t WHERE grp = ?");
  ASSERT_TRUE(ps.ok());
  EXPECT_FALSE(db_.ExecutePrepared(*ps, {}).ok());
  EXPECT_FALSE(
      db_.ExecutePrepared(*ps, {Value::Int(1), Value::Int(2)}).ok());
  EXPECT_FALSE(db_.ExecutePrepared(nullptr, {}).ok());
}

TEST_F(PlanCacheTest, ParamsRejectedOutsidePreparedExecution) {
  Result<ResultSet> rs = db_.Execute("SELECT id FROM t WHERE grp = ?");
  ASSERT_FALSE(rs.ok());
  EXPECT_NE(rs.status().message().find("ExecutePrepared"), std::string::npos);
  // Non-SELECTs cannot be prepared.
  EXPECT_FALSE(db_.Prepare("INSERT INTO t VALUES (1, 1, 'x')").ok());
}

TEST_F(PlanCacheTest, StalePreparedHandleRecompilesTransparently) {
  Result<Database::PreparedHandle> ps =
      db_.Prepare("SELECT COUNT(*) FROM t WHERE id = ?");
  ASSERT_TRUE(ps.ok());
  ASSERT_TRUE(db_.ExecutePrepared(*ps, {Value::Int(7)}).ok());

  Run("CREATE INDEX t_id2 ON t (id)");  // invalidates the handle
  Result<ResultSet> got = db_.ExecutePrepared(*ps, {Value::Int(7)});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(db_.last_metrics().plan_cache_hit);
  EXPECT_GE(db_.last_metrics().plan_cache.invalidations, 1u);
  EXPECT_EQ(got->rows()[0][0].int_value(), 1);

  // The recompiled handle is fresh again.
  got = db_.ExecutePrepared(*ps, {Value::Int(8)});
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(db_.last_metrics().plan_cache_hit);
}

TEST_F(PlanCacheTest, DifferentialPreparedVsLiteralCorpus) {
  struct Case {
    std::string prepared;
    std::string literal;
    std::vector<Value> params;
  };
  const std::vector<Case> corpus = {
      {"SELECT id FROM t WHERE grp = ? ORDER BY id",
       "SELECT id FROM t WHERE grp = 2 ORDER BY id",
       {Value::Int(2)}},
      {"SELECT grp, COUNT(*) FROM t WHERE id < ? GROUP BY grp",
       "SELECT grp, COUNT(*) FROM t WHERE id < 30 GROUP BY grp",
       {Value::Int(30)}},
      {"SELECT id + ? FROM t WHERE payload = ?",
       "SELECT id + 100 FROM t WHERE payload = 'p4'",
       {Value::Int(100), Value::String("p4")}},
      {"SELECT a.id FROM t a, t b WHERE a.id = b.id AND a.grp = ?",
       "SELECT a.id FROM t a, t b WHERE a.id = b.id AND a.grp = 4",
       {Value::Int(4)}},
      {"SELECT id FROM t WHERE grp = ? AND id IN "
       "(SELECT x FROM other) ",
       "SELECT id FROM t WHERE grp = 1 AND id IN (SELECT x FROM other)",
       {Value::Int(1)}},
      {"SELECT id FROM t WHERE ? IS NULL OR grp = ?",
       "SELECT id FROM t WHERE NULL IS NULL OR grp = 0",
       {Value::Null(), Value::Int(0)}},
  };
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    Run("SET PARALLELISM = " + std::to_string(parallelism));
    for (const Case& c : corpus) {
      Result<Database::PreparedHandle> ps = db_.Prepare(c.prepared);
      ASSERT_TRUE(ps.ok()) << c.prepared << ": " << ps.status().ToString();
      EXPECT_EQ((*ps)->num_params, c.params.size());
      Result<ResultSet> got = db_.ExecutePrepared(*ps, c.params);
      ASSERT_TRUE(got.ok()) << c.prepared << ": " << got.status().ToString();
      ResultSet want = Run(c.literal);
      EXPECT_EQ(Canon(*got), Canon(want))
          << c.prepared << " (parallelism " << parallelism << ")";
    }
  }
}

TEST_F(PlanCacheTest, PrepareSharesCacheWithExecute) {
  const std::string q = "SELECT id FROM t WHERE grp = 2";
  Run(q);
  Result<Database::PreparedHandle> ps = db_.Prepare(q);
  ASSERT_TRUE(ps.ok());
  EXPECT_TRUE(db_.last_metrics().plan_cache_hit);  // reused Execute's entry
  Result<Database::PreparedHandle> again = db_.Prepare(q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ps->get(), again->get());  // same shared artifact
}

// ---------------------------------------------------------------------------
// The settings table: the cache key, validation, concurrent SET
// ---------------------------------------------------------------------------

/// An in-range value other than `s`'s default, as SQL spells it. The
/// values a SELECT cannot run under (a 1 ms deadline, a 1-byte admission
/// budget) are replaced by harmless non-defaults.
std::string NonDefaultValue(const Setting& s) {
  static const std::map<std::string, std::string> kHarmless = {
      {"STATEMENT_TIMEOUT_MS", "60000"}, {"ADMISSION_MEMORY", "1 GB"}};
  if (auto it = kHarmless.find(s.name); it != kHarmless.end()) {
    return it->second;
  }
  SettingValue d = DefaultSettingValue(s);
  switch (s.kind) {
    case SettingKind::kEnum:
      return s.labels[(d.number + 1) % s.labels.size()];
    case SettingKind::kList:
      return "'merge'";
    default:
      return std::to_string(d.number + 1 <= s.max ? d.number + 1
                                                  : d.number - 1);
  }
}

TEST_F(PlanCacheTest, EverySettingKeysTheCacheExactlyWhenItAffectsPlans) {
  const std::string q = "SELECT grp, COUNT(*) FROM t GROUP BY grp";
  ResultSet reference = Run(q);
  for (const Setting& s : SettingsTable()) {
    const std::string name = s.name;
    Run("SET " + name + " = " + NonDefaultValue(s));
    ResultSet got = Run(q);
    EXPECT_EQ(M().plan_cache_hit, !s.affects_plan) << name;
    EXPECT_EQ(Canon(got), Canon(reference)) << name;
    Run("SET " + name + " = DEFAULT");
    Run(q);
    EXPECT_TRUE(M().plan_cache_hit) << name << ": DEFAULT keeps the entry";
  }
}

TEST_F(PlanCacheTest, SetRejectsOutOfRangeValuesAndKeepsThePrevious) {
  // No statement but SET runs until the checks below prove every value is
  // back in range: a PARALLELISM of 2^30 must never reach a plan.
  Run("SET PARALLELISM = 3");
  Run("SET BATCH_SIZE = 64");
  Run("SET SORT_MEMORY = 64 KB");
  for (const char* bad :
       {"SET PARALLELISM = 1 G", "SET PARALLELISM = 257",
        "SET PARALLELISM = -1", "SET BATCH_SIZE = 2000000000",
        "SET BATCH_SIZE = 65537", "SET BATCH_SIZE = 0", "SET BATCH_SIZE = 1 KB",
        "SET SORT_MEMORY = 9000000000 GB", "SET SORT_MEMORY = -1",
        "SET VECTORIZE = 2", "SET STATEMENT_PRIORITY = URGENT",
        "SET STATEMENT_PRIORITY = 1", "SET EXEC.CACHE_MODE = 5",
        "SET REWRITE.ENABLED_CLASSES = 3", "SET BATCH_SIZE = 'x'",
        "SET STATEMENT_TIMEOUT_MS = 2147483648", "SET NO_SUCH.OPTION = 1"}) {
    Result<ResultSet> r = db_.Execute(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kSemanticError) << bad;
  }
  ASSERT_EQ(db_.options().exec.parallelism, 3u);
  ASSERT_EQ(db_.options().exec.batch_size, 64u);
  EXPECT_EQ(db_.options().exec.sort_memory_bytes, 64u << 10);
  EXPECT_TRUE(db_.options().exec.vectorize);
  EXPECT_EQ(db_.options().statement_timeout_ms, 0);
  // The range ends themselves are accepted.
  EXPECT_EQ(Run("SET BATCH_SIZE = 65536").message(), "SET BATCH_SIZE = 65536");
  EXPECT_EQ(Run("SET PARALLELISM = 256").message(), "SET PARALLELISM = 256");
  Run("SET PARALLELISM = 2");
  EXPECT_EQ(Canon(Run("SELECT COUNT(*) FROM t")).size(), 1u);
}

TEST_F(PlanCacheTest, ConcurrentRunsOfOneCachedSelectGetPrivateTrees) {
  const std::string q = "SELECT grp, COUNT(*), SUM(id) FROM t GROUP BY grp";
  const std::vector<std::string> want = Canon(Run(q));
  Run(q);
  ASSERT_TRUE(M().plan_cache_hit);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        Result<ResultSet> r = db_.Execute(q);
        if (!r.ok() || Canon(*r) != want) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  // The shared entry stays cached and was never replaced by a copy.
  Run(q);
  EXPECT_TRUE(M().plan_cache_hit);
  EXPECT_EQ(M().plan_cache_entries, 1u);
}

TEST_F(PlanCacheTest, ConcurrentRunsOfOnePreparedHandleGetPrivateTrees) {
  Result<Database::PreparedHandle> ps =
      db_.Prepare("SELECT COUNT(*), SUM(id) FROM t WHERE grp = ?");
  ASSERT_TRUE(ps.ok());
  // Stale from the start: the first run to check the handle out
  // recompiles it in place while the others run private copies.
  Run("ANALYZE t");
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 300; ++i) {
        int64_t grp = (w + i) % 5;
        Result<ResultSet> r = db_.ExecutePrepared(*ps, {Value::Int(grp)});
        if (!r.ok() || r->rows().size() != 1 ||
            r->rows()[0][0].int_value() != 10 ||
            r->rows()[0][1].int_value() != 10 * grp + 225) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(PlanCacheTest, SetDuringConcurrentSelectsIsRaceFree) {
  const std::string q = "SELECT grp, SUM(id) FROM t WHERE id > 3 GROUP BY grp";
  const std::vector<std::string> want = Canon(Run(q));
  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  std::thread setter([&] {
    for (int i = 0; i < 300; ++i) {
      const std::string batch = i % 2 == 0 ? "7" : "DEFAULT";
      const std::string on = i % 3 == 0 ? "0" : "DEFAULT";
      const std::string sort = i % 4 == 0 ? "1 KB" : "DEFAULT";
      for (const std::string& set :
           {"SET BATCH_SIZE = " + batch, "SET VECTORIZE = " + on,
            "SET SORT_MEMORY = " + sort}) {
        if (!db_.Execute(set).ok()) wrong.fetch_add(1);
      }
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 20 || !done.load(); ++i) {
        Result<ResultSet> got = db_.Execute(q);
        if (!got.ok() || Canon(*got) != want) wrong.fetch_add(1);
      }
    });
  }
  setter.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

// ---------------------------------------------------------------------------
// DROP consistency: catalog and storage must never diverge
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, DropTableCascadesIndexes) {
  Run("CREATE INDEX other_x ON other (x)");
  Run("DROP TABLE other");
  EXPECT_FALSE(db_.catalog().GetTable("other").ok());
  EXPECT_FALSE(db_.catalog().GetIndex("other_x").ok());
  EXPECT_FALSE(db_.storage().GetTable("other").ok());
  EXPECT_FALSE(db_.storage().GetIndex("other_x").ok());
}

TEST_F(PlanCacheTest, DropTableBlockedByDependentView) {
  Run("CREATE VIEW ov AS SELECT x FROM other");
  Result<ResultSet> rs = db_.Execute("DROP TABLE other");
  ASSERT_FALSE(rs.ok());
  EXPECT_NE(rs.status().message().find("OV"), std::string::npos);
  // Nothing was mutated: both layers still serve the table.
  EXPECT_TRUE(db_.catalog().GetTable("other").ok());
  EXPECT_TRUE(db_.storage().GetTable("other").ok());
  EXPECT_EQ(Run("SELECT COUNT(*) FROM ov").rows()[0][0].int_value(), 1);
  Run("DROP VIEW ov");
  Run("DROP TABLE other");  // now unblocked
}

TEST_F(PlanCacheTest, DropViewBlockedByDependentView) {
  Run("CREATE VIEW base_v AS SELECT x FROM other");
  Run("CREATE VIEW top_v AS SELECT x FROM base_v");
  EXPECT_FALSE(db_.Execute("DROP VIEW base_v").ok());
  EXPECT_TRUE(db_.catalog().GetView("base_v").ok());
  Run("DROP VIEW top_v");
  Run("DROP VIEW base_v");
}

TEST_F(PlanCacheTest, InjectedDropTableFailureLeavesNoSkew) {
  Run("CREATE INDEX other_x ON other (x)");
  db_.storage().InjectDropFailure();
  Result<ResultSet> rs = db_.Execute("DROP TABLE other");
  ASSERT_FALSE(rs.ok());
  // The failure hit before any mutation: no layer dropped anything.
  EXPECT_TRUE(db_.catalog().GetTable("other").ok());
  EXPECT_TRUE(db_.catalog().GetIndex("other_x").ok());
  EXPECT_TRUE(db_.storage().GetTable("other").ok());
  EXPECT_TRUE(db_.storage().GetIndex("other_x").ok());
  EXPECT_EQ(Run("SELECT COUNT(*) FROM other").rows()[0][0].int_value(), 1);
  // The injection is one-shot; the retry completes and drops everything.
  Run("DROP TABLE other");
  EXPECT_FALSE(db_.catalog().GetTable("other").ok());
  EXPECT_FALSE(db_.catalog().GetIndex("other_x").ok());
  EXPECT_FALSE(db_.storage().GetIndex("other_x").ok());
}

TEST_F(PlanCacheTest, InjectedDropIndexFailureLeavesNoSkew) {
  Run("CREATE INDEX other_x ON other (x)");
  db_.storage().InjectDropFailure();
  ASSERT_FALSE(db_.Execute("DROP INDEX other_x").ok());
  EXPECT_TRUE(db_.catalog().GetIndex("other_x").ok());
  EXPECT_TRUE(db_.storage().GetIndex("other_x").ok());
  Run("DROP INDEX other_x");
  EXPECT_FALSE(db_.catalog().GetIndex("other_x").ok());
  EXPECT_FALSE(db_.storage().GetIndex("other_x").ok());
}

TEST_F(PlanCacheTest, DropOfMissingObjectsFailsCleanly) {
  EXPECT_FALSE(db_.Execute("DROP TABLE nope").ok());
  EXPECT_FALSE(db_.Execute("DROP INDEX nope").ok());
  EXPECT_FALSE(db_.Execute("DROP VIEW nope").ok());
}

// ---------------------------------------------------------------------------
// ExecuteScript per-statement metrics
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, ScriptMetricsReflectLastStatementOnly) {
  // First statement compiles and executes a real query; the last is a
  // SET, which runs no pipeline at all. Without the per-statement reset,
  // the SELECT's phase timings would leak into the script's final
  // metrics.
  Result<ResultSet> rs = db_.ExecuteScript(
      "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp;\n"
      "SET PARALLELISM = 2");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  const QueryMetrics& m = db_.last_metrics();
  EXPECT_GT(m.parse_us, 0.0);  // the SET's own parse time
  EXPECT_EQ(m.bind_us, 0.0);
  EXPECT_EQ(m.optimize_us, 0.0);
  EXPECT_EQ(m.refine_us, 0.0);
  EXPECT_EQ(m.execute_us, 0.0);
  EXPECT_EQ(m.exec_stats.rows_emitted, 0u);
  EXPECT_FALSE(m.plan_cache_hit);
}

TEST_F(PlanCacheTest, ScriptStatementsAttributeOwnParseTime) {
  Result<ResultSet> rs = db_.ExecuteScript(
      "INSERT INTO other VALUES (2);\n"
      "SELECT x FROM other ORDER BY x");
  ASSERT_TRUE(rs.ok());
  const QueryMetrics& m = db_.last_metrics();
  EXPECT_GT(m.parse_us, 0.0);
  EXPECT_GT(m.bind_us, 0.0);       // the SELECT compiled
  EXPECT_EQ(rs->rows().size(), 2u);
}

// ---------------------------------------------------------------------------
// Re-execution correctness under stats collection
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, CachedStatsTreeResetsBetweenRuns) {
  Run("SET COLLECT_OP_STATS = 1");
  // Fingerprint changed relative to SetUp traffic → fresh compile.
  const std::string q = "SELECT COUNT(*) FROM t";
  Run(q);
  ASSERT_NE(M().op_stats, nullptr);
  Run(q);
  EXPECT_TRUE(M().plan_cache_hit);
  ASSERT_NE(M().op_stats, nullptr);
  // Actuals are per-run, not cumulative across cached executions: the
  // root emits exactly one row (the count) each run.
  EXPECT_EQ(M().op_stats->roots().front()->actual.rows_out.load(), 1u);
}

TEST_F(PlanCacheTest, ExplainAnalyzeReportsPlanCacheLine) {
  Run("SELECT id FROM t WHERE grp = 1");
  Run("SELECT id FROM t WHERE grp = 1");
  ResultSet rs = Run("EXPLAIN ANALYZE SELECT id FROM t WHERE grp = 1");
  std::string text;
  for (const Row& r : rs.rows()) text += r[0].string_value() + "\n";
  EXPECT_NE(text.find("plan cache:"), std::string::npos) << text;
  EXPECT_NE(text.find("hits=1"), std::string::npos) << text;
}

}  // namespace
}  // namespace starburst
