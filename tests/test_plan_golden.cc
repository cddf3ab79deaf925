// Golden plans: for a fixed corpus, the chosen plan tree (EXPLAIN PLAN's
// text), the join pairs the enumerator considered and the plans it kept
// must match the checked-in files under tests/golden/ byte for byte.
//
// The corpus covers the join search end to end:
//   - bench_join_enum's chain, star and clique queries, n = 2..8, with
//     composite inners on and off and with Cartesian products allowed;
//   - seeded random join graphs of 3-7 tables whose tables differ in row
//     count, column NDVs and B-tree indexes, so interesting orders fill
//     the enumerator's per-set cap;
//   - a small seeded copy of perfbench's schema running its five adhoc
//     read shapes with fixed literals;
//   - subqueries and an outer join, which reach the JoinMethod STARs from
//     outside the enumerator.
//
// A mismatch writes the full actual text to <name>.actual in the working
// directory and reports the first differing line. To record new expected
// output after a deliberate plan change, copy that file over the golden.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/database.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "qgm/binder.h"
#include "rewrite/rule_engine.h"

#ifndef STARBURST_GOLDEN_DIR
#error "STARBURST_GOLDEN_DIR must name the directory of the golden files"
#endif

namespace starburst {
namespace {

/// splitmix64: a fixed generator, so the corpus is the same on every
/// host and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  std::string path = std::string(STARBURST_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  std::stringstream expected;
  expected << in.rdbuf();
  if (in && expected.str() == actual) return;
  std::string actual_path = name + ".actual";
  std::ofstream(actual_path, std::ios::binary) << actual;
  if (!in) {
    ADD_FAILURE() << "missing golden file " << path << "; actual output in "
                  << actual_path;
    return;
  }
  std::istringstream want(expected.str()), got(actual);
  std::string w, g;
  for (int line = 1;; ++line) {
    bool more_w = static_cast<bool>(std::getline(want, w));
    bool more_g = static_cast<bool>(std::getline(got, g));
    if (!more_w && !more_g) break;
    if (!more_w || !more_g || w != g) {
      ADD_FAILURE() << name << " differs at line " << line << "\n  expected: "
                    << (more_w ? w : "<end of file>") << "\n  actual:   "
                    << (more_g ? g : "<end of file>") << "\nfull output in "
                    << actual_path;
      return;
    }
  }
}

/// Optimizes `sql` against `catalog` after the default rewrite and
/// appends one corpus entry: label, counters, plan tree.
void OptimizeInto(const Catalog& catalog, const std::string& label,
                  const std::string& sql,
                  const optimizer::Optimizer::Options& options,
                  std::string* out) {
  auto parsed = Parser::ParseQueryText(sql);
  ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
  qgm::Binder binder(&catalog);
  auto graph = binder.BindQuery(**parsed);
  ASSERT_TRUE(graph.ok()) << sql << ": " << graph.status().ToString();
  rewrite::RuleEngine engine = rewrite::MakeDefaultRuleEngine();
  ASSERT_TRUE(engine.Run(graph->get(), &catalog).ok()) << sql;
  optimizer::Optimizer opt(&catalog, options);
  auto plan = opt.Optimize(**graph);
  ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  *out += "== " + label + " ==\n" + sql + "\n";
  *out += "pairs_considered=" +
          std::to_string(opt.stats().enumerator.pairs_considered) +
          " plans_kept=" + std::to_string(opt.stats().enumerator.plans_kept) +
          "\n";
  *out += (*plan)->ToString();
}

// ---------------------------------------------------------------------------
// bench_join_enum's topologies
// ---------------------------------------------------------------------------

std::string TopologyQuery(const std::string& topology, int n) {
  std::string sql = "SELECT t1.k FROM t1";
  for (int t = 2; t <= n; ++t) sql += ", t" + std::to_string(t);
  sql += " WHERE 1 = 1";
  auto eq = [](int a, int b) {
    return " AND t" + std::to_string(a) + ".k = t" + std::to_string(b) + ".k";
  };
  if (topology == "chain") {
    for (int t = 2; t <= n; ++t) sql += eq(t - 1, t);
  } else if (topology == "star") {
    for (int t = 2; t <= n; ++t) sql += eq(1, t);
  } else {
    for (int a = 1; a <= n; ++a) {
      for (int b = a + 1; b <= n; ++b) sql += eq(a, b);
    }
  }
  return sql;
}

TEST(PlanGoldenTest, JoinTopologies) {
  // The catalog of bench_join_enum: t1..t8, 100*t rows, key-like k.
  Catalog catalog;
  for (int t = 1; t <= 8; ++t) {
    TableDef def;
    def.name = "t" + std::to_string(t);
    def.schema = TableSchema(
        {{"k", DataType::Int(), false}, {"v", DataType::Int(), true}});
    def.stats.row_count = 100.0 * t;
    def.stats.page_count = def.stats.row_count / 64 + 1;
    ColumnStats k;
    k.distinct_count = def.stats.row_count;
    def.stats.columns["K"] = k;
    ASSERT_TRUE(catalog.CreateTable(def).ok());
  }
  struct Mode {
    const char* name;
    bool composite;
    bool cartesian;
  };
  const Mode modes[] = {{"bushy", true, false},
                        {"left-deep", false, false},
                        {"bushy+cartesian", true, true}};
  std::string out;
  for (const char* topology : {"chain", "star", "clique"}) {
    for (int n = 2; n <= 8; ++n) {
      for (const Mode& mode : modes) {
        optimizer::Optimizer::Options options;
        options.join.allow_composite_inner = mode.composite;
        options.join.allow_cartesian = mode.cartesian;
        OptimizeInto(catalog,
                     std::string(topology) + " n=" + std::to_string(n) + " " +
                         mode.name,
                     TopologyQuery(topology, n), options, &out);
      }
    }
  }
  ExpectMatchesGolden("plan_topologies.txt", out);
}

// ---------------------------------------------------------------------------
// Seeded random join graphs
// ---------------------------------------------------------------------------

TEST(PlanGoldenTest, RandomJoinGraphs) {
  static const char* const kColumns[] = {"k", "a", "b", "c"};
  static const double kRows[] = {10,   30,    100,   300,   1000,
                                 3000, 10000, 30000, 100000};
  std::string out;
  for (int g = 0; g < 50; ++g) {
    Rng rng(0x5EED0000ull + static_cast<uint64_t>(g));
    int n = static_cast<int>(rng.Uniform(3, 7));
    Catalog catalog;
    std::vector<double> ndv(static_cast<size_t>(n) * 4);
    for (int t = 1; t <= n; ++t) {
      TableDef def;
      def.name = "r" + std::to_string(t);
      def.schema = TableSchema({{"k", DataType::Int(), false},
                                {"a", DataType::Int(), false},
                                {"b", DataType::Int(), false},
                                {"c", DataType::Int(), true}});
      double rows = kRows[rng.Uniform(0, 8)];
      def.stats.row_count = rows;
      def.stats.page_count = rows / 64 + 1;
      for (int c = 0; c < 4; ++c) {
        // k is key-like; the others keep 1/1 .. 1/1000 of the rows.
        static const double kShrink[] = {1, 3, 10, 100, 1000};
        double d = c == 0 ? rows
                          : std::max(1.0, rows / kShrink[rng.Uniform(0, 4)]);
        ColumnStats stats;
        stats.distinct_count = d;
        stats.min_value = Value::Int(0);
        stats.max_value = Value::Int(static_cast<int64_t>(d));
        if (c == 3) stats.null_fraction = 0.1;
        std::string upper = kColumns[c];
        upper[0] = static_cast<char>(upper[0] - 'a' + 'A');
        def.stats.columns[upper] = stats;
        ndv[static_cast<size_t>((t - 1) * 4 + c)] = d;
      }
      ASSERT_TRUE(catalog.CreateTable(def).ok());
      for (int c = 0; c < 4; ++c) {
        if (rng.Uniform(0, c == 0 ? 1 : 2) != 0) continue;
        IndexDef index;
        index.name = def.name + "_" + kColumns[c];
        index.table_name = def.name;
        index.key_columns = {kColumns[c]};
        ASSERT_TRUE(catalog.CreateIndex(index).ok());
      }
    }
    auto col = [&](int t, int c) {
      return "r" + std::to_string(t) + "." + kColumns[c];
    };
    std::string sql = "SELECT r1.k, " + col(n, 1) + " FROM r1";
    for (int t = 2; t <= n; ++t) sql += ", r" + std::to_string(t);
    sql += " WHERE 1 = 1";
    // A random spanning tree keeps the graph connected; extra edges add
    // cycles.
    for (int t = 2; t <= n; ++t) {
      int parent = static_cast<int>(rng.Uniform(1, t - 1));
      sql += " AND " + col(parent, static_cast<int>(rng.Uniform(0, 3))) +
             " = " + col(t, static_cast<int>(rng.Uniform(0, 3)));
    }
    for (int64_t e = rng.Uniform(0, 2); e > 0; --e) {
      int a = static_cast<int>(rng.Uniform(1, n));
      int b = static_cast<int>(rng.Uniform(1, n));
      if (a == b) continue;
      sql += " AND " + col(a, static_cast<int>(rng.Uniform(0, 3))) + " = " +
             col(b, static_cast<int>(rng.Uniform(0, 3)));
    }
    for (int t = 1; t <= n; ++t) {
      int64_t roll = rng.Uniform(0, 5);
      int c = static_cast<int>(rng.Uniform(0, 3));
      int64_t lit = static_cast<int64_t>(
          ndv[static_cast<size_t>((t - 1) * 4 + c)] / 2);
      if (roll == 0) {
        sql += " AND " + col(t, c) + " = " + std::to_string(lit);
      } else if (roll == 1) {
        sql += " AND " + col(t, c) + " < " + std::to_string(lit);
      }
    }
    optimizer::Optimizer::Options options;
    options.join.allow_composite_inner = g % 4 != 3;
    if (g % 5 == 4) {
      // Dear hashing and cheap rid fetches: ordered index scans and merge
      // joins win, so glue and order-keeping plans decide the result.
      options.cost.cpu_hash = 0.2;
      options.cost.rid_fetch = 0.002;
    }
    OptimizeInto(catalog, "graph " + std::to_string(g), sql, options, &out);
  }
  ExpectMatchesGolden("plan_random_graphs.txt", out);
}

// ---------------------------------------------------------------------------
// perfbench's schema through the engine
// ---------------------------------------------------------------------------

class PlanGoldenEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // perfbench's tables, index and views (perfbench/src/model.cc) at a
    // fraction of the size, filled from a fixed seed.
    Must("CREATE TABLE branches (id INT PRIMARY KEY, region INT NOT NULL, "
         "name STRING NOT NULL)");
    Must("CREATE TABLE products (id INT PRIMARY KEY, category INT NOT NULL, "
         "price DOUBLE NOT NULL, stock INT NOT NULL, name STRING NOT NULL)");
    Must("CREATE TABLE customers (id INT PRIMARY KEY, branch INT NOT NULL, "
         "segment INT NOT NULL, balance DOUBLE NOT NULL, "
         "name STRING NOT NULL)");
    Must("CREATE TABLE sales (id INT PRIMARY KEY, cust INT NOT NULL, "
         "product INT NOT NULL, day INT NOT NULL, qty INT NOT NULL, "
         "amount DOUBLE NOT NULL)");
    Rng rng(7919);
    auto n = [](int64_t v) { return std::to_string(v); };
    std::string sql = "INSERT INTO branches VALUES ";
    for (int64_t id = 0; id < 20; ++id) {
      sql += (id ? ", (" : "(") + n(id) + ", " + n(id % 10) + ", 'branch-" +
             n(id) + "')";
    }
    Must(sql);
    sql = "INSERT INTO products VALUES ";
    for (int64_t id = 0; id < 60; ++id) {
      sql += (id ? ", (" : "(") + n(id) + ", " + n(rng.Uniform(0, 9)) + ", " +
             n(rng.Uniform(1, 99)) + ".5, " + n(rng.Uniform(0, 500)) +
             ", 'product-" + n(id) + "')";
    }
    Must(sql);
    sql = "INSERT INTO customers VALUES ";
    for (int64_t id = 0; id < 300; ++id) {
      sql += (id ? ", (" : "(") + n(id) + ", " + n(rng.Uniform(0, 19)) +
             ", " + n(rng.Uniform(0, 4)) + ", " + n(rng.Uniform(0, 10000)) +
             ".25, 'customer-" + n(id) + "')";
    }
    Must(sql);
    sql = "INSERT INTO sales VALUES ";
    for (int64_t id = 0; id < 900; ++id) {
      sql += (id ? ", (" : "(") + n(id) + ", " + n(rng.Uniform(0, 299)) +
             ", " + n(rng.Uniform(0, 59)) + ", " + n(rng.Uniform(0, 29)) +
             ", " + n(rng.Uniform(1, 10)) + ", " + n(rng.Uniform(1, 500)) +
             ".75)";
    }
    Must(sql);
    Must("CREATE INDEX sales_cust ON sales (cust)");
    Must("ANALYZE");
    Must("CREATE VIEW cust_branch (id, name, balance, region, bname) AS "
         "SELECT c.id, c.name, c.balance, b.region, b.name FROM customers c, "
         "branches b WHERE c.branch = b.id");
    Must("CREATE VIEW cheap_products AS SELECT id, category, price, stock "
         "FROM products WHERE price < 50");
    Must("SET PARALLELISM = 1");
  }

  ResultSet Must(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    if (!r.ok()) return ResultSet::Message("error");
    return r.TakeValue();
  }

  /// One corpus entry: the plan from EXPLAIN PLAN, the counters from
  /// running the statement itself.
  void Record(const std::string& label, const std::string& sql,
              std::string* out) {
    ResultSet explain = Must("EXPLAIN PLAN " + sql);
    Must(sql);
    const optimizer::Optimizer::Stats& stats =
        db_.last_metrics().optimizer_stats;
    *out += "== " + label + " ==\n" + sql + "\n";
    *out += "pairs_considered=" +
            std::to_string(stats.enumerator.pairs_considered) +
            " plans_kept=" + std::to_string(stats.enumerator.plans_kept) +
            "\n";
    for (const Row& row : explain.rows()) *out += row[0].string_value();
  }

  Database db_;
};

TEST_F(PlanGoldenEngineTest, PerfbenchAdhocShapes) {
  std::string out;
  Record("view_join4",
         "SELECT v.name, v.bname, s.id, s.amount, p.name FROM cust_branch v, "
         "sales s, products p WHERE v.id = 17 AND p.id = 5 AND s.cust = v.id "
         "AND s.product = p.id",
         &out);
  Record("key_join6",
         "SELECT s1.id, s2.id, c1.name, c2.name, b1.name, b2.name FROM sales "
         "s1, customers c1, branches b1, sales s2, customers c2, branches b2 "
         "WHERE s1.id = 10 AND c1.id = 33 AND b1.id = 4 AND s2.id = 200 AND "
         "c2.id = 71 AND b2.id = 9 AND s1.cust = c1.id AND c1.branch = b1.id "
         "AND s2.cust = c2.id AND c2.branch = b2.id AND s2.product = "
         "s1.product",
         &out);
  Record("in_view",
         "SELECT v.id, v.name, v.bname FROM cust_branch v WHERE v.id = 17 AND "
         "v.region IN (SELECT b.region FROM branches b WHERE b.id = 3)",
         &out);
  Record("exists",
         "SELECT b.id, b.name FROM branches b WHERE b.region = 4 AND EXISTS "
         "(SELECT c.id FROM customers c WHERE c.id = 17 AND c.branch = b.id)",
         &out);
  Record("group_pushdown",
         "SELECT t.cust, t.n, t.total FROM (SELECT cust, COUNT(*) AS n, "
         "SUM(amount) AS total FROM sales GROUP BY cust) t WHERE t.cust = 17",
         &out);
  Record("three_way_ordered",
         "SELECT s.id, c.name FROM sales s, customers c, branches b WHERE "
         "s.cust = c.id AND c.branch = b.id AND b.region = 3 ORDER BY s.cust",
         &out);
  ExpectMatchesGolden("plan_adhoc.txt", out);
}

TEST_F(PlanGoldenEngineTest, SubqueriesAndOuterJoin) {
  std::string out;
  Record("exists_uncorrelated",
         "SELECT b.id FROM branches b WHERE b.region = 2 AND EXISTS "
         "(SELECT s.id FROM sales s WHERE s.qty = 10)",
         &out);
  Record("not_exists_correlated",
         "SELECT c.id FROM customers c WHERE c.segment = 1 AND NOT EXISTS "
         "(SELECT s.id FROM sales s WHERE s.cust = c.id)",
         &out);
  Record("not_exists_uncorrelated",
         "SELECT p.id FROM products p WHERE NOT EXISTS "
         "(SELECT b.id FROM branches b WHERE b.region = 11)",
         &out);
  Record("in_subquery",
         "SELECT c.id, c.name FROM customers c WHERE c.branch IN "
         "(SELECT b.id FROM branches b WHERE b.region = 3)",
         &out);
  Record("scalar_uncorrelated",
         "SELECT p.id FROM products p WHERE p.category = 2 AND p.price > "
         "(SELECT AVG(x.price) FROM products x)",
         &out);
  Record("scalar_correlated",
         "SELECT c.id FROM customers c WHERE c.segment = 3 AND c.balance > "
         "(SELECT SUM(s.amount) FROM sales s WHERE s.cust = c.id)",
         &out);
  Record("all_subquery",
         "SELECT p.id FROM products p WHERE p.price > ALL "
         "(SELECT s.amount FROM sales s WHERE s.qty = 10 AND s.day = 3)",
         &out);
  Record("any_subquery",
         "SELECT p.id FROM products p WHERE p.price < ANY "
         "(SELECT s.amount FROM sales s WHERE s.day = 5)",
         &out);
  Record("not_in_subquery",
         "SELECT p.id FROM products p WHERE p.id NOT IN "
         "(SELECT s.product FROM sales s WHERE s.qty > 8)",
         &out);
  Record("left_outer_join",
         "SELECT c.id, s.id FROM customers c LEFT OUTER JOIN sales s "
         "ON c.id = s.cust WHERE c.segment = 2",
         &out);
  Record("left_outer_join_small_outer",
         "SELECT b.id, c.id FROM branches b LEFT OUTER JOIN customers c "
         "ON b.id = c.branch",
         &out);
  ExpectMatchesGolden("plan_subqueries.txt", out);
}

}  // namespace
}  // namespace starburst
