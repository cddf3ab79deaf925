// E7 — §7: "we replace ... 'evaluate-at-open' and
// 'evaluate-at-application' ... by a single uniform mechanism called
// 'evaluate-on-demand'. ... We also include logic to avoid re-evaluating
// the subquery when the correlation values have not changed, thus
// improving the performance during execution."
//
// A correlated scalar subquery runs under three regimes: no caching
// (strawman), last-value reuse (the paper's optimization), and full
// memoization. The sweep varies how many *distinct* correlation values
// the outer rows carry: fewer distinct values => more reuse.

#include "bench_util.h"

using namespace starburst;
using namespace starburst::bench;

int main() {
  const int kOuter = 2000;
  std::printf("E7: evaluate-on-demand caching, %d outer rows\n", kOuter);
  std::printf("%9s | %10s | %8s %8s | %8s %8s | %8s %8s\n", "distinct",
              "rows", "none:ev", "us", "last:ev", "us", "memo:ev", "us");

  for (int distinct : {1, 4, 20, 100, 1000}) {
    Database db;
    MustExec(&db, "CREATE TABLE outer_t (id INT, g INT)");
    MustExec(&db, "CREATE TABLE inner_t (g INT, x INT)");
    // Outer rows sorted by their correlation value: the last-value cache
    // sees runs of identical keys, exactly the case §7 targets.
    for (int base = 0; base < kOuter; base += 500) {
      std::string sql = "INSERT INTO outer_t VALUES ";
      for (int i = base; i < base + 500; ++i) {
        if (i > base) sql += ", ";
        sql += "(" + std::to_string(i) + ", " +
               std::to_string(i / (kOuter / distinct)) + ")";
      }
      MustExec(&db, sql);
    }
    std::string sql = "INSERT INTO inner_t VALUES ";
    for (int g = 0; g < distinct; ++g) {
      if (g > 0) sql += ", ";
      sql += "(" + std::to_string(g) + ", " + std::to_string(g * 10) + ")";
    }
    MustExec(&db, sql);
    if (!db.AnalyzeAll().ok()) return 1;

    // The correlated scalar subquery the join planner cannot lift (it
    // stays a per-row evaluate-on-demand runtime).
    const std::string query =
        "SELECT id, (SELECT MAX(x) FROM inner_t i WHERE i.g = o.g) "
        "FROM outer_t o";

    struct ModeRow {
      const char* mode;  // SET EXEC.CACHE_MODE value
      uint64_t evals = 0;
      uint64_t hits = 0;
      double us = 0;
    } modes[3] = {{"NONE"}, {"LAST_VALUE"}, {"MEMO"}};
    size_t rows = 0;
    for (ModeRow& m : modes) {
      MustExec(&db, std::string("SET EXEC.CACHE_MODE = ") + m.mode);
      m.us = MedianUs([&] {
        rows = MustRows(&db, query);
        m.evals = db.last_metrics().exec_stats.subquery_evaluations;
        m.hits = db.last_metrics().exec_stats.subquery_cache_hits;
      });
    }
    std::printf("%9d | %10zu | %8llu %8.0f | %8llu %8.0f | %8llu %8.0f\n",
                distinct, rows,
                static_cast<unsigned long long>(modes[0].evals), modes[0].us,
                static_cast<unsigned long long>(modes[1].evals), modes[1].us,
                static_cast<unsigned long long>(modes[2].evals), modes[2].us);
  }
  std::printf("\nShape check: none always re-evaluates (%d evals); "
              "last-value and memo evaluate once per distinct correlation "
              "value; time tracks evaluations.\n", kOuter);
  return 0;
}
