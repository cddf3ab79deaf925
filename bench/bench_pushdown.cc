// E2 — §5: predicate migration "allows predicates to be pushed down into
// lower level operations to minimize the amount of data retrieved", and
// projection push-down "avoid[s] the retrieval of unused columns".
//
// A consumer filters the output of a GROUP BY table expression (the
// boundary merging cannot cross). With the predicate_migration rule class
// disabled, every group is formed and then filtered; enabled, the key
// predicate migrates below the GROUP BY and only matching rows are
// aggregated. We sweep the key's selectivity and report rows flowing
// through the QES and wall time.

#include "bench_util.h"

using namespace starburst;
using namespace starburst::bench;

int main() {
  Database db;
  const int kRows = 40000;
  const int kGroups = 200;
  MakeIntTable(&db, "events", kRows, kGroups);
  if (!db.AnalyzeAll().ok()) return 1;

  std::printf("E2a: predicate push-down through GROUP BY (%d rows, %d groups)\n",
              kRows, kGroups);
  std::printf("%10s | %13s %12s | %13s %12s | %8s\n", "keys kept",
              "off: rows", "time us", "on: rows", "time us", "speedup");

  for (int kept : {1, 5, 20, 100, 200}) {
    std::string sql =
        "SELECT g, n FROM (SELECT v g, COUNT(*) n FROM events GROUP BY v) x "
        "WHERE g < " + std::to_string(kept);
    // Push-down off: disable the predicate rules (keep the others).
    MustExec(&db,
             "SET REWRITE.ENABLED_CLASSES = 'merge,subquery,misc,projection'");
    uint64_t rows_off = 0;
    double t_off = MedianUs([&] {
      (void)MustRows(&db, sql);
      rows_off = db.last_metrics().exec_stats.rows_emitted;
    });
    // Push-down on: all rule classes.
    MustExec(&db, "SET REWRITE.ENABLED_CLASSES = DEFAULT");
    uint64_t rows_on = 0;
    double t_on = MedianUs([&] {
      (void)MustRows(&db, sql);
      rows_on = db.last_metrics().exec_stats.rows_emitted;
    });
    std::printf("%10d | %13llu %12.0f | %13llu %12.0f | %7.2fx\n", kept,
                static_cast<unsigned long long>(rows_off), t_off,
                static_cast<unsigned long long>(rows_on), t_on,
                t_off / std::max(t_on, 1.0));
  }

  // Projection push-down: the scan-column subset. The wide table's unused
  // columns are never decoded when only k is referenced.
  Database wide;
  MustExec(&wide,
           "CREATE TABLE wide (a INT, b STRING, c STRING, d STRING, "
           "e STRING, f STRING)");
  for (int base = 0; base < 20000; base += 500) {
    std::string sql = "INSERT INTO wide VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i > base) sql += ", ";
      sql += "(" + std::to_string(i) +
             ", 'bbbbbbbbbbbbbbbb', 'cccccccccccccccc', 'dddddddddddddddd', "
             "'eeeeeeeeeeeeeeee', 'ffffffffffffffff')";
    }
    MustExec(&wide, sql);
  }
  if (!wide.AnalyzeAll().ok()) return 1;

  std::printf("\nE2b: projection push-down (scan column subsetting)\n");
  std::printf("%-24s %12s\n", "query", "time us");
  double narrow = MedianUs(
      [&] { (void)MustRows(&wide, "SELECT a FROM wide WHERE a < 1000"); }, 5);
  std::printf("%-24s %12.0f\n", "1 of 6 columns", narrow);
  double all = MedianUs(
      [&] { (void)MustRows(&wide, "SELECT * FROM wide WHERE a < 1000"); }, 5);
  std::printf("%-24s %12.0f\n", "all 6 columns", all);
  std::printf("\nShape check: push-down wins and grows with selectivity; "
              "narrow projection cheaper than SELECT *.\n");
  return 0;
}
