// E1 — §5's claim: "By merging the operations, there is greater scope for
// optimization, which may result in an improved execution plan."
//
// The paper's query runs at growing scale with the rewrite phase enabled
// and bypassed. Without rewrite the E quantifier stays a correlated
// membership test evaluated per outer row; with Rule 1 + Rule 2 it
// becomes an ordinary join the optimizer can hash. The shape to confirm:
// rewrite-on wins, and the gap widens with scale (O(n) vs ~O(n^2)).

#include "bench_util.h"

using namespace starburst;
using namespace starburst::bench;

int main() {
  const char* sql =
      "SELECT partno, price, order_qty FROM quotations Q1 "
      "WHERE Q1.partno IN (SELECT partno FROM inventory Q3 "
      "WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')";

  std::printf("E1: paper query, rewrite bypassed vs. enabled\n");
  std::printf("%7s %7s | %12s %12s | %12s %12s | %8s\n", "scale", "rows",
              "off: exec us", "plan cost", "on: exec us", "plan cost",
              "speedup");
  for (int scale : {2, 5, 10, 20, 50}) {
    auto db = MakePartsDb(scale);
    // Bypassed: correlated evaluate-on-demand subquery per outer row.
    MustExec(db.get(), "SET REWRITE_ENABLED = 0");
    size_t rows_off = 0;
    double exec_off = MedianUs([&] { rows_off = MustRows(db.get(), sql); });
    double cost_off = db->last_metrics().plan_cost;

    MustExec(db.get(), "SET REWRITE_ENABLED = 1");
    size_t rows_on = 0;
    double exec_on = MedianUs([&] { rows_on = MustRows(db.get(), sql); });
    double cost_on = db->last_metrics().plan_cost;

    if (rows_on != rows_off) {
      std::fprintf(stderr, "ANSWER MISMATCH at scale %d: %zu vs %zu\n", scale,
                   rows_off, rows_on);
      return 1;
    }
    std::printf("%7d %7zu | %12.0f %12.1f | %12.0f %12.1f | %7.1fx\n", scale,
                rows_on, exec_off, cost_off, exec_on, cost_on,
                exec_off / std::max(exec_on, 1.0));
  }
  std::printf("\nShape check: identical answers; rewrite-on faster, gap "
              "grows with scale.\n");
  return 0;
}
