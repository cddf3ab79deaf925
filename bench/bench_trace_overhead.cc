// OBS — observability tax: what do the tracer and per-operator stats
// cost, and (the design requirement) is the *disabled* path free?
//
// The span recorder and the operator-stats shims are woven through the
// Figure-1 pipeline and every LOLEPOP's Open/Next/Close. Both are built
// to be branch-cheap when off: the tracer checks one relaxed atomic per
// span, and each operator call tests a single `stats_ == nullptr`
// pointer before dispatching to the untimed virtual. This bench runs
// the same query mix from the Figure-1 phase bench in three
// configurations and reports the overhead relative to baseline:
//
//   off        tracer disabled, no op stats   (the default; target <5%)
//   trace      tracer enabled (phase spans + rule-firing instants)
//   trace+ops  tracer enabled and per-operator stats collected
//
// Per-operator stats are the expensive knob by construction — two clock
// reads per NextBatch() on every operator — which is why EXPLAIN ANALYZE and
// \timing opt into them per query instead of leaving them on.

#include "bench_util.h"

using namespace starburst;
using namespace starburst::bench;

namespace {

double RunMix(Database* db, const std::vector<std::string>& queries,
              int reps) {
  return MedianUs(
      [&] {
        for (const std::string& sql : queries) {
          MustRows(db, sql);
        }
      },
      reps);
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json("trace_overhead", argc, argv);

  Database db;
  for (int t = 1; t <= 4; ++t) {
    MakeIntTable(&db, "t" + std::to_string(t), 1000, 50,
                 static_cast<uint32_t>(100 + t));
  }
  if (!db.AnalyzeAll().ok()) return 1;
  // The tracer's phase spans and rule-firing instants live in the
  // compile half; a plan-cache hit would skip the very code being
  // measured.
  MustExec(&db, "SET PLAN_CACHE_SIZE = 0");

  // The Figure-1 bench's query shapes: a scan+filter, a 3-way chained
  // join, and the nested (rewrite-exercising) variant.
  std::vector<std::string> queries = {
      "SELECT k, v FROM t1 WHERE v < 25",
      "SELECT t1.k FROM t1, t2, t3 WHERE t1.v < 25 AND t1.k = t2.k "
      "AND t2.k = t3.k",
      "SELECT k FROM t1 WHERE v < 10 AND k IN "
      "(SELECT k FROM t2 WHERE t2.v = t1.v)",
  };

  const int reps = 9;
  // Warm up caches and the buffer pool before timing anything.
  RunMix(&db, queries, 1);

  db.tracer().set_enabled(false);
  MustExec(&db, "SET COLLECT_OP_STATS = 0");
  double off_us = RunMix(&db, queries, reps);

  db.tracer().set_enabled(true);
  double trace_us = RunMix(&db, queries, reps);

  MustExec(&db, "SET COLLECT_OP_STATS = 1");
  double both_us = RunMix(&db, queries, reps);

  db.tracer().set_enabled(false);
  MustExec(&db, "SET COLLECT_OP_STATS = 0");
  double off2_us = RunMix(&db, queries, reps);

  // Baseline = the better of the two disabled runs, which absorbs
  // one-sided warmup drift.
  double base_us = std::min(off_us, off2_us);
  std::printf("OBS: tracer / op-stats overhead on the Figure-1 query mix\n");
  std::printf("%-12s %12s %10s\n", "config", "median(us)", "vs off");
  std::printf("%-12s %12.0f %9s\n", "off", base_us, "--");
  std::printf("%-12s %12.0f %+9.1f%%\n", "trace", trace_us,
              100.0 * (trace_us - base_us) / base_us);
  std::printf("%-12s %12.0f %+9.1f%%\n", "trace+ops", both_us,
              100.0 * (both_us - base_us) / base_us);

  double rerun_drift = 100.0 * (off2_us - off_us) / off_us;
  std::printf("\n(disabled-path drift between first and last 'off' runs: "
              "%+.1f%% — the noise floor for the <5%% target)\n", rerun_drift);

  json.Add("off", {}, base_us / 1e3, 0);
  json.Add("trace", {}, trace_us / 1e3, 0);
  json.Add("trace_ops", {}, both_us / 1e3, 0);
  return 0;
}
