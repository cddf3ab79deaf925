// The traced run: per-layer metrics measured from outside the engine, by
// timing calls into each module's public entry points from the benchmark's
// own code. No tracing is added to the engine.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// One reported metric, with its unit.
struct Metric {
  std::string name, unit;
  double value;
};

struct TraceReport {
  /// Both loops of the traced run (attempted/failed count all of them).
  LoopStats loops;
  std::vector<Metric> metrics;
  /// The replayed sample's size and each span name's self time, for the
  /// results file.
  std::string layers_json;
  /// The spans in the Chrome trace-event format (chrome://tracing).
  std::string chrome_json;
  /// Non-empty when a replay disagreed with its end-to-end call or failed.
  std::string error;
};

/// Runs the workload untraced for half of `seconds`, then traced for the
/// other half: every statement gets an end-to-end span, and a
/// deterministic sample of the SELECTs is replayed through Parser, Binder,
/// RuleEngine, Optimizer, PlanRefiner and the operator tree, once at
/// P=1 and once at P=2 with a scheduler worker, plus once with operator
/// statistics and once each with engine metrics on and off.
/// `interlude` pauses both halves as it pauses an untraced run; the
/// set-up metrics are medians of `setup_times` once both halves are done.
TraceReport TracedRun(Setup& setup, Workload& wl, Model& model, Rng& rng,
                      double seconds, const Interlude& interlude,
                      const SetupTimes& setup_times);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
