// Set-up, the closed measurement loop and the oracle self-test.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "model.h"
#include "workloads.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups per run, one before the measured phase and the rest spread
/// through it, each in a child process; setup_s is their median.
inline constexpr int kSetups = 7;
/// The `SET PARALLELISM` every workload pins: the engine's default is the
/// host's core count, which would make every number depend on nproc.
inline constexpr int kParallelism = 1;
/// Rows per INSERT ... VALUES statement of the load.
inline constexpr size_t kRowsPerInsert = 500;

/// A loaded, analyzed and warmed database, ready for the measured phase.
struct Setup {
  std::unique_ptr<starburst::Database> db;
  /// Handles for the workload's WarmSql(), in order.
  std::vector<starburst::Database::PreparedHandle> handles;
  double setup_s = 0;
  double load_us_per_row = 0;
  double analyze_ms = 0;
};

/// Sets a fresh database up, loading it with `inserts` (the model's
/// InsertSql). Everything the engine does before the measured phase is
/// timed: DDL, the load, ANALYZE, views, the pinned SET PARALLELISM and
/// preparing the workload's statements. Generating the SQL text is not.
starburst::Result<Setup> SetUp(const Model& model, const Workload& wl,
                               const std::vector<std::string>& inserts);

/// The timings of every set-up of a run.
struct SetupTimes {
  std::vector<double> setup_s, load_us_per_row, analyze_ms;
  void Add(const Setup& s) {
    setup_s.push_back(s.setup_s);
    load_us_per_row.push_back(s.load_us_per_row);
    analyze_ms.push_back(s.analyze_ms);
  }
};

/// The line a `--setup-only` run prints: one set-up's timings.
std::string SetupLine(const Setup& s);

/// Runs `self` (this program) with --setup-only for `workload` and `seed`
/// and adds the timings it prints to `times`. The set-up runs in a process
/// of its own, so it starts on a fresh heap, as the first set-up of a run
/// does, and its database never counts toward this process's peak
/// resident set. Returns "" on success, else why it failed.
std::string SetUpInChild(const std::string& self, const std::string& workload,
                         uint64_t seed, SetupTimes* times);

/// Work the loop pauses for every `every_s` seconds of its measured
/// phase. The pause does not count toward the phase.
struct Interlude {
  std::function<void()> run;
  double every_s = 0;
};

/// Sends one statement through the engine's public surface.
starburst::Result<starburst::ResultSet> Execute(Setup& setup, const Stmt& st);

/// "" when the engine's answer matches the oracle's, else the difference
/// (an engine error counts as one).
std::string Check(const Answer& expected,
                  const starburst::Result<starburst::ResultSet>& got);

/// `a` with one value changed: the self-test's deliberately wrong answer.
Answer Corrupted(const Answer& a);

struct LoopStats {
  /// Latency samples (us) of each template, one per Execute call.
  std::vector<std::vector<double>> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // engine errors plus oracle mismatches
  /// Summed duration of the engine calls: throughput excludes generating
  /// statements and checking answers.
  double busy_s = 0;
  /// Wall time of the loop, and the part of it spent in interludes.
  double wall_s = 0, paused_s = 0;
  std::vector<std::string> errors;  // the first few failures
  bool correct = true;
  /// Whether the oracle rejected a corrupted copy of a correct answer.
  bool selftest_caught = false;
};

/// Called after each correctly answered statement with the engine's
/// answer, the call's start and its latency (us).
using StmtHook = std::function<void(const Stmt&, starburst::ResultSet&,
                                    Clock::time_point, double)>;

/// The closed loop: one client, no think time, for `seconds` of wall time.
LoopStats RunLoop(Setup& setup, Workload& wl, Model& model, Rng& rng,
                  double seconds, const StmtHook& hook,
                  const Interlude& interlude);

/// Runs every workload on a small dataset and checks that the oracle
/// accepts each engine answer and rejects a corrupted copy of it.
/// Returns a process exit code.
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
