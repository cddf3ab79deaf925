#ifndef STARBURST_ENGINE_SETTINGS_H_
#define STARBURST_ENGINE_SETTINGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/admission.h"
#include "engine/plan_cache.h"
#include "exec/plan_refiner.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "parser/ast.h"
#include "rewrite/rule_engine.h"

namespace starburst {

/// The session's setting values; default-constructed, the engine
/// defaults that `SET <name> = DEFAULT` restores. The engine keeps one
/// immutable snapshot: SQL `SET` changes a copy through the settings
/// table and swaps it in, and each statement reads the snapshot it took
/// when it began.
struct Settings {
  /// Fast/slow classification defaults: the cost bar is a few hundred
  /// thousand rows through the cost model (point lookups land around
  /// 10^1-10^2); the rows bar catches wide results.
  static constexpr double kDefaultSlowPlanCost = 1e4;
  static constexpr double kDefaultSlowPlanRows = 1e5;

  bool rewrite_enabled = true;  // Figure 1: "could be bypassed"
  rewrite::RuleEngine::Options rewrite;
  optimizer::Optimizer::Options optimizer;
  exec::ExecOptions exec;
  /// Per-operator runtime stats for every query (EXPLAIN ANALYZE collects
  /// regardless); two clock reads per operator invocation.
  bool collect_op_stats = false;
  int64_t statement_timeout_ms = 0;  // 0 = no deadline
  /// 0 = DEFAULT (derive from the plan's fast/slow class), else a
  /// StatementPriority index + 1.
  int statement_priority = 0;
  /// A plan at or above either estimate is classified "slow".
  double slow_plan_cost = kDefaultSlowPlanCost;
  double slow_plan_rows = kDefaultSlowPlanRows;
  uint64_t slow_query_us = 0;  // 0 = no slow-query flagging

  /// Derived: `NAME=value` of every affects_plan row, the settings half
  /// of a plan-cache key. Computed once when a snapshot is built.
  std::string plan_fingerprint;
};

enum class SettingKind { kInt, kBytes, kBool, kEnum, kList };

/// What a setting's accessors act on: the snapshot being built, or the
/// component that owns an engine-wide setting.
struct SettingsTarget {
  Settings* settings;
  PlanCache* plan_cache;
  obs::Tracer* tracer;
  AdmissionController* admission;
};

/// `number` for the int, bytes and bool kinds and an enum's label index;
/// `text`, the comma-separated items, for a list.
struct SettingValue {
  int64_t number = 0;
  std::string text;
};

/// One row of the settings table.
struct Setting {
  const char* name;  // SQL name, upper case
  SettingKind kind;
  int64_t min, max;  // inclusive range of `number`
  bool affects_plan;  // CompileSelect reads it, so it keys the plan cache
  std::vector<const char*> labels;  // enum kind: the value names
  SettingValue (*get)(const SettingsTarget&);
  void (*set)(SettingsTarget&, const SettingValue&);
};

/// Every setting SQL can change, in `sys.settings` order.
const std::vector<Setting>& SettingsTable();

/// The value a row has in a default-constructed engine.
SettingValue DefaultSettingValue(const Setting& setting);

/// A value as SQL spells it: a number, an enum label, or a quoted list.
std::string FormatSetting(const Setting& setting, const SettingValue& value);

/// Parses, validates and applies one `SET` to `target`, returning the
/// `SET NAME = value` message. On error nothing changes.
Result<std::string> ApplySet(const ast::SetStatement& stmt,
                             SettingsTarget& target);

/// `NAME=value` of every affects_plan row of `settings`.
std::string PlanFingerprint(Settings& settings);

}  // namespace starburst

#endif  // STARBURST_ENGINE_SETTINGS_H_
