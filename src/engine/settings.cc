#include "engine/settings.h"

#include <limits>
#include <sstream>

namespace starburst {

namespace {

using enum SettingKind;
constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();
/// Settings stored as doubles stop where integers stop round-tripping.
constexpr int64_t kMaxExactDouble = int64_t{1} << 53;
/// Millisecond settings stop at INT32_MAX (~24.8 days, PostgreSQL's
/// statement_timeout range); far larger values overflow deadline math.
constexpr int64_t kMaxMs = std::numeric_limits<int32_t>::max();

/// A row whose value is a field of the snapshot (enum labels trail).
#define FIELD(name, kind, min, max, affects_plan, field, ...)                \
  {name, kind, min, max, affects_plan, {__VA_ARGS__},                       \
   [](const SettingsTarget& t) {                                            \
     return SettingValue{static_cast<int64_t>(t.settings->field), {}};      \
   },                                                                       \
   [](SettingsTarget& t, const SettingValue& v) {                           \
     t.settings->field = static_cast<decltype(t.settings->field)>(v.number); \
   }}

/// A row whose value the engine component owning it keeps.
#define COMPONENT(name, kind, max, component, getter, setter)               \
  {name, kind, 0, max, false, {},                                           \
   [](const SettingsTarget& t) {                                            \
     return SettingValue{static_cast<int64_t>(t.component->getter()), {}};  \
   },                                                                       \
   [](SettingsTarget& t, const SettingValue& v) {                           \
     t.component->setter(v.number);                                         \
   }}

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    size_t first = item.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    size_t end = item.find_last_not_of(" \t") + 1;
    items.push_back(item.substr(first, end - first));
  }
  return items;
}

std::string JoinList(const std::vector<std::string>& items) {
  std::string text;
  for (const std::string& item : items) {
    text += (text.empty() ? "" : ",") + item;
  }
  return text;
}

/// A default-constructed engine: what DEFAULT restores.
const SettingsTarget& Defaults() {
  static Settings settings;
  static PlanCache plan_cache;
  static obs::Tracer tracer;
  static AdmissionController admission;
  static const SettingsTarget target{&settings, &plan_cache, &tracer,
                                     &admission};
  return target;
}

Result<SettingValue> ParseValue(const Setting& s,
                                const ast::SetStatement& stmt) {
  const std::string name = s.name;
  SettingValue v;
  if (s.kind == kEnum) {
    std::string labels;
    for (const char* label : s.labels) {
      if (stmt.ident_value == label) return v;
      ++v.number;
      labels += std::string(" ") + label;
    }
    return Status::SemanticError(name + " must be one of:" + labels);
  }
  if (s.kind == kList) {
    if (!stmt.string_value.has_value()) {
      return Status::SemanticError(name + " takes a quoted list: 'a,b'");
    }
    v.text = JoinList(SplitList(*stmt.string_value));
    return v;
  }
  if (!stmt.ident_value.empty() || stmt.string_value.has_value()) {
    return Status::SemanticError(
        "option '" + name + "' takes a numeric value, not '" +
        stmt.ident_value + stmt.string_value.value_or("") + "'");
  }
  if (stmt.unit != 1 && s.kind != kBytes) {
    return Status::SemanticError(name + " takes no byte-unit suffix");
  }
  if (__builtin_mul_overflow(stmt.value, stmt.unit, &v.number) ||
      v.number < s.min || v.number > s.max) {
    return Status::SemanticError(name + " must be between " +
                                 std::to_string(s.min) + " and " +
                                 std::to_string(s.max));
  }
  return v;
}

}  // namespace

const std::vector<Setting>& SettingsTable() {
  static const std::vector<Setting> table = {
      // Read by CompileSelect: how the plan is refined and run.
      {"PARALLELISM", kInt, 0, exec::ExecOptions::kMaxParallelism, true,
       {},
       [](const SettingsTarget& t) {
         return SettingValue{int64_t(t.settings->exec.parallelism), {}};
       },
       [](SettingsTarget& t, const SettingValue& v) {  // 0 = DEFAULT too
         t.settings->exec.parallelism =
             v.number == 0 ? exec::ExecOptions::DefaultParallelism()
                           : static_cast<size_t>(v.number);
       }},
      FIELD("PARALLEL_MIN_ROWS", kInt, 0, kMaxExactDouble, true,
            exec.parallel_min_rows),
      FIELD("BATCH_SIZE", kInt, 1, 65536, true, exec.batch_size),
      FIELD("VECTORIZE", kBool, 0, 1, true, exec.vectorize),
      FIELD("SORT_MEMORY", kBytes, 0, kNoMax, true, exec.sort_memory_bytes),
      FIELD("AGG_MEMORY", kBytes, 0, kNoMax, true, exec.agg_memory_bytes),
      FIELD("EXEC.CACHE_MODE", kEnum, 0, 2, true, exec.cache_mode, "NONE",
            "LAST_VALUE", "MEMO"),
      FIELD("EXEC.SEMI_NAIVE_RECURSION", kBool, 0, 1, true,
            exec.semi_naive_recursion),
      FIELD("COLLECT_OP_STATS", kBool, 0, 1, true, collect_op_stats),
      // Read by CompileSelect: query rewrite and the optimizer.
      FIELD("REWRITE_ENABLED", kBool, 0, 1, true, rewrite_enabled),
      {"REWRITE.ENABLED_CLASSES", kList, 0, 0, true, {},  // '' = all
       [](const SettingsTarget& t) {
         return SettingValue{0, JoinList(t.settings->rewrite.enabled_classes)};
       },
       [](SettingsTarget& t, const SettingValue& v) {
         t.settings->rewrite.enabled_classes = SplitList(v.text);
       }},
      FIELD("OPTIMIZER.MATERIALIZE_SHARED", kBool, 0, 1, true,
            optimizer.materialize_shared),
      FIELD("OPTIMIZER.JOIN.ALLOW_COMPOSITE_INNER", kBool, 0, 1, true,
            optimizer.join.allow_composite_inner),
      FIELD("OPTIMIZER.JOIN.ALLOW_CARTESIAN", kBool, 0, 1, true,
            optimizer.join.allow_cartesian),
      // Read by CompileSelect: the workload class stamped into the plan.
      FIELD("STATEMENT_PRIORITY", kEnum, 0, 3, true, statement_priority,
            "DEFAULT", "HIGH", "NORMAL", "LOW"),
      FIELD("SLOW_PLAN_COST", kInt, 0, kMaxExactDouble, true, slow_plan_cost),
      FIELD("SLOW_PLAN_ROWS", kInt, 0, kMaxExactDouble, true, slow_plan_rows),
      // Read at execution or statement end only.
      FIELD("QUERY_MEMORY", kBytes, 0, kNoMax, false, exec.query_memory_bytes),
      FIELD("STATEMENT_TIMEOUT_MS", kInt, 0, kMaxMs, false,
            statement_timeout_ms),
      FIELD("SLOW_QUERY_US", kInt, 0, kNoMax, false, slow_query_us),
      COMPONENT("PLAN_CACHE_SIZE", kInt, kNoMax, plan_cache, capacity,
                set_capacity),
      COMPONENT("TRACE_BUFFER", kInt, kNoMax, tracer, capacity, set_capacity),
      COMPONENT("ADMISSION_MEMORY", kBytes, kNoMax, admission, budget,
                SetBudget),
      COMPONENT("ADMISSION_WAIT_MS", kInt, kMaxMs, admission, max_wait_ms,
                SetMaxWaitMs),
      COMPONENT("ADMISSION_AGING_MS", kInt, kMaxMs, admission, aging_ms,
                SetAgingMs),
  };
  return table;
}

#undef FIELD
#undef COMPONENT

SettingValue DefaultSettingValue(const Setting& setting) {
  return setting.get(Defaults());
}

std::string FormatSetting(const Setting& setting, const SettingValue& value) {
  switch (setting.kind) {
    case kEnum: return setting.labels.at(value.number);
    case kList: return "'" + value.text + "'";
    default: return std::to_string(value.number);
  }
}

Result<std::string> ApplySet(const ast::SetStatement& stmt,
                             SettingsTarget& target) {
  for (const Setting& s : SettingsTable()) {
    if (stmt.name != s.name) continue;
    SettingValue value = DefaultSettingValue(s);
    if (!stmt.is_default) {
      STARBURST_ASSIGN_OR_RETURN(value, ParseValue(s, stmt));
    }
    s.set(target, value);
    return "SET " + stmt.name + " = " + FormatSetting(s, s.get(target));
  }
  return Status::SemanticError("unknown session option '" + stmt.name + "'");
}

std::string PlanFingerprint(Settings& settings) {
  const SettingsTarget target{&settings, nullptr, nullptr, nullptr};
  std::string fp;
  for (const Setting& s : SettingsTable()) {
    if (!s.affects_plan) continue;
    fp += (fp.empty() ? "" : " ") + std::string(s.name) + "=" +
          FormatSetting(s, s.get(target));
  }
  return fp;
}

}  // namespace starburst
