// An interactive Hydrogen shell over the embedded engine — the artifact a
// downstream user reaches for first. Reads ';'-terminated statements from
// stdin; `\timing` toggles the Figure-1 phase report, `\trace` (or
// `.trace`) drives the span recorder, `\q` quits.
//
//   ./example_repl            # interactive
//   ./example_repl < file.sql # batch

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "engine/database.h"
#include "ext/extensions.h"

using starburst::Database;
using starburst::Result;
using starburst::ResultSet;
using starburst::Value;

namespace {

/// Parses one `\exec` argument into a parameter value: NULL, an integer,
/// a double, or (with or without surrounding single quotes) a string.
Value ParseParamValue(const std::string& token) {
  if (token == "NULL" || token == "null") return Value::Null();
  if (token.size() >= 2 && token.front() == '\'' && token.back() == '\'') {
    return Value::String(token.substr(1, token.size() - 2));
  }
  try {
    size_t used = 0;
    long long i = std::stoll(token, &used);
    if (used == token.size()) return Value::Int(i);
    double d = std::stod(token, &used);
    if (used == token.size()) return Value::Double(d);
  } catch (...) {
  }
  return Value::String(token);
}

void PrintResult(const ResultSet& result);

/// Handles one meta command (without its leading '\' or '.'); returns
/// false for \q.
bool RunMetaCommand(const std::string& cmd, Database* db, bool* timing,
                    std::map<std::string, Database::PreparedHandle>* prepared) {
  std::istringstream in(cmd);
  std::string word, arg1, arg2;
  in >> word;
  if (word == "prepare") {
    // \prepare <name> <SELECT ... with ? markers>
    in >> arg1;
    std::string sql;
    std::getline(in, sql);
    if (arg1.empty() || sql.find_first_not_of(" \t") == std::string::npos) {
      std::printf("usage: \\prepare <name> <select statement>\n");
      return true;
    }
    Result<Database::PreparedHandle> handle = db->Prepare(sql);
    if (!handle.ok()) {
      std::printf("ERROR: %s\n", handle.status().ToString().c_str());
      return true;
    }
    (*prepared)[arg1] = *handle;
    std::printf("prepared '%s' (%zu parameter%s)\n", arg1.c_str(),
                (*handle)->num_params,
                (*handle)->num_params == 1 ? "" : "s");
    return true;
  }
  if (word == "exec") {
    // \exec <name> [value ...] — NULL, numbers, and 'strings' bind to
    // the statement's ? markers in order.
    in >> arg1;
    if (arg1.empty()) {
      std::printf("usage: \\exec <name> [value ...]\n");
      return true;
    }
    auto it = prepared->find(arg1);
    if (it == prepared->end()) {
      std::printf("no prepared statement '%s'\n", arg1.c_str());
      return true;
    }
    std::vector<Value> params;
    std::string token;
    while (in >> token) params.push_back(ParseParamValue(token));
    Result<ResultSet> result = db->ExecutePrepared(it->second, params);
    if (!result.ok()) {
      std::printf("ERROR: %s\n", result.status().ToString().c_str());
      return true;
    }
    PrintResult(*result);
    return true;
  }
  in >> arg1 >> arg2;
  if (word == "q" || word == "quit") return false;
  if (word == "timing") {
    *timing = !*timing;
    // Per-operator stats power the top-operators report; collect them
    // only while timing is on.
    (void)db->Execute(*timing ? "SET COLLECT_OP_STATS = 1"
                              : "SET COLLECT_OP_STATS = 0");
    std::printf("timing %s\n", *timing ? "on" : "off");
    return true;
  }
  if (word == "trace") {
    if (arg1 == "on" || arg1 == "off") {
      db->tracer().set_enabled(arg1 == "on");
      if (arg1 == "on") db->tracer().Clear();
      std::printf("trace %s\n", arg1.c_str());
    } else if (arg1 == "show") {
      std::printf("trace: capacity %zu, %llu dropped\n",
                  db->tracer().capacity(),
                  static_cast<unsigned long long>(db->tracer().dropped()));
      std::printf("%s", db->tracer().ToText().c_str());
    } else if (arg1 == "export" && !arg2.empty()) {
      std::ofstream out(arg2);
      if (!out) {
        std::printf("cannot open %s\n", arg2.c_str());
      } else {
        out << db->tracer().ToChromeJson();
        std::printf("trace written to %s (load in chrome://tracing or "
                    "ui.perfetto.dev)\n", arg2.c_str());
      }
    } else {
      std::printf("usage: \\trace on|off|show|export <file>\n");
    }
    return true;
  }
  if (word == "metrics") {
    // Prometheus-style exposition of every engine metric, mirrors
    // refreshed first so the numbers are current.
    db->RefreshMetricsMirrors();
    std::printf("%s", db->metrics_registry().RenderText().c_str());
    return true;
  }
  if (word == "querylog") {
    std::vector<starburst::obs::QueryLogEntry> entries =
        db->query_log().Snapshot();
    std::printf("query log: %llu total, %llu dropped, %llu cleared "
                "(SET SLOW_QUERY_US = <n> flags slow statements)\n",
                static_cast<unsigned long long>(db->query_log().total()),
                static_cast<unsigned long long>(db->query_log().dropped()),
                static_cast<unsigned long long>(db->query_log().cleared()));
    for (const starburst::obs::QueryLogEntry& e : entries) {
      std::printf("#%llu [%s]%s%s %llu rows, %llu us%s: %s\n",
                  static_cast<unsigned long long>(e.id), e.status.c_str(),
                  e.plan_cache_hit ? " [cached]" : "",
                  e.slow ? " [SLOW]" : "",
                  static_cast<unsigned long long>(e.rows),
                  static_cast<unsigned long long>(e.total_us),
                  e.parallelism > 1
                      ? (" (dop " + std::to_string(e.parallelism) + ")").c_str()
                      : "",
                  e.sql.c_str());
      if (!e.error.empty()) std::printf("    error: %s\n", e.error.c_str());
    }
    return true;
  }
  std::printf("unknown meta command: %s\n", cmd.c_str());
  return true;
}

void PrintResult(const ResultSet& result) {
  if (!result.rows().empty() && result.column_names().size() == 1 &&
      result.column_names()[0] == "plan") {
    std::printf("%s", result.rows()[0][0].string_value().c_str());
  } else if (!result.rows().empty() && result.column_names().size() == 1 &&
             result.column_names()[0] == "EXPLAIN") {
    // EXPLAIN ANALYZE report: one line per row, rendered verbatim.
    for (const starburst::Row& r : result.rows()) {
      std::printf("%s\n", r[0].string_value().c_str());
    }
  } else {
    std::printf("%s", result.ToString().c_str());
  }
}

void PrintTimingReport(const Database& db) {
  const starburst::QueryMetrics& m = db.last_metrics();
  std::printf("parse %.0f | bind %.0f | rewrite %.0f | optimize %.0f | "
              "refine %.0f | execute %.0f (us)%s\n",
              m.parse_us, m.bind_us, m.rewrite_us, m.optimize_us,
              m.refine_us, m.execute_us,
              m.plan_cache_hit ? " [plan cache hit]" : "");
  std::printf("  plan cache: %llu entries | hits %llu | misses %llu | "
              "invalidations %llu | evictions %llu\n",
              static_cast<unsigned long long>(m.plan_cache_entries),
              static_cast<unsigned long long>(m.plan_cache.hits),
              static_cast<unsigned long long>(m.plan_cache.misses),
              static_cast<unsigned long long>(m.plan_cache.invalidations),
              static_cast<unsigned long long>(m.plan_cache.evictions));
  for (const auto& f : m.rewrite_stats.firings) {
    std::printf("  rule %s box=%s [id=%d] pass=%d\n", f.rule.c_str(),
                f.box_label.c_str(), f.box_id, f.pass);
  }
  if (m.op_stats != nullptr) {
    std::vector<const starburst::obs::PlanStatsTree::Node*> top =
        m.op_stats->TopBySelfTime(3);
    for (size_t i = 0; i < top.size(); ++i) {
      std::printf("  top op %zu: %s — self %.1f us, %llu rows, %llu loops\n",
                  i + 1, top[i]->name.c_str(),
                  starburst::obs::PlanStatsTree::SelfUs(*top[i]),
                  static_cast<unsigned long long>(top[i]->actual.rows_out),
                  static_cast<unsigned long long>(top[i]->actual.opens));
    }
  }
}

}  // namespace

int main() {
  Database db;
  (void)starburst::ext::RegisterAllExtensions(&db);
  bool timing = false;
  bool tty = true;
  std::map<std::string, Database::PreparedHandle> prepared;

  std::printf(
      "Starburst/Corona shell — Hydrogen statements end with ';'\n"
      "meta: \\timing toggles phase timings (incl. plan-cache counters),\n"
      "      \\prepare <name> <select with ? markers> compiles once,\n"
      "      \\exec <name> [value ...] runs it with bound parameters,\n"
      "      \\trace on|off|show|export <file> drives the tracer,\n"
      "      \\metrics dumps engine counters (also: SELECT * FROM "
      "sys.metrics),\n"
      "      \\querylog shows recent statements (also: sys.query_log), \\q "
      "quits\n"
      "KILL <id> cancels a live statement (ids: SELECT * FROM "
      "sys.statements)\n"
      "SET <name> = <value> | DEFAULT (values: SELECT * FROM sys.settings):\n");
  std::string names;
  for (const starburst::Setting& s : starburst::SettingsTable()) {
    if (names.size() + std::strlen(s.name) > 72) {
      std::printf("     %s\n", names.c_str());
      names.clear();
    }
    names += std::string(" ") + s.name;
  }
  std::printf("     %s\n", names.c_str());

  std::string buffer;
  std::string line;
  while (true) {
    if (tty) std::printf(buffer.empty() ? "starburst> " : "      ...> ");
    if (!std::getline(std::cin, line)) break;

    if (buffer.empty() && !line.empty() &&
        (line[0] == '\\' || line[0] == '.')) {
      if (!RunMetaCommand(line.substr(1), &db, &timing, &prepared)) break;
      continue;
    }

    buffer += line + "\n";
    // Execute once a ';' arrives (statements may span lines).
    if (buffer.find(';') == std::string::npos) continue;
    std::string sql = buffer;
    buffer.clear();
    if (sql.find_first_not_of(" \t\n;") == std::string::npos) continue;

    Result<ResultSet> result = db.Execute(sql);
    if (!result.ok()) {
      std::printf("ERROR: %s\n", result.status().ToString().c_str());
      continue;
    }
    PrintResult(*result);
    if (timing) PrintTimingReport(db);
  }
  return 0;
}
