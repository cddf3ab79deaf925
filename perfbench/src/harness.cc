#include "harness.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

extern char** environ;

namespace perfbench {

using starburst::Database;
using starburst::Result;
using starburst::ResultSet;
using starburst::Status;
using starburst::Value;

namespace {

Status Exec(Database& db, const std::string& sql) {
  Result<ResultSet> r = db.Execute(sql);
  if (!r.ok()) {
    return Status(r.status().code(), r.status().message() + " in: " +
                                         sql.substr(0, 120));
  }
  return Status::OK();
}

Status ExecAll(Database& db, const std::vector<std::string>& sqls) {
  for (const std::string& sql : sqls) {
    STARBURST_RETURN_IF_ERROR(Exec(db, sql));
  }
  return Status::OK();
}

}  // namespace

Result<Setup> SetUp(const Model& model, const Workload& wl,
                    const std::vector<std::string>& inserts) {
  Setup s;
  Clock::time_point t0 = Clock::now();
  s.db = std::make_unique<Database>();
  Database& db = *s.db;
  STARBURST_RETURN_IF_ERROR(ExecAll(db, model.SchemaSql()));
  Clock::time_point load = Clock::now();
  STARBURST_RETURN_IF_ERROR(ExecAll(db, inserts));
  s.load_us_per_row =
      SecondsSince(load) * 1e6 / static_cast<double>(model.TotalRows());
  STARBURST_RETURN_IF_ERROR(ExecAll(db, model.IndexSql()));
  Clock::time_point analyze = Clock::now();
  STARBURST_RETURN_IF_ERROR(Exec(db, "ANALYZE"));
  s.analyze_ms = SecondsSince(analyze) * 1e3;
  STARBURST_RETURN_IF_ERROR(ExecAll(db, model.ViewSql()));
  STARBURST_RETURN_IF_ERROR(
      Exec(db, "SET PARALLELISM = " + std::to_string(kParallelism)));
  // Warm-up prepares instead of executing: executions would add the
  // heavy queries' run time to set-up, and its spread with it.
  for (const std::string& sql : wl.WarmSql()) {
    STARBURST_ASSIGN_OR_RETURN(Database::PreparedHandle h, db.Prepare(sql));
    s.handles.push_back(std::move(h));
  }
  s.setup_s = SecondsSince(t0);
  return s;
}

std::string SetupLine(const Setup& s) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.9g %.9g %.9g\n", s.setup_s,
                s.load_us_per_row, s.analyze_ms);
  return buf;
}

std::string SetUpInChild(const std::string& self, const std::string& workload,
                         uint64_t seed, SetupTimes* times) {
  int out[2];
  if (pipe(out) != 0) return "pipe failed";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  std::vector<std::string> args = {self, "--setup-only", "--workload", workload,
                                   "--seed", std::to_string(seed)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid;
  int spawned = posix_spawnp(&pid, self.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  if (spawned == 0) {
    char buf[256];
    ssize_t n;
    while ((n = read(out[0], buf, sizeof buf)) > 0) {
      text.append(buf, static_cast<size_t>(n));
    }
  }
  close(out[0]);
  if (spawned != 0) return "could not start " + self + " --setup-only";
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return "waitpid failed";
  }
  double setup_s, load, analyze;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(text.c_str(), "%lf %lf %lf", &setup_s, &load, &analyze) != 3) {
    return "set-up in a child process failed: " + text.substr(0, 200);
  }
  times->setup_s.push_back(setup_s);
  times->load_us_per_row.push_back(load);
  times->analyze_ms.push_back(analyze);
  return "";
}

Result<ResultSet> Execute(Setup& setup, const Stmt& st) {
  if (st.prepared >= 0) {
    return setup.db->ExecutePrepared(
        setup.handles[static_cast<size_t>(st.prepared)], st.params);
  }
  return setup.db->Execute(st.sql);
}

std::string Check(const Answer& expected, const Result<ResultSet>& got) {
  if (!got.ok()) return "engine error: " + got.status().ToString();
  if (expected.is_count) return CompareCount(expected, got->affected_rows());
  return CompareRows(expected, got->rows());
}

Answer Corrupted(const Answer& a) {
  Answer bad = a;
  if (bad.is_count) {
    ++bad.count;
  } else if (bad.rows.empty() || bad.rows[0].empty()) {
    bad.rows.push_back({Value::Int(-1)});
  } else {
    Value& v = bad.rows[0][0];
    switch (v.type_id()) {
      case starburst::TypeId::kInt: v = Value::Int(v.int_value() + 1); break;
      case starburst::TypeId::kDouble:
        v = Value::Double(v.double_value() * 1.001 + 1);
        break;
      case starburst::TypeId::kString: v = Value::String(v.string_value() + "x"); break;
      default: v = Value::Int(-1); break;
    }
  }
  return bad;
}

LoopStats RunLoop(Setup& setup, Workload& wl, Model& model, Rng& rng,
                  double seconds, const StmtHook& hook,
                  const Interlude& interlude) {
  LoopStats s;
  s.samples.resize(wl.templates().size());
  auto span = [](double sec) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(sec));
  };
  Clock::time_point begin = Clock::now();
  Clock::time_point end = begin + span(seconds);
  Clock::time_point pause_at = begin + span(interlude.every_s);
  while (Clock::now() < end) {
    if (interlude.run && Clock::now() >= pause_at) {
      Clock::time_point p0 = Clock::now();
      interlude.run();
      Clock::duration paused = Clock::now() - p0;
      s.paused_s += std::chrono::duration<double>(paused).count();
      end += paused;
      pause_at += paused + span(interlude.every_s);
    }
    Stmt st = wl.Next(rng, model);
    Clock::time_point t0 = Clock::now();
    Result<ResultSet> r = Execute(setup, st);
    double us = SecondsSince(t0) * 1e6;
    s.busy_s += us / 1e6;
    ++s.attempted;
    s.samples[static_cast<size_t>(st.tmpl)].push_back(us);
    std::string diff = Check(st.expected, r);
    if (!diff.empty()) {
      ++s.failed;
      if (s.errors.size() < 5) {
        s.errors.push_back(wl.templates()[static_cast<size_t>(st.tmpl)].name +
                           ": " + diff + " [" + st.sql.substr(0, 200) + "]");
      }
      continue;
    }
    if (!s.selftest_caught) {
      s.selftest_caught = !Check(Corrupted(st.expected), r).empty();
    }
    if (hook) hook(st, *r, t0, us);
  }
  s.wall_s = SecondsSince(begin);
  return s;
}

int SelfTest() {
  Sizes small;
  small.customers = 2000;
  small.sales = 6000;
  int failures = 0;
  for (const char* name : {"oltp", "analytic", "adhoc"}) {
    const uint64_t seed = 11;
    Model model = Model::Generate(seed, small);
    std::unique_ptr<Workload> wl = MakeWorkload(name, model, seed);
    Result<Setup> setup = SetUp(model, *wl, model.InsertSql(kRowsPerInsert));
    if (!setup.ok()) {
      std::printf("%s: set-up failed: %s\n", name,
                  setup.status().ToString().c_str());
      return 1;
    }
    Rng rng(seed);
    int checked = 0, caught = 0, wrong = 0;
    for (int i = 0; i < 400; ++i) {
      Stmt st = wl->Next(rng, model);
      Result<ResultSet> r = Execute(*setup, st);
      std::string diff = Check(st.expected, r);
      if (!diff.empty()) {
        ++wrong;
        std::printf("%s: %s [%s]\n", name, diff.c_str(), st.sql.c_str());
        continue;
      }
      ++checked;
      if (!Check(Corrupted(st.expected), r).empty()) ++caught;
    }
    std::printf("%s: %d answers match the oracle, %d wrong; %d of %d "
                "corrupted expectations caught\n",
                name, checked, wrong, caught, checked);
    if (wrong > 0 || caught != checked || checked == 0) ++failures;
  }
  std::printf(failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
