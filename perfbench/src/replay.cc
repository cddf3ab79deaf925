#include "replay.h"

#include <cstdio>
#include <map>

#include "exec/expr_eval.h"
#include "exec/operators.h"
#include "exec/parallel/task_scheduler.h"
#include "exec/plan_refiner.h"
#include "obs/op_stats.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "qgm/binder.h"
#include "rewrite/rule_engine.h"
#include "stats.h"

namespace perfbench {

namespace {

using starburst::Database;
using starburst::Result;
using starburst::ResultSet;
using starburst::Row;
using starburst::Status;
using starburst::Value;
namespace exec = starburst::exec;

/// At most this many SELECTs are replayed per traced run.
constexpr size_t kMaxSamples = 1000;
/// The parallelism the twin replay refines each plan at. Every workload
/// runs at kParallelism (1), so this replay is where GATHER runs: the
/// exec.parallel layer's only measurement.
constexpr size_t kTwinParallelism = 2;
/// Statements whose compile is timed both ways for the phase-gap check.
constexpr size_t kGapStatements = 16;
constexpr size_t kMaxSpans = 200000;

// ---------------------------------------------------------------------------
// Spans, kept in memory and written out when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  double start_us, end_us;
  int parent;  // index into the span list; -1 = a root
  int64_t stmt;
};

class Spans {
 public:
  explicit Spans(Clock::time_point epoch) : epoch_(epoch) {}

  double At(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  double Now() const { return At(Clock::now()); }

  int Add(const char* name, double start, double end, int parent,
          int64_t stmt) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, start, end, parent, stmt});
    return static_cast<int>(spans_.size() - 1);
  }
  /// An open span ends at its start until Close; a replay that fails
  /// midway leaves it empty.
  int Open(const char* name, int parent, int64_t stmt) {
    double now = Now();
    return Add(name, now, now, parent, stmt);
  }
  void Close(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_us = Now();
  }

  /// A layer's self time is its span's duration minus the part its child
  /// spans cover (children never overlap here: calls are sequential).
  std::string SelfTimeJson() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
    std::map<std::string, std::pair<double, uint64_t>> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& e = by_name[spans_[i].name];
      e.first += spans_[i].end_us - spans_[i].start_us - child[i];
      ++e.second;
    }
    std::string out = "{";
    for (const auto& [name, e] : by_name) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"spans\": %llu, \"self_us\": %.1f, "
                    "\"self_us_per_span\": %.3f}",
                    out.size() > 1 ? ", " : "", name.c_str(),
                    static_cast<unsigned long long>(e.second), e.first,
                    e.first / static_cast<double>(e.second));
      out += buf;
    }
    return out + "}";
  }

  std::string ChromeJson() const {
    std::string out = "{\"displayTimeUnit\": \"ms\", \"droppedSpans\": " +
                      std::to_string(dropped_) + ", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"stmt\": %lld, \"parent\": \"%s\"}}",
                    i ? ",\n" : "", s.name, s.start_us, s.end_us - s.start_us,
                    static_cast<long long>(s.stmt),
                    s.parent >= 0 ? spans_[static_cast<size_t>(s.parent)].name
                                  : "");
      out += buf;
    }
    return out + "\n]}\n";
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// The replay: Figure 1's pipeline driven through each module's public
// entry point, the way Database::CompileSelect and ExecuteCompiled drive
// it, minus the engine's own bookkeeping (statement registry, admission,
// plan cache, metrics).
// ---------------------------------------------------------------------------

/// Compile output; members die in reverse order, so the plan goes before
/// the optimizer and graph it points into.
struct Compiled {
  starburst::ast::StatementPtr stmt;
  std::unique_ptr<starburst::qgm::Graph> graph;
  std::unique_ptr<starburst::optimizer::Optimizer> opt;
  starburst::optimizer::PlanPtr plan;
  starburst::rewrite::RuleEngine::Stats rewrite;
};

struct CompileTimes {
  double parse = 0, bind = 0, rewrite = 0, optimize = 0;
};

Status CompileReplay(Database& db, const std::string& sql, Compiled* c,
                     CompileTimes* t, Spans& sp, int parent, int64_t id) {
  double t0 = sp.Now();
  starburst::Parser parser(sql);
  Result<starburst::ast::StatementPtr> parsed = parser.ParseStatement();
  double t1 = sp.Now();
  t->parse = t1 - t0;
  sp.Add("parser", t0, t1, parent, id);
  if (!parsed.ok()) return parsed.status();
  c->stmt = parsed.TakeValue();
  if (c->stmt->kind != starburst::ast::StatementKind::kSelect) {
    return Status::InvalidArgument("only SELECTs are replayed");
  }
  const starburst::ast::Query& query =
      *static_cast<const starburst::ast::SelectStatement&>(*c->stmt).query;

  t0 = sp.Now();
  starburst::qgm::Binder binder(&db.catalog());
  Result<std::unique_ptr<starburst::qgm::Graph>> graph = binder.BindQuery(query);
  t1 = sp.Now();
  t->bind = t1 - t0;
  sp.Add("qgm", t0, t1, parent, id);
  if (!graph.ok()) return graph.status();
  c->graph = graph.TakeValue();

  if (db.options().rewrite_enabled) {
    t0 = sp.Now();
    Result<starburst::rewrite::RuleEngine::Stats> rw =
        db.rule_engine().Run(c->graph.get(), &db.catalog(), db.options().rewrite);
    t1 = sp.Now();
    t->rewrite = t1 - t0;
    sp.Add("rewrite", t0, t1, parent, id);
    if (!rw.ok()) return rw.status();
    c->rewrite = rw.TakeValue();
  }

  t0 = sp.Now();
  c->opt = std::make_unique<starburst::optimizer::Optimizer>(
      &db.catalog(), db.options().optimizer);
  Result<starburst::optimizer::PlanPtr> plan = c->opt->Optimize(*c->graph);
  t1 = sp.Now();
  t->optimize = t1 - t0;
  sp.Add("optimizer", t0, t1, parent, id);
  if (!plan.ok()) return plan.status();
  c->plan = plan.TakeValue();
  return Status::OK();
}

/// Plan refinement with the database's execution options, at `parallelism`.
Result<exec::OperatorPtr> RefineReplay(Database& db, const Compiled& c,
                                       size_t parallelism,
                                       starburst::obs::PlanStatsTree* stats,
                                       exec::KernelCompileStats* kernels) {
  const auto& o = db.options().exec;
  exec::PlanRefiner::Options ro;
  ro.cache_mode = o.cache_mode;
  ro.ship_delay_us = o.ship_delay_us;
  ro.semi_naive_recursion = o.semi_naive_recursion;
  ro.stats = stats;
  ro.parallelism = parallelism;
  ro.parallel_min_rows = o.parallel_min_rows;
  ro.batch_size = o.batch_size == 0 ? 1 : o.batch_size;
  ro.sort_memory_bytes = o.sort_memory_bytes;
  ro.agg_memory_bytes = o.agg_memory_bytes;
  ro.vectorize = o.vectorize;
  ro.shared_scheduler = &db.task_scheduler();
  exec::PlanRefiner refiner(&db.catalog(), &c.opt->box_plans(), ro);
  Result<exec::OperatorPtr> root = refiner.Refine(c.plan);
  if (!root.ok()) return root.status();
  if (kernels != nullptr) *kernels = refiner.kernel_stats();
  exec::OperatorPtr op = root.TakeValue();
  if (c.graph->limit >= 0) op = exec::MakeLimitOp(std::move(op), c.graph->limit);
  return op;
}

/// Opens and drains the refined tree, binding `params` to the `?` markers.
Result<std::vector<Row>> RunReplay(Database& db, const Compiled& c,
                                   exec::Operator* root,
                                   const std::vector<Value>& params) {
  exec::ExecContext ctx(&db.storage(), &db.catalog());
  const auto& o = db.options().exec;
  ctx.set_batch_size(o.batch_size == 0 ? 1 : o.batch_size);
  ctx.set_query_memory_budget(o.query_memory_bytes);
  exec::ExecContext::ParamFrame frame;
  if (!params.empty()) {
    for (size_t i = 0; i < params.size(); ++i) {
      frame.Set(exec::QueryParamQuantifier(), i, params[i]);
    }
    ctx.PushParams(&frame);
  }
  Status opened = root->Open(&ctx);
  if (!opened.ok()) {
    root->Close();
    return opened;
  }
  double card = c.plan->props.cardinality;
  Result<std::vector<Row>> rows = exec::DrainOperator(
      root, ctx.batch_size(), card > 0 ? static_cast<size_t>(card) : 0, &ctx);
  root->Close();
  if (!rows.ok()) return rows.status();
  std::vector<Row> out = rows.TakeValue();
  size_t visible = c.graph->root()->head.size() - c.graph->hidden_order_columns;
  for (Row& r : out) r.values().resize(visible);
  return out;
}

/// Runs the tree the way the end-to-end call ran its own: a cached plan's
/// tree had run before, so a warm call is matched by timing the second of
/// two runs; a freshly compiled tree ran once, cold.
Result<std::vector<Row>> TimedRun(Database& db, const Compiled& c,
                                  exec::Operator* root,
                                  const std::vector<Value>& params, bool warm,
                                  Spans& sp, int parent, int64_t id,
                                  double* us) {
  if (warm) {
    double t0 = sp.Now();
    Result<std::vector<Row>> first = RunReplay(db, c, root, params);
    sp.Add("exec.warmup", t0, sp.Now(), parent, id);
    if (!first.ok()) return first.status();
  }
  double t0 = sp.Now();
  Result<std::vector<Row>> rows = RunReplay(db, c, root, params);
  double t1 = sp.Now();
  *us = t1 - t0;
  sp.Add("exec.run", t0, t1, parent, id);
  return rows;
}

/// Where each operator kind's self time goes in the per-operator split.
enum OpKind { kScanOp, kJoinOp, kAggOp, kSortOp, kOtherOp, kNumOpKinds };

OpKind KindOf(const std::string& head) {
  if (head.rfind("SCAN", 0) == 0 || head.rfind("ISCAN", 0) == 0) return kScanOp;
  if (head.find("JOIN") != std::string::npos) return kJoinOp;
  if (head.rfind("GROUP", 0) == 0 || head.rfind("DISTINCT", 0) == 0) return kAggOp;
  if (head.rfind("SORT", 0) == 0) return kSortOp;
  return kOtherOp;
}

void AddSelfTimes(const starburst::obs::PlanStatsTree::Node& n, double* out) {
  if (!n.synthetic) {
    out[KindOf(n.name)] += starburst::obs::PlanStatsTree::SelfUs(n);
  }
  for (const auto* child : n.children) AddSelfTimes(*child, out);
}

/// One replayed SELECT: what each layer took and counted.
struct Sample {
  int tmpl = 0;
  bool cache_hit = false;  // the end-to-end call reused a cached plan
  double e2e_us = 0;
  CompileTimes compile;
  double refine_us = 0, run_us = 0;
  /// The faster of two later runs of the tree at kParallelism and at
  /// kTwinParallelism.
  double warm_run_us = 0, twin_run_us = 0;
  double rules_fired = 0, conditions = 0;
  double plans_generated = 0, pairs_considered = 0;
  double kernel_programs = 0, kernel_full = 0;
  double rows_out = 0, pool_reads = 0, index_visits = 0;
  double twin_tasks = 0;  // scheduler tasks of a run at kTwinParallelism
  double op_us[kNumOpKinds] = {};
  double obs_on_us = 0, obs_off_us = 0;

  double CompileUs() const {
    return compile.parse + compile.bind + compile.rewrite + compile.optimize +
           refine_us;
  }
};

/// "" when `rows` are the end-to-end call's rows, else the difference.
std::string SameRows(const Stmt& st, const ResultSet& e2e,
                     const std::vector<Row>& rows) {
  Answer want;
  want.ordered = st.expected.ordered;
  for (const Row& r : e2e.rows()) want.rows.push_back(r.values());
  return CompareRows(want, rows);
}

std::string Replay(Setup& setup, const Stmt& st, const ResultSet& e2e,
                   Spans& sp, int64_t id, Sample* s) {
  Database& db = *setup.db;
  Compiled c;
  int replay = sp.Open("replay", -1, id);
  Status compiled = CompileReplay(db, st.sql, &c, &s->compile, sp, replay, id);
  if (!compiled.ok()) return "replay compile failed: " + compiled.ToString();
  s->rules_fired = c.rewrite.rules_fired;
  s->conditions = c.rewrite.conditions_evaluated;
  s->plans_generated = static_cast<double>(c.opt->stats().generator.plans_generated);
  s->pairs_considered =
      static_cast<double>(c.opt->stats().enumerator.pairs_considered);

  double t0 = sp.Now();
  exec::KernelCompileStats kernels;
  Result<exec::OperatorPtr> root = RefineReplay(db, c, kParallelism, nullptr, &kernels);
  double t1 = sp.Now();
  s->refine_us = t1 - t0;
  sp.Add("exec.refine", t0, t1, replay, id);
  if (!root.ok()) return "replay refine failed: " + root.status().ToString();
  s->kernel_programs = static_cast<double>(kernels.programs);
  s->kernel_full = static_cast<double>(kernels.fully_vectorized);

  starburst::StorageEngine::Stats before = db.storage().GatherStats();
  Result<std::vector<Row>> rows = TimedRun(db, c, root->get(), st.params,
                                           s->cache_hit, sp, replay, id, &s->run_us);
  sp.Close(replay);
  if (!rows.ok()) return "replay run failed: " + rows.status().ToString();
  starburst::StorageEngine::Stats after = db.storage().GatherStats();
  // Counters cover both runs of a warm replay: count one.
  double runs = s->cache_hit ? 2 : 1;
  s->pool_reads = static_cast<double>(
      after.buffer_pool.Since(before.buffer_pool).logical_reads) / runs;
  s->index_visits =
      static_cast<double>(after.index_node_visits - before.index_node_visits) / runs;
  s->rows_out = static_cast<double>(rows->size());
  std::string diff = SameRows(st, e2e, *rows);
  if (!diff.empty()) return "replayed rows differ from the end-to-end call: " + diff;

  // The same plan at kTwinParallelism: P=2 over P=1 run time. The two
  // trees alternate twice and each keeps its faster run, so neither gains
  // from running later on warmer caches.
  int twin_span = sp.Open("replay.twin", -1, id);
  Result<exec::OperatorPtr> twin_root =
      RefineReplay(db, c, kTwinParallelism, nullptr, nullptr);
  if (!twin_root.ok()) return "twin refine failed: " + twin_root.status().ToString();
  s->warm_run_us = s->twin_run_us = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    for (bool is_twin : {false, true}) {
      exec::Operator* tree = is_twin ? twin_root->get() : root->get();
      uint64_t tasks0 = exec::parallel::TaskScheduler::total_tasks_run();
      double r0 = sp.Now();
      rows = RunReplay(db, c, tree, st.params);
      double us = sp.Now() - r0;
      sp.Add(is_twin ? "exec.run.twin" : "exec.rerun", r0, r0 + us, twin_span, id);
      if (!rows.ok()) return "twin run failed: " + rows.status().ToString();
      diff = SameRows(st, e2e, *rows);
      if (!diff.empty()) return "rerun rows differ from the end-to-end call: " + diff;
      double& best = is_twin ? s->twin_run_us : s->warm_run_us;
      best = std::min(best, us);
      if (is_twin) {
        s->twin_tasks = static_cast<double>(
            exec::parallel::TaskScheduler::total_tasks_run() - tasks0);
      }
    }
  }
  sp.Close(twin_span);

  // Per-operator self time from the engine's operator statistics.
  int ops_span = sp.Open("replay.opstats", -1, id);
  starburst::obs::PlanStatsTree tree;
  Result<exec::OperatorPtr> stats_root = RefineReplay(db, c, kParallelism, &tree, nullptr);
  if (!stats_root.ok()) return "opstats refine failed: " + stats_root.status().ToString();
  rows = RunReplay(db, c, stats_root->get(), st.params);
  sp.Close(ops_span);
  if (!rows.ok()) return "opstats run failed: " + rows.status().ToString();
  for (const auto* n : tree.roots()) AddSelfTimes(*n, s->op_us);

  // The engine's own statement bookkeeping: the same statement with
  // metrics on and off, interleaved; the faster of two runs each.
  double on = 1e300, off = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    for (bool metrics : {true, false}) {
      db.set_metrics_enabled(metrics);
      int span = sp.Open(metrics ? "obs.on" : "obs.off", -1, id);
      Clock::time_point c0 = Clock::now();
      Result<ResultSet> r = Execute(setup, st);
      double us = SecondsSince(c0) * 1e6;
      sp.Close(span);
      if (!r.ok()) {
        db.set_metrics_enabled(true);
        return "metrics-off run failed: " + r.status().ToString();
      }
      (metrics ? on : off) = std::min(metrics ? on : off, us);
    }
  }
  db.set_metrics_enabled(true);
  s->obs_on_us = on;
  s->obs_off_us = off;
  return "";
}

double EngineCompileUs(const starburst::QueryMetrics& m) {
  return m.parse_us + m.bind_us + m.rewrite_us + m.optimize_us + m.refine_us;
}

/// Rows per second decoded by full scans of `table`: block decode
/// (NextBlock, what scans use) or row at a time (Next, what DML uses).
double DecodeRowsPerSecond(Database& db, const std::string& table, bool block) {
  Result<starburst::TableStorage*> t = db.storage().GetTable(table);
  if (!t.ok()) return 0;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<Row> rows(1024);
    std::vector<starburst::Rid> rids(1024);
    uint64_t n = 0;
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<starburst::TableScanIterator> it = (*t)->NewScan();
    if (block) {
      while (true) {
        Result<size_t> got = it->NextBlock(rows.data(), rids.data(), rows.size());
        if (!got.ok() || *got == 0) break;
        n += *got;
      }
    } else {
      while (true) {
        Result<bool> more = it->Next(&rows[0], &rids[0]);
        if (!more.ok() || !*more) break;
        ++n;
      }
    }
    rates.push_back(static_cast<double>(n) / SecondsSince(t0));
  }
  return Median(rates);
}

}  // namespace

TraceReport TracedRun(Setup& setup, Workload& wl, Model& model, Rng& rng,
                      double seconds, const Interlude& interlude,
                      const SetupTimes& setup_times) {
  TraceReport rep;
  Database& db = *setup.db;

  // Untraced half: the reference throughput and the plan-cache hit ratio.
  starburst::PlanCache::Stats cache0 = db.plan_cache().stats();
  LoopStats untraced = RunLoop(setup, wl, model, rng, seconds / 2, nullptr, interlude);
  starburst::PlanCache::Stats cache1 = db.plan_cache().stats();

  // Traced half. The twin replay needs the scheduler workers the engine
  // would start for a P=2 statement (Database::Execute does it for the
  // plan's parallelism); without them GATHER runs its partitions serially.
  db.task_scheduler().EnsureWorkers(kTwinParallelism - 1);
  uint64_t spawned0 = exec::parallel::TaskScheduler::total_workers_spawned();
  Spans spans(Clock::now());
  std::vector<Sample> samples;
  std::vector<Stmt> gap_stmts;
  double queue_us = 0;
  int64_t stmt_id = 0, reads = 0;
  StmtHook hook = [&](const Stmt& st, ResultSet& r, Clock::time_point start,
                      double us) {
    int64_t id = ++stmt_id;
    const starburst::QueryMetrics& m = db.last_metrics();
    queue_us += m.queue_us;
    if (wl.templates()[static_cast<size_t>(st.tmpl)].write) return;
    if (reads++ % wl.trace_every() != 0 || samples.size() >= kMaxSamples) return;
    spans.Add("statement", spans.At(start), spans.At(start) + us, -1, id);
    Sample s;
    s.tmpl = st.tmpl;
    s.e2e_us = us;
    s.cache_hit = m.plan_cache_hit;
    std::string why = Replay(setup, st, r, spans, id, &s);
    if (!why.empty() && rep.error.empty()) {
      rep.error = wl.templates()[static_cast<size_t>(st.tmpl)].name + ": " +
                  why + " [" + st.sql.substr(0, 160) + "]";
    }
    samples.push_back(s);
    if (gap_stmts.size() < kGapStatements) gap_stmts.push_back(st);
  };
  LoopStats traced = RunLoop(setup, wl, model, rng, seconds / 2, hook, interlude);

  // The replayed compile phases against the engine's own last_metrics()
  // timings of the same statements: the plan cache is switched off so
  // Prepare compiles, and the two sides alternate.
  double engine_compile = 0, replay_compile = 0;
  if (db.Execute("SET PLAN_CACHE_SIZE = 0").ok()) {
    for (const Stmt& st : gap_stmts) {
      std::vector<double> engine, replay;
      for (int rep_i = 0; rep_i < 3; ++rep_i) {
        if (!db.Prepare(st.sql).ok()) break;
        engine.push_back(EngineCompileUs(db.last_metrics()));
        Compiled c;
        CompileTimes t;
        int span = spans.Open("gap.replay", -1, 0);
        if (!CompileReplay(db, st.sql, &c, &t, spans, span, 0).ok()) break;
        double r0 = spans.Now();
        Result<exec::OperatorPtr> root = RefineReplay(db, c, kParallelism, nullptr, nullptr);
        double refine = spans.Now() - r0;
        spans.Add("exec.refine", r0, r0 + refine, span, 0);
        spans.Close(span);
        replay.push_back(t.parse + t.bind + t.rewrite + t.optimize + refine);
      }
      if (engine.empty() || replay.size() != engine.size()) continue;
      engine_compile += Median(engine);
      replay_compile += Median(replay);
    }
  }

  double block_rate = DecodeRowsPerSecond(db, "sales", true);
  double row_rate = DecodeRowsPerSecond(db, "sales", false);

  // Per-statement means over the replayed sample.
  auto mean = [&](auto field) {
    double sum = 0;
    for (const Sample& s : samples) sum += field(s);
    return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  double sum_e2e = 0, sum_compile_e2e = 0, sum_run = 0, sum_p2 = 0, sum_p1 = 0;
  double fired = 0, conditions = 0, programs = 0, full = 0;
  for (const Sample& s : samples) {
    sum_e2e += s.e2e_us;
    if (!s.cache_hit) sum_compile_e2e += s.CompileUs();
    sum_run += s.run_us;
    sum_p2 += s.twin_run_us;
    sum_p1 += s.warm_run_us;
    fired += s.rules_fired;
    conditions += s.conditions;
    programs += s.kernel_programs;
    full += s.kernel_full;
  }
  uint64_t hits = cache1.hits - cache0.hits;
  uint64_t lookups = hits + (cache1.misses - cache0.misses);
  // Statements per second of wall time, replays included, set-ups not.
  auto tps = [](const LoopStats& l) {
    return static_cast<double>(l.attempted) / (l.wall_s - l.paused_s);
  };

  auto add = [&](const char* name, const char* unit, double v) {
    rep.metrics.push_back({name, unit, v});
  };
  add("parser.parse_us", "us", mean([](const Sample& s) { return s.compile.parse; }));
  add("qgm.bind_us", "us", mean([](const Sample& s) { return s.compile.bind; }));
  add("rewrite.rewrite_us", "us", mean([](const Sample& s) { return s.compile.rewrite; }));
  add("rewrite.rules_fired", "count", mean([](const Sample& s) { return s.rules_fired; }));
  add("rewrite.fired_per_condition", "ratio", ratio(fired, conditions));
  add("optimizer.optimize_us", "us", mean([](const Sample& s) { return s.compile.optimize; }));
  add("optimizer.plans_generated", "count",
      mean([](const Sample& s) { return s.plans_generated; }));
  add("optimizer.pairs_considered", "count",
      mean([](const Sample& s) { return s.pairs_considered; }));
  add("exec.refine_us", "us", mean([](const Sample& s) { return s.refine_us; }));
  add("exec.run_us", "us", mean([](const Sample& s) { return s.run_us; }));
  add("exec.rows_out", "count", mean([](const Sample& s) { return s.rows_out; }));
  add("exec.kernel_full_ratio", "ratio", ratio(full, programs));
  static const char* kOpMetric[kNumOpKinds] = {"exec.op.scan_us", "exec.op.join_us",
                                               "exec.op.agg_us", "exec.op.sort_us",
                                               "exec.op.other_us"};
  for (int k = 0; k < kNumOpKinds; ++k) {
    add(kOpMetric[k], "us", mean([k](const Sample& s) { return s.op_us[k]; }));
  }
  double twin_tasks = mean([](const Sample& s) { return s.twin_tasks; });
  add("exec.parallel.tasks", "count", twin_tasks);
  add("exec.parallel.run_ratio", "ratio", ratio(sum_p2, sum_p1));
  add("storage.block_decode_rows_per_s", "1/s", block_rate);
  add("storage.row_decode_rows_per_s", "1/s", row_rate);
  add("storage.pool_reads", "count", mean([](const Sample& s) { return s.pool_reads; }));
  add("storage.index_visits", "count", mean([](const Sample& s) { return s.index_visits; }));
  add("storage.load_us_per_row", "us", Median(setup_times.load_us_per_row));
  add("catalog.analyze_ms", "ms", Median(setup_times.analyze_ms));
  add("engine.overhead_us", "us",
      mean([](const Sample& s) {
        return s.e2e_us - s.run_us - (s.cache_hit ? 0 : s.CompileUs());
      }));
  add("engine.plan_cache_hit_ratio", "ratio",
      ratio(static_cast<double>(hits), static_cast<double>(lookups)));
  add("engine.queue_us", "us",
      ratio(queue_us, static_cast<double>(traced.attempted - traced.failed)));
  add("obs.bookkeeping_us", "us",
      mean([](const Sample& s) { return s.obs_on_us - s.obs_off_us; }));
  add("trace.read_e2e_us", "us", mean([](const Sample& s) { return s.e2e_us; }));
  add("trace.compile_share", "ratio", ratio(sum_compile_e2e, sum_e2e));
  add("trace.run_share", "ratio", ratio(sum_run, sum_e2e));
  add("trace.throughput_ratio", "ratio", ratio(tps(traced), tps(untraced)));
  add("trace.compile_gap_pct", "%",
      100.0 * ratio(replay_compile - engine_compile, engine_compile));
  if (samples.empty() && rep.error.empty()) rep.error = "no SELECT was replayed";
  uint64_t spawned =
      exec::parallel::TaskScheduler::total_workers_spawned() - spawned0;
  if (twin_tasks > 0 && spawned < kTwinParallelism - 1 && rep.error.empty()) {
    rep.error = "the P=2 replay ran its GATHER tasks without a scheduler worker";
  }

  rep.layers_json = "{\"replayed_selects\": " + std::to_string(samples.size()) +
                    ", \"span_self_time\": " + spans.SelfTimeJson() + "}";
  rep.chrome_json = spans.ChromeJson();

  rep.loops = std::move(untraced);
  for (size_t t = 0; t < rep.loops.samples.size(); ++t) {
    rep.loops.samples[t].insert(rep.loops.samples[t].end(),
                                traced.samples[t].begin(), traced.samples[t].end());
  }
  rep.loops.attempted += traced.attempted;
  rep.loops.failed += traced.failed;
  rep.loops.busy_s += traced.busy_s;
  rep.loops.errors.insert(rep.loops.errors.end(), traced.errors.begin(),
                          traced.errors.end());
  rep.loops.correct = rep.loops.correct && traced.correct;
  rep.loops.selftest_caught = rep.loops.selftest_caught || traced.selftest_caught;
  return rep;
}

}  // namespace perfbench
