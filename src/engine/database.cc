#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <set>

#if defined(__GLIBC__)
#include <malloc.h>

#include <mutex>
#endif

#include "exec/expr_eval.h"
#include "exec/parallel/task_scheduler.h"
#include "parser/parser.h"
#include "qgm/printer.h"
#include "storage/spill_file.h"

namespace starburst {

namespace {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedUs() const {
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct ValueTotalLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.CompareTotal(b) < 0;
  }
};

/// Ends a statement's exclusive use of a compiled tree.
struct CheckoutGuard {
  PreparedStatement* ps = nullptr;
  ~CheckoutGuard() {
    if (ps != nullptr) ps->Release();
  }
};

}  // namespace

Database::Database(size_t buffer_pool_pages)
    : storage_(buffer_pool_pages),
      rule_engine_(rewrite::MakeDefaultRuleEngine()) {
#if defined(__GLIBC__)
  // Query results are built from many small allocations and freed in one
  // burst when the caller drops the ResultSet. glibc's default trim
  // policy hands that burst back to the kernel, so the next statement
  // re-faults the same pages. A database process keeps its working set:
  // retain up to 64 MiB of freed arena for reuse.
  static std::once_flag malloc_tuned;
  std::call_once(malloc_tuned, [] { mallopt(M_TRIM_THRESHOLD, 64 << 20); });
#endif
  auto settings = std::make_shared<Settings>();
#ifdef STARBURST_PARANOID_QGM
  // Sanitizer builds re-validate the whole QGM after every rule firing.
  settings->rewrite.paranoid_validation = true;
#endif
  settings->plan_fingerprint = PlanFingerprint(*settings);
  settings_ = std::move(settings);
  // Resolve every engine metric once; statement-end bookkeeping then
  // touches only the returned atomics.
  obs::MetricsRegistry& r = metrics_registry_;
  em_.queries_total = r.counter("queries_total");
  em_.query_errors_total = r.counter("query_errors_total");
  em_.slow_queries_total = r.counter("slow_queries_total");
  em_.query_latency_us =
      r.histogram("query_latency_us", obs::MetricsRegistry::LatencyBoundsUs());
  em_.plan_cache_hits = r.counter("plan_cache_hits_total");
  em_.plan_cache_misses = r.counter("plan_cache_misses_total");
  em_.plan_cache_invalidations = r.counter("plan_cache_invalidations_total");
  em_.plan_cache_evictions = r.counter("plan_cache_evictions_total");
  em_.plan_cache_entries = r.gauge("plan_cache_entries");
  em_.buffer_pool_logical_reads = r.counter("buffer_pool_logical_reads_total");
  em_.buffer_pool_cache_hits = r.counter("buffer_pool_cache_hits_total");
  em_.buffer_pool_disk_reads = r.counter("buffer_pool_disk_reads_total");
  em_.buffer_pool_disk_writes = r.counter("buffer_pool_disk_writes_total");
  em_.spill_files_created = r.counter("spill_files_created_total");
  em_.spill_bytes_written = r.counter("spill_bytes_written_total");
  em_.spill_live_files = r.gauge("spill_live_files");
  em_.spill_live_bytes = r.gauge("spill_live_bytes");
  em_.scheduler_tasks_run = r.counter("scheduler_tasks_run_total");
  em_.scheduler_workers_spawned = r.counter("scheduler_workers_spawned_total");
  em_.memory_query_peak_bytes = r.gauge("memory_query_peak_bytes");
  em_.memory_query_peak_max_bytes = r.gauge("memory_query_peak_max_bytes");
  em_.statements_killed_total = r.counter("statements_killed_total");
  em_.statements_cancelled_total = r.counter("statements_cancelled_total");
  em_.statements_timed_out_total = r.counter("statements_timed_out_total");
  em_.admission_queued_total = r.counter("admission_queued_total");
  em_.admission_rejected_total = r.counter("admission_rejected_total");
  em_.admission_timeouts_total = r.counter("admission_timeouts_total");
  em_.admission_cancelled_while_queued_total =
      r.counter("admission_cancelled_while_queued_total");
  em_.admission_aged_total = r.counter("admission_aged_total");
  em_.admission_admitted_by_class[0] =
      r.counter("admission_high_admitted_total");
  em_.admission_admitted_by_class[1] =
      r.counter("admission_normal_admitted_total");
  em_.admission_admitted_by_class[2] =
      r.counter("admission_low_admitted_total");
  em_.admission_queued_by_class[0] = r.counter("admission_high_queued_total");
  em_.admission_queued_by_class[1] = r.counter("admission_normal_queued_total");
  em_.admission_queued_by_class[2] = r.counter("admission_low_queued_total");
  em_.admission_waiting = r.gauge("admission_waiting");
  em_.admission_in_use_bytes = r.gauge("admission_in_use_bytes");
  em_.admission_budget_bytes = r.gauge("admission_budget_bytes");
  em_.scheduler_preemptions = r.counter("scheduler_preemptions_total");
  em_.statements_live = r.gauge("statements_live");
  em_.query_log_dropped_total = r.counter("query_log_dropped_total");
  em_.query_log_cleared_total = r.counter("query_log_cleared_total");
  RegisterSystemTables();
}

Status Database::RegisterStar(optimizer::Star star) {
  extra_stars_.push_back(std::move(star));
  return Status::OK();
}

namespace {

/// Rows a statement produced, for the query log: result rows for
/// queries, affected rows for DML, 0 on error.
uint64_t LoggedRowCount(const Result<ResultSet>& r) {
  if (!r.ok()) return 0;
  if ((*r).row_count() > 0) return (*r).row_count();
  return static_cast<uint64_t>(std::max<int64_t>(0, (*r).affected_rows()));
}

/// Fallback query-log label for script statements, whose original text
/// is not retained per statement.
/// A DML statement's result label and the verb its error messages use.
std::pair<const char*, const char*> DmlNames(ast::StatementKind kind) {
  if (kind == ast::StatementKind::kInsert) return {"INSERT", "insert into"};
  if (kind == ast::StatementKind::kUpdate) return {"UPDATE", "update"};
  return {"DELETE", "delete from"};
}

/// Clear error for any DDL/DML aimed at the reserved sys schema.
Status RejectSystemTarget(const std::string& name, const char* verb) {
  if (!IsSystemTableName(name)) return Status::OK();
  return Status::InvalidArgument(std::string("cannot ") + verb + " '" +
                                 IdentUpper(name) +
                                 "': sys.* tables are read-only");
}


const char* StatementKindLabel(ast::StatementKind kind) {
  switch (kind) {
    case ast::StatementKind::kSelect: return "<script SELECT>";
    case ast::StatementKind::kExplain: return "<script EXPLAIN>";
    case ast::StatementKind::kCreateTable: return "<script CREATE TABLE>";
    case ast::StatementKind::kDropTable: return "<script DROP TABLE>";
    case ast::StatementKind::kCreateIndex: return "<script CREATE INDEX>";
    case ast::StatementKind::kDropIndex: return "<script DROP INDEX>";
    case ast::StatementKind::kCreateView: return "<script CREATE VIEW>";
    case ast::StatementKind::kDropView: return "<script DROP VIEW>";
    case ast::StatementKind::kInsert: return "<script INSERT>";
    case ast::StatementKind::kDelete: return "<script DELETE>";
    case ast::StatementKind::kUpdate: return "<script UPDATE>";
    case ast::StatementKind::kSet: return "<script SET>";
    case ast::StatementKind::kAnalyze: return "<script ANALYZE>";
    case ast::StatementKind::kKill: return "<script KILL>";
  }
  return "<script statement>";
}

}  // namespace

Database::StatementState& Database::stmt_state() {
  thread_local StatementState state;
  return state;
}

void Database::BeginStatement(const std::string& sql) {
  StatementState& s = stmt_state();
  s.settings = settings();
  s.metrics = QueryMetrics{};
  s.cancel.Reset();
  s.cancel.SetTimeoutMs(s.settings->statement_timeout_ms);
  s.id = static_cast<int64_t>(++statement_seq_);
  s.start_ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  s.parallelism = static_cast<int>(s.settings->exec.parallelism);
  s.admission_rejected = false;
  statements_.Register(s.id, NormalizeSql(sql), s.start_ts_us, &s.cancel);
}

Result<ResultSet> Database::Execute(const std::string& sql) {
  BeginStatement(sql);
  Timer total_timer;
  Result<ResultSet> result = ExecuteInternal(sql);
  FinishStatement(sql, result.status(), LoggedRowCount(result),
                  total_timer.ElapsedUs());
  return result;
}

Result<ResultSet> Database::ExecuteInternal(const std::string& sql) {
  obs::Span statement_span(&tracer_, "statement", "query");
  statement_span.AddArg("sql",
                        sql.size() > 120 ? sql.substr(0, 117) + "..." : sql);
  // Plan-cache fast path: a fresh entry under (normalized SQL, plan
  // fingerprint) re-executes the compiled operator tree without touching
  // the parser — the whole compile half of Figure 1 is skipped.
  std::string cache_key;
  if (plan_cache_.capacity() > 0) {
    cache_key = PlanCacheKey(sql);
    bool busy = false;
    if (PreparedStatementPtr hit =
            plan_cache_.Lookup(cache_key, catalog_, &busy)) {
      CheckoutGuard checkout{hit.get()};
      if (hit->num_params > 0) {
        return Status::InvalidArgument(
            "statement contains ? parameters; supply values through "
            "ExecutePrepared");
      }
      stmt_state().metrics.plan_cache_hit = true;
      STARBURST_ASSIGN_OR_RETURN(QueryOutput out,
                                 ExecuteCompiled(*hit, nullptr));
      SnapshotPlanCacheMetrics();
      return ResultSet(std::move(out.column_names), std::move(out.rows));
    }
    // Another statement is running the cached tree: compile a private
    // copy and leave the entry to it.
    if (busy) cache_key.clear();
  }
  obs::Span parse_span(&tracer_, "parse", "phase");
  Timer parse_timer;
  Parser parser(sql);
  STARBURST_ASSIGN_OR_RETURN(ast::StatementPtr stmt, parser.ParseStatement());
  stmt_state().metrics.parse_us = parse_timer.ElapsedUs();
  parse_span.End();
  return ExecuteStatement(*stmt, cache_key, sql);
}

Result<ResultSet> Database::ExecuteScript(const std::string& sql) {
  Parser parser(sql);
  STARBURST_ASSIGN_OR_RETURN(std::vector<ast::StatementPtr> stmts,
                             parser.ParseScript());
  const std::vector<double>& parse_us = parser.statement_parse_us();
  ResultSet last = ResultSet::Message("empty script");
  for (size_t i = 0; i < stmts.size(); ++i) {
    // Each statement begins fresh: without the reset, phase timings and
    // exec stats of earlier statements bleed into the metrics of the
    // last one.
    const char* label = StatementKindLabel(stmts[i]->kind);
    BeginStatement(label);
    stmt_state().metrics.parse_us = i < parse_us.size() ? parse_us[i] : 0;
    Timer stmt_timer;
    Result<ResultSet> r = ExecuteStatement(*stmts[i]);
    FinishStatement(label, r.status(), LoggedRowCount(r),
                    stmt_state().metrics.parse_us + stmt_timer.ElapsedUs());
    if (!r.ok()) return r.status();
    last = r.TakeValue();
  }
  return last;
}

Result<Database::PreparedHandle> Database::Prepare(const std::string& sql) {
  // Prepare is not a registered statement (there is nothing to KILL):
  // reset the thread's statement state without admitting it.
  StatementState& s = stmt_state();
  s.settings = settings();
  s.metrics = QueryMetrics{};
  s.cancel.Reset();
  s.id = 0;
  s.admission_rejected = false;
  // No FinishStatement runs for a Prepare; publish its compile metrics
  // to last_metrics() on every exit path ourselves.
  struct MetricsGuard {
    Database* db;
    ~MetricsGuard() {
      std::lock_guard<std::mutex> lock(db->last_metrics_mu_);
      db->last_metrics_ = stmt_state().metrics;
    }
  } metrics_guard{this};
  obs::Span statement_span(&tracer_, "prepare", "query");
  std::string cache_key;
  if (plan_cache_.capacity() > 0) {
    cache_key = PlanCacheKey(sql);
    bool busy = false;
    if (PreparedStatementPtr hit =
            plan_cache_.Lookup(cache_key, catalog_, &busy)) {
      hit->Release();  // the handle runs only through ExecutePrepared
      stmt_state().metrics.plan_cache_hit = true;
      SnapshotPlanCacheMetrics();
      return hit;
    }
    if (busy) cache_key.clear();
  }
  STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr ps, CompileSql(sql));
  if (!cache_key.empty()) {
    plan_cache_.CountMiss();
    plan_cache_.Insert(cache_key, ps);
  }
  SnapshotPlanCacheMetrics();
  return ps;
}

Result<ResultSet> Database::ExecutePrepared(const PreparedHandle& handle,
                                            const std::vector<Value>& params) {
  if (handle == nullptr) {
    return Status::InvalidArgument("null prepared statement handle");
  }
  BeginStatement(handle->sql);
  Timer total_timer;
  Result<ResultSet> result = [&]() -> Result<ResultSet> {
  obs::Span statement_span(&tracer_, "statement", "query");
  PreparedStatementPtr ps = handle;
  CheckoutGuard checkout;
  if (!handle->TryCheckout()) {
    // Another statement is running this handle's tree: run a private copy.
    plan_cache_.CountMiss();
    STARBURST_ASSIGN_OR_RETURN(ps, CompileSql(handle->sql));
  } else {
    checkout.ps = handle.get();
    if (!handle->FreshAgainst(catalog_)) {
      // A referenced object changed (DDL or ANALYZE): transparently
      // recompile in place, so this handle — and any plan-cache entry
      // sharing it — serves the fresh plan from now on. `fresh` leaves
      // with the old plan and destroys it member by member, operators
      // before the plan and graph they point into.
      plan_cache_.CountInvalidation();
      STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr fresh,
                                 CompileSql(handle->sql));
      std::swap(static_cast<CompiledSelect&>(*handle),
                static_cast<CompiledSelect&>(*fresh));
    } else {
      stmt_state().metrics.plan_cache_hit = true;
      plan_cache_.CountHit();
    }
  }
  STARBURST_ASSIGN_OR_RETURN(QueryOutput out, ExecuteCompiled(*ps, &params));
  SnapshotPlanCacheMetrics();
  return ResultSet(std::move(out.column_names), std::move(out.rows));
  }();
  FinishStatement(handle->sql, result.status(), LoggedRowCount(result),
                  total_timer.ElapsedUs());
  return result;
}

void Database::SnapshotPlanCacheMetrics() {
  stmt_state().metrics.plan_cache = plan_cache_.stats();
  stmt_state().metrics.plan_cache_entries = plan_cache_.size();
}

Result<std::vector<Row>> Database::Query(const std::string& sql) {
  STARBURST_ASSIGN_OR_RETURN(ResultSet rs, Execute(sql));
  return std::move(rs.mutable_rows());
}

Result<ResultSet> Database::ExecuteStatement(const ast::Statement& stmt,
                                             const std::string& cache_key,
                                             const std::string& sql) {
  switch (stmt.kind) {
    case ast::StatementKind::kSelect:
      return RunSelect(stmt, cache_key, sql);
    case ast::StatementKind::kExplain:
      return RunExplain(static_cast<const ast::ExplainStatement&>(stmt));
    case ast::StatementKind::kCreateTable:
      return RunCreateTable(static_cast<const ast::CreateTableStatement&>(stmt));
    case ast::StatementKind::kDropTable:
      return RunDropTable(static_cast<const ast::DropTableStatement&>(stmt).name);
    case ast::StatementKind::kCreateIndex:
      return RunCreateIndex(static_cast<const ast::CreateIndexStatement&>(stmt));
    case ast::StatementKind::kDropIndex:
      return RunDropIndex(static_cast<const ast::DropIndexStatement&>(stmt).name);
    case ast::StatementKind::kCreateView:
      return RunCreateView(static_cast<const ast::CreateViewStatement&>(stmt));
    case ast::StatementKind::kDropView:
      return RunDropView(static_cast<const ast::DropViewStatement&>(stmt).name);
    case ast::StatementKind::kInsert:
    case ast::StatementKind::kDelete:
    case ast::StatementKind::kUpdate: {
      STARBURST_ASSIGN_OR_RETURN(QueryOutput out, RunQueryPipeline(stmt));
      return ResultSet::Message(DmlNames(stmt.kind).first, out.affected_rows);
    }
    case ast::StatementKind::kSet:
      return ChangeSetting(static_cast<const ast::SetStatement&>(stmt));
    case ast::StatementKind::kKill:
      return RunKill(static_cast<const ast::KillStatement&>(stmt));
    case ast::StatementKind::kAnalyze: {
      const auto& analyze = static_cast<const ast::AnalyzeStatement&>(stmt);
      if (analyze.table.empty()) {
        STARBURST_RETURN_IF_ERROR(AnalyzeAll());
      } else {
        STARBURST_RETURN_IF_ERROR(Analyze(analyze.table));
      }
      return ResultSet::Message("ANALYZE");
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<ResultSet> Database::ChangeSetting(const ast::SetStatement& stmt) {
  std::lock_guard<std::mutex> lock(settings_mu_);
  auto next = std::make_shared<Settings>(*settings_);
  SettingsTarget target{next.get(), &plan_cache_, &tracer_, &admission_};
  STARBURST_ASSIGN_OR_RETURN(std::string message, ApplySet(stmt, target));
  next->plan_fingerprint = PlanFingerprint(*next);
  settings_ = std::move(next);
  return ResultSet::Message(std::move(message));
}

Result<ResultSet> Database::RunKill(const ast::KillStatement& stmt) {
  STARBURST_RETURN_IF_ERROR(statements_.Kill(stmt.statement_id));
  em_.statements_killed_total->Increment();
  return ResultSet::Message("KILL " + std::to_string(stmt.statement_id));
}

// ---------------------------------------------------------------------------
// Query pipeline (Figure 1)
// ---------------------------------------------------------------------------

Result<Database::QueryOutput> Database::RunQueryPipeline(
    const ast::Statement& stmt, PipelineCapture* capture) {
  qgm::Binder::DmlTarget dml;
  STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr ps,
                             CompileSelect(stmt, capture, &dml));
  if (capture != nullptr && !capture->execute) return QueryOutput{};
  STARBURST_ASSIGN_OR_RETURN(QueryOutput out, ExecuteCompiled(*ps, nullptr));
  if (dml.table != nullptr) {
    obs::Span apply_span(&tracer_, "apply", "phase");
    Timer apply_timer;
    STARBURST_ASSIGN_OR_RETURN(out.affected_rows,
                               ApplyChanges(stmt.kind, dml, &out.rows));
    stmt_state().metrics.execute_us += apply_timer.ElapsedUs();
  }
  return out;
}

Result<PreparedStatementPtr> Database::CompileSelect(
    const ast::Statement& stmt, PipelineCapture* capture,
    qgm::Binder::DmlTarget* dml) {
  const Settings& o = *stmt_state().settings;
  auto ps = std::make_shared<PreparedStatement>();
  statements_.SetPhase(stmt_state().id, "compile");

  obs::Span bind_span(&tracer_, "bind", "phase");
  Timer bind_timer;
  qgm::Binder binder(&catalog_);
  if (stmt.kind == ast::StatementKind::kSelect) {
    STARBURST_ASSIGN_OR_RETURN(
        ps->graph,
        binder.BindQuery(*static_cast<const ast::SelectStatement&>(stmt).query));
  } else {
    STARBURST_RETURN_IF_ERROR(
        RejectSystemTarget(static_cast<const ast::DmlStatement&>(stmt).table,
                           DmlNames(stmt.kind).second));
    STARBURST_ASSIGN_OR_RETURN(ps->graph, binder.BindDml(stmt, dml));
  }
  // Freshness contract: the compiled plan is valid while none of the
  // objects the binder resolved (transitively, through views) changes.
  for (const std::string& dep : binder.referenced_objects()) {
    ps->dependencies.emplace_back(dep, catalog_.ObjectVersion(dep));
  }
  ps->catalog_version = catalog_.version();
  stmt_state().metrics.bind_us = bind_timer.ElapsedUs();
  bind_span.End();

  qgm::Graph* graph = ps->graph.get();
  ps->num_params = graph->num_params;

  if (o.rewrite_enabled && (capture == nullptr || !capture->skip_rewrite)) {
    obs::Span rewrite_span(&tracer_, "rewrite", "phase");
    Timer rewrite_timer;
    STARBURST_ASSIGN_OR_RETURN(stmt_state().metrics.rewrite_stats,
                               rule_engine_.Run(graph, &catalog_, o.rewrite));
    stmt_state().metrics.rewrite_us = rewrite_timer.ElapsedUs();
    rewrite_span.End();
    // Replay the rule firings into the trace: one provenance log, two
    // consumers (EXPLAIN below, timeline here).
    if (tracer_.enabled()) {
      for (const rewrite::RuleEngine::Stats::Firing& f :
           stmt_state().metrics.rewrite_stats.firings) {
        tracer_.RecordInstant(
            "rule " + f.rule, "rewrite", f.at_us,
            "\"box\":\"" + obs::JsonEscape(f.box_label) +
                "\",\"box_id\":\"" + std::to_string(f.box_id) +
                "\",\"pass\":\"" + std::to_string(f.pass) + "\"");
      }
    }
  }
  if (capture != nullptr && capture->want_texts) {
    capture->qgm_text = qgm::PrintGraph(*graph);
  }

  obs::Span optimize_span(&tracer_, "optimize", "phase");
  Timer optimize_timer;
  ps->optimizer =
      std::make_unique<optimizer::Optimizer>(&catalog_, o.optimizer);
  optimizer::Optimizer& opt = *ps->optimizer;
  for (const optimizer::Star& star : extra_stars_) {
    STARBURST_RETURN_IF_ERROR(opt.stars().Add(star));
  }
  STARBURST_ASSIGN_OR_RETURN(ps->plan, opt.Optimize(*graph));
  const optimizer::PlanPtr& plan = ps->plan;
  stmt_state().metrics.optimize_us = optimize_timer.ElapsedUs();
  stmt_state().metrics.optimizer_stats = opt.stats();
  stmt_state().metrics.plan_cost = plan->props.cost;
  stmt_state().metrics.plan_cardinality = plan->props.cardinality;
  ps->plan_cost = plan->props.cost;
  ps->plan_cardinality = plan->props.cardinality;
  // Workload classification (qserv-style fast/slow groups): a plan at or
  // above either threshold is expected to run long. Under
  // STATEMENT_PRIORITY = DEFAULT that demotes it to low priority, so
  // interactive statements are admitted and scheduled ahead of it.
  ps->slow_class = plan->props.cost >= o.slow_plan_cost ||
                   plan->props.cardinality >= o.slow_plan_rows;
  ps->priority =
      o.statement_priority > 0
          ? o.statement_priority - 1
          : static_cast<int>(ps->slow_class ? StatementPriority::kLow
                                            : StatementPriority::kNormal);
  optimize_span.End();
  if (capture != nullptr && capture->want_texts) {
    capture->plan_text = plan->ToString();
  }

  bool collect_stats = o.collect_op_stats ||
                       (capture != nullptr && capture->collect_stats);
  if (collect_stats) ps->stats_tree = std::make_shared<obs::PlanStatsTree>();

  obs::Span refine_span(&tracer_, "refine", "phase");
  Timer refine_timer;
  exec::PlanRefiner::Options refine_options = o.exec;
  refine_options.stats = ps->stats_tree.get();
  refine_options.shared_scheduler = &scheduler_;
  exec::PlanRefiner refiner(&catalog_, &opt.box_plans(), refine_options);
  STARBURST_ASSIGN_OR_RETURN(ps->root, refiner.Refine(plan));
  ps->kernel_programs = refiner.kernel_stats().programs;
  ps->kernel_programs_full = refiner.kernel_stats().fully_vectorized;
  stmt_state().metrics.kernel_programs = ps->kernel_programs;
  stmt_state().metrics.kernel_programs_full = ps->kernel_programs_full;
  if (graph->limit >= 0) {
    ps->root = exec::MakeLimitOp(std::move(ps->root), graph->limit);
    if (ps->stats_tree != nullptr) {
      obs::PlanStatsTree::Node* limit_node = ps->stats_tree->WrapRoot(
          "LIMIT " + std::to_string(graph->limit), plan->props.cardinality,
          plan->props.cost);
      ps->root->set_stats(&limit_node->actual);
    }
  }
  stmt_state().metrics.refine_us = refine_timer.ElapsedUs();
  refine_span.End();
  stmt_state().metrics.op_stats = ps->stats_tree;

  ps->batch_size = refine_options.batch_size;
  ps->parallelism = static_cast<int>(refine_options.parallelism);
  ps->reserve_hint = plan->props.cardinality > 0
                         ? static_cast<size_t>(plan->props.cardinality)
                         : 0;
  ps->hidden_order_columns = graph->hidden_order_columns;
  ps->visible_columns =
      graph->root()->head.size() - graph->hidden_order_columns;
  for (size_t i = 0; i < ps->visible_columns; ++i) {
    ps->column_names.push_back(graph->root()->head[i].name);
  }
  return ps;
}

Result<PreparedStatementPtr> Database::CompileSql(const std::string& sql) {
  obs::Span parse_span(&tracer_, "parse", "phase");
  Timer parse_timer;
  Parser parser(sql);
  STARBURST_ASSIGN_OR_RETURN(ast::StatementPtr stmt, parser.ParseStatement());
  stmt_state().metrics.parse_us = parse_timer.ElapsedUs();
  parse_span.End();
  if (stmt->kind != ast::StatementKind::kSelect) {
    return Status::InvalidArgument("only SELECT statements can be prepared");
  }
  STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr ps,
                             CompileSelect(*stmt, nullptr));
  ps->sql = sql;
  return ps;
}

Result<Database::QueryOutput> Database::ExecuteCompiled(
    PreparedStatement& ps, const std::vector<Value>* params) {
  size_t given = params == nullptr ? 0 : params->size();
  if (given != ps.num_params) {
    return Status::InvalidArgument(
        "statement expects " + std::to_string(ps.num_params) +
        " parameter value(s), got " + std::to_string(given));
  }

  obs::Span exec_span(&tracer_, "execute", "phase");
  Timer exec_timer;
  StorageEngine::Stats storage_before = storage_.GatherStats();
  uint64_t spill_before = SpillFile::total_bytes();
  // A cached stats tree still carries the previous run's actuals.
  if (ps.stats_tree != nullptr) ps.stats_tree->ResetActuals();
  StatementState& s = stmt_state();
  exec::ExecContext ctx(&storage_, &catalog_);
  ctx.set_batch_size(ps.batch_size);
  const uint64_t query_memory = s.settings->exec.query_memory_bytes;
  ctx.set_query_memory_budget(query_memory);

  // Governance: wire the statement's cancel token into the execution
  // context (operators poll it at batch boundaries), reserve the query's
  // memory from the global admission ledger, and expose the live tracker
  // through the statement registry.
  s.parallelism = ps.parallelism;
  ctx.set_cancel_token(&s.cancel);
  // Workload class: stamped at compile time, surfaced while live so
  // sys.statements shows what the queue is ordered by.
  const auto priority = static_cast<StatementPriority>(ps.priority);
  s.priority_label = PriorityName(priority);
  s.class_label = ps.slow_class ? "slow" : "fast";
  ctx.set_scheduler_priority(ps.priority);
  statements_.SetWorkload(s.id, s.priority_label, s.class_label, -1);
  statements_.SetPhase(s.id, "queued");
  Timer queue_timer;
  Result<AdmissionGrant> admitted =
      admission_.Admit(query_memory, priority, &s.cancel);
  s.metrics.queue_us = queue_timer.ElapsedUs();
  statements_.SetWorkload(s.id, nullptr, nullptr,
                          static_cast<int64_t>(s.metrics.queue_us));
  if (!admitted.ok()) {
    if (admitted.status().code() == StatusCode::kAborted) {
      s.admission_rejected = true;
    }
    return admitted.status();
  }
  AdmissionGrant grant = admitted.TakeValue();
  statements_.SetPhase(s.id, "execute");
  // Grow the shared pool to this plan's width before any Gather opens.
  if (ps.parallelism > 1) {
    scheduler_.EnsureWorkers(static_cast<size_t>(ps.parallelism - 1));
  }
  statements_.SetMemoryTracker(s.id, ctx.query_memory());
  // Declared after `ctx` so the registry stops pointing at the tracker
  // before it dies.
  struct TrackerGuard {
    StatementRegistry* registry;
    int64_t id;
    ~TrackerGuard() { registry->SetMemoryTracker(id, nullptr); }
  } tracker_guard{&statements_, s.id};
  // A KILL or deadline that landed during compile/queue stops the
  // statement before any operator opens.
  STARBURST_RETURN_IF_ERROR(ctx.CheckCancel());

  // Parameter values ride the correlation-parameter machinery: one frame
  // under the sentinel quantifier, visible to every operator and
  // subquery in the tree.
  exec::ExecContext::ParamFrame frame;
  if (ps.num_params > 0) {
    for (size_t i = 0; i < params->size(); ++i) {
      frame.Set(exec::QueryParamQuantifier(), i, (*params)[i]);
    }
    ctx.PushParams(&frame);
  }
  Status opened = ps.root->Open(&ctx);
  if (!opened.ok()) {
    // The tree stays alive (cached/prepared); release whatever a
    // partially failed Open accumulated rather than waiting for the
    // destructor that may never come.
    ps.root->Close();
    return opened;
  }
  Result<std::vector<Row>> rows =
      exec::DrainOperator(ps.root.get(), ctx.batch_size(), ps.reserve_hint,
                          &ctx);
  ps.root->Close();
  QueryMetrics& m = s.metrics;
  m.execute_us = exec_timer.ElapsedUs();
  m.exec_stats = ctx.stats();
  StorageEngine::Stats storage_after = storage_.GatherStats();
  m.buffer_pool = storage_after.buffer_pool.Since(storage_before.buffer_pool);
  m.index_node_visits =
      storage_after.index_node_visits - storage_before.index_node_visits;
  m.spill_bytes = SpillFile::total_bytes() - spill_before;
  m.peak_memory_bytes = ctx.query_memory()->peak();
  m.op_stats = ps.stats_tree;
  m.plan_cost = ps.plan_cost;
  m.plan_cardinality = ps.plan_cardinality;
  m.kernel_programs = ps.kernel_programs;
  m.kernel_programs_full = ps.kernel_programs_full;
  exec_span.End();
  if (!rows.ok()) return rows.status();

  QueryOutput out;
  out.column_names = ps.column_names;
  out.rows = rows.TakeValue();
  if (ps.hidden_order_columns > 0) {
    for (Row& row : out.rows) {
      row.values().resize(ps.visible_columns);
    }
  }
  return out;
}

Result<ResultSet> Database::RunSelect(const ast::Statement& stmt,
                                      const std::string& cache_key,
                                      const std::string& sql) {
  STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr ps,
                             CompileSelect(stmt, nullptr));
  if (ps->num_params > 0) {
    return Status::InvalidArgument(
        "statement contains ? parameters; prepare it and supply values "
        "through ExecutePrepared");
  }
  CheckoutGuard checkout;
  if (!cache_key.empty() && plan_cache_.capacity() > 0) {
    // Checked out before it is published, so no other statement runs the
    // tree until this one is done with it.
    ps->TryCheckout();
    checkout.ps = ps.get();
    ps->sql = sql;
    plan_cache_.CountMiss();
    plan_cache_.Insert(cache_key, ps);
  }
  STARBURST_ASSIGN_OR_RETURN(QueryOutput out, ExecuteCompiled(*ps, nullptr));
  SnapshotPlanCacheMetrics();
  return ResultSet(std::move(out.column_names), std::move(out.rows));
}

namespace {

/// Splits `text` into one result row per line under `out`.
void AppendLines(const std::string& text, std::vector<Row>* out) {
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      if (start < text.size()) {
        out->push_back(Row({Value::String(text.substr(start))}));
      }
      break;
    }
    out->push_back(Row({Value::String(text.substr(start, end - start))}));
    start = end + 1;
  }
}

}  // namespace

Result<ResultSet> Database::RunExplain(const ast::ExplainStatement& stmt) {
  if (stmt.analyze || stmt.verbose) return RunExplainReport(stmt);
  PipelineCapture capture;
  capture.want_texts = true;
  capture.execute = false;
  capture.skip_rewrite = stmt.before_rewrite;
  STARBURST_RETURN_IF_ERROR(
      RunQueryPipeline(*stmt.statement, &capture).status());
  const bool qgm = stmt.what == ast::ExplainStatement::What::kQgm;
  std::vector<Row> rows;
  rows.push_back(
      Row({Value::String(qgm ? capture.qgm_text : capture.plan_text)}));
  return ResultSet({"plan"}, std::move(rows));
}

Result<ResultSet> Database::RunExplainReport(const ast::ExplainStatement& stmt) {
  PipelineCapture capture;
  capture.want_texts = true;
  capture.collect_stats = stmt.analyze;
  capture.execute = stmt.analyze;
  STARBURST_ASSIGN_OR_RETURN(QueryOutput out,
                             RunQueryPipeline(*stmt.statement, &capture));

  std::vector<Row> rows;
  auto line = [&rows](const std::string& s) {
    rows.push_back(Row({Value::String(s)}));
  };
  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  char buf[256];

  const Settings& o = *stmt_state().settings;
  const QueryMetrics& m = stmt_state().metrics;
  line(o.rewrite_enabled ? "== QGM (after rewrite) =="
                         : "== QGM (rewrite disabled) ==");
  AppendLines(capture.qgm_text, &rows);

  line("== Rewrite rule firings ==");
  if (!o.rewrite_enabled) {
    line("(rewrite disabled)");
  } else if (m.rewrite_stats.firings.empty()) {
    line("(no rules fired)");
  } else {
    for (const rewrite::RuleEngine::Stats::Firing& f :
         m.rewrite_stats.firings) {
      std::snprintf(buf, sizeof(buf), "pass %d: %s box=%s [id=%d]", f.pass,
                    f.rule.c_str(), f.box_label.c_str(), f.box_id);
      line(buf);
    }
  }

  line("== Plan ==");
  std::snprintf(buf, sizeof(buf), "estimated cost=%.6g cardinality=%.6g",
                m.plan_cost, m.plan_cardinality);
  line(buf);
  if (stmt.analyze && m.op_stats != nullptr) {
    AppendLines(m.op_stats->Render(/*with_actuals=*/true), &rows);
  } else {
    AppendLines(capture.plan_text, &rows);
  }

  if (stmt.analyze) {
    line("== Execution ==");
    if (stmt.statement->kind == ast::StatementKind::kSelect) {
      std::snprintf(buf, sizeof(buf), "result rows: %zu", out.rows.size());
    } else {
      std::snprintf(buf, sizeof(buf), "rows changed: %lld",
                    static_cast<long long>(out.affected_rows));
    }
    line(buf);
    std::snprintf(buf, sizeof(buf),
                  "phases (us): parse=%.0f bind=%.0f rewrite=%.0f "
                  "optimize=%.0f refine=%.0f execute=%.0f",
                  m.parse_us, m.bind_us, m.rewrite_us, m.optimize_us,
                  m.refine_us, m.execute_us);
    line(buf);
    const optimizer::Optimizer::Stats& opt = m.optimizer_stats;
    std::snprintf(buf, sizeof(buf),
                  "optimizer: %llu join pairs, %llu candidates costed, "
                  "%llu built, %llu kept",
                  u(opt.enumerator.pairs_considered),
                  u(opt.generator.plans_generated),
                  u(opt.generator.plans_built), u(opt.enumerator.plans_kept));
    line(buf);
    std::snprintf(buf, sizeof(buf),
                  "kernel programs: %llu compiled, %llu fully vectorized",
                  u(m.kernel_programs), u(m.kernel_programs_full));
    line(buf);
    std::snprintf(buf, sizeof(buf),
                  "subqueries: %llu evaluations, %llu cache hits",
                  u(m.exec_stats.subquery_evaluations),
                  u(m.exec_stats.subquery_cache_hits));
    line(buf);
    std::snprintf(buf, sizeof(buf),
                  "buffer pool: %llu logical reads, %llu hits, %llu misses, "
                  "%llu writes (hit rate %.1f%%)",
                  u(m.buffer_pool.logical_reads), u(m.buffer_pool.cache_hits),
                  u(m.buffer_pool.disk_reads), u(m.buffer_pool.disk_writes),
                  m.buffer_pool.HitRate() * 100.0);
    line(buf);
    std::snprintf(buf, sizeof(buf), "index node visits: %llu",
                  u(m.index_node_visits));
    line(buf);
    // EXPLAIN itself always compiles fresh; the counters are the
    // session's cumulative plan-cache activity.
    SnapshotPlanCacheMetrics();
    std::snprintf(buf, sizeof(buf),
                  "plan cache: %llu entries; session hits=%llu misses=%llu "
                  "invalidations=%llu evictions=%llu",
                  u(m.plan_cache_entries), u(m.plan_cache.hits),
                  u(m.plan_cache.misses), u(m.plan_cache.invalidations),
                  u(m.plan_cache.evictions));
    line(buf);
    AdmissionController::Stats adm = admission_.stats();
    std::snprintf(
        buf, sizeof(buf),
        "governance: timeout_ms=%lld admission budget=%llu bytes "
        "in_use=%llu admitted=%llu queued=%llu rejected=%llu timeouts=%llu",
        static_cast<long long>(o.statement_timeout_ms), u(adm.budget_bytes),
        u(adm.in_use_bytes), u(adm.admitted_total), u(adm.queued_total),
        u(adm.rejected_total), u(adm.timeout_total));
    line(buf);
    std::snprintf(buf, sizeof(buf),
                  "workload: priority=%s class=%s queue_us=%lld aged=%llu "
                  "cancelled_queued=%llu preemptions=%llu",
                  stmt_state().priority_label, stmt_state().class_label,
                  static_cast<long long>(m.queue_us), u(adm.aged_total),
                  u(adm.cancelled_while_queued_total),
                  u(exec::parallel::TaskScheduler::total_preemptions()));
    line(buf);
  }
  return ResultSet({"EXPLAIN"}, std::move(rows));
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Result<ResultSet> Database::RunCreateTable(
    const ast::CreateTableStatement& stmt) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(stmt.name, "create table"));
  TableDef def;
  def.name = stmt.name;
  for (const ast::ColumnSpec& col : stmt.columns) {
    STARBURST_ASSIGN_OR_RETURN(DataType type, qgm::BindTypeName(col.type_name));
    def.schema.AddColumn(ColumnDef{col.name, type, !col.not_null});
  }
  for (const auto& constraint : stmt.unique_constraints) {
    std::vector<size_t> key;
    for (const std::string& col : constraint) {
      std::optional<size_t> idx = def.schema.FindColumn(col);
      if (!idx.has_value()) {
        return Status::SemanticError("unique constraint names unknown column '" +
                                     col + "'");
      }
      key.push_back(*idx);
    }
    def.unique_keys.push_back(std::move(key));
  }
  if (!stmt.storage_manager.empty()) {
    def.storage_manager = IdentUpper(stmt.storage_manager);
  }
  STARBURST_ASSIGN_OR_RETURN(
      StorageManager * manager,
      storage_.storage_managers().Lookup(def.storage_manager));
  STARBURST_RETURN_IF_ERROR(manager->ValidateSchema(def.schema));

  STARBURST_RETURN_IF_ERROR(catalog_.CreateTable(def));
  Status storage_status = storage_.CreateTable(def);
  if (!storage_status.ok()) {
    (void)catalog_.DropTable(def.name);
    return storage_status;
  }

  // Unique constraints are enforced through unique B-tree attachments.
  for (size_t i = 0; i < def.unique_keys.size(); ++i) {
    IndexDef index;
    index.name = IdentUpper(def.name) + "_UK" + std::to_string(i + 1);
    index.table_name = def.name;
    index.unique = true;
    index.access_method = "BTREE";
    for (size_t col : def.unique_keys[i]) {
      index.key_columns.push_back(def.schema.column(col).name);
    }
    STARBURST_RETURN_IF_ERROR(catalog_.CreateIndex(index));
    STARBURST_RETURN_IF_ERROR(storage_.CreateIndex(index, def.schema));
  }
  return ResultSet::Message("CREATE TABLE");
}

Result<ResultSet> Database::RunCreateIndex(
    const ast::CreateIndexStatement& stmt) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(stmt.table, "index"));
  IndexDef def;
  def.name = stmt.name;
  def.table_name = stmt.table;
  def.key_columns = stmt.columns;
  def.unique = stmt.unique;
  if (!stmt.access_method.empty()) {
    def.access_method = IdentUpper(stmt.access_method);
  }
  STARBURST_RETURN_IF_ERROR(catalog_.CreateIndex(def));
  STARBURST_ASSIGN_OR_RETURN(const TableDef* table,
                             catalog_.GetTable(stmt.table));
  Status st = storage_.CreateIndex(def, table->schema);
  if (!st.ok()) {
    (void)catalog_.DropIndex(def.name);
    return st;
  }
  return ResultSet::Message("CREATE INDEX");
}

Result<ResultSet> Database::RunCreateView(
    const ast::CreateViewStatement& stmt) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(stmt.name, "create view"));
  // Views must bind cleanly at definition time (semantic validation).
  qgm::Binder binder(&catalog_);
  STARBURST_RETURN_IF_ERROR(binder.BindQuery(*stmt.query).status());
  ViewDef def;
  def.name = stmt.name;
  def.column_names = stmt.column_names;
  def.body_sql = stmt.body_text;
  STARBURST_RETURN_IF_ERROR(catalog_.CreateView(def));
  return ResultSet::Message("CREATE VIEW");
}

std::vector<std::string> Database::ViewsReferencing(
    const std::string& dep_key) const {
  std::vector<std::string> out;
  for (const std::string& view_name : catalog_.ViewNames()) {
    if (dep_key == "V:" + view_name) continue;
    Result<const ViewDef*> view = catalog_.GetView(view_name);
    if (!view.ok()) continue;
    auto parsed = Parser::ParseQueryText((*view)->body_sql);
    if (!parsed.ok()) continue;
    qgm::Binder binder(&catalog_);
    // A body that no longer binds cannot be consulted; it does not block
    // the drop (it is already broken).
    if (!binder.BindQuery(**parsed).ok()) continue;
    if (binder.referenced_objects().count(dep_key) > 0) {
      out.push_back(view_name);
    }
  }
  return out;
}

// Drop ordering: verify → dependency check → storage → catalog. The
// storage call is the only step that can fail after verification, and it
// runs before any mutation; the catalog erases that follow are pure map
// operations on entries verified to exist. A failure at any step
// therefore leaves catalog and storage exactly as they were — no
// half-dropped state where one layer knows the object and the other
// does not.

Result<ResultSet> Database::RunDropTable(const std::string& name) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(name, "drop"));
  STARBURST_RETURN_IF_ERROR(catalog_.GetTable(name).status());
  std::vector<std::string> dependents =
      ViewsReferencing("T:" + IdentUpper(name));
  if (!dependents.empty()) {
    return Status::SemanticError("cannot drop table '" + IdentUpper(name) +
                                 "': view '" + dependents.front() +
                                 "' references it");
  }
  // Storage drops the table and its attachments in one step.
  STARBURST_RETURN_IF_ERROR(storage_.DropTable(name));
  STARBURST_RETURN_IF_ERROR(catalog_.DropTable(name));
  return ResultSet::Message("DROP TABLE");
}

Result<ResultSet> Database::RunDropIndex(const std::string& name) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(name, "drop"));
  STARBURST_RETURN_IF_ERROR(catalog_.GetIndex(name).status());
  STARBURST_RETURN_IF_ERROR(storage_.DropIndex(name));
  STARBURST_RETURN_IF_ERROR(catalog_.DropIndex(name));
  return ResultSet::Message("DROP INDEX");
}

Result<ResultSet> Database::RunDropView(const std::string& name) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(name, "drop"));
  STARBURST_RETURN_IF_ERROR(catalog_.GetView(name).status());
  std::vector<std::string> dependents =
      ViewsReferencing("V:" + IdentUpper(name));
  if (!dependents.empty()) {
    return Status::SemanticError("cannot drop view '" + IdentUpper(name) +
                                 "': view '" + dependents.front() +
                                 "' references it");
  }
  STARBURST_RETURN_IF_ERROR(catalog_.DropView(name));
  return ResultSet::Message("DROP VIEW");
}

// ---------------------------------------------------------------------------
// DML: the query half ran through the pipeline; this is the apply step.
// ---------------------------------------------------------------------------

Result<Value> Database::CoerceForColumn(Value v, const ColumnDef& col) const {
  if (v.is_null()) {
    if (!col.nullable) {
      return Status::SemanticError("column '" + col.name + "' is NOT NULL");
    }
    return v;
  }
  if (v.type() == col.type) return v;
  if (col.type.id == TypeId::kDouble && v.type_id() == TypeId::kInt) {
    return Value::Double(static_cast<double>(v.int_value()));
  }
  if (col.type.id == TypeId::kInt && v.type_id() == TypeId::kDouble) {
    double d = v.double_value();
    if (static_cast<double>(static_cast<int64_t>(d)) == d) {
      return Value::Int(static_cast<int64_t>(d));
    }
  }
  return Status::TypeError("cannot store " + v.type().ToString() +
                           " value in column '" + col.name + "' of type " +
                           col.type.ToString());
}

void Database::RefreshRowStats(const std::string& table_name) {
  Result<TableDef*> def = catalog_.GetMutableTable(table_name);
  Result<TableStorage*> storage = storage_.GetTable(table_name);
  if (!def.ok() || !storage.ok()) return;
  (*def)->stats.row_count = static_cast<double>((*storage)->row_count());
  (*def)->stats.page_count = static_cast<double>((*storage)->page_count());
}

Result<int64_t> Database::ApplyChanges(ast::StatementKind kind,
                                       const qgm::Binder::DmlTarget& target,
                                       std::vector<Row>* rows) {
  const TableDef& table = *target.table;
  const std::string& name = table.name;
  // UPDATE and DELETE rows lead with a rid: apply them in rid order, the
  // same order whichever plan (index, parallel, rewritten) found them.
  if (kind != ast::StatementKind::kInsert) {
    std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
      return a[0].int_value() < b[0].int_value();
    });
  }
  // Statement atomicity: every insert and delete is logged with what
  // undoes it, an insert by its rid and a delete by the old row. UPDATE
  // stages its coerced new values and applies them in one all-or-nothing
  // UpdateRows at the end, which checks keys against the final state.
  std::vector<std::pair<Rid, Row>> undo;
  std::vector<StorageEngine::RowUpdate> updates;
  if (kind == ast::StatementKind::kUpdate) {
    updates.reserve(rows->size());
  } else {
    undo.reserve(rows->size());
  }
  auto apply = [&](Row& change) -> Status {
    if (kind == ast::StatementKind::kInsert) {
      std::vector<Value> full(table.schema.num_columns(), Value::Null());
      for (size_t c = 0; c < target.columns.size(); ++c) {
        full[target.columns[c]] = std::move(change[c]);
      }
      for (size_t c = 0; c < full.size(); ++c) {
        STARBURST_ASSIGN_OR_RETURN(
            full[c], CoerceForColumn(std::move(full[c]), table.schema.column(c)));
      }
      STARBURST_ASSIGN_OR_RETURN(Rid rid,
                                 storage_.InsertRow(name, Row(std::move(full))));
      undo.emplace_back(rid, Row());
      return Status::OK();
    }
    Rid rid = Rid::FromInt(change[0].int_value());
    if (kind == ast::StatementKind::kDelete) {
      STARBURST_ASSIGN_OR_RETURN(Row old_row, storage_.DeleteRow(name, rid));
      undo.emplace_back(rid, std::move(old_row));
      return Status::OK();
    }
    StorageEngine::RowUpdate update{rid, {}};
    update.values.reserve(target.columns.size());
    for (size_t c = 0; c < target.columns.size(); ++c) {
      const ColumnDef& col = table.schema.column(target.columns[c]);
      STARBURST_ASSIGN_OR_RETURN(Value v,
                                 CoerceForColumn(std::move(change[c + 1]), col));
      update.values.push_back(std::move(v));
    }
    updates.push_back(std::move(update));
    return Status::OK();
  };
  CancelToken& cancel = stmt_state().cancel;
  Status st;
  for (size_t i = 0; st.ok() && i < rows->size(); ++i) {
    if (i % StorageEngine::kCancelCheckRows == 0) st = cancel.Check();
    if (st.ok()) st = apply((*rows)[i]);
  }
  // A deadline that passed while the last rows went in fails it too.
  if (st.ok()) st = cancel.Check();
  if (st.ok() && kind == ast::StatementKind::kUpdate) {
    st = storage_.UpdateRows(name, target.columns, updates, &cancel).status();
  }
  for (auto it = undo.rbegin(); !st.ok() && it != undo.rend(); ++it) {
    if (kind == ast::StatementKind::kInsert) {
      (void)storage_.DeleteRow(name, it->first);
    } else {
      (void)storage_.InsertRow(name, it->second);
    }
  }
  RefreshRowStats(name);
  if (!st.ok()) return st;
  return static_cast<int64_t>(rows->size());
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

Status Database::Analyze(const std::string& table_name) {
  STARBURST_ASSIGN_OR_RETURN(const TableDef* table,
                             catalog_.GetTable(table_name));
  STARBURST_ASSIGN_OR_RETURN(TableStorage * storage,
                             storage_.GetTable(table_name));
  TableStats stats;
  stats.row_count = 0;
  stats.page_count = static_cast<double>(storage->page_count());

  size_t ncols = table->schema.num_columns();
  std::vector<std::set<Value, ValueTotalLess>> distinct(ncols);
  std::vector<size_t> nulls(ncols, 0);
  std::vector<std::optional<Value>> mins(ncols), maxs(ncols);

  std::unique_ptr<TableScanIterator> scan = storage->NewScan();
  Row row;
  Rid rid;
  while (true) {
    STARBURST_ASSIGN_OR_RETURN(bool more, scan->Next(&row, &rid));
    if (!more) break;
    stats.row_count += 1;
    for (size_t c = 0; c < ncols; ++c) {
      const Value& v = row[c];
      if (v.is_null()) {
        ++nulls[c];
        continue;
      }
      distinct[c].insert(v);
      if (!mins[c] || v.CompareTotal(*mins[c]) < 0) mins[c] = v;
      if (!maxs[c] || v.CompareTotal(*maxs[c]) > 0) maxs[c] = v;
    }
  }
  for (size_t c = 0; c < ncols; ++c) {
    ColumnStats col;
    col.distinct_count = static_cast<double>(distinct[c].size());
    col.min_value = mins[c];
    col.max_value = maxs[c];
    col.null_fraction = stats.row_count > 0
                            ? static_cast<double>(nulls[c]) / stats.row_count
                            : 0;
    stats.columns[IdentUpper(table->schema.column(c).name)] = col;
  }
  return catalog_.UpdateStats(table_name, std::move(stats));
}

Status Database::AnalyzeAll() {
  for (const std::string& name : catalog_.TableNames()) {
    // sys.* rows are materialized fresh on every scan; there is nothing
    // durable to gather statistics over.
    if (IsSystemTableName(name)) continue;
    STARBURST_RETURN_IF_ERROR(Analyze(name));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Observability: statement bookkeeping and the sys.* virtual tables
// ---------------------------------------------------------------------------

void Database::FinishStatement(const std::string& sql, const Status& status,
                               uint64_t rows, double total_us) {
  StatementState& s = stmt_state();
  // Governance outcomes get their own labels so an operator can tell a
  // killed statement from a genuinely failed one.
  const char* label = "ok";
  if (!status.ok()) {
    switch (status.code()) {
      case StatusCode::kCancelled: label = "cancelled"; break;
      case StatusCode::kTimeout: label = "timeout"; break;
      default: label = s.admission_rejected ? "rejected" : "error"; break;
    }
  }
  // The registry retirement happens even with metrics off: the live
  // entry was registered unconditionally (KILL must always work).
  statements_.Finish(s.id, label, s.metrics.peak_memory_bytes,
                     static_cast<int64_t>(total_us));
  {
    std::lock_guard<std::mutex> lock(last_metrics_mu_);
    last_metrics_ = s.metrics;
  }
  if (!metrics_enabled_) return;

  em_.queries_total->Increment();
  if (!status.ok()) em_.query_errors_total->Increment();
  if (status.code() == StatusCode::kCancelled) {
    em_.statements_cancelled_total->Increment();
  } else if (status.code() == StatusCode::kTimeout) {
    em_.statements_timed_out_total->Increment();
  }
  // Latency (and the slow-query judgment below) measure execution work:
  // time parked in the admission queue is recorded separately as
  // queue_us, so a fast query stuck behind the budget is not "slow".
  double run_us = total_us > s.metrics.queue_us ? total_us - s.metrics.queue_us
                                                : total_us;
  em_.query_latency_us->Observe(run_us);
  em_.memory_query_peak_bytes->Set(
      static_cast<double>(s.metrics.peak_memory_bytes));
  if (static_cast<double>(s.metrics.peak_memory_bytes) >
      em_.memory_query_peak_max_bytes->value()) {
    em_.memory_query_peak_max_bytes->Set(
        static_cast<double>(s.metrics.peak_memory_bytes));
  }

  obs::QueryLogEntry entry;
  // The statement's start instant (not its completion): `ts_us +
  // total_us` reconstructs the end, and concurrent logs sort by when
  // work actually began.
  entry.ts_us = s.start_ts_us;
  entry.sql = NormalizeSql(sql);
  entry.status = label;
  if (!status.ok()) entry.error = status.message();
  entry.rows = rows;
  entry.parse_us = static_cast<uint64_t>(stmt_state().metrics.parse_us);
  entry.bind_us = static_cast<uint64_t>(stmt_state().metrics.bind_us);
  entry.rewrite_us = static_cast<uint64_t>(stmt_state().metrics.rewrite_us);
  entry.optimize_us = static_cast<uint64_t>(stmt_state().metrics.optimize_us);
  entry.refine_us = static_cast<uint64_t>(stmt_state().metrics.refine_us);
  entry.queue_us = static_cast<uint64_t>(stmt_state().metrics.queue_us);
  entry.execute_us = static_cast<uint64_t>(stmt_state().metrics.execute_us);
  entry.total_us = static_cast<uint64_t>(total_us);
  entry.plan_cache_hit = stmt_state().metrics.plan_cache_hit;
  entry.spill_bytes = stmt_state().metrics.spill_bytes;
  entry.peak_memory_bytes = stmt_state().metrics.peak_memory_bytes;
  // The parallelism the statement actually ran with (stamped from the
  // executed plan), not whatever the session knob says now.
  entry.parallelism = s.parallelism;
  entry.priority = s.priority_label;
  entry.klass = s.class_label;
  const uint64_t slow_us = s.settings->slow_query_us;
  entry.slow = slow_us > 0 && run_us >= static_cast<double>(slow_us);
  if (entry.slow) {
    em_.slow_queries_total->Increment();
    tracer_.RecordInstant(
        "slow query", "engine", obs::NowUs(),
        "\"sql\":\"" + obs::JsonEscape(entry.sql) + "\",\"total_us\":\"" +
            std::to_string(entry.total_us) + "\"");
  }
  query_log_.Append(std::move(entry));

  RefreshMetricsMirrors();
}

void Database::RefreshMetricsMirrors() {
  const PlanCache::Stats& pc = plan_cache_.stats();
  em_.plan_cache_hits->Set(pc.hits);
  em_.plan_cache_misses->Set(pc.misses);
  em_.plan_cache_invalidations->Set(pc.invalidations);
  em_.plan_cache_evictions->Set(pc.evictions);
  em_.plan_cache_entries->Set(static_cast<double>(plan_cache_.size()));

  StorageEngine::Stats st = storage_.GatherStats();
  em_.buffer_pool_logical_reads->Set(st.buffer_pool.logical_reads);
  em_.buffer_pool_cache_hits->Set(st.buffer_pool.cache_hits);
  em_.buffer_pool_disk_reads->Set(st.buffer_pool.disk_reads);
  em_.buffer_pool_disk_writes->Set(st.buffer_pool.disk_writes);

  em_.spill_files_created->Set(SpillFile::total_count());
  em_.spill_bytes_written->Set(SpillFile::total_bytes());
  em_.spill_live_files->Set(static_cast<double>(SpillFile::live_count()));
  em_.spill_live_bytes->Set(static_cast<double>(SpillFile::live_bytes()));

  em_.scheduler_tasks_run->Set(exec::parallel::TaskScheduler::total_tasks_run());
  em_.scheduler_workers_spawned->Set(
      exec::parallel::TaskScheduler::total_workers_spawned());
  em_.scheduler_preemptions->Set(
      static_cast<double>(exec::parallel::TaskScheduler::total_preemptions()));

  AdmissionController::Stats adm = admission_.stats();
  em_.admission_queued_total->Set(static_cast<double>(adm.queued_total));
  em_.admission_rejected_total->Set(static_cast<double>(adm.rejected_total));
  em_.admission_timeouts_total->Set(static_cast<double>(adm.timeout_total));
  em_.admission_cancelled_while_queued_total->Set(
      static_cast<double>(adm.cancelled_while_queued_total));
  em_.admission_aged_total->Set(static_cast<double>(adm.aged_total));
  for (int c = 0; c < kNumPriorities; ++c) {
    em_.admission_admitted_by_class[c]->Set(
        static_cast<double>(adm.admitted_by_class[c]));
    em_.admission_queued_by_class[c]->Set(
        static_cast<double>(adm.queued_by_class[c]));
  }
  em_.admission_waiting->Set(static_cast<double>(adm.waiting_now));
  em_.admission_in_use_bytes->Set(static_cast<double>(adm.in_use_bytes));
  em_.admission_budget_bytes->Set(static_cast<double>(adm.budget_bytes));
  em_.statements_live->Set(static_cast<double>(statements_.live_count()));
  em_.query_log_dropped_total->Set(static_cast<double>(query_log_.dropped()));
  em_.query_log_cleared_total->Set(static_cast<double>(query_log_.cleared()));
}

void Database::RegisterSystemTables() {
  std::unique_ptr<SystemStorageManager> manager = MakeSystemStorageManager();
  manager->RegisterTable("sys.metrics", [this] { return MetricsRows(); });
  manager->RegisterTable("sys.query_log", [this] { return QueryLogRows(); });
  manager->RegisterTable("sys.plan_cache", [this] { return PlanCacheRows(); });
  manager->RegisterTable("sys.statements", [this] { return StatementRows(); });
  manager->RegisterTable("sys.settings", [this] { return SettingsRows(); });
  Status registered = storage_.storage_managers().Register(std::move(manager));
  (void)registered;  // fresh registry: "SYSTEM" cannot collide

  // Every column is NOT NULL except the ones marked nullable.
  struct Column {
    const char* name;
    DataType type;
    bool nullable = false;
  };
  auto define = [this](const char* name, std::initializer_list<Column> cols) {
    TableDef def;
    def.name = name;
    for (const Column& c : cols) {
      def.schema.AddColumn(ColumnDef{c.name, c.type, c.nullable});
    }
    def.storage_manager = "SYSTEM";
    // Nominal stats: the optimizer should not treat a system view as
    // empty (rows materialize at scan time).
    def.stats.row_count = 64;
    def.stats.page_count = 1;
    if (catalog_.CreateTable(def).ok()) {
      (void)storage_.CreateTable(def);
    }
  };
  const DataType str = DataType::String();
  const DataType i64 = DataType::Int();
  const DataType dbl = DataType::Double();
  define("sys.metrics", {{"name", str}, {"kind", str}, {"value", dbl}});
  define("sys.query_log",
         {{"id", i64},          {"ts_us", i64},        {"sql", str},
          {"status", str},      {"error", str, true},  {"rows", i64},
          {"parse_us", i64},    {"bind_us", i64},      {"rewrite_us", i64},
          {"optimize_us", i64}, {"refine_us", i64},    {"execute_us", i64},
          {"total_us", i64},    {"plan_cache_hit", i64},
          {"spill_bytes", i64}, {"peak_memory_bytes", i64},
          {"parallelism", i64}, {"slow", i64},         {"queue_us", i64},
          {"priority", str},    {"class", str}});
  define("sys.statements",
         {{"id", i64}, {"sql", str}, {"status", str}, {"phase", str},
          {"start_ts_us", i64}, {"total_us", i64},
          {"peak_memory_bytes", i64}, {"priority", str}, {"class", str},
          {"queue_us", i64}});
  define("sys.plan_cache",
         {{"position", i64}, {"sql", str}, {"num_params", i64},
          {"cost", dbl}, {"cardinality", dbl}, {"catalog_version", i64},
          {"fresh", i64}, {"settings", str}});
  define("sys.settings", {{"name", str}, {"value", str}, {"default", str},
                          {"kind", str}, {"affects_plan", i64}});
}

std::vector<Row> Database::MetricsRows() {
  RefreshMetricsMirrors();
  std::vector<Row> rows;
  for (const obs::MetricsRegistry::Sample& s : metrics_registry_.Snapshot()) {
    rows.push_back(Row({Value::String(s.name), Value::String(s.kind),
                        Value::Double(s.value)}));
  }
  return rows;
}

std::vector<Row> Database::QueryLogRows() const {
  std::vector<Row> rows;
  for (const obs::QueryLogEntry& e : query_log_.Snapshot()) {
    auto u = [](uint64_t v) { return Value::Int(static_cast<int64_t>(v)); };
    rows.push_back(Row({u(e.id), Value::Int(e.ts_us), Value::String(e.sql),
                        Value::String(e.status),
                        e.error.empty() ? Value::Null()
                                        : Value::String(e.error),
                        u(e.rows), u(e.parse_us), u(e.bind_us),
                        u(e.rewrite_us), u(e.optimize_us), u(e.refine_us),
                        u(e.execute_us), u(e.total_us),
                        Value::Int(e.plan_cache_hit ? 1 : 0), u(e.spill_bytes),
                        u(e.peak_memory_bytes), Value::Int(e.parallelism),
                        Value::Int(e.slow ? 1 : 0), u(e.queue_us),
                        Value::String(e.priority), Value::String(e.klass)}));
  }
  return rows;
}

std::vector<Row> Database::StatementRows() const {
  std::vector<Row> rows;
  for (const StatementSnapshot& s : statements_.Snapshot()) {
    rows.push_back(
        Row({Value::Int(s.id), Value::String(s.sql), Value::String(s.status),
             Value::String(s.phase), Value::Int(s.start_ts_us),
             Value::Int(s.total_us),
             Value::Int(static_cast<int64_t>(s.peak_memory_bytes)),
             Value::String(s.priority), Value::String(s.klass),
             Value::Int(s.queue_us)}));
  }
  return rows;
}

std::vector<Row> Database::PlanCacheRows() const {
  std::vector<Row> rows;
  int64_t position = 0;  // 0 = most recently used
  for (const auto& [key, ps] : plan_cache_.Entries()) {
    // The cache key is `normalized SQL \x1f plan fingerprint`: the
    // statement and the settings it was compiled under.
    size_t split = key.find('\x1f');
    rows.push_back(Row({Value::Int(position++),
                        Value::String(key.substr(0, split)),
                        Value::Int(static_cast<int64_t>(ps->num_params)),
                        Value::Double(ps->plan_cost),
                        Value::Double(ps->plan_cardinality),
                        Value::Int(static_cast<int64_t>(ps->catalog_version)),
                        Value::Int(ps->FreshAgainst(catalog_) ? 1 : 0),
                        Value::String(key.substr(split + 1))}));
  }
  return rows;
}

std::vector<Row> Database::SettingsRows() {
  static const char* const kKindNames[] = {"int", "bytes", "bool", "enum",
                                           "list"};
  Settings copy = *settings();  // the accessors take a mutable target
  SettingsTarget target{&copy, &plan_cache_, &tracer_, &admission_};
  std::vector<Row> rows;
  for (const Setting& s : SettingsTable()) {
    rows.push_back(Row(
        {Value::String(s.name), Value::String(FormatSetting(s, s.get(target))),
         Value::String(FormatSetting(s, DefaultSettingValue(s))),
         Value::String(kKindNames[static_cast<int>(s.kind)]),
         Value::Int(s.affects_plan ? 1 : 0)}));
  }
  return rows;
}

}  // namespace starburst
