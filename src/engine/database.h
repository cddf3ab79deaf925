#ifndef STARBURST_ENGINE_DATABASE_H_
#define STARBURST_ENGINE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/cancel.h"
#include "engine/admission.h"
#include "engine/plan_cache.h"
#include "engine/settings.h"
#include "engine/statement_registry.h"
#include "engine/result_set.h"
#include "exec/plan_refiner.h"
#include "obs/metrics.h"
#include "obs/op_stats.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "qgm/binder.h"
#include "rewrite/rule_engine.h"
#include "storage/storage_engine.h"
#include "storage/system_storage.h"

namespace starburst {

/// Per-query timing and engine statistics — Figure 1's compile-time and
/// run-time phases, individually measurable.
struct QueryMetrics {
  double parse_us = 0;
  double bind_us = 0;      // semantic analysis into QGM
  double rewrite_us = 0;   // query rewrite
  double optimize_us = 0;  // plan optimization
  double refine_us = 0;    // plan refinement
  double queue_us = 0;     // admission queue wait (not execution work)
  double execute_us = 0;   // QES interpretation
  rewrite::RuleEngine::Stats rewrite_stats;
  optimizer::Optimizer::Stats optimizer_stats;
  exec::ExecStats exec_stats;
  double plan_cost = 0;
  double plan_cardinality = 0;
  /// Per-operator runtime stats of the last executed plan; set when
  /// COLLECT_OP_STATS is on or EXPLAIN ANALYZE ran.
  std::shared_ptr<const obs::PlanStatsTree> op_stats;
  /// Buffer pool activity during the execute phase (counter deltas).
  BufferPoolStats buffer_pool;
  /// Attachment node visits during the execute phase (counter delta).
  uint64_t index_node_visits = 0;
  /// True when this statement reused a cached/prepared plan, skipping
  /// parse/bind/rewrite/optimize/refine (those timings stay ~0).
  bool plan_cache_hit = false;
  /// Session-cumulative plan-cache counters at statement end.
  PlanCache::Stats plan_cache;
  /// Entries resident in the plan cache at statement end.
  uint64_t plan_cache_entries = 0;
  /// Bytes this statement spilled to disk (external sort runs, grace
  /// partitions) and the query-memory high-water mark it reached.
  uint64_t spill_bytes = 0;
  uint64_t peak_memory_bytes = 0;
  /// Expression sites compiled to vectorized kernel programs at refine
  /// time, and how many of those carry no interpreter-fallback subtree.
  uint64_t kernel_programs = 0;
  uint64_t kernel_programs_full = 0;
};

/// The embedded Starburst engine: Corona's language-processing pipeline
/// (parse → QGM → rewrite → optimize → refine → execute) over the Core
/// storage substrate, with every DBC extension point exposed:
///   * catalog().functions() — scalar / aggregate / set-predicate / table
///     functions;
///   * TypeRegistry::Global() — externally-defined column types;
///   * storage().storage_managers() / storage().attachment_kinds() — new
///     storage methods and access-method attachments;
///   * rule_engine() — query-rewrite rules;
///   * RegisterStar() — optimizer strategy alternative rules.
class Database {
 public:
  explicit Database(size_t buffer_pool_pages = 4096);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Executes one statement (query, DDL, or DML). SELECTs are
  /// transparently cached: re-executing the same text under the same
  /// plan-affecting settings reuses the compiled plan (see plan_cache()).
  Result<ResultSet> Execute(const std::string& sql);
  /// Executes a ';'-separated script, returning the last result.
  Result<ResultSet> ExecuteScript(const std::string& sql);
  /// Convenience: Execute + rows (errors if the statement returns none).
  Result<std::vector<Row>> Query(const std::string& sql);

  /// Compiles a SELECT (which may contain `?` positional parameters)
  /// down to a re-executable plan. The handle stays valid until the
  /// Database dies, even if the plan cache evicts it.
  using PreparedHandle = PreparedStatementPtr;
  Result<PreparedHandle> Prepare(const std::string& sql);
  /// Runs a prepared statement with one value per `?` marker (left to
  /// right). Stale handles (DDL/ANALYZE touched a referenced object) are
  /// transparently recompiled first.
  Result<ResultSet> ExecutePrepared(const PreparedHandle& handle,
                                    const std::vector<Value>& params = {});

  /// Recomputes optimizer statistics (row counts, per-column NDV/min/max)
  /// for one table or all tables.
  Status Analyze(const std::string& table_name);
  Status AnalyzeAll();

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  StorageEngine& storage() { return storage_; }
  rewrite::RuleEngine& rule_engine() { return rule_engine_; }
  /// The settings in effect, read-only: SQL `SET` is the only writer.
  /// The reference stays valid until the next SET; concurrent statements
  /// each read the snapshot they took when they began.
  const Settings& options() const { return *settings(); }
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// Adds a DBC STAR to every future query's optimizer.
  Status RegisterStar(optimizer::Star star);

  /// Metrics of the most recent statement. Not synchronized with
  /// concurrent Execute calls — read it from a quiesced session.
  const QueryMetrics& last_metrics() const { return last_metrics_; }

  /// Live + recently finished statements — the registry behind
  /// `sys.statements` and the resolver for `KILL <id>`.
  StatementRegistry& statement_registry() { return statements_; }
  const StatementRegistry& statement_registry() const { return statements_; }

  /// Global memory-admission ledger (`SET ADMISSION_MEMORY`).
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }

  /// The session's span recorder. Disabled by default; once enabled,
  /// every statement records Figure-1 phase spans and rewrite-rule
  /// firing instants, exportable as Chrome trace JSON.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// Engine-wide named counters/gauges/histograms — the registry behind
  /// `sys.metrics` and RenderText (Prometheus-style exposition).
  obs::MetricsRegistry& metrics_registry() { return metrics_registry_; }
  const obs::MetricsRegistry& metrics_registry() const {
    return metrics_registry_;
  }

  /// Ring-buffered per-statement history — the relation behind
  /// `sys.query_log`.
  obs::QueryLog& query_log() { return query_log_; }
  const obs::QueryLog& query_log() const { return query_log_; }

  /// Statement bookkeeping switch (query log + registry updates). On by
  /// default; benches flip it off to measure the disabled-path cost.
  bool metrics_enabled() const { return metrics_enabled_; }
  void set_metrics_enabled(bool on) { metrics_enabled_ = on; }

  /// SLOW_QUERY_US threshold; 0 (the default) disables slow-query
  /// flagging.
  uint64_t slow_query_us() const { return options().slow_query_us; }

  /// The engine-shared worker pool: every statement's parallel phases
  /// run here, so a HIGH statement's morsels interleave ahead of a LOW
  /// scan's remaining morsels (see TaskScheduler).
  exec::parallel::TaskScheduler& task_scheduler() { return scheduler_; }

  /// Re-mirrors layer counters (plan cache, buffer pool, spill files,
  /// scheduler) into the registry so an externally taken snapshot is
  /// current. `sys.metrics` scans and \metrics call this implicitly.
  void RefreshMetricsMirrors();

 private:
  /// Everything a statement accumulates while it runs. Thread-local so
  /// concurrent sessions sharing one Database (the governance stress
  /// tests, a future server front end) never race on phase timings or
  /// the cancel token; FinishStatement copies the metrics into
  /// `last_metrics_` for the single-session accessor.
  struct StatementState {
    /// The settings snapshot taken when the statement began; compile and
    /// execute read only this copy.
    std::shared_ptr<const Settings> settings;
    QueryMetrics metrics;
    CancelToken cancel;
    int64_t id = 0;          // registry id; 0 = not registered (Prepare)
    int64_t start_ts_us = 0; // wall-clock statement start
    int parallelism = 1;     // what the executed plan was refined with
    bool admission_rejected = false;  // fail-fast path, for "rejected"
    /// Workload labels stamped when a compiled plan is executed
    /// (literals; defaults cover DDL/DML, which never classify).
    const char* priority_label = "normal";
    const char* class_label = "fast";
  };
  static StatementState& stmt_state();

  /// Statement prologue: resets the thread's statement state, assigns
  /// the registry id, arms the deadline, and registers the statement as
  /// live (so KILL can find it from another thread).
  void BeginStatement(const std::string& sql);
  /// Execute minus the statement bookkeeping wrapper.
  Result<ResultSet> ExecuteInternal(const std::string& sql);
  /// Statement epilogue: appends the query-log entry, advances the
  /// engine counters, observes the latency histogram, flags/traces slow
  /// statements, and re-mirrors layer counters. No-op when metrics are
  /// disabled.
  void FinishStatement(const std::string& sql, const Status& status,
                       uint64_t rows, double total_us);
  /// Registers the SYSTEM storage manager, its row providers, and the
  /// sys.* table definitions (constructor-time).
  void RegisterSystemTables();
  std::vector<Row> MetricsRows();
  std::vector<Row> QueryLogRows() const;
  std::vector<Row> PlanCacheRows() const;
  std::vector<Row> StatementRows() const;
  std::vector<Row> SettingsRows();

  /// `cache_key` is non-empty only for single statements arriving through
  /// Execute with caching enabled; a compiled SELECT is inserted under it,
  /// with `sql` kept for recompiles.
  Result<ResultSet> ExecuteStatement(const ast::Statement& stmt,
                                     const std::string& cache_key = {},
                                     const std::string& sql = {});
  Result<ResultSet> RunSelect(const ast::Statement& stmt,
                              const std::string& cache_key,
                              const std::string& sql);
  Result<ResultSet> RunDropTable(const std::string& name);
  Result<ResultSet> RunDropIndex(const std::string& name);
  Result<ResultSet> RunDropView(const std::string& name);
  Result<ResultSet> RunExplain(const ast::ExplainStatement& stmt);
  /// EXPLAIN ANALYZE / EXPLAIN VERBOSE: the multi-section report
  /// (QGM, rule firings, annotated plan, execution summary).
  Result<ResultSet> RunExplainReport(const ast::ExplainStatement& stmt);
  Result<ResultSet> RunCreateTable(const ast::CreateTableStatement& stmt);
  Result<ResultSet> RunCreateIndex(const ast::CreateIndexStatement& stmt);
  Result<ResultSet> RunCreateView(const ast::CreateViewStatement& stmt);
  /// SET: applies one settings-table row to a copy of the snapshot (or
  /// to the component that owns it) and swaps the copy in.
  Result<ResultSet> ChangeSetting(const ast::SetStatement& stmt);
  Result<ResultSet> RunKill(const ast::KillStatement& stmt);

  /// The full compile+execute pipeline for a SELECT or a DML statement.
  struct QueryOutput {
    std::vector<std::string> column_names;
    std::vector<Row> rows;
    int64_t affected_rows = 0;  // DML only
  };
  /// Extra hooks EXPLAIN [ANALYZE|VERBOSE] threads through the pipeline:
  /// capture the intermediate texts, force stats collection, and
  /// optionally stop before execution.
  struct PipelineCapture {
    bool want_texts = false;
    bool collect_stats = false;
    bool execute = true;
    bool skip_rewrite = false;  // EXPLAIN QGM BEFORE
    std::string qgm_text;   // QGM after rewrite (unless skipped)
    std::string plan_text;  // chosen plan with estimates
  };
  /// Compiles and runs `stmt`; a DML statement's query yields the rows to
  /// change, which ApplyChanges then applies.
  Result<QueryOutput> RunQueryPipeline(const ast::Statement& stmt,
                                       PipelineCapture* capture = nullptr);
  /// Figure 1's compile half (bind → rewrite → optimize → refine) into a
  /// re-executable artifact, filling the compile-phase metrics. DML needs
  /// `dml`.
  Result<PreparedStatementPtr> CompileSelect(
      const ast::Statement& stmt, PipelineCapture* capture,
      qgm::Binder::DmlTarget* dml = nullptr);
  /// Parses `sql`, which must be a SELECT, and compiles it.
  Result<PreparedStatementPtr> CompileSql(const std::string& sql);
  /// Figure 1's run half: re-opens the compiled operator tree under a
  /// fresh ExecContext (binding `params` when given) and drains it.
  Result<QueryOutput> ExecuteCompiled(PreparedStatement& ps,
                                      const std::vector<Value>* params);
  /// Normalized SQL plus the statement snapshot's plan fingerprint:
  /// setting changes key-miss rather than invalidate.
  static std::string PlanCacheKey(const std::string& sql) {
    return NormalizeSql(sql) + '\x1f' +
           stmt_state().settings->plan_fingerprint;
  }
  /// The current settings snapshot.
  std::shared_ptr<const Settings> settings() const {
    std::lock_guard<std::mutex> lock(settings_mu_);
    return settings_;
  }
  void SnapshotPlanCacheMetrics();
  /// Names of views whose bodies (transitively) reference the object
  /// `dep_key` ("T:NAME" / "V:NAME"), excluding `dep_key` itself.
  std::vector<std::string> ViewsReferencing(const std::string& dep_key) const;

  /// Coerces `v` to a column type (numeric widening only) and checks
  /// nullability.
  Result<Value> CoerceForColumn(Value v, const ColumnDef& col) const;
  /// The apply step of DML: changes `target` by the rows its query
  /// drained, all or nothing (a failure undoes the rows already changed).
  /// Returns the number of rows changed.
  Result<int64_t> ApplyChanges(ast::StatementKind kind,
                               const qgm::Binder::DmlTarget& target,
                               std::vector<Row>* rows);
  void RefreshRowStats(const std::string& table_name);

  Catalog catalog_;
  StorageEngine storage_;
  rewrite::RuleEngine rule_engine_;
  std::vector<optimizer::Star> extra_stars_;
  /// Swapped whole by SET under `settings_mu_`, never written in place.
  std::shared_ptr<const Settings> settings_;
  mutable std::mutex settings_mu_;
  /// Snapshot of the most recently finished statement's metrics (see
  /// last_metrics()); guarded against concurrent finishers.
  QueryMetrics last_metrics_;
  mutable std::mutex last_metrics_mu_;
  obs::Tracer tracer_;
  PlanCache plan_cache_;

  StatementRegistry statements_;
  AdmissionController admission_;
  /// Engine-shared worker pool (grown to the widest concurrent plan).
  /// Cached operator trees hold only a raw pointer to it that they never
  /// touch at destruction, so its position among the members is free.
  exec::parallel::TaskScheduler scheduler_{0};

  obs::MetricsRegistry metrics_registry_;
  obs::QueryLog query_log_;
  bool metrics_enabled_ = true;
  /// Statement ids (metrics on or off); atomic so concurrent sessions
  /// never share an id.
  std::atomic<uint64_t> statement_seq_{0};

  /// Registry pointers resolved once at construction; statement-end
  /// bookkeeping then touches only their atomics.
  struct EngineMetrics {
    obs::Counter* queries_total = nullptr;
    obs::Counter* query_errors_total = nullptr;
    obs::Counter* slow_queries_total = nullptr;
    obs::Histogram* query_latency_us = nullptr;
    obs::Counter* plan_cache_hits = nullptr;
    obs::Counter* plan_cache_misses = nullptr;
    obs::Counter* plan_cache_invalidations = nullptr;
    obs::Counter* plan_cache_evictions = nullptr;
    obs::Gauge* plan_cache_entries = nullptr;
    obs::Counter* buffer_pool_logical_reads = nullptr;
    obs::Counter* buffer_pool_cache_hits = nullptr;
    obs::Counter* buffer_pool_disk_reads = nullptr;
    obs::Counter* buffer_pool_disk_writes = nullptr;
    obs::Counter* spill_files_created = nullptr;
    obs::Counter* spill_bytes_written = nullptr;
    obs::Gauge* spill_live_files = nullptr;
    obs::Gauge* spill_live_bytes = nullptr;
    obs::Counter* scheduler_tasks_run = nullptr;
    obs::Counter* scheduler_workers_spawned = nullptr;
    obs::Gauge* memory_query_peak_bytes = nullptr;
    obs::Gauge* memory_query_peak_max_bytes = nullptr;
    obs::Counter* statements_killed_total = nullptr;
    obs::Counter* statements_cancelled_total = nullptr;
    obs::Counter* statements_timed_out_total = nullptr;
    obs::Counter* admission_queued_total = nullptr;
    obs::Counter* admission_rejected_total = nullptr;
    obs::Counter* admission_timeouts_total = nullptr;
    obs::Counter* admission_cancelled_while_queued_total = nullptr;
    obs::Counter* admission_aged_total = nullptr;
    obs::Counter* admission_admitted_by_class[kNumPriorities] = {};
    obs::Counter* admission_queued_by_class[kNumPriorities] = {};
    obs::Gauge* admission_waiting = nullptr;
    obs::Gauge* admission_in_use_bytes = nullptr;
    obs::Gauge* admission_budget_bytes = nullptr;
    obs::Counter* scheduler_preemptions = nullptr;
    obs::Gauge* statements_live = nullptr;
    obs::Counter* query_log_dropped_total = nullptr;
    obs::Counter* query_log_cleared_total = nullptr;
  };
  EngineMetrics em_;
};

}  // namespace starburst

#endif  // STARBURST_ENGINE_DATABASE_H_
