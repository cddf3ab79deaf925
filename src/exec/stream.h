#ifndef STARBURST_EXEC_STREAM_H_
#define STARBURST_EXEC_STREAM_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/memory_tracker.h"
#include "common/result.h"
#include "common/row.h"
#include "common/row_batch.h"
#include "obs/op_stats.h"
#include "qgm/box.h"
#include "storage/storage_engine.h"

namespace starburst::exec {

/// Runtime statistics the QES collects while interpreting a QEP.
/// Counters are atomic: parallel pipeline clones under a Gather share
/// the coordinator's ExecContext and bump these concurrently. Copying
/// (QueryMetrics keeps a snapshot) is defined field-wise, relaxed.
struct ExecStats {
  std::atomic<uint64_t> rows_emitted{0};
  std::atomic<uint64_t> subquery_evaluations{0};  // inner plan (re-)executions
  std::atomic<uint64_t> subquery_cache_hits{0};   // correlation unchanged
  std::atomic<uint64_t> shipped_rows{0};          // through SHIP operators
  std::atomic<uint64_t> recursion_iterations{0};
  std::atomic<uint64_t> shared_materializations{0};  // shared TEMPs built

  ExecStats() = default;
  ExecStats(const ExecStats& o) { *this = o; }
  ExecStats& operator=(const ExecStats& o) {
    rows_emitted = o.rows_emitted.load(std::memory_order_relaxed);
    subquery_evaluations =
        o.subquery_evaluations.load(std::memory_order_relaxed);
    subquery_cache_hits = o.subquery_cache_hits.load(std::memory_order_relaxed);
    shipped_rows = o.shipped_rows.load(std::memory_order_relaxed);
    recursion_iterations =
        o.recursion_iterations.load(std::memory_order_relaxed);
    shared_materializations =
        o.shared_materializations.load(std::memory_order_relaxed);
    return *this;
  }
};

/// Shared evaluation context for one query execution: Core access,
/// correlation parameter frames (evaluate-on-demand subqueries, dependent
/// joins), and the recursion working tables.
class ExecContext {
 public:
  ExecContext(StorageEngine* storage, const Catalog* catalog)
      : storage_(storage), catalog_(catalog), run_id_(NextRunId()) {}

  StorageEngine* storage() { return storage_; }
  const Catalog* catalog() const { return catalog_; }
  ExecStats& stats() { return stats_; }

  /// Unique execution epoch, distinct for every ExecContext in the
  /// process. Operator trees that outlive one execution (cached/prepared
  /// plans) compare this against the epoch they last saw to notice a new
  /// run and drop per-run memo state (e.g. subquery caches).
  uint64_t run_id() const { return run_id_; }

  /// Capacity of the batches the engine drains a plan with and operators
  /// drain or stage their inputs with (`SET batch_size`; 1 gives one-row
  /// batches). Set before Open — operators size their staging batches
  /// when opened.
  size_t batch_size() const { return batch_size_; }
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }

  /// Query-level memory governor: every blocking operator parents its own
  /// tracker here, so `SET query_memory` caps their *sum* — one operator
  /// over-consuming forces the others to spill. Budget 0 = unlimited
  /// (still counts, for observability). Set before Open.
  MemoryTracker* query_memory() { return &query_memory_; }
  void set_query_memory_budget(uint64_t bytes) {
    query_memory_.Configure(bytes, nullptr);
  }

  /// Cooperative cancellation. The engine attaches the statement's token
  /// before Open; operators call CheckCancel() at batch boundaries (block
  /// refills, spill waves, merge passes — never per row). Ungoverned
  /// contexts (no token) pay one null compare.
  ///
  /// A streaming operator a join's RowCursor may pull one row at a time
  /// checks once per kCancelCheckRows rows it stages instead, so small
  /// batches do not read the deadline clock per row.
  static constexpr size_t kCancelCheckRows = 1024;
  void set_cancel_token(CancelToken* token) { cancel_ = token; }
  CancelToken* cancel_token() const { return cancel_; }
  Status CheckCancel() {
    if (cancel_ == nullptr) return Status::OK();
    return cancel_->Check();
  }

  /// TaskScheduler batch priority for this execution's parallel phases
  /// (TaskScheduler::kPriorityHigh/Normal/Low). The engine derives it
  /// from the statement's scheduling class before Open; standalone
  /// contexts run at normal.
  int scheduler_priority() const { return scheduler_priority_; }
  void set_scheduler_priority(int p) { scheduler_priority_ = p; }

  /// Correlation frames. A dependent join or subquery invocation pushes a
  /// frame of (quantifier, column) -> value before (re)opening the inner
  /// stream; frames nest for multi-level correlation. A frame holds the
  /// handful of columns one correlation site binds, so it is a flat
  /// vector scanned linearly — LookupParam sits on the per-row hot path
  /// of every dependent join and must not chase red-black trees.
  using ParamKey = std::pair<const qgm::Quantifier*, size_t>;
  struct ParamFrame {
    std::vector<std::pair<ParamKey, Value>> values;

    void Clear() { values.clear(); }  // keeps capacity for the next rebind
    void Set(const qgm::Quantifier* q, size_t column, Value v) {
      for (auto& kv : values) {
        if (kv.first.first == q && kv.first.second == column) {
          kv.second = std::move(v);
          return;
        }
      }
      values.emplace_back(ParamKey{q, column}, std::move(v));
    }
    const Value* Find(const qgm::Quantifier* q, size_t column) const {
      for (const auto& kv : values) {
        if (kv.first.first == q && kv.first.second == column)
          return &kv.second;
      }
      return nullptr;
    }
  };
  void PushParams(const ParamFrame* frame) { param_stack_.push_back(frame); }
  void PopParams() { param_stack_.pop_back(); }
  /// Innermost binding wins.
  Result<Value> LookupParam(const qgm::Quantifier* q, size_t column) const;

  /// Recursion: the RECURSE operator publishes the table ITERREF reads,
  /// keyed by the recursive-union box.
  void SetIterationTable(const qgm::Box* recursion,
                         const std::vector<Row>* rows) {
    iteration_tables_[recursion] = rows;
  }
  const std::vector<Row>* IterationTable(const qgm::Box* recursion) const {
    auto it = iteration_tables_.find(recursion);
    return it == iteration_tables_.end() ? nullptr : it->second;
  }

  /// Shared table-expression materializations ("materialized once and
  /// used several times", §5), keyed by the optimizer's shared-TEMP plan
  /// node. All consumer operators read the same copy.
  const std::vector<Row>* SharedTable(const void* key) const {
    auto it = shared_tables_.find(key);
    return it == shared_tables_.end() ? nullptr : &it->second;
  }
  const std::vector<Row>* StoreSharedTable(const void* key,
                                           std::vector<Row> rows) {
    ++stats_.shared_materializations;
    return &(shared_tables_[key] = std::move(rows));
  }

 private:
  static uint64_t NextRunId() {
    static std::atomic<uint64_t> counter{0};
    return ++counter;
  }

  StorageEngine* storage_;
  const Catalog* catalog_;
  CancelToken* cancel_ = nullptr;
  uint64_t run_id_ = 0;
  size_t batch_size_ = RowBatch::kDefaultCapacity;
  int scheduler_priority_ = 1;  // TaskScheduler::kPriorityNormal
  std::vector<const ParamFrame*> param_stack_;
  std::unordered_map<const qgm::Box*, const std::vector<Row>*>
      iteration_tables_;
  std::unordered_map<const void*, std::vector<Row>> shared_tables_;
  MemoryTracker query_memory_;
  ExecStats stats_;
};

/// A QES operator (§7): "Each operator takes one or more streams of tuples
/// as input and produces one or more streams of tuples (usually one) as
/// output. We implement the concept of streams by lazy evaluation" — the
/// classic open/next/close protocol, batch-at-a-time: NextBatch is the one
/// way an operator produces tuples, up to the caller's batch fill limit
/// per call. Operators are re-openable: a dependent join re-Opens its
/// inner stream per outer row under fresh parameters.
///
/// NextBatch contract: the shim clears `batch` before dispatch; the impl
/// stages up to batch->fill_limit() rows and the call returns true iff at
/// least one *active* row was produced. false means end of stream with an
/// empty batch; an impl must never return true with an empty batch (the
/// driving loops use emptiness to terminate). A streaming operator pulls
/// its input in batches no larger than its caller's fill limit, and one
/// whose logic is per input row (the nested-loop and merge joins) reads
/// that input through a RowCursor, one row per call. So a LIMIT does not
/// overfetch through them, and EXPLAIN ANALYZE row counts are exact at
/// any batch size (`SET BATCH_SIZE = 1` is only a capacity).
///
/// The public Open/NextBatch/Close entry points are non-virtual shims:
/// with no stats sink attached (the default) they forward straight to the
/// *Impl virtuals at the cost of one branch; with one attached (EXPLAIN
/// ANALYZE, COLLECT_OP_STATS) they also count invocations, rows, and
/// inclusive wall time — one timestamp pair and one next_calls tick per
/// batch, rows_out += the batch's row count. Subclasses implement
/// OpenImpl/NextBatchImpl/CloseImpl and call their children through the
/// public protocol, so instrumentation composes through the whole tree.
class Operator {
 public:
  virtual ~Operator() = default;

  Status Open(ExecContext* ctx) {
    if (stats_ == nullptr) return OpenImpl(ctx);
    return OpenTimed(ctx);
  }
  /// Produces the next batch of tuples; false at end of stream (with
  /// `batch` left empty). The batch is cleared on entry; its capacity and
  /// fill limit are the caller's to choose.
  Result<bool> NextBatch(RowBatch* batch) {
    batch->Clear();
    if (stats_ == nullptr) return NextBatchImpl(batch);
    return NextBatchTimed(batch);
  }
  void Close() {
    if (stats_ == nullptr) {
      CloseImpl();
    } else {
      CloseTimed();
    }
  }

  /// Attaches the counter block this operator accumulates into (null
  /// detaches). The block must outlive the operator's use.
  void set_stats(obs::OperatorStats* stats) { stats_ = stats; }

 protected:
  virtual Status OpenImpl(ExecContext* ctx) = 0;
  virtual Result<bool> NextBatchImpl(RowBatch* batch) = 0;
  virtual void CloseImpl() = 0;

  /// Spill/memory accounting hooks for blocking operators; no-ops when no
  /// stats sink is attached, so governed operators call them
  /// unconditionally.
  void StatSpill(uint64_t runs, uint64_t bytes) {
    if (stats_ == nullptr) return;
    stats_->spill_runs.fetch_add(runs, std::memory_order_relaxed);
    stats_->spill_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  void StatPeakMemory(uint64_t bytes) {
    if (stats_ == nullptr) return;
    uint64_t prev = stats_->peak_memory_bytes.load(std::memory_order_relaxed);
    while (prev < bytes && !stats_->peak_memory_bytes.compare_exchange_weak(
                               prev, bytes, std::memory_order_relaxed)) {
    }
  }
  /// Kernel-coverage accounting for operators with expression sites:
  /// rows whose expressions ran through vectorized kernel programs vs.
  /// the row-at-a-time interpreter this call.
  void StatKernelRows(uint64_t vectorized, uint64_t interpreted) {
    if (stats_ == nullptr || (vectorized == 0 && interpreted == 0)) return;
    if (vectorized != 0) {
      stats_->vectorized_rows.fetch_add(vectorized, std::memory_order_relaxed);
    }
    if (interpreted != 0) {
      stats_->interpreted_rows.fetch_add(interpreted,
                                         std::memory_order_relaxed);
    }
  }

 private:
  Status OpenTimed(ExecContext* ctx);
  Result<bool> NextBatchTimed(RowBatch* batch);
  void CloseTimed();

  obs::OperatorStats* stats_ = nullptr;
};

/// Reads an input one row at a time, for an operator whose logic is per
/// input row (the nested-loop and merge joins). Each Next is one
/// NextBatch call into a one-slot batch, so the input stages exactly the
/// rows consumed: its EXPLAIN ANALYZE counts are one call per row plus
/// the end-of-stream call, whatever the query's batch size.
class RowCursor {
 public:
  RowCursor() : slot_(1) {}

  /// Moves `input`'s next row into *row; false at end of stream.
  Result<bool> Next(Operator* input, Row* row) {
    STARBURST_ASSIGN_OR_RETURN(bool more, input->NextBatch(&slot_));
    if (more) *row = std::move(slot_.row(0));
    return more;
  }

 private:
  RowBatch slot_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Copies rows [*pos, rows.size()) into `batch` until it fills, advancing
/// *pos — the emit loop shared by every operator that batches out of a
/// materialized buffer (sort, temp, gather, aggregation results).
/// Returns true iff at least one row was staged.
inline bool FillBatchFromRows(const std::vector<Row>& rows, size_t* pos,
                              RowBatch* batch) {
  while (!batch->full() && *pos < rows.size()) {
    batch->Append(rows[(*pos)++]);
  }
  return !batch->empty();
}

/// Drains an operator into a vector (operator must be Open), pulling
/// `batch_size` rows per NextBatch call and moving them out of the batch.
/// `reserve_hint` (the plan's estimated cardinality, when known)
/// pre-reserves the output — clamped, so a wild misestimate cannot
/// balloon memory.
/// When `ctx` is supplied, the statement's cancel token (if any) is
/// checked before each NextBatch pull, so a KILL or deadline lands
/// within one batch boundary even while the operator itself is between
/// check sites.
Result<std::vector<Row>> DrainOperator(Operator* op, size_t batch_size,
                                       size_t reserve_hint = 0,
                                       ExecContext* ctx = nullptr);
/// Convenience overload: default batch size, no reserve hint.
Result<std::vector<Row>> DrainOperator(Operator* op);
/// Core drain loop: appends into `out`, staging through caller-owned
/// `scratch` (reused across calls by per-row drains like the subquery
/// runtime, which would otherwise rebuild a batch per outer row).
Status DrainOperatorInto(Operator* op, RowBatch* scratch,
                         std::vector<Row>* out, ExecContext* ctx = nullptr);

}  // namespace starburst::exec

#endif  // STARBURST_EXEC_STREAM_H_
