#ifndef STARBURST_EXEC_PARALLEL_GATHER_H_
#define STARBURST_EXEC_PARALLEL_GATHER_H_

#include <map>
#include <memory>
#include <vector>

#include "exec/expr_eval.h"
#include "exec/parallel/morsel.h"
#include "exec/parallel/shared_hash_table.h"
#include "exec/parallel/task_scheduler.h"
#include "exec/stream.h"

namespace starburst::exec::parallel {

/// Staging area of the partition exchange feeding a parallel GROUP BY:
/// phase A workers append rows to staged[worker][partition]; phase B's
/// per-partition aggregation clones read every worker's vector for their
/// partition (disjoint writes then disjoint reads — no locking).
struct AggExchange {
  void Reset(size_t workers, size_t partitions) {
    staged.assign(workers == 0 ? 1 : workers,
                  std::vector<std::vector<Row>>(partitions == 0 ? 1
                                                                : partitions));
  }
  std::vector<std::vector<std::vector<Row>>> staged;
};

/// Everything the clones of one Gather share: the scheduler, per-scan
/// morsel dispensers, per-join shared build tables (with their build
/// pipelines), and the aggregation exchange. Owned by the GatherOp; the
/// clones hold raw pointers into it.
struct ParallelPlanContext {
  /// With `shared` the clones run on that (engine-owned, statement-
  /// shared) pool, so concurrent statements' batches interleave by
  /// priority; without it the context owns a private pool of
  /// parallelism−1 workers (standalone use, tests).
  explicit ParallelPlanContext(size_t parallelism_,
                               TaskScheduler* shared = nullptr)
      : parallelism(parallelism_ == 0 ? 1 : parallelism_),
        owned_scheduler(shared != nullptr
                            ? nullptr
                            : std::make_unique<TaskScheduler>(parallelism - 1)),
        scheduler(shared != nullptr ? shared : owned_scheduler.get()) {}

  size_t parallelism;
  std::unique_ptr<TaskScheduler> owned_scheduler;  // null when shared
  TaskScheduler* scheduler;  // never null; not owned when shared

  struct ScanSource {
    const TableDef* table = nullptr;
    MorselSource morsels;
  };
  /// Keyed by the scan's optimizer Plan node (one dispenser per scan).
  std::map<const void*, std::unique_ptr<ScanSource>> scans;

  struct JoinBuild {
    SharedHashTable table;
    /// Build-side key columns (the inner slots of the join's equi keys).
    std::vector<size_t> key_slots;
    /// P clones of the join's inner subtree, drained morsel-driven to
    /// fill `table` before the probe phase opens.
    std::vector<OperatorPtr> build_clones;
  };
  /// Post-order (innermost joins first): builds run in list order, so a
  /// build pipeline may itself probe earlier entries.
  std::vector<std::unique_ptr<JoinBuild>> builds;
  std::map<const void*, JoinBuild*> builds_by_node;

  AggExchange exchange;  // agg mode only
};

/// Gather: runs P pipeline clones to completion on Open (shared-build
/// join phases first, then the probe/output phase), buffers their output,
/// and streams it single-threaded — everything above the Gather composes
/// unchanged.
OperatorPtr MakeGatherOp(std::unique_ptr<ParallelPlanContext> pctx,
                         std::vector<OperatorPtr> pipelines);

/// Aggregating Gather (partition exchange): phase A drains the P input
/// clones and routes each row by hash of its group key to a partition;
/// phase B runs one aggregation clone per partition (each reading its
/// partition through an exchange-source op) and buffers their output.
/// `partition_keys[w]` are clone w's compiled group-key expressions
/// (empty for a global aggregate, which must use a single agg clone).
OperatorPtr MakeGatherAggOp(
    std::unique_ptr<ParallelPlanContext> pctx,
    std::vector<OperatorPtr> input_clones,
    std::vector<std::vector<CompiledExprPtr>> partition_keys,
    std::vector<OperatorPtr> agg_clones);

/// Source feeding one aggregation clone: yields every worker's staged
/// rows for `partition`. Valid to open only after phase A completed.
OperatorPtr MakeExchangeSourceOp(const AggExchange* exchange,
                                 size_t partition);

}  // namespace starburst::exec::parallel

#endif  // STARBURST_EXEC_PARALLEL_GATHER_H_
