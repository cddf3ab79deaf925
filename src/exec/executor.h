#ifndef STARBURST_EXEC_EXECUTOR_H_
#define STARBURST_EXEC_EXECUTOR_H_

#include "exec/plan_refiner.h"
#include "optimizer/optimizer.h"

namespace starburst::exec {

/// The Query Evaluation System's front door: refines a chosen plan into
/// an operator tree and interprets it against the database.
class Executor {
 public:
  /// The refiner's options plus the query-wide memory cap, with the
  /// worker count defaulting to the hardware concurrency.
  struct Options : PlanRefiner::Options {
    Options() { parallelism = DefaultParallelism(); }
    /// Query-wide cap over every governed operator's sum
    /// (SET QUERY_MEMORY; 0 = unlimited).
    uint64_t query_memory_bytes = 0;

    /// SET PARALLELISM's upper bound; the hardware default is clamped to it.
    static constexpr size_t kMaxParallelism = 256;
    static size_t DefaultParallelism();
  };

  Executor(StorageEngine* storage, const Catalog* catalog)
      : storage_(storage), catalog_(catalog) {}

  /// Runs the plan to completion, honouring the query-level LIMIT
  /// recorded in the graph. `optimizer` supplies the per-box plans for
  /// correlated subquery runtimes.
  Result<std::vector<Row>> Execute(const optimizer::PlanPtr& plan,
                                   const optimizer::Optimizer& optimizer,
                                   const qgm::Graph& graph);
  Result<std::vector<Row>> Execute(const optimizer::PlanPtr& plan,
                                   const optimizer::Optimizer& optimizer,
                                   const qgm::Graph& graph,
                                   const Options& options);

  /// Stats from the most recent Execute.
  const ExecStats& last_stats() const { return last_stats_; }

 private:
  StorageEngine* storage_;
  const Catalog* catalog_;
  ExecStats last_stats_;
};

}  // namespace starburst::exec

#endif  // STARBURST_EXEC_EXECUTOR_H_
