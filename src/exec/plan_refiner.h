#ifndef STARBURST_EXEC_PLAN_REFINER_H_
#define STARBURST_EXEC_PLAN_REFINER_H_

#include <map>
#include <set>
#include <vector>

#include "exec/operators.h"
#include "exec/parallel/gather.h"

namespace starburst::exec {

class PlanRefiner;

/// Registry of DBC-defined QES operators ("adding new operators to the QES
/// has been trivial"). An optimizer plan node with Lolepop::kExtension and
/// a registered ext_name refines through the DBC's builder.
class ExtOperatorRegistry {
 public:
  using Builder = std::function<Result<OperatorPtr>(const optimizer::Plan&,
                                                    PlanRefiner&)>;
  static ExtOperatorRegistry& Global();

  Status Register(const std::string& name, Builder builder);
  bool Contains(const std::string& name) const;
  Result<const Builder*> Lookup(const std::string& name) const;

 private:
  std::map<std::string, Builder> builders_;
};

/// Plan Refinement (§3, Figure 1): turns the optimizer's chosen QEP into
/// the executable operator tree the QES interprets — compiling every
/// predicate and head expression against its operator's slot layout,
/// instantiating subquery runtimes, and wiring dependent-join parameter
/// passing.
class PlanRefiner {
 public:
  struct Options {
    SubqueryCacheMode cache_mode = SubqueryCacheMode::kMemo;
    double ship_delay_us = 0;
    /// Semi-naive recursion (deltas only); false = naive full-table
    /// iteration, for ablation benchmarks.
    bool semi_naive_recursion = true;
    /// When set, every refined operator gets a node in this tree (with
    /// the plan's estimates) and accumulates its runtime stats into it.
    /// The tree must outlive execution.
    obs::PlanStatsTree* stats = nullptr;
    /// Worker count for morsel-driven parallel execution. > 1 inserts a
    /// Gather over the largest parallel-safe subtrees, which then run as
    /// that many pipeline clones.
    size_t parallelism = 1;
    /// Worth gate: estimated base-table rows a subtree must scan before
    /// it is worth parallelizing (thread handoff isn't free). 0 = always.
    double parallel_min_rows = 1024;
    /// Batch capacity (SET BATCH_SIZE); the engine installs it on the
    /// ExecContext before opening the refined tree.
    size_t batch_size = RowBatch::kDefaultCapacity;
    /// Build budgets (bytes, 0 = unlimited) handed to the blocking
    /// operators: sorts spill runs past sort_memory_bytes; aggregations
    /// and DISTINCT grace-partition past agg_memory_bytes. The query-
    /// wide cap lives on the ExecContext, not here.
    uint64_t sort_memory_bytes = 0;
    uint64_t agg_memory_bytes = 0;
    /// Compile expression sites into column-at-a-time kernel programs
    /// (SET VECTORIZE). Off = every site runs the row-at-a-time
    /// interpreter — the differential-testing reference behavior.
    bool vectorize = true;
    /// Engine-shared worker pool for parallel subtrees. When set, every
    /// Gather built by this refiner runs its clones there (batches from
    /// concurrent statements interleave by priority); null keeps the
    /// per-Gather private pool. Must outlive the refined tree's
    /// executions.
    parallel::TaskScheduler* shared_scheduler = nullptr;
  };

  PlanRefiner(const Catalog* catalog,
              const std::map<const qgm::Box*, optimizer::PlanPtr>* box_plans,
              Options options)
      : catalog_(catalog), box_plans_(box_plans), options_(options) {}

  Result<OperatorPtr> Refine(const optimizer::PlanPtr& plan);

  /// Builds a fresh operator tree for a (sub)query box using the
  /// optimizer's plan for it. Also used by the engine for UPDATE/DELETE
  /// subquery predicates.
  Result<OperatorPtr> BuildBoxOperator(const qgm::Box* box);

  /// Compiles an expression against an explicit layout, with subquery
  /// support through this refiner. Parameters that cannot be resolved in
  /// the layout are reported through `free_params` (may be null).
  Result<CompiledExprPtr> Compile(
      const qgm::Expr& e, const std::vector<optimizer::ColumnBinding>& layout,
      std::set<ExecContext::ParamKey>* free_params);

  /// Kernel-compile census across every expression site refined so far
  /// (stamped into PreparedStatement / query metrics by the engine).
  const KernelCompileStats& kernel_stats() const { return kernel_stats_; }

 private:
  /// The per-site compile knobs handed to operator factories.
  KernelOptions Kernels() { return KernelOptions{options_.vectorize,
                                                 &kernel_stats_}; }
  /// Builds the operator for `plan` and, when stats collection is on,
  /// surrounds it with a PlanStatsTree node nested under the current one.
  Result<OperatorPtr> Build(const optimizer::Plan& plan);
  /// The big LOLEPOP switch (no stats bookkeeping).
  Result<OperatorPtr> BuildOp(const optimizer::Plan& plan);
  Result<OperatorPtr> BuildJoin(const optimizer::Plan& plan);
  Result<OperatorPtr> BuildGroupAgg(const optimizer::Plan& plan);
  /// Compiles the grouping machinery of a kGroupAgg plan over an already
  /// built input stream (shared by the serial and the per-partition path).
  Result<OperatorPtr> BuildGroupAggOver(const optimizer::Plan& plan,
                                        OperatorPtr input);

  /// True when `plan` is the root of a subtree worth running parallel.
  bool ShouldParallelize(const optimizer::Plan& plan) const;
  /// Builds a Gather (plain or aggregating) over `plan`, cloning the
  /// parallel-safe subtree options_.parallelism times.
  Result<OperatorPtr> BuildParallel(const optimizer::Plan& plan);
  void CollectParallelNodes(const optimizer::Plan& plan,
                            parallel::ParallelPlanContext* pctx,
                            std::vector<const optimizer::Plan*>* join_nodes);

  CompileEnv EnvFor(const std::vector<optimizer::ColumnBinding>* layout);

  const Catalog* catalog_;
  const std::map<const qgm::Box*, optimizer::PlanPtr>* box_plans_;
  Options options_;
  KernelCompileStats kernel_stats_;
  /// Innermost set records correlation parameters compiled in the current
  /// subtree; dependent joins intercept and bind them from outer rows.
  std::vector<std::set<ExecContext::ParamKey>*> param_scopes_;
  /// Current ancestor in options_.stats while building (empty = root).
  std::vector<obs::PlanStatsTree::Node*> stats_stack_;
  /// Non-null while building parallel pipeline clones: scans become
  /// morsel scans and hash joins become probes of the shared tables.
  parallel::ParallelPlanContext* parallel_ctx_ = nullptr;
  /// Per plan node, the stats node shared by all clones of that node
  /// (EXPLAIN ANALYZE shows one aggregated line, not P duplicates).
  std::map<const optimizer::Plan*, obs::PlanStatsTree::Node*>*
      parallel_stats_ = nullptr;
};

/// What the engine runs a refined plan under (`Settings::exec`): the
/// refiner's options plus the query-wide memory cap, with the worker
/// count defaulting to the hardware concurrency.
struct ExecOptions : PlanRefiner::Options {
  ExecOptions() { parallelism = DefaultParallelism(); }
  /// Query-wide cap over every governed operator's sum
  /// (SET QUERY_MEMORY; 0 = unlimited).
  uint64_t query_memory_bytes = 0;

  /// SET PARALLELISM's upper bound; the hardware default is clamped to it.
  static constexpr size_t kMaxParallelism = 256;
  static size_t DefaultParallelism();
};

}  // namespace starburst::exec

#endif  // STARBURST_EXEC_PLAN_REFINER_H_
