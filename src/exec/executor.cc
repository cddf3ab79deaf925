#include "exec/executor.h"

#include <algorithm>
#include <thread>

namespace starburst::exec {

size_t Executor::Options::DefaultParallelism() {
  size_t n = std::thread::hardware_concurrency();
  return std::clamp<size_t>(n, 1, kMaxParallelism);
}

Result<std::vector<Row>> Executor::Execute(const optimizer::PlanPtr& plan,
                                           const optimizer::Optimizer& optimizer,
                                           const qgm::Graph& graph) {
  return Execute(plan, optimizer, graph, Options{});
}

Result<std::vector<Row>> Executor::Execute(const optimizer::PlanPtr& plan,
                                           const optimizer::Optimizer& optimizer,
                                           const qgm::Graph& graph,
                                           const Options& options) {
  PlanRefiner::Options refine_options = options;
  if (refine_options.parallelism == 0) refine_options.parallelism = 1;
  if (refine_options.batch_size == 0) refine_options.batch_size = 1;
  PlanRefiner refiner(catalog_, &optimizer.box_plans(), refine_options);
  STARBURST_ASSIGN_OR_RETURN(OperatorPtr root, refiner.Refine(plan));
  if (graph.limit >= 0) {
    root = MakeLimitOp(std::move(root), graph.limit);
    if (options.stats != nullptr) {
      obs::PlanStatsTree::Node* limit_node = options.stats->WrapRoot(
          "LIMIT " + std::to_string(graph.limit), plan->props.cardinality,
          plan->props.cost);
      root->set_stats(&limit_node->actual);
    }
  }

  ExecContext ctx(storage_, catalog_);
  ctx.set_batch_size(refine_options.batch_size);
  ctx.set_query_memory_budget(options.query_memory_bytes);
  STARBURST_RETURN_IF_ERROR(root->Open(&ctx));
  double est = plan->props.cardinality;
  size_t reserve_hint = est > 0 ? static_cast<size_t>(est) : 0;
  Result<std::vector<Row>> rows =
      DrainOperator(root.get(), ctx.batch_size(), reserve_hint, &ctx);
  root->Close();
  last_stats_ = ctx.stats();
  if (!rows.ok()) return rows.status();
  return rows;
}

}  // namespace starburst::exec
