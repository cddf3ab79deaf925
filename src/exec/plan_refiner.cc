#include "exec/plan_refiner.h"

#include <algorithm>
#include <thread>

namespace starburst::exec {

using optimizer::ColumnBinding;
using optimizer::JoinKind;
using optimizer::Lolepop;
using optimizer::Plan;
using optimizer::PlanPtr;
using qgm::Expr;

namespace {

/// Splits a predicate into its top-level OR disjuncts.
void SplitDisjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == Expr::Kind::kBinary && e->bop == ast::BinaryOp::kOr) {
    SplitDisjuncts(e->children[0].get(), out);
    SplitDisjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

size_t CountIterRefs(const Plan& plan, const qgm::Box* recursion) {
  size_t count = 0;
  if (plan.op == Lolepop::kIterRef && plan.box != nullptr &&
      plan.box->recursion == recursion) {
    ++count;
  }
  for (const PlanPtr& input : plan.inputs) {
    count += CountIterRefs(*input, recursion);
  }
  return count;
}

}  // namespace

CompileEnv PlanRefiner::EnvFor(const std::vector<ColumnBinding>* layout) {
  CompileEnv env;
  env.layout = layout;
  env.catalog = catalog_;
  env.cache_mode = options_.cache_mode;
  env.build_box_operator = [this](const qgm::Box* box) {
    return BuildBoxOperator(box);
  };
  env.on_param = [this](const qgm::Quantifier* q, size_t col) {
    if (!param_scopes_.empty()) {
      param_scopes_.back()->insert(ExecContext::ParamKey{q, col});
    }
  };
  return env;
}

Result<CompiledExprPtr> PlanRefiner::Compile(
    const Expr& e, const std::vector<ColumnBinding>& layout,
    std::set<ExecContext::ParamKey>* free_params) {
  std::set<ExecContext::ParamKey> scratch;
  std::set<ExecContext::ParamKey>* sink =
      free_params != nullptr ? free_params : &scratch;
  param_scopes_.push_back(sink);
  Result<CompiledExprPtr> out = CompileExpr(e, EnvFor(&layout));
  param_scopes_.pop_back();
  // Unresolved params of an explicit compile bubble to the enclosing scope.
  if (free_params == nullptr && !param_scopes_.empty()) {
    for (const auto& key : scratch) param_scopes_.back()->insert(key);
  }
  return out;
}

Result<OperatorPtr> PlanRefiner::Refine(const PlanPtr& plan) {
  return Build(*plan);
}

Result<OperatorPtr> PlanRefiner::BuildBoxOperator(const qgm::Box* box) {
  auto it = box_plans_->find(box);
  if (it == box_plans_->end()) {
    return Status::Internal("no plan recorded for box " + box->Label());
  }
  if (options_.stats == nullptr) return Build(*it->second);
  // Group the subquery runtime's operators under a wrapper node so the
  // annotated tree shows where the evaluate-on-demand plan hangs.
  obs::PlanStatsTree::Node* parent =
      stats_stack_.empty() ? nullptr : stats_stack_.back();
  obs::PlanStatsTree::Node* node = options_.stats->AddNode(
      parent, "SUBQUERY " + box->Label(), it->second->props.cardinality,
      it->second->props.cost);
  node->synthetic = true;
  stats_stack_.push_back(node);
  Result<OperatorPtr> op = Build(*it->second);
  stats_stack_.pop_back();
  return op;
}

Result<OperatorPtr> PlanRefiner::Build(const Plan& plan) {
  if (ShouldParallelize(plan)) return BuildParallel(plan);
  if (options_.stats == nullptr) return BuildOp(plan);
  // Clones of a parallel subtree share one stats node per plan node, so
  // EXPLAIN ANALYZE shows a single aggregated line per operator.
  obs::PlanStatsTree::Node* node = nullptr;
  if (parallel_stats_ != nullptr) {
    auto it = parallel_stats_->find(&plan);
    if (it != parallel_stats_->end()) node = it->second;
  }
  if (node == nullptr) {
    obs::PlanStatsTree::Node* parent =
        stats_stack_.empty() ? nullptr : stats_stack_.back();
    node = options_.stats->AddNode(parent, plan.HeadLine(),
                                   plan.props.cardinality, plan.props.cost);
    if (parallel_stats_ != nullptr) (*parallel_stats_)[&plan] = node;
  }
  stats_stack_.push_back(node);
  Result<OperatorPtr> op = BuildOp(plan);
  stats_stack_.pop_back();
  if (op.ok()) (*op)->set_stats(&node->actual);
  return op;
}

bool PlanRefiner::ShouldParallelize(const Plan& plan) const {
  if (options_.parallelism <= 1) return false;
  if (parallel_ctx_ != nullptr) return false;  // already inside a gather
  if (plan.op == Lolepop::kGroupAgg) {
    // A GROUP BY over a parallel-safe subtree runs as a partition
    // exchange: parallel input clones route rows by group-key hash, one
    // aggregation clone per partition. Keys and arguments must be
    // evaluable on the clone side.
    if (plan.inputs.empty() || plan.box == nullptr) return false;
    if (!plan.predicates.empty()) return false;
    const Plan& input = *plan.inputs[0];
    if (!optimizer::IsParallelSafe(input)) return false;
    if (optimizer::ParallelScanRows(input) < options_.parallel_min_rows) {
      return false;
    }
    for (const auto& k : plan.box->group_keys) {
      if (!optimizer::ExprIsParallelSafeOver(*k, input)) return false;
    }
    for (const qgm::AggregateSpec& a : plan.box->aggregates) {
      if (a.arg != nullptr &&
          !optimizer::ExprIsParallelSafeOver(*a.arg, input)) {
        return false;
      }
    }
    return true;
  }
  if (!optimizer::IsParallelSafe(plan)) return false;
  return optimizer::ParallelScanRows(plan) >= options_.parallel_min_rows;
}

void PlanRefiner::CollectParallelNodes(
    const Plan& plan, parallel::ParallelPlanContext* pctx,
    std::vector<const Plan*>* join_nodes) {
  // Children first: a hash join's build phase may probe joins nested in
  // its own inner subtree, so innermost builds must run first.
  for (const PlanPtr& input : plan.inputs) {
    CollectParallelNodes(*input, pctx, join_nodes);
  }
  if (plan.op == Lolepop::kScan) {
    auto src = std::make_unique<parallel::ParallelPlanContext::ScanSource>();
    src->table = plan.table;
    pctx->scans.emplace(&plan, std::move(src));
  } else if (plan.op == Lolepop::kHashJoin) {
    auto jb = std::make_unique<parallel::ParallelPlanContext::JoinBuild>();
    for (const auto& key : plan.equi_keys) jb->key_slots.push_back(key.second);
    pctx->builds_by_node.emplace(&plan, jb.get());
    pctx->builds.push_back(std::move(jb));
    join_nodes->push_back(&plan);
  }
}

Result<OperatorPtr> PlanRefiner::BuildParallel(const Plan& plan) {
  const size_t workers = options_.parallelism;
  const bool agg_mode = plan.op == Lolepop::kGroupAgg;
  const Plan& pipeline_root = agg_mode ? *plan.inputs[0] : plan;

  auto pctx = std::make_unique<parallel::ParallelPlanContext>(
      workers, options_.shared_scheduler);
  std::vector<const Plan*> join_nodes;
  CollectParallelNodes(pipeline_root, pctx.get(), &join_nodes);

  obs::PlanStatsTree::Node* gather_node = nullptr;
  if (options_.stats != nullptr) {
    obs::PlanStatsTree::Node* parent =
        stats_stack_.empty() ? nullptr : stats_stack_.back();
    gather_node = options_.stats->AddNode(
        parent, "GATHER workers=" + std::to_string(workers),
        plan.props.cardinality, plan.props.cost);
    gather_node->synthetic = true;
    stats_stack_.push_back(gather_node);
  }

  std::map<const Plan*, obs::PlanStatsTree::Node*> clone_stats;
  parallel_ctx_ = pctx.get();
  parallel_stats_ = &clone_stats;

  auto build_all = [&]() -> Result<OperatorPtr> {
    // Build-side clones first (innermost joins first, matching the order
    // the gather runs them in).
    for (size_t j = 0; j < join_nodes.size(); ++j) {
      parallel::ParallelPlanContext::JoinBuild* jb = pctx->builds[j].get();
      const Plan& inner = *join_nodes[j]->inputs[1];
      for (size_t w = 0; w < workers; ++w) {
        STARBURST_ASSIGN_OR_RETURN(OperatorPtr clone, Build(inner));
        jb->build_clones.push_back(std::move(clone));
      }
    }
    if (!agg_mode) {
      std::vector<OperatorPtr> pipelines;
      for (size_t w = 0; w < workers; ++w) {
        STARBURST_ASSIGN_OR_RETURN(OperatorPtr clone, Build(plan));
        pipelines.push_back(std::move(clone));
      }
      return parallel::MakeGatherOp(std::move(pctx), std::move(pipelines));
    }
    // Aggregating gather: clone the input pipeline, compile per-clone
    // partition keys, and build one aggregation clone per partition. A
    // global aggregate gets a single partition (its one result row must
    // not be split across clones).
    const Plan& input_plan = *plan.inputs[0];
    std::vector<OperatorPtr> input_clones;
    std::vector<std::vector<CompiledExprPtr>> partition_keys;
    for (size_t w = 0; w < workers; ++w) {
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr clone, Build(input_plan));
      input_clones.push_back(std::move(clone));
      std::vector<CompiledExprPtr> keys;
      for (const auto& k : plan.box->group_keys) {
        STARBURST_ASSIGN_OR_RETURN(
            CompiledExprPtr c, Compile(*k, input_plan.output, nullptr));
        keys.push_back(std::move(c));
      }
      partition_keys.push_back(std::move(keys));
    }
    const size_t nparts = plan.box->group_keys.empty() ? 1 : workers;
    parallel::AggExchange* exchange = &pctx->exchange;
    obs::PlanStatsTree::Node* agg_node = nullptr;
    if (options_.stats != nullptr) {
      agg_node = options_.stats->AddNode(gather_node, plan.HeadLine(),
                                         plan.props.cardinality,
                                         plan.props.cost);
    }
    std::vector<OperatorPtr> agg_clones;
    for (size_t p = 0; p < nparts; ++p) {
      OperatorPtr source = parallel::MakeExchangeSourceOp(exchange, p);
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr agg,
                                 BuildGroupAggOver(plan, std::move(source)));
      if (agg_node != nullptr) agg->set_stats(&agg_node->actual);
      agg_clones.push_back(std::move(agg));
    }
    return parallel::MakeGatherAggOp(std::move(pctx), std::move(input_clones),
                                     std::move(partition_keys),
                                     std::move(agg_clones));
  };

  Result<OperatorPtr> out = build_all();
  parallel_ctx_ = nullptr;
  parallel_stats_ = nullptr;
  if (gather_node != nullptr) {
    stats_stack_.pop_back();
    if (out.ok()) (*out)->set_stats(&gather_node->actual);
  }
  return out;
}

Result<OperatorPtr> PlanRefiner::BuildOp(const Plan& plan) {
  switch (plan.op) {
    case Lolepop::kScan: {
      std::vector<CompiledExprPtr> preds;
      for (const Expr* p : plan.predicates) {
        STARBURST_ASSIGN_OR_RETURN(CompiledExprPtr c,
                                   Compile(*p, plan.output, nullptr));
        preds.push_back(std::move(c));
      }
      if (parallel_ctx_ != nullptr) {
        auto it = parallel_ctx_->scans.find(&plan);
        if (it == parallel_ctx_->scans.end()) {
          return Status::Internal("scan missing from parallel context");
        }
        return MakeMorselScanOp(plan.table, plan.scan_columns,
                                std::move(preds), &it->second->morsels,
                                Kernels());
      }
      return MakeScanOp(plan.table, plan.scan_columns, std::move(preds),
                        Kernels());
    }

    case Lolepop::kIndexScan: {
      const Expr* bound_pred = plan.index_predicate;
      if (bound_pred == nullptr) {
        // Unbounded ordered index scan.
        std::vector<CompiledExprPtr> preds;
        for (const Expr* p : plan.predicates) {
          STARBURST_ASSIGN_OR_RETURN(CompiledExprPtr c,
                                     Compile(*p, plan.output, nullptr));
          preds.push_back(std::move(c));
        }
        return MakeIndexScanOp(plan.table, plan.index, ast::BinaryOp::kEq,
                               nullptr, plan.scan_columns, std::move(preds));
      }
      const Expr* col_side = bound_pred->children[0].get();
      const Expr* other = bound_pred->children[1].get();
      ast::BinaryOp op = bound_pred->bop;
      bool col_is_left = col_side->kind == Expr::Kind::kColumnRef &&
                         col_side->quantifier == plan.quantifier;
      if (!col_is_left) {
        std::swap(col_side, other);
        switch (op) {  // mirror the comparison
          case ast::BinaryOp::kLt: op = ast::BinaryOp::kGt; break;
          case ast::BinaryOp::kLe: op = ast::BinaryOp::kGe; break;
          case ast::BinaryOp::kGt: op = ast::BinaryOp::kLt; break;
          case ast::BinaryOp::kGe: op = ast::BinaryOp::kLe; break;
          default: break;
        }
      }
      // The bound references no slot of this scan: empty layout, params
      // resolve through the context (dependent index access).
      static const std::vector<ColumnBinding> kEmptyLayout;
      STARBURST_ASSIGN_OR_RETURN(CompiledExprPtr bound,
                                 Compile(*other, kEmptyLayout, nullptr));
      std::vector<CompiledExprPtr> preds;
      for (const Expr* p : plan.predicates) {
        STARBURST_ASSIGN_OR_RETURN(CompiledExprPtr c,
                                   Compile(*p, plan.output, nullptr));
        preds.push_back(std::move(c));
      }
      return MakeIndexScanOp(plan.table, plan.index, op, std::move(bound),
                             plan.scan_columns, std::move(preds));
    }

    case Lolepop::kValues: {
      if (plan.box == nullptr || plan.box->kind != qgm::BoxKind::kValues) {
        return MakeValuesOp({Row()});  // SELECT with no FROM: one empty tuple
      }
      // Literal cells are copied out once; the rest compile over no input.
      static const std::vector<ColumnBinding> kNoInput;
      std::vector<Row> rows;
      std::vector<ValuesCell> cells;
      for (const std::vector<qgm::ExprPtr>& exprs : plan.box->rows) {
        std::vector<Value> values(exprs.size());
        for (size_t c = 0; c < exprs.size(); ++c) {
          if (exprs[c]->kind == Expr::Kind::kLiteral) {
            values[c] = exprs[c]->literal;
            continue;
          }
          STARBURST_ASSIGN_OR_RETURN(CompiledExprPtr e,
                                     Compile(*exprs[c], kNoInput, nullptr));
          cells.push_back(ValuesCell{rows.size(), c, std::move(e)});
        }
        rows.push_back(Row(std::move(values)));
      }
      return MakeValuesOp(std::move(rows), std::move(cells));
    }

    case Lolepop::kFilter: {
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr input, Build(*plan.inputs[0]));
      std::vector<CompiledExprPtr> preds;
      for (const Expr* p : plan.predicates) {
        STARBURST_ASSIGN_OR_RETURN(CompiledExprPtr c,
                                   Compile(*p, plan.inputs[0]->output, nullptr));
        preds.push_back(std::move(c));
      }
      return MakeFilterOp(std::move(input), std::move(preds), Kernels());
    }

    case Lolepop::kOrRoute: {
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr input, Build(*plan.inputs[0]));
      OperatorPtr op = std::move(input);
      for (const Expr* p : plan.predicates) {
        std::vector<const Expr*> disjuncts;
        SplitDisjuncts(p, &disjuncts);
        std::vector<std::vector<CompiledExprPtr>> branches;
        for (const Expr* d : disjuncts) {
          std::vector<CompiledExprPtr> branch;
          STARBURST_ASSIGN_OR_RETURN(CompiledExprPtr c,
                                     Compile(*d, plan.inputs[0]->output, nullptr));
          branch.push_back(std::move(c));
          branches.push_back(std::move(branch));
        }
        op = MakeOrRouteOp(std::move(op), std::move(branches));
      }
      return op;
    }

    case Lolepop::kProject: {
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr input, Build(*plan.inputs[0]));
      // Relabel nodes (quantifier set, or positional box aliases) pass
      // tuples through untouched.
      if (plan.quantifier != nullptr || plan.box == nullptr ||
          plan.box->head.empty() || plan.box->head[0].expr == nullptr) {
        return MakeProjectOp(std::move(input), {});
      }
      std::vector<CompiledExprPtr> exprs;
      for (const qgm::HeadColumn& h : plan.box->head) {
        STARBURST_ASSIGN_OR_RETURN(
            CompiledExprPtr c,
            Compile(*h.expr, plan.inputs[0]->output, nullptr));
        exprs.push_back(std::move(c));
      }
      // An identity head (slot i at position i, full width) is a relabel:
      // emit the pass-through form instead of re-staging every column.
      bool identity = exprs.size() == plan.inputs[0]->output.size();
      for (size_t i = 0; identity && i < exprs.size(); ++i) {
        identity = exprs[i]->kind == CompiledExpr::Kind::kColumnRef &&
                   exprs[i]->subquery == nullptr &&
                   exprs[i]->slot == static_cast<int>(i);
      }
      if (identity) return MakeProjectOp(std::move(input), {});
      return MakeProjectOp(std::move(input), std::move(exprs), Kernels());
    }

    case Lolepop::kSort: {
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr input, Build(*plan.inputs[0]));
      return MakeSortOp(std::move(input), plan.sort_keys,
                        options_.sort_memory_bytes);
    }

    case Lolepop::kDistinct: {
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr input, Build(*plan.inputs[0]));
      return MakeDistinctOp(std::move(input), options_.agg_memory_bytes);
    }

    case Lolepop::kTemp: {
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr input, Build(*plan.inputs[0]));
      if (plan.shared) {
        return MakeSharedTempOp(std::move(input), &plan);
      }
      return MakeTempOp(std::move(input));
    }

    case Lolepop::kShip: {
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr input, Build(*plan.inputs[0]));
      return MakeShipOp(std::move(input), options_.ship_delay_us);
    }

    case Lolepop::kNlJoin:
    case Lolepop::kHashJoin:
    case Lolepop::kMergeJoin:
      return BuildJoin(plan);

    case Lolepop::kGroupAgg:
      return BuildGroupAgg(plan);

    case Lolepop::kSetOp: {
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr left, Build(*plan.inputs[0]));
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr right, Build(*plan.inputs[1]));
      return MakeSetOpOp(std::move(left), std::move(right), plan.box->setop,
                         plan.box->setop_all);
    }

    case Lolepop::kTableFunc: {
      std::vector<OperatorPtr> inputs;
      for (const PlanPtr& in : plan.inputs) {
        STARBURST_ASSIGN_OR_RETURN(OperatorPtr op, Build(*in));
        inputs.push_back(std::move(op));
      }
      return MakeTableFuncOp(std::move(inputs), plan.box->table_function,
                             plan.box->function_args);
    }

    case Lolepop::kRecurse: {
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr base, Build(*plan.inputs[0]));
      STARBURST_ASSIGN_OR_RETURN(OperatorPtr step, Build(*plan.inputs[1]));
      size_t refs = CountIterRefs(*plan.inputs[1], plan.box);
      return MakeRecurseOp(std::move(base), std::move(step), plan.box, refs,
                           options_.semi_naive_recursion);
    }

    case Lolepop::kIterRef:
      return MakeIterRefOp(plan.box->recursion);

    case Lolepop::kExtension: {
      STARBURST_ASSIGN_OR_RETURN(
          const ExtOperatorRegistry::Builder* builder,
          ExtOperatorRegistry::Global().Lookup(plan.ext_name));
      return (*builder)(plan, *this);
    }
  }
  return Status::Internal("unknown LOLEPOP in plan refinement");
}

ExtOperatorRegistry& ExtOperatorRegistry::Global() {
  static ExtOperatorRegistry* registry = new ExtOperatorRegistry();
  return *registry;
}

Status ExtOperatorRegistry::Register(const std::string& name,
                                     Builder builder) {
  if (!builders_.emplace(IdentUpper(name), std::move(builder)).second) {
    return Status::AlreadyExists("extension operator '" + name + "' exists");
  }
  return Status::OK();
}

bool ExtOperatorRegistry::Contains(const std::string& name) const {
  return builders_.count(IdentUpper(name)) > 0;
}

Result<const ExtOperatorRegistry::Builder*> ExtOperatorRegistry::Lookup(
    const std::string& name) const {
  auto it = builders_.find(IdentUpper(name));
  if (it == builders_.end()) {
    return Status::NotFound("extension operator '" + name + "' not registered");
  }
  return &it->second;
}

Result<OperatorPtr> PlanRefiner::BuildJoin(const Plan& plan) {
  STARBURST_ASSIGN_OR_RETURN(OperatorPtr outer, Build(*plan.inputs[0]));

  // In a parallel clone a hash join probes the shared build table; its
  // inner subtree is built once by the gather's build phase, not per
  // clone (parallel-safe subtrees have no correlation parameters).
  const bool parallel_probe =
      parallel_ctx_ != nullptr && plan.op == Lolepop::kHashJoin;

  // Track correlation parameters compiled anywhere inside the inner
  // subtree; the join binds those it can supply from the outer row.
  OperatorPtr inner;
  std::set<ExecContext::ParamKey> inner_free;
  if (!parallel_probe) {
    param_scopes_.push_back(&inner_free);
    Result<OperatorPtr> inner_result = Build(*plan.inputs[1]);
    param_scopes_.pop_back();
    if (!inner_result.ok()) return inner_result.status();
    inner = inner_result.TakeValue();
  }

  JoinSpec spec;
  spec.kind = plan.join_kind;
  spec.inner_width = plan.inputs[1]->output.size();

  // Residual predicates see the concatenated row.
  std::vector<ColumnBinding> concat = plan.inputs[0]->output;
  concat.insert(concat.end(), plan.inputs[1]->output.begin(),
                plan.inputs[1]->output.end());
  for (const Expr* p : plan.predicates) {
    if (p == plan.quant_compare) continue;  // consumed as the join function
    STARBURST_ASSIGN_OR_RETURN(CompiledExprPtr c, Compile(*p, concat, nullptr));
    spec.predicates.push_back(std::move(c));
  }

  if (plan.quant_compare != nullptr) {
    spec.cmp_op = plan.quant_compare->bop;
    STARBURST_ASSIGN_OR_RETURN(
        spec.quant_operand,
        Compile(*plan.quant_compare->children[0], plan.inputs[0]->output,
                nullptr));
  }
  if (plan.join_kind == JoinKind::kSetPred) {
    spec.set_pred = catalog_->functions().FindSetPredicate(
        plan.join_set_function.empty() ? "ANY" : plan.join_set_function);
    if (spec.set_pred == nullptr) {
      return Status::Internal("set predicate '" + plan.join_set_function +
                              "' not registered");
    }
  }

  // Dependent-join parameter wiring: everything resolvable from the outer
  // row binds here; the rest bubbles up to an enclosing join or subquery.
  for (const ExecContext::ParamKey& key : inner_free) {
    SubqueryRuntime::ParamSource src;
    src.q = key.first;
    src.column = key.second;
    src.outer_slot = -1;
    size_t slot = plan.inputs[0]->FindSlot(key.first, key.second);
    if (slot != Plan::kNoSlot) {
      src.outer_slot = static_cast<int>(slot);
    } else if (!param_scopes_.empty()) {
      param_scopes_.back()->insert(key);
    }
    if (src.outer_slot >= 0) spec.inner_params.push_back(src);
  }

  switch (plan.op) {
    case Lolepop::kNlJoin:
      return MakeNlJoinOp(std::move(outer), std::move(inner), std::move(spec));
    case Lolepop::kHashJoin:
      if (parallel_probe) {
        auto it = parallel_ctx_->builds_by_node.find(&plan);
        if (it == parallel_ctx_->builds_by_node.end()) {
          return Status::Internal("hash join missing from parallel context");
        }
        return MakeHashProbeOp(std::move(outer), &it->second->table,
                               plan.equi_keys, std::move(spec));
      }
      return MakeHashJoinOp(std::move(outer), std::move(inner), plan.equi_keys,
                            std::move(spec));
    default:
      return MakeMergeJoinOp(std::move(outer), std::move(inner),
                             plan.equi_keys, std::move(spec));
  }
}

Result<OperatorPtr> PlanRefiner::BuildGroupAgg(const Plan& plan) {
  STARBURST_ASSIGN_OR_RETURN(OperatorPtr input, Build(*plan.inputs[0]));
  return BuildGroupAggOver(plan, std::move(input));
}

Result<OperatorPtr> PlanRefiner::BuildGroupAggOver(const Plan& plan,
                                                   OperatorPtr input) {
  const qgm::Box* box = plan.box;
  const std::vector<ColumnBinding>& layout = plan.inputs[0]->output;

  std::vector<CompiledExprPtr> keys;
  std::vector<std::string> key_texts;
  for (const auto& k : box->group_keys) {
    STARBURST_ASSIGN_OR_RETURN(CompiledExprPtr c, Compile(*k, layout, nullptr));
    keys.push_back(std::move(c));
    key_texts.push_back(k->ToString());
  }

  std::vector<AggSpec> aggs;
  for (const qgm::AggregateSpec& spec : box->aggregates) {
    AggSpec a;
    a.def = spec.def;
    a.distinct = spec.distinct;
    if (spec.arg != nullptr) {
      STARBURST_ASSIGN_OR_RETURN(a.arg, Compile(*spec.arg, layout, nullptr));
    }
    aggs.push_back(std::move(a));
  }

  std::vector<GroupHeadItem> head;
  for (const qgm::HeadColumn& h : box->head) {
    GroupHeadItem item;
    if (h.expr != nullptr && h.expr->kind == Expr::Kind::kAggRef) {
      item.source = GroupHeadItem::Source::kAgg;
      item.index = h.expr->agg_index;
    } else if (h.expr != nullptr) {
      std::string text = h.expr->ToString();
      bool found = false;
      for (size_t i = 0; i < key_texts.size(); ++i) {
        if (key_texts[i] == text) {
          item.source = GroupHeadItem::Source::kKey;
          item.index = i;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::Internal("GROUP BY head column '" + h.name +
                                "' matches no group key");
      }
    } else {
      return Status::Internal("GROUP BY head column without expression");
    }
    head.push_back(item);
  }
  return MakeGroupAggOp(std::move(input), std::move(keys), std::move(aggs),
                        std::move(head), options_.agg_memory_bytes, Kernels());
}

size_t ExecOptions::DefaultParallelism() {
  size_t n = std::thread::hardware_concurrency();
  return std::clamp<size_t>(n, 1, kMaxParallelism);
}

}  // namespace starburst::exec
