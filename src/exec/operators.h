#ifndef STARBURST_EXEC_OPERATORS_H_
#define STARBURST_EXEC_OPERATORS_H_

#include <memory>
#include <vector>

#include "exec/expr_eval.h"
#include "exec/expr_kernels.h"
#include "exec/stream.h"
#include "optimizer/plan.h"

namespace starburst::exec {

namespace parallel {
class MorselSource;
class SharedHashTable;
}  // namespace parallel

// Factories for the QES's built-in operators. Each returns a re-openable
// lazy stream; §7's "details of obtaining a tuple from and handing a tuple
// to another operator" live behind the Operator interface.

/// Projects a stored row onto a TableAccess operator's `columns`. Column
/// `full.size()`, one past the schema, is the hidden rid column of a DML
/// target (qgm::Box::rid_column): it is filled from the row's `rid`.
inline void ProjectStoredRow(const Row& full, Rid rid,
                             const std::vector<size_t>& columns,
                             std::vector<Value>* out) {
  out->clear();
  out->reserve(columns.size());
  for (size_t c : columns) {
    if (c < full.size()) {
      out->push_back(full[c]);
    } else {
      out->push_back(Value::Int(rid.ToInt()));
    }
  }
}

OperatorPtr MakeScanOp(const TableDef* table, std::vector<size_t> columns,
                       std::vector<CompiledExprPtr> predicates,
                       const KernelOptions& kernels = {});

/// Morsel-driven scan clone: instead of walking the whole table, claims
/// page ranges from the shared `morsels` dispenser until it is drained.
/// All clones sharing one MorselSource together cover each row exactly
/// once. `morsels` must outlive the operator and be Reset() by the
/// owning Gather before the clones open.
OperatorPtr MakeMorselScanOp(const TableDef* table,
                             std::vector<size_t> columns,
                             std::vector<CompiledExprPtr> predicates,
                             parallel::MorselSource* morsels,
                             const KernelOptions& kernels = {});

/// `bound_op` relates the index key column to `bound` (already normalized
/// so the key column is on the left).
OperatorPtr MakeIndexScanOp(const TableDef* table, const IndexDef* index,
                            ast::BinaryOp bound_op, CompiledExprPtr bound,
                            std::vector<size_t> columns,
                            std::vector<CompiledExprPtr> predicates);

/// A VALUES cell that is not a literal: evaluated (over no input) each
/// time its row is emitted, into `rows[row][column]`.
struct ValuesCell {
  size_t row = 0;
  size_t column = 0;
  CompiledExprPtr expr;
};
/// Emits `rows` in order; `cells`, sorted by row, fill their non-literal
/// positions.
OperatorPtr MakeValuesOp(std::vector<Row> rows,
                         std::vector<ValuesCell> cells = {});

OperatorPtr MakeFilterOp(OperatorPtr input,
                         std::vector<CompiledExprPtr> predicates,
                         const KernelOptions& kernels = {});

/// §7's OR operator: a tuple that fails one disjunct "must be handed over
/// ... for further consideration" — branches evaluate lazily in order, so
/// subquery branches only run for tuples the cheap branches rejected.
OperatorPtr MakeOrRouteOp(OperatorPtr input,
                          std::vector<std::vector<CompiledExprPtr>> branches);

/// Computing projection (box heads). Pass empty exprs for pure relabeling.
OperatorPtr MakeProjectOp(OperatorPtr input,
                          std::vector<CompiledExprPtr> exprs,
                          const KernelOptions& kernels = {});

/// `memory_budget_bytes` caps the in-memory build (0 = unlimited): past
/// it, the sort writes stable-sorted runs to spill files and streams a
/// k-way merge back; the merge tie-breaks equal keys by run order, so
/// spilled output is byte-identical to the in-memory stable sort.
OperatorPtr MakeSortOp(OperatorPtr input,
                       std::vector<std::pair<size_t, bool>> keys,
                       uint64_t memory_budget_bytes = 0);

/// Past the budget the seen-set freezes and unseen rows grace-partition
/// to spill files, deduplicated per partition after the input drains.
OperatorPtr MakeDistinctOp(OperatorPtr input,
                           uint64_t memory_budget_bytes = 0);

OperatorPtr MakeTempOp(OperatorPtr input);
/// Shared materialization: all operators created with the same key read
/// one ExecContext-resident copy, built by whichever opens first.
OperatorPtr MakeSharedTempOp(OperatorPtr input, const void* shared_key);

OperatorPtr MakeShipOp(OperatorPtr input, double per_row_delay_us);

OperatorPtr MakeLimitOp(OperatorPtr input, int64_t limit);

struct JoinSpec {
  optimizer::JoinKind kind = optimizer::JoinKind::kRegular;
  /// Residual predicates over the concatenated (outer ++ inner) row.
  std::vector<CompiledExprPtr> predicates;
  /// Quantified compare: operand (over the outer row) `cmp_op` inner col 0.
  CompiledExprPtr quant_operand;  // null when not a quantified join
  ast::BinaryOp cmp_op = ast::BinaryOp::kEq;
  const SetPredicateFunctionDef* set_pred = nullptr;
  size_t inner_width = 0;  // for null padding (left outer, scalar)
  /// Dependent (correlated) inner: parameters drawn from the outer row.
  std::vector<SubqueryRuntime::ParamSource> inner_params;
};

OperatorPtr MakeNlJoinOp(OperatorPtr outer, OperatorPtr inner, JoinSpec spec);

OperatorPtr MakeHashJoinOp(OperatorPtr outer, OperatorPtr inner,
                           std::vector<std::pair<size_t, size_t>> keys,
                           JoinSpec spec);

OperatorPtr MakeMergeJoinOp(OperatorPtr outer, OperatorPtr inner,
                            std::vector<std::pair<size_t, size_t>> keys,
                            JoinSpec spec);

/// Probe-only hash join for parallel clones: `table` was built once by
/// the owning Gather (partitioned build) and is probed concurrently.
/// Same kind/NULL semantics as MakeHashJoinOp.
OperatorPtr MakeHashProbeOp(OperatorPtr outer,
                            const parallel::SharedHashTable* table,
                            std::vector<std::pair<size_t, size_t>> keys,
                            JoinSpec spec);

struct AggSpec {
  const AggregateFunctionDef* def = nullptr;
  CompiledExprPtr arg;  // null = COUNT(*)
  bool distinct = false;
};

/// `head` maps each output column to a group key (kKey) or aggregate
/// (kAgg) by index.
struct GroupHeadItem {
  enum class Source { kKey, kAgg };
  Source source = Source::kKey;
  size_t index = 0;
};

/// Past the budget the group table freezes: resident groups keep
/// absorbing rows, new keys grace-partition to spill files and are
/// aggregated partition-at-a-time after the input drains (partition key
/// sets are disjoint from the resident set, so no partial-state merge).
OperatorPtr MakeGroupAggOp(OperatorPtr input,
                           std::vector<CompiledExprPtr> group_keys,
                           std::vector<AggSpec> aggregates,
                           std::vector<GroupHeadItem> head,
                           uint64_t memory_budget_bytes = 0,
                           const KernelOptions& kernels = {});

OperatorPtr MakeSetOpOp(OperatorPtr left, OperatorPtr right,
                        ast::SetOpKind op, bool all);

OperatorPtr MakeTableFuncOp(std::vector<OperatorPtr> inputs,
                            const TableFunctionDef* def,
                            std::vector<Value> scalar_args);

/// Recursive-union fixpoint. `iterref_count` > 1 forces naive iteration
/// (the step sees the full working table); 1 enables semi-naive deltas.
OperatorPtr MakeRecurseOp(OperatorPtr base, OperatorPtr step,
                          const qgm::Box* recursion_box, size_t iterref_count,
                          bool semi_naive = true);

OperatorPtr MakeIterRefOp(const qgm::Box* recursion_box);

}  // namespace starburst::exec

#endif  // STARBURST_EXEC_OPERATORS_H_
