#ifndef STARBURST_OPTIMIZER_PLAN_H_
#define STARBURST_OPTIMIZER_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "qgm/box.h"

namespace starburst::optimizer {

/// Low-LEvel Plan OPerators (§6): "a variation of the relational algebra
/// (e.g., JOIN, UNION, etc.), supplemented with physical operators such as
/// SCAN, SORT, SHIP". Each operates on streams of tuples and produces a
/// stream.
enum class Lolepop : uint8_t {
  kScan,        // sequential scan of a stored table (col subset + preds)
  kIndexScan,   // B-tree range/point access (+ rid fetch)
  kValues,      // literal rows
  kFilter,      // residual predicate application
  kProject,     // compute a box head from quantifier columns
  kSort,        // order change
  kNlJoin,      // nested-loop join (any predicate, any kind)
  kMergeJoin,   // sort-merge join (equality, sorted inputs)
  kHashJoin,    // hash join (equality)
  kTemp,        // materialize a stream for cheap rescans
  kShip,        // site change (simulated network)
  kGroupAgg,    // grouping + aggregate evaluation
  kSetOp,       // UNION / INTERSECT / EXCEPT (ALL or not)
  kDistinct,    // duplicate elimination
  kTableFunc,   // DBC table function invocation
  kRecurse,     // recursive-union fixpoint driver
  kIterRef,     // scan of the recursion's working/delta table
  kOrRoute,     // §7's OR operator for disjuncts with subqueries
  kExtension,   // DBC-defined operator, named by Plan::ext_name
};

const char* LolepopName(Lolepop op);

/// Join kinds (§7): "the join operators must be able to handle different
/// kinds of joins ... Each join operator takes as one of its parameters a
/// function name, representing the join kind" — so one method (NL, merge,
/// hash) serves every kind, and new kinds (left outer) reuse old methods.
enum class JoinKind : uint8_t {
  kRegular,    // inner
  kLeftOuter,  // the PF extension
  kExists,     // semi-join (E quantifier)
  kAnti,       // negated existential
  kScalar,     // scalar-subquery join (error on >1 inner match)
  kOpAll,      // universal (op ALL)
  kSetPred,    // DBC set predicate (join_set_function names it)
};

const char* JoinKindName(JoinKind k);

/// One output slot of a plan: a column of some quantifier's range table,
/// or a head column of a box (for box-level plans).
struct ColumnBinding {
  const qgm::Quantifier* quantifier = nullptr;  // null => box output
  const qgm::Box* box = nullptr;                // set when quantifier null
  size_t column = 0;

  bool operator==(const ColumnBinding& o) const {
    return quantifier == o.quantifier && box == o.box && column == o.column;
  }
};

/// Table properties the optimizer tracks per plan (§6): relational
/// (quantifiers covered, predicates applied — kept in the enumerator),
/// operational (tuple order, site), and estimated (cost, cardinality).
struct PlanProps {
  /// Output order: (output slot, ascending) major-to-minor; empty = none.
  std::vector<std::pair<size_t, bool>> order;
  std::string site = "local";
  double cost = 0;         // total cost to produce the stream once
  double rescan_cost = 0;  // cost to produce it again (TEMP makes it cheap)
  double cardinality = 0;  // estimated output rows
};

struct Plan;
using PlanPtr = std::shared_ptr<const Plan>;

/// A query evaluation plan: "a nesting of invocations of LOLEPOPs".
/// Immutable; the enumerator shares subplans across alternatives.
struct Plan {
  Lolepop op = Lolepop::kScan;
  std::vector<PlanPtr> inputs;
  std::vector<ColumnBinding> output;  // slot layout of the emitted stream
  PlanProps props;

  // -- kScan / kIndexScan --
  const qgm::Quantifier* quantifier = nullptr;  // which iterator this feeds
  const TableDef* table = nullptr;
  const IndexDef* index = nullptr;
  std::vector<size_t> scan_columns;  // projected base columns (scan subset)

  // -- kScan / kIndexScan / kFilter / joins: predicates applied here --
  std::vector<const qgm::Expr*> predicates;

  // -- kIndexScan: the matched sargable predicate (col op literal/expr) --
  const qgm::Expr* index_predicate = nullptr;

  // -- joins --
  JoinKind join_kind = JoinKind::kRegular;
  std::string join_set_function;  // kSetPred
  /// Equality pairs (outer slot, inner slot) for hash/merge joins.
  std::vector<std::pair<size_t, size_t>> equi_keys;
  /// For quantified-compare joins: outer expr op inner col 0.
  const qgm::Expr* quant_compare = nullptr;

  // -- kProject / kGroupAgg / kSetOp / kTableFunc / kRecurse / kIterRef --
  const qgm::Box* box = nullptr;

  // -- kSort --
  std::vector<std::pair<size_t, bool>> sort_keys;

  // -- kShip --
  std::string from_site, to_site;

  // -- kExtension: which DBC operator, resolved by the QES's extension
  //    operator registry at plan refinement time --
  std::string ext_name;

  // -- kTemp: a multiply-referenced table expression "materialized once
  //    and used several times" (§5): all consumers share one runtime
  //    materialization, keyed by this plan node --
  bool shared = false;

  /// Index of `binding` in `output`, or npos.
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);
  size_t FindSlot(const qgm::Quantifier* q, size_t column) const;

  /// One-line label for this node alone: LOLEPOP name plus its operands
  /// and predicates, no properties and no inputs.
  std::string HeadLine() const;

  /// Multi-line indented rendering for EXPLAIN PLAN.
  std::string ToString(int indent = 0) const;
};

/// Mutable builder shorthand.
std::shared_ptr<Plan> NewPlan(Lolepop op);

/// True if an order `have` provides `need`: `need` is a prefix of it.
bool OrderSatisfies(const std::vector<std::pair<size_t, bool>>& have,
                    const std::vector<std::pair<size_t, bool>>& need);

/// Dominance, the join enumerator's pruning test: a plan with properties
/// `a` makes one with `b` redundant if it costs no more and provides b's
/// order.
bool Dominates(const PlanProps& a, const PlanProps& b);

/// True if some plan in `plans` dominates `props`.
bool AnyDominates(const std::vector<PlanPtr>& plans, const PlanProps& props);

/// True if the subtree rooted at `plan` can be cloned for morsel-driven
/// parallel execution (every clone runs the same operator tree; scans
/// claim disjoint page ranges, hash joins probe a shared build table):
///   - every leaf is a plain table scan (kScan) — morselizable;
///   - interior nodes are kFilter / kProject / kHashJoin with join kind
///     regular / left-outer / exists / anti and no quantified compare;
///   - every expression (predicates, computed heads) references only
///     quantifiers scanned inside the subtree — no correlation into an
///     enclosing scope — and contains no subquery construct (EXISTS,
///     quantified compare, set predicate), whose runtimes are stateful.
/// kGroupAgg is handled above this check by the plan refiner (partition
/// exchange), which calls ExprIsParallelSafeOver for its keys and args.
bool IsParallelSafe(const Plan& plan);

/// True if `expr` is safe to evaluate concurrently over rows of `input`:
/// subquery-free and referencing only quantifiers scanned in `input`.
bool ExprIsParallelSafeOver(const qgm::Expr& expr, const Plan& input);

/// Total estimated base-table rows scanned by the subtree's kScan leaves
/// (the refiner's worth-gate for going parallel).
double ParallelScanRows(const Plan& plan);

}  // namespace starburst::optimizer

#endif  // STARBURST_OPTIMIZER_PLAN_H_
