#ifndef STARBURST_OPTIMIZER_COST_MODEL_H_
#define STARBURST_OPTIMIZER_COST_MODEL_H_

#include "optimizer/plan.h"

namespace starburst::optimizer {

/// Per-LOLEPOP property functions (§6): "Each LOLEPOP changes selected
/// properties of its operands ... These changes, including the appropriate
/// cost and cardinality estimates, are defined by a C function for each
/// LOLEPOP". `Finish*` takes a plan whose inputs are fully costed and
/// fills in its estimated properties. The join methods and TEMP also have
/// props-only forms (`*Props`) that derive the same properties from the
/// inputs' properties alone, so a STAR can price a candidate before it
/// builds the plan; their `Finish*` functions apply them.
class CostModel {
 public:
  struct Params {
    double io_page = 1.0;          // one page read
    double cpu_tuple = 0.01;       // touch one tuple
    double cpu_pred = 0.002;       // evaluate one predicate conjunct
    double cpu_hash = 0.015;       // hash-table insert or probe
    double cpu_sort = 0.012;       // n·log2(n) multiplier
    double index_level = 0.3;      // descend one B-tree level
    double rid_fetch = 0.5;        // fetch a row by rid (often cached)
    double ship_per_row = 0.05;    // simulated network transfer
    double ship_latency = 50.0;    // simulated connection setup
    double subquery_pred_factor = 4.0;  // predicates with subqueries
    double default_table_rows = 1000.0;
    double default_eq_selectivity = 0.1;    // System R heritage
    double default_range_selectivity = 1.0 / 3.0;
  };

  CostModel() = default;
  explicit CostModel(Params params) : params_(params) {}

  const Params& params() const { return params_; }

  // -- statistics-driven estimates --
  double TableRows(const TableDef* table) const;
  double TablePages(const TableDef* table) const;
  /// Selectivity of one predicate conjunct, using column NDV / min / max
  /// statistics when they can be traced to a stored column.
  double Selectivity(const qgm::Expr& pred) const;
  double CombinedSelectivity(const std::vector<const qgm::Expr*>& preds) const;
  /// Estimated group count for GROUP BY with the given keys over
  /// `input_rows` input rows.
  double GroupCount(const std::vector<qgm::ExprPtr>& keys,
                    double input_rows) const;
  /// Distinct values of a column expression; 0 when unknown.
  double ColumnNdv(const qgm::Expr& e) const;
  /// Output rows of a `kind` join of `outer_rows` with `inner_rows` rows
  /// whose predicates keep `join_selectivity` of the pairs (their
  /// CombinedSelectivity).
  double JoinCardinality(JoinKind kind, double outer_rows, double inner_rows,
                         double join_selectivity) const;

  // -- property functions, one per LOLEPOP --
  void FinishScan(Plan* p) const;
  void FinishIndexScan(Plan* p) const;
  void FinishValues(Plan* p, size_t rows) const;
  void FinishFilter(Plan* p) const;
  void FinishProject(Plan* p) const;
  void FinishSort(Plan* p) const;
  /// The join Finish functions estimate output rows from p->predicates,
  /// which must then hold every join predicate, equi keys included.
  void FinishNlJoin(Plan* p) const;
  void FinishMergeJoin(Plan* p) const;
  void FinishHashJoin(Plan* p) const;
  void FinishTemp(Plan* p) const;
  void FinishShip(Plan* p) const;
  void FinishGroupAgg(Plan* p, double groups) const;
  void FinishSetOp(Plan* p) const;
  void FinishDistinct(Plan* p) const;
  void FinishTableFunc(Plan* p) const;
  void FinishRecurse(Plan* p) const;
  void FinishIterRef(Plan* p, double working_rows) const;
  void FinishOrRoute(Plan* p) const;

  // -- props-only property functions. `card` is the join's output
  //    cardinality (JoinCardinality); an NL join evaluates `num_preds`
  //    predicates per pair of rows. --
  PlanProps NlJoinProps(const PlanProps& outer, const PlanProps& inner,
                        double card, size_t num_preds) const;
  PlanProps MergeJoinProps(const PlanProps& outer, const PlanProps& inner,
                           double card) const;
  PlanProps HashJoinProps(const PlanProps& outer, const PlanProps& inner,
                          double card) const;
  PlanProps TempProps(const PlanProps& in) const;

 private:
  double JoinOutputCard(const Plan& p) const;

  Params params_;
};

}  // namespace starburst::optimizer

#endif  // STARBURST_OPTIMIZER_COST_MODEL_H_
