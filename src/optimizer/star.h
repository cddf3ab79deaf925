#ifndef STARBURST_OPTIMIZER_STAR_H_
#define STARBURST_OPTIMIZER_STAR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "optimizer/cost_model.h"
#include "optimizer/plan.h"

namespace starburst::optimizer {

class PlanGenerator;

/// What a STAR sees when expanded. Which fields are meaningful depends on
/// the nonterminal being expanded (TableAccess / JoinMethod / Glue /
/// Distinct).
struct StarContext {
  const Catalog* catalog = nullptr;
  const qgm::Box* box = nullptr;

  // TableAccess: plan one iterator's access to its stored table.
  const qgm::Quantifier* quantifier = nullptr;
  std::vector<const qgm::Expr*> local_preds;
  std::vector<size_t> needed_columns;  // scan column subset (empty = all)

  // JoinMethod: join two planned streams.
  PlanPtr outer, inner;
  std::vector<const qgm::Expr*> join_preds;
  JoinKind kind = JoinKind::kRegular;
  std::string set_function;
  /// The inner stream re-evaluates per outer row (correlated): only
  /// dependent nested loops apply, and TEMP must not cache it.
  bool inner_dependent = false;
  /// For quantified-compare joins (§7 join kinds): outer-expr vs inner.
  const qgm::Expr* quant_compare = nullptr;
  /// CombinedSelectivity of join_preds if the caller computed it (the
  /// join enumerator does, once per split of an iterator set); negative
  /// if not.
  double join_selectivity = -1;
  /// Set by the join enumerator: the plans it keeps so far for the
  /// iterator set being built. A JoinMethod STAR prices its candidate from
  /// the inputs' properties first and builds it only if none of these
  /// dominates it, since the enumerator would discard it anyway.
  const std::vector<PlanPtr>* kept = nullptr;

  // Glue: achieve required properties on a planned stream.
  PlanPtr glue_input;
  std::vector<std::pair<size_t, bool>> required_order;
  std::string required_site = "local";
};

/// A STrategy Alternative Rule (§6, [LOHM88]): a grammar-like production
/// that defines a nonterminal in terms of LOLEPOPs and other nonterminals.
/// `generate` appends zero or more alternative plans; it may recursively
/// expand other nonterminals through the generator.
struct Star {
  std::string name;
  std::string expands;  // the nonterminal this rule defines
  /// Alternatives with rank above the generator's threshold are pruned
  /// ("alternatives exceeding a given rank can be pruned").
  int rank = 0;
  std::function<Status(PlanGenerator&, const StarContext&,
                       std::vector<PlanPtr>*)> generate;
};

/// The STAR array. The default registry expresses sequential and index
/// access, the three join methods with every join kind, TEMP
/// materialization, order/site glue, and duplicate elimination — the
/// R*-strategy repertoire the paper claims "in under 20 rules".
class StarRegistry {
 public:
  /// Empty registry; call RegisterDefaultStars or Add.
  StarRegistry() = default;

  Status Add(Star star);
  const std::vector<Star>* ForNonterminal(const std::string& nonterminal) const;
  size_t size() const { return count_; }
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::vector<Star>> by_nonterminal_;
  size_t count_ = 0;
};

/// Installs the base system's STARs.
void RegisterDefaultStars(StarRegistry* registry);

/// Evaluates STARs, expanding nonterminals "much as is done by a macro
/// processor, until all STARs are fully refined to LOLEPOPs", then costing
/// through the per-LOLEPOP property functions. Orthogonal to both the rule
/// array and the search strategy.
class PlanGenerator {
 public:
  struct Options {
    /// Prune STARs whose rank exceeds this.
    int max_rank = 1000;
  };

  struct Stats {
    uint64_t stars_evaluated = 0;
    /// Plans costed, whether built or not.
    uint64_t plans_generated = 0;
    /// Plans built.
    uint64_t plans_built = 0;
  };

  PlanGenerator(const StarRegistry* registry, const CostModel* cost,
                const Catalog* catalog, Options options = Options{1000})
      : registry_(registry), cost_(cost), catalog_(catalog), options_(options) {}

  /// All alternatives for a nonterminal in the given context, each fully
  /// refined and costed.
  Result<std::vector<PlanPtr>> Expand(const std::string& nonterminal,
                                      const StarContext& ctx);

  /// Expand, handing each STAR's alternatives to `keep` before the next
  /// STAR runs. The join enumerator keeps them in the set ctx.kept points
  /// to, so every STAR prices its candidate against all the plans the
  /// STARs before it kept, in STAR order.
  Status ExpandEach(const std::string& nonterminal, const StarContext& ctx,
                    const std::function<void(PlanPtr)>& keep);

  const CostModel& cost() const { return *cost_; }
  const Catalog* catalog() const { return catalog_; }
  Stats& stats() { return stats_; }
  const Options& options() const { return options_; }

  /// A plan was costed and built.
  void CountPlan() {
    ++stats_.plans_generated;
    ++stats_.plans_built;
  }
  /// A candidate was costed and not built: a kept plan dominates it.
  void CountUnbuilt() { ++stats_.plans_generated; }

 private:
  const StarRegistry* registry_;
  const CostModel* cost_;
  const Catalog* catalog_;
  Options options_;
  Stats stats_;
};

}  // namespace starburst::optimizer

#endif  // STARBURST_OPTIMIZER_STAR_H_
