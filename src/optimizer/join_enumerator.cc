#include "optimizer/join_enumerator.h"

#include <algorithm>
#include <set>

namespace starburst::optimizer {

using qgm::Expr;
using qgm::Quantifier;

namespace {

/// Union of this-box iterators referenced anywhere inside the subtree an
/// iterator ranges over (correlation into siblings => dependent join).
uint64_t DependencyMask(const Quantifier* it,
                        const std::map<const Quantifier*, size_t>& index) {
  uint64_t deps = 0;
  std::set<const qgm::Box*> seen;
  std::vector<const qgm::Box*> stack = {it->input};
  while (!stack.empty()) {
    const qgm::Box* b = stack.back();
    stack.pop_back();
    if (b == nullptr || !seen.insert(b).second) continue;
    auto scan_expr = [&](const Expr* e) {
      if (e == nullptr) return;
      std::set<Quantifier*> used;
      e->CollectQuantifiers(&used);
      for (Quantifier* q : used) {
        auto pos = index.find(q);
        if (pos != index.end()) deps |= (1ull << pos->second);
      }
    };
    for (const auto& p : b->predicates) scan_expr(p.get());
    for (const auto& h : b->head) scan_expr(h.expr.get());
    for (const auto& g : b->group_keys) scan_expr(g.get());
    for (const auto& a : b->aggregates) scan_expr(a.arg.get());
    for (const auto& q : b->quantifiers) stack.push_back(q->input);
  }
  return deps;
}

int PopCount(uint64_t v) { return __builtin_popcountll(v); }

}  // namespace

void JoinEnumerator::AddPlan(std::vector<PlanPtr>* plans, PlanPtr plan) {
  // Drop the newcomer if a kept plan dominates it, else drop the kept
  // plans it dominates.
  if (AnyDominates(*plans, plan->props)) return;
  plans->erase(std::remove_if(plans->begin(), plans->end(),
                              [&](const PlanPtr& existing) {
                                return Dominates(plan->props, existing->props);
                              }),
               plans->end());
  plans->push_back(std::move(plan));
  ++stats_.plans_kept;
  if (plans->size() > options_.max_plans_per_set) {
    // Evict the most expensive.
    auto worst = std::max_element(plans->begin(), plans->end(),
                                  [](const PlanPtr& a, const PlanPtr& b) {
                                    return a->props.cost < b->props.cost;
                                  });
    plans->erase(worst);
  }
}

Result<std::vector<PlanPtr>> JoinEnumerator::Enumerate(
    const qgm::Box* box, const std::vector<const Quantifier*>& iterators,
    const std::vector<const Expr*>& predicates, const AccessFn& access) {
  size_t n = iterators.size();
  if (n == 0) return std::vector<PlanPtr>{};
  if (n > 63) {
    return Status::InvalidArgument("join enumerator: too many iterators");
  }

  std::map<const Quantifier*, size_t> index;
  for (size_t i = 0; i < n; ++i) index[iterators[i]] = i;

  // Predicate support masks.
  std::vector<uint64_t> supp(predicates.size(), 0);
  for (size_t p = 0; p < predicates.size(); ++p) {
    std::set<Quantifier*> used;
    predicates[p]->CollectQuantifiers(&used);
    for (Quantifier* q : used) {
      auto it = index.find(q);
      if (it != index.end()) supp[p] |= (1ull << it->second);
    }
  }

  // Dependency masks (lateral/correlated iterators).
  std::vector<uint64_t> deps(n, 0);
  for (size_t i = 0; i < n; ++i) {
    deps[i] = DependencyMask(iterators[i], index) & ~(1ull << i);
  }

  std::map<Mask, std::vector<PlanPtr>> table;

  // Singletons.
  for (size_t i = 0; i < n; ++i) {
    Mask m = 1ull << i;
    std::vector<const Expr*> local;
    for (size_t p = 0; p < predicates.size(); ++p) {
      if (supp[p] != 0 && (supp[p] & ~m) == 0) local.push_back(predicates[p]);
    }
    STARBURST_ASSIGN_OR_RETURN(std::vector<PlanPtr> plans,
                               access(iterators[i], local));
    std::vector<PlanPtr>& kept = table[m];
    for (PlanPtr& plan : plans) AddPlan(&kept, std::move(plan));
    if (kept.empty()) {
      return Status::Internal("no access plan for iterator " +
                              iterators[i]->DisplayName());
    }
    ++stats_.sets_built;
  }

  auto deps_of_mask = [&](Mask m) {
    uint64_t d = 0;
    for (size_t i = 0; i < n; ++i) {
      if (m & (1ull << i)) d |= deps[i];
    }
    return d & ~m;
  };

  Mask full = n == 63 ? ~0ull >> 1 : (1ull << n) - 1;
  bool cartesian = options_.allow_cartesian;

  // One context for every split; each split refills its join fields.
  StarContext ctx;
  ctx.catalog = generator_->catalog();
  ctx.box = box;
  ctx.kind = JoinKind::kRegular;
  // The set being built; the JoinMethod STARs' plans enter it.
  std::vector<PlanPtr>* building = nullptr;
  const std::function<void(PlanPtr)> keep = [&](PlanPtr plan) {
    AddPlan(building, std::move(plan));
  };

  for (int attempt = 0; attempt < 2; ++attempt) {
    for (int size = 2; size <= static_cast<int>(n); ++size) {
      for (Mask mask = 1; mask <= full; ++mask) {
        if (PopCount(mask) != size) continue;
        std::vector<PlanPtr>& kept = table[mask];
        // Enumerate splits: outer = sub, inner = mask \ sub.
        for (Mask sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
          Mask inner = mask & ~sub;
          if (!options_.allow_composite_inner && PopCount(inner) != 1) {
            continue;
          }
          auto outer_it = table.find(sub);
          auto inner_it = table.find(inner);
          if (outer_it == table.end() || outer_it->second.empty()) continue;
          if (inner_it == table.end() || inner_it->second.empty()) continue;
          // The outer stream must be self-contained; a dependent inner
          // needs all its parameters from the outer.
          if (deps_of_mask(sub) != 0) continue;
          uint64_t inner_deps = deps_of_mask(inner);
          if ((inner_deps & ~sub) != 0) continue;
          bool dependent = inner_deps != 0;

          // Join predicates: available at `mask`, not within either side.
          std::vector<const Expr*>& join_preds = ctx.join_preds;
          join_preds.clear();
          bool connected = dependent;
          for (size_t p = 0; p < predicates.size(); ++p) {
            if (supp[p] == 0) continue;
            if ((supp[p] & ~mask) != 0) continue;
            bool in_outer = (supp[p] & ~sub) == 0;
            bool in_inner = (supp[p] & ~inner) == 0;
            if (in_outer || in_inner) continue;
            join_preds.push_back(predicates[p]);
            if ((supp[p] & sub) != 0 && (supp[p] & inner) != 0) {
              connected = true;
            }
          }
          if (!connected && !cartesian) continue;

          ++stats_.pairs_considered;
          ctx.inner_dependent = dependent;
          ctx.join_selectivity =
              generator_->cost().CombinedSelectivity(join_preds);
          // Each STAR prices its candidate against `kept` as the STARs
          // before it left it, and what it builds enters `kept` before the
          // next STAR runs: the sets are those of building every
          // candidate and adding them in STAR order.
          ctx.kept = building = &kept;
          for (const PlanPtr& outer_plan : outer_it->second) {
            for (const PlanPtr& inner_plan : inner_it->second) {
              ctx.outer = outer_plan;
              ctx.inner = inner_plan;
              STARBURST_RETURN_IF_ERROR(
                  generator_->ExpandEach("JoinMethod", ctx, keep));
            }
          }
        }
        if (!kept.empty()) ++stats_.sets_built;
      }
    }
    if (!table[full].empty()) break;
    // No connected plan for the full set: permit Cartesian products and
    // retry (guaranteeing a plan for e.g. cross joins).
    if (cartesian) break;
    cartesian = true;
    for (auto& [m, plans] : table) {
      if (PopCount(m) > 1) plans.clear();
    }
  }

  std::vector<PlanPtr> result = table[full];
  std::sort(result.begin(), result.end(),
            [](const PlanPtr& a, const PlanPtr& b) {
              return a->props.cost < b->props.cost;
            });
  if (result.empty()) {
    return Status::Internal("join enumeration produced no plan");
  }
  return result;
}

}  // namespace starburst::optimizer
