#ifndef STARBURST_ENGINE_PLAN_CACHE_H_
#define STARBURST_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "exec/stream.h"
#include "obs/op_stats.h"
#include "optimizer/optimizer.h"
#include "qgm/box.h"
#include "rewrite/rule_engine.h"

namespace starburst {

/// One compiled SELECT: the whole Figure-1 compile-time artifact (QGM,
/// chosen plan, refined operator tree) kept re-executable, the way
/// Starburst stored refined plans and re-ran them without re-compiling.
/// Owned via shared_ptr so a handle returned by Database::Prepare stays
/// valid even after the LRU evicts (or an invalidation drops) the cache
/// entry.
///
/// Member order is destruction order in reverse: the operator tree holds
/// pointers into the optimizer's per-box plans, which point into the
/// graph — so `root` must die before `optimizer`, which must die before
/// `graph` (members are destroyed bottom-up).
struct CompiledSelect {
  size_t num_params = 0;

  // -- compile artifacts (see ordering note above) --
  std::unique_ptr<qgm::Graph> graph;
  std::unique_ptr<optimizer::Optimizer> optimizer;
  optimizer::PlanPtr plan;
  std::shared_ptr<obs::PlanStatsTree> stats_tree;  // null unless collecting
  exec::OperatorPtr root;

  // -- result shape --
  std::vector<std::string> column_names;  // visible columns only
  size_t visible_columns = 0;
  size_t hidden_order_columns = 0;
  size_t batch_size = 1;
  size_t reserve_hint = 0;
  /// Worker parallelism this plan was refined with — what an execution of
  /// this tree actually runs at, regardless of the session knob's current
  /// value (prepared handles survive knob changes uncompiled).
  int parallelism = 1;

  // -- optimizer annotations (metrics on cached executions) --
  double plan_cost = 0;
  double plan_cardinality = 0;

  // -- workload classification (stamped at compile time; the session's
  // STATEMENT_PRIORITY and the classification thresholds are part of the
  // cache key, so an entry's class never goes stale) --
  /// Crossed SLOW_PLAN_COST / SLOW_PLAN_ROWS — the statement is expected
  /// to run long ("slow" class; serves at low priority by default).
  bool slow_class = false;
  /// Scheduling class index (StatementPriority): 0 high, 1 normal, 2 low.
  int priority = 1;

  // -- kernel-compile census (stamped at refine time, reported by
  // EXPLAIN ANALYZE on every execution of this plan) --
  uint64_t kernel_programs = 0;
  uint64_t kernel_programs_full = 0;

  // -- invalidation --
  /// Global catalog version at compile time: while the catalog still
  /// reports this version, the plan is trivially fresh.
  uint64_t catalog_version = 0;
  /// Per-object stamps for every table/view the binder resolved
  /// (transitively, through views). When the global version has moved,
  /// the plan is fresh iff every stamp still matches — so unrelated DDL
  /// does not invalidate.
  std::vector<std::pair<std::string, uint64_t>> dependencies;

  /// True while no referenced object changed since compilation.
  bool FreshAgainst(const Catalog& catalog) const;
};

/// A CompiledSelect, its text and its checkout. An operator tree keeps
/// per-run state, so one statement at a time holds the checkout: it
/// alone runs, recompiles or re-stamps the statement. A caller that finds
/// it taken runs a private copy, compiled from `sql`, which never changes
/// once the statement is shared.
struct PreparedStatement : CompiledSelect {
  std::string sql;  // original statement text (for recompiles)
  bool TryCheckout() { return !checked_out.exchange(true); }
  void Release() { checked_out.store(false); }
  std::atomic<bool> checked_out{false};
};

using PreparedStatementPtr = std::shared_ptr<PreparedStatement>;

/// LRU cache of compiled SELECT statements, keyed on (normalized SQL,
/// plan fingerprint). Setting changes key-miss rather than invalidate:
/// two parallelism settings hold two entries side by side.
/// DDL and ANALYZE invalidate through the catalog version check at
/// lookup time — stale entries are dropped, never served.
///
/// All operations are internally serialized: concurrent sessions share
/// one cache, and lookups mutate LRU order. A hit hands the entry out
/// checked out (PreparedStatement::TryCheckout), so two statements never
/// run one compiled tree at once.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    uint64_t evictions = 0;
  };

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }
  /// 0 disables caching and clears existing entries.
  void set_capacity(size_t n);
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  /// The fresh entry under `key`, moved to the front of the LRU and
  /// checked out to the caller (who must Release it), or null.
  /// A stale entry (a dependency's catalog stamp moved) is dropped and
  /// counted as an invalidation; a fresh hit whose global version merely
  /// drifted (unrelated DDL) is re-stamped so later lookups take the
  /// cheap path. An entry another statement has checked out counts as a
  /// miss and sets `*busy`: the caller compiles a private copy and must
  /// not insert it. Absence is NOT counted here — the caller records a
  /// miss only when the statement turns out to be cacheable (CountMiss).
  PreparedStatementPtr Lookup(const std::string& key, const Catalog& catalog,
                              bool* busy);

  /// Inserts (or replaces) the entry under `key`, evicting the least
  /// recently used entry past capacity. No-op when disabled.
  void Insert(const std::string& key, PreparedStatementPtr stmt);

  /// LRU-ordered view (most recently used first) of the cached entries:
  /// (cache key, statement) pairs. Powers `sys.plan_cache`.
  std::vector<std::pair<std::string, PreparedStatementPtr>> Entries() const;

  void CountMiss() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
  }
  /// A plan reuse that bypassed Lookup (ExecutePrepared on a live
  /// handle); Lookup counts its own hits.
  void CountHit() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
  }
  void CountInvalidation() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.invalidations;
  }
  /// Snapshot by value: counters move concurrently.
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Entry {
    std::string key;
    PreparedStatementPtr stmt;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;
  Stats stats_;
};

/// Cache-key SQL normalization: collapses whitespace runs to one space,
/// uppercases outside single-quoted strings, trims, and drops a trailing
/// ';' — so `select * from t;` and `SELECT  *  FROM  t` share one plan.
std::string NormalizeSql(const std::string& sql);

}  // namespace starburst

#endif  // STARBURST_ENGINE_PLAN_CACHE_H_
