#ifndef STARBURST_OBS_OP_STATS_H_
#define STARBURST_OBS_OP_STATS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace starburst::obs {

/// Runtime counters one QES operator accumulates across its lifetime:
/// (re-)opens, NextBatch calls, rows produced, and inclusive wall time
/// spent inside Open/NextBatch/Close (children included — subtract child
/// time for self time).
///
/// Counters are atomic because parallel pipeline clones share one stats
/// node per plan node, so EXPLAIN ANALYZE aggregates across workers
/// (opens then counts clone opens — the "loops" column).
struct OperatorStats {
  std::atomic<uint64_t> opens{0};
  std::atomic<uint64_t> next_calls{0};
  std::atomic<uint64_t> rows_out{0};
  std::atomic<double> wall_us{0};
  /// Memory-governed blocking operators (sort, aggregation, distinct)
  /// additionally report their spill activity and high-water memory mark:
  /// runs/partitions written to temp storage, bytes written, and the peak
  /// tracked reservation. Zero spill_runs with nonzero peak_memory_bytes
  /// means the operator stayed within budget.
  std::atomic<uint64_t> spill_runs{0};
  std::atomic<uint64_t> spill_bytes{0};
  std::atomic<uint64_t> peak_memory_bytes{0};
  /// Expression-site kernel coverage: rows this operator evaluated through
  /// vectorized kernel programs vs. the row-at-a-time interpreter. Both
  /// zero for operators without expression sites.
  std::atomic<uint64_t> vectorized_rows{0};
  std::atomic<uint64_t> interpreted_rows{0};
};

/// The refined plan tree annotated with estimates (from the optimizer's
/// PlanProps) and actuals (filled in during execution through the
/// OperatorStats each operator writes into). Nodes have stable addresses
/// for the lifetime of the tree, so operators can hold raw pointers.
class PlanStatsTree {
 public:
  struct Node {
    std::string name;        // the plan node's EXPLAIN head line
    double est_rows = 0;
    double est_cost = 0;
    /// Grouping-only node (e.g. a subquery-runtime wrapper): no operator
    /// writes into `actual`, so rendering skips the actual column.
    bool synthetic = false;
    OperatorStats actual;
    Node* parent = nullptr;
    std::vector<Node*> children;
  };

  PlanStatsTree() = default;
  PlanStatsTree(const PlanStatsTree&) = delete;
  PlanStatsTree& operator=(const PlanStatsTree&) = delete;

  /// Appends a child under `parent` (null = a root). The returned pointer
  /// stays valid for the tree's lifetime.
  Node* AddNode(Node* parent, std::string name, double est_rows,
                double est_cost);

  /// Makes every current root a child of a fresh node (the query-level
  /// LIMIT wrapper), which becomes the sole root.
  Node* WrapRoot(std::string name, double est_rows, double est_cost);

  const std::vector<Node*>& roots() const { return roots_; }
  bool empty() const { return nodes_.empty(); }

  /// Wall time spent in the node itself, excluding its children.
  static double SelfUs(const Node& node);

  /// Annotated tree rendering; with_actuals adds rows/time/loops beside
  /// the estimates ("-" for operators that never opened).
  std::string Render(bool with_actuals) const;

  /// Zeroes every node's actual counters. A cached plan keeps its stats
  /// tree across executions; without a reset, actuals would accumulate
  /// and EXPLAIN-style output would mix runs.
  void ResetActuals();

  /// The k nodes with the largest self time, descending (opened ones only).
  std::vector<const Node*> TopBySelfTime(size_t k) const;

 private:
  std::deque<Node> nodes_;  // deque: stable addresses under growth
  std::vector<Node*> roots_;
};

}  // namespace starburst::obs

#endif  // STARBURST_OBS_OP_STATS_H_
