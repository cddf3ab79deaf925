#include <unordered_set>

#include "exec/operators.h"

namespace starburst::exec {

namespace {

/// Fixpoint driver for recursive table expressions (§2): working :=
/// dedup(base); repeat { delta := step(visible) \ working; working ∪=
/// delta } until delta = ∅. Linear recursion (one iteration reference)
/// runs semi-naive — the step sees only the previous delta; otherwise the
/// step sees the full working table (naive, but still terminating thanks
/// to set semantics).
class RecurseOp : public Operator {
 public:
  RecurseOp(OperatorPtr base, OperatorPtr step, const qgm::Box* recursion,
            size_t iterref_count, bool semi_naive)
      : base_(std::move(base)), step_(std::move(step)), recursion_(recursion),
        semi_naive_(semi_naive && iterref_count <= 1) {}

  Status OpenImpl(ExecContext* ctx) override {
    working_.clear();
    seen_.clear();
    pos_ = 0;

    // One staging batch and one produced-rows buffer serve every fixpoint
    // iteration — a deep recursion re-drains the step hundreds of times
    // and must not rebuild its batch (or regrow a vector) per round.
    RowBatch scratch(ctx->batch_size());
    std::vector<Row> produced;

    STARBURST_RETURN_IF_ERROR(base_->Open(ctx));
    Status drained = DrainOperatorInto(base_.get(), &scratch, &produced);
    base_->Close();
    STARBURST_RETURN_IF_ERROR(drained);
    std::vector<Row> delta;
    for (Row& r : produced) {
      if (seen_.insert(r).second) {
        working_.push_back(r);
        delta.push_back(std::move(r));
      }
    }

    constexpr int kMaxIterations = 1000000;
    int iterations = 0;
    while (!delta.empty()) {
      if (++iterations > kMaxIterations) {
        return Status::Aborted("recursive table expression did not converge");
      }
      ++ctx->stats().recursion_iterations;
      const std::vector<Row>& visible = semi_naive_ ? delta : working_;
      ctx->SetIterationTable(recursion_, &visible);
      STARBURST_RETURN_IF_ERROR(step_->Open(ctx));
      produced.clear();
      drained = DrainOperatorInto(step_.get(), &scratch, &produced);
      step_->Close();
      ctx->SetIterationTable(recursion_, nullptr);
      STARBURST_RETURN_IF_ERROR(drained);

      std::vector<Row> next_delta;
      for (Row& r : produced) {
        if (seen_.insert(r).second) {
          working_.push_back(r);
          next_delta.push_back(std::move(r));
        }
      }
      delta = std::move(next_delta);
    }
    return Status::OK();
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    return FillBatchFromRows(working_, &pos_, batch);
  }

  void CloseImpl() override {
    working_.clear();
    seen_.clear();
  }

 private:
  OperatorPtr base_, step_;
  const qgm::Box* recursion_;
  bool semi_naive_;
  std::vector<Row> working_;
  std::unordered_set<Row, RowHash> seen_;
  size_t pos_ = 0;
};

}  // namespace

OperatorPtr MakeRecurseOp(OperatorPtr base, OperatorPtr step,
                          const qgm::Box* recursion_box, size_t iterref_count,
                          bool semi_naive) {
  return std::make_unique<RecurseOp>(std::move(base), std::move(step),
                                     recursion_box, iterref_count, semi_naive);
}

}  // namespace starburst::exec
