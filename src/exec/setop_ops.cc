#include <unordered_map>

#include "exec/operators.h"

namespace starburst::exec {

namespace {

/// UNION / INTERSECT / EXCEPT with and without ALL, via per-row counting.
class SetOpOp : public Operator {
 public:
  SetOpOp(OperatorPtr left, OperatorPtr right, ast::SetOpKind op, bool all)
      : left_(std::move(left)), right_(std::move(right)), op_(op), all_(all) {}

  Status OpenImpl(ExecContext* ctx) override {
    results_.clear();
    pos_ = 0;

    if (op_ == ast::SetOpKind::kUnion && all_) {
      // UNION ALL streams both sides without bookkeeping.
      STARBURST_RETURN_IF_ERROR(left_->Open(ctx));
      STARBURST_ASSIGN_OR_RETURN(results_,
                                 DrainOperator(left_.get(), ctx->batch_size(), 0, ctx));
      left_->Close();
      STARBURST_RETURN_IF_ERROR(right_->Open(ctx));
      STARBURST_ASSIGN_OR_RETURN(
          std::vector<Row> rest,
          DrainOperator(right_.get(), ctx->batch_size(), 0, ctx));
      right_->Close();
      for (Row& r : rest) results_.push_back(std::move(r));
      return Status::OK();
    }

    struct Counts {
      size_t left = 0, right = 0;
      size_t first_seen = 0;  // stable output order
    };
    std::unordered_map<Row, Counts, RowHash> counts;
    size_t order = 0;

    // Both sides drain through NextBatch so batch-native subtrees keep
    // their vectorized path; the count table absorbs rows by move.
    RowBatch batch(ctx->batch_size());
    auto drain_side = [&](Operator* side, bool is_left) -> Status {
      STARBURST_RETURN_IF_ERROR(side->Open(ctx));
      while (true) {
        Result<bool> more = side->NextBatch(&batch);
        if (!more.ok()) {
          side->Close();
          return more.status();
        }
        if (!*more) break;
        size_t n = batch.size();
        for (size_t i = 0; i < n; ++i) {
          auto [it, inserted] = counts.emplace(std::move(batch.row(i)),
                                               Counts{});
          if (inserted) it->second.first_seen = order++;
          ++(is_left ? it->second.left : it->second.right);
        }
      }
      side->Close();
      return Status::OK();
    };
    STARBURST_RETURN_IF_ERROR(drain_side(left_.get(), true));
    STARBURST_RETURN_IF_ERROR(drain_side(right_.get(), false));

    std::vector<std::pair<size_t, std::pair<Row, size_t>>> ordered;
    for (auto& [r, c] : counts) {
      size_t copies = 0;
      switch (op_) {
        case ast::SetOpKind::kUnion:
          copies = (c.left + c.right) > 0 ? 1 : 0;
          break;
        case ast::SetOpKind::kIntersect:
          copies = all_ ? std::min(c.left, c.right)
                        : (c.left > 0 && c.right > 0 ? 1 : 0);
          break;
        case ast::SetOpKind::kExcept:
          copies = all_ ? (c.left > c.right ? c.left - c.right : 0)
                        : (c.left > 0 && c.right == 0 ? 1 : 0);
          break;
      }
      if (copies > 0) ordered.push_back({c.first_seen, {r, copies}});
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [seen, rc] : ordered) {
      for (size_t i = 0; i < rc.second; ++i) results_.push_back(rc.first);
    }
    return Status::OK();
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    return FillBatchFromRows(results_, &pos_, batch);
  }

  void CloseImpl() override { results_.clear(); }

 private:
  OperatorPtr left_, right_;
  ast::SetOpKind op_;
  bool all_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// DBC table function invocation: inputs materialize, the function runs,
/// the result streams out (§2's SAMPLE(table, n) example and friends).
class TableFuncOp : public Operator {
 public:
  TableFuncOp(std::vector<OperatorPtr> inputs, const TableFunctionDef* def,
              std::vector<Value> scalar_args)
      : inputs_(std::move(inputs)), def_(def), args_(std::move(scalar_args)) {}

  Status OpenImpl(ExecContext* ctx) override {
    std::vector<std::vector<Row>> tables;
    for (OperatorPtr& input : inputs_) {
      STARBURST_RETURN_IF_ERROR(input->Open(ctx));
      STARBURST_ASSIGN_OR_RETURN(
          std::vector<Row> rows,
          DrainOperator(input.get(), ctx->batch_size(), 0, ctx));
      input->Close();
      tables.push_back(std::move(rows));
    }
    STARBURST_ASSIGN_OR_RETURN(results_, def_->eval(tables, args_));
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    return FillBatchFromRows(results_, &pos_, batch);
  }

  void CloseImpl() override { results_.clear(); }

 private:
  std::vector<OperatorPtr> inputs_;
  const TableFunctionDef* def_;
  std::vector<Value> args_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

}  // namespace

OperatorPtr MakeSetOpOp(OperatorPtr left, OperatorPtr right, ast::SetOpKind op,
                        bool all) {
  return std::make_unique<SetOpOp>(std::move(left), std::move(right), op, all);
}

OperatorPtr MakeTableFuncOp(std::vector<OperatorPtr> inputs,
                            const TableFunctionDef* def,
                            std::vector<Value> scalar_args) {
  return std::make_unique<TableFuncOp>(std::move(inputs), def,
                                       std::move(scalar_args));
}

}  // namespace starburst::exec
