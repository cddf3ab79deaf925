#include <algorithm>
#include <cstdint>

#include "exec/operators.h"

namespace starburst::exec {

namespace {

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr input, std::vector<CompiledExprPtr> predicates,
           const KernelOptions& kernels = {})
      : input_(std::move(input)), predicates_(std::move(predicates)) {
    // No declared slot types above a general input: kernels still lower,
    // but no infallibility proof, hence no conjunct reordering.
    program_ = PredicateProgram::Compile(predicates_, {}, kernels);
  }

  Status OpenImpl(ExecContext* ctx) override {
    ctx_ = ctx;
    return input_->Open(ctx);
  }

  /// Batch-native path: pulls input batches through the caller's batch and
  /// narrows the selection vector to the passing rows — no row is copied.
  /// Kernel program first; interpreter when it is absent or declines.
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    while (true) {
      STARBURST_ASSIGN_OR_RETURN(bool more, input_->NextBatch(batch));
      if (!more) return false;
      size_t n = batch->size();
      if (program_ != nullptr && program_->TryFilter(batch, ctx_)) {
        if (program_->fully_vectorized()) {
          StatKernelRows(n, 0);
        } else {
          StatKernelRows(0, n);
        }
      } else {
        StatKernelRows(0, n);
        STARBURST_RETURN_IF_ERROR(FilterBatch(predicates_, batch, ctx_));
      }
      if (!batch->empty()) return true;
      // Everything rejected; refill (NextBatch clears the batch).
    }
  }

  void CloseImpl() override { input_->Close(); }

 private:
  OperatorPtr input_;
  std::vector<CompiledExprPtr> predicates_;
  std::unique_ptr<PredicateProgram> program_;
  ExecContext* ctx_ = nullptr;
};

/// §7's OR operator: disjunct branches tried in order; the first branch
/// that accepts ends evaluation, so "expensive" branches (subqueries) only
/// run for tuples the earlier terms rejected — without any change to the
/// operators that evaluate the individual terms.
class OrRouteOp : public Operator {
 public:
  OrRouteOp(OperatorPtr input,
            std::vector<std::vector<CompiledExprPtr>> branches)
      : input_(std::move(input)), branches_(std::move(branches)) {}

  Status OpenImpl(ExecContext* ctx) override {
    ctx_ = ctx;
    return input_->Open(ctx);
  }

  /// Batched disjunction: per row, branches still run in order and stop at
  /// the first acceptance; survivors are marked in the selection vector.
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    while (true) {
      STARBURST_ASSIGN_OR_RETURN(bool more, input_->NextBatch(batch));
      if (!more) return false;
      ScopedParamFold fold;
      for (const auto& branch : branches_) {
        for (const CompiledExprPtr& p : branch) {
          if (!p->HasParamRefs()) continue;  // skip the fold walk entirely
          STARBURST_RETURN_IF_ERROR(fold.Add(p.get(), ctx_));
        }
      }
      std::vector<uint32_t> keep;
      size_t n = batch->size();
      keep.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const Row& r = batch->row(i);
        for (const auto& branch : branches_) {
          bool branch_pass = true;
          for (const CompiledExprPtr& p : branch) {
            STARBURST_ASSIGN_OR_RETURN(bool ok, p->EvalPredicate(r, ctx_));
            if (!ok) {
              branch_pass = false;
              break;
            }
          }
          if (branch_pass) {
            keep.push_back(static_cast<uint32_t>(batch->physical_index(i)));
            break;
          }
        }
      }
      batch->SetSelection(std::move(keep));
      if (!batch->empty()) return true;
    }
  }

  void CloseImpl() override { input_->Close(); }

 private:
  OperatorPtr input_;
  std::vector<std::vector<CompiledExprPtr>> branches_;
  ExecContext* ctx_ = nullptr;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr input, std::vector<CompiledExprPtr> exprs,
            const KernelOptions& kernels = {})
      : input_(std::move(input)), exprs_(std::move(exprs)) {
    if (!exprs_.empty()) {
      program_ = ProjectionProgram::Compile(exprs_, {}, kernels);
    }
  }

  Status OpenImpl(ExecContext* ctx) override {
    ctx_ = ctx;
    in_batch_.Reset(ctx->batch_size());
    return input_->Open(ctx);
  }

  /// Batch-native path: computes the output expressions for every active
  /// input row into the caller's batch slots — column-at-a-time through
  /// the kernel program, else row-major (param lookups folded once).
  Result<bool> NextBatchImpl(RowBatch* out) override {
    if (exprs_.empty()) return input_->NextBatch(out);  // pure relabeling
    // Stage no more input rows than the caller's batch will take.
    in_batch_.set_fill_limit(out->remaining());
    STARBURST_ASSIGN_OR_RETURN(bool more, input_->NextBatch(&in_batch_));
    if (!more) return false;
    size_t n = in_batch_.size();
    if (program_ != nullptr && program_->TryProject(in_batch_, out, ctx_)) {
      if (program_->fully_vectorized()) {
        StatKernelRows(n, 0);
      } else {
        StatKernelRows(0, n);
      }
      return !out->empty();
    }
    StatKernelRows(0, n);
    ScopedParamFold fold;
    for (const CompiledExprPtr& e : exprs_) {
      if (!e->HasParamRefs()) continue;  // skip the fold walk entirely
      STARBURST_RETURN_IF_ERROR(fold.Add(e.get(), ctx_));
    }
    for (size_t i = 0; i < n; ++i) {
      const Row& in = in_batch_.row(i);
      Row* slot = out->AppendSlot();
      std::vector<Value>& values = slot->values();
      values.clear();
      values.reserve(exprs_.size());
      for (const CompiledExprPtr& e : exprs_) {
        STARBURST_ASSIGN_OR_RETURN(Value v, e->Eval(in, ctx_));
        values.push_back(std::move(v));
      }
    }
    return !out->empty();
  }

  void CloseImpl() override { input_->Close(); }

 private:
  OperatorPtr input_;
  std::vector<CompiledExprPtr> exprs_;
  std::unique_ptr<ProjectionProgram> program_;
  RowBatch in_batch_;
  ExecContext* ctx_ = nullptr;
};

/// Materializes its input on first open; later opens replay the buffer.
/// The optimizer only TEMPs independent streams, so replaying is sound.
/// With a `shared_key`, the materialization lives in the ExecContext so
/// every consumer operator of the same shared table expression reads one
/// copy ("materialized once and used several times", §5).
class TempOp : public Operator {
 public:
  TempOp(OperatorPtr input, const void* shared_key)
      : input_(std::move(input)), shared_key_(shared_key) {}

  Status OpenImpl(ExecContext* ctx) override {
    pos_ = 0;
    if (shared_key_ != nullptr) {
      buffer_ = ctx->SharedTable(shared_key_);
      if (buffer_ != nullptr) return Status::OK();
    } else if (buffer_ != nullptr) {
      return Status::OK();
    }
    STARBURST_RETURN_IF_ERROR(input_->Open(ctx));
    Result<std::vector<Row>> rows =
        DrainOperator(input_.get(), ctx->batch_size(), 0, ctx);
    input_->Close();
    if (!rows.ok()) return rows.status();
    if (shared_key_ != nullptr) {
      buffer_ = ctx->StoreSharedTable(shared_key_, rows.TakeValue());
    } else {
      local_ = rows.TakeValue();
      buffer_ = &local_;
    }
    return Status::OK();
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    return FillBatchFromRows(*buffer_, &pos_, batch);
  }

  void CloseImpl() override {}

 private:
  OperatorPtr input_;
  const void* shared_key_;
  std::vector<Row> local_;
  const std::vector<Row>* buffer_ = nullptr;
  size_t pos_ = 0;
};

/// Simulated site change: counts shipped rows (the cost model charged for
/// them at plan time); data passes through unchanged.
class ShipOp : public Operator {
 public:
  ShipOp(OperatorPtr input, double per_row_delay_us)
      : input_(std::move(input)), per_row_delay_us_(per_row_delay_us) {}

  Status OpenImpl(ExecContext* ctx) override {
    ctx_ = ctx;
    return input_->Open(ctx);
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    STARBURST_ASSIGN_OR_RETURN(bool more, input_->NextBatch(batch));
    if (!more) return false;
    size_t n = batch->size();
    ctx_->stats().shipped_rows += n;
    if (per_row_delay_us_ > 0) {
      // The cost model charged per shipped row; keep the simulated wire
      // time proportional under batching.
      double sink = 0;
      for (size_t r = 0; r < n; ++r) {
        for (int i = 0; i < static_cast<int>(per_row_delay_us_ * 10); ++i) {
          sink += i;
        }
      }
      volatile double keep = sink;
      (void)keep;
    }
    return true;
  }

  void CloseImpl() override { input_->Close(); }

 private:
  OperatorPtr input_;
  double per_row_delay_us_;
  ExecContext* ctx_ = nullptr;
};

class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr input, int64_t limit)
      : input_(std::move(input)), limit_(limit) {}

  Status OpenImpl(ExecContext* ctx) override {
    produced_ = 0;
    return input_->Open(ctx);
  }

  /// Batched LIMIT clamps the producer's fill limit to the rows remaining,
  /// so upstream operators never stage rows past the limit.
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    if (limit_ >= 0 && produced_ >= limit_) return false;
    size_t saved = batch->fill_limit();
    if (limit_ >= 0) {
      size_t remaining = static_cast<size_t>(limit_ - produced_);
      batch->set_fill_limit(std::min(saved, remaining));
    }
    Result<bool> more = input_->NextBatch(batch);
    batch->set_fill_limit(saved);
    if (!more.ok() || !*more) return more;
    produced_ += static_cast<int64_t>(batch->size());
    return true;
  }

  void CloseImpl() override { input_->Close(); }

 private:
  OperatorPtr input_;
  int64_t limit_;
  int64_t produced_ = 0;
};

}  // namespace

OperatorPtr MakeFilterOp(OperatorPtr input,
                         std::vector<CompiledExprPtr> predicates,
                         const KernelOptions& kernels) {
  return std::make_unique<FilterOp>(std::move(input), std::move(predicates),
                                    kernels);
}

OperatorPtr MakeOrRouteOp(OperatorPtr input,
                          std::vector<std::vector<CompiledExprPtr>> branches) {
  return std::make_unique<OrRouteOp>(std::move(input), std::move(branches));
}

OperatorPtr MakeProjectOp(OperatorPtr input,
                          std::vector<CompiledExprPtr> exprs,
                          const KernelOptions& kernels) {
  return std::make_unique<ProjectOp>(std::move(input), std::move(exprs),
                                     kernels);
}

OperatorPtr MakeTempOp(OperatorPtr input) {
  return std::make_unique<TempOp>(std::move(input), nullptr);
}

OperatorPtr MakeSharedTempOp(OperatorPtr input, const void* shared_key) {
  return std::make_unique<TempOp>(std::move(input), shared_key);
}

OperatorPtr MakeShipOp(OperatorPtr input, double per_row_delay_us) {
  return std::make_unique<ShipOp>(std::move(input), per_row_delay_us);
}

OperatorPtr MakeLimitOp(OperatorPtr input, int64_t limit) {
  return std::make_unique<LimitOp>(std::move(input), limit);
}

}  // namespace starburst::exec
