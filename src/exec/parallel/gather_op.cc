#include "exec/parallel/gather.h"

#include <utility>

namespace starburst::exec::parallel {

namespace {

/// Drains `op` (already open) batch-at-a-time, calling `sink(batch)` for
/// every non-empty batch, then closes it — whole batches move through the
/// exchange instead of single rows. The first error still closes the
/// operator so clones are quiesced. Clones share the coordinator's
/// ExecContext, so the per-batch cancel check here stops every worker
/// within one batch of a KILL or deadline.
template <typename BatchSink>
Status DrainBatchesInto(Operator* op, ExecContext* ctx, size_t batch_size,
                        BatchSink&& sink) {
  RowBatch batch(batch_size);
  Status status;
  while (true) {
    status = ctx->CheckCancel();
    if (!status.ok()) break;
    Result<bool> more = op->NextBatch(&batch);
    if (!more.ok()) {
      status = more.status();
      break;
    }
    if (!*more) break;
    status = sink(batch);
    if (!status.ok()) break;
  }
  op->Close();
  return status;
}

class GatherOp : public Operator {
 public:
  GatherOp(std::unique_ptr<ParallelPlanContext> pctx,
           std::vector<OperatorPtr> pipelines)
      : pctx_(std::move(pctx)), pipelines_(std::move(pipelines)) {}

  /// Agg mode.
  GatherOp(std::unique_ptr<ParallelPlanContext> pctx,
           std::vector<OperatorPtr> input_clones,
           std::vector<std::vector<CompiledExprPtr>> partition_keys,
           std::vector<OperatorPtr> agg_clones)
      : pctx_(std::move(pctx)), pipelines_(std::move(input_clones)),
        partition_keys_(std::move(partition_keys)),
        agg_clones_(std::move(agg_clones)) {}

  Status OpenImpl(ExecContext* ctx) override {
    buffers_.assign(std::max(pipelines_.size(), agg_clones_.size()), {});
    cursor_buffer_ = cursor_row_ = 0;
    STARBURST_RETURN_IF_ERROR(ResetMorsels(ctx));
    STARBURST_RETURN_IF_ERROR(RunBuilds(ctx));
    if (agg_clones_.empty()) {
      STARBURST_RETURN_IF_ERROR(RunOutputPhase(ctx));
    } else {
      STARBURST_RETURN_IF_ERROR(RunExchangePhase(ctx));
      STARBURST_RETURN_IF_ERROR(RunAggPhase(ctx));
    }
    return Status::OK();
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    while (!batch->full() && cursor_buffer_ < buffers_.size()) {
      std::vector<Row>& buf = buffers_[cursor_buffer_];
      if (cursor_row_ >= buf.size()) {
        ++cursor_buffer_;
        cursor_row_ = 0;
        continue;
      }
      batch->Append(std::move(buf[cursor_row_++]));
    }
    return !batch->empty();
  }

  void CloseImpl() override {
    buffers_.clear();
    for (auto& per_worker : pctx_->exchange.staged) {
      for (auto& partition : per_worker) partition.clear();
    }
  }

 private:
  Status ResetMorsels(ExecContext* ctx) {
    for (auto& [node, scan] : pctx_->scans) {
      STARBURST_ASSIGN_OR_RETURN(TableStorage * storage,
                                 ctx->storage()->GetTable(scan->table->name));
      scan->morsels.Reset(static_cast<PageNo>(storage->page_count()));
    }
    return Status::OK();
  }

  /// Shared hash-join builds, innermost first: each build drains its P
  /// morsel-driven inner clones into the staged table, then merges the
  /// partitions — both steps parallel, with a barrier between them.
  Status RunBuilds(ExecContext* ctx) {
    for (auto& build : pctx_->builds) {
      ParallelPlanContext::JoinBuild* jb = build.get();
      jb->table.Reset(jb->build_clones.size(), pctx_->parallelism);
      std::vector<std::function<Status()>> tasks;
      for (size_t w = 0; w < jb->build_clones.size(); ++w) {
        tasks.push_back([this, ctx, jb, w] {
          Operator* clone = jb->build_clones[w].get();
          STARBURST_RETURN_IF_ERROR(clone->Open(ctx));
          return DrainBatchesInto(
              clone, ctx, ctx->batch_size(), [jb, w](RowBatch& batch) {
                size_t n = batch.size();
                for (size_t i = 0; i < n; ++i) {
                  Row& row = batch.row(i);
                  std::vector<Value> key_values;
                  key_values.reserve(jb->key_slots.size());
                  bool has_null = false;
                  for (size_t slot : jb->key_slots) {
                    if (row[slot].is_null()) has_null = true;
                    key_values.push_back(row[slot]);
                  }
                  if (!has_null) {  // NULL keys never join
                    jb->table.Stage(w, Row(std::move(key_values)),
                                    std::move(row));
                  }
                }
                return Status::OK();
              });
        });
      }
      STARBURST_RETURN_IF_ERROR(pctx_->scheduler->RunParallel(
          std::move(tasks), ctx->cancel_token(), ctx->scheduler_priority()));
      std::vector<std::function<Status()>> merges;
      for (size_t p = 0; p < jb->table.num_partitions(); ++p) {
        merges.push_back([jb, p] {
          jb->table.MergePartition(p);
          return Status::OK();
        });
      }
      STARBURST_RETURN_IF_ERROR(pctx_->scheduler->RunParallel(
          std::move(merges), ctx->cancel_token(), ctx->scheduler_priority()));
    }
    return Status::OK();
  }

  Status RunOutputPhase(ExecContext* ctx) {
    std::vector<std::function<Status()>> tasks;
    for (size_t w = 0; w < pipelines_.size(); ++w) {
      tasks.push_back([this, ctx, w] {
        Operator* clone = pipelines_[w].get();
        STARBURST_RETURN_IF_ERROR(clone->Open(ctx));
        return DrainBatchesInto(
            clone, ctx, ctx->batch_size(), [this, w](RowBatch& batch) {
              batch.MoveRowsTo(&buffers_[w]);
              return Status::OK();
            });
      });
    }
    return pctx_->scheduler->RunParallel(std::move(tasks),
                                         ctx->cancel_token(),
                                         ctx->scheduler_priority());
  }

  Status RunExchangePhase(ExecContext* ctx) {
    pctx_->exchange.Reset(pipelines_.size(), agg_clones_.size());
    std::vector<std::function<Status()>> tasks;
    for (size_t w = 0; w < pipelines_.size(); ++w) {
      tasks.push_back([this, ctx, w] {
        Operator* clone = pipelines_[w].get();
        STARBURST_RETURN_IF_ERROR(clone->Open(ctx));
        const size_t nparts = agg_clones_.size();
        auto& staged = pctx_->exchange.staged[w];
        const auto& keys = partition_keys_[w];
        return DrainBatchesInto(
            clone, ctx, ctx->batch_size(), [&, ctx](RowBatch& batch) -> Status {
              size_t n = batch.size();
              for (size_t i = 0; i < n; ++i) {
                Row& row = batch.row(i);
                size_t p = 0;
                if (nparts > 1) {
                  std::vector<Value> key_values;
                  key_values.reserve(keys.size());
                  for (const CompiledExprPtr& k : keys) {
                    STARBURST_ASSIGN_OR_RETURN(Value v, k->Eval(row, ctx));
                    key_values.push_back(std::move(v));
                  }
                  p = RowHash{}(Row(std::move(key_values))) % nparts;
                }
                staged[p].push_back(std::move(row));
              }
              return Status::OK();
            });
      });
    }
    return pctx_->scheduler->RunParallel(std::move(tasks),
                                         ctx->cancel_token(),
                                         ctx->scheduler_priority());
  }

  Status RunAggPhase(ExecContext* ctx) {
    std::vector<std::function<Status()>> tasks;
    for (size_t p = 0; p < agg_clones_.size(); ++p) {
      tasks.push_back([this, ctx, p] {
        Operator* clone = agg_clones_[p].get();
        STARBURST_RETURN_IF_ERROR(clone->Open(ctx));
        return DrainBatchesInto(
            clone, ctx, ctx->batch_size(), [this, p](RowBatch& batch) {
              batch.MoveRowsTo(&buffers_[p]);
              return Status::OK();
            });
      });
    }
    return pctx_->scheduler->RunParallel(std::move(tasks),
                                         ctx->cancel_token(),
                                         ctx->scheduler_priority());
  }

  std::unique_ptr<ParallelPlanContext> pctx_;
  std::vector<OperatorPtr> pipelines_;
  std::vector<std::vector<CompiledExprPtr>> partition_keys_;  // agg mode
  std::vector<OperatorPtr> agg_clones_;                       // agg mode
  std::vector<std::vector<Row>> buffers_;
  size_t cursor_buffer_ = 0;
  size_t cursor_row_ = 0;
};

class ExchangeSourceOp : public Operator {
 public:
  ExchangeSourceOp(const AggExchange* exchange, size_t partition)
      : exchange_(exchange), partition_(partition) {}

  Status OpenImpl(ExecContext*) override {
    worker_ = 0;
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    while (!batch->full() && worker_ < exchange_->staged.size()) {
      const std::vector<Row>& rows = exchange_->staged[worker_][partition_];
      if (pos_ >= rows.size()) {
        ++worker_;
        pos_ = 0;
        continue;
      }
      batch->Append(rows[pos_++]);
    }
    return !batch->empty();
  }

  void CloseImpl() override {}

 private:
  const AggExchange* exchange_;
  size_t partition_;
  size_t worker_ = 0;
  size_t pos_ = 0;
};

}  // namespace

OperatorPtr MakeGatherOp(std::unique_ptr<ParallelPlanContext> pctx,
                         std::vector<OperatorPtr> pipelines) {
  return std::make_unique<GatherOp>(std::move(pctx), std::move(pipelines));
}

OperatorPtr MakeGatherAggOp(
    std::unique_ptr<ParallelPlanContext> pctx,
    std::vector<OperatorPtr> input_clones,
    std::vector<std::vector<CompiledExprPtr>> partition_keys,
    std::vector<OperatorPtr> agg_clones) {
  return std::make_unique<GatherOp>(std::move(pctx), std::move(input_clones),
                                    std::move(partition_keys),
                                    std::move(agg_clones));
}

OperatorPtr MakeExchangeSourceOp(const AggExchange* exchange,
                                 size_t partition) {
  return std::make_unique<ExchangeSourceOp>(exchange, partition);
}

}  // namespace starburst::exec::parallel
