#include "exec/stream.h"

#include <algorithm>

#include "exec/expr_eval.h"
#include "obs/trace.h"

namespace starburst::exec {

Status Operator::OpenTimed(ExecContext* ctx) {
  double start = obs::NowUs();
  Status st = OpenImpl(ctx);
  stats_->wall_us += obs::NowUs() - start;
  ++stats_->opens;
  return st;
}

Result<bool> Operator::NextBatchTimed(RowBatch* batch) {
  double start = obs::NowUs();
  Result<bool> more = NextBatchImpl(batch);
  stats_->wall_us += obs::NowUs() - start;
  ++stats_->next_calls;
  if (more.ok() && *more) stats_->rows_out += batch->size();
  return more;
}

void Operator::CloseTimed() {
  double start = obs::NowUs();
  CloseImpl();
  stats_->wall_us += obs::NowUs() - start;
}

Result<Value> ExecContext::LookupParam(const qgm::Quantifier* q,
                                       size_t column) const {
  for (auto it = param_stack_.rbegin(); it != param_stack_.rend(); ++it) {
    const Value* found = (*it)->Find(q, column);
    if (found != nullptr) return *found;
  }
  if (q == QueryParamQuantifier()) {
    return Status::InvalidArgument(
        "query parameter ?" + std::to_string(column + 1) +
        " has no bound value; prepare the statement and supply values "
        "through ExecutePrepared");
  }
  return Status::Internal("unbound correlation parameter " +
                          (q != nullptr ? q->DisplayName() : std::string("?")) +
                          "." + std::to_string(column));
}

Status DrainOperatorInto(Operator* op, RowBatch* scratch,
                         std::vector<Row>* out, ExecContext* ctx) {
  while (true) {
    if (ctx != nullptr) STARBURST_RETURN_IF_ERROR(ctx->CheckCancel());
    STARBURST_ASSIGN_OR_RETURN(bool more, op->NextBatch(scratch));
    if (!more) return Status::OK();
    scratch->MoveRowsTo(out);
  }
}

Result<std::vector<Row>> DrainOperator(Operator* op, size_t batch_size,
                                       size_t reserve_hint, ExecContext* ctx) {
  std::vector<Row> rows;
  // Cap the reserve: cardinality estimates can be wildly wrong, and an
  // over-reserve is pure wasted RSS.
  constexpr size_t kMaxReserve = size_t{1} << 20;
  if (reserve_hint > 0) rows.reserve(std::min(reserve_hint, kMaxReserve));
  RowBatch batch(batch_size);
  STARBURST_RETURN_IF_ERROR(DrainOperatorInto(op, &batch, &rows, ctx));
  return rows;
}

Result<std::vector<Row>> DrainOperator(Operator* op) {
  return DrainOperator(op, RowBatch::kDefaultCapacity);
}

}  // namespace starburst::exec
