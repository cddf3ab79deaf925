#include <algorithm>

#include "exec/operators.h"
#include "exec/parallel/morsel.h"
#include "storage/attachment.h"

namespace starburst::exec {

namespace {

/// With a MorselSource attached the scan is a parallel clone: instead of
/// one full walk it claims page-range morsels until the shared dispenser
/// runs dry, so sibling clones cover the table together.
class ScanOp : public Operator {
 public:
  ScanOp(const TableDef* table, std::vector<size_t> columns,
         std::vector<CompiledExprPtr> predicates,
         parallel::MorselSource* morsels = nullptr,
         const KernelOptions& kernels = {})
      : table_(table), columns_(std::move(columns)),
        predicates_(std::move(predicates)), morsels_(morsels) {
    bool identity_prefix = true;
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (columns_[i] != i) {
        identity_prefix = false;
        break;
      }
    }
    // Whole-row identity projection: refills then decode pages straight
    // into the batch's slots with no staging block at all, and append the
    // rid when the hidden rid column follows the row.
    const size_t width = table_->schema.num_columns();
    append_rid_ = identity_prefix && columns_.size() == width + 1;
    direct_fill_ = identity_prefix && (columns_.size() == width || append_rid_);
    // The scan knows its slots' declared types (the projected schema) —
    // the evidence the kernel compiler needs to prove comparisons
    // infallible and license selectivity reordering.
    if (!predicates_.empty()) {
      std::vector<TypeId> slot_types;
      slot_types.reserve(columns_.size());
      for (size_t c : columns_) {
        slot_types.push_back(c < width ? table_->schema.column(c).type.id
                                       : TypeId::kInt);
      }
      program_ = PredicateProgram::Compile(predicates_, slot_types, kernels);
    }
  }

  Status OpenImpl(ExecContext* ctx) override {
    ctx_ = ctx;
    STARBURST_ASSIGN_OR_RETURN(TableStorage * storage,
                               ctx->storage()->GetTable(table_->name));
    storage_ = storage;
    scan_ = morsels_ == nullptr ? storage->NewScan() : nullptr;
    return Status::OK();
  }

  /// Refills straight from the page scan (one page resolution per page,
  /// decode into reused row storage), asking for no more rows than the
  /// batch has room for: a whole-row scan decodes into the batch's slots,
  /// any other projects each decoded row into its slot. The predicates
  /// then run against the projected rows — §2's functions invoked "at low
  /// levels of the system", here inside the scan — column-at-a-time
  /// (interpreter when the kernels decline), marking survivors in a
  /// selection vector.
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    if (rids_.size() < batch->capacity()) rids_.resize(batch->capacity());
    const size_t block = std::min(batch->capacity(), kMaxBlock);
    if (!direct_fill_ && block_.size() < block) block_.resize(block);
    while (true) {
      bool exhausted = false;
      if (unchecked_rows_ >= ExecContext::kCancelCheckRows) {
        STARBURST_RETURN_IF_ERROR(ctx_->CheckCancel());
        unchecked_rows_ = 0;
      }
      while (!batch->full()) {
        if (scan_ == nullptr) {
          PageNo begin, end;
          if (morsels_ == nullptr || !morsels_->Claim(&begin, &end)) {
            exhausted = true;
            break;
          }
          scan_ = storage_->NewRangeScan(begin, end);
        }
        Row* slots = batch->raw_slots() + batch->physical_size();
        STARBURST_ASSIGN_OR_RETURN(
            size_t got,
            direct_fill_
                ? scan_->NextBlock(slots, rids_.data(), batch->remaining())
                : scan_->NextBlock(block_.data(), rids_.data(),
                                   std::min(block, batch->remaining())));
        if (got == 0) {
          if (morsels_ != nullptr) {
            scan_.reset();  // morsel drained; claim the next one
            continue;
          }
          exhausted = true;
          break;
        }
        for (size_t i = 0; i < got; ++i) {
          if (!direct_fill_) {
            ProjectStoredRow(block_[i], rids_[i], columns_, &slots[i].values());
          } else if (append_rid_) {
            slots[i].values().push_back(Value::Int(rids_[i].ToInt()));
          }
        }
        batch->AdvanceFilled(got);
        unchecked_rows_ += got;
      }
      STARBURST_RETURN_IF_ERROR(ApplyPredicates(batch));
      if (!batch->empty()) {
        ctx_->stats().rows_emitted += batch->size();
        return true;
      }
      if (exhausted) return false;
      batch->Clear();  // every staged row was rejected; refill
    }
  }

  void CloseImpl() override { scan_.reset(); }

 private:
  /// Filters the freshly staged batch (no selection installed yet):
  /// kernel program first, interpreter (FilterBatch) when the program is
  /// absent or declines the batch (unbound param, kernel error).
  Status ApplyPredicates(RowBatch* batch) {
    if (predicates_.empty() || batch->physical_size() == 0) {
      return Status::OK();
    }
    size_t n = batch->size();
    if (program_ != nullptr && program_->TryFilter(batch, ctx_)) {
      if (program_->fully_vectorized()) {
        StatKernelRows(n, 0);
      } else {
        StatKernelRows(0, n);
      }
      return Status::OK();
    }
    StatKernelRows(0, n);
    return FilterBatch(predicates_, batch, ctx_);
  }

  /// Upper bound on the refill block so a huge SET batch_size cannot
  /// balloon the per-scan row buffer.
  static constexpr size_t kMaxBlock = 1024;

  const TableDef* table_;
  std::vector<size_t> columns_;
  std::vector<CompiledExprPtr> predicates_;
  parallel::MorselSource* morsels_;
  /// True when the projection is the whole row: refills decode pages
  /// directly into batch slots.
  bool direct_fill_ = false;
  /// True when the whole row is followed by the hidden rid column.
  bool append_rid_ = false;
  ExecContext* ctx_ = nullptr;
  TableStorage* storage_ = nullptr;
  std::unique_ptr<TableScanIterator> scan_;
  /// A projecting scan's refill block: full rows decoded in place, no
  /// larger than the batch being filled.
  std::vector<Row> block_;
  std::vector<Rid> rids_;
  /// Rows staged since the last cancel check; starts full so the first
  /// refill checks.
  size_t unchecked_rows_ = ExecContext::kCancelCheckRows;
  /// Compiled predicate kernels (null when no conjunct lowers); the
  /// generalization of the old per-batch PreparedPredicate fast path.
  std::unique_ptr<PredicateProgram> program_;
};

class IndexScanOp : public Operator {
 public:
  IndexScanOp(const TableDef* table, const IndexDef* index,
              ast::BinaryOp bound_op, CompiledExprPtr bound,
              std::vector<size_t> columns,
              std::vector<CompiledExprPtr> predicates)
      : table_(table), index_(index), bound_op_(bound_op),
        bound_(std::move(bound)), columns_(std::move(columns)),
        predicates_(std::move(predicates)) {}

  Status OpenImpl(ExecContext* ctx) override {
    ctx_ = ctx;
    STARBURST_ASSIGN_OR_RETURN(storage_, ctx->storage()->GetTable(table_->name));
    STARBURST_ASSIGN_OR_RETURN(Attachment * attachment,
                               ctx->storage()->GetIndex(index_->name));
    auto* btree = dynamic_cast<BTreeAttachment*>(attachment);
    if (btree == nullptr) {
      return Status::Internal("index '" + index_->name + "' is not a B-tree");
    }
    if (bound_ == nullptr) {
      // Unbounded: walk the whole index in key order.
      exhausted_ = false;
      iter_ = btree->tree().Scan(nullptr, true, nullptr, true);
      return Status::OK();
    }
    // The bound may be parameterized by correlation values — evaluated at
    // every (re)open, which is what makes index-driven dependent joins
    // possible.
    Row empty;
    STARBURST_ASSIGN_OR_RETURN(Value key, bound_->Eval(empty, ctx));
    if (key.is_null()) {
      iter_.reset();
      exhausted_ = true;  // NULL never matches an index bound
      return Status::OK();
    }
    exhausted_ = false;
    BTreeKey lo{key}, hi{key};
    switch (bound_op_) {
      case ast::BinaryOp::kEq:
        iter_ = btree->tree().Scan(&lo, true, &hi, true);
        break;
      case ast::BinaryOp::kLt:
        iter_ = btree->tree().Scan(nullptr, true, &hi, false);
        break;
      case ast::BinaryOp::kLe:
        iter_ = btree->tree().Scan(nullptr, true, &hi, true);
        break;
      case ast::BinaryOp::kGt:
        iter_ = btree->tree().Scan(&lo, false, nullptr, true);
        break;
      case ast::BinaryOp::kGe:
        iter_ = btree->tree().Scan(&lo, true, nullptr, true);
        break;
      default:
        return Status::Internal("bad index bound operator");
    }
    return Status::OK();
  }

  /// Walks the index into the caller's batch: one heap fetch per entry,
  /// predicates per row, and never an entry past the batch's room.
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    if (exhausted_ || iter_ == nullptr) return false;
    BTreeKey key;
    Rid rid;
    while (!batch->full()) {
      if (!iter_->Next(&key, &rid)) {
        exhausted_ = true;
        break;
      }
      // NULL keys sort first but never satisfy a bound comparison; an
      // unbounded (order-providing) scan must keep them.
      if (bound_ != nullptr && !key.empty() && key[0].is_null()) continue;
      STARBURST_ASSIGN_OR_RETURN(Row full, storage_->Fetch(rid));
      Row* slot = batch->AppendSlot();
      ProjectStoredRow(full, rid, columns_, &slot->values());
      for (const CompiledExprPtr& p : predicates_) {
        STARBURST_ASSIGN_OR_RETURN(bool ok, p->EvalPredicate(*slot, ctx_));
        if (!ok) {
          batch->PopLast();
          break;
        }
      }
    }
    ctx_->stats().rows_emitted += batch->size();
    return !batch->empty();
  }

  void CloseImpl() override { iter_.reset(); }

 private:
  const TableDef* table_;
  const IndexDef* index_;
  ast::BinaryOp bound_op_;
  CompiledExprPtr bound_;
  std::vector<size_t> columns_;
  std::vector<CompiledExprPtr> predicates_;
  ExecContext* ctx_ = nullptr;
  TableStorage* storage_ = nullptr;
  std::unique_ptr<BTree::Iterator> iter_;
  bool exhausted_ = false;
};

class ValuesOp : public Operator {
 public:
  ValuesOp(std::vector<Row> rows, std::vector<ValuesCell> cells)
      : rows_(std::move(rows)), cells_(std::move(cells)) {}

  Status OpenImpl(ExecContext* ctx) override {
    ctx_ = ctx;
    pos_ = 0;
    cell_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    static const Row kNoInput;
    while (!batch->full() && pos_ < rows_.size()) {
      Row* row = batch->AppendSlot();
      *row = rows_[pos_];
      for (; cell_ < cells_.size() && cells_[cell_].row == pos_; ++cell_) {
        STARBURST_ASSIGN_OR_RETURN(row->values()[cells_[cell_].column],
                                   cells_[cell_].expr->Eval(kNoInput, ctx_));
      }
      ++pos_;
    }
    ctx_->stats().rows_emitted += batch->size();
    return !batch->empty();
  }
  void CloseImpl() override {}

 private:
  std::vector<Row> rows_;
  std::vector<ValuesCell> cells_;
  size_t pos_ = 0;
  size_t cell_ = 0;
  ExecContext* ctx_ = nullptr;
};

class IterRefOp : public Operator {
 public:
  explicit IterRefOp(const qgm::Box* recursion) : recursion_(recursion) {}

  Status OpenImpl(ExecContext* ctx) override {
    rows_ = ctx->IterationTable(recursion_);
    if (rows_ == nullptr) {
      return Status::Internal("iteration reference outside recursion");
    }
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    return FillBatchFromRows(*rows_, &pos_, batch);
  }
  void CloseImpl() override { rows_ = nullptr; }

 private:
  const qgm::Box* recursion_;
  const std::vector<Row>* rows_ = nullptr;
  size_t pos_ = 0;
};

}  // namespace

OperatorPtr MakeScanOp(const TableDef* table, std::vector<size_t> columns,
                       std::vector<CompiledExprPtr> predicates,
                       const KernelOptions& kernels) {
  return std::make_unique<ScanOp>(table, std::move(columns),
                                  std::move(predicates), nullptr, kernels);
}

OperatorPtr MakeMorselScanOp(const TableDef* table,
                             std::vector<size_t> columns,
                             std::vector<CompiledExprPtr> predicates,
                             parallel::MorselSource* morsels,
                             const KernelOptions& kernels) {
  return std::make_unique<ScanOp>(table, std::move(columns),
                                  std::move(predicates), morsels, kernels);
}

OperatorPtr MakeIndexScanOp(const TableDef* table, const IndexDef* index,
                            ast::BinaryOp bound_op, CompiledExprPtr bound,
                            std::vector<size_t> columns,
                            std::vector<CompiledExprPtr> predicates) {
  return std::make_unique<IndexScanOp>(table, index, bound_op,
                                       std::move(bound), std::move(columns),
                                       std::move(predicates));
}

OperatorPtr MakeValuesOp(std::vector<Row> rows,
                         std::vector<ValuesCell> cells) {
  return std::make_unique<ValuesOp>(std::move(rows), std::move(cells));
}

OperatorPtr MakeIterRefOp(const qgm::Box* recursion_box) {
  return std::make_unique<IterRefOp>(recursion_box);
}

}  // namespace starburst::exec
