#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <unordered_set>

#include "common/memory_tracker.h"
#include "exec/operators.h"
#include "storage/spill_file.h"

namespace starburst::exec {

namespace {

using SortKeys = std::vector<std::pair<size_t, bool>>;

/// True when `a` orders strictly before `b` under the ORDER BY keys.
/// NULLs compare through Value::CompareTotal (NULL first ascending), so
/// the in-memory sort, the per-run sorts and the merge all rank NULLs
/// identically.
bool SortRowLess(const Row& a, const Row& b, const SortKeys& keys) {
  for (const auto& [slot, asc] : keys) {
    int c = a[slot].CompareTotal(b[slot]);
    if (c != 0) return asc ? c < 0 : c > 0;
  }
  return false;
}

/// Depth-salted hash for grace partitioning: re-partitioning an
/// overflowing partition at depth+1 must redistribute its keys, so the
/// recursion level perturbs the row hash (splitmix64 finalizer).
size_t PartitionHash(const Row& row, int depth) {
  uint64_t x = RowHash{}(row) + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(depth + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x);
}

/// Streams the union of sorted runs in sort order. Ties break on run
/// index, and each run preserves its own (stable-sorted) order — since
/// runs are cut from the input in arrival order, the merged stream is
/// exactly the stable sort of the whole input. The same invariant holds
/// across multi-pass merges because passes combine *consecutive* runs:
/// the merged output becomes one run whose internal tie order is already
/// the original run order.
class RunMerger {
 public:
  explicit RunMerger(const SortKeys* keys) : keys_(keys) {}

  /// Opens readers over runs [begin, end) and primes the heap. Runs must
  /// be Finish()ed.
  Status Init(const std::vector<std::unique_ptr<SpillFile>>& runs,
              size_t begin, size_t end) {
    readers_.clear();
    heap_.clear();
    for (size_t i = begin; i < end; ++i) {
      STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile::Reader> reader,
                                 runs[i]->OpenReader());
      readers_.push_back(std::move(reader));
      Entry e;
      e.run = readers_.size() - 1;
      STARBURST_ASSIGN_OR_RETURN(bool more, readers_.back()->NextRow(&e.row));
      if (more) heap_.push_back(std::move(e));
    }
    std::make_heap(heap_.begin(), heap_.end(), After{keys_});
    return Status::OK();
  }

  /// Next merged row; false when every run is exhausted.
  Result<bool> Next(Row* row) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), After{keys_});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    *row = std::move(e.row);
    STARBURST_ASSIGN_OR_RETURN(bool more, readers_[e.run]->NextRow(&e.row));
    if (more) {
      heap_.push_back(std::move(e));
      std::push_heap(heap_.begin(), heap_.end(), After{keys_});
    }
    return true;
  }

 private:
  struct Entry {
    Row row;
    size_t run = 0;
  };
  /// Heap "less": a comes out after b. make_heap's max element is then
  /// the earliest row, with equal keys yielding the lower run first.
  struct After {
    const SortKeys* keys;
    bool operator()(const Entry& a, const Entry& b) const {
      if (SortRowLess(a.row, b.row, *keys)) return false;
      if (SortRowLess(b.row, a.row, *keys)) return true;
      return a.run > b.run;
    }
  };

  const SortKeys* keys_;
  std::vector<std::unique_ptr<SpillFile::Reader>> readers_;
  std::vector<Entry> heap_;
};

/// ORDER BY: batch-at-a-time external merge sort. Within budget it is the
/// classic materialize + stable_sort; past it, the build buffer is cut
/// into stable-sorted runs spilled batch-at-a-time, merged k ways back
/// into the stream (multi-pass above kMergeFanIn runs).
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr input, SortKeys keys, uint64_t budget)
      : input_(std::move(input)), keys_(std::move(keys)), budget_(budget) {}

  static constexpr size_t kMergeFanIn = 64;

  Status OpenImpl(ExecContext* ctx) override {
    Status st = OpenSort(ctx);
    // A failed Open must not strand spill runs: cached/prepared plans
    // keep the operator tree alive long after the query, so cleanup
    // cannot be left to the destructor.
    if (!st.ok()) DropState();
    return st;
  }

  Status OpenSort(ExecContext* ctx) {
    DropState();
    ctx_ = ctx;
    tracker_.Configure(budget_, ctx->query_memory());
    batch_size_ = ctx->batch_size();
    STARBURST_RETURN_IF_ERROR(input_->Open(ctx));
    Status built = BuildRuns(ctx);
    input_->Close();
    StatPeakMemory(tracker_.peak());
    if (!built.ok()) return built;
    if (runs_.empty()) {  // everything fit: plain in-memory stable sort
      SortBuffer();
      pos_ = 0;
      return Status::OK();
    }
    if (!rows_.empty()) STARBURST_RETURN_IF_ERROR(SpillRun());
    while (runs_.size() > kMergeFanIn) {
      STARBURST_RETURN_IF_ERROR(MergePass());
    }
    merger_ = std::make_unique<RunMerger>(&keys_);
    STARBURST_RETURN_IF_ERROR(merger_->Init(runs_, 0, runs_.size()));
    return Status::OK();
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    if (merger_ == nullptr) return FillBatchFromRows(rows_, &pos_, batch);
    while (!batch->full()) {
      Row* slot = batch->AppendSlot();
      STARBURST_ASSIGN_OR_RETURN(bool more, merger_->Next(slot));
      if (!more) {
        batch->PopLast();
        break;
      }
    }
    return !batch->empty();
  }

  void CloseImpl() override { DropState(); }

 private:
  void DropState() {
    rows_.clear();
    runs_.clear();
    merger_.reset();
    pos_ = 0;
    tracker_.Reset();
  }

  /// Drains the input batch-at-a-time into the build buffer, cutting a
  /// sorted run to temp storage whenever the ledger tips past budget.
  Status BuildRuns(ExecContext* ctx) {
    RowBatch batch(batch_size_);
    while (true) {
      STARBURST_RETURN_IF_ERROR(ctx->CheckCancel());
      STARBURST_ASSIGN_OR_RETURN(bool more, input_->NextBatch(&batch));
      if (!more) return Status::OK();
      uint64_t bytes = 0;
      size_t n = batch.size();
      for (size_t i = 0; i < n; ++i) bytes += batch.row(i).MemoryBytes();
      tracker_.Reserve(bytes);
      batch.MoveRowsTo(&rows_);
      if (tracker_.over_budget() && !rows_.empty()) {
        STARBURST_RETURN_IF_ERROR(SpillRun());
      }
    }
  }

  void SortBuffer() {
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Row& a, const Row& b) {
                       return SortRowLess(a, b, keys_);
                     });
  }

  /// Sorts the build buffer and writes it out as one run, batch-at-a-time.
  Status SpillRun() {
    if (ctx_ != nullptr) STARBURST_RETURN_IF_ERROR(ctx_->CheckCancel());
    SortBuffer();
    STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> file,
                               SpillFile::Create());
    RowBatch scratch(batch_size_);
    size_t p = 0;
    while (p < rows_.size()) {
      scratch.Clear();
      while (!scratch.full() && p < rows_.size()) {
        *scratch.AppendSlot() = std::move(rows_[p++]);
      }
      STARBURST_RETURN_IF_ERROR(file->AppendBatch(scratch));
    }
    STARBURST_RETURN_IF_ERROR(file->Finish());
    StatSpill(1, file->bytes_written());
    runs_.push_back(std::move(file));
    rows_.clear();
    StatPeakMemory(tracker_.peak());  // capture before Reset clears it
    tracker_.Reset();
    return Status::OK();
  }

  /// One multi-pass merge level: consecutive groups of kMergeFanIn runs
  /// collapse into single runs, preserving run order end to end.
  Status MergePass() {
    std::vector<std::unique_ptr<SpillFile>> next;
    for (size_t i = 0; i < runs_.size(); i += kMergeFanIn) {
      if (ctx_ != nullptr) STARBURST_RETURN_IF_ERROR(ctx_->CheckCancel());
      size_t end = std::min(runs_.size(), i + kMergeFanIn);
      if (end - i == 1) {
        next.push_back(std::move(runs_[i]));
        continue;
      }
      RunMerger merger(&keys_);
      STARBURST_RETURN_IF_ERROR(merger.Init(runs_, i, end));
      STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> out,
                                 SpillFile::Create());
      RowBatch scratch(batch_size_);
      while (true) {
        scratch.Clear();
        while (!scratch.full()) {
          Row* slot = scratch.AppendSlot();
          STARBURST_ASSIGN_OR_RETURN(bool more, merger.Next(slot));
          if (!more) {
            scratch.PopLast();
            break;
          }
        }
        if (scratch.empty()) break;
        STARBURST_RETURN_IF_ERROR(out->AppendBatch(scratch));
      }
      STARBURST_RETURN_IF_ERROR(out->Finish());
      StatSpill(1, out->bytes_written());
      for (size_t j = i; j < end; ++j) runs_[j].reset();
      next.push_back(std::move(out));
    }
    runs_ = std::move(next);
    return Status::OK();
  }

  OperatorPtr input_;
  SortKeys keys_;
  uint64_t budget_;
  ExecContext* ctx_ = nullptr;
  MemoryTracker tracker_;
  size_t batch_size_ = RowBatch::kDefaultCapacity;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  std::vector<std::unique_ptr<SpillFile>> runs_;
  std::unique_ptr<RunMerger> merger_;
};

/// DISTINCT with grace-partitioned overflow. Within budget it streams
/// first-seen rows exactly as before. When the seen-set tips past budget
/// it freezes: resident keys keep deduplicating inline, unseen rows
/// scatter to hash partitions on temp storage. After the input drains,
/// partitions are deduplicated one at a time (their key sets are disjoint
/// from the frozen set and from each other); a partition that itself
/// overflows re-partitions at depth+1 under a re-salted hash.
class DistinctOp : public Operator {
 public:
  DistinctOp(OperatorPtr input, uint64_t budget)
      : input_(std::move(input)), budget_(budget) {}

  static constexpr size_t kPartitions = 16;
  /// Each recursion level retains at least one key in memory, so depth
  /// only grows on pathological budgets; past the cap we stop governing
  /// rather than thrash.
  static constexpr int kMaxDepth = 32;

  Status OpenImpl(ExecContext* ctx) override {
    DropState();
    ctx_ = ctx;
    tracker_.Configure(budget_, ctx->query_memory());
    return input_->Open(ctx);
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    while (input_phase_) {
      if (unchecked_rows_ >= ExecContext::kCancelCheckRows) {
        STARBURST_RETURN_IF_ERROR(ctx_->CheckCancel());
        unchecked_rows_ = 0;
      }
      STARBURST_ASSIGN_OR_RETURN(bool more, input_->NextBatch(batch));
      if (!more) {
        STARBURST_RETURN_IF_ERROR(FinishInputPhase());
        break;
      }
      std::vector<uint32_t> keep;
      size_t n = batch->size();
      unchecked_rows_ += n;
      keep.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const Row& r = batch->row(i);
        if (seen_.find(r) != seen_.end()) continue;
        if (!frozen_) {
          tracker_.Reserve(r.MemoryBytes());
          seen_.insert(r);
          keep.push_back(static_cast<uint32_t>(batch->physical_index(i)));
          if (tracker_.over_budget()) frozen_ = true;
        } else {
          STARBURST_RETURN_IF_ERROR(SpillRow(r, 0, &partitions_));
        }
      }
      batch->SetSelection(std::move(keep));
      if (!batch->empty()) return true;
    }
    while (true) {
      if (FillBatchFromRows(emit_, &emit_pos_, batch)) return true;
      if (pending_.empty()) return false;
      STARBURST_RETURN_IF_ERROR(ProcessNextPartition());
    }
  }

  void CloseImpl() override {
    input_->Close();
    DropState();
  }

 private:
  struct Pending {
    std::unique_ptr<SpillFile> file;
    int depth = 0;
  };
  using Parts = std::array<std::unique_ptr<SpillFile>, kPartitions>;

  void DropState() {
    seen_.clear();
    for (auto& p : partitions_) p.reset();
    pending_.clear();
    emit_.clear();
    emit_pos_ = 0;
    frozen_ = false;
    input_phase_ = true;
    tracker_.Reset();
  }

  Status SpillRow(const Row& row, int depth, Parts* parts) {
    auto& slot = (*parts)[PartitionHash(row, depth) % kPartitions];
    if (slot == nullptr) {
      STARBURST_ASSIGN_OR_RETURN(slot, SpillFile::Create());
    }
    return slot->AppendRow(row);
  }

  /// Input drained: the frozen set has already streamed out, so release
  /// it (spilled keys are disjoint from it by the freeze discipline) and
  /// queue the partition files for deduplication.
  Status FinishInputPhase() {
    input_phase_ = false;
    StatPeakMemory(tracker_.peak());
    seen_.clear();
    tracker_.Reset();
    for (auto& p : partitions_) {
      if (p == nullptr) continue;
      STARBURST_RETURN_IF_ERROR(p->Finish());
      StatSpill(1, p->bytes_written());
      pending_.push_back(Pending{std::move(p), 1});
    }
    return Status::OK();
  }

  /// Dedups one spilled partition into the emit buffer; overflow rows
  /// re-partition at the next depth and requeue.
  Status ProcessNextPartition() {
    STARBURST_RETURN_IF_ERROR(ctx_->CheckCancel());
    Pending part = std::move(pending_.front());
    pending_.pop_front();
    STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile::Reader> reader,
                               part.file->OpenReader());
    Parts subs;
    bool frozen = false;
    Row row;
    while (true) {
      STARBURST_ASSIGN_OR_RETURN(bool more, reader->NextRow(&row));
      if (!more) break;
      if (seen_.find(row) != seen_.end()) continue;
      if (!frozen) {
        tracker_.Reserve(row.MemoryBytes());
        seen_.insert(std::move(row));
        if (tracker_.over_budget() && part.depth < kMaxDepth) frozen = true;
      } else {
        STARBURST_RETURN_IF_ERROR(SpillRow(row, part.depth, &subs));
      }
    }
    for (auto& s : subs) {
      if (s == nullptr) continue;
      STARBURST_RETURN_IF_ERROR(s->Finish());
      StatSpill(1, s->bytes_written());
      pending_.push_back(Pending{std::move(s), part.depth + 1});
    }
    emit_.clear();
    emit_pos_ = 0;
    emit_.reserve(seen_.size());
    while (!seen_.empty()) {
      emit_.push_back(std::move(seen_.extract(seen_.begin()).value()));
    }
    StatPeakMemory(tracker_.peak());
    tracker_.Reset();
    return Status::OK();
  }

  OperatorPtr input_;
  uint64_t budget_;
  ExecContext* ctx_ = nullptr;
  MemoryTracker tracker_;
  std::unordered_set<Row, RowHash> seen_;
  bool frozen_ = false;
  bool input_phase_ = true;
  /// Input rows since the last cancel check; starts full so the first
  /// pull checks.
  size_t unchecked_rows_ = ExecContext::kCancelCheckRows;
  Parts partitions_;
  std::deque<Pending> pending_;
  std::vector<Row> emit_;
  size_t emit_pos_ = 0;
};

}  // namespace

OperatorPtr MakeSortOp(OperatorPtr input,
                       std::vector<std::pair<size_t, bool>> keys,
                       uint64_t memory_budget_bytes) {
  return std::make_unique<SortOp>(std::move(input), std::move(keys),
                                  memory_budget_bytes);
}

OperatorPtr MakeDistinctOp(OperatorPtr input, uint64_t memory_budget_bytes) {
  return std::make_unique<DistinctOp>(std::move(input), memory_budget_bytes);
}

}  // namespace starburst::exec
