#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/memory_tracker.h"
#include "exec/operators.h"
#include "storage/spill_file.h"

namespace starburst::exec {

namespace {

struct ValueTotalLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.CompareTotal(b) < 0;
  }
};

/// Grouping equality must match the old ordered map's RowTotalLess
/// semantics (numerics inter-compare, NULLs group together). Value::Hash
/// already hashes integral doubles like the equal int, so pairing it with
/// CompareTotal equality is a consistent unordered_map configuration.
struct RowTotalEq {
  bool operator()(const Row& a, const Row& b) const {
    return a.CompareTotal(b) == 0;
  }
};

/// Depth-salted partition hash (splitmix64 finalizer) over the *group
/// key*, so every row of one group lands in one partition and an
/// overflowing partition redistributes at the next depth.
size_t AggPartitionHash(const Row& key, int depth) {
  uint64_t x = key.Hash() +
               0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(depth + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x);
}

/// Vectorized hash aggregation with grace-partitioned overflow. The
/// probe/insert loop runs per input batch (correlation params folded once
/// per batch, the key row built into a reused scratch) against an
/// unordered map. Past the memory budget the table freezes: resident
/// groups keep absorbing their rows, rows for *new* keys spill whole to
/// hash partitions on temp storage. Frozen-set keys and partition keys
/// are disjoint by construction — and partitions are mutually disjoint —
/// so each partition re-aggregates independently after the input drains,
/// with no partial-state merge; a partition that itself overflows
/// re-partitions at depth+1 under a re-salted hash.
///
/// Output comes in waves (the resident table, then each partition), every
/// wave sorted by group key — so the unspilled path emits exactly the
/// order the previous std::map-based operator did. With zero group keys
/// there is exactly one (resident, never spilled) group — even over empty
/// input (SQL scalar-aggregate semantics).
class GroupAggOp : public Operator {
 public:
  GroupAggOp(OperatorPtr input, std::vector<CompiledExprPtr> group_keys,
             std::vector<AggSpec> aggregates, std::vector<GroupHeadItem> head,
             uint64_t budget, const KernelOptions& kernels)
      : input_(std::move(input)), group_keys_(std::move(group_keys)),
        aggregates_(std::move(aggregates)), head_(std::move(head)),
        budget_(budget) {
    // Key/argument expressions compile without slot type evidence (the
    // input layout is plan-internal); fallback subtrees still vectorize
    // the rest of the list.
    keys_program_ = ProjectionProgram::Compile(group_keys_, {}, kernels);
    std::vector<const CompiledExpr*> args;
    for (const AggSpec& spec : aggregates_) {
      if (spec.arg != nullptr) args.push_back(spec.arg.get());
    }
    if (!args.empty()) {
      args_program_ = ProjectionProgram::Compile(args, {}, kernels);
    }
    use_kernels_ = kernels.enabled &&
                   (group_keys_.empty() || keys_program_ != nullptr) &&
                   (args.empty() || args_program_ != nullptr);
    programs_full_ =
        (keys_program_ == nullptr || keys_program_->fully_vectorized()) &&
        (args_program_ == nullptr || args_program_->fully_vectorized());
  }

  static constexpr size_t kPartitions = 16;
  /// Each aggregation level admits at least one new group before
  /// freezing, so depth only grows on pathological budgets; past the cap
  /// we stop governing rather than thrash.
  static constexpr int kMaxDepth = 32;
  /// Rough per-group cost beyond the key payload. A resident group is a
  /// hash node (pointer/hash header plus the Row/GroupState pair) and,
  /// per aggregate spec, a unique_ptr slot, the state object's own
  /// allocation, and an (empty) distinct-input set header.
  static constexpr uint64_t kGroupOverhead = 128;
  static constexpr uint64_t kPerAggOverhead = 96;

  Status OpenImpl(ExecContext* ctx) override {
    Status st = OpenAgg(ctx);
    // A failed Open must not strand grace-partition files: cached/
    // prepared plans keep the operator tree alive long after the query,
    // so cleanup cannot be left to the destructor.
    if (!st.ok()) DropState();
    return st;
  }

  Status OpenAgg(ExecContext* ctx) {
    ctx_ = ctx;
    DropState();
    tracker_.Configure(budget_, ctx->query_memory());
    batch_size_ = ctx->batch_size();
    if (group_keys_.empty()) {
      groups_.emplace(Row(), NewGroupState());
    }
    STARBURST_RETURN_IF_ERROR(input_->Open(ctx));
    Status built = BuildFromInput();
    input_->Close();
    if (!built.ok()) return built;
    STARBURST_RETURN_IF_ERROR(QueuePartitions(&partitions_, 1));
    StatPeakMemory(tracker_.peak());
    return FinalizeGroups();
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    while (true) {
      size_t before = pos_;
      if (FillBatchFromRows(results_, &pos_, batch)) {
        ctx_->stats().rows_emitted += pos_ - before;
        return true;
      }
      if (pending_.empty()) return false;
      STARBURST_RETURN_IF_ERROR(ProcessNextPartition());
    }
  }

  void CloseImpl() override { DropState(); }

 private:
  struct GroupState {
    std::vector<std::unique_ptr<AggregateState>> states;
    // DISTINCT aggregates buffer their input set first.
    std::vector<std::set<Value, ValueTotalLess>> distinct_inputs;
  };
  using GroupMap = std::unordered_map<Row, GroupState, RowHash, RowTotalEq>;
  struct Pending {
    std::unique_ptr<SpillFile> file;
    int depth = 0;
  };
  using Parts = std::array<std::unique_ptr<SpillFile>, kPartitions>;

  void DropState() {
    groups_.clear();
    results_.clear();
    pos_ = 0;
    for (auto& p : partitions_) p.reset();
    pending_.clear();
    frozen_ = false;
    tracker_.Reset();
  }

  GroupState NewGroupState() {
    GroupState state;
    for (const AggSpec& spec : aggregates_) {
      state.states.push_back(spec.def->make_state());
      state.distinct_inputs.emplace_back();
    }
    return state;
  }

  /// Evaluates the group-key exprs for one input row into the reused
  /// scratch key.
  Status BuildKey(const Row& in, Row* key) {
    std::vector<Value>& vals = key->values();
    vals.clear();
    vals.reserve(group_keys_.size());
    for (const CompiledExprPtr& k : group_keys_) {
      STARBURST_ASSIGN_OR_RETURN(Value v, k->Eval(in, ctx_));
      vals.push_back(std::move(v));
    }
    return Status::OK();
  }

  Status AccumulateRow(const Row& in, GroupState* group) {
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      Value v = Value::Int(1);  // COUNT(*) counts every row
      if (aggregates_[a].arg != nullptr) {
        STARBURST_ASSIGN_OR_RETURN(v, aggregates_[a].arg->Eval(in, ctx_));
      }
      if (aggregates_[a].distinct) {
        if (!v.is_null()) {
          uint64_t bytes = v.MemoryBytes();
          if (group->distinct_inputs[a].insert(std::move(v)).second) {
            tracker_.Reserve(bytes);
          }
        }
      } else {
        STARBURST_RETURN_IF_ERROR(group->states[a]->Accumulate(v));
      }
    }
    return Status::OK();
  }

  /// Accumulates one row from kernel-precomputed aggregate inputs: `args`
  /// holds the values of the non-null argument exprs in spec order (null
  /// when every spec is COUNT(*)). Values are moved out of the scratch
  /// row — the next TryEvalRows overwrites every slot.
  Status AccumulateFrom(Row* args, GroupState* group) {
    size_t ai = 0;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      Value v = Value::Int(1);  // COUNT(*) counts every row
      if (aggregates_[a].arg != nullptr) {
        v = std::move(args->values()[ai++]);
      }
      if (aggregates_[a].distinct) {
        if (!v.is_null()) {
          uint64_t bytes = v.MemoryBytes();
          if (group->distinct_inputs[a].insert(std::move(v)).second) {
            tracker_.Reserve(bytes);
          }
        }
      } else {
        STARBURST_RETURN_IF_ERROR(group->states[a]->Accumulate(v));
      }
    }
    return Status::OK();
  }

  /// The batched build loop. Kernel path: evaluate the key and argument
  /// columns for the whole batch *before* any accumulation — accumulation
  /// cannot be rerun, so the interpreter fallback must trigger while the
  /// group table is still untouched by this batch. Any TryEvalRows
  /// failure reruns the batch through the row-major loop below, which
  /// reproduces the interpreter's row-by-row first-error order.
  Status BuildFromInput() {
    RowBatch batch(batch_size_);
    while (true) {
      STARBURST_RETURN_IF_ERROR(ctx_->CheckCancel());
      STARBURST_ASSIGN_OR_RETURN(bool more, input_->NextBatch(&batch));
      if (!more) return Status::OK();
      size_t n = batch.size();
      if (use_kernels_ && n > 0 &&
          (keys_program_ == nullptr ||
           keys_program_->TryEvalRows(batch, &key_rows_, ctx_)) &&
          (args_program_ == nullptr ||
           args_program_->TryEvalRows(batch, &arg_rows_, ctx_))) {
        StatKernelRows(programs_full_ ? n : 0, programs_full_ ? 0 : n);
        for (size_t bi = 0; bi < n; ++bi) {
          const Row& in = batch.row(bi);
          Row& key = keys_program_ != nullptr ? key_rows_[bi] : empty_key_;
          auto it = groups_.find(key);
          if (it == groups_.end()) {
            if (frozen_) {
              STARBURST_RETURN_IF_ERROR(
                  SpillInputRow(in, key, 0, &partitions_));
              continue;
            }
            tracker_.Reserve(key.MemoryBytes() + kGroupOverhead +
                             aggregates_.size() * kPerAggOverhead);
            it = groups_.emplace(std::move(key), NewGroupState()).first;
            if (tracker_.over_budget()) frozen_ = true;
          }
          STARBURST_RETURN_IF_ERROR(AccumulateFrom(
              args_program_ != nullptr ? &arg_rows_[bi] : nullptr,
              &it->second));
        }
        continue;
      }
      StatKernelRows(0, n);
      ScopedParamFold fold;
      for (const CompiledExprPtr& k : group_keys_) {
        if (!k->HasParamRefs()) continue;
        STARBURST_RETURN_IF_ERROR(fold.Add(k.get(), ctx_));
      }
      for (const AggSpec& spec : aggregates_) {
        if (spec.arg != nullptr && spec.arg->HasParamRefs()) {
          STARBURST_RETURN_IF_ERROR(fold.Add(spec.arg.get(), ctx_));
        }
      }
      for (size_t bi = 0; bi < n; ++bi) {
        const Row& in = batch.row(bi);
        STARBURST_RETURN_IF_ERROR(BuildKey(in, &key_scratch_));
        auto it = groups_.find(key_scratch_);
        if (it == groups_.end()) {
          if (frozen_) {
            STARBURST_RETURN_IF_ERROR(
                SpillInputRow(in, key_scratch_, 0, &partitions_));
            continue;
          }
          tracker_.Reserve(key_scratch_.MemoryBytes() + kGroupOverhead +
                           aggregates_.size() * kPerAggOverhead);
          it = groups_.emplace(std::move(key_scratch_), NewGroupState()).first;
          if (tracker_.over_budget()) frozen_ = true;
        }
        STARBURST_RETURN_IF_ERROR(AccumulateRow(in, &it->second));
      }
    }
  }

  Status SpillInputRow(const Row& in, const Row& key, int depth,
                       Parts* parts) {
    auto& slot = (*parts)[AggPartitionHash(key, depth) % kPartitions];
    if (slot == nullptr) {
      STARBURST_ASSIGN_OR_RETURN(slot, SpillFile::Create());
    }
    return slot->AppendRow(in);
  }

  Status QueuePartitions(Parts* parts, int depth) {
    for (auto& p : *parts) {
      if (p == nullptr) continue;
      STARBURST_RETURN_IF_ERROR(p->Finish());
      StatSpill(1, p->bytes_written());
      pending_.push_back(Pending{std::move(p), depth});
    }
    return Status::OK();
  }

  /// Drains the group table into the emission buffer, sorted by group key
  /// (the order the std::map-based operator produced), and releases its
  /// memory reservation.
  Status FinalizeGroups() {
    std::vector<std::pair<Row, GroupState>> items;
    items.reserve(groups_.size());
    while (!groups_.empty()) {
      auto node = groups_.extract(groups_.begin());
      items.emplace_back(std::move(node.key()), std::move(node.mapped()));
    }
    std::sort(items.begin(), items.end(),
              [](const std::pair<Row, GroupState>& a,
                 const std::pair<Row, GroupState>& b) {
                return a.first.CompareTotal(b.first) < 0;
              });
    results_.clear();
    pos_ = 0;
    results_.reserve(items.size());
    for (auto& [key, group] : items) {
      std::vector<Value> agg_values;
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        if (aggregates_[a].distinct) {
          for (const Value& v : group.distinct_inputs[a]) {
            STARBURST_RETURN_IF_ERROR(group.states[a]->Accumulate(v));
          }
        }
        STARBURST_ASSIGN_OR_RETURN(Value v, group.states[a]->Finalize());
        agg_values.push_back(std::move(v));
      }
      std::vector<Value> out;
      out.reserve(head_.size());
      for (const GroupHeadItem& item : head_) {
        if (item.source == GroupHeadItem::Source::kKey) {
          out.push_back(key[item.index]);
        } else {
          out.push_back(agg_values[item.index]);
        }
      }
      results_.push_back(Row(std::move(out)));
    }
    tracker_.Reset();
    return Status::OK();
  }

  /// Re-aggregates one spilled partition into the next emission wave.
  /// Correlation params cannot change within one Open, so re-folding and
  /// re-evaluating the key/arg exprs over spilled rows is sound.
  Status ProcessNextPartition() {
    STARBURST_RETURN_IF_ERROR(ctx_->CheckCancel());
    Pending part = std::move(pending_.front());
    pending_.pop_front();
    STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile::Reader> reader,
                               part.file->OpenReader());
    ScopedParamFold fold;
    for (const CompiledExprPtr& k : group_keys_) {
      if (!k->HasParamRefs()) continue;
      STARBURST_RETURN_IF_ERROR(fold.Add(k.get(), ctx_));
    }
    for (const AggSpec& spec : aggregates_) {
      if (spec.arg != nullptr && spec.arg->HasParamRefs()) {
        STARBURST_RETURN_IF_ERROR(fold.Add(spec.arg.get(), ctx_));
      }
    }
    Parts subs;
    bool frozen = false;
    Row in;
    while (true) {
      STARBURST_ASSIGN_OR_RETURN(bool more, reader->NextRow(&in));
      if (!more) break;
      STARBURST_RETURN_IF_ERROR(BuildKey(in, &key_scratch_));
      auto it = groups_.find(key_scratch_);
      if (it == groups_.end()) {
        if (frozen) {
          STARBURST_RETURN_IF_ERROR(
              SpillInputRow(in, key_scratch_, part.depth, &subs));
          continue;
        }
        tracker_.Reserve(key_scratch_.MemoryBytes() + kGroupOverhead +
                         aggregates_.size() * kPerAggOverhead);
        it = groups_.emplace(std::move(key_scratch_), NewGroupState()).first;
        if (tracker_.over_budget() && part.depth < kMaxDepth) frozen = true;
      }
      STARBURST_RETURN_IF_ERROR(AccumulateRow(in, &it->second));
    }
    STARBURST_RETURN_IF_ERROR(QueuePartitions(&subs, part.depth + 1));
    StatPeakMemory(tracker_.peak());
    return FinalizeGroups();
  }

  OperatorPtr input_;
  std::vector<CompiledExprPtr> group_keys_;
  std::vector<AggSpec> aggregates_;
  std::vector<GroupHeadItem> head_;
  uint64_t budget_;
  MemoryTracker tracker_;
  size_t batch_size_ = RowBatch::kDefaultCapacity;
  ExecContext* ctx_ = nullptr;
  GroupMap groups_;
  Row key_scratch_;  // reused per-row key build
  std::unique_ptr<ProjectionProgram> keys_program_;
  std::unique_ptr<ProjectionProgram> args_program_;
  bool use_kernels_ = false;
  bool programs_full_ = false;
  std::vector<Row> key_rows_;  // per-batch kernel output, storage reused
  std::vector<Row> arg_rows_;
  Row empty_key_;  // the zero-group-key lookup key
  bool frozen_ = false;
  Parts partitions_;
  std::deque<Pending> pending_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

}  // namespace

OperatorPtr MakeGroupAggOp(OperatorPtr input,
                           std::vector<CompiledExprPtr> group_keys,
                           std::vector<AggSpec> aggregates,
                           std::vector<GroupHeadItem> head,
                           uint64_t memory_budget_bytes,
                           const KernelOptions& kernels) {
  return std::make_unique<GroupAggOp>(std::move(input), std::move(group_keys),
                                      std::move(aggregates), std::move(head),
                                      memory_budget_bytes, kernels);
}

}  // namespace starburst::exec
