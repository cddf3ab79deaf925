// E6 — §7: join *methods* (control structure: nested-loop, sort-merge,
// hash) are orthogonal to join *kinds* (function: regular, exists,
// op-ALL, left-outer, scalar-subquery) — "a single operator can handle
// many different join kinds".
//
// Part A sweeps |R| and measures each method on the same equi-join,
// locating the crossovers. Part B runs every (method x kind) pairing the
// QES supports and checks they all agree — the orthogonality claim.
// Google-benchmark microbenches of the three methods close the binary.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "exec/operators.h"

using namespace starburst;
using namespace starburst::bench;
using exec::JoinSpec;
using exec::OperatorPtr;
using optimizer::JoinKind;

namespace {

std::vector<Row> MakeRows(int n, int key_range, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row({Value::Int(static_cast<int64_t>(rng() % key_range)),
                        Value::Int(i)}));
  }
  return rows;
}

exec::CompiledExprPtr SlotEq(int a, int b) {
  auto eq = std::make_unique<exec::CompiledExpr>();
  eq->kind = qgm::Expr::Kind::kBinary;
  eq->bop = ast::BinaryOp::kEq;
  auto l = std::make_unique<exec::CompiledExpr>();
  l->kind = qgm::Expr::Kind::kColumnRef;
  l->slot = a;
  auto r = std::make_unique<exec::CompiledExpr>();
  r->kind = qgm::Expr::Kind::kColumnRef;
  r->slot = b;
  eq->children.push_back(std::move(l));
  eq->children.push_back(std::move(r));
  return eq;
}

OperatorPtr MakeJoin(const std::string& method, std::vector<Row> outer,
                     std::vector<Row> inner, JoinKind kind) {
  JoinSpec spec;
  spec.kind = kind;
  spec.inner_width = 2;
  auto outer_op = exec::MakeValuesOp(std::move(outer));
  auto inner_op = exec::MakeValuesOp(std::move(inner));
  if (method == "nl") {
    spec.predicates.push_back(SlotEq(0, 2));
    return exec::MakeNlJoinOp(std::move(outer_op), std::move(inner_op),
                              std::move(spec));
  }
  if (method == "nl+temp") {
    spec.predicates.push_back(SlotEq(0, 2));
    return exec::MakeNlJoinOp(std::move(outer_op),
                              exec::MakeTempOp(std::move(inner_op)),
                              std::move(spec));
  }
  if (method == "hash") {
    return exec::MakeHashJoinOp(std::move(outer_op), std::move(inner_op),
                                {{0, 0}}, std::move(spec));
  }
  // merge: glue sorts first.
  auto sorted_outer = exec::MakeSortOp(std::move(outer_op), {{0, true}});
  auto sorted_inner = exec::MakeSortOp(std::move(inner_op), {{0, true}});
  return exec::MakeMergeJoinOp(std::move(sorted_outer), std::move(sorted_inner),
                               {{0, 0}}, std::move(spec));
}

size_t RunJoin(exec::Operator* op) {
  StorageEngine storage;
  Catalog catalog;
  exec::ExecContext ctx(&storage, &catalog);
  if (!op->Open(&ctx).ok()) std::exit(1);
  size_t n = 0;
  RowBatch batch(ctx.batch_size());
  while (true) {
    Result<bool> more = op->NextBatch(&batch);
    if (!more.ok()) std::exit(1);
    if (!*more) break;
    n += batch.size();
  }
  op->Close();
  return n;
}

void PartA() {
  std::printf("E6a: method crossover, R join S on k (|S| = |R|, ~1 match/row)\n");
  std::printf("%8s | %12s %12s %12s %12s | %8s\n", "|R|", "nl us",
              "nl+temp us", "merge us", "hash us", "rows");
  for (int n : {100, 300, 1000, 3000, 10000}) {
    std::vector<Row> outer = MakeRows(n, n, 1);
    std::vector<Row> inner = MakeRows(n, n, 2);
    double times[4];
    size_t rows = 0;
    const char* methods[] = {"nl", "nl+temp", "merge", "hash"};
    for (int m = 0; m < 4; ++m) {
      if (std::string(methods[m]) == "nl" && n > 3000) {
        times[m] = -1;  // quadratic: skip the biggest size
        continue;
      }
      auto join = MakeJoin(methods[m], outer, inner, JoinKind::kRegular);
      times[m] = MedianUs([&] { rows = RunJoin(join.get()); });
    }
    std::printf("%8d | ", n);
    for (int m = 0; m < 4; ++m) {
      if (times[m] < 0) {
        std::printf("%12s ", "(skipped)");
      } else {
        std::printf("%12.0f ", times[m]);
      }
    }
    std::printf("| %8zu\n", rows);
  }
}

void PartB() {
  std::printf("\nE6b: join kind x method orthogonality (n = 2000)\n");
  std::printf("%-12s | %10s %10s %10s | agree\n", "kind", "nl rows",
              "hash rows", "merge rows");
  std::vector<Row> outer = MakeRows(2000, 500, 3);
  std::vector<Row> inner = MakeRows(2000, 500, 4);
  struct KindRow {
    JoinKind kind;
    const char* name;
    bool hash_supported;
    bool merge_supported;
  } kinds[] = {
      {JoinKind::kRegular, "regular", true, true},
      {JoinKind::kExists, "exists", true, true},
      {JoinKind::kAnti, "anti", true, false},
      {JoinKind::kLeftOuter, "left-outer", true, true},
  };
  bool all_agree = true;
  for (const KindRow& k : kinds) {
    auto nl = MakeJoin("nl", outer, inner, k.kind);
    size_t nl_rows = RunJoin(nl.get());
    size_t hash_rows = 0, merge_rows = 0;
    if (k.hash_supported) {
      auto hj = MakeJoin("hash", outer, inner, k.kind);
      hash_rows = RunJoin(hj.get());
    }
    if (k.merge_supported) {
      auto mj = MakeJoin("merge", outer, inner, k.kind);
      merge_rows = RunJoin(mj.get());
    }
    bool agree = (!k.hash_supported || hash_rows == nl_rows) &&
                 (!k.merge_supported || merge_rows == nl_rows);
    all_agree = all_agree && agree;
    std::printf("%-12s | %10zu %10s %10s | %s\n", k.name, nl_rows,
                k.hash_supported ? std::to_string(hash_rows).c_str() : "-",
                k.merge_supported ? std::to_string(merge_rows).c_str() : "-",
                agree ? "yes" : "NO");
  }
  std::printf("Shape check: hash/merge beat NL as |R| grows; every kind "
              "agrees across methods: %s\n\n", all_agree ? "OK" : "MISMATCH");
}

void BM_Join(benchmark::State& state, const char* method) {
  int n = static_cast<int>(state.range(0));
  std::vector<Row> outer = MakeRows(n, n, 1);
  std::vector<Row> inner = MakeRows(n, n, 2);
  for (auto _ : state) {
    auto join = MakeJoin(method, outer, inner, JoinKind::kRegular);
    benchmark::DoNotOptimize(RunJoin(join.get()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

}  // namespace

BENCHMARK_CAPTURE(BM_Join, nl_temp, "nl+temp")->Arg(1000);
BENCHMARK_CAPTURE(BM_Join, hash, "hash")->Arg(1000)->Arg(10000);
BENCHMARK_CAPTURE(BM_Join, merge, "merge")->Arg(1000)->Arg(10000);

int main(int argc, char** argv) {
  PartA();
  PartB();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
