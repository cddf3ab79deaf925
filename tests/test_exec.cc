#include <gtest/gtest.h>

#include <functional>

#include "engine/database.h"
#include "exec/operators.h"
#include "qgm/box.h"

namespace starburst {
namespace {

using exec::CompiledExprPtr;
using exec::ExecContext;
using exec::JoinSpec;
using exec::OperatorPtr;
using optimizer::JoinKind;

Row R(std::initializer_list<Value> values) {
  return Row(std::vector<Value>(values));
}

std::vector<Row> RunOp(exec::Operator* op, ExecContext* ctx) {
  EXPECT_TRUE(op->Open(ctx).ok());
  Result<std::vector<Row>> rows = exec::DrainOperator(op);
  op->Close();
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? rows.TakeValue() : std::vector<Row>{};
}

CompiledExprPtr Slot(int i) {
  auto e = std::make_unique<exec::CompiledExpr>();
  e->kind = qgm::Expr::Kind::kColumnRef;
  e->slot = i;
  return e;
}

CompiledExprPtr Lit(Value v) {
  auto e = std::make_unique<exec::CompiledExpr>();
  e->kind = qgm::Expr::Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

CompiledExprPtr Cmp(ast::BinaryOp op, CompiledExprPtr l, CompiledExprPtr r) {
  auto e = std::make_unique<exec::CompiledExpr>();
  e->kind = qgm::Expr::Kind::kBinary;
  e->bop = op;
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

class ExecOpTest : public ::testing::Test {
 protected:
  StorageEngine storage_;
  Catalog catalog_;
  ExecContext ctx_{&storage_, &catalog_};
};

// ---------------------------------------------------------------------------
// Scalar evaluation semantics
// ---------------------------------------------------------------------------

TEST_F(ExecOpTest, ThreeValuedLogic) {
  Row row;
  // NULL AND FALSE = FALSE (lazy).
  auto and_expr = Cmp(ast::BinaryOp::kAnd, Lit(Value::Null()),
                      Lit(Value::Bool(false)));
  Result<Value> v = and_expr->Eval(row, &ctx_);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Bool(false));
  // NULL OR TRUE = TRUE.
  auto or_expr =
      Cmp(ast::BinaryOp::kOr, Lit(Value::Null()), Lit(Value::Bool(true)));
  EXPECT_EQ(*or_expr->Eval(row, &ctx_), Value::Bool(true));
  // NULL AND TRUE = NULL.
  auto unknown =
      Cmp(ast::BinaryOp::kAnd, Lit(Value::Null()), Lit(Value::Bool(true)));
  EXPECT_TRUE(unknown->Eval(row, &ctx_)->is_null());
  // NULL = NULL is NULL, not TRUE.
  auto eq = Cmp(ast::BinaryOp::kEq, Lit(Value::Null()), Lit(Value::Null()));
  EXPECT_TRUE(eq->Eval(row, &ctx_)->is_null());
}

TEST_F(ExecOpTest, DivisionByZeroIsAnError) {
  Row row;
  auto div = Cmp(ast::BinaryOp::kDiv, Lit(Value::Int(1)), Lit(Value::Int(0)));
  EXPECT_FALSE(div->Eval(row, &ctx_).ok());
}

TEST_F(ExecOpTest, LikeMatcher) {
  EXPECT_TRUE(exec::LikeMatch("hello", "h%o"));
  EXPECT_TRUE(exec::LikeMatch("hello", "_ello"));
  EXPECT_TRUE(exec::LikeMatch("hello", "%"));
  EXPECT_TRUE(exec::LikeMatch("", "%"));
  EXPECT_FALSE(exec::LikeMatch("", "_"));
  EXPECT_FALSE(exec::LikeMatch("hello", "h_o"));
  EXPECT_TRUE(exec::LikeMatch("abcabc", "%abc"));
  EXPECT_TRUE(exec::LikeMatch("a%b", "a%b"));
  EXPECT_FALSE(exec::LikeMatch("xyz", "xy"));
}

// Parameterized sweep over scalar comparison semantics: (op, lhs, rhs,
// expected) covering numerics, strings, and NULL propagation.
struct CmpCase {
  ast::BinaryOp op;
  Value l, r;
  Value expected;  // Bool or Null
};

class ComparisonSweep : public ::testing::TestWithParam<CmpCase> {};

TEST_P(ComparisonSweep, Evaluates) {
  const CmpCase& c = GetParam();
  Result<Value> v = exec::EvalBinaryValues(c.op, c.l, c.r);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ComparisonSweep,
    ::testing::Values(
        CmpCase{ast::BinaryOp::kEq, Value::Int(3), Value::Int(3),
                Value::Bool(true)},
        CmpCase{ast::BinaryOp::kEq, Value::Int(3), Value::Double(3.0),
                Value::Bool(true)},
        CmpCase{ast::BinaryOp::kNe, Value::Int(3), Value::Int(4),
                Value::Bool(true)},
        CmpCase{ast::BinaryOp::kLt, Value::Double(1.5), Value::Int(2),
                Value::Bool(true)},
        CmpCase{ast::BinaryOp::kLe, Value::Int(2), Value::Int(2),
                Value::Bool(true)},
        CmpCase{ast::BinaryOp::kGt, Value::String("b"), Value::String("a"),
                Value::Bool(true)},
        CmpCase{ast::BinaryOp::kGe, Value::String("a"), Value::String("b"),
                Value::Bool(false)},
        CmpCase{ast::BinaryOp::kEq, Value::Null(), Value::Int(1),
                Value::Null()},
        CmpCase{ast::BinaryOp::kNe, Value::Int(1), Value::Null(),
                Value::Null()},
        CmpCase{ast::BinaryOp::kAdd, Value::Int(2), Value::Int(3),
                Value::Int(5)},
        CmpCase{ast::BinaryOp::kAdd, Value::Int(2), Value::Double(0.5),
                Value::Double(2.5)},
        CmpCase{ast::BinaryOp::kSub, Value::Null(), Value::Int(1),
                Value::Null()},
        CmpCase{ast::BinaryOp::kMul, Value::Int(-2), Value::Int(3),
                Value::Int(-6)},
        CmpCase{ast::BinaryOp::kDiv, Value::Int(7), Value::Int(2),
                Value::Int(3)},
        CmpCase{ast::BinaryOp::kDiv, Value::Double(7), Value::Int(2),
                Value::Double(3.5)},
        CmpCase{ast::BinaryOp::kMod, Value::Int(7), Value::Int(3),
                Value::Int(1)},
        CmpCase{ast::BinaryOp::kConcat, Value::String("a"), Value::String("b"),
                Value::String("ab")}));

TEST(EvalBinaryValuesTest, TypeErrorsSurface) {
  EXPECT_FALSE(
      exec::EvalBinaryValues(ast::BinaryOp::kEq, Value::Int(1),
                             Value::String("1")).ok());
  EXPECT_FALSE(
      exec::EvalBinaryValues(ast::BinaryOp::kAdd, Value::String("a"),
                             Value::Int(1)).ok());
  EXPECT_FALSE(
      exec::EvalBinaryValues(ast::BinaryOp::kConcat, Value::Int(1),
                             Value::String("a")).ok());
}

// ---------------------------------------------------------------------------
// Join kinds × methods (§7's separation)
// ---------------------------------------------------------------------------

class JoinKindTest : public ExecOpTest {
 protected:
  OperatorPtr Outer() {
    return exec::MakeValuesOp({R({Value::Int(1)}), R({Value::Int(2)}),
                               R({Value::Int(3)}), R({Value::Null()})});
  }
  OperatorPtr Inner() {
    return exec::MakeValuesOp(
        {R({Value::Int(2)}), R({Value::Int(3)}), R({Value::Int(3)})});
  }
  JoinSpec EqSpec(JoinKind kind) {
    JoinSpec spec;
    spec.kind = kind;
    spec.inner_width = 1;
    spec.predicates.push_back(
        Cmp(ast::BinaryOp::kEq, Slot(0), Slot(1)));  // outer.0 = inner.0
    return spec;
  }
};

TEST_F(JoinKindTest, NlRegular) {
  auto join = exec::MakeNlJoinOp(Outer(), Inner(), EqSpec(JoinKind::kRegular));
  std::vector<Row> rows = RunOp(join.get(), &ctx_);
  EXPECT_EQ(rows.size(), 3u);  // 2, 3, 3
}

TEST_F(JoinKindTest, NlLeftOuter) {
  auto join =
      exec::MakeNlJoinOp(Outer(), Inner(), EqSpec(JoinKind::kLeftOuter));
  std::vector<Row> rows = RunOp(join.get(), &ctx_);
  ASSERT_EQ(rows.size(), 5u);  // 1+NULL, 2, 3, 3, NULL+NULL
  EXPECT_TRUE(rows[0][1].is_null());  // unmatched 1
  EXPECT_TRUE(rows[4][1].is_null());  // NULL outer never matches
}

TEST_F(JoinKindTest, NlExistsAndAnti) {
  auto semi = exec::MakeNlJoinOp(Outer(), Inner(), EqSpec(JoinKind::kExists));
  std::vector<Row> rows = RunOp(semi.get(), &ctx_);
  ASSERT_EQ(rows.size(), 2u);  // 2 and 3, each once
  EXPECT_EQ(rows[0][0], Value::Int(2));

  auto anti = exec::MakeNlJoinOp(Outer(), Inner(), EqSpec(JoinKind::kAnti));
  rows = RunOp(anti.get(), &ctx_);
  // Anti = NOT EXISTS semantics: NULL = x is unknown (no match), so the
  // NULL outer row *does* anti-qualify. (Null-aware NOT IN is kOpAll.)
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
  EXPECT_TRUE(rows[1][0].is_null());
}

TEST_F(JoinKindTest, NlScalarKind) {
  // Scalar join against a one-row inner.
  auto inner = exec::MakeValuesOp({R({Value::Int(42)})});
  JoinSpec spec;
  spec.kind = JoinKind::kScalar;
  spec.inner_width = 1;
  auto join = exec::MakeNlJoinOp(Outer(), std::move(inner), std::move(spec));
  std::vector<Row> rows = RunOp(join.get(), &ctx_);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][1], Value::Int(42));

  // More than one inner row: runtime error.
  auto bad_inner =
      exec::MakeValuesOp({R({Value::Int(1)}), R({Value::Int(2)})});
  JoinSpec bad_spec;
  bad_spec.kind = JoinKind::kScalar;
  bad_spec.inner_width = 1;
  auto bad =
      exec::MakeNlJoinOp(Outer(), std::move(bad_inner), std::move(bad_spec));
  ASSERT_TRUE(bad->Open(&ctx_).ok());
  RowBatch batch(RowBatch::kDefaultCapacity);
  EXPECT_FALSE(bad->NextBatch(&batch).ok());
  bad->Close();
}

TEST_F(JoinKindTest, NlOpAllKind) {
  // outer.0 <> ALL(inner): NOT IN semantics.
  JoinSpec spec;
  spec.kind = JoinKind::kOpAll;
  spec.inner_width = 1;
  spec.cmp_op = ast::BinaryOp::kNe;
  spec.quant_operand = Slot(0);
  auto join = exec::MakeNlJoinOp(Outer(), Inner(), std::move(spec));
  std::vector<Row> rows = RunOp(join.get(), &ctx_);
  ASSERT_EQ(rows.size(), 1u);  // only 1; NULL folds to unknown -> reject
  EXPECT_EQ(rows[0][0], Value::Int(1));
}

TEST_F(JoinKindTest, HashJoinKindsAgreeWithNl) {
  for (JoinKind kind : {JoinKind::kRegular, JoinKind::kExists, JoinKind::kAnti,
                        JoinKind::kLeftOuter}) {
    JoinSpec nl_spec = EqSpec(kind);
    auto nl = exec::MakeNlJoinOp(Outer(), Inner(), std::move(nl_spec));
    std::vector<Row> expected = RunOp(nl.get(), &ctx_);

    JoinSpec hash_spec;
    hash_spec.kind = kind;
    hash_spec.inner_width = 1;
    auto hash = exec::MakeHashJoinOp(Outer(), Inner(), {{0, 0}},
                                     std::move(hash_spec));
    std::vector<Row> actual = RunOp(hash.get(), &ctx_);

    std::sort(expected.begin(), expected.end(),
              [](const Row& a, const Row& b) { return a.CompareTotal(b) < 0; });
    std::sort(actual.begin(), actual.end(),
              [](const Row& a, const Row& b) { return a.CompareTotal(b) < 0; });
    EXPECT_EQ(expected, actual) << "kind " << optimizer::JoinKindName(kind);
  }
}

TEST_F(JoinKindTest, MergeJoinKindsAgreeWithNl) {
  for (JoinKind kind :
       {JoinKind::kRegular, JoinKind::kExists, JoinKind::kLeftOuter}) {
    JoinSpec nl_spec = EqSpec(kind);
    auto nl = exec::MakeNlJoinOp(Outer(), Inner(), std::move(nl_spec));
    std::vector<Row> expected = RunOp(nl.get(), &ctx_);

    JoinSpec merge_spec;
    merge_spec.kind = kind;
    merge_spec.inner_width = 1;
    // Sort both sides first (glue would have done this).
    auto sorted_outer = exec::MakeSortOp(Outer(), {{0, true}});
    auto sorted_inner = exec::MakeSortOp(Inner(), {{0, true}});
    auto merge =
        exec::MakeMergeJoinOp(std::move(sorted_outer), std::move(sorted_inner),
                              {{0, 0}}, std::move(merge_spec));
    std::vector<Row> actual = RunOp(merge.get(), &ctx_);

    std::sort(expected.begin(), expected.end(),
              [](const Row& a, const Row& b) { return a.CompareTotal(b) < 0; });
    std::sort(actual.begin(), actual.end(),
              [](const Row& a, const Row& b) { return a.CompareTotal(b) < 0; });
    EXPECT_EQ(expected, actual) << "kind " << optimizer::JoinKindName(kind);
  }
}

TEST_F(JoinKindTest, HashJoinNullKeysThreeValuedSemantics) {
  // NULL join keys on *either* side must follow three-valued logic:
  // NULL = x is unknown, so a NULL inner key matches nothing (invisible
  // to regular/semi matching, cannot block anti), and a NULL outer key
  // probes nothing (dropped by regular/semi, null-padded by left-outer,
  // emitted by anti -- NOT EXISTS semantics).
  auto inner_with_nulls = [] {
    return exec::MakeValuesOp({R({Value::Int(2)}), R({Value::Null()}),
                               R({Value::Int(3)}), R({Value::Null()})});
  };
  auto run = [&](JoinKind kind) {
    JoinSpec spec;
    spec.kind = kind;
    spec.inner_width = 1;
    auto join = exec::MakeHashJoinOp(Outer(), inner_with_nulls(), {{0, 0}},
                                     std::move(spec));
    std::vector<Row> rows = RunOp(join.get(), &ctx_);
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.CompareTotal(b) < 0; });
    return rows;
  };

  std::vector<Row> regular = run(JoinKind::kRegular);
  ASSERT_EQ(regular.size(), 2u);  // (2,2), (3,3); NULL keys never match
  EXPECT_EQ(regular[0], R({Value::Int(2), Value::Int(2)}));
  EXPECT_EQ(regular[1], R({Value::Int(3), Value::Int(3)}));

  std::vector<Row> semi = run(JoinKind::kExists);
  ASSERT_EQ(semi.size(), 2u);
  EXPECT_EQ(semi[0], R({Value::Int(2)}));
  EXPECT_EQ(semi[1], R({Value::Int(3)}));

  std::vector<Row> anti = run(JoinKind::kAnti);
  ASSERT_EQ(anti.size(), 2u);  // 1 and NULL: neither has a match
  EXPECT_TRUE(anti[0][0].is_null());
  EXPECT_EQ(anti[1], R({Value::Int(1)}));

  std::vector<Row> outer = run(JoinKind::kLeftOuter);
  ASSERT_EQ(outer.size(), 4u);
  EXPECT_TRUE(outer[0][0].is_null());  // NULL outer, null-padded
  EXPECT_TRUE(outer[0][1].is_null());
  EXPECT_EQ(outer[1], R({Value::Int(1), Value::Null()}));  // unmatched 1
  EXPECT_EQ(outer[2], R({Value::Int(2), Value::Int(2)}));
  EXPECT_EQ(outer[3], R({Value::Int(3), Value::Int(3)}));

  // And the NL join -- the semantic reference -- agrees kind by kind.
  for (JoinKind kind : {JoinKind::kRegular, JoinKind::kExists, JoinKind::kAnti,
                        JoinKind::kLeftOuter}) {
    auto nl = exec::MakeNlJoinOp(Outer(), inner_with_nulls(), EqSpec(kind));
    std::vector<Row> expected = RunOp(nl.get(), &ctx_);
    std::sort(expected.begin(), expected.end(),
              [](const Row& a, const Row& b) { return a.CompareTotal(b) < 0; });
    EXPECT_EQ(expected, run(kind)) << "kind " << optimizer::JoinKindName(kind);
  }
}

TEST_F(JoinKindTest, HashJoinRejectsQuantifiedCompare) {
  // Quantified compares (x <op> ALL/ANY inner) need per-outer verdict
  // folds that the hash probe cannot provide; the operator must refuse
  // at Open rather than silently compute regular-join semantics.
  JoinSpec spec;
  spec.kind = JoinKind::kOpAll;
  spec.inner_width = 1;
  spec.cmp_op = ast::BinaryOp::kNe;
  spec.quant_operand = Slot(0);
  auto join =
      exec::MakeHashJoinOp(Outer(), Inner(), {{0, 0}}, std::move(spec));
  EXPECT_FALSE(join->Open(&ctx_).ok());
}

TEST_F(JoinKindTest, HashJoinRejectsUnsupportedKinds) {
  for (JoinKind kind : {JoinKind::kScalar, JoinKind::kOpAll,
                        JoinKind::kSetPred}) {
    JoinSpec spec;
    spec.kind = kind;
    spec.inner_width = 1;
    auto join =
        exec::MakeHashJoinOp(Outer(), Inner(), {{0, 0}}, std::move(spec));
    EXPECT_FALSE(join->Open(&ctx_).ok())
        << "kind " << optimizer::JoinKindName(kind);
  }
}

TEST_F(JoinKindTest, MergeJoinRejectsUnsupportedKinds) {
  // kAnti needs the full-inner-scan verdict; quantified compares need
  // the fold. Both must fail loudly at Open.
  JoinSpec anti;
  anti.kind = JoinKind::kAnti;
  anti.inner_width = 1;
  auto merge =
      exec::MakeMergeJoinOp(Outer(), Inner(), {{0, 0}}, std::move(anti));
  EXPECT_FALSE(merge->Open(&ctx_).ok());

  JoinSpec quant;
  quant.kind = JoinKind::kRegular;
  quant.inner_width = 1;
  quant.cmp_op = ast::BinaryOp::kNe;
  quant.quant_operand = Slot(0);
  auto merge2 =
      exec::MakeMergeJoinOp(Outer(), Inner(), {{0, 0}}, std::move(quant));
  EXPECT_FALSE(merge2->Open(&ctx_).ok());
}

// ---------------------------------------------------------------------------
// What a join reads: the nested-loop join reads both inputs, and the merge
// join its outer, one row at a time. Each such input is pulled for exactly
// the rows the join's output needs, so its counts are the same at every
// batch size and a LIMIT above the join never overfetches.
// ---------------------------------------------------------------------------

class JoinInputTest : public ExecOpTest {
 protected:
  /// rows_out and next_calls an input must show.
  struct Pulls {
    uint64_t rows = 0;
    uint64_t calls = 0;
  };
  using MakeJoin =
      std::function<OperatorPtr(obs::OperatorStats*, obs::OperatorStats*)>;

  /// 1, 2, 3, 5, 6, 7, 8, 9, 10: a FILTER over 1..10 that drops 4 by
  /// narrowing the selection vector of the batch it is handed.
  static OperatorPtr FilteredOuter(obs::OperatorStats* stats) {
    std::vector<Row> rows;
    for (int i = 1; i <= 10; ++i) rows.push_back(R({Value::Int(i)}));
    std::vector<CompiledExprPtr> preds;
    preds.push_back(Cmp(ast::BinaryOp::kNe, Slot(0), Lit(Value::Int(4))));
    OperatorPtr op = exec::MakeFilterOp(exec::MakeValuesOp(std::move(rows)),
                                        std::move(preds));
    op->set_stats(stats);
    return op;
  }
  /// 2, 3, 5, 6, 9: a DISTINCT over 2, 3, 3, 5, 6, 6, 9.
  static OperatorPtr DistinctInner(obs::OperatorStats* stats) {
    std::vector<Row> rows;
    for (int v : {2, 3, 3, 5, 6, 6, 9}) rows.push_back(R({Value::Int(v)}));
    OperatorPtr op = exec::MakeDistinctOp(exec::MakeValuesOp(std::move(rows)));
    op->set_stats(stats);
    return op;
  }
  /// outer.0 = inner.0, of `kind`.
  static JoinSpec EqSpec(JoinKind kind) {
    JoinSpec spec;
    spec.kind = kind;
    spec.inner_width = 1;
    spec.predicates.push_back(Cmp(ast::BinaryOp::kEq, Slot(0), Slot(1)));
    return spec;
  }
  static MakeJoin Nl(JoinKind kind) {
    return [kind](obs::OperatorStats* outer, obs::OperatorStats* inner) {
      return exec::MakeNlJoinOp(FilteredOuter(outer), DistinctInner(inner),
                                EqSpec(kind));
    };
  }
  /// The merge join drains its inner at Open; only its outer is read a
  /// row at a time, so the inner gets no stats.
  static MakeJoin Merge(JoinKind kind) {
    return [kind](obs::OperatorStats* outer, obs::OperatorStats*) {
      JoinSpec spec = EqSpec(kind);
      spec.predicates.clear();
      return exec::MakeMergeJoinOp(FilteredOuter(outer), DistinctInner(nullptr),
                                   {{0, 0}}, std::move(spec));
    };
  }

  /// Drains a fresh join under LIMIT `limit` at batch sizes 1, 7 and 1024:
  /// the same `rows` come out each time, and the inputs show `outer` and
  /// `inner` pulls.
  void ExpectPulls(const MakeJoin& make, int64_t limit, size_t rows,
                   Pulls outer, Pulls inner) {
    std::vector<Row> first;
    for (size_t batch : {1, 7, 1024}) {
      SCOPED_TRACE("batch size " + std::to_string(batch));
      obs::OperatorStats outer_stats, inner_stats;
      OperatorPtr root =
          exec::MakeLimitOp(make(&outer_stats, &inner_stats), limit);
      ctx_.set_batch_size(batch);
      ASSERT_TRUE(root->Open(&ctx_).ok());
      Result<std::vector<Row>> out =
          exec::DrainOperator(root.get(), batch, 0, &ctx_);
      root->Close();
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(out->size(), rows);
      if (batch == 1) first = *out;
      EXPECT_EQ(*out, first);
      EXPECT_EQ(outer_stats.rows_out, outer.rows);
      EXPECT_EQ(outer_stats.next_calls, outer.calls);
      EXPECT_EQ(inner_stats.rows_out, inner.rows);
      EXPECT_EQ(inner_stats.next_calls, inner.calls);
    }
  }
};

// Outer 1, 2, 3, 5, ...; inner 2, 3, 5, 6, 9. A full inner pass is 5 rows
// in 6 calls (the last one finds the end).

TEST_F(JoinInputTest, NlRegularStopsMidInnerPass) {
  // Outers 1, 2, 3 read the inner through; outer 5 stops at inner 5,
  // the third match.
  ExpectPulls(Nl(JoinKind::kRegular), 3, 3, {4, 4}, {3 * 5 + 3, 3 * 6 + 3});
}

TEST_F(JoinInputTest, NlLeftOuterPadsAfterAFullPass) {
  // 1 pads, 2, 3, 5 match and read on to the end, 6 stops at its match.
  ExpectPulls(Nl(JoinKind::kLeftOuter), 5, 5, {5, 5}, {4 * 5 + 4, 4 * 6 + 4});
}

TEST_F(JoinInputTest, NlExistsStopsAtTheFirstMatch) {
  // 1 reads the inner through; 2 and 3 stop at their match.
  ExpectPulls(Nl(JoinKind::kExists), 2, 2, {3, 3}, {5 + 1 + 2, 6 + 1 + 2});
}

TEST_F(JoinInputTest, NlAntiReadsThroughOnlyUnmatchedOuters) {
  // 1, 7 and 8 qualify after full passes; 2, 3, 5, 6 stop at a match.
  ExpectPulls(Nl(JoinKind::kAnti), 3, 3, {7, 7},
              {3 * 5 + 1 + 2 + 3 + 4, 3 * 6 + 1 + 2 + 3 + 4});
}

TEST_F(JoinInputTest, NlScalarReadsTheWholeInnerPerOuter) {
  ExpectPulls(Nl(JoinKind::kScalar), 3, 3, {3, 3}, {3 * 5, 3 * 6});
}

TEST_F(JoinInputTest, MergeReadsItsOuterOneRowAtATime) {
  ExpectPulls(Merge(JoinKind::kRegular), 3, 3, {4, 4}, {0, 0});
  // 1 and 7 pad.
  ExpectPulls(Merge(JoinKind::kLeftOuter), 6, 6, {6, 6}, {0, 0});
}

TEST_F(JoinInputTest, DrainedJoinPullsItsOuterOnceAtTheEnd) {
  // Joins 2, 3, 5, 6, 9 under a LIMIT it never reaches: every outer row
  // is read, then one call finds the end and the join asks no more.
  ExpectPulls(Nl(JoinKind::kRegular), 100, 5, {9, 10}, {9 * 5, 9 * 6});
  ExpectPulls(Merge(JoinKind::kRegular), 100, 5, {9, 10}, {0, 0});
}

// ---------------------------------------------------------------------------
// Correlated-subquery memo cache (SubqueryRuntime)
// ---------------------------------------------------------------------------

TEST_F(ExecOpTest, SubqueryMemoNullCorrelationKeys) {
  // The memo key is the correlation-value row, compared structurally by
  // Row::operator== (NULL == NULL there, unlike SQL). All NULL-correlated
  // outer rows therefore share ONE memo entry. That aliasing is safe --
  // the subquery result is a pure function of the correlation values --
  // but this test pins it: NULL rows must get the NULL-key result (empty
  // under an equality predicate), never a non-NULL row's cached rows.
  static qgm::Quantifier q;  // identity only; never dereferenced
  auto make_plan = [] {
    auto param = std::make_unique<exec::CompiledExpr>();
    param->kind = qgm::Expr::Kind::kColumnRef;
    param->slot = -1;
    param->param_q = &q;
    param->param_col = 0;
    std::vector<CompiledExprPtr> preds;
    preds.push_back(Cmp(ast::BinaryOp::kEq, std::move(param), Slot(0)));
    return exec::MakeFilterOp(
        exec::MakeValuesOp({R({Value::Int(10)}), R({Value::Int(20)})}),
        std::move(preds));
  };
  exec::SubqueryRuntime runtime(
      make_plan(), {{&q, 0, /*outer_slot=*/0}}, exec::SubqueryCacheMode::kMemo);

  auto eval = [&](Value correlation) {
    Result<const std::vector<Row>*> r =
        runtime.Evaluate(R({std::move(correlation)}), &ctx_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? **r : std::vector<Row>{};
  };

  EXPECT_EQ(eval(Value::Int(10)), (std::vector<Row>{R({Value::Int(10)})}));
  EXPECT_TRUE(eval(Value::Null()).empty());  // NULL = x is unknown
  EXPECT_EQ(ctx_.stats().subquery_evaluations, 2u);

  // Replays: both keys must hit the cache and return their own results.
  EXPECT_EQ(eval(Value::Int(10)), (std::vector<Row>{R({Value::Int(10)})}));
  EXPECT_TRUE(eval(Value::Null()).empty());
  EXPECT_TRUE(eval(Value::Null()).empty());
  EXPECT_EQ(ctx_.stats().subquery_evaluations, 2u);  // no re-execution
  EXPECT_EQ(ctx_.stats().subquery_cache_hits, 3u);
}

TEST(SubqueryMemoEndToEnd, NullCorrelationValuesStayDistinct) {
  // End-to-end pin of the same property through the engine: outer rows
  // with NULL correlation values must all see the empty-match result,
  // regardless of how the subquery is cached or decorrelated.
  Database db;
  auto exec_ok = [&](const std::string& sql) {
    Result<ResultSet> r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  exec_ok("CREATE TABLE outer_t (id INT, k INT)");
  exec_ok("CREATE TABLE inner_t (k INT, v INT)");
  exec_ok("INSERT INTO outer_t VALUES "
          "(1, 10), (2, NULL), (3, 10), (4, NULL), (5, 20)");
  exec_ok("INSERT INTO inner_t VALUES (10, 100), (20, 200), (NULL, 999)");
  Result<std::vector<Row>> r = db.Query(
      "SELECT id, (SELECT SUM(v) FROM inner_t WHERE inner_t.k = outer_t.k) "
      "FROM outer_t ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<Row>& rows = *r;
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][1], Value::Int(100));  // k=10
  EXPECT_TRUE(rows[1][1].is_null());       // k=NULL: no inner row matches
  EXPECT_EQ(rows[2][1], Value::Int(100));  // k=10 again (cacheable)
  EXPECT_TRUE(rows[3][1].is_null());       // k=NULL again: must stay NULL
  EXPECT_EQ(rows[4][1], Value::Int(200));  // k=20
}

// ---------------------------------------------------------------------------
// Other operators
// ---------------------------------------------------------------------------

TEST_F(ExecOpTest, SortStability) {
  auto values = exec::MakeValuesOp({R({Value::Int(2), Value::String("b")}),
                                    R({Value::Int(1), Value::String("x")}),
                                    R({Value::Int(2), Value::String("a")})});
  auto sort = exec::MakeSortOp(std::move(values), {{0, true}});
  std::vector<Row> rows = RunOp(sort.get(), &ctx_);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
  // Stable: 'b' before 'a' (input order preserved among equal keys).
  EXPECT_EQ(rows[1][1], Value::String("b"));
}

TEST_F(ExecOpTest, SortDescendingWithNullsFirst) {
  auto values = exec::MakeValuesOp(
      {R({Value::Int(1)}), R({Value::Null()}), R({Value::Int(3)})});
  auto sort = exec::MakeSortOp(std::move(values), {{0, false}});
  std::vector<Row> rows = RunOp(sort.get(), &ctx_);
  EXPECT_EQ(rows[0][0], Value::Int(3));
  EXPECT_TRUE(rows[2][0].is_null());  // nulls last on DESC
}

TEST_F(ExecOpTest, TempMaterializesOnce) {
  // A Values op wrapped in TEMP replays without re-opening the input.
  auto temp = exec::MakeTempOp(
      exec::MakeValuesOp({R({Value::Int(1)}), R({Value::Int(2)})}));
  EXPECT_EQ(RunOp(temp.get(), &ctx_).size(), 2u);
  EXPECT_EQ(RunOp(temp.get(), &ctx_).size(), 2u);  // replay
}

TEST_F(ExecOpTest, OrRouteShortCircuits) {
  // Branch 1 accepts even numbers; branch 2 would fail on evaluation
  // (division by zero) but is never reached for them.
  auto values = exec::MakeValuesOp({R({Value::Int(2)}), R({Value::Int(4)})});
  std::vector<std::vector<CompiledExprPtr>> branches;
  std::vector<CompiledExprPtr> b1;
  b1.push_back(Cmp(ast::BinaryOp::kEq,
                   Cmp(ast::BinaryOp::kMod, Slot(0), Lit(Value::Int(2))),
                   Lit(Value::Int(0))));
  branches.push_back(std::move(b1));
  std::vector<CompiledExprPtr> b2;
  b2.push_back(Cmp(ast::BinaryOp::kGt,
                   Cmp(ast::BinaryOp::kDiv, Slot(0), Lit(Value::Int(0))),
                   Lit(Value::Int(0))));
  branches.push_back(std::move(b2));
  auto orop = exec::MakeOrRouteOp(std::move(values), std::move(branches));
  std::vector<Row> rows = RunOp(orop.get(), &ctx_);
  EXPECT_EQ(rows.size(), 2u);  // no division-by-zero error surfaced
}

TEST_F(ExecOpTest, SetOpCountingSemantics) {
  auto l = [] {
    return exec::MakeValuesOp({R({Value::Int(1)}), R({Value::Int(1)}),
                               R({Value::Int(2)}), R({Value::Int(3)})});
  };
  auto r = [] {
    return exec::MakeValuesOp(
        {R({Value::Int(1)}), R({Value::Int(3)}), R({Value::Int(4)})});
  };
  auto run = [&](ast::SetOpKind op, bool all) {
    auto setop = exec::MakeSetOpOp(l(), r(), op, all);
    return RunOp(setop.get(), &ctx_).size();
  };
  EXPECT_EQ(run(ast::SetOpKind::kUnion, false), 4u);      // 1 2 3 4
  EXPECT_EQ(run(ast::SetOpKind::kUnion, true), 7u);       // bag union
  EXPECT_EQ(run(ast::SetOpKind::kIntersect, false), 2u);  // 1 3
  EXPECT_EQ(run(ast::SetOpKind::kIntersect, true), 2u);   // min counts
  EXPECT_EQ(run(ast::SetOpKind::kExcept, false), 1u);     // 2
  EXPECT_EQ(run(ast::SetOpKind::kExcept, true), 2u);      // 1 (2-1) and 2
}

TEST_F(ExecOpTest, LimitStopsEarly) {
  auto values = exec::MakeValuesOp(
      {R({Value::Int(1)}), R({Value::Int(2)}), R({Value::Int(3)})});
  auto limit = exec::MakeLimitOp(std::move(values), 2);
  EXPECT_EQ(RunOp(limit.get(), &ctx_).size(), 2u);
}

// ---------------------------------------------------------------------------
// Subquery runtime: evaluate-on-demand + caching
// ---------------------------------------------------------------------------

TEST_F(ExecOpTest, SubqueryCacheModes) {
  // Correlated-ish subquery: a Values subplan, parameterized by nothing,
  // evaluated per outer row of a filter.
  for (auto mode : {exec::SubqueryCacheMode::kNone,
                    exec::SubqueryCacheMode::kLastValue,
                    exec::SubqueryCacheMode::kMemo}) {
    ExecContext ctx(&storage_, &catalog_);
    auto subplan = exec::MakeValuesOp({R({Value::Int(2)})});
    auto runtime = std::make_shared<exec::SubqueryRuntime>(
        std::move(subplan), std::vector<exec::SubqueryRuntime::ParamSource>{},
        mode);
    Row outer;
    for (int i = 0; i < 5; ++i) {
      Result<const std::vector<Row>*> rows = runtime->Evaluate(outer, &ctx);
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ((*rows.value())[0][0], Value::Int(2));
    }
    if (mode == exec::SubqueryCacheMode::kNone) {
      EXPECT_EQ(ctx.stats().subquery_evaluations, 5u);
    } else {
      EXPECT_EQ(ctx.stats().subquery_evaluations, 1u);
      EXPECT_EQ(ctx.stats().subquery_cache_hits, 4u);
    }
  }
}

// ---------------------------------------------------------------------------
// Recursion driver
// ---------------------------------------------------------------------------

TEST_F(ExecOpTest, ShipCountsRows) {
  auto ship = exec::MakeShipOp(
      exec::MakeValuesOp({R({Value::Int(1)}), R({Value::Int(2)})}), 0);
  EXPECT_EQ(RunOp(ship.get(), &ctx_).size(), 2u);
  EXPECT_EQ(ctx_.stats().shipped_rows, 2u);
}

TEST_F(ExecOpTest, IterRefOutsideRecursionIsAnError) {
  qgm::Graph graph;
  qgm::Box* recursion = graph.NewBox(qgm::BoxKind::kRecursiveUnion);
  auto iter = exec::MakeIterRefOp(recursion);
  EXPECT_FALSE(iter->Open(&ctx_).ok());
}

TEST_F(ExecOpTest, SharedTempBuildsOnceAcrossConsumers) {
  // Two operators with the same shared key: the second Open reads the
  // first's materialization.
  const int kKey = 0;
  auto a = exec::MakeSharedTempOp(
      exec::MakeValuesOp({R({Value::Int(1)})}), &kKey);
  auto b = exec::MakeSharedTempOp(
      exec::MakeValuesOp({R({Value::Int(999)})}), &kKey);  // never built
  EXPECT_EQ(RunOp(a.get(), &ctx_).size(), 1u);
  std::vector<Row> second = RunOp(b.get(), &ctx_);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0][0], Value::Int(1));  // shared copy, not 999
  EXPECT_EQ(ctx_.stats().shared_materializations, 1u);
}

TEST_F(ExecOpTest, DependentNlJoinRebindsParams) {
  // Inner is an empty-layout compiled expression reading a parameter the
  // join binds from each outer row: a lateral-style evaluation.
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE n (k INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO n VALUES (1), (2), (3)").ok());
  // The subquery depends on the outer row's k; converted E->F by Rule 1,
  // the merge is blocked only when dedup is required — force the lateral
  // case with a correlated scalar in FROM-position semantics instead:
  Result<std::vector<Row>> rows = db.Query(
      "SELECT k, (SELECT COUNT(*) FROM n m WHERE m.k <= n.k) FROM n "
      "ORDER BY k");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0][1], Value::Int(1));
  EXPECT_EQ((*rows)[2][1], Value::Int(3));
}

TEST_F(ExecOpTest, RecursionTerminatesOnCycles) {
  // Edges forming a cycle 1->2->3->1; transitive closure from 1 must
  // terminate with {1,2,3} reachable.
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE edges (src INT, dst INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO edges VALUES (1,2),(2,3),(3,1)").ok());
  Result<std::vector<Row>> rows = db.Query(
      "WITH RECURSIVE reach(n) AS (SELECT 1 UNION ALL "
      "SELECT e.dst FROM edges e, reach r WHERE e.src = r.n) "
      "SELECT COUNT(*) FROM reach");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0], Value::Int(3));
  EXPECT_GE(db.last_metrics().exec_stats.recursion_iterations, 3u);
}

}  // namespace
}  // namespace starburst
