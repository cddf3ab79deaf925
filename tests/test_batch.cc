#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/row_batch.h"
#include "engine/database.h"
#include "obs/op_stats.h"

namespace starburst {
namespace {

Row IntRow(int64_t a, int64_t b) {
  return Row({Value::Int(a), Value::Int(b)});
}

// ---------------------------------------------------------------------------
// RowBatch container semantics
// ---------------------------------------------------------------------------

TEST(RowBatchTest, AppendSlotAndPopLast) {
  RowBatch batch(4);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 4u);
  *batch.AppendSlot() = IntRow(1, 10);
  *batch.AppendSlot() = IntRow(2, 20);
  EXPECT_EQ(batch.size(), 2u);
  batch.PopLast();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.row(0)[0].int_value(), 1);
  *batch.AppendSlot() = IntRow(3, 30);
  *batch.AppendSlot() = IntRow(4, 40);
  *batch.AppendSlot() = IntRow(5, 50);
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.size(), 4u);
}

TEST(RowBatchTest, SlotStorageIsReusedAcrossClear) {
  RowBatch batch(2);
  *batch.AppendSlot() = IntRow(1, 2);
  batch.Clear();
  // A fresh AppendSlot hands back the same slot; its Row must be usable
  // (operators clear()+fill the value vector in place).
  Row* slot = batch.AppendSlot();
  slot->values().clear();
  slot->values().push_back(Value::Int(9));
  EXPECT_EQ(batch.row(0)[0].int_value(), 9);
}

TEST(RowBatchTest, FillLimitClampsAndSurvivesClear) {
  RowBatch batch(8);
  batch.set_fill_limit(3);
  EXPECT_EQ(batch.fill_limit(), 3u);
  EXPECT_EQ(batch.remaining(), 3u);
  *batch.AppendSlot() = IntRow(1, 1);
  *batch.AppendSlot() = IntRow(2, 2);
  *batch.AppendSlot() = IntRow(3, 3);
  EXPECT_TRUE(batch.full());  // limited well below capacity
  batch.Clear();
  EXPECT_EQ(batch.fill_limit(), 3u);  // LIMIT persists across refills
  batch.set_fill_limit(100);          // clamped to capacity
  EXPECT_EQ(batch.fill_limit(), 8u);
  batch.set_fill_limit(0);  // clamped up: a batch can always hold one row
  EXPECT_EQ(batch.fill_limit(), 1u);
}

TEST(RowBatchTest, ResetChangesCapacityAndClears) {
  RowBatch batch(4);
  *batch.AppendSlot() = IntRow(1, 1);
  batch.set_fill_limit(2);
  batch.Reset(4);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 4u);
  EXPECT_EQ(batch.fill_limit(), 4u);  // Reset restores the full limit
  batch.Reset(16);
  EXPECT_EQ(batch.capacity(), 16u);
  EXPECT_TRUE(batch.empty());
}

TEST(RowBatchTest, SelectionNarrowsAndCompacts) {
  RowBatch batch(8);
  for (int i = 0; i < 6; ++i) *batch.AppendSlot() = IntRow(i, i * 10);
  EXPECT_FALSE(batch.selection_active());
  batch.SetSelection({1, 3, 5});
  EXPECT_TRUE(batch.selection_active());
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.row(0)[0].int_value(), 1);
  EXPECT_EQ(batch.row(2)[0].int_value(), 5);
  EXPECT_EQ(batch.physical_index(1), 3u);
  EXPECT_EQ(batch.physical_size(), 6u);
  batch.Compact();
  EXPECT_FALSE(batch.selection_active());
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.row(0)[0].int_value(), 1);
  EXPECT_EQ(batch.row(1)[0].int_value(), 3);
  EXPECT_EQ(batch.row(2)[0].int_value(), 5);
}

TEST(RowBatchTest, SelectionComposesThroughSetSelection) {
  RowBatch batch(8);
  for (int i = 0; i < 6; ++i) *batch.AppendSlot() = IntRow(i, 0);
  batch.SetSelection({0, 2, 4});
  // A second narrowing is expressed in physical indices (FilterBatch
  // passes physical_index(i) through).
  batch.SetSelection({2, 4});
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.row(0)[0].int_value(), 2);
  EXPECT_EQ(batch.row(1)[0].int_value(), 4);
}

TEST(RowBatchTest, MoveRowsToHonorsSelectionAndClears) {
  RowBatch batch(8);
  for (int i = 0; i < 5; ++i) *batch.AppendSlot() = IntRow(i, 0);
  batch.SetSelection({0, 2});
  std::vector<Row> out;
  batch.MoveRowsTo(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0].int_value(), 0);
  EXPECT_EQ(out[1][0].int_value(), 2);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(batch.selection_active());
  // Appends again after the move.
  *batch.AppendSlot() = IntRow(7, 7);
  batch.MoveRowsTo(&out);
  EXPECT_EQ(out.size(), 3u);
}

// ---------------------------------------------------------------------------
// Differential corpus: batched execution must be row-identical to the
// row-at-a-time protocol (batch_size = 1, parallelism = 1) on every
// supported operator family.
// ---------------------------------------------------------------------------

struct CorpusQuery {
  const char* sql;
  bool ordered;  // compare in result order instead of sorted
  // Set for a LIMIT without ORDER BY: the same query without the LIMIT.
  // SQL leaves which rows such a LIMIT keeps undefined. Serially the scan
  // order fixes them, but under parallelism the order in which GATHER
  // receives the workers' batches picks them, so there only the row count
  // and that the rows come from this query's result are checked.
  const char* unlimited = nullptr;
};

const CorpusQuery kCorpus[] = {
    {"SELECT k, v, w FROM a", false},
    {"SELECT k, v FROM a WHERE v < 37", false},
    {"SELECT k + v, w FROM a WHERE k % 3 = 0", false},
    {"SELECT k FROM a WHERE v < 20 OR k > 220", false},
    {"SELECT a.k, a.v, b.x FROM a, b WHERE a.k = b.k", false},
    {"SELECT a.k FROM a, b WHERE a.k = b.k AND a.v < b.x", false},
    {"SELECT v, COUNT(*), SUM(k) FROM a GROUP BY v", false},
    {"SELECT DISTINCT v FROM a", false},
    {"SELECT k, v FROM a ORDER BY v, k LIMIT 100", true},
    {"SELECT k FROM a LIMIT 37", false, "SELECT k FROM a"},
    {"SELECT k FROM a WHERE EXISTS "
     "(SELECT 1 FROM b WHERE b.k = a.k AND b.x > 100)",
     false},
    {"SELECT k FROM a WHERE v > (SELECT AVG(x) FROM b WHERE b.k = a.k)",
     false},
    {"SELECT k FROM a WHERE k IN (SELECT k FROM b)", false},
    {"SELECT v FROM a UNION SELECT x FROM b", false},
};

class BatchDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Must("CREATE TABLE a (k INT, v INT, w STRING)");
    Must("CREATE TABLE b (k INT, x INT)");
    // NULL join keys on both sides: equality joins must drop them, outer
    // semantics in subqueries must keep UNKNOWN behavior identical.
    for (int base = 0; base < 2000; base += 500) {
      std::string sql = "INSERT INTO a VALUES ";
      for (int i = base; i < base + 500; ++i) {
        if (i > base) sql += ", ";
        std::string key = i % 17 == 0 ? "NULL" : std::to_string(i % 250);
        sql += "(" + key + ", " + std::to_string((i * 7919) % 100) + ", 'w" +
               std::to_string(i % 23) + "')";
      }
      Must(sql);
    }
    std::string sql = "INSERT INTO b VALUES ";
    for (int i = 0; i < 300; ++i) {
      if (i > 0) sql += ", ";
      std::string key = i % 13 == 0 ? "NULL" : std::to_string(i % 100);
      sql += "(" + key + ", " + std::to_string((i * 104729) % 500) + ")";
    }
    Must(sql);
    ASSERT_TRUE(db_.AnalyzeAll().ok());
    // Small tables must still parallelize when asked.
    Must("SET parallel_min_rows = 0");
  }

  void Must(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n  in: " << sql;
  }

  std::vector<Row> Run(const std::string& sql, bool ordered) {
    Result<std::vector<Row>> r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n  in: " << sql;
    if (!r.ok()) return {};
    std::vector<Row> rows = r.TakeValue();
    if (!ordered) std::sort(rows.begin(), rows.end(), RowLess);
    return rows;
  }

  static bool RowLess(const Row& a, const Row& b) {
    return a.CompareTotal(b) < 0;
  }

  void SetExec(size_t batch_size, size_t parallelism) {
    Must("SET BATCH_SIZE = " + std::to_string(batch_size));
    Must("SET PARALLELISM = " + std::to_string(parallelism));
  }

  Database db_;
};

TEST_F(BatchDifferentialTest, BatchSizesAndParallelismAgree) {
  // Reference: the pinned row-at-a-time protocol.
  SetExec(1, 1);
  std::vector<std::vector<Row>> reference;
  std::vector<std::vector<Row>> unlimited;  // sorted; empty unless set
  for (const CorpusQuery& q : kCorpus) {
    reference.push_back(Run(q.sql, q.ordered));
    unlimited.push_back(q.unlimited != nullptr ? Run(q.unlimited, false)
                                               : std::vector<Row>{});
  }
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    for (size_t parallelism : {size_t{1}, size_t{4}}) {
      if (batch_size == 1 && parallelism == 1) continue;
      SetExec(batch_size, parallelism);
      for (size_t i = 0; i < std::size(kCorpus); ++i) {
        std::vector<Row> got = Run(kCorpus[i].sql, kCorpus[i].ordered);
        if (kCorpus[i].unlimited != nullptr && parallelism > 1) {
          EXPECT_EQ(got.size(), reference[i].size())
              << "batch_size=" << batch_size << " parallelism=" << parallelism
              << "\n  in: " << kCorpus[i].sql;
          EXPECT_TRUE(std::includes(unlimited[i].begin(), unlimited[i].end(),
                                    got.begin(), got.end(), RowLess))
              << "rows not drawn from " << kCorpus[i].unlimited
              << "\n  batch_size=" << batch_size
              << " parallelism=" << parallelism
              << "\n  in: " << kCorpus[i].sql;
          continue;
        }
        EXPECT_EQ(got, reference[i])
            << "batch_size=" << batch_size << " parallelism=" << parallelism
            << "\n  in: " << kCorpus[i].sql;
      }
    }
  }
}

TEST_F(BatchDifferentialTest, LimitDoesNotOverfetchAcrossBatchSizes) {
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    SetExec(batch_size, 1);
    std::vector<Row> rows = Run("SELECT k FROM a LIMIT 37", false);
    EXPECT_EQ(rows.size(), 37u) << "batch_size=" << batch_size;
  }
}

TEST_F(BatchDifferentialTest, DependentJoinReopensUnderEveryCacheMode) {
  // Correlated subqueries re-Open their inner plan per distinct outer row;
  // with caching off they re-Open for EVERY outer row. Batched outers must
  // bind the right correlation frame for each row in the batch.
  const std::string q =
      "SELECT k FROM a WHERE v > (SELECT AVG(x) FROM b WHERE b.k = a.k)";
  SetExec(1, 1);
  std::vector<Row> reference = Run(q, false);
  for (const char* mode : {"NONE", "LAST_VALUE", "MEMO"}) {
    Must(std::string("SET EXEC.CACHE_MODE = ") + mode);
    for (size_t batch_size : {size_t{7}, size_t{1024}}) {
      SetExec(batch_size, 1);
      EXPECT_EQ(Run(q, false), reference)
          << "cache_mode=" << mode << " batch_size=" << batch_size;
    }
  }
}

void CollectActuals(const obs::PlanStatsTree::Node* node,
                    std::vector<std::pair<std::string, uint64_t>>* rows_out,
                    std::vector<uint64_t>* next_calls) {
  rows_out->emplace_back(node->name, node->actual.rows_out.load());
  next_calls->push_back(node->actual.next_calls.load());
  for (const obs::PlanStatsTree::Node* c : node->children) {
    CollectActuals(c, rows_out, next_calls);
  }
}

TEST_F(BatchDifferentialTest, ExplainAnalyzeRowCountsExactAcrossBatchSizes) {
  Must("SET COLLECT_OP_STATS = 1");
  const std::string q = "SELECT a.k, b.x FROM a, b WHERE a.k = b.k AND a.v < 50";

  SetExec(1, 1);
  Must(q);
  std::vector<std::pair<std::string, uint64_t>> rows_ref;
  std::vector<uint64_t> calls_ref;
  ASSERT_NE(db_.last_metrics().op_stats, nullptr);
  ASSERT_FALSE(db_.last_metrics().op_stats->roots().empty());
  CollectActuals(db_.last_metrics().op_stats->roots()[0], &rows_ref,
                 &calls_ref);

  SetExec(1024, 1);
  Must(q);
  std::vector<std::pair<std::string, uint64_t>> rows_batched;
  std::vector<uint64_t> calls_batched;
  CollectActuals(db_.last_metrics().op_stats->roots()[0], &rows_batched,
                 &calls_batched);

  // Per-operator row counts are EXACT at any batch size; call counts are
  // amortized (never more calls than the row-at-a-time protocol).
  EXPECT_EQ(rows_batched, rows_ref);
  ASSERT_EQ(calls_batched.size(), calls_ref.size());
  for (size_t i = 0; i < calls_ref.size(); ++i) {
    EXPECT_LE(calls_batched[i], calls_ref[i]) << rows_ref[i].first;
  }
}

}  // namespace
}  // namespace starburst
