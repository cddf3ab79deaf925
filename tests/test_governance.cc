#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "engine/admission.h"
#include "engine/database.h"
#include "engine/statement_registry.h"
#include "storage/spill_file.h"

namespace starburst {
namespace {

// ---------------------------------------------------------------------------
// CancelToken
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, KillLatchesCancelled) {
  CancelToken token;
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.cancelled());
  token.Kill();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  // The reason sticks: repeat checks report the same status.
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  token.Reset();
  EXPECT_TRUE(token.Check().ok());
}

TEST(CancelTokenTest, DeadlineLatchesTimeout) {
  CancelToken token;
  token.SetTimeoutMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(token.Check().code(), StatusCode::kTimeout);
  // A later Kill cannot overwrite the latched deadline.
  token.Kill();
  EXPECT_EQ(token.Check().code(), StatusCode::kTimeout);
  EXPECT_EQ(token.reason(), CancelToken::Reason::kDeadline);
}

TEST(CancelTokenTest, FirstReasonWins) {
  CancelToken token;
  token.SetTimeoutMs(60000);  // armed, far away
  token.Kill();
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ZeroDisarmsDeadline) {
  CancelToken token;
  token.SetTimeoutMs(1);
  token.SetTimeoutMs(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(token.Check().ok());
}

// ---------------------------------------------------------------------------
// StatementRegistry
// ---------------------------------------------------------------------------

TEST(StatementRegistryTest, RegisterFinishSnapshot) {
  StatementRegistry registry;
  CancelToken token;
  registry.Register(1, "SELECT 1", 1000, &token);
  EXPECT_EQ(registry.live_count(), 1u);
  registry.SetPhase(1, "execute");

  std::vector<StatementSnapshot> live = registry.Snapshot();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].status, "running");
  EXPECT_EQ(live[0].phase, "execute");
  EXPECT_EQ(live[0].start_ts_us, 1000);

  registry.Finish(1, "ok", 4096, 250);
  EXPECT_EQ(registry.live_count(), 0u);
  std::vector<StatementSnapshot> done = registry.Snapshot();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, "ok");
  EXPECT_EQ(done[0].peak_memory_bytes, 4096u);
  EXPECT_EQ(done[0].total_us, 250);
}

TEST(StatementRegistryTest, KillTripsTokenAndUnknownIdIsNotFound) {
  StatementRegistry registry;
  CancelToken token;
  registry.Register(7, "SELECT 1", 0, &token);
  EXPECT_EQ(registry.Kill(99).code(), StatusCode::kNotFound);
  EXPECT_TRUE(registry.Kill(7).ok());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  registry.Finish(7, "cancelled", 0, 0);
  // Finished statements cannot be killed.
  EXPECT_EQ(registry.Kill(7).code(), StatusCode::kNotFound);
}

TEST(StatementRegistryTest, TruncatesLongSqlAndBoundsHistory) {
  StatementRegistry registry;
  registry.set_history_capacity(2);
  CancelToken token;
  std::string long_sql(StatementRegistry::kMaxSqlLength + 100, 'X');
  for (int64_t id = 1; id <= 4; ++id) {
    registry.Register(id, long_sql, 0, &token);
    registry.Finish(id, "ok", 0, 0);
  }
  std::vector<StatementSnapshot> snaps = registry.Snapshot();
  ASSERT_EQ(snaps.size(), 2u);  // only the newest two retained
  EXPECT_EQ(snaps[0].id, 3);
  EXPECT_EQ(snaps[1].id, 4);
  EXPECT_EQ(snaps[0].sql.size(), StatementRegistry::kMaxSqlLength);
  EXPECT_EQ(snaps[0].sql.substr(StatementRegistry::kMaxSqlLength - 3), "...");
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionTest, DisabledAdmitsEverything) {
  AdmissionController adm;
  Result<AdmissionGrant> grant = adm.Admit(1ull << 40, nullptr);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ((*grant).bytes(), 0u);  // empty grant: nothing reserved
  EXPECT_EQ(adm.stats().in_use_bytes, 0u);
}

TEST(AdmissionTest, OversizedReservationFailsFast) {
  AdmissionController adm;
  adm.SetBudget(1 << 20);
  Result<AdmissionGrant> grant = adm.Admit(2 << 20, nullptr);
  EXPECT_EQ(grant.status().code(), StatusCode::kAborted);
  EXPECT_EQ(adm.stats().rejected_total, 1u);
  // The default (unspecified) reservation is 64 MB — far over 1 MB.
  EXPECT_EQ(adm.Admit(0, nullptr).status().code(), StatusCode::kAborted);
}

TEST(AdmissionTest, GrantReleasesOnDestruction) {
  AdmissionController adm;
  adm.SetBudget(1 << 20);
  {
    Result<AdmissionGrant> grant = adm.Admit(1 << 20, nullptr);
    ASSERT_TRUE(grant.ok());
    EXPECT_EQ(adm.stats().in_use_bytes, 1u << 20);
  }
  EXPECT_EQ(adm.stats().in_use_bytes, 0u);
  EXPECT_EQ(adm.stats().admitted_total, 1u);
}

TEST(AdmissionTest, FullLedgerFailsFastWithoutWait) {
  AdmissionController adm;
  adm.SetBudget(1 << 20);
  Result<AdmissionGrant> first = adm.Admit(1 << 20, nullptr);
  ASSERT_TRUE(first.ok());
  Result<AdmissionGrant> second = adm.Admit(1 << 20, nullptr);
  EXPECT_EQ(second.status().code(), StatusCode::kAborted);
  EXPECT_EQ(adm.stats().rejected_total, 1u);
}

TEST(AdmissionTest, QueuedStatementAdmittedWhenSpaceFrees) {
  AdmissionController adm;
  adm.SetBudget(1 << 20);
  adm.SetMaxWaitMs(5000);
  Result<AdmissionGrant> first = adm.Admit(1 << 20, nullptr);
  ASSERT_TRUE(first.ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    *first = AdmissionGrant();  // release the ledger
  });
  bool queued = false;
  Result<AdmissionGrant> second = adm.Admit(1 << 20, nullptr, &queued);
  releaser.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(queued);
  EXPECT_EQ(adm.stats().queued_total, 1u);
}

TEST(AdmissionTest, QueuedWaitTimesOut) {
  AdmissionController adm;
  adm.SetBudget(1 << 20);
  adm.SetMaxWaitMs(30);
  Result<AdmissionGrant> first = adm.Admit(1 << 20, nullptr);
  ASSERT_TRUE(first.ok());
  Result<AdmissionGrant> second = adm.Admit(1 << 20, nullptr);
  EXPECT_EQ(second.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(adm.stats().timeout_total, 1u);
}

TEST(AdmissionTest, CancelAbortsQueuedWait) {
  AdmissionController adm;
  adm.SetBudget(1 << 20);
  adm.SetMaxWaitMs(60000);
  Result<AdmissionGrant> first = adm.Admit(1 << 20, nullptr);
  ASSERT_TRUE(first.ok());
  CancelToken token;
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Kill();
  });
  Result<AdmissionGrant> second = adm.Admit(1 << 20, &token);
  killer.join();
  EXPECT_EQ(second.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Engine-level governance: KILL, deadlines, admission, sys.statements
// ---------------------------------------------------------------------------

class GovernanceTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 4000;

  void SetUp() override {
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE t (id INT, k INT, grp INT, payload STRING)")
            .ok());
    std::string insert;
    for (int i = 0; i < kRows; ++i) {
      if (insert.empty()) {
        insert = "INSERT INTO t VALUES ";
      } else {
        insert += ",";
      }
      insert += "(" + std::to_string(i) + "," + std::to_string(i % 53) + "," +
                std::to_string(i % 40) + ",'pay-" + std::to_string(i) +
                "-xxxxxxxxxxxxxxxx')";
      if (insert.size() > 30000 || i == kRows - 1) {
        ASSERT_TRUE(db_.Execute(insert).ok());
        insert.clear();
      }
    }
  }

  void Set(const std::string& stmt) {
    Result<ResultSet> rs = db_.Execute(stmt);
    ASSERT_TRUE(rs.ok()) << stmt << ": " << rs.status().ToString();
  }

  /// A query that keeps batches flowing through the tree for a while: a
  /// cross join feeding an aggregate (checked per input batch) and, with
  /// SORT_MEMORY squeezed, a spilling sort.
  static std::string SlowCountQuery() {
    return "SELECT COUNT(*) FROM t a, t b WHERE a.k + b.k >= 0";
  }
  static std::string SlowSpillingSortQuery() {
    return "SELECT a.k, b.k FROM t a, t b "
           "WHERE a.id < 700 AND b.id < 700 ORDER BY a.k, b.k";
  }

  /// Asserts no execution residue: spill files deleted, admission ledger
  /// drained, no statement still registered as live.
  void ExpectNoResidue() {
    EXPECT_EQ(SpillFile::live_count(), 0u);
    EXPECT_EQ(SpillFile::live_bytes(), 0u);
    EXPECT_EQ(db_.admission().stats().in_use_bytes, 0u);
    EXPECT_EQ(db_.statement_registry().live_count(), 0u);
  }

  /// Latest finished-history status for a statement whose SQL contains
  /// `needle`.
  std::string HistoryStatus(const std::string& needle) {
    std::string found;
    for (const StatementSnapshot& s : db_.statement_registry().Snapshot()) {
      if (s.status != "running" && s.sql.find(needle) != std::string::npos) {
        found = s.status;  // keep the newest (history is oldest-first)
      }
    }
    return found;
  }

  Database db_;
};

TEST_F(GovernanceTest, StatementTimeoutReturnsTimeoutStatus) {
  for (int parallelism : {1, 4}) {
    Set("SET PARALLELISM = " + std::to_string(parallelism));
    Set("SET STATEMENT_TIMEOUT_MS = 20");
    auto start = std::chrono::steady_clock::now();
    Result<ResultSet> r = db_.Execute(SlowCountQuery());
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    Set("SET STATEMENT_TIMEOUT_MS = DEFAULT");
    ASSERT_FALSE(r.ok()) << "parallelism " << parallelism;
    EXPECT_EQ(r.status().code(), StatusCode::kTimeout)
        << r.status().ToString();
    // Cooperative checks land at batch boundaries: the statement dies
    // orders of magnitude before the uncancelled runtime.
    EXPECT_LT(elapsed, 5000) << "parallelism " << parallelism;
    EXPECT_EQ(HistoryStatus("COUNT(*)"), "timeout");
    ExpectNoResidue();
  }
}

TEST_F(GovernanceTest, TimeoutDuringSpillingSortLeavesNoSpillFiles) {
  for (int parallelism : {1, 4}) {
    Set("SET PARALLELISM = " + std::to_string(parallelism));
    Set("SET SORT_MEMORY = 64 KB");
    Set("SET STATEMENT_TIMEOUT_MS = 25");
    Result<ResultSet> r = db_.Execute(SlowSpillingSortQuery());
    Set("SET STATEMENT_TIMEOUT_MS = DEFAULT");
    Set("SET SORT_MEMORY = DEFAULT");
    ASSERT_FALSE(r.ok()) << "parallelism " << parallelism;
    EXPECT_EQ(r.status().code(), StatusCode::kTimeout)
        << r.status().ToString();
    ExpectNoResidue();
  }
}

TEST_F(GovernanceTest, KillFromAnotherThreadCancelsPromptly) {
  for (int parallelism : {1, 4}) {
    Set("SET PARALLELISM = " + std::to_string(parallelism));
    Result<ResultSet> result = Status::Internal("not run");
    std::thread worker(
        [&] { result = db_.Execute(SlowCountQuery()); });
    // Find the running statement and kill it through SQL.
    int64_t victim = 0;
    for (int spin = 0; spin < 2000 && victim == 0; ++spin) {
      for (const StatementSnapshot& s : db_.statement_registry().Snapshot()) {
        if (s.status == "running" &&
            s.sql.find("COUNT(*)") != std::string::npos) {
          victim = s.id;
          break;
        }
      }
      if (victim == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_NE(victim, 0) << "statement never showed up in sys.statements";
    Result<ResultSet> killed = db_.Execute("KILL " + std::to_string(victim));
    worker.join();
    // Either the KILL landed, or the query finished first and KILL
    // reported NotFound; with this table size the former is expected.
    if (killed.ok()) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << result.status().ToString();
      EXPECT_EQ(HistoryStatus("COUNT(*)"), "cancelled");
    }
    ExpectNoResidue();
  }
}

TEST_F(GovernanceTest, KillUnknownStatementIsNotFound) {
  Result<ResultSet> r = db_.Execute("KILL 123456789");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(GovernanceTest, AdmissionRejectionFlowsThroughStatusAndLog) {
  Set("SET ADMISSION_MEMORY = 1 MB");
  Set("SET QUERY_MEMORY = 2 MB");
  Result<ResultSet> r = db_.Execute("SELECT COUNT(*) FROM t");
  Set("SET QUERY_MEMORY = DEFAULT");
  Set("SET ADMISSION_MEMORY = DEFAULT");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_NE(r.status().message().find("admission rejected"),
            std::string::npos);
  EXPECT_EQ(HistoryStatus("COUNT(*)"), "rejected");
  bool logged = false;
  for (const obs::QueryLogEntry& e : db_.query_log().Snapshot()) {
    if (e.status == "rejected") logged = true;
  }
  EXPECT_TRUE(logged);
  EXPECT_GE(db_.admission().stats().rejected_total, 1u);
  ExpectNoResidue();
}

TEST_F(GovernanceTest, QueuedStatementRunsOnceLedgerFrees) {
  Set("SET ADMISSION_MEMORY = 64 MB");
  Set("SET ADMISSION_WAIT_MS = 5000");
  Set("SET QUERY_MEMORY = 32 MB");
  // Hold most of the ledger so the statement must queue.
  Result<AdmissionGrant> held = db_.admission().Admit(48ull << 20, nullptr);
  ASSERT_TRUE(held.ok());
  Result<ResultSet> r = Status::Internal("not run");
  std::thread worker([&] { r = db_.Execute("SELECT COUNT(*) FROM t"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  *held = AdmissionGrant();  // free the ledger; the queued statement runs
  worker.join();
  Set("SET QUERY_MEMORY = DEFAULT");
  Set("SET ADMISSION_WAIT_MS = DEFAULT");
  Set("SET ADMISSION_MEMORY = DEFAULT");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(db_.admission().stats().queued_total, 1u);
  ExpectNoResidue();
}

TEST_F(GovernanceTest, SysStatementsShowsOutcomes) {
  Set("SET STATEMENT_TIMEOUT_MS = 15");
  (void)db_.Execute(SlowCountQuery());
  Set("SET STATEMENT_TIMEOUT_MS = DEFAULT");
  Result<std::vector<Row>> rows = db_.Query(
      "SELECT status FROM sys.statements WHERE status = 'timeout'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GE(rows->size(), 1u);
  // And the metrics counter moved.
  Result<std::vector<Row>> counter = db_.Query(
      "SELECT value FROM sys.metrics WHERE name = "
      "'statements_timed_out_total'");
  ASSERT_TRUE(counter.ok());
  ASSERT_EQ(counter->size(), 1u);
  EXPECT_GE((*counter)[0][0].double_value(), 1.0);
}

TEST_F(GovernanceTest, DmlHonoursStatementTimeoutAndChangesNothing) {
  const std::string contents = "SELECT COUNT(*), SUM(k), SUM(grp) FROM t";
  Result<std::vector<Row>> before = db_.Query(contents);
  ASSERT_TRUE(before.ok());
  // The WHERE's subquery is the slow cross join: it runs inside the DML
  // scan, before any row changes.
  const std::string slow =
      "(SELECT COUNT(*) FROM t a, t b WHERE a.k + b.k >= 0)";
  Set("SET STATEMENT_TIMEOUT_MS = 20");
  for (const std::string& dml :
       {"UPDATE t SET k = k + 1, grp = 0 WHERE id < " + slow,
        "DELETE FROM t WHERE id < " + slow}) {
    Result<ResultSet> r = db_.Execute(dml);
    ASSERT_FALSE(r.ok()) << dml;
    EXPECT_EQ(r.status().code(), StatusCode::kTimeout) << dml;
  }
  Set("SET STATEMENT_TIMEOUT_MS = DEFAULT");
  Result<std::vector<Row>> after = db_.Query(contents);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
}

// ---------------------------------------------------------------------------
// Concurrency stress: mixed workload + killer thread, no leaked state
// ---------------------------------------------------------------------------

struct RowTotalLess {
  bool operator()(const Row& a, const Row& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].CompareTotal(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

TEST_F(GovernanceTest, ConcurrentMixedWorkloadWithKillerThread) {
  Set("SET SORT_MEMORY = 64 KB");
  Set("SET AGG_MEMORY = 64 KB");

  const std::string agg_query =
      "SELECT grp, COUNT(*), SUM(k) FROM t GROUP BY grp";
  Result<std::vector<Row>> reference_r = db_.Query(agg_query);
  ASSERT_TRUE(reference_r.ok());
  std::vector<Row> reference = reference_r.TakeValue();
  std::sort(reference.begin(), reference.end(), RowTotalLess{});

  constexpr int kWorkers = 4;
  constexpr int kIters = 5;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread killer([&] {
    while (!stop.load()) {
      for (const StatementSnapshot& s : db_.statement_registry().Snapshot()) {
        if (s.status == "running" &&
            s.sql.find("COUNT(*)") != std::string::npos &&
            s.sql.find(", T B") != std::string::npos) {
          (void)db_.statement_registry().Kill(s.id);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        // Mix: fast aggregate (spilling), spilling sort, and a heavy
        // cross join the killer thread hunts down.
        const std::string queries[] = {
            agg_query,
            "SELECT k, payload FROM t ORDER BY k",
            SlowCountQuery(),
        };
        const std::string& q = queries[(w + i) % 3];
        Result<std::vector<Row>> rows = db_.Query(q);
        if (rows.ok()) {
          if (q == agg_query) {
            std::vector<Row> got = rows.TakeValue();
            std::sort(got.begin(), got.end(), RowTotalLess{});
            if (got != reference) failures.fetch_add(1);
          }
        } else {
          StatusCode code = rows.status().code();
          // The only acceptable failures are governance outcomes.
          if (code != StatusCode::kCancelled &&
              code != StatusCode::kTimeout) {
            ADD_FAILURE() << q << ": " << rows.status().ToString();
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true);
  killer.join();

  Set("SET SORT_MEMORY = DEFAULT");
  Set("SET AGG_MEMORY = DEFAULT");
  Set("SET PLAN_CACHE_SIZE = DEFAULT");
  EXPECT_EQ(failures.load(), 0);
  ExpectNoResidue();

  // Surviving queries still compute the right answer, serial and
  // parallel alike.
  for (int parallelism : {1, 4}) {
    Set("SET PARALLELISM = " + std::to_string(parallelism));
    Result<std::vector<Row>> after = db_.Query(agg_query);
    ASSERT_TRUE(after.ok());
    std::vector<Row> got = after.TakeValue();
    std::sort(got.begin(), got.end(), RowTotalLess{});
    EXPECT_EQ(got, reference) << "parallelism " << parallelism;
  }
}

}  // namespace
}  // namespace starburst
