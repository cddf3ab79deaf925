#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/database.h"
#include "obs/op_stats.h"
#include "obs/trace.h"

namespace starburst {
namespace {

// ---------------------------------------------------------------------------
// Tracer / Span primitives
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.RecordSpan("a", "cat", 0, 10);
  tracer.RecordInstant("b", "cat", 5);
  {
    obs::Span span(&tracer, "c", "cat");
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, SpanAgainstNullTracerIsSafe) {
  obs::Span span(nullptr, "a", "cat");
  span.AddArg("k", "v");
  span.End();  // no crash, nothing to record
}

TEST(TracerTest, SpansNestAndCloseInOrder) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::Span outer(&tracer, "outer", "phase");
    {
      obs::Span inner(&tracer, "inner", "phase");
    }
  }
  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first, so it records first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  // Containment: outer starts no later and ends no earlier than inner.
  EXPECT_LE(events[1].start_us, events[0].start_us);
  EXPECT_GE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
}

TEST(TracerTest, SpansCloseViaRaiiUnderErrorPaths) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  auto throwing = [&tracer]() {
    obs::Span span(&tracer, "doomed", "phase");
    throw std::runtime_error("boom");
  };
  EXPECT_THROW(throwing(), std::runtime_error);
  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "doomed");
  EXPECT_GE(events[0].dur_us, 0.0);
}

TEST(TracerTest, EndIsIdempotent) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  obs::Span span(&tracer, "once", "cat");
  span.End();
  span.End();
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops) {
  obs::Tracer tracer(4);
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    tracer.RecordInstant("e" + std::to_string(i), "cat",
                         static_cast<double>(i));
  }
  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
  EXPECT_EQ(tracer.dropped(), 6u);
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON: a minimal structural parser (objects, arrays,
// strings, numbers) — enough to prove the export is well-formed.
// ---------------------------------------------------------------------------

class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : text_(text) {}

  bool Parse() {
    SkipWs();
    if (!ParseValue()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool ParseValue() {
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    if (text_.compare(pos_, 4, "true") == 0) { pos_ += 4; return true; }
    if (text_.compare(pos_, 5, "false") == 0) { pos_ += 5; return true; }
    if (text_.compare(pos_, 4, "null") == 0) { pos_ += 4; return true; }
    return false;
  }
  bool ParseObject() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!ParseString()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!ParseValue()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool ParseArray() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!ParseValue()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool ParseString() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool ParseNumber() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(TracerTest, ChromeJsonParsesAndEscapes) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.RecordSpan("na\"me\nwith\tjunk", "cat\\egory", 1.5, 2.5,
                    "\"sql\":\"SELECT \\\"x\\\"\"");
  tracer.RecordInstant("instant", "cat", 3.0);
  std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(MiniJsonParser(json).Parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(TracerTest, EmptyTracerStillExportsValidJson) {
  obs::Tracer tracer;
  std::string json = tracer.ToChromeJson();
  EXPECT_TRUE(MiniJsonParser(json).Parse()) << json;
}

// ---------------------------------------------------------------------------
// PlanStatsTree
// ---------------------------------------------------------------------------

TEST(PlanStatsTreeTest, SelfTimeSubtractsChildren) {
  obs::PlanStatsTree tree;
  obs::PlanStatsTree::Node* root = tree.AddNode(nullptr, "JOIN", 10, 5);
  obs::PlanStatsTree::Node* child = tree.AddNode(root, "SCAN", 100, 2);
  root->actual.wall_us = 50;
  root->actual.opens = 1;
  child->actual.wall_us = 30;
  child->actual.opens = 1;
  EXPECT_DOUBLE_EQ(obs::PlanStatsTree::SelfUs(*root), 20.0);
  EXPECT_DOUBLE_EQ(obs::PlanStatsTree::SelfUs(*child), 30.0);

  std::vector<const obs::PlanStatsTree::Node*> top = tree.TopBySelfTime(3);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0]->name, "SCAN");
  EXPECT_EQ(top[1]->name, "JOIN");
}

TEST(PlanStatsTreeTest, WrapRootReparents) {
  obs::PlanStatsTree tree;
  obs::PlanStatsTree::Node* old_root = tree.AddNode(nullptr, "SCAN", 1, 1);
  obs::PlanStatsTree::Node* wrapper = tree.WrapRoot("LIMIT 5", 5, 1);
  ASSERT_EQ(tree.roots().size(), 1u);
  EXPECT_EQ(tree.roots()[0], wrapper);
  ASSERT_EQ(wrapper->children.size(), 1u);
  EXPECT_EQ(wrapper->children[0], old_root);
  EXPECT_EQ(old_root->parent, wrapper);
}

// ---------------------------------------------------------------------------
// Engine integration: the paper's Figure 2 query end to end
// ---------------------------------------------------------------------------

class ObservabilityEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Must("CREATE TABLE quotations (partno INT, price DOUBLE, order_qty INT)");
    Must("CREATE TABLE inventory ("
         "partno INT PRIMARY KEY, onhand_qty INT, type STRING)");
    Must("INSERT INTO inventory VALUES "
         "(1, 10, 'CPU'), (2, 100, 'CPU'), (3, 5, 'DISK'), "
         "(4, 0, 'CPU'), (5, 50, 'RAM')");
    Must("INSERT INTO quotations VALUES "
         "(1, 99.5, 20), (1, 95.0, 5), (2, 40.0, 200), "
         "(3, 12.0, 10), (6, 7.0, 3)");
  }

  ResultSet Must(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    if (!r.ok()) return ResultSet::Message("error");
    return r.TakeValue();
  }

  static std::string Joined(const ResultSet& rs) {
    std::string text;
    for (const Row& r : rs.rows()) {
      text += r[0].string_value();
      text += "\n";
    }
    return text;
  }

  static constexpr const char* kFig2Query =
      "SELECT partno, price, order_qty FROM quotations Q1 "
      "WHERE Q1.partno IN "
      "(SELECT partno FROM inventory Q3 "
      " WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')";

  Database db_;
};

TEST_F(ObservabilityEngineTest, ExplainAnalyzeReportsAllSections) {
  ResultSet rs = Must(std::string("EXPLAIN ANALYZE ") + kFig2Query);
  ASSERT_EQ(rs.column_names().size(), 1u);
  EXPECT_EQ(rs.column_names()[0], "EXPLAIN");
  std::string text = Joined(rs);

  // Rewritten QGM and the Rule 1 / Rule 2 firing log with box ids.
  EXPECT_NE(text.find("== QGM (after rewrite) =="), std::string::npos) << text;
  EXPECT_NE(text.find("== Rewrite rule firings =="), std::string::npos);
  EXPECT_NE(text.find("subquery_to_join"), std::string::npos) << text;
  EXPECT_NE(text.find("select_merge"), std::string::npos) << text;
  EXPECT_NE(text.find("box="), std::string::npos);
  EXPECT_NE(text.find("[id="), std::string::npos);

  // Plan with estimates and actuals side by side.
  EXPECT_NE(text.find("== Plan =="), std::string::npos);
  EXPECT_NE(text.find("est rows="), std::string::npos) << text;
  EXPECT_NE(text.find("actual rows="), std::string::npos) << text;

  // Execution summary with storage counters.
  EXPECT_NE(text.find("== Execution =="), std::string::npos);
  EXPECT_NE(text.find("buffer pool:"), std::string::npos);
  EXPECT_NE(text.find("index node visits:"), std::string::npos);
}

TEST_F(ObservabilityEngineTest, ExplainAnalyzeActualRowsMatchResultSet) {
  ResultSet direct = Must(kFig2Query);
  size_t expected_rows = direct.rows().size();
  ASSERT_GT(expected_rows, 0u);

  Must(std::string("EXPLAIN ANALYZE ") + kFig2Query);
  const QueryMetrics& m = db_.last_metrics();
  ASSERT_NE(m.op_stats, nullptr);
  ASSERT_FALSE(m.op_stats->roots().empty());
  const obs::PlanStatsTree::Node* root = m.op_stats->roots()[0];
  EXPECT_EQ(root->actual.rows_out, expected_rows);
  EXPECT_EQ(root->actual.opens, 1u);
  // Batched execution amortizes the call count: at most one call per
  // row (batch_size = 1) plus the end-of-stream call, at least one
  // batch plus end-of-stream.
  EXPECT_GE(root->actual.next_calls, 2u);
  EXPECT_LE(root->actual.next_calls, expected_rows + 1);

  // The report itself names the same cardinality.
  std::string text = Joined(Must(std::string("EXPLAIN ANALYZE ") + kFig2Query));
  EXPECT_NE(text.find("result rows: " + std::to_string(expected_rows)),
            std::string::npos)
      << text;
}

TEST_F(ObservabilityEngineTest, ExplainAnalyzeReportsOptimizerCounters) {
  std::string text = Joined(Must(
      "EXPLAIN ANALYZE SELECT q.partno FROM quotations q, inventory i, "
      "quotations r WHERE q.partno = i.partno AND i.partno = r.partno"));
  const optimizer::Optimizer::Stats& s = db_.last_metrics().optimizer_stats;
  char want[200];
  std::snprintf(want, sizeof want,
                "\noptimizer: %llu join pairs, %llu candidates costed, "
                "%llu built, %llu kept\n",
                static_cast<unsigned long long>(s.enumerator.pairs_considered),
                static_cast<unsigned long long>(s.generator.plans_generated),
                static_cast<unsigned long long>(s.generator.plans_built),
                static_cast<unsigned long long>(s.enumerator.plans_kept));
  size_t at = text.find(want);
  ASSERT_NE(at, std::string::npos) << text;
  // Next to the phase timings, in the Execution section.
  size_t phases = text.rfind("\nphases (us): ", at);
  ASSERT_NE(phases, std::string::npos) << text;
  EXPECT_EQ(text.find('\n', phases + 1), at) << text;
  EXPECT_LT(text.find("== Execution =="), at);

  EXPECT_GT(s.enumerator.pairs_considered, 0u);
  EXPECT_GT(s.enumerator.plans_kept, 0u);
  // The join STARs cost every candidate but build only those no kept plan
  // dominates.
  EXPECT_GT(s.generator.plans_built, 0u);
  EXPECT_LT(s.generator.plans_built, s.generator.plans_generated);
}

TEST_F(ObservabilityEngineTest, ExplainVerboseSkipsExecution) {
  ResultSet rs = Must(std::string("EXPLAIN VERBOSE ") + kFig2Query);
  std::string text = Joined(rs);
  EXPECT_NE(text.find("== QGM (after rewrite) =="), std::string::npos);
  EXPECT_NE(text.find("== Plan =="), std::string::npos);
  EXPECT_EQ(text.find("== Execution =="), std::string::npos) << text;
  EXPECT_EQ(text.find("actual rows="), std::string::npos) << text;
  // Nothing executed, so the execute phase never ran.
  EXPECT_EQ(db_.last_metrics().execute_us, 0.0);
}

TEST_F(ObservabilityEngineTest, PlainExplainStillReturnsPlanColumn) {
  ResultSet rs = Must(std::string("EXPLAIN ") + kFig2Query);
  ASSERT_EQ(rs.column_names().size(), 1u);
  EXPECT_EQ(rs.column_names()[0], "plan");
  ASSERT_EQ(rs.rows().size(), 1u);
}

TEST_F(ObservabilityEngineTest, TracerRecordsPhaseSpansAndRuleFirings) {
  db_.tracer().set_enabled(true);
  Must(kFig2Query);
  db_.tracer().set_enabled(false);

  std::vector<obs::TraceEvent> events = db_.tracer().Snapshot();
  auto has = [&events](const std::string& name, obs::TraceEvent::Kind kind) {
    for (const obs::TraceEvent& e : events) {
      if (e.name == name && e.kind == kind) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("statement", obs::TraceEvent::Kind::kSpan));
  EXPECT_TRUE(has("parse", obs::TraceEvent::Kind::kSpan));
  EXPECT_TRUE(has("bind", obs::TraceEvent::Kind::kSpan));
  EXPECT_TRUE(has("rewrite", obs::TraceEvent::Kind::kSpan));
  EXPECT_TRUE(has("optimize", obs::TraceEvent::Kind::kSpan));
  EXPECT_TRUE(has("refine", obs::TraceEvent::Kind::kSpan));
  EXPECT_TRUE(has("execute", obs::TraceEvent::Kind::kSpan));
  EXPECT_TRUE(has("rule subquery_to_join", obs::TraceEvent::Kind::kInstant));
  EXPECT_TRUE(has("rule select_merge", obs::TraceEvent::Kind::kInstant));

  std::string json = db_.tracer().ToChromeJson();
  EXPECT_TRUE(MiniJsonParser(json).Parse()) << json;
  EXPECT_NE(json.find("subquery_to_join"), std::string::npos);
}

TEST_F(ObservabilityEngineTest, DisabledTracerLeavesMetricsAlone) {
  // With the tracer off, queries run and no events accumulate; the
  // QueryMetrics phases stay populated either way. (The <5% overhead
  // claim is measured by bench_trace_overhead, not asserted here where
  // timer noise would make the test flaky.)
  Must(kFig2Query);
  const QueryMetrics& m = db_.last_metrics();
  EXPECT_GT(m.parse_us, 0.0);
  EXPECT_GT(m.execute_us, 0.0);
  EXPECT_EQ(m.op_stats, nullptr);  // not collected unless asked
  EXPECT_TRUE(db_.tracer().Snapshot().empty());
}

TEST_F(ObservabilityEngineTest, SessionOptionCollectsOpStatsPerQuery) {
  Must("SET COLLECT_OP_STATS = 1");
  ResultSet rs = Must(kFig2Query);
  const QueryMetrics& m = db_.last_metrics();
  ASSERT_NE(m.op_stats, nullptr);
  ASSERT_FALSE(m.op_stats->roots().empty());
  EXPECT_EQ(m.op_stats->roots()[0]->actual.rows_out, rs.rows().size());
  std::string rendered = m.op_stats->Render(true);
  EXPECT_NE(rendered.find("actual rows="), std::string::npos) << rendered;
}

TEST_F(ObservabilityEngineTest, BufferPoolAndIndexCountersDelta) {
  // The inventory primary key gives the engine a B-tree to visit.
  Must("SELECT * FROM inventory WHERE partno = 3");
  const QueryMetrics& m = db_.last_metrics();
  EXPECT_GT(m.buffer_pool.logical_reads, 0u);
  // Second run of the same query: counters are per-statement deltas, not
  // cumulative totals.
  Must("SELECT * FROM inventory WHERE partno = 3");
  const QueryMetrics& m2 = db_.last_metrics();
  EXPECT_LE(m2.buffer_pool.logical_reads, m.buffer_pool.logical_reads + 4);
}

TEST_F(ObservabilityEngineTest, ExplainAnalyzeLimitQuery) {
  ResultSet rs =
      Must("EXPLAIN ANALYZE SELECT partno FROM quotations LIMIT 2");
  std::string text = Joined(rs);
  EXPECT_NE(text.find("LIMIT 2"), std::string::npos) << text;
  EXPECT_NE(text.find("result rows: 2"), std::string::npos) << text;
  const QueryMetrics& m = db_.last_metrics();
  ASSERT_NE(m.op_stats, nullptr);
  EXPECT_EQ(m.op_stats->roots()[0]->actual.rows_out, 2u);
}

}  // namespace
}  // namespace starburst
