// E4 — §6's join enumerator: it "enumerates all valid join sequences by
// iteratively constructing progressively larger sets of iterators",
// "producing a potentially larger set of plans than did the R* and
// System R optimizers", with two pruning parameters: composite inners
// ("bushy trees") and Cartesian products.
//
// Chain / star / clique join topologies, n = 2..10 tables: pairs
// considered, plans retained, candidate plans costed and built, optimize
// time — with each pruning toggle. Exits 1 if any query fails to optimize.

#include "bench_util.h"
#include "parser/parser.h"
#include "qgm/binder.h"
#include "optimizer/optimizer.h"
#include "rewrite/rule_engine.h"

using namespace starburst;
using namespace starburst::bench;

namespace {

std::string TopologyQuery(const std::string& topology, int n) {
  std::string sql = "SELECT t1.k FROM t1";
  for (int t = 2; t <= n; ++t) sql += ", t" + std::to_string(t);
  sql += " WHERE 1 = 1";
  if (topology == "chain") {
    for (int t = 2; t <= n; ++t) {
      sql += " AND t" + std::to_string(t - 1) + ".k = t" + std::to_string(t) +
             ".k";
    }
  } else if (topology == "star") {
    for (int t = 2; t <= n; ++t) {
      sql += " AND t1.k = t" + std::to_string(t) + ".k";
    }
  } else {  // clique
    for (int a = 1; a <= n; ++a) {
      for (int b = a + 1; b <= n; ++b) {
        sql += " AND t" + std::to_string(a) + ".k = t" + std::to_string(b) +
               ".k";
      }
    }
  }
  return sql;
}

}  // namespace

int main() {
  Catalog catalog;
  for (int t = 1; t <= 10; ++t) {
    TableDef def;
    def.name = "t" + std::to_string(t);
    def.schema = TableSchema(
        {{"k", DataType::Int(), false}, {"v", DataType::Int(), true}});
    def.stats.row_count = 100.0 * t;  // asymmetric sizes: order matters
    def.stats.page_count = def.stats.row_count / 64 + 1;
    ColumnStats k;
    k.distinct_count = def.stats.row_count;
    def.stats.columns["K"] = k;
    (void)catalog.CreateTable(def);
  }
  rewrite::RuleEngine engine = rewrite::MakeDefaultRuleEngine();

  std::printf("E4: join enumeration effort vs. tables, per topology "
              "(kept: plans kept; costed/built: candidate plans)\n");
  std::printf("%-6s %2s | %11s %7s %8s %7s %8s | %10s %6s %7s %6s %7s\n",
              "shape", "n", "bushy:pairs", "kept", "costed", "built",
              "time us", "deep:pairs", "kept", "costed", "built", "time us");
  for (const std::string topology : {"chain", "star", "clique"}) {
    for (int n : {2, 4, 6, 8, 10}) {
      auto parsed = Parser::ParseQueryText(TopologyQuery(topology, n));
      double row[2][5];
      for (int mode = 0; mode < 2; ++mode) {
        qgm::Binder binder(&catalog);
        auto graph = binder.BindQuery(**parsed);
        if (!graph.ok()) return 1;
        if (!engine.Run(graph->get(), &catalog).ok()) return 1;
        optimizer::Optimizer::Options options;
        options.join.allow_composite_inner = mode == 0;
        optimizer::Optimizer opt(&catalog, options);
        Timer t;
        auto plan = opt.Optimize(**graph);
        double us = t.ElapsedUs();
        if (!plan.ok()) {
          std::fprintf(stderr, "optimize failed: %s\n",
                       plan.status().ToString().c_str());
          return 1;
        }
        const optimizer::Optimizer::Stats& stats = opt.stats();
        row[mode][0] = static_cast<double>(stats.enumerator.pairs_considered);
        row[mode][1] = static_cast<double>(stats.enumerator.plans_kept);
        row[mode][2] = static_cast<double>(stats.generator.plans_generated);
        row[mode][3] = static_cast<double>(stats.generator.plans_built);
        row[mode][4] = us;
      }
      std::printf(
          "%-6s %2d | %11.0f %7.0f %8.0f %7.0f %8.0f | %10.0f %6.0f %7.0f "
          "%6.0f %7.0f\n",
          topology.c_str(), n, row[0][0], row[0][1], row[0][2], row[0][3],
          row[0][4], row[1][0], row[1][1], row[1][2], row[1][3], row[1][4]);
    }
  }

  // Cartesian products: pruned by default (as System R and R* always did),
  // admitted on request. On a fully-connected query the pruning shrinks
  // the considered space; a disconnected query instead pays the pruned
  // first pass *plus* the Cartesian fallback.
  std::printf("\nE4b: Cartesian-product pruning on connected chain queries\n");
  std::printf("%3s | %14s | %14s\n", "n", "pruned: pairs", "allowed: pairs");
  for (int n : {4, 6, 8}) {
    std::string sql = TopologyQuery("chain", n);
    auto parsed = Parser::ParseQueryText(sql);
    double pairs[2];
    for (int mode = 0; mode < 2; ++mode) {
      qgm::Binder binder(&catalog);
      auto graph = binder.BindQuery(**parsed);
      if (!graph.ok()) return 1;
      optimizer::Optimizer::Options options;
      options.join.allow_cartesian = mode == 1;
      optimizer::Optimizer opt(&catalog, options);
      if (!opt.Optimize(**graph).ok()) return 1;
      pairs[mode] = static_cast<double>(opt.stats().enumerator.pairs_considered);
    }
    std::printf("%3d | %14.0f | %14.0f\n", n, pairs[0], pairs[1]);
  }
  std::printf("\nShape check: clique > star > chain effort; bushy >= "
              "left-deep pairs; Cartesian admission inflates the space.\n");
  return 0;
}
