// The three workloads: each is a seeded, endless statement sequence over the
// shared dataset, with the oracle's expected answer attached to every
// statement. Writes are applied to the Model as they are generated, so the
// next statement's answer already reflects them.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "model.h"
#include "oracle.h"

namespace perfbench {

struct Template {
  std::string name;
  bool write = false;
};

struct Stmt {
  int tmpl = 0;
  /// Statement text; for a prepared statement, the text it was prepared
  /// from (with `?` markers).
  std::string sql;
  /// Index into the handles of Workload::WarmSql(), or -1 for a
  /// statement sent as text through Database::Execute.
  int prepared = -1;
  std::vector<starburst::Value> params;
  Answer expected;
};

class Workload {
 public:
  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  const std::vector<Template>& templates() const { return templates_; }
  /// The traced run replays every n-th SELECT: sized so a traced half of
  /// ten seconds replays a few hundred statements.
  int64_t trace_every() const { return trace_every_; }

  /// Statements set-up prepares, filling the plan cache before the
  /// measured phase. Texts with `?` markers become the prepared handles
  /// that Stmt::prepared indexes.
  virtual std::vector<std::string> WarmSql() const = 0;
  /// The next statement of the sequence, with its expected answer.
  virtual Stmt Next(Rng& rng, Model& model) = 0;

 protected:
  Workload(std::string name, int64_t trace_every,
           std::vector<Template> templates)
      : name_(std::move(name)),
        trace_every_(trace_every),
        templates_(std::move(templates)) {}

 private:
  std::string name_;
  int64_t trace_every_;
  std::vector<Template> templates_;
};

/// "oltp", "analytic" or "adhoc"; null for an unknown name.
/// `model` is the freshly generated dataset; literal variants are drawn
/// from `seed`.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Model& model, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
