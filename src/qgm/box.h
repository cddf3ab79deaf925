#ifndef STARBURST_QGM_BOX_H_
#define STARBURST_QGM_BOX_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "qgm/expr.h"

namespace starburst::qgm {

struct Box;

/// Iterator types (§4). F is the built-in setformer; E/A/S are quantifier
/// types interpreted by SELECT; PF is the left-outer-join extension's
/// "Preserve Foreach"; kSetPredicate generalizes E/A to any registered
/// set-predicate function (the MAJORITY example); kAntiExists covers
/// NOT EXISTS / NOT IN.
enum class QuantifierType : uint8_t {
  kForEach,           // F  — contributes tuples to the output
  kPreservedForEach,  // PF — like F but tuples survive unmatched (outer join)
  kExists,            // E  — existential: IN / EXISTS / =ANY
  kAll,               // A  — universal: op ALL
  kAntiExists,        // ¬E — NOT EXISTS / NOT IN (null-aware)
  kScalar,            // S  — scalar subquery (errors if >1 row)
  kSetPredicate,      // generalized set predicate, named by set_function
};

const char* QuantifierTypeName(QuantifierType t);
/// F / PF / E / A / ¬E / S / SP — the Figure 2 glyphs.
const char* QuantifierTypeGlyph(QuantifierType t);

/// A vertex of the QGM: an iterator ranging over a stored or derived table
/// (its `input` box — the dotted "range edge" of Figure 2). Owned by the
/// box whose body it appears in.
struct Quantifier {
  int id = 0;                      // Q1, Q2, ... unique per graph
  QuantifierType type = QuantifierType::kForEach;
  Box* input = nullptr;            // ranged-over box
  Box* owner = nullptr;            // box whose body holds this vertex
  std::string alias;               // user-visible range-variable name

  /// kSetPredicate: the registered set-predicate function (ANY/ALL/...).
  std::string set_function;

  /// kAll / kSetPredicate: comparison relating the outer expression to the
  /// set elements is kept in the owner's predicates, marked by referencing
  /// this quantifier.

  std::string DisplayName() const;
  /// Column name i of the ranged-over table (from the input box head).
  std::string ColumnName(size_t i) const;
  DataType ColumnType(size_t i) const;
  size_t NumColumns() const;

  bool ContributesTuples() const {
    return type == QuantifierType::kForEach ||
           type == QuantifierType::kPreservedForEach;
  }
};

/// Box kinds: the high-level table operations of §4. New operations are
/// added either as new quantifier types inside SELECT (the outer-join
/// route the paper describes) or as kTableFunction / kExtension boxes.
enum class BoxKind : uint8_t {
  kBaseTable,       // leaf: a stored table
  kSelect,          // select-project-join + quantified predicates
  kGroupBy,         // grouping + aggregation
  kSetOp,           // UNION / INTERSECT / EXCEPT
  kValues,          // literal rows
  kTableFunction,   // DBC table function over input tables
  kChoose,          // rewrite-generated alternatives; optimizer picks one
  kRecursiveUnion,  // recursive table expression (base ∪ step fixpoint)
  kIterationRef,    // reference to the enclosing recursion's working table
};

const char* BoxKindName(BoxKind k);

/// Name of the hidden rid column a DML target's base-table box ends with
/// (Box::rid_column). Name resolution never reaches it.
inline constexpr char kRidColumnName[] = "$RID";

/// One output column of a box head.
struct HeadColumn {
  std::string name;
  DataType type;
  /// Defining expression over the box's own quantifiers. Null for leaf
  /// boxes (base tables, values, iteration refs) whose output is storage-
  /// or iteration-defined.
  ExprPtr expr;
};

/// An aggregate computed by a GROUP BY box.
struct AggregateSpec {
  const AggregateFunctionDef* def = nullptr;
  std::string name;       // display: "SUM", "STDDEV", ...
  ExprPtr arg;            // null for COUNT(*)
  /// The argument as originally bound in the input box (dedup signature).
  std::string arg_source_text = "*";
  bool distinct = false;
  DataType result_type;
};

/// A box (operation) of the Query Graph Model: a head describing the
/// output table and a body of quantifiers and predicate conjuncts
/// (qualifier edges). One struct covers all kinds — rewrite rules are
/// written in the paper's "IF OP1.type = Select ..." style and need free
/// access to every attribute.
struct Box {
  int id = 0;
  BoxKind kind = BoxKind::kSelect;

  // ---- head ----
  std::vector<HeadColumn> head;
  /// The operation eliminates duplicates from its output
  /// (the paper's OP.eliminate-duplicate).
  bool distinct_enforced = false;

  // ---- body: kSelect / kGroupBy / kSetOp / kTableFunction / kChoose /
  //            kRecursiveUnion ----
  std::vector<std::unique_ptr<Quantifier>> quantifiers;
  /// Conjunctive predicates (each a qualifier edge over >= 1 quantifiers).
  std::vector<ExprPtr> predicates;

  // ---- kBaseTable ----
  const TableDef* table = nullptr;
  /// The head ends with one hidden column past the schema: the rid of
  /// each row. Only a DML target's box has it (see Binder::BindDml).
  bool rid_column = false;

  // ---- kGroupBy ----
  /// Group keys over the single input quantifier; head columns reference
  /// them positionally, aggregates via kAggRef.
  std::vector<ExprPtr> group_keys;
  std::vector<AggregateSpec> aggregates;

  // ---- kSetOp ----
  ast::SetOpKind setop = ast::SetOpKind::kUnion;
  bool setop_all = false;

  // ---- kValues ----
  /// Bound row expressions, one per head column (no quantifier refs).
  std::vector<std::vector<ExprPtr>> rows;

  // ---- kTableFunction ----
  const TableFunctionDef* table_function = nullptr;
  std::string function_name;
  std::vector<Value> function_args;  // scalar args (constant-folded)

  // ---- kRecursiveUnion / kIterationRef ----
  std::string cte_name;
  Box* recursion = nullptr;  // kIterationRef: the owning kRecursiveUnion

  // -------------------------------------------------------------------

  size_t NumColumns() const { return head.size(); }

  Quantifier* AddQuantifier(std::unique_ptr<Quantifier> q);
  std::unique_ptr<Quantifier> RemoveQuantifier(Quantifier* q);
  Quantifier* FindQuantifier(int id) const;

  /// True if the box's output is guaranteed duplicate-free: enforced
  /// distinctness, grouping keys, or a preserved base-table unique key.
  /// With `ignore_own_enforcement`, asks whether the output would be
  /// duplicate-free even *without* this box's dedup — i.e. whether the
  /// dedup is a no-op (merge rules need this to know if dropping it is
  /// safe).
  bool OutputIsDuplicateFree(bool ignore_own_enforcement = false) const;

  /// For kSelect: head column positions that are plain references to
  /// quantifier `q`'s column c; `out[c]` = head position or npos.
  static constexpr size_t kNoColumn = static_cast<size_t>(-1);

  std::string Label() const;  // "OP3(SELECT)" / table name
};

/// A whole query's QGM: the box DAG (cyclic only through recursion), plus
/// query-level ORDER BY / LIMIT, which the paper leaves outside the box
/// algebra (they order/trim a table, they do not define one).
class Graph {
 public:
  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  Box* NewBox(BoxKind kind);
  std::unique_ptr<Quantifier> NewQuantifier(QuantifierType type, Box* input);

  Box* root() const { return root_; }
  void set_root(Box* box) { root_ = box; }

  const std::vector<std::unique_ptr<Box>>& boxes() const { return boxes_; }

  /// Boxes reachable from the root, leaves first (topological for DAGs;
  /// recursion back-edges are skipped).
  std::vector<Box*> BottomUpOrder() const;

  /// Drops boxes no longer reachable from the root (after merges).
  void GarbageCollect();

  /// Structural invariants: every predicate references only quantifiers
  /// of its own box, head columns type-resolved, etc. Returns the first
  /// violation. Rewrite rules must map consistent QGM to consistent QGM.
  Status Validate() const;

  // Query-level decoration.
  struct OrderKey {
    size_t head_column = 0;
    bool ascending = true;
  };
  std::vector<OrderKey> order_by;
  int64_t limit = -1;
  /// Trailing root head columns added only so ORDER BY can reference
  /// non-output columns; the engine strips them from the final result.
  size_t hidden_order_columns = 0;
  /// Number of `?` positional parameters the query contains (kParam
  /// expressions carry indexes in [0, num_params)). Execution must supply
  /// exactly this many values.
  size_t num_params = 0;

 private:
  std::vector<std::unique_ptr<Box>> boxes_;
  Box* root_ = nullptr;
  int next_box_id_ = 1;
  int next_quantifier_id_ = 1;
};

}  // namespace starburst::qgm

#endif  // STARBURST_QGM_BOX_H_
