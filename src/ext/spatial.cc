#include <cmath>
#include <cstring>

#include "exec/operators.h"
#include "exec/plan_refiner.h"
#include "ext/extensions.h"
#include "storage/attachment.h"

namespace starburst::ext {

using exec::CompiledExprPtr;
using exec::OperatorPtr;
using optimizer::Lolepop;
using optimizer::Plan;
using optimizer::PlanPtr;
using qgm::Expr;

std::string EncodePoint(double x, double y) {
  std::string payload(16, '\0');
  std::memcpy(payload.data(), &x, 8);
  std::memcpy(payload.data() + 8, &y, 8);
  return payload;
}

Result<std::pair<double, double>> DecodePoint(const std::string& payload) {
  if (payload.size() != 16) {
    return Status::Internal("malformed POINT payload");
  }
  double x, y;
  std::memcpy(&x, payload.data(), 8);
  std::memcpy(&y, payload.data() + 8, 8);
  return std::make_pair(x, y);
}

Value MakePointValue(double x, double y) {
  return Value::Extension("POINT", EncodePoint(x, y));
}

namespace {

// ---------------------------------------------------------------------------
// The POINT externally-defined type
// ---------------------------------------------------------------------------

Status RegisterPointType() {
  if (TypeRegistry::Global().Contains("POINT")) return Status::OK();
  ExtensionTypeDef def;
  def.name = "POINT";
  def.compare = [](const std::string& a, const std::string& b) {
    auto pa = DecodePoint(a);
    auto pb = DecodePoint(b);
    if (!pa.ok() || !pb.ok()) return 0;
    if (pa->first != pb->first) return pa->first < pb->first ? -1 : 1;
    if (pa->second != pb->second) return pa->second < pb->second ? -1 : 1;
    return 0;
  };
  def.to_string = [](const std::string& payload) {
    auto p = DecodePoint(payload);
    if (!p.ok()) return std::string("POINT(?)");
    return "POINT(" + std::to_string(p->first) + ", " +
           std::to_string(p->second) + ")";
  };
  return TypeRegistry::Global().Register(std::move(def));
}

Result<double> PointCoord(const Value& v, bool x) {
  if (v.type_id() != TypeId::kExtension || v.ext_value().type_name != "POINT") {
    return Status::TypeError("expected a POINT value");
  }
  STARBURST_ASSIGN_OR_RETURN(auto p, DecodePoint(v.ext_value().payload));
  return x ? p.first : p.second;
}

Status RegisterSpatialFunctions(Catalog* catalog) {
  FunctionRegistry& functions = catalog->functions();

  STARBURST_RETURN_IF_ERROR(functions.RegisterScalar(ScalarFunctionDef{
      "POINT", 2,
      [](const std::vector<DataType>& args) -> Result<DataType> {
        for (const DataType& t : args) {
          if (!t.is_numeric() && t.id != TypeId::kNull) {
            return Status::TypeError("POINT expects numeric coordinates");
          }
        }
        return DataType::Extension("POINT");
      },
      [](const std::vector<Value>& args) -> Result<Value> {
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        STARBURST_ASSIGN_OR_RETURN(double x, args[0].AsDouble());
        STARBURST_ASSIGN_OR_RETURN(double y, args[1].AsDouble());
        return MakePointValue(x, y);
      }}));

  STARBURST_RETURN_IF_ERROR(functions.RegisterScalar(ScalarFunctionDef{
      "PX", 1,
      [](const std::vector<DataType>& args) -> Result<DataType> {
        if (args[0].id != TypeId::kExtension && args[0].id != TypeId::kNull) {
          return Status::TypeError("PX expects a POINT");
        }
        return DataType::Double();
      },
      [](const std::vector<Value>& args) -> Result<Value> {
        if (args[0].is_null()) return Value::Null();
        STARBURST_ASSIGN_OR_RETURN(double x, PointCoord(args[0], true));
        return Value::Double(x);
      }}));

  STARBURST_RETURN_IF_ERROR(functions.RegisterScalar(ScalarFunctionDef{
      "PY", 1,
      [](const std::vector<DataType>& args) -> Result<DataType> {
        if (args[0].id != TypeId::kExtension && args[0].id != TypeId::kNull) {
          return Status::TypeError("PY expects a POINT");
        }
        return DataType::Double();
      },
      [](const std::vector<Value>& args) -> Result<Value> {
        if (args[0].is_null()) return Value::Null();
        STARBURST_ASSIGN_OR_RETURN(double y, PointCoord(args[0], false));
        return Value::Double(y);
      }}));

  // CONTAINS(point, xmin, ymin, xmax, ymax): window membership — exactly
  // the predicate shape the RTREE access STAR recognizes.
  STARBURST_RETURN_IF_ERROR(functions.RegisterScalar(ScalarFunctionDef{
      "CONTAINS", 5,
      [](const std::vector<DataType>& args) -> Result<DataType> {
        if (args[0].id != TypeId::kExtension && args[0].id != TypeId::kNull) {
          return Status::TypeError("CONTAINS expects a POINT first argument");
        }
        for (size_t i = 1; i < args.size(); ++i) {
          if (!args[i].is_numeric() && args[i].id != TypeId::kNull) {
            return Status::TypeError("CONTAINS window bounds must be numeric");
          }
        }
        return DataType::Bool();
      },
      [](const std::vector<Value>& args) -> Result<Value> {
        for (const Value& v : args) {
          if (v.is_null()) return Value::Null();
        }
        STARBURST_ASSIGN_OR_RETURN(double x, PointCoord(args[0], true));
        STARBURST_ASSIGN_OR_RETURN(double y, PointCoord(args[0], false));
        STARBURST_ASSIGN_OR_RETURN(double xmin, args[1].AsDouble());
        STARBURST_ASSIGN_OR_RETURN(double ymin, args[2].AsDouble());
        STARBURST_ASSIGN_OR_RETURN(double xmax, args[3].AsDouble());
        STARBURST_ASSIGN_OR_RETURN(double ymax, args[4].AsDouble());
        return Value::Bool(x >= xmin && x <= xmax && y >= ymin && y <= ymax);
      }}));

  STARBURST_RETURN_IF_ERROR(functions.RegisterScalar(ScalarFunctionDef{
      "DISTANCE", 2,
      [](const std::vector<DataType>& args) -> Result<DataType> {
        for (const DataType& t : args) {
          if (t.id != TypeId::kExtension && t.id != TypeId::kNull) {
            return Status::TypeError("DISTANCE expects POINT arguments");
          }
        }
        return DataType::Double();
      },
      [](const std::vector<Value>& args) -> Result<Value> {
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        STARBURST_ASSIGN_OR_RETURN(double x1, PointCoord(args[0], true));
        STARBURST_ASSIGN_OR_RETURN(double y1, PointCoord(args[0], false));
        STARBURST_ASSIGN_OR_RETURN(double x2, PointCoord(args[1], true));
        STARBURST_ASSIGN_OR_RETURN(double y2, PointCoord(args[1], false));
        return Value::Double(std::hypot(x1 - x2, y1 - y2));
      }}));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The R-tree access-method attachment (§1's DBC example)
// ---------------------------------------------------------------------------

class RTreeAttachment : public Attachment {
 public:
  RTreeAttachment(IndexDef def, size_t key_column)
      : def_(std::move(def)), key_column_(key_column) {}

  const IndexDef& def() const override { return def_; }

  Status OnInsert(const Row& row, Rid rid) override {
    STARBURST_ASSIGN_OR_RETURN(Rect rect, KeyRect(row));
    tree_.Insert(rect, rid);
    return Status::OK();
  }
  Status OnDelete(const Row& row, Rid rid) override {
    STARBURST_ASSIGN_OR_RETURN(Rect rect, KeyRect(row));
    return tree_.Remove(rect, rid);
  }

  uint64_t StatNodeVisits() const override { return tree_.stats().node_visits; }

  RTree& tree() { return tree_; }

 private:
  Result<Rect> KeyRect(const Row& row) const {
    const Value& v = row[key_column_];
    if (v.is_null()) return Rect::Point(0, 0);  // NULL points pile at origin
    STARBURST_ASSIGN_OR_RETURN(double x, PointCoord(v, true));
    STARBURST_ASSIGN_OR_RETURN(double y, PointCoord(v, false));
    return Rect::Point(x, y);
  }

  IndexDef def_;
  size_t key_column_;
  RTree tree_;
};

Status RegisterRTreeAttachmentKind(Database* db) {
  return db->storage().attachment_kinds().Register(
      "RTREE",
      [](const IndexDef& def,
         const TableSchema& schema) -> Result<std::unique_ptr<Attachment>> {
        if (def.key_columns.size() != 1) {
          return Status::InvalidArgument("RTREE indexes take one key column");
        }
        std::optional<size_t> col = schema.FindColumn(def.key_columns[0]);
        if (!col.has_value()) {
          return Status::SemanticError("RTREE index names unknown column '" +
                                       def.key_columns[0] + "'");
        }
        if (schema.column(*col).type != DataType::Extension("POINT")) {
          return Status::InvalidArgument("RTREE indexes require a POINT column");
        }
        return std::unique_ptr<Attachment>(
            new RTreeAttachment(def, *col));
      });
}

// ---------------------------------------------------------------------------
// The RTREE_SCAN QES operator and its TableAccess STAR
// ---------------------------------------------------------------------------

class RTreeScanOp : public exec::Operator {
 public:
  RTreeScanOp(const TableDef* table, const IndexDef* index, Rect window,
              std::vector<size_t> columns,
              std::vector<CompiledExprPtr> predicates)
      : table_(table), index_(index), window_(window),
        columns_(std::move(columns)), predicates_(std::move(predicates)) {}

  Status OpenImpl(exec::ExecContext* ctx) override {
    ctx_ = ctx;
    STARBURST_ASSIGN_OR_RETURN(storage_, ctx->storage()->GetTable(table_->name));
    STARBURST_ASSIGN_OR_RETURN(Attachment * attachment,
                               ctx->storage()->GetIndex(index_->name));
    auto* rtree = dynamic_cast<RTreeAttachment*>(attachment);
    if (rtree == nullptr) {
      return Status::Internal("index '" + index_->name + "' is not an R-tree");
    }
    matches_ = rtree->tree().Search(window_);
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatchImpl(RowBatch* batch) override {
    while (!batch->full() && pos_ < matches_.size()) {
      Rid rid = matches_[pos_++];
      STARBURST_ASSIGN_OR_RETURN(Row full, storage_->Fetch(rid));
      Row* slot = batch->AppendSlot();
      exec::ProjectStoredRow(full, rid, columns_, &slot->values());
      for (const CompiledExprPtr& p : predicates_) {
        STARBURST_ASSIGN_OR_RETURN(bool ok, p->EvalPredicate(*slot, ctx_));
        if (!ok) {
          batch->PopLast();
          break;
        }
      }
    }
    return !batch->empty();
  }

  void CloseImpl() override { matches_.clear(); }

 private:
  const TableDef* table_;
  const IndexDef* index_;
  Rect window_;
  std::vector<size_t> columns_;
  std::vector<CompiledExprPtr> predicates_;
  exec::ExecContext* ctx_ = nullptr;
  TableStorage* storage_ = nullptr;
  std::vector<Rid> matches_;
  size_t pos_ = 0;
};

/// Is `p` CONTAINS(q.col, xmin, ymin, xmax, ymax) with literal bounds?
bool MatchContainsPredicate(const Expr& p, const qgm::Quantifier* q,
                            size_t key_column, Rect* window) {
  if (p.kind != Expr::Kind::kScalarFunc || !IdentEquals(p.func_name, "CONTAINS")) {
    return false;
  }
  if (p.children.size() != 5) return false;
  const Expr& point = *p.children[0];
  if (point.kind != Expr::Kind::kColumnRef || point.quantifier != q ||
      point.column != key_column) {
    return false;
  }
  double bounds[4];
  for (int i = 0; i < 4; ++i) {
    const Expr& b = *p.children[i + 1];
    if (b.kind != Expr::Kind::kLiteral) return false;
    Result<double> d = b.literal.AsDouble();
    if (!d.ok()) return false;
    bounds[i] = *d;
  }
  *window = Rect{bounds[0], bounds[1], bounds[2], bounds[3]};
  return true;
}

/// The DBC's STAR: "Corona must recognize when this access method is
/// useful for a query and when to invoke it" (§1).
Status RTreeScanStar(optimizer::PlanGenerator& gen,
                     const optimizer::StarContext& ctx,
                     std::vector<PlanPtr>* out) {
  const qgm::Box* input = ctx.quantifier->input;
  if (input == nullptr || input->kind != qgm::BoxKind::kBaseTable ||
      input->table == nullptr || gen.catalog() == nullptr) {
    return Status::OK();
  }
  const TableDef* table = input->table;
  for (const IndexDef* index : gen.catalog()->IndexesOnTable(table->name)) {
    if (!IdentEquals(index->access_method, "RTREE")) continue;
    std::optional<size_t> key_col =
        table->schema.FindColumn(index->key_columns[0]);
    if (!key_col.has_value()) continue;
    for (const Expr* p : ctx.local_preds) {
      Rect window;
      if (!MatchContainsPredicate(*p, ctx.quantifier, *key_col, &window)) {
        continue;
      }
      auto scan = optimizer::NewPlan(Lolepop::kExtension);
      scan->ext_name = "RTREE_SCAN";
      scan->quantifier = ctx.quantifier;
      scan->table = table;
      scan->index = index;
      scan->index_predicate = p;
      scan->scan_columns = ctx.needed_columns;
      if (scan->scan_columns.empty()) {
        for (size_t i = 0; i < input->head.size(); ++i) {
          scan->scan_columns.push_back(i);
        }
      }
      for (size_t c : scan->scan_columns) {
        scan->output.push_back(
            optimizer::ColumnBinding{ctx.quantifier, nullptr, c});
      }
      for (const Expr* other : ctx.local_preds) {
        if (other != p) scan->predicates.push_back(other);
      }
      // Window selectivity: without spatial histograms the DBC assumes
      // windows are small (the reason one builds an R-tree at all).
      double rows = gen.cost().TableRows(table);
      double selectivity = 0.01;
      scan->props.cardinality = std::max(rows * selectivity, 1.0);
      scan->props.cost =
          std::log2(std::max(rows, 2.0)) * gen.cost().params().index_level +
          scan->props.cardinality *
              (gen.cost().params().rid_fetch + gen.cost().params().cpu_tuple);
      scan->props.rescan_cost = scan->props.cost;
      gen.CountPlan();
      out->push_back(std::move(scan));
      break;
    }
  }
  return Status::OK();
}

Result<OperatorPtr> BuildRTreeScan(const Plan& plan,
                                   exec::PlanRefiner& refiner) {
  std::optional<size_t> key_col =
      plan.table->schema.FindColumn(plan.index->key_columns[0]);
  if (!key_col.has_value()) {
    return Status::Internal("RTREE index key column vanished");
  }
  Rect window;
  if (!MatchContainsPredicate(*plan.index_predicate, plan.quantifier, *key_col,
                              &window)) {
    return Status::Internal("RTREE_SCAN plan without CONTAINS predicate");
  }
  std::vector<CompiledExprPtr> preds;
  for (const Expr* p : plan.predicates) {
    STARBURST_ASSIGN_OR_RETURN(CompiledExprPtr c,
                               refiner.Compile(*p, plan.output, nullptr));
    preds.push_back(std::move(c));
  }
  return OperatorPtr(new RTreeScanOp(plan.table, plan.index, window,
                                     plan.scan_columns, std::move(preds)));
}

}  // namespace

Status RegisterSpatialExtension(Database* db) {
  STARBURST_RETURN_IF_ERROR(RegisterPointType());
  STARBURST_RETURN_IF_ERROR(RegisterSpatialFunctions(&db->catalog()));
  STARBURST_RETURN_IF_ERROR(RegisterRTreeAttachmentKind(db));
  STARBURST_RETURN_IF_ERROR(db->RegisterStar(optimizer::Star{
      "rtree_scan", "TableAccess", /*rank=*/0, RTreeScanStar}));
  if (!exec::ExtOperatorRegistry::Global().Contains("RTREE_SCAN")) {
    STARBURST_RETURN_IF_ERROR(
        exec::ExtOperatorRegistry::Global().Register("RTREE_SCAN",
                                                     BuildRTreeScan));
  }
  return Status::OK();
}

}  // namespace starburst::ext
