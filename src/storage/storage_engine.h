#ifndef STARBURST_STORAGE_STORAGE_ENGINE_H_
#define STARBURST_STORAGE_STORAGE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/cancel.h"
#include "storage/attachment.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"

namespace starburst {

/// Core's runtime face: owns the pager/buffer pool, the per-table storage
/// instances (created by whichever storage manager the table was defined
/// under), and all attachments — and keeps attachments consistent across
/// row mutations. Corona calls down into this for every data access.
class StorageEngine {
 public:
  explicit StorageEngine(size_t buffer_capacity_pages = 4096)
      : pool_(&pager_, buffer_capacity_pages) {}

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  // -- DDL-side --
  Status CreateTable(const TableDef& def);
  Status DropTable(const std::string& name);
  /// Creates the attachment and backfills it from the table's current rows.
  Status CreateIndex(const IndexDef& def, const TableSchema& table_schema);
  Status DropIndex(const std::string& name);

  /// Test hook: the next DropTable/DropIndex call fails with an injected
  /// error before mutating anything, exercising the engine's DDL failure
  /// paths (catalog and storage must not diverge).
  void InjectDropFailure() { fail_next_drop_ = true; }

  // -- access --
  Result<TableStorage*> GetTable(const std::string& name);
  Result<Attachment*> GetIndex(const std::string& name);
  std::vector<Attachment*> AttachmentsOn(const std::string& table_name);

  // -- mutations with attachment maintenance --
  // InsertRow, UpdateRows and UpdateRow are all-or-nothing: on failure (a
  // duplicate unique key) the heap and every attachment are as they were.
  Result<Rid> InsertRow(const std::string& table_name, const Row& row);
  /// Returns the row it removed.
  Result<Row> DeleteRow(const std::string& table_name, Rid rid);
  /// One row an UpdateRows call changes: where it is and the new value of
  /// each updated column.
  struct RowUpdate {
    Rid rid;
    std::vector<Value> values;
  };
  /// Rows UpdateRows changes between checks of its cancel token.
  static constexpr size_t kCancelCheckRows = 256;
  /// Sets `columns` of every row to its `values` as one change, so keys
  /// are checked against the final state as SQL checks a statement's:
  /// every old key leaves every attachment, then the heap rows change and
  /// their new keys go in (`SET id = id + 1` over ids 1, 2, 3 passes).
  /// Each row is fetched once. `cancel`, when given, is checked every
  /// kCancelCheckRows rows of each step and once at the end; a KILL or an
  /// expired deadline fails the update like a duplicate key. Returns each
  /// row's rid after the update, in order (the heap may move a row).
  Result<std::vector<Rid>> UpdateRows(const std::string& table_name,
                                      const std::vector<size_t>& columns,
                                      const std::vector<RowUpdate>& updates,
                                      CancelToken* cancel = nullptr);
  /// UpdateRows of one whole row.
  Result<Rid> UpdateRow(const std::string& table_name, Rid rid, const Row& row);

  BufferPool& buffer_pool() { return pool_; }
  StorageManagerRegistry& storage_managers() { return managers_; }
  AttachmentRegistry& attachment_kinds() { return attachment_kinds_; }

  /// One observability snapshot across the whole storage layer: buffer
  /// pool counters plus node visits summed over every attachment.
  struct Stats {
    BufferPoolStats buffer_pool;
    uint64_t index_node_visits = 0;
  };
  Stats GatherStats() const {
    Stats s;
    s.buffer_pool = pool_.stats();
    for (const auto& [name, attachment] : indexes_) {
      s.index_node_visits += attachment->StatNodeVisits();
    }
    return s;
  }

 private:
  Pager pager_;
  BufferPool pool_;
  StorageManagerRegistry managers_;
  AttachmentRegistry attachment_kinds_;
  std::map<std::string, std::unique_ptr<TableStorage>> tables_;
  std::map<std::string, std::unique_ptr<Attachment>> indexes_;
  std::map<std::string, std::string> index_table_;  // index -> table
  bool fail_next_drop_ = false;
};

}  // namespace starburst

#endif  // STARBURST_STORAGE_STORAGE_ENGINE_H_
