#ifndef STARBURST_STORAGE_STORAGE_ENGINE_H_
#define STARBURST_STORAGE_STORAGE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
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
  // InsertRow and UpdateRow are all-or-nothing: on failure (a duplicate
  // unique key) the heap and every attachment are as they were.
  Result<Rid> InsertRow(const std::string& table_name, const Row& row);
  /// Returns the row it removed.
  Result<Row> DeleteRow(const std::string& table_name, Rid rid);
  /// Returns the row's rid after the update (the heap may move it).
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
