#include "storage/storage_engine.h"

namespace starburst {

Status StorageEngine::CreateTable(const TableDef& def) {
  std::string key = IdentUpper(def.name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table storage '" + key + "' exists");
  }
  STARBURST_ASSIGN_OR_RETURN(StorageManager * manager,
                             managers_.Lookup(def.storage_manager));
  STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<TableStorage> storage,
                             manager->CreateTable(def, &pool_));
  tables_.emplace(key, std::move(storage));
  return Status::OK();
}

Status StorageEngine::DropTable(const std::string& name) {
  if (fail_next_drop_) {
    fail_next_drop_ = false;
    return Status::Internal("injected drop failure");
  }
  std::string key = IdentUpper(name);
  if (tables_.erase(key) == 0) {
    return Status::NotFound("table storage '" + key + "' does not exist");
  }
  for (auto it = index_table_.begin(); it != index_table_.end();) {
    if (it->second == key) {
      indexes_.erase(it->first);
      it = index_table_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status StorageEngine::CreateIndex(const IndexDef& def,
                                  const TableSchema& table_schema) {
  std::string key = IdentUpper(def.name);
  if (indexes_.count(key)) {
    return Status::AlreadyExists("index '" + key + "' exists");
  }
  STARBURST_ASSIGN_OR_RETURN(const AttachmentFactory* factory,
                             attachment_kinds_.Lookup(def.access_method));
  STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<Attachment> attachment,
                             (*factory)(def, table_schema));
  STARBURST_ASSIGN_OR_RETURN(TableStorage * table, GetTable(def.table_name));

  // Backfill from existing rows.
  std::unique_ptr<TableScanIterator> scan = table->NewScan();
  Row row;
  Rid rid;
  while (true) {
    STARBURST_ASSIGN_OR_RETURN(bool more, scan->Next(&row, &rid));
    if (!more) break;
    STARBURST_RETURN_IF_ERROR(attachment->OnInsert(row, rid));
  }

  index_table_[key] = IdentUpper(def.table_name);
  indexes_.emplace(key, std::move(attachment));
  return Status::OK();
}

Status StorageEngine::DropIndex(const std::string& name) {
  if (fail_next_drop_) {
    fail_next_drop_ = false;
    return Status::Internal("injected drop failure");
  }
  std::string key = IdentUpper(name);
  if (indexes_.erase(key) == 0) {
    return Status::NotFound("index '" + key + "' does not exist");
  }
  index_table_.erase(key);
  return Status::OK();
}

Result<TableStorage*> StorageEngine::GetTable(const std::string& name) {
  auto it = tables_.find(IdentUpper(name));
  if (it == tables_.end()) {
    return Status::NotFound("table storage '" + IdentUpper(name) +
                            "' does not exist");
  }
  return it->second.get();
}

Result<Attachment*> StorageEngine::GetIndex(const std::string& name) {
  auto it = indexes_.find(IdentUpper(name));
  if (it == indexes_.end()) {
    return Status::NotFound("index '" + IdentUpper(name) + "' does not exist");
  }
  return it->second.get();
}

std::vector<Attachment*> StorageEngine::AttachmentsOn(
    const std::string& table_name) {
  std::string key = IdentUpper(table_name);
  std::vector<Attachment*> out;
  for (const auto& [index_name, table] : index_table_) {
    if (table == key) out.push_back(indexes_[index_name].get());
  }
  return out;
}

Result<Rid> StorageEngine::InsertRow(const std::string& table_name,
                                     const Row& row) {
  STARBURST_ASSIGN_OR_RETURN(TableStorage * table, GetTable(table_name));
  STARBURST_ASSIGN_OR_RETURN(Rid rid, table->Insert(row));
  std::vector<Attachment*> atts = AttachmentsOn(table_name);
  for (size_t i = 0; i < atts.size(); ++i) {
    Status st = atts[i]->OnInsert(row, rid);
    if (!st.ok()) {
      // Undo the keys already added and the base insert, so a unique
      // violation leaves no orphan key or row.
      while (i > 0) (void)atts[--i]->OnDelete(row, rid);
      (void)table->Delete(rid);
      return st;
    }
  }
  return rid;
}

Result<Row> StorageEngine::DeleteRow(const std::string& table_name, Rid rid) {
  STARBURST_ASSIGN_OR_RETURN(TableStorage * table, GetTable(table_name));
  STARBURST_ASSIGN_OR_RETURN(Row row, table->Fetch(rid));
  STARBURST_RETURN_IF_ERROR(table->Delete(rid));
  for (Attachment* att : AttachmentsOn(table_name)) {
    STARBURST_RETURN_IF_ERROR(att->OnDelete(row, rid));
  }
  return row;
}

Result<Rid> StorageEngine::UpdateRow(const std::string& table_name, Rid rid,
                                     const Row& row) {
  STARBURST_ASSIGN_OR_RETURN(TableStorage * table, GetTable(table_name));
  STARBURST_ASSIGN_OR_RETURN(Row old_row, table->Fetch(rid));
  STARBURST_ASSIGN_OR_RETURN(Rid new_rid, table->Update(rid, row));
  // Every old key leaves before any new key enters, so a row may keep its
  // own unique key. A failure puts back the keys moved so far and the
  // heap row (under whatever rid it lands on).
  std::vector<Attachment*> atts = AttachmentsOn(table_name);
  size_t removed = 0, inserted = 0;
  Status st;
  while (st.ok() && removed < atts.size()) {
    st = atts[removed]->OnDelete(old_row, rid);
    removed += st.ok() ? 1 : 0;
  }
  while (st.ok() && inserted < atts.size()) {
    st = atts[inserted]->OnInsert(row, new_rid);
    inserted += st.ok() ? 1 : 0;
  }
  if (st.ok()) return new_rid;
  while (inserted > 0) (void)atts[--inserted]->OnDelete(row, new_rid);
  Result<Rid> restored = table->Update(new_rid, old_row);
  Rid old_rid = restored.ok() ? *restored : new_rid;
  while (removed > 0) (void)atts[--removed]->OnInsert(old_row, old_rid);
  return st;
}

}  // namespace starburst
