#include "storage/storage_engine.h"

#include <algorithm>
#include <numeric>

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

Result<std::vector<Rid>> StorageEngine::UpdateRows(
    const std::string& table_name, const std::vector<size_t>& columns,
    const std::vector<RowUpdate>& updates, CancelToken* cancel) {
  STARBURST_ASSIGN_OR_RETURN(TableStorage * table, GetTable(table_name));
  const size_t end_column =
      columns.empty() ? 0 : *std::max_element(columns.begin(), columns.end()) + 1;
  std::vector<Row> old_rows;
  old_rows.reserve(updates.size());
  for (const RowUpdate& u : updates) {
    STARBURST_ASSIGN_OR_RETURN(Row old_row, table->Fetch(u.rid));
    if (old_row.size() < end_column) {
      return Status::InvalidArgument("update column out of range");
    }
    old_rows.push_back(std::move(old_row));
  }
  auto new_row = [&](size_t r) {
    Row row = old_rows[r];
    for (size_t c = 0; c < columns.size(); ++c) {
      row[columns[c]] = updates[r].values[c];
    }
    return row;
  };
  auto check = [&](size_t r) {
    return cancel != nullptr && r % kCancelCheckRows == 0 ? cancel->Check()
                                                          : Status::OK();
  };
  // Every old key leaves every attachment, then each row changes in the
  // heap and its new keys go in. Keys are counted row by row, so a failure
  // undoes exactly what was done, in reverse.
  std::vector<Attachment*> atts = AttachmentsOn(table_name);
  const size_t width = atts.size();
  auto keys_of_row = [&](size_t count, size_t r) {
    return count > r * width ? std::min(width, count - r * width) : 0;
  };
  std::vector<Rid> rids;
  rids.reserve(updates.size());
  size_t removed = 0, inserted = 0;
  Status st;
  for (size_t r = 0; st.ok() && r < updates.size(); ++r) {
    st = check(r);
    for (size_t a = 0; st.ok() && a < width; ++a) {
      st = atts[a]->OnDelete(old_rows[r], updates[r].rid);
      removed += st.ok() ? 1 : 0;
    }
  }
  for (size_t r = 0; st.ok() && r < updates.size(); ++r) {
    st = check(r);
    if (!st.ok()) break;
    Row row = new_row(r);
    Result<Rid> moved = table->Update(updates[r].rid, row);
    st = moved.status();
    if (!st.ok()) break;
    rids.push_back(*moved);
    for (size_t a = 0; st.ok() && a < width; ++a) {
      st = atts[a]->OnInsert(row, *moved);
      inserted += st.ok() ? 1 : 0;
    }
  }
  // A deadline that passed while the last rows changed fails it too.
  if (st.ok() && cancel != nullptr) st = cancel->Check();
  if (st.ok()) return rids;
  // The heap may put a restored row under a new rid; its old keys follow.
  std::vector<Rid> old_rids;
  old_rids.reserve(updates.size());
  for (const RowUpdate& u : updates) old_rids.push_back(u.rid);
  for (size_t r = rids.size(); r-- > 0;) {
    Row row = new_row(r);
    for (size_t a = keys_of_row(inserted, r); a-- > 0;) {
      (void)atts[a]->OnDelete(row, rids[r]);
    }
    Result<Rid> restored = table->Update(rids[r], old_rows[r]);
    old_rids[r] = restored.ok() ? *restored : rids[r];
  }
  for (size_t r = updates.size(); r-- > 0;) {
    for (size_t a = keys_of_row(removed, r); a-- > 0;) {
      (void)atts[a]->OnInsert(old_rows[r], old_rids[r]);
    }
  }
  return st;
}

Result<Rid> StorageEngine::UpdateRow(const std::string& table_name, Rid rid,
                                     const Row& row) {
  std::vector<size_t> columns(row.size());
  std::iota(columns.begin(), columns.end(), 0);
  STARBURST_ASSIGN_OR_RETURN(
      std::vector<Rid> rids,
      UpdateRows(table_name, columns, {RowUpdate{rid, row.values()}}));
  return rids[0];
}

}  // namespace starburst
