#include "engine/plan_cache.h"

#include <cctype>

namespace starburst {

bool CompiledSelect::FreshAgainst(const Catalog& catalog) const {
  if (catalog.version() == catalog_version) return true;
  for (const auto& [key, stamp] : dependencies) {
    if (catalog.ObjectVersion(key) != stamp) return false;
  }
  return true;
}

void PlanCache::set_capacity(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = n;
  if (n == 0) {
    lru_.clear();
    entries_.clear();
    return;
  }
  while (lru_.size() > capacity_) {
    entries_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

PreparedStatementPtr PlanCache::Lookup(const std::string& key,
                                       const Catalog& catalog, bool* busy) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  PreparedStatementPtr stmt = it->second->stmt;
  if (!stmt->TryCheckout()) {
    ++stats_.misses;
    *busy = true;
    return nullptr;
  }
  if (!stmt->FreshAgainst(catalog)) {
    stmt->Release();
    lru_.erase(it->second);
    entries_.erase(it);
    ++stats_.invalidations;
    return nullptr;
  }
  // Unrelated DDL moved the global version but every dependency stamp
  // still matches: re-stamp so the next lookup short-circuits again.
  stmt->catalog_version = catalog.version();
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return stmt;
}

void PlanCache::Insert(const std::string& key, PreparedStatementPtr stmt) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second->stmt = std::move(stmt);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(stmt)});
  entries_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    entries_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::vector<std::pair<std::string, PreparedStatementPtr>> PlanCache::Entries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, PreparedStatementPtr>> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) out.emplace_back(e.key, e.stmt);
  return out;
}

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_string = false;
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (in_string) {
      out.push_back(c);
      if (c == '\'') in_string = false;  // '' escapes re-enter immediately
      continue;
    }
    if (c == '\'') {
      if (pending_space && !out.empty()) out.push_back(' ');
      pending_space = false;
      out.push_back(c);
      in_string = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

}  // namespace starburst
