#include "engine/plan_cache.h"

#include <cctype>
#include <iterator>

namespace starburst {

bool PreparedStatement::FreshAgainst(const Catalog& catalog) const {
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
    Erase(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  entries_.clear();
}

std::unordered_multimap<std::string, PlanCache::Lru::iterator>::iterator
PlanCache::Find(const std::string& sql, const SessionOptions& options) {
  auto [it, end] = entries_.equal_range(sql);
  while (it != end && !(it->second->stmt->options == options)) ++it;
  return it == end ? entries_.end() : it;
}

void PlanCache::Erase(Lru::iterator pos) {
  auto [it, end] = entries_.equal_range(pos->sql);
  while (it->second != pos) ++it;
  entries_.erase(it);
  lru_.erase(pos);
}

PreparedStatementPtr PlanCache::Lookup(const std::string& sql,
                                       const SessionOptions& options,
                                       const Catalog& catalog) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = Find(sql, options);
  if (it == entries_.end()) return nullptr;
  PreparedStatementPtr stmt = it->second->stmt;
  if (!stmt->FreshAgainst(catalog)) {
    Erase(it->second);
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

void PlanCache::Insert(const std::string& sql, PreparedStatementPtr stmt) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  auto it = Find(sql, stmt->options);
  if (it != entries_.end()) {
    it->second->stmt = std::move(stmt);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{sql, std::move(stmt)});
  entries_.emplace(sql, lru_.begin());
  if (lru_.size() > capacity_) {
    Erase(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

std::vector<std::pair<std::string, PreparedStatementPtr>> PlanCache::Entries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, PreparedStatementPtr>> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) out.emplace_back(e.sql, e.stmt);
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
