#include "obs/query_log.h"

namespace starburst::obs {

void QueryLog::TruncateSql(std::string* sql) {
  if (sql->size() <= kMaxSqlLength) return;
  sql->resize(kMaxSqlLength - 3);
  *sql += "...";
}

void QueryLog::Append(QueryLogEntry entry) {
  TruncateSql(&entry.sql);
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  // Capacity 0 means logging is disabled: total() keeps counting, but
  // nothing is retained and nothing is counted as dropped — an empty ring
  // never evicted anything.
  if (capacity_ == 0) return;
  ring_.push_back(std::move(entry));
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

std::vector<QueryLogEntry> QueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<QueryLogEntry>(ring_.begin(), ring_.end());
}

void QueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // An operator-requested clear is not ring overflow: it lands in
  // cleared(), keeping dropped() an honest eviction count.
  cleared_ += ring_.size();
  ring_.clear();
}

size_t QueryLog::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void QueryLog::set_capacity(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = n;
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

uint64_t QueryLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t QueryLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

uint64_t QueryLog::cleared() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cleared_;
}

}  // namespace starburst::obs
