#include "engine/statement_registry.h"

#include <utility>

namespace starburst {

void StatementRegistry::Register(obs::QueryLogEntry row,
                                 CancelToken* token) {
  obs::QueryLog::TruncateSql(&row.sql);
  row.status = "running";
  const int64_t id = row.id;
  Live live{std::move(row), token, nullptr};
  std::lock_guard<std::mutex> lock(mu_);
  live_.insert_or_assign(id, std::move(live));
}

void StatementRegistry::Update(const obs::QueryLogEntry& row) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(row.id);
  if (it == live_.end()) return;
  obs::QueryLogEntry& live = it->second.row;
  live.phase = row.phase;
  live.priority = row.priority;
  live.klass = row.klass;
  live.queue_us = row.queue_us;
}

void StatementRegistry::SetMemoryTracker(int64_t id,
                                         const MemoryTracker* tracker) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(id);
  if (it != live_.end()) it->second.memory = tracker;
}

void StatementRegistry::Finish(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  live_.erase(id);
}

Status StatementRegistry::Kill(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(id);
  if (it == live_.end()) {
    return Status::NotFound("no running statement with id " +
                            std::to_string(id));
  }
  it->second.token->Kill();
  return Status::OK();
}

std::vector<obs::QueryLogEntry> StatementRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<obs::QueryLogEntry> out;
  out.reserve(live_.size());
  for (const auto& [id, live] : live_) {
    out.push_back(live.row);
    if (live.memory != nullptr) {
      out.back().peak_memory_bytes = live.memory->peak();
    }
  }
  return out;
}

size_t StatementRegistry::live_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

}  // namespace starburst
