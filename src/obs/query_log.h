#ifndef STARBURST_OBS_QUERY_LOG_H_
#define STARBURST_OBS_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace starburst::obs {

/// One statement's record — the row shape served by `sys.query_log` and,
/// for finished and live statements alike, by `sys.statements`.
struct QueryLogEntry {
  int64_t id = 0;           // the engine's statement id (KILL target)
  int64_t ts_us = 0;        // wall-clock statement start (µs since epoch)
  std::string sql;          // normalized, truncated to kMaxSqlLength
  std::string status;       // "running" (live only) | "ok" | "error" |
                            // "cancelled" | "timeout" | "rejected"
  std::string phase;        // "parse"/"compile"/"queued"/"execute": the
                            // current phase, or the one it finished in
  std::string error;        // empty when ok
  uint64_t rows = 0;        // rows returned (queries) or affected (DML)
  uint64_t parse_us = 0;
  uint64_t bind_us = 0;
  uint64_t rewrite_us = 0;
  uint64_t optimize_us = 0;
  uint64_t refine_us = 0;
  uint64_t queue_us = 0;  // admission queue wait (not execution time)
  uint64_t execute_us = 0;
  uint64_t total_us = 0;
  bool plan_cache_hit = false;
  uint64_t spill_bytes = 0;        // bytes spilled by this statement
  uint64_t peak_memory_bytes = 0;  // query memory high-water mark
  int parallelism = 1;
  /// Crossed the SLOW_QUERY_US threshold — judged on execution time
  /// (total_us − queue_us), so a fast query stuck behind the admission
  /// budget is not logged "slow".
  bool slow = false;
  std::string priority = "normal";  // scheduling class: high/normal/low
  std::string klass = "fast";       // compile-time classification
};

/// Ring-buffered history of finished statements — the engine's only one.
/// Append is a short critical section (one deque push + possible pop);
/// snapshots copy the ring so readers never block writers for long. The
/// capacity bounds memory (0 disables logging entirely), and
/// total()/dropped()/cleared() account for everything that ever passed
/// through.
class QueryLog {
 public:
  explicit QueryLog(size_t capacity = 256) : capacity_(capacity) {}

  /// Appends `entry` under the id its caller assigned, evicting the
  /// oldest past capacity. With capacity 0 the entry is counted but not
  /// retained (and not counted as dropped — nothing was evicted).
  void Append(QueryLogEntry entry);

  std::vector<QueryLogEntry> Snapshot() const;
  void Clear();

  size_t capacity() const;
  void set_capacity(size_t n);

  /// Statements ever logged / evicted by ring overflow / discarded by an
  /// explicit Clear(). Overflow and operator-requested clears are
  /// tracked separately so dropped() stays an honest eviction count.
  uint64_t total() const;
  uint64_t dropped() const;
  uint64_t cleared() const;

  /// SQL longer than this is truncated with a trailing ellipsis.
  static constexpr size_t kMaxSqlLength = 512;
  /// Truncates `sql` to kMaxSqlLength, ending it with "..." when cut.
  static void TruncateSql(std::string* sql);

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  std::deque<QueryLogEntry> ring_;
  uint64_t total_ = 0;
  uint64_t dropped_ = 0;
  uint64_t cleared_ = 0;
};

}  // namespace starburst::obs

#endif  // STARBURST_OBS_QUERY_LOG_H_
