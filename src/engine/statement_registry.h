#ifndef STARBURST_ENGINE_STATEMENT_REGISTRY_H_
#define STARBURST_ENGINE_STATEMENT_REGISTRY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "obs/query_log.h"

namespace starburst {

/// The engine's live-statement table: every statement registers at start
/// and leaves at end; its finished record lives on in obs::QueryLog.
/// `KILL <id>` resolves its target here, and `sys.statements` lists
/// Snapshot() before the query log. All methods are thread-safe —
/// registration, phase updates, kills, and snapshot scans arrive from
/// different sessions.
class StatementRegistry {
 public:
  /// Admits a live statement under `row.id` with status "running"; `row`
  /// carries its normalized SQL, start time and phase. `token` must
  /// outlive the statement (it is the per-statement CancelToken owned by
  /// the session state); KILL flips it through this registry.
  void Register(obs::QueryLogEntry row, CancelToken* token);

  /// Copies the phase, workload labels and queue wait of `row` into the
  /// live entry with its id. Unknown ids are ignored — compile paths
  /// that run outside a registered statement (Prepare) pass id 0.
  void Update(const obs::QueryLogEntry& row);

  /// Points the live entry at the executing query's memory tracker so
  /// snapshots report a live peak. Cleared (nullptr) by the executor
  /// before the tracker dies; tracker counters are atomic, so concurrent
  /// snapshot reads are safe.
  void SetMemoryTracker(int64_t id, const MemoryTracker* tracker);

  /// Retires a live statement. Unknown ids are ignored.
  void Finish(int64_t id);

  /// Trips the statement's cancel token. NotFound when `id` is not live
  /// (finished statements cannot be killed).
  Status Kill(int64_t id);

  /// Live statements, oldest first, in the query log's row shape
  /// (status "running", total_us 0).
  std::vector<obs::QueryLogEntry> Snapshot() const;

  size_t live_count() const;

 private:
  struct Live {
    obs::QueryLogEntry row;
    CancelToken* token = nullptr;
    const MemoryTracker* memory = nullptr;
  };

  mutable std::mutex mu_;
  std::map<int64_t, Live> live_;
};

}  // namespace starburst

#endif  // STARBURST_ENGINE_STATEMENT_REGISTRY_H_
