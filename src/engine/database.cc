#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <set>

#if defined(__GLIBC__)
#include <malloc.h>

#include <mutex>
#endif

#include "exec/expr_eval.h"
#include "exec/parallel/task_scheduler.h"
#include "parser/parser.h"
#include "qgm/binder.h"
#include "qgm/printer.h"
#include "storage/spill_file.h"

namespace starburst {

namespace {

struct ValueTotalLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.CompareTotal(b) < 0;
  }
};

}  // namespace

struct Database::LayerStats {
  PlanCache::Stats plan_cache;
  uint64_t plan_cache_entries = 0;
  BufferPoolStats buffer_pool;
  AdmissionController::Stats admission;
  uint64_t statements_live = 0;
  uint64_t query_log_dropped = 0;
  uint64_t query_log_cleared = 0;
};

Database::Database(size_t buffer_pool_pages)
    : storage_(buffer_pool_pages),
      rule_engine_(rewrite::MakeDefaultRuleEngine()) {
#if defined(__GLIBC__)
  // Query results are built from many small allocations and freed in one
  // burst when the caller drops the ResultSet. glibc's default trim
  // policy hands that burst back to the kernel, so the next statement
  // re-faults the same pages. A database process keeps its working set:
  // retain up to 64 MiB of freed arena for reuse.
  static std::once_flag malloc_tuned;
  std::call_once(malloc_tuned, [] { mallopt(M_TRIM_THRESHOLD, 64 << 20); });
#endif
#ifdef STARBURST_PARANOID_QGM
  // Sanitizer builds re-validate the whole QGM after every rule firing.
  options_.rewrite.paranoid_validation = true;
#endif
  // Resolve every engine metric once; statement-end bookkeeping then
  // touches only the returned atomics.
  obs::MetricsRegistry& r = metrics_registry_;
  em_.queries_total = r.counter("queries_total");
  em_.query_errors_total = r.counter("query_errors_total");
  em_.slow_queries_total = r.counter("slow_queries_total");
  em_.query_latency_us =
      r.histogram("query_latency_us", obs::MetricsRegistry::LatencyBoundsUs());
  em_.memory_query_peak_bytes = r.gauge("memory_query_peak_bytes");
  em_.memory_query_peak_max_bytes = r.gauge("memory_query_peak_max_bytes");
  em_.statements_killed_total = r.counter("statements_killed_total");
  em_.statements_cancelled_total = r.counter("statements_cancelled_total");
  em_.statements_timed_out_total = r.counter("statements_timed_out_total");

  // Values the layers keep themselves, copied into the registry by
  // RefreshMetricsMirrors.
  using L = LayerStats;
  using Sched = exec::parallel::TaskScheduler;
  enum Kind { kCounter, kGauge };
  struct MirrorDef {
    const char* name;
    Kind kind;
    uint64_t (*read)(const L&);
  };
  static constexpr MirrorDef kMirrors[] = {
      {"plan_cache_hits_total", kCounter,
       [](const L& l) { return l.plan_cache.hits; }},
      {"plan_cache_misses_total", kCounter,
       [](const L& l) { return l.plan_cache.misses; }},
      {"plan_cache_invalidations_total", kCounter,
       [](const L& l) { return l.plan_cache.invalidations; }},
      {"plan_cache_evictions_total", kCounter,
       [](const L& l) { return l.plan_cache.evictions; }},
      {"plan_cache_entries", kGauge,
       [](const L& l) { return l.plan_cache_entries; }},
      {"buffer_pool_logical_reads_total", kCounter,
       [](const L& l) { return l.buffer_pool.logical_reads; }},
      {"buffer_pool_cache_hits_total", kCounter,
       [](const L& l) { return l.buffer_pool.cache_hits; }},
      {"buffer_pool_disk_reads_total", kCounter,
       [](const L& l) { return l.buffer_pool.disk_reads; }},
      {"buffer_pool_disk_writes_total", kCounter,
       [](const L& l) { return l.buffer_pool.disk_writes; }},
      {"spill_files_created_total", kCounter,
       [](const L&) { return SpillFile::total_count(); }},
      {"spill_bytes_written_total", kCounter,
       [](const L&) { return SpillFile::total_bytes(); }},
      {"spill_live_files", kGauge,
       [](const L&) { return SpillFile::live_count(); }},
      {"spill_live_bytes", kGauge,
       [](const L&) { return SpillFile::live_bytes(); }},
      {"scheduler_tasks_run_total", kCounter,
       [](const L&) { return Sched::total_tasks_run(); }},
      {"scheduler_workers_spawned_total", kCounter,
       [](const L&) { return Sched::total_workers_spawned(); }},
      {"scheduler_preemptions_total", kCounter,
       [](const L&) { return Sched::total_preemptions(); }},
      {"admission_queued_total", kCounter,
       [](const L& l) { return l.admission.queued_total; }},
      {"admission_rejected_total", kCounter,
       [](const L& l) { return l.admission.rejected_total; }},
      {"admission_timeouts_total", kCounter,
       [](const L& l) { return l.admission.timeout_total; }},
      {"admission_cancelled_while_queued_total", kCounter,
       [](const L& l) { return l.admission.cancelled_while_queued_total; }},
      {"admission_aged_total", kCounter,
       [](const L& l) { return l.admission.aged_total; }},
      {"admission_high_admitted_total", kCounter,
       [](const L& l) { return l.admission.admitted_by_class[0]; }},
      {"admission_normal_admitted_total", kCounter,
       [](const L& l) { return l.admission.admitted_by_class[1]; }},
      {"admission_low_admitted_total", kCounter,
       [](const L& l) { return l.admission.admitted_by_class[2]; }},
      {"admission_high_queued_total", kCounter,
       [](const L& l) { return l.admission.queued_by_class[0]; }},
      {"admission_normal_queued_total", kCounter,
       [](const L& l) { return l.admission.queued_by_class[1]; }},
      {"admission_low_queued_total", kCounter,
       [](const L& l) { return l.admission.queued_by_class[2]; }},
      {"admission_waiting", kGauge,
       [](const L& l) { return l.admission.waiting_now; }},
      {"admission_in_use_bytes", kGauge,
       [](const L& l) { return l.admission.in_use_bytes; }},
      {"admission_budget_bytes", kGauge,
       [](const L& l) { return l.admission.budget_bytes; }},
      {"statements_live", kGauge, [](const L& l) { return l.statements_live; }},
      {"query_log_dropped_total", kCounter,
       [](const L& l) { return l.query_log_dropped; }},
      {"query_log_cleared_total", kCounter,
       [](const L& l) { return l.query_log_cleared; }},
  };
  for (const MirrorDef& m : kMirrors) {
    mirrors_.push_back(m.kind == kGauge
                           ? Mirror{nullptr, r.gauge(m.name), m.read}
                           : Mirror{r.counter(m.name), nullptr, m.read});
  }
  RegisterSystemTables();
}

Status Database::RegisterStar(optimizer::Star star) {
  extra_stars_.push_back(std::move(star));
  return Status::OK();
}

namespace {

/// Rows a statement produced, for the query log: result rows for
/// queries, affected rows for DML, 0 on error.
uint64_t LoggedRowCount(const Result<ResultSet>& r) {
  if (!r.ok()) return 0;
  if ((*r).row_count() > 0) return (*r).row_count();
  return static_cast<uint64_t>(std::max<int64_t>(0, (*r).affected_rows()));
}

/// Fallback query-log label for script statements, whose original text
/// is not retained per statement.
const char* StatementKindLabel(ast::StatementKind kind) {
  switch (kind) {
    case ast::StatementKind::kSelect: return "<script SELECT>";
    case ast::StatementKind::kExplain: return "<script EXPLAIN>";
    case ast::StatementKind::kCreateTable: return "<script CREATE TABLE>";
    case ast::StatementKind::kDropTable: return "<script DROP TABLE>";
    case ast::StatementKind::kCreateIndex: return "<script CREATE INDEX>";
    case ast::StatementKind::kDropIndex: return "<script DROP INDEX>";
    case ast::StatementKind::kCreateView: return "<script CREATE VIEW>";
    case ast::StatementKind::kDropView: return "<script DROP VIEW>";
    case ast::StatementKind::kInsert: return "<script INSERT>";
    case ast::StatementKind::kDelete: return "<script DELETE>";
    case ast::StatementKind::kUpdate: return "<script UPDATE>";
    case ast::StatementKind::kSet: return "<script SET>";
    case ast::StatementKind::kAnalyze: return "<script ANALYZE>";
    case ast::StatementKind::kKill: return "<script KILL>";
  }
  return "<script statement>";
}

}  // namespace

Database::StatementState& Database::stmt_state() {
  thread_local StatementState state;
  return state;
}

void Database::BeginStatement(const std::string& sql) {
  StatementState& s = stmt_state();
  s.metrics = QueryMetrics{};
  s.cancel.Reset();
  if (statement_timeout_ms_ > 0) s.cancel.SetTimeoutMs(statement_timeout_ms_);
  s.admission_rejected = false;
  s.row = obs::QueryLogEntry{};
  s.row.id = static_cast<int64_t>(++statement_seq_);
  s.row.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count();
  s.row.sql = NormalizeSql(sql);
  s.row.phase = "parse";
  s.row.parallelism = options_.exec.parallelism == 0
                          ? 1
                          : static_cast<int>(options_.exec.parallelism);
  statements_.Register(s.row, &s.cancel);
}

void Database::EnterPhase(const char* phase) {
  StatementState& s = stmt_state();
  s.row.phase = phase;
  statements_.Update(s.row);
}

Result<ResultSet> Database::Execute(const std::string& sql) {
  BeginStatement(sql);
  const double start_us = obs::NowUs();
  Result<ResultSet> result = ExecuteInternal(sql);
  FinishStatement(result.status(), LoggedRowCount(result),
                  obs::NowUs() - start_us);
  return result;
}

Result<ResultSet> Database::ExecuteInternal(const std::string& sql) {
  obs::Span statement_span(&tracer_, "statement", "query");
  statement_span.AddArg("sql",
                        sql.size() > 120 ? sql.substr(0, 117) + "..." : sql);
  // Plan-cache fast path: a fresh entry for the normalized SQL compiled
  // under equal session options re-executes the compiled operator tree
  // without touching the parser — the whole compile half of Figure 1 is
  // skipped.
  std::string cache_key;
  if (plan_cache_.capacity() > 0) {
    cache_key = stmt_state().row.sql;  // BeginStatement normalized `sql`
    if (PreparedStatementPtr hit =
            plan_cache_.Lookup(cache_key, options_, catalog_)) {
      if (hit->num_params > 0) {
        return Status::InvalidArgument(
            "statement contains ? parameters; supply values through "
            "ExecutePrepared");
      }
      stmt_state().metrics.plan_cache_hit = true;
      STARBURST_ASSIGN_OR_RETURN(QueryOutput out,
                                 ExecuteCompiled(*hit, nullptr));
      SnapshotPlanCacheMetrics();
      return ResultSet(std::move(out.column_names), std::move(out.rows));
    }
  }
  obs::PhaseTimer parse_phase(&tracer_, "parse",
                              &stmt_state().metrics.parse_us);
  Parser parser(sql);
  STARBURST_ASSIGN_OR_RETURN(ast::StatementPtr stmt, parser.ParseStatement());
  parse_phase.End();
  return ExecuteStatement(*stmt, cache_key);
}

Result<ResultSet> Database::ExecuteScript(const std::string& sql) {
  Parser parser(sql);
  STARBURST_ASSIGN_OR_RETURN(std::vector<ast::StatementPtr> stmts,
                             parser.ParseScript());
  const std::vector<double>& parse_us = parser.statement_parse_us();
  ResultSet last = ResultSet::Message("empty script");
  for (size_t i = 0; i < stmts.size(); ++i) {
    // Each statement begins fresh: without the reset, phase timings and
    // exec stats of earlier statements bleed into the metrics of the
    // last one.
    const char* label = StatementKindLabel(stmts[i]->kind);
    BeginStatement(label);
    stmt_state().metrics.parse_us = i < parse_us.size() ? parse_us[i] : 0;
    const double start_us = obs::NowUs();
    Result<ResultSet> r = ExecuteStatement(*stmts[i]);
    FinishStatement(r.status(), LoggedRowCount(r),
                    stmt_state().metrics.parse_us + obs::NowUs() - start_us);
    if (!r.ok()) return r.status();
    last = r.TakeValue();
  }
  return last;
}

Result<Database::PreparedHandle> Database::Prepare(const std::string& sql) {
  // Prepare is not a registered statement (there is nothing to KILL):
  // reset the thread's statement state without admitting it.
  StatementState& s = stmt_state();
  s.metrics = QueryMetrics{};
  s.cancel.Reset();
  s.row = obs::QueryLogEntry{};
  s.admission_rejected = false;
  // No FinishStatement runs for a Prepare; publish its compile metrics
  // to last_metrics() on every exit path ourselves.
  struct MetricsGuard {
    Database* db;
    ~MetricsGuard() {
      std::lock_guard<std::mutex> lock(db->last_metrics_mu_);
      db->last_metrics_ = stmt_state().metrics;
    }
  } metrics_guard{this};
  obs::Span statement_span(&tracer_, "prepare", "query");
  std::string cache_key;
  if (plan_cache_.capacity() > 0) {
    cache_key = NormalizeSql(sql);
    if (PreparedStatementPtr hit =
            plan_cache_.Lookup(cache_key, options_, catalog_)) {
      stmt_state().metrics.plan_cache_hit = true;
      SnapshotPlanCacheMetrics();
      return hit;
    }
  }
  STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr ps, CompileSelectText(sql));
  ps->sql = sql;
  if (!cache_key.empty()) {
    plan_cache_.CountMiss();
    plan_cache_.Insert(cache_key, ps);
  }
  SnapshotPlanCacheMetrics();
  return ps;
}

Result<PreparedStatementPtr> Database::CompileSelectText(
    const std::string& sql) {
  obs::PhaseTimer parse_phase(&tracer_, "parse",
                              &stmt_state().metrics.parse_us);
  Parser parser(sql);
  STARBURST_ASSIGN_OR_RETURN(ast::StatementPtr stmt, parser.ParseStatement());
  parse_phase.End();
  if (stmt->kind != ast::StatementKind::kSelect) {
    return Status::InvalidArgument("only SELECT statements can be prepared");
  }
  return CompileSelect(*static_cast<const ast::SelectStatement&>(*stmt).query,
                       nullptr);
}

namespace {

/// Swaps in a freshly compiled artifact under an existing handle. Old
/// execution state is torn down first, top of the reference chain first
/// (operators → plan → optimizer → graph), so nothing dangles mid-swap;
/// then every field but the statement text comes from `src`.
void ReplaceCompiled(PreparedStatement& dst, PreparedStatement&& src) {
  dst.root.reset();
  dst.stats_tree.reset();
  dst.plan.reset();
  dst.optimizer.reset();
  dst.graph.reset();
  src.sql = std::move(dst.sql);
  dst = std::move(src);
}

}  // namespace

Result<ResultSet> Database::ExecutePrepared(const PreparedHandle& handle,
                                            const std::vector<Value>& params) {
  if (handle == nullptr) {
    return Status::InvalidArgument("null prepared statement handle");
  }
  BeginStatement(handle->sql);
  const double start_us = obs::NowUs();
  Result<ResultSet> result = [&]() -> Result<ResultSet> {
  obs::Span statement_span(&tracer_, "statement", "query");
  PreparedStatement& ps = *handle;
  if (!ps.FreshAgainst(catalog_)) {
    // A referenced object changed (DDL or ANALYZE): transparently
    // recompile in place, so this handle — and any plan-cache entry
    // sharing it — serves the fresh plan from now on.
    plan_cache_.CountInvalidation();
    STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr fresh,
                               CompileSelectText(ps.sql));
    ReplaceCompiled(ps, std::move(*fresh));
  } else {
    stmt_state().metrics.plan_cache_hit = true;
    plan_cache_.CountHit();
  }
  STARBURST_ASSIGN_OR_RETURN(QueryOutput out, ExecuteCompiled(ps, &params));
  SnapshotPlanCacheMetrics();
  return ResultSet(std::move(out.column_names), std::move(out.rows));
  }();
  FinishStatement(result.status(), LoggedRowCount(result),
                  obs::NowUs() - start_us);
  return result;
}

void Database::SnapshotPlanCacheMetrics() {
  stmt_state().metrics.plan_cache = plan_cache_.stats();
  stmt_state().metrics.plan_cache_entries = plan_cache_.size();
}

Result<std::vector<Row>> Database::Query(const std::string& sql) {
  STARBURST_ASSIGN_OR_RETURN(ResultSet rs, Execute(sql));
  return std::move(rs.mutable_rows());
}

Result<ResultSet> Database::ExecuteStatement(const ast::Statement& stmt,
                                             const std::string& cache_key) {
  switch (stmt.kind) {
    case ast::StatementKind::kSelect:
      return RunSelect(*static_cast<const ast::SelectStatement&>(stmt).query,
                       cache_key);
    case ast::StatementKind::kExplain:
      return RunExplain(static_cast<const ast::ExplainStatement&>(stmt));
    case ast::StatementKind::kCreateTable:
      return RunCreateTable(static_cast<const ast::CreateTableStatement&>(stmt));
    case ast::StatementKind::kDropTable:
      return RunDropTable(static_cast<const ast::DropTableStatement&>(stmt).name);
    case ast::StatementKind::kCreateIndex:
      return RunCreateIndex(static_cast<const ast::CreateIndexStatement&>(stmt));
    case ast::StatementKind::kDropIndex:
      return RunDropIndex(static_cast<const ast::DropIndexStatement&>(stmt).name);
    case ast::StatementKind::kCreateView:
      return RunCreateView(static_cast<const ast::CreateViewStatement&>(stmt));
    case ast::StatementKind::kDropView:
      return RunDropView(static_cast<const ast::DropViewStatement&>(stmt).name);
    case ast::StatementKind::kInsert:
      return RunInsert(static_cast<const ast::InsertStatement&>(stmt));
    case ast::StatementKind::kDelete: {
      const auto& del = static_cast<const ast::DeleteStatement&>(stmt);
      return RunMutation(del.table, del.where.get(), nullptr);
    }
    case ast::StatementKind::kUpdate: {
      const auto& update = static_cast<const ast::UpdateStatement&>(stmt);
      return RunMutation(update.table, update.where.get(),
                         &update.assignments);
    }
    case ast::StatementKind::kSet:
      return RunSet(static_cast<const ast::SetStatement&>(stmt));
    case ast::StatementKind::kKill:
      return RunKill(static_cast<const ast::KillStatement&>(stmt));
    case ast::StatementKind::kAnalyze: {
      const auto& analyze = static_cast<const ast::AnalyzeStatement&>(stmt);
      if (analyze.table.empty()) {
        STARBURST_RETURN_IF_ERROR(AnalyzeAll());
      } else {
        STARBURST_RETURN_IF_ERROR(Analyze(analyze.table));
      }
      return ResultSet::Message("ANALYZE");
    }
  }
  return Status::Internal("unknown statement kind");
}

/// One `SET` knob as data. Values travel as integers; a
/// STATEMENT_PRIORITY value is −1 for DEFAULT, else a StatementPriority
/// index.
struct Database::Setting {
  enum class Kind { kNumber, kBool, kPriority };
  const char* name;
  Kind kind;
  const char* unit;
  int64_t min;           // smallest number accepted
  int64_t def;           // what DEFAULT sets
  bool zero_is_default;  // 0 sets `def` too
  int64_t (*get)(const Database&);
  void (*set)(Database&, int64_t);
};

namespace {

constexpr const char* kPriorityWords[] = {"HIGH", "NORMAL", "LOW"};

}  // namespace

std::span<const Database::Setting> Database::Settings() {
  using D = Database;
  using K = Setting::Kind;
  // Memory knobs take bytes (the parser accepts KB/MB/GB suffixes); for
  // them, for the deadlines and for SLOW_QUERY_US, 0 means off.
  static const Setting kTable[] = {
      {"STATEMENT_PRIORITY", K::kPriority, "class", -1, -1, false,
       [](const D& db) -> int64_t { return db.options_.statement_priority; },
       [](D& db, int64_t v) { db.options_.statement_priority = v; }},
      {"PARALLELISM", K::kNumber, "workers", 0,
       static_cast<int64_t>(exec::ExecOptions::DefaultParallelism()), true,
       [](const D& db) -> int64_t { return db.options_.exec.parallelism; },
       [](D& db, int64_t v) { db.options_.exec.parallelism = v; }},
      {"PARALLEL_MIN_ROWS", K::kNumber, "rows", 0,
       static_cast<int64_t>(exec::ExecOptions{}.parallel_min_rows), false,
       [](const D& db) -> int64_t {
         return db.options_.exec.parallel_min_rows;
       },
       [](D& db, int64_t v) { db.options_.exec.parallel_min_rows = v; }},
      {"BATCH_SIZE", K::kNumber, "rows", 1, RowBatch::kDefaultCapacity, false,
       [](const D& db) -> int64_t { return db.options_.exec.batch_size; },
       [](D& db, int64_t v) { db.options_.exec.batch_size = v; }},
      {"VECTORIZE", K::kBool, "0/1", 0, 1, false,
       [](const D& db) -> int64_t { return db.options_.exec.vectorize; },
       [](D& db, int64_t v) { db.options_.exec.vectorize = v == 1; }},
      {"SORT_MEMORY", K::kNumber, "bytes", 0, 0, false,
       [](const D& db) -> int64_t {
         return db.options_.exec.sort_memory_bytes;
       },
       [](D& db, int64_t v) { db.options_.exec.sort_memory_bytes = v; }},
      {"AGG_MEMORY", K::kNumber, "bytes", 0, 0, false,
       [](const D& db) -> int64_t {
         return db.options_.exec.agg_memory_bytes;
       },
       [](D& db, int64_t v) { db.options_.exec.agg_memory_bytes = v; }},
      {"QUERY_MEMORY", K::kNumber, "bytes", 0, 0, false,
       [](const D& db) -> int64_t {
         return db.options_.exec.query_memory_bytes;
       },
       [](D& db, int64_t v) { db.options_.exec.query_memory_bytes = v; }},
      {"PLAN_CACHE_SIZE", K::kNumber, "plans", 0, PlanCache::kDefaultCapacity,
       false, [](const D& db) -> int64_t { return db.plan_cache_.capacity(); },
       [](D& db, int64_t v) { db.plan_cache_.set_capacity(v); }},
      {"SLOW_QUERY_US", K::kNumber, "us", 0, 0, false,
       [](const D& db) -> int64_t { return db.slow_query_us_; },
       [](D& db, int64_t v) { db.slow_query_us_ = v; }},
      {"TRACE_BUFFER", K::kNumber, "events", 0, obs::Tracer::kDefaultCapacity,
       false, [](const D& db) -> int64_t { return db.tracer_.capacity(); },
       [](D& db, int64_t v) { db.tracer_.set_capacity(v); }},
      {"STATEMENT_TIMEOUT_MS", K::kNumber, "ms", 0, 0, false,
       [](const D& db) -> int64_t { return db.statement_timeout_ms_; },
       [](D& db, int64_t v) { db.statement_timeout_ms_ = v; }},
      {"ADMISSION_MEMORY", K::kNumber, "bytes", 0, 0, false,
       [](const D& db) -> int64_t { return db.admission_.budget(); },
       [](D& db, int64_t v) { db.admission_.SetBudget(v); }},
      {"ADMISSION_WAIT_MS", K::kNumber, "ms", 0, 0, false,
       [](const D& db) -> int64_t { return db.admission_.max_wait_ms(); },
       [](D& db, int64_t v) { db.admission_.SetMaxWaitMs(v); }},
      {"ADMISSION_AGING_MS", K::kNumber, "ms", 0,
       AdmissionController::kDefaultAgingMs, false,
       [](const D& db) -> int64_t { return db.admission_.aging_ms(); },
       [](D& db, int64_t v) { db.admission_.SetAgingMs(v); }},
      {"SLOW_PLAN_COST", K::kNumber, "cost", 0,
       static_cast<int64_t>(kDefaultSlowPlanCost), false,
       [](const D& db) -> int64_t { return db.options_.slow_plan_cost; },
       [](D& db, int64_t v) { db.options_.slow_plan_cost = v; }},
      {"SLOW_PLAN_ROWS", K::kNumber, "rows", 0,
       static_cast<int64_t>(kDefaultSlowPlanRows), false,
       [](const D& db) -> int64_t { return db.options_.slow_plan_rows; },
       [](D& db, int64_t v) { db.options_.slow_plan_rows = v; }},
  };
  return kTable;
}

std::string Database::SettingText(const Setting& setting, int64_t v) {
  if (setting.kind != Setting::Kind::kPriority) return std::to_string(v);
  return v < 0 ? "DEFAULT" : kPriorityWords[v];
}

Result<ResultSet> Database::RunSet(const ast::SetStatement& stmt) {
  std::span<const Setting> table = Settings();
  auto it = std::find_if(table.begin(), table.end(), [&](const Setting& s) {
    return stmt.name == s.name;
  });
  if (it == table.end()) {
    return Status::SemanticError("unknown session option '" + stmt.name + "'");
  }
  const Setting& s = *it;
  int64_t v = stmt.value;
  if (stmt.is_default) {
    v = s.def;
  } else if (s.kind == Setting::Kind::kPriority) {
    const auto* word = std::find(std::begin(kPriorityWords),
                                 std::end(kPriorityWords), stmt.ident_value);
    if (word == std::end(kPriorityWords)) {
      return Status::SemanticError(stmt.name +
                                   " must be HIGH, NORMAL, LOW, or DEFAULT");
    }
    v = word - std::begin(kPriorityWords);
  } else if (!stmt.ident_value.empty()) {
    // Catching a stray word keeps e.g. `SET BATCH_SIZE = HIGH` from
    // silently assigning zero.
    return Status::SemanticError("option '" + stmt.name +
                                 "' takes a numeric value, not '" +
                                 stmt.ident_value + "'");
  } else if (s.kind == Setting::Kind::kBool && v != 0 && v != 1) {
    return Status::SemanticError(stmt.name + " must be 0 or 1");
  } else if (v < s.min) {
    return Status::SemanticError(stmt.name + " must be >= " +
                                 std::to_string(s.min));
  } else if (v == 0 && s.zero_is_default) {
    v = s.def;
  }
  s.set(*this, v);
  return ResultSet::Message("SET " + stmt.name + " = " + SettingText(s, v));
}

Result<ResultSet> Database::RunKill(const ast::KillStatement& stmt) {
  STARBURST_RETURN_IF_ERROR(statements_.Kill(stmt.statement_id));
  em_.statements_killed_total->Increment();
  return ResultSet::Message("KILL " + std::to_string(stmt.statement_id));
}

// ---------------------------------------------------------------------------
// Query pipeline (Figure 1)
// ---------------------------------------------------------------------------

Result<Database::QueryOutput> Database::RunQueryPipeline(
    const ast::Query& query, PipelineCapture* capture) {
  STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr ps,
                             CompileSelect(query, capture));
  if (capture != nullptr && !capture->execute) return QueryOutput{};
  return ExecuteCompiled(*ps, nullptr);
}

Result<PreparedStatementPtr> Database::CompileSelect(const ast::Query& query,
                                                     PipelineCapture* capture) {
  EnterPhase("compile");
  obs::PhaseTimer bind_phase(&tracer_, "bind", &stmt_state().metrics.bind_us);
  qgm::Binder binder(&catalog_);
  STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<qgm::Graph> graph,
                             binder.BindQuery(query));
  bind_phase.End();

  STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr ps,
                             CompileBound(std::move(graph), capture));
  // Freshness contract: the compiled plan is valid while none of the
  // objects the binder resolved (transitively, through views) changes.
  for (const std::string& dep : binder.referenced_objects()) {
    ps->dependencies.emplace_back(dep, catalog_.ObjectVersion(dep));
  }
  ps->catalog_version = catalog_.version();
  return ps;
}

Result<PreparedStatementPtr> Database::CompileBound(
    std::unique_ptr<qgm::Graph> bound, PipelineCapture* capture) {
  QueryMetrics& m = stmt_state().metrics;
  auto ps = std::make_shared<PreparedStatement>();
  ps->options = options_;
  ps->graph = std::move(bound);
  qgm::Graph* graph = ps->graph.get();
  ps->num_params = graph->num_params;

  if (options_.rewrite_enabled) {
    obs::PhaseTimer rewrite_phase(&tracer_, "rewrite", &m.rewrite_us);
    STARBURST_ASSIGN_OR_RETURN(
        m.rewrite_stats, rule_engine_.Run(graph, &catalog_, options_.rewrite));
    rewrite_phase.End();
    // Replay the rule firings into the trace: one provenance log, two
    // consumers (EXPLAIN below, timeline here).
    if (tracer_.enabled()) {
      for (const rewrite::RuleEngine::Stats::Firing& f :
           m.rewrite_stats.firings) {
        tracer_.RecordInstant(
            "rule " + f.rule, "rewrite", f.at_us,
            "\"box\":\"" + obs::JsonEscape(f.box_label) +
                "\",\"box_id\":\"" + std::to_string(f.box_id) +
                "\",\"pass\":\"" + std::to_string(f.pass) + "\"");
      }
    }
  }
  if (capture != nullptr && capture->want_texts) {
    capture->qgm_text = qgm::PrintGraph(*graph);
  }

  obs::PhaseTimer optimize_phase(&tracer_, "optimize", &m.optimize_us);
  ps->optimizer =
      std::make_unique<optimizer::Optimizer>(&catalog_, options_.optimizer);
  optimizer::Optimizer& opt = *ps->optimizer;
  for (const optimizer::Star& star : extra_stars_) {
    STARBURST_RETURN_IF_ERROR(opt.stars().Add(star));
  }
  STARBURST_ASSIGN_OR_RETURN(ps->plan, opt.Optimize(*graph));
  const optimizer::PlanPtr& plan = ps->plan;
  optimize_phase.End();
  m.optimizer_stats = opt.stats();
  m.plan_cost = plan->props.cost;
  m.plan_cardinality = plan->props.cardinality;
  ps->plan_cost = plan->props.cost;
  ps->plan_cardinality = plan->props.cardinality;
  // Workload classification (qserv-style fast/slow groups): a plan at or
  // above either threshold is expected to run long. Under
  // STATEMENT_PRIORITY = DEFAULT that demotes it to low priority, so
  // interactive statements are admitted and scheduled ahead of it.
  ps->slow_class = plan->props.cost >= options_.slow_plan_cost ||
                   plan->props.cardinality >= options_.slow_plan_rows;
  ps->priority =
      options_.statement_priority >= 0
          ? options_.statement_priority
          : static_cast<int>(ps->slow_class ? StatementPriority::kLow
                                            : StatementPriority::kNormal);
  if (capture != nullptr && capture->want_texts) {
    capture->plan_text = plan->ToString();
  }

  bool collect_stats = options_.collect_op_stats ||
                       (capture != nullptr && capture->collect_stats);
  if (collect_stats) ps->stats_tree = std::make_shared<obs::PlanStatsTree>();

  obs::PhaseTimer refine_phase(&tracer_, "refine", &m.refine_us);
  exec::PlanRefiner::Options refine_options;
  refine_options.cache_mode = options_.exec.cache_mode;
  refine_options.ship_delay_us = options_.exec.ship_delay_us;
  refine_options.semi_naive_recursion = options_.exec.semi_naive_recursion;
  refine_options.stats = ps->stats_tree.get();
  refine_options.parallelism =
      options_.exec.parallelism == 0 ? 1 : options_.exec.parallelism;
  refine_options.parallel_min_rows = options_.exec.parallel_min_rows;
  refine_options.batch_size =
      options_.exec.batch_size == 0 ? 1 : options_.exec.batch_size;
  refine_options.sort_memory_bytes = options_.exec.sort_memory_bytes;
  refine_options.agg_memory_bytes = options_.exec.agg_memory_bytes;
  refine_options.vectorize = options_.exec.vectorize;
  refine_options.shared_scheduler = &scheduler_;
  exec::PlanRefiner refiner(&catalog_, &opt.box_plans(), refine_options);
  STARBURST_ASSIGN_OR_RETURN(ps->root, refiner.Refine(plan));
  ps->kernel_programs = refiner.kernel_stats().programs;
  ps->kernel_programs_full = refiner.kernel_stats().fully_vectorized;
  m.kernel_programs = ps->kernel_programs;
  m.kernel_programs_full = ps->kernel_programs_full;
  if (graph->limit >= 0) {
    ps->root = exec::MakeLimitOp(std::move(ps->root), graph->limit);
    if (ps->stats_tree != nullptr) {
      obs::PlanStatsTree::Node* limit_node = ps->stats_tree->WrapRoot(
          "LIMIT " + std::to_string(graph->limit), plan->props.cardinality,
          plan->props.cost);
      ps->root->set_stats(&limit_node->actual);
    }
  }
  refine_phase.End();
  m.op_stats = ps->stats_tree;

  ps->batch_size = refine_options.batch_size;
  ps->parallelism = static_cast<int>(refine_options.parallelism);
  ps->reserve_hint = plan->props.cardinality > 0
                         ? static_cast<size_t>(plan->props.cardinality)
                         : 0;
  ps->hidden_order_columns = graph->hidden_order_columns;
  ps->visible_columns =
      graph->root()->head.size() - graph->hidden_order_columns;
  for (size_t i = 0; i < ps->visible_columns; ++i) {
    ps->column_names.push_back(graph->root()->head[i].name);
  }
  return ps;
}

Result<Database::QueryOutput> Database::ExecuteCompiled(
    PreparedStatement& ps, const std::vector<Value>* params) {
  size_t given = params == nullptr ? 0 : params->size();
  if (given != ps.num_params) {
    return Status::InvalidArgument(
        "statement expects " + std::to_string(ps.num_params) +
        " parameter value(s), got " + std::to_string(given));
  }

  // A cached stats tree still carries the previous run's actuals.
  if (ps.stats_tree != nullptr) ps.stats_tree->ResetActuals();
  exec::ExecContext ctx(&storage_, &catalog_);
  ctx.set_batch_size(ps.batch_size);
  ctx.set_query_memory_budget(options_.exec.query_memory_bytes);

  // Governance: wire the statement's cancel token into the execution
  // context (operators poll it at batch boundaries), reserve the query's
  // memory from the global admission ledger, and expose the live tracker
  // through the statement registry.
  StatementState& s = stmt_state();
  s.row.parallelism = ps.parallelism;
  ctx.set_cancel_token(&s.cancel);
  // Workload class: stamped at compile time, surfaced while live so
  // sys.statements shows what the queue is ordered by.
  const auto priority = static_cast<StatementPriority>(ps.priority);
  s.row.priority = PriorityName(priority);
  s.row.klass = ps.slow_class ? "slow" : "fast";
  ctx.set_scheduler_priority(ps.priority);
  EnterPhase("queued");
  const double queued_at_us = obs::NowUs();
  Result<AdmissionGrant> admitted =
      admission_.Admit(options_.exec.query_memory_bytes, priority, &s.cancel);
  s.metrics.queue_us = obs::NowUs() - queued_at_us;
  s.row.queue_us = static_cast<uint64_t>(s.metrics.queue_us);
  if (!admitted.ok()) {
    if (admitted.status().code() == StatusCode::kAborted) {
      s.admission_rejected = true;
    }
    return admitted.status();
  }
  AdmissionGrant grant = admitted.TakeValue();
  EnterPhase("execute");
  // Execution is timed from the grant on: the queue wait is queue_us's.
  obs::PhaseTimer execute_phase(&tracer_, "execute", &s.metrics.execute_us);
  StorageEngine::Stats storage_before = storage_.GatherStats();
  uint64_t spill_before = SpillFile::total_bytes();
  // Grow the shared pool to this plan's width before any Gather opens.
  if (ps.parallelism > 1) {
    scheduler_.EnsureWorkers(static_cast<size_t>(ps.parallelism - 1));
  }
  statements_.SetMemoryTracker(s.row.id, ctx.query_memory());
  // Declared after `ctx` so the registry stops pointing at the tracker
  // before it dies.
  struct TrackerGuard {
    StatementRegistry* registry;
    int64_t id;
    ~TrackerGuard() { registry->SetMemoryTracker(id, nullptr); }
  } tracker_guard{&statements_, s.row.id};
  // A KILL or deadline that landed during compile/queue stops the
  // statement before any operator opens.
  STARBURST_RETURN_IF_ERROR(ctx.CheckCancel());

  // Parameter values ride the correlation-parameter machinery: one frame
  // under the sentinel quantifier, visible to every operator and
  // subquery in the tree.
  exec::ExecContext::ParamFrame frame;
  if (ps.num_params > 0) {
    for (size_t i = 0; i < params->size(); ++i) {
      frame.Set(exec::QueryParamQuantifier(), i, (*params)[i]);
    }
    ctx.PushParams(&frame);
  }
  Status opened = ps.root->Open(&ctx);
  if (!opened.ok()) {
    // The tree stays alive (cached/prepared); release whatever a
    // partially failed Open accumulated rather than waiting for the
    // destructor that may never come.
    ps.root->Close();
    return opened;
  }
  Result<std::vector<Row>> rows =
      exec::DrainOperator(ps.root.get(), ctx.batch_size(), ps.reserve_hint,
                          &ctx);
  ps.root->Close();
  execute_phase.End();
  s.metrics.exec_stats = ctx.stats();
  StorageEngine::Stats storage_after = storage_.GatherStats();
  s.metrics.buffer_pool =
      storage_after.buffer_pool.Since(storage_before.buffer_pool);
  s.metrics.index_node_visits =
      storage_after.index_node_visits - storage_before.index_node_visits;
  s.metrics.spill_bytes = SpillFile::total_bytes() - spill_before;
  s.metrics.peak_memory_bytes = ctx.query_memory()->peak();
  s.metrics.op_stats = ps.stats_tree;
  s.metrics.plan_cost = ps.plan_cost;
  s.metrics.plan_cardinality = ps.plan_cardinality;
  s.metrics.kernel_programs = ps.kernel_programs;
  s.metrics.kernel_programs_full = ps.kernel_programs_full;
  if (!rows.ok()) return rows.status();

  QueryOutput out;
  out.column_names = ps.column_names;
  out.rows = rows.TakeValue();
  if (ps.hidden_order_columns > 0) {
    for (Row& row : out.rows) {
      row.values().resize(ps.visible_columns);
    }
  }
  return out;
}

Result<ResultSet> Database::RunSelect(const ast::Query& query,
                                      const std::string& cache_key) {
  STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr ps,
                             CompileSelect(query, nullptr));
  if (ps->num_params > 0) {
    return Status::InvalidArgument(
        "statement contains ? parameters; prepare it and supply values "
        "through ExecutePrepared");
  }
  if (!cache_key.empty() && plan_cache_.capacity() > 0) {
    plan_cache_.CountMiss();
    plan_cache_.Insert(cache_key, ps);
  }
  STARBURST_ASSIGN_OR_RETURN(QueryOutput out, ExecuteCompiled(*ps, nullptr));
  SnapshotPlanCacheMetrics();
  return ResultSet(std::move(out.column_names), std::move(out.rows));
}

namespace {

/// Splits `text` into one result row per line under `out`.
void AppendLines(const std::string& text, std::vector<Row>* out) {
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      if (start < text.size()) {
        out->push_back(Row({Value::String(text.substr(start))}));
      }
      break;
    }
    out->push_back(Row({Value::String(text.substr(start, end - start))}));
    start = end + 1;
  }
}

}  // namespace

Result<ResultSet> Database::RunExplain(const ast::ExplainStatement& stmt) {
  if (stmt.analyze || stmt.verbose) return RunExplainReport(stmt);
  std::string text;
  if (stmt.what == ast::ExplainStatement::What::kQgm && stmt.before_rewrite) {
    qgm::Binder binder(&catalog_);
    STARBURST_ASSIGN_OR_RETURN(std::unique_ptr<qgm::Graph> graph,
                               binder.BindQuery(*stmt.query));
    text = qgm::PrintGraph(*graph);
  } else {
    PipelineCapture capture;
    capture.want_texts = true;
    capture.execute = false;
    STARBURST_RETURN_IF_ERROR(RunQueryPipeline(*stmt.query, &capture).status());
    text = stmt.what == ast::ExplainStatement::What::kQgm
               ? std::move(capture.qgm_text)
               : std::move(capture.plan_text);
  }
  std::vector<Row> rows;
  rows.push_back(Row({Value::String(std::move(text))}));
  return ResultSet({"plan"}, std::move(rows));
}

Result<ResultSet> Database::RunExplainReport(const ast::ExplainStatement& stmt) {
  PipelineCapture capture;
  capture.want_texts = true;
  capture.collect_stats = stmt.analyze;
  capture.execute = stmt.analyze;
  STARBURST_ASSIGN_OR_RETURN(QueryOutput out,
                             RunQueryPipeline(*stmt.query, &capture));

  std::vector<Row> rows;
  auto line = [&rows](const std::string& s) {
    rows.push_back(Row({Value::String(s)}));
  };
  char buf[256];

  line(options_.rewrite_enabled ? "== QGM (after rewrite) =="
                                : "== QGM (rewrite disabled) ==");
  AppendLines(capture.qgm_text, &rows);

  line("== Rewrite rule firings ==");
  if (!options_.rewrite_enabled) {
    line("(rewrite disabled)");
  } else if (stmt_state().metrics.rewrite_stats.firings.empty()) {
    line("(no rules fired)");
  } else {
    for (const rewrite::RuleEngine::Stats::Firing& f :
         stmt_state().metrics.rewrite_stats.firings) {
      std::snprintf(buf, sizeof(buf), "pass %d: %s box=%s [id=%d]", f.pass,
                    f.rule.c_str(), f.box_label.c_str(), f.box_id);
      line(buf);
    }
  }

  line("== Plan ==");
  std::snprintf(buf, sizeof(buf), "estimated cost=%.6g cardinality=%.6g",
                stmt_state().metrics.plan_cost, stmt_state().metrics.plan_cardinality);
  line(buf);
  if (stmt.analyze && stmt_state().metrics.op_stats != nullptr) {
    AppendLines(stmt_state().metrics.op_stats->Render(/*with_actuals=*/true), &rows);
  } else {
    AppendLines(capture.plan_text, &rows);
  }

  if (stmt.analyze) {
    line("== Execution ==");
    std::snprintf(buf, sizeof(buf), "result rows: %zu", out.rows.size());
    line(buf);
    std::snprintf(buf, sizeof(buf),
                  "phases (us): parse=%.0f bind=%.0f rewrite=%.0f "
                  "optimize=%.0f refine=%.0f execute=%.0f",
                  stmt_state().metrics.parse_us, stmt_state().metrics.bind_us, stmt_state().metrics.rewrite_us,
                  stmt_state().metrics.optimize_us, stmt_state().metrics.refine_us,
                  stmt_state().metrics.execute_us);
    line(buf);
    std::snprintf(buf, sizeof(buf),
                  "kernel programs: %llu compiled, %llu fully vectorized",
                  static_cast<unsigned long long>(
                      stmt_state().metrics.kernel_programs),
                  static_cast<unsigned long long>(
                      stmt_state().metrics.kernel_programs_full));
    line(buf);
    std::snprintf(buf, sizeof(buf),
                  "subqueries: %llu evaluations, %llu cache hits",
                  static_cast<unsigned long long>(
                      stmt_state().metrics.exec_stats.subquery_evaluations),
                  static_cast<unsigned long long>(
                      stmt_state().metrics.exec_stats.subquery_cache_hits));
    line(buf);
    std::snprintf(
        buf, sizeof(buf),
        "buffer pool: %llu logical reads, %llu hits, %llu misses, "
        "%llu writes (hit rate %.1f%%)",
        static_cast<unsigned long long>(stmt_state().metrics.buffer_pool.logical_reads),
        static_cast<unsigned long long>(stmt_state().metrics.buffer_pool.cache_hits),
        static_cast<unsigned long long>(stmt_state().metrics.buffer_pool.disk_reads),
        static_cast<unsigned long long>(stmt_state().metrics.buffer_pool.disk_writes),
        stmt_state().metrics.buffer_pool.HitRate() * 100.0);
    line(buf);
    std::snprintf(buf, sizeof(buf), "index node visits: %llu",
                  static_cast<unsigned long long>(stmt_state().metrics.index_node_visits));
    line(buf);
    // EXPLAIN itself always compiles fresh; the counters are the
    // session's cumulative plan-cache activity.
    SnapshotPlanCacheMetrics();
    std::snprintf(
        buf, sizeof(buf),
        "plan cache: %llu entries; session hits=%llu misses=%llu "
        "invalidations=%llu evictions=%llu",
        static_cast<unsigned long long>(stmt_state().metrics.plan_cache_entries),
        static_cast<unsigned long long>(stmt_state().metrics.plan_cache.hits),
        static_cast<unsigned long long>(stmt_state().metrics.plan_cache.misses),
        static_cast<unsigned long long>(stmt_state().metrics.plan_cache.invalidations),
        static_cast<unsigned long long>(stmt_state().metrics.plan_cache.evictions));
    line(buf);
    AdmissionController::Stats adm = admission_.stats();
    std::snprintf(
        buf, sizeof(buf),
        "governance: timeout_ms=%lld admission budget=%llu bytes "
        "in_use=%llu admitted=%llu queued=%llu rejected=%llu timeouts=%llu",
        static_cast<long long>(statement_timeout_ms_),
        static_cast<unsigned long long>(adm.budget_bytes),
        static_cast<unsigned long long>(adm.in_use_bytes),
        static_cast<unsigned long long>(adm.admitted_total),
        static_cast<unsigned long long>(adm.queued_total),
        static_cast<unsigned long long>(adm.rejected_total),
        static_cast<unsigned long long>(adm.timeout_total));
    line(buf);
    std::snprintf(
        buf, sizeof(buf),
        "workload: priority=%s class=%s queue_us=%lld aged=%llu "
        "cancelled_queued=%llu preemptions=%llu",
        stmt_state().row.priority.c_str(), stmt_state().row.klass.c_str(),
        static_cast<long long>(stmt_state().metrics.queue_us),
        static_cast<unsigned long long>(adm.aged_total),
        static_cast<unsigned long long>(adm.cancelled_while_queued_total),
        static_cast<unsigned long long>(
            exec::parallel::TaskScheduler::total_preemptions()));
    line(buf);
  }
  return ResultSet({"EXPLAIN"}, std::move(rows));
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Result<ResultSet> Database::RunCreateTable(
    const ast::CreateTableStatement& stmt) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(stmt.name, "create table"));
  TableDef def;
  def.name = stmt.name;
  for (const ast::ColumnSpec& col : stmt.columns) {
    STARBURST_ASSIGN_OR_RETURN(DataType type, qgm::BindTypeName(col.type_name));
    def.schema.AddColumn(ColumnDef{col.name, type, !col.not_null});
  }
  for (const auto& constraint : stmt.unique_constraints) {
    std::vector<size_t> key;
    for (const std::string& col : constraint) {
      std::optional<size_t> idx = def.schema.FindColumn(col);
      if (!idx.has_value()) {
        return Status::SemanticError("unique constraint names unknown column '" +
                                     col + "'");
      }
      key.push_back(*idx);
    }
    def.unique_keys.push_back(std::move(key));
  }
  if (!stmt.storage_manager.empty()) {
    def.storage_manager = IdentUpper(stmt.storage_manager);
  }
  STARBURST_ASSIGN_OR_RETURN(
      StorageManager * manager,
      storage_.storage_managers().Lookup(def.storage_manager));
  STARBURST_RETURN_IF_ERROR(manager->ValidateSchema(def.schema));

  STARBURST_RETURN_IF_ERROR(catalog_.CreateTable(def));
  Status storage_status = storage_.CreateTable(def);
  if (!storage_status.ok()) {
    (void)catalog_.DropTable(def.name);
    return storage_status;
  }

  // Unique constraints are enforced through unique B-tree attachments.
  for (size_t i = 0; i < def.unique_keys.size(); ++i) {
    IndexDef index;
    index.name = IdentUpper(def.name) + "_UK" + std::to_string(i + 1);
    index.table_name = def.name;
    index.unique = true;
    index.access_method = "BTREE";
    for (size_t col : def.unique_keys[i]) {
      index.key_columns.push_back(def.schema.column(col).name);
    }
    STARBURST_RETURN_IF_ERROR(catalog_.CreateIndex(index));
    STARBURST_RETURN_IF_ERROR(storage_.CreateIndex(index, def.schema));
  }
  return ResultSet::Message("CREATE TABLE");
}

Result<ResultSet> Database::RunCreateIndex(
    const ast::CreateIndexStatement& stmt) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(stmt.table, "index"));
  IndexDef def;
  def.name = stmt.name;
  def.table_name = stmt.table;
  def.key_columns = stmt.columns;
  def.unique = stmt.unique;
  if (!stmt.access_method.empty()) {
    def.access_method = IdentUpper(stmt.access_method);
  }
  STARBURST_RETURN_IF_ERROR(catalog_.CreateIndex(def));
  STARBURST_ASSIGN_OR_RETURN(const TableDef* table,
                             catalog_.GetTable(stmt.table));
  Status st = storage_.CreateIndex(def, table->schema);
  if (!st.ok()) {
    (void)catalog_.DropIndex(def.name);
    return st;
  }
  return ResultSet::Message("CREATE INDEX");
}

Result<ResultSet> Database::RunCreateView(
    const ast::CreateViewStatement& stmt) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(stmt.name, "create view"));
  // Views must bind cleanly at definition time (semantic validation).
  qgm::Binder binder(&catalog_);
  STARBURST_RETURN_IF_ERROR(binder.BindQuery(*stmt.query).status());
  ViewDef def;
  def.name = stmt.name;
  def.column_names = stmt.column_names;
  def.body_sql = stmt.body_text;
  STARBURST_RETURN_IF_ERROR(catalog_.CreateView(def));
  return ResultSet::Message("CREATE VIEW");
}

std::vector<std::string> Database::ViewsReferencing(
    const std::string& dep_key) const {
  std::vector<std::string> out;
  for (const std::string& view_name : catalog_.ViewNames()) {
    if (dep_key == "V:" + view_name) continue;
    Result<const ViewDef*> view = catalog_.GetView(view_name);
    if (!view.ok()) continue;
    auto parsed = Parser::ParseQueryText((*view)->body_sql);
    if (!parsed.ok()) continue;
    qgm::Binder binder(&catalog_);
    // A body that no longer binds cannot be consulted; it does not block
    // the drop (it is already broken).
    if (!binder.BindQuery(**parsed).ok()) continue;
    if (binder.referenced_objects().count(dep_key) > 0) {
      out.push_back(view_name);
    }
  }
  return out;
}

// Drop ordering: verify → dependency check → storage → catalog. The
// storage call is the only step that can fail after verification, and it
// runs before any mutation; the catalog erases that follow are pure map
// operations on entries verified to exist. A failure at any step
// therefore leaves catalog and storage exactly as they were — no
// half-dropped state where one layer knows the object and the other
// does not.

Result<ResultSet> Database::RunDropTable(const std::string& name) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(name, "drop"));
  STARBURST_RETURN_IF_ERROR(catalog_.GetTable(name).status());
  std::vector<std::string> dependents =
      ViewsReferencing("T:" + IdentUpper(name));
  if (!dependents.empty()) {
    return Status::SemanticError("cannot drop table '" + IdentUpper(name) +
                                 "': view '" + dependents.front() +
                                 "' references it");
  }
  // Storage drops the table and its attachments in one step.
  STARBURST_RETURN_IF_ERROR(storage_.DropTable(name));
  STARBURST_RETURN_IF_ERROR(catalog_.DropTable(name));
  return ResultSet::Message("DROP TABLE");
}

Result<ResultSet> Database::RunDropIndex(const std::string& name) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(name, "drop"));
  STARBURST_RETURN_IF_ERROR(catalog_.GetIndex(name).status());
  STARBURST_RETURN_IF_ERROR(storage_.DropIndex(name));
  STARBURST_RETURN_IF_ERROR(catalog_.DropIndex(name));
  return ResultSet::Message("DROP INDEX");
}

Result<ResultSet> Database::RunDropView(const std::string& name) {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(name, "drop"));
  STARBURST_RETURN_IF_ERROR(catalog_.GetView(name).status());
  std::vector<std::string> dependents =
      ViewsReferencing("V:" + IdentUpper(name));
  if (!dependents.empty()) {
    return Status::SemanticError("cannot drop view '" + IdentUpper(name) +
                                 "': view '" + dependents.front() +
                                 "' references it");
  }
  STARBURST_RETURN_IF_ERROR(catalog_.DropView(name));
  return ResultSet::Message("DROP VIEW");
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

Result<Database::UpdatableView> Database::ResolveUpdatableView(
    const ViewDef& view) const {
  auto ambiguous = [&](const std::string& why) {
    return Status::SemanticError("view '" + view.name +
                                 "' is not unambiguously updatable: " + why);
  };
  auto parsed = Parser::ParseQueryText(view.body_sql);
  if (!parsed.ok()) return parsed.status();
  const ast::Query& q = **parsed;
  if (!q.ctes.empty()) return ambiguous("it uses table expressions");
  if (q.body->kind != ast::QueryBody::Kind::kSelect) {
    return ambiguous("it uses set operations");
  }
  const ast::SelectCore& core = *q.body->select;
  if (core.distinct) return ambiguous("it eliminates duplicates");
  if (!core.group_by.empty() || core.having != nullptr) {
    return ambiguous("it performs aggregation");
  }
  if (core.from.size() != 1 ||
      core.from[0]->kind != ast::TableRef::Kind::kNamed) {
    return ambiguous("it ranges over more than one table");
  }
  if (catalog_.HasView(core.from[0]->name)) {
    return ambiguous("it is defined over another view");
  }
  STARBURST_ASSIGN_OR_RETURN(const TableDef* table,
                             catalog_.GetTable(core.from[0]->name));

  UpdatableView out;
  out.table = table;
  out.pseudo.name = view.name;
  size_t position = 0;
  for (const ast::SelectItem& item : core.items) {
    if (item.star) {
      for (size_t c = 0; c < table->schema.num_columns(); ++c) {
        out.column_map.push_back(c);
        ColumnDef col = table->schema.column(c);
        if (position < view.column_names.size()) {
          col.name = view.column_names[position];
        }
        out.pseudo.schema.AddColumn(std::move(col));
        ++position;
      }
      continue;
    }
    if (item.expr->kind != ast::ExprKind::kColumnRef) {
      return ambiguous("output column " + std::to_string(position + 1) +
                       " is a computed expression");
    }
    const auto& cr = static_cast<const ast::ColumnRefExpr&>(*item.expr);
    std::optional<size_t> base = table->schema.FindColumn(cr.column);
    if (!base.has_value()) {
      return ambiguous("column '" + cr.column + "' is not a base column");
    }
    out.column_map.push_back(*base);
    ColumnDef col = table->schema.column(*base);
    if (position < view.column_names.size()) {
      col.name = view.column_names[position];
    } else if (!item.alias.empty()) {
      col.name = item.alias;
    }
    out.pseudo.schema.AddColumn(std::move(col));
    ++position;
  }
  out.where = core.where.get();
  out.parsed = std::move(*parsed);  // keeps `where` alive
  return out;
}

Result<Value> Database::CoerceForColumn(Value v, const ColumnDef& col) const {
  if (v.is_null()) {
    if (!col.nullable) {
      return Status::SemanticError("column '" + col.name + "' is NOT NULL");
    }
    return v;
  }
  if (v.type() == col.type) return v;
  if (col.type.id == TypeId::kDouble && v.type_id() == TypeId::kInt) {
    return Value::Double(static_cast<double>(v.int_value()));
  }
  if (col.type.id == TypeId::kInt && v.type_id() == TypeId::kDouble) {
    double d = v.double_value();
    if (static_cast<double>(static_cast<int64_t>(d)) == d) {
      return Value::Int(static_cast<int64_t>(d));
    }
  }
  return Status::TypeError("cannot store " + v.type().ToString() +
                           " value in column '" + col.name + "' of type " +
                           col.type.ToString());
}

Status Database::InsertRows(const TableDef& table,
                            const std::vector<Row>& rows,
                            const std::vector<size_t>& target_columns) {
  for (const Row& row : rows) {
    if (row.size() != target_columns.size()) {
      return Status::SemanticError("INSERT arity mismatch: expected " +
                                   std::to_string(target_columns.size()) +
                                   " values, got " + std::to_string(row.size()));
    }
    std::vector<Value> full(table.schema.num_columns(), Value::Null());
    for (size_t i = 0; i < target_columns.size(); ++i) {
      full[target_columns[i]] = row[i];
    }
    for (size_t c = 0; c < full.size(); ++c) {
      STARBURST_ASSIGN_OR_RETURN(
          full[c], CoerceForColumn(std::move(full[c]), table.schema.column(c)));
    }
    STARBURST_RETURN_IF_ERROR(
        storage_.InsertRow(table.name, Row(std::move(full))).status());
  }
  RefreshRowStats(table.name);
  return Status::OK();
}

void Database::RefreshRowStats(const std::string& table_name) {
  Result<TableDef*> def = catalog_.GetMutableTable(table_name);
  Result<TableStorage*> storage = storage_.GetTable(table_name);
  if (!def.ok() || !storage.ok()) return;
  (*def)->stats.row_count = static_cast<double>((*storage)->row_count());
  (*def)->stats.page_count = static_cast<double>((*storage)->page_count());
}

Result<Database::DmlTarget> Database::ResolveDmlTarget(
    const std::string& name, const char* verb) const {
  STARBURST_RETURN_IF_ERROR(RejectSystemTarget(name, verb));
  DmlTarget dml;
  qgm::Binder::MutationTarget& t = dml.target;
  if (catalog_.HasView(name)) {
    STARBURST_ASSIGN_OR_RETURN(const ViewDef* vd, catalog_.GetView(name));
    STARBURST_ASSIGN_OR_RETURN(UpdatableView uv, ResolveUpdatableView(*vd));
    dml.view = std::make_unique<UpdatableView>(std::move(uv));
    t = {dml.view->table, &dml.view->pseudo, &dml.view->column_map,
         dml.view->where};
  } else {
    STARBURST_ASSIGN_OR_RETURN(t.table, catalog_.GetTable(name));
    t.exposed = t.table;
  }
  return dml;
}

Result<ResultSet> Database::RunInsert(const ast::InsertStatement& stmt) {
  STARBURST_ASSIGN_OR_RETURN(DmlTarget dml,
                             ResolveDmlTarget(stmt.table, "insert into"));
  const qgm::Binder::MutationTarget& target = dml.target;
  const TableSchema& exposed = target.exposed->schema;
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < exposed.num_columns(); ++i) {
      targets.push_back(i);
    }
  } else {
    for (const std::string& name : stmt.columns) {
      std::optional<size_t> idx = exposed.FindColumn(name);
      if (!idx.has_value()) {
        return Status::SemanticError("no column '" + name + "' in " +
                                     stmt.table);
      }
      targets.push_back(*idx);
    }
  }
  if (target.column_map != nullptr) {
    for (size_t& t : targets) t = (*target.column_map)[t];
  }

  std::vector<Row> rows;
  if (stmt.query != nullptr) {
    STARBURST_ASSIGN_OR_RETURN(QueryOutput out, RunQueryPipeline(*stmt.query));
    rows = std::move(out.rows);
  } else {
    // VALUES rows: constant expressions (no column references, no
    // subqueries), bound for type checking then evaluated directly.
    exec::ExecContext ctx(&storage_, &catalog_);
    qgm::Binder binder(&catalog_);
    for (const auto& value_row : stmt.rows) {
      std::vector<Value> values;
      for (const ast::ExprPtr& e : value_row) {
        STARBURST_ASSIGN_OR_RETURN(qgm::Binder::StandaloneExprBind bind,
                                   binder.BindConstantExpr(*e));
        exec::CompileEnv env;
        env.catalog = &catalog_;
        STARBURST_ASSIGN_OR_RETURN(exec::CompiledExprPtr compiled,
                                   exec::CompileExpr(*bind.expr, env));
        Row empty_row;
        STARBURST_ASSIGN_OR_RETURN(Value v, compiled->Eval(empty_row, &ctx));
        values.push_back(std::move(v));
      }
      rows.push_back(Row(std::move(values)));
    }
  }
  STARBURST_RETURN_IF_ERROR(InsertRows(*target.table, rows, targets));
  return ResultSet::Message("INSERT", static_cast<int64_t>(rows.size()));
}

Result<ResultSet> Database::RunMutation(
    const std::string& name, const ast::Expr* where,
    const std::vector<std::pair<std::string, ast::ExprPtr>>* assignments) {
  const bool update = assignments != nullptr;
  const char* kind = update ? "UPDATE" : "DELETE";
  STARBURST_ASSIGN_OR_RETURN(
      DmlTarget dml, ResolveDmlTarget(name, update ? "update" : "delete from"));
  const qgm::Binder::MutationTarget& target = dml.target;
  const TableDef& table = *target.table;

  // Read: "which RIDs, with which new values" is an ordinary query, run
  // to completion before the first write, so an UPDATE of an indexed key
  // never meets its own output and a cancelled read changes nothing.
  EnterPhase("compile");
  obs::PhaseTimer bind_phase(&tracer_, "bind", &stmt_state().metrics.bind_us);
  qgm::Binder binder(&catalog_);
  STARBURST_ASSIGN_OR_RETURN(
      std::unique_ptr<qgm::Graph> graph,
      binder.BindTableMutation(target, where, assignments));
  bind_phase.End();
  STARBURST_ASSIGN_OR_RETURN(PreparedStatementPtr ps,
                             CompileBound(std::move(graph), nullptr));
  STARBURST_ASSIGN_OR_RETURN(QueryOutput out, ExecuteCompiled(*ps, nullptr));
  std::vector<Row>& rows = out.rows;

  // Apply, in ascending RID order (the order a table scan visits rows).
  // Each row is [RID] for DELETE and [RID, new row...] for UPDATE. All
  // are checked and coerced before the first write, so a NOT NULL or
  // type violation leaves the table as it was.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a[0].int_value() < b[0].int_value();
  });
  // Base columns the SET list writes (the binder resolved every name).
  std::vector<size_t> assigned;
  for (size_t i = 0; update && i < assignments->size(); ++i) {
    size_t c = *target.exposed->schema.FindColumn((*assignments)[i].first);
    assigned.push_back(target.column_map ? (*target.column_map)[c] : c);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && rows[i][0].int_value() == rows[i - 1][0].int_value()) {
      return Status::Internal(std::string(kind) + " read one row twice");
    }
    for (size_t c : assigned) {
      STARBURST_ASSIGN_OR_RETURN(
          rows[i][c + 1],
          CoerceForColumn(std::move(rows[i][c + 1]), table.schema.column(c)));
    }
  }
  for (Row& row : rows) {
    Rid rid = Rid::Decode(row[0].int_value());
    if (update) {
      row.values().erase(row.values().begin());
      STARBURST_RETURN_IF_ERROR(
          storage_.UpdateRow(table.name, rid, row).status());
    } else {
      STARBURST_RETURN_IF_ERROR(storage_.DeleteRow(table.name, rid));
    }
  }
  RefreshRowStats(table.name);
  return ResultSet::Message(kind, static_cast<int64_t>(rows.size()));
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

Status Database::Analyze(const std::string& table_name) {
  STARBURST_ASSIGN_OR_RETURN(const TableDef* table,
                             catalog_.GetTable(table_name));
  STARBURST_ASSIGN_OR_RETURN(TableStorage * storage,
                             storage_.GetTable(table_name));
  TableStats stats;
  stats.row_count = 0;
  stats.page_count = static_cast<double>(storage->page_count());

  size_t ncols = table->schema.num_columns();
  std::vector<std::set<Value, ValueTotalLess>> distinct(ncols);
  std::vector<size_t> nulls(ncols, 0);
  std::vector<std::optional<Value>> mins(ncols), maxs(ncols);

  std::unique_ptr<TableScanIterator> scan = storage->NewScan();
  Row row;
  Rid rid;
  while (true) {
    STARBURST_ASSIGN_OR_RETURN(bool more, scan->Next(&row, &rid));
    if (!more) break;
    stats.row_count += 1;
    for (size_t c = 0; c < ncols; ++c) {
      const Value& v = row[c];
      if (v.is_null()) {
        ++nulls[c];
        continue;
      }
      distinct[c].insert(v);
      if (!mins[c] || v.CompareTotal(*mins[c]) < 0) mins[c] = v;
      if (!maxs[c] || v.CompareTotal(*maxs[c]) > 0) maxs[c] = v;
    }
  }
  for (size_t c = 0; c < ncols; ++c) {
    ColumnStats col;
    col.distinct_count = static_cast<double>(distinct[c].size());
    col.min_value = mins[c];
    col.max_value = maxs[c];
    col.null_fraction = stats.row_count > 0
                            ? static_cast<double>(nulls[c]) / stats.row_count
                            : 0;
    stats.columns[IdentUpper(table->schema.column(c).name)] = col;
  }
  return catalog_.UpdateStats(table_name, std::move(stats));
}

Status Database::AnalyzeAll() {
  for (const std::string& name : catalog_.TableNames()) {
    // sys.* rows are materialized fresh on every scan; there is nothing
    // durable to gather statistics over.
    if (IsSystemTableName(name)) continue;
    STARBURST_RETURN_IF_ERROR(Analyze(name));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Observability: statement bookkeeping and the sys.* virtual tables
// ---------------------------------------------------------------------------

void Database::FinishStatement(const Status& status, uint64_t rows,
                               double total_us) {
  StatementState& s = stmt_state();
  // Governance outcomes get their own labels so an operator can tell a
  // killed statement from a genuinely failed one.
  const char* label = "ok";
  if (!status.ok()) {
    switch (status.code()) {
      case StatusCode::kCancelled: label = "cancelled"; break;
      case StatusCode::kTimeout: label = "timeout"; break;
      default: label = s.admission_rejected ? "rejected" : "error"; break;
    }
  }
  // The registry retirement runs last, after the log append below, so a
  // sys.statements scan (registry first, then log) never misses the
  // statement. It runs even with metrics off: the live entry was
  // registered unconditionally (KILL must always work).
  struct Retire {
    StatementRegistry* registry;
    int64_t id;
    ~Retire() { registry->Finish(id); }
  } retire{&statements_, s.row.id};
  {
    std::lock_guard<std::mutex> lock(last_metrics_mu_);
    last_metrics_ = s.metrics;
  }
  if (!metrics_enabled_) return;

  em_.queries_total->Increment();
  if (!status.ok()) em_.query_errors_total->Increment();
  if (status.code() == StatusCode::kCancelled) {
    em_.statements_cancelled_total->Increment();
  } else if (status.code() == StatusCode::kTimeout) {
    em_.statements_timed_out_total->Increment();
  }
  // Latency (and the slow-query judgment below) measure execution work:
  // time parked in the admission queue is recorded separately as
  // queue_us, so a fast query stuck behind the budget is not "slow".
  double run_us = total_us > s.metrics.queue_us ? total_us - s.metrics.queue_us
                                                : total_us;
  em_.query_latency_us->Observe(run_us);
  em_.memory_query_peak_bytes->Set(
      static_cast<double>(s.metrics.peak_memory_bytes));
  if (static_cast<double>(s.metrics.peak_memory_bytes) >
      em_.memory_query_peak_max_bytes->value()) {
    em_.memory_query_peak_max_bytes->Set(
        static_cast<double>(s.metrics.peak_memory_bytes));
  }

  // The statement's row keeps the id it had while live (so
  // sys.statements and sys.query_log agree on it), its start instant
  // (`ts_us + total_us` reconstructs the end), its last phase, its
  // workload labels and the parallelism it actually ran with.
  obs::QueryLogEntry entry = std::move(s.row);
  entry.status = label;
  if (!status.ok()) entry.error = status.message();
  entry.rows = rows;
  entry.parse_us = static_cast<uint64_t>(stmt_state().metrics.parse_us);
  entry.bind_us = static_cast<uint64_t>(stmt_state().metrics.bind_us);
  entry.rewrite_us = static_cast<uint64_t>(stmt_state().metrics.rewrite_us);
  entry.optimize_us = static_cast<uint64_t>(stmt_state().metrics.optimize_us);
  entry.refine_us = static_cast<uint64_t>(stmt_state().metrics.refine_us);
  entry.queue_us = static_cast<uint64_t>(stmt_state().metrics.queue_us);
  entry.execute_us = static_cast<uint64_t>(stmt_state().metrics.execute_us);
  entry.total_us = static_cast<uint64_t>(total_us);
  entry.plan_cache_hit = stmt_state().metrics.plan_cache_hit;
  entry.spill_bytes = stmt_state().metrics.spill_bytes;
  entry.peak_memory_bytes = stmt_state().metrics.peak_memory_bytes;
  entry.slow =
      slow_query_us_ > 0 && run_us >= static_cast<double>(slow_query_us_);
  if (entry.slow) {
    em_.slow_queries_total->Increment();
    tracer_.RecordInstant(
        "slow query", "engine", obs::NowUs(),
        "\"sql\":\"" + obs::JsonEscape(entry.sql) + "\",\"total_us\":\"" +
            std::to_string(entry.total_us) + "\"");
  }
  query_log_.Append(std::move(entry));
}

void Database::RefreshMetricsMirrors() {
  const LayerStats stats{.plan_cache = plan_cache_.stats(),
                         .plan_cache_entries = plan_cache_.size(),
                         .buffer_pool = storage_.GatherStats().buffer_pool,
                         .admission = admission_.stats(),
                         .statements_live = statements_.live_count(),
                         .query_log_dropped = query_log_.dropped(),
                         .query_log_cleared = query_log_.cleared()};
  for (const Mirror& m : mirrors_) {
    const uint64_t v = m.read(stats);
    if (m.counter != nullptr) {
      m.counter->Set(v);
    } else {
      m.gauge->Set(static_cast<double>(v));
    }
  }
}

namespace {

/// One column of a sys.* view: its catalog entry and how to read it from
/// one row of the view's source.
template <typename T>
struct SysColumn {
  const char* name;
  TypeId type;
  bool nullable;
  Value (*read)(const T&);
};

Value FieldValue(int v) { return Value::Int(v); }
Value FieldValue(int64_t v) { return Value::Int(v); }
Value FieldValue(uint64_t v) { return Value::Int(static_cast<int64_t>(v)); }
Value FieldValue(bool v) { return Value::Int(v ? 1 : 0); }
Value FieldValue(double v) { return Value::Double(v); }
Value FieldValue(const std::string& v) { return Value::String(v); }

/// A column reader that serves one field of the row as is.
template <auto Field, typename T>
Value Read(const T& row) {
  return FieldValue(row.*Field);
}

/// Declares the sys.* view `name`: the catalog schema and the scan-time
/// row provider (one row per element `source()` returns) are both built
/// from `columns`, so each column is named in one place.
template <typename T, size_t N, typename Source>
TableDef DefineSysView(SystemStorageManager* manager, const char* name,
                       const SysColumn<T> (&columns)[N], Source source) {
  TableDef def;
  def.name = name;
  def.storage_manager = "SYSTEM";
  // Nominal stats: the optimizer should not treat a system view as
  // empty (rows materialize at scan time).
  def.stats.row_count = 64;
  def.stats.page_count = 1;
  for (const SysColumn<T>& c : columns) {
    def.schema.AddColumn(ColumnDef{c.name, DataType(c.type), c.nullable});
  }
  // `columns` is a static table, so the provider may keep a view of it.
  std::span<const SysColumn<T>> view(columns);
  manager->RegisterTable(name, [view, source] {
    std::vector<Row> rows;
    for (const T& item : source()) {
      std::vector<Value> values;
      values.reserve(N);
      for (const SysColumn<T>& c : view) values.push_back(c.read(item));
      rows.emplace_back(std::move(values));
    }
    return rows;
  });
  return def;
}

}  // namespace

void Database::RegisterSystemTables() {
  using K = TypeId;
  using Sample = obs::MetricsRegistry::Sample;
  static constexpr SysColumn<Sample> kMetrics[] = {
      {"name", K::kString, false, Read<&Sample::name>},
      {"kind", K::kString, false, Read<&Sample::kind>},
      {"value", K::kDouble, false, Read<&Sample::value>},
  };

  using E = obs::QueryLogEntry;
  static constexpr SysColumn<E> kQueryLog[] = {
      {"id", K::kInt, false, Read<&E::id>},
      {"ts_us", K::kInt, false, Read<&E::ts_us>},
      {"sql", K::kString, false, Read<&E::sql>},
      {"status", K::kString, false, Read<&E::status>},
      {"error", K::kString, true,
       [](const E& e) {
         return e.error.empty() ? Value::Null() : Value::String(e.error);
       }},
      {"rows", K::kInt, false, Read<&E::rows>},
      {"parse_us", K::kInt, false, Read<&E::parse_us>},
      {"bind_us", K::kInt, false, Read<&E::bind_us>},
      {"rewrite_us", K::kInt, false, Read<&E::rewrite_us>},
      {"optimize_us", K::kInt, false, Read<&E::optimize_us>},
      {"refine_us", K::kInt, false, Read<&E::refine_us>},
      {"execute_us", K::kInt, false, Read<&E::execute_us>},
      {"total_us", K::kInt, false, Read<&E::total_us>},
      {"plan_cache_hit", K::kInt, false, Read<&E::plan_cache_hit>},
      {"spill_bytes", K::kInt, false, Read<&E::spill_bytes>},
      {"peak_memory_bytes", K::kInt, false, Read<&E::peak_memory_bytes>},
      {"parallelism", K::kInt, false, Read<&E::parallelism>},
      {"slow", K::kInt, false, Read<&E::slow>},
      {"queue_us", K::kInt, false, Read<&E::queue_us>},
      {"priority", K::kString, false, Read<&E::priority>},
      {"class", K::kString, false, Read<&E::klass>},
  };

  // Live statements and finished ones, in the same row shape.
  static constexpr SysColumn<E> kStatements[] = {
      {"id", K::kInt, false, Read<&E::id>},
      {"sql", K::kString, false, Read<&E::sql>},
      {"status", K::kString, false, Read<&E::status>},
      {"phase", K::kString, false, Read<&E::phase>},
      {"start_ts_us", K::kInt, false, Read<&E::ts_us>},
      {"total_us", K::kInt, false, Read<&E::total_us>},
      {"peak_memory_bytes", K::kInt, false, Read<&E::peak_memory_bytes>},
      {"priority", K::kString, false, Read<&E::priority>},
      {"class", K::kString, false, Read<&E::klass>},
      {"queue_us", K::kInt, false, Read<&E::queue_us>},
  };

  struct CachedPlan {
    int64_t position;  // 0 = most recently used
    std::string sql;
    PreparedStatementPtr ps;
    bool fresh;
  };
  static constexpr SysColumn<CachedPlan> kPlanCache[] = {
      {"position", K::kInt, false, Read<&CachedPlan::position>},
      {"sql", K::kString, false, Read<&CachedPlan::sql>},
      {"num_params", K::kInt, false,
       [](const CachedPlan& p) { return FieldValue(p.ps->num_params); }},
      {"cost", K::kDouble, false,
       [](const CachedPlan& p) { return FieldValue(p.ps->plan_cost); }},
      {"cardinality", K::kDouble, false,
       [](const CachedPlan& p) { return FieldValue(p.ps->plan_cardinality); }},
      {"catalog_version", K::kInt, false,
       [](const CachedPlan& p) { return FieldValue(p.ps->catalog_version); }},
      {"fresh", K::kInt, false, Read<&CachedPlan::fresh>},
  };

  struct SettingValue {
    const Setting* setting;
    int64_t value;  // in force now
  };
  static constexpr SysColumn<SettingValue> kSettings[] = {
      {"name", K::kString, false,
       [](const SettingValue& v) { return Value::String(v.setting->name); }},
      {"value", K::kString, false,
       [](const SettingValue& v) {
         return Value::String(SettingText(*v.setting, v.value));
       }},
      {"default_value", K::kString, false,
       [](const SettingValue& v) {
         return Value::String(SettingText(*v.setting, v.setting->def));
       }},
      {"unit", K::kString, false,
       [](const SettingValue& v) { return Value::String(v.setting->unit); }},
  };

  // Live rows first, then the log. A statement enters the log before it
  // leaves the registry, so reading in this order never misses one; a
  // logged id that is still live is skipped so none shows twice.
  auto statements = [this] {
    std::vector<E> rows = statements_.Snapshot();
    std::set<int64_t> live;
    for (const E& e : rows) live.insert(e.id);
    for (E& e : query_log_.Snapshot()) {
      if (live.count(e.id) == 0) rows.push_back(std::move(e));
    }
    return rows;
  };

  std::unique_ptr<SystemStorageManager> manager = MakeSystemStorageManager();
  SystemStorageManager* m = manager.get();
  const TableDef defs[] = {
      DefineSysView(m, "sys.metrics", kMetrics, [this] {
        RefreshMetricsMirrors();
        return metrics_registry_.Snapshot();
      }),
      DefineSysView(m, "sys.query_log", kQueryLog,
                    [this] { return query_log_.Snapshot(); }),
      DefineSysView(m, "sys.plan_cache", kPlanCache, [this] {
        std::vector<CachedPlan> plans;
        for (auto& [sql, ps] : plan_cache_.Entries()) {
          const bool fresh = ps->FreshAgainst(catalog_);
          plans.push_back({static_cast<int64_t>(plans.size()), std::move(sql),
                           std::move(ps), fresh});
        }
        return plans;
      }),
      DefineSysView(m, "sys.statements", kStatements, statements),
      DefineSysView(m, "sys.settings", kSettings, [this] {
        std::vector<SettingValue> values;
        for (const Setting& s : Settings()) values.push_back({&s, s.get(*this)});
        return values;
      }),
  };
  Status registered = storage_.storage_managers().Register(std::move(manager));
  (void)registered;  // fresh registry: "SYSTEM" cannot collide
  for (const TableDef& def : defs) {
    if (catalog_.CreateTable(def).ok()) {
      (void)storage_.CreateTable(def);
    }
  }
}

Status Database::RejectSystemTarget(const std::string& name,
                                    const char* verb) const {
  if (!IsSystemTableName(name)) return Status::OK();
  return Status::InvalidArgument(std::string("cannot ") + verb + " '" +
                                 IdentUpper(name) +
                                 "': sys.* tables are read-only");
}

}  // namespace starburst
