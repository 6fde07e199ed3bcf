#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"

namespace starburst {
namespace {

/// The sys.* virtual tables: plain SQL over engine observability state,
/// served by the read-only SYSTEM storage manager.
class SystemTablesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Exec("CREATE TABLE t (a INT, b STRING)"));
    ASSERT_TRUE(Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')"));
  }

  bool Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    if (!r.ok()) {
      last_error_ = r.status().ToString();
      return false;
    }
    return true;
  }

  std::vector<Row> MustQuery(const std::string& sql) {
    Result<std::vector<Row>> r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    if (!r.ok()) return {};
    return r.TakeValue();
  }

  double MetricValue(const std::string& name) {
    // A unique literal per probe keeps the probe itself out of the plan
    // cache, so probing never perturbs the counters being read.
    std::vector<Row> rows = MustQuery(
        "SELECT value, " + std::to_string(probe_seq_++) +
        " FROM sys.metrics WHERE name = '" + name + "'");
    if (rows.size() != 1) {
      ADD_FAILURE() << "metric '" << name << "' returned " << rows.size()
                    << " rows";
      return -1;
    }
    return rows[0][0].double_value();
  }

  Database db_;
  std::string last_error_;
  int probe_seq_ = 0;
};

TEST_F(SystemTablesTest, MetricsScansLikePlainTable) {
  std::vector<Row> rows =
      MustQuery("SELECT name, kind, value FROM sys.metrics ORDER BY name");
  ASSERT_GT(rows.size(), 10u);
  for (const Row& r : rows) {
    EXPECT_FALSE(r[0].string_value().empty());
    const std::string& kind = r[1].string_value();
    EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
        << kind;
  }
}

TEST_F(SystemTablesTest, MetricsFilterWithLike) {
  std::vector<Row> rows = MustQuery(
      "SELECT name FROM sys.metrics WHERE name LIKE 'plan_cache%' "
      "ORDER BY name");
  ASSERT_GE(rows.size(), 5u);
  for (const Row& r : rows) {
    EXPECT_EQ(r[0].string_value().rfind("plan_cache", 0), 0u);
  }
}

TEST_F(SystemTablesTest, CountersAdvanceAcrossQueries) {
  // Prime the cache, then re-run the identical statement: the second run
  // must surface as a plan-cache hit in sys.metrics.
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a > 1"));
  double hits_before = MetricValue("plan_cache_hits_total");
  double queries_before = MetricValue("queries_total");
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a > 1"));
  EXPECT_EQ(MetricValue("plan_cache_hits_total"), hits_before + 1);
  // The MetricValue probes themselves run queries, so queries_total moved
  // by at least the re-run plus the probes.
  EXPECT_GE(MetricValue("queries_total"), queries_before + 2);
}

TEST_F(SystemTablesTest, QueryLogRecordsStatements) {
  ASSERT_TRUE(Exec("SELECT a FROM t"));
  std::vector<Row> rows = MustQuery(
      "SELECT sql, status, rows FROM sys.query_log "
      "WHERE sql = 'SELECT A FROM T'");
  ASSERT_GE(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].string_value(), "ok");
  EXPECT_EQ(rows[0][2], Value::Int(3));
}

TEST_F(SystemTablesTest, QueryLogRecordsErrors) {
  EXPECT_FALSE(Exec("SELECT nope FROM t"));
  std::vector<Row> rows = MustQuery(
      "SELECT error FROM sys.query_log WHERE status = 'error'");
  ASSERT_GE(rows.size(), 1u);
  EXPECT_FALSE(rows[0][0].is_null());
}

TEST_F(SystemTablesTest, QueryLogFlagsPlanCacheHits) {
  ASSERT_TRUE(Exec("SELECT b FROM t WHERE a = 2"));
  ASSERT_TRUE(Exec("SELECT b FROM t WHERE a = 2"));
  std::vector<Row> rows = MustQuery(
      "SELECT plan_cache_hit FROM sys.query_log "
      "WHERE sql = 'SELECT B FROM T WHERE A = 2' ORDER BY id");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(0));
  EXPECT_EQ(rows[1][0], Value::Int(1));
}

TEST_F(SystemTablesTest, SlowQueryThresholdFlagsAndTraces) {
  db_.tracer().set_enabled(true);
  // 1us threshold: everything qualifies as slow.
  ASSERT_TRUE(Exec("SET SLOW_QUERY_US = 1"));
  ASSERT_TRUE(Exec("SELECT a FROM t"));
  std::vector<Row> rows = MustQuery(
      "SELECT slow FROM sys.query_log WHERE sql = 'SELECT A FROM T'");
  ASSERT_GE(rows.size(), 1u);
  EXPECT_EQ(rows.back()[0], Value::Int(1));
  EXPECT_GE(MetricValue("slow_queries_total"), 1.0);

  bool saw_instant = false;
  for (const obs::TraceEvent& e : db_.tracer().Snapshot()) {
    if (e.name == "slow query") saw_instant = true;
  }
  EXPECT_TRUE(saw_instant);

  // DEFAULT switches flagging back off.
  ASSERT_TRUE(Exec("SET SLOW_QUERY_US = DEFAULT"));
  EXPECT_EQ(db_.slow_query_us(), 0u);
}

TEST_F(SystemTablesTest, PlanCacheTableExposesEntries) {
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a < 3"));
  std::vector<Row> rows = MustQuery(
      "SELECT position, sql, fresh FROM sys.plan_cache "
      "WHERE sql = 'SELECT A FROM T WHERE A < 3'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][2], Value::Int(1));  // fresh against current catalog
}

TEST_F(SystemTablesTest, SysTablesJoinAndAggregate) {
  ASSERT_TRUE(Exec("SELECT a FROM t"));
  // Aggregate over a system table.
  std::vector<Row> count =
      MustQuery("SELECT COUNT(*), kind FROM sys.metrics GROUP BY kind");
  ASSERT_GE(count.size(), 2u);

  // Join the two observability relations against each other.
  std::vector<Row> joined = MustQuery(
      "SELECT q.id, m.value FROM sys.query_log q, sys.metrics m "
      "WHERE m.name = 'queries_total' AND q.status = 'ok'");
  ASSERT_GE(joined.size(), 1u);

  // Join a system table with a user table.
  std::vector<Row> mixed = MustQuery(
      "SELECT t.a FROM t, sys.metrics m "
      "WHERE m.name = 'queries_total' ORDER BY t.a");
  ASSERT_EQ(mixed.size(), 3u);
}

TEST_F(SystemTablesTest, ScansWorkUnderParallelism) {
  ASSERT_TRUE(Exec("SET PARALLELISM = 4"));
  ASSERT_TRUE(Exec("SET PARALLEL_MIN_ROWS = 0"));
  std::vector<Row> serial_vs_parallel =
      MustQuery("SELECT name FROM sys.metrics ORDER BY name");
  // One page -> one morsel materializes the table; every row exactly once.
  std::vector<Row> again =
      MustQuery("SELECT name FROM sys.metrics ORDER BY name");
  ASSERT_EQ(serial_vs_parallel.size(), again.size());
  for (size_t i = 1; i < again.size(); ++i) {
    EXPECT_NE(again[i - 1][0].string_value(), again[i][0].string_value());
  }
  ASSERT_TRUE(Exec("SET PARALLELISM = 1"));
}

TEST_F(SystemTablesTest, DmlAndDdlAgainstSysTablesFailCleanly) {
  EXPECT_FALSE(Exec("INSERT INTO sys.metrics VALUES ('x', 'counter', 1.0)"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("UPDATE sys.query_log SET status = 'ok'"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("DELETE FROM sys.query_log"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("DROP TABLE sys.metrics"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("CREATE TABLE sys.mine (a INT)"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("CREATE INDEX idx ON sys.metrics (name)"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  EXPECT_FALSE(Exec("CREATE VIEW sys.v AS SELECT 1"));
  EXPECT_NE(last_error_.find("read-only"), std::string::npos) << last_error_;

  // Users cannot claim the SYSTEM manager for their own tables either.
  EXPECT_FALSE(Exec("CREATE TABLE mine (a INT) USING SYSTEM"));
  EXPECT_NE(last_error_.find("reserved"), std::string::npos) << last_error_;

  // The guards fire before any mutation: the tables still scan.
  EXPECT_GE(MustQuery("SELECT name FROM sys.metrics").size(), 10u);
}

TEST_F(SystemTablesTest, AnalyzeAllSkipsSystemTables) {
  ASSERT_TRUE(Exec("ANALYZE"));  // must not fail over sys.* tables
}

TEST_F(SystemTablesTest, SpillAndMemoryColumnsPopulate) {
  // Force an external sort: tiny sort budget over enough rows to spill.
  ASSERT_TRUE(Exec("CREATE TABLE big (v INT)"));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(Exec("INSERT INTO big VALUES (" + std::to_string(997 - i) +
                     "), (" + std::to_string(i) + ")"));
  }
  ASSERT_TRUE(Exec("SET SORT_MEMORY = 256"));
  ASSERT_TRUE(Exec("SELECT v FROM big ORDER BY v"));
  ASSERT_TRUE(Exec("SET SORT_MEMORY = DEFAULT"));

  std::vector<Row> rows = MustQuery(
      "SELECT spill_bytes, peak_memory_bytes FROM sys.query_log "
      "WHERE sql = 'SELECT V FROM BIG ORDER BY V'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(rows[0][0].int_value(), 0);
  EXPECT_GT(rows[0][1].int_value(), 0);
  EXPECT_GE(MetricValue("spill_bytes_written_total"),
            static_cast<double>(rows[0][0].int_value()));
}

TEST_F(SystemTablesTest, TraceBufferKnobResizesRing) {
  ASSERT_TRUE(Exec("SET TRACE_BUFFER = 16"));
  EXPECT_EQ(db_.tracer().capacity(), 16u);
  ASSERT_TRUE(Exec("SET TRACE_BUFFER = DEFAULT"));
  EXPECT_EQ(db_.tracer().capacity(), obs::Tracer::kDefaultCapacity);
}

TEST_F(SystemTablesTest, MetricsDisabledPathSkipsBookkeeping) {
  ASSERT_TRUE(Exec("SELECT a FROM t"));
  uint64_t logged_before = db_.query_log().total();
  db_.set_metrics_enabled(false);
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a = 1"));
  EXPECT_EQ(db_.query_log().total(), logged_before);
  db_.set_metrics_enabled(true);
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a = 2"));
  EXPECT_EQ(db_.query_log().total(), logged_before + 1);
}

TEST_F(SystemTablesTest, MetricNamesAndKindsArePinned) {
  // Every metric sys.metrics serves, histograms flattened. A metric added,
  // renamed or moved between counter and gauge must show up here.
  const std::set<std::string> expected = {
      "admission_aged_total counter",
      "admission_budget_bytes gauge",
      "admission_cancelled_while_queued_total counter",
      "admission_high_admitted_total counter",
      "admission_high_queued_total counter",
      "admission_in_use_bytes gauge",
      "admission_low_admitted_total counter",
      "admission_low_queued_total counter",
      "admission_normal_admitted_total counter",
      "admission_normal_queued_total counter",
      "admission_queued_total counter",
      "admission_rejected_total counter",
      "admission_timeouts_total counter",
      "admission_waiting gauge",
      "buffer_pool_cache_hits_total counter",
      "buffer_pool_disk_reads_total counter",
      "buffer_pool_disk_writes_total counter",
      "buffer_pool_logical_reads_total counter",
      "memory_query_peak_bytes gauge",
      "memory_query_peak_max_bytes gauge",
      "plan_cache_entries gauge",
      "plan_cache_evictions_total counter",
      "plan_cache_hits_total counter",
      "plan_cache_invalidations_total counter",
      "plan_cache_misses_total counter",
      "queries_total counter",
      "query_errors_total counter",
      "query_latency_us_count histogram",
      "query_latency_us_p50 histogram",
      "query_latency_us_p95 histogram",
      "query_latency_us_p99 histogram",
      "query_latency_us_sum histogram",
      "query_log_cleared_total counter",
      "query_log_dropped_total counter",
      "scheduler_preemptions_total counter",
      "scheduler_tasks_run_total counter",
      "scheduler_workers_spawned_total counter",
      "slow_queries_total counter",
      "spill_bytes_written_total counter",
      "spill_files_created_total counter",
      "spill_live_bytes gauge",
      "spill_live_files gauge",
      "statements_cancelled_total counter",
      "statements_killed_total counter",
      "statements_live gauge",
      "statements_timed_out_total counter",
  };
  std::set<std::string> served;
  for (const Row& r : MustQuery("SELECT name, kind FROM sys.metrics")) {
    served.insert(r[0].string_value() + " " + r[1].string_value());
  }
  EXPECT_EQ(served, expected);
}

TEST_F(SystemTablesTest, ViewColumnsArePinned) {
  // Each view's SELECT * columns in order, as name:TYPE with a trailing
  // '?' on nullable columns.
  const std::map<std::string, std::string> expected = {
      {"sys.metrics", "name:STRING kind:STRING value:DOUBLE"},
      {"sys.query_log",
       "id:INT ts_us:INT sql:STRING status:STRING error:STRING? rows:INT "
       "parse_us:INT bind_us:INT rewrite_us:INT optimize_us:INT "
       "refine_us:INT execute_us:INT total_us:INT plan_cache_hit:INT "
       "spill_bytes:INT peak_memory_bytes:INT parallelism:INT slow:INT "
       "queue_us:INT priority:STRING class:STRING"},
      {"sys.statements",
       "id:INT sql:STRING status:STRING phase:STRING start_ts_us:INT "
       "total_us:INT peak_memory_bytes:INT priority:STRING class:STRING "
       "queue_us:INT"},
      {"sys.plan_cache",
       "position:INT sql:STRING num_params:INT cost:DOUBLE "
       "cardinality:DOUBLE catalog_version:INT fresh:INT"},
      {"sys.settings",
       "name:STRING value:STRING default_value:STRING unit:STRING"},
  };
  for (const auto& [view, columns] : expected) {
    Result<ResultSet> r = db_.Execute("SELECT * FROM " + view);
    ASSERT_TRUE(r.ok()) << view << ": " << r.status().ToString();
    Result<const TableDef*> def = db_.catalog().GetTable(view);
    ASSERT_TRUE(def.ok()) << view;
    const TableSchema& schema = (*def)->schema;
    ASSERT_EQ(r->column_names().size(), schema.num_columns()) << view;
    std::string served;
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      const ColumnDef& c = schema.column(i);
      served += (i > 0 ? " " : "") + r->column_names()[i] + ":" +
                c.type.ToString() + (c.nullable ? "?" : "");
    }
    EXPECT_EQ(served, columns) << view;
  }
}

TEST_F(SystemTablesTest, StatementsAndQueryLogShareIds) {
  // A statement run with metrics off takes an id but writes no log
  // entry; the ids of later statements must still agree in both views.
  db_.set_metrics_enabled(false);
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a = 1"));
  db_.set_metrics_enabled(true);
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a = 3"));
  std::vector<Row> s = MustQuery(
      "SELECT id FROM sys.statements WHERE sql = 'SELECT A FROM T WHERE A = 3'");
  std::vector<Row> q = MustQuery(
      "SELECT id FROM sys.query_log WHERE sql = 'SELECT A FROM T WHERE A = 3'");
  ASSERT_EQ(s.size(), 1u);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(s[0][0].int_value(), q[0][0].int_value());
}

TEST_F(SystemTablesTest, ConcurrentScansShowEachStatementOnce) {
  // Two sessions must not execute one cached operator tree at once.
  ASSERT_TRUE(Exec("SET PLAN_CACHE_SIZE = 0"));
  constexpr int kStatements = 1000;
  db_.query_log().set_capacity(4 * kStatements);  // nothing is evicted
  std::atomic<int> finished{0};
  std::thread worker([&] {
    for (int i = 0; i < kStatements; ++i) {
      EXPECT_TRUE(db_.Execute("SELECT b FROM t WHERE a = " +
                              std::to_string(i % 5)).ok());
      finished.fetch_add(1);
    }
  });
  // Scan while the worker runs (at most one scan per worker statement).
  for (int scan = 0; scan < kStatements && finished.load() < kStatements;
       ++scan) {
    const int finished_before = finished.load();
    std::vector<Row> rows = MustQuery("SELECT id, sql FROM sys.statements");
    std::set<int64_t> ids;
    int worker_rows = 0;
    for (const Row& r : rows) {
      EXPECT_TRUE(ids.insert(r[0].int_value()).second)
          << "statement " << r[0].int_value() << " listed twice";
      if (r[1].string_value().rfind("SELECT B FROM T", 0) == 0) ++worker_rows;
    }
    // Every statement that finished before the scan began is listed.
    EXPECT_GE(worker_rows, finished_before);
  }
  worker.join();
}

TEST_F(SystemTablesTest, FinishedStatementsKeepPhaseAndWorkload) {
  // A plan classified slow, then statements that never classify: each
  // finished row keeps its own workload labels and its last phase.
  ASSERT_TRUE(Exec("SET SLOW_PLAN_COST = 0"));
  ASSERT_TRUE(Exec("SELECT a FROM t WHERE a = 2"));
  ASSERT_TRUE(Exec("SET SLOW_PLAN_COST = DEFAULT"));
  EXPECT_FALSE(Exec("SELEC 1"));
  std::vector<Row> rows = MustQuery(
      "SELECT sql, phase, priority, class FROM sys.statements "
      "WHERE status <> 'running' AND id > 2 ORDER BY id");
  const std::vector<std::vector<std::string>> expected = {
      {"SET SLOW_PLAN_COST = 0", "parse", "normal", "fast"},
      {"SELECT A FROM T WHERE A = 2", "execute", "low", "slow"},
      {"SET SLOW_PLAN_COST = DEFAULT", "parse", "normal", "fast"},
      {"SELEC 1", "parse", "normal", "fast"},
  };
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(rows[i][c].string_value(), expected[i][c]) << i << "," << c;
    }
  }
}

TEST_F(SystemTablesTest, RenderTextServesEngineMetrics) {
  ASSERT_TRUE(Exec("SELECT a FROM t"));
  db_.RefreshMetricsMirrors();
  std::string text = db_.metrics_registry().RenderText();
  EXPECT_NE(text.find("# TYPE queries_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE query_latency_us summary"), std::string::npos);
}

TEST_F(SystemTablesTest, SettingsShowWhatSetEchoes) {
  // One non-default value per knob; a knob missing here fails below.
  const std::map<std::string, std::string> non_default = {
      {"STATEMENT_PRIORITY", "LOW"},
      {"PARALLELISM",
       std::to_string(exec::ExecOptions::DefaultParallelism() + 1)},
      {"PARALLEL_MIN_ROWS", "5000"},
      {"BATCH_SIZE", "7"},
      {"VECTORIZE", "0"},
      {"SORT_MEMORY", "64 KB"},
      {"AGG_MEMORY", "2 MB"},
      {"QUERY_MEMORY", "1 GB"},
      {"PLAN_CACHE_SIZE", "3"},
      {"SLOW_QUERY_US", "1000000"},
      {"TRACE_BUFFER", "100"},
      {"STATEMENT_TIMEOUT_MS", "600000"},
      {"ADMISSION_MEMORY", "4 GB"},
      {"ADMISSION_WAIT_MS", "5000"},
      {"ADMISSION_AGING_MS", "250"},
      {"SLOW_PLAN_COST", "123"},
      {"SLOW_PLAN_ROWS", "456"},
  };
  std::vector<Row> knobs =
      MustQuery("SELECT name, default_value, unit FROM sys.settings");
  ASSERT_EQ(knobs.size(), non_default.size());
  for (const Row& knob : knobs) {
    const std::string& name = knob[0].string_value();
    const std::string& default_value = knob[1].string_value();
    EXPECT_FALSE(knob[2].string_value().empty()) << name;
    auto it = non_default.find(name);
    if (it == non_default.end()) {
      ADD_FAILURE() << "no non-default value for " << name;
      continue;
    }
    const std::string probe =
        "SELECT value FROM sys.settings WHERE name = '" + name + "'";
    Result<ResultSet> set = db_.Execute("SET " + name + " = " + it->second);
    ASSERT_TRUE(set.ok()) << name << ": " << set.status().ToString();
    const std::string prefix = "SET " + name + " = ";
    ASSERT_EQ(set->message().rfind(prefix, 0), 0u) << set->message();
    const std::string echoed = set->message().substr(prefix.size());
    EXPECT_NE(echoed, default_value) << name;
    std::vector<Row> now = MustQuery(probe);
    ASSERT_EQ(now.size(), 1u) << name;
    EXPECT_EQ(now[0][0].string_value(), echoed) << name;

    ASSERT_TRUE(Exec("SET " + name + " = DEFAULT")) << last_error_;
    now = MustQuery(probe);
    ASSERT_EQ(now.size(), 1u) << name;
    EXPECT_EQ(now[0][0].string_value(), default_value) << name;
  }
}

TEST_F(SystemTablesTest, ReadmeSettingsTableListsExactlySysSettings) {
  std::ifstream readme(std::string(STARBURST_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(readme.good());
  // Table rows (| `NAME` | ...) under the "Session settings" heading.
  std::set<std::string> documented;
  bool in_section = false;
  std::string line;
  while (std::getline(readme, line)) {
    if (line.rfind('#', 0) == 0) {
      in_section = line.find("Session settings") != std::string::npos;
    } else if (in_section && line.rfind("| `", 0) == 0) {
      documented.insert(line.substr(3, line.find('`', 3) - 3));
    }
  }
  std::set<std::string> served;
  for (const Row& r : MustQuery("SELECT name FROM sys.settings")) {
    served.insert(r[0].string_value());
  }
  EXPECT_EQ(documented, served);
}

}  // namespace
}  // namespace starburst
