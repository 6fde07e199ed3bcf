#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "engine/admission.h"
#include "engine/database.h"
#include "engine/statement_registry.h"
#include "exec/parallel/task_scheduler.h"

namespace starburst {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

/// Spins until `pred` holds (or ~5 s pass). The admission queue is
/// event-driven now, so tests synchronize on observable stats instead of
/// sleeping fixed amounts.
template <typename Pred>
bool SpinUntil(Pred pred) {
  auto start = Clock::now();
  while (!pred()) {
    if (ElapsedMs(start) > 5000) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ---------------------------------------------------------------------------
// AdmissionController: ordered waiter queue
// ---------------------------------------------------------------------------

TEST(AdmissionOrderTest, LateSmallWaiterDoesNotBargePastQueuedLarge) {
  AdmissionController adm;
  adm.SetBudget(100);
  adm.SetMaxWaitMs(5000);
  Result<AdmissionGrant> held = adm.Admit(80, nullptr);
  ASSERT_TRUE(held.ok());

  // A (90) cannot fit in the 20 free bytes and queues.
  std::atomic<int> order{0};
  std::atomic<int> a_done{-1}, b_done{-1};
  std::thread a([&] {
    Result<AdmissionGrant> g =
        adm.Admit(90, StatementPriority::kNormal, nullptr);
    a_done = order.fetch_add(1);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    // Hold the grant while recording so B observably waited behind us.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  ASSERT_TRUE(SpinUntil([&] { return adm.stats().waiting_now == 1; }));

  // B (15) fits in the 20 free bytes right now, but a same-class waiter
  // is already queued: no barging — B queues behind A.
  std::thread b([&] {
    Result<AdmissionGrant> g =
        adm.Admit(15, StatementPriority::kNormal, nullptr);
    b_done = order.fetch_add(1);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
  });
  ASSERT_TRUE(SpinUntil([&] { return adm.stats().waiting_now == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(adm.stats().waiting_now, 2u) << "B barged past a queued waiter";

  // Freeing the 80 admits A (head, 90); B's 15 only fits once A's
  // grant drops, so the admission order is strictly A then B.
  *held = AdmissionGrant();
  a.join();
  b.join();
  EXPECT_LT(a_done.load(), b_done.load());
  EXPECT_EQ(adm.stats().queued_total, 2u);
  EXPECT_EQ(adm.stats().in_use_bytes, 0u);
}

TEST(AdmissionOrderTest, HighPriorityAdmittedBeforeEarlierLow) {
  AdmissionController adm;
  adm.SetBudget(10);
  adm.SetMaxWaitMs(5000);
  Result<AdmissionGrant> held = adm.Admit(10, nullptr);
  ASSERT_TRUE(held.ok());

  std::atomic<int> order{0};
  std::atomic<int> low_done{-1}, high_done{-1};
  std::thread low([&] {
    Result<AdmissionGrant> g = adm.Admit(10, StatementPriority::kLow, nullptr);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    low_done = order.fetch_add(1);
  });
  ASSERT_TRUE(SpinUntil([&] { return adm.stats().waiting_now == 1; }));
  std::thread high([&] {
    Result<AdmissionGrant> g = adm.Admit(10, StatementPriority::kHigh, nullptr);
    int my = order.fetch_add(1);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    high_done = my;
    // Hold briefly so `low` observably waited behind us.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  ASSERT_TRUE(SpinUntil([&] { return adm.stats().waiting_now == 2; }));

  *held = AdmissionGrant();  // single slot: the head decides the order
  high.join();
  low.join();
  EXPECT_LT(high_done.load(), low_done.load());
  EXPECT_EQ(adm.stats().admitted_by_class[0], 1u);
  EXPECT_EQ(adm.stats().admitted_by_class[2], 1u);
  EXPECT_EQ(adm.stats().in_use_bytes, 0u);
}

TEST(AdmissionOrderTest, AgingPromotesStarvedLowPastFreshHigh) {
  AdmissionController adm;
  adm.SetBudget(10);
  adm.SetMaxWaitMs(10000);
  adm.SetAgingMs(50);
  Result<AdmissionGrant> held = adm.Admit(10, nullptr);
  ASSERT_TRUE(held.ok());

  std::atomic<int> order{0};
  std::atomic<int> low_done{-1}, high_done{-1};
  std::thread low([&] {
    Result<AdmissionGrant> g = adm.Admit(10, StatementPriority::kLow, nullptr);
    int my = order.fetch_add(1);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    low_done = my;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  ASSERT_TRUE(SpinUntil([&] { return adm.stats().waiting_now == 1; }));
  // Let the low waiter age two full levels (low -> high).
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread high([&] {
    Result<AdmissionGrant> g = adm.Admit(10, StatementPriority::kHigh, nullptr);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    high_done = order.fetch_add(1);
  });
  ASSERT_TRUE(SpinUntil([&] { return adm.stats().waiting_now == 2; }));

  *held = AdmissionGrant();
  low.join();
  high.join();
  // The aged low waiter runs at high class with the earlier arrival seq,
  // so it wins the single slot.
  EXPECT_LT(low_done.load(), high_done.load());
  EXPECT_GE(adm.stats().aged_total, 2u);
  EXPECT_EQ(adm.stats().in_use_bytes, 0u);
}

TEST(AdmissionOrderTest, AgingDisabledKeepsStrictPriorityOrder) {
  AdmissionController adm;
  adm.SetBudget(10);
  adm.SetMaxWaitMs(10000);
  adm.SetAgingMs(0);  // starvation protection off
  Result<AdmissionGrant> held = adm.Admit(10, nullptr);
  ASSERT_TRUE(held.ok());

  std::atomic<int> order{0};
  std::atomic<int> low_done{-1}, high_done{-1};
  std::thread low([&] {
    Result<AdmissionGrant> g = adm.Admit(10, StatementPriority::kLow, nullptr);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    low_done = order.fetch_add(1);
  });
  ASSERT_TRUE(SpinUntil([&] { return adm.stats().waiting_now == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  std::thread high([&] {
    Result<AdmissionGrant> g = adm.Admit(10, StatementPriority::kHigh, nullptr);
    int my = order.fetch_add(1);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    high_done = my;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  ASSERT_TRUE(SpinUntil([&] { return adm.stats().waiting_now == 2; }));

  *held = AdmissionGrant();
  low.join();
  high.join();
  EXPECT_LT(high_done.load(), low_done.load());
  EXPECT_EQ(adm.stats().aged_total, 0u);
}

TEST(AdmissionOrderTest, KilledWhileQueuedWakesPromptlyAndCounts) {
  AdmissionController adm;
  adm.SetBudget(10);
  adm.SetMaxWaitMs(60000);  // the wake must come from the kill, not timeout
  Result<AdmissionGrant> held = adm.Admit(10, nullptr);
  ASSERT_TRUE(held.ok());

  CancelToken token;
  auto start = Clock::now();
  std::thread waiter([&] {
    Result<AdmissionGrant> g =
        adm.Admit(10, StatementPriority::kNormal, &token);
    EXPECT_EQ(g.status().code(), StatusCode::kCancelled);
  });
  ASSERT_TRUE(SpinUntil([&] { return adm.stats().waiting_now == 1; }));
  token.Kill();
  waiter.join();
  EXPECT_LT(ElapsedMs(start), 5000);
  EXPECT_EQ(adm.stats().cancelled_while_queued_total, 1u);
  EXPECT_EQ(adm.stats().waiting_now, 0u);
  // The departure is not miscounted as a timeout or admission.
  EXPECT_EQ(adm.stats().timeout_total, 0u);
  EXPECT_EQ(adm.stats().admitted_total, 1u);  // only the held grant
}

TEST(AdmissionOrderTest, LoweringWaitMsShedsAlreadyQueuedWaiters) {
  AdmissionController adm;
  adm.SetBudget(10);
  adm.SetMaxWaitMs(60000);
  Result<AdmissionGrant> held = adm.Admit(10, nullptr);
  ASSERT_TRUE(held.ok());

  auto start = Clock::now();
  std::thread waiter([&] {
    Result<AdmissionGrant> g =
        adm.Admit(10, StatementPriority::kNormal, nullptr);
    EXPECT_EQ(g.status().code(), StatusCode::kTimeout);
  });
  ASSERT_TRUE(SpinUntil([&] { return adm.stats().waiting_now == 1; }));
  // The waiter enqueued under a 60 s budget; it must re-read the knob
  // and time out against its own enqueue time, not sleep the old wait.
  adm.SetMaxWaitMs(20);
  waiter.join();
  EXPECT_LT(ElapsedMs(start), 5000);
  EXPECT_EQ(adm.stats().timeout_total, 1u);
  EXPECT_EQ(adm.stats().waiting_now, 0u);
}

// ---------------------------------------------------------------------------
// TaskScheduler: shared workers, priorities, time slicing
// ---------------------------------------------------------------------------

TEST(TaskSchedulerTest, ConcurrentBatchesBothComplete) {
  exec::parallel::TaskScheduler scheduler(2);
  std::atomic<int> ran{0};
  auto submit = [&](int n) {
    std::vector<std::function<Status()>> tasks;
    for (int i = 0; i < n; ++i) {
      tasks.push_back([&ran] {
        ran.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return Status::OK();
      });
    }
    return scheduler.RunParallel(std::move(tasks));
  };
  Status s1, s2;
  std::thread t1([&] { s1 = submit(6); });
  std::thread t2([&] { s2 = submit(6); });
  t1.join();
  t2.join();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_TRUE(s2.ok()) << s2.ToString();
  EXPECT_EQ(ran.load(), 12);
}

TEST(TaskSchedulerTest, BatchErrorsStayIsolated) {
  exec::parallel::TaskScheduler scheduler(2);
  Status ok_status, err_status;
  std::thread good([&] {
    std::vector<std::function<Status()>> tasks;
    for (int i = 0; i < 4; ++i) {
      tasks.push_back([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return Status::OK();
      });
    }
    ok_status = scheduler.RunParallel(std::move(tasks));
  });
  std::thread bad([&] {
    std::vector<std::function<Status()>> tasks;
    tasks.push_back([] { return Status::Internal("task blew up"); });
    tasks.push_back([] { return Status::OK(); });
    err_status = scheduler.RunParallel(std::move(tasks));
  });
  good.join();
  bad.join();
  EXPECT_TRUE(ok_status.ok()) << ok_status.ToString();
  EXPECT_EQ(err_status.code(), StatusCode::kInternal);
}

TEST(TaskSchedulerTest, NestedRunParallelDoesNotDeadlock) {
  exec::parallel::TaskScheduler scheduler(2);
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> outer;
  for (int i = 0; i < 2; ++i) {
    outer.push_back([&] {
      std::vector<std::function<Status()>> inner;
      for (int j = 0; j < 2; ++j) {
        inner.push_back([&ran] {
          ran.fetch_add(1);
          return Status::OK();
        });
      }
      Status s = scheduler.RunParallel(std::move(inner));
      if (s.ok()) ran.fetch_add(1);
      return s;
    });
  }
  Status s = scheduler.RunParallel(std::move(outer));
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(ran.load(), 6);
}

TEST(TaskSchedulerTest, HighPriorityBatchInterleavesAheadOfSlowLow) {
  using exec::parallel::TaskScheduler;
  TaskScheduler scheduler(1);
  uint64_t preemptions_before = TaskScheduler::total_preemptions();

  std::atomic<bool> low_started{false};
  Clock::time_point high_done, low_done;
  std::thread low([&] {
    std::vector<std::function<Status()>> tasks;
    for (int i = 0; i < 8; ++i) {
      tasks.push_back([&] {
        low_started = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Status::OK();
      });
    }
    Status s = scheduler.RunParallel(std::move(tasks), nullptr,
                                     TaskScheduler::kPriorityLow);
    low_done = Clock::now();
    ASSERT_TRUE(s.ok()) << s.ToString();
  });
  ASSERT_TRUE(SpinUntil([&] { return low_started.load(); }));

  std::thread high([&] {
    std::vector<std::function<Status()>> tasks;
    for (int i = 0; i < 4; ++i) {
      tasks.push_back([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return Status::OK();
      });
    }
    Status s = scheduler.RunParallel(std::move(tasks), nullptr,
                                     TaskScheduler::kPriorityHigh);
    high_done = Clock::now();
    ASSERT_TRUE(s.ok()) << s.ToString();
  });
  high.join();
  low.join();
  // The high batch's morsels ran ahead of the low batch's remaining
  // morsels instead of waiting for the whole low batch to drain.
  EXPECT_LT(high_done, low_done);
  EXPECT_GT(TaskScheduler::total_preemptions(), preemptions_before);
}

TEST(TaskSchedulerTest, ZeroWorkersRunsSerially) {
  exec::parallel::TaskScheduler scheduler(0);
  std::vector<int> ran;  // serial execution: safe to mutate unguarded
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&ran, i] {
      ran.push_back(i);
      return Status::OK();
    });
  }
  ASSERT_TRUE(scheduler.RunParallel(std::move(tasks)).ok());
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(scheduler.workers(), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level workload scheduling
// ---------------------------------------------------------------------------

class SchedulerTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 2000;

  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (id INT, k INT)").ok());
    std::string insert;
    for (int i = 0; i < kRows; ++i) {
      insert += insert.empty() ? "INSERT INTO t VALUES " : ",";
      insert += "(" + std::to_string(i) + "," + std::to_string(i % 53) + ")";
      if (insert.size() > 30000 || i == kRows - 1) {
        ASSERT_TRUE(db_.Execute(insert).ok());
        insert.clear();
      }
    }
  }

  void Set(const std::string& stmt) {
    Result<ResultSet> rs = db_.Execute(stmt);
    ASSERT_TRUE(rs.ok()) << stmt << ": " << rs.status().ToString();
  }

  /// Estimated cardinality far above kDefaultSlowPlanRows: classified
  /// slow, so the optimizer-driven priority is low.
  static std::string SlowScan() {
    return "SELECT COUNT(*) FROM t a, t b WHERE a.k + b.k >= 0";
  }
  static std::string FastLookup() {
    return "SELECT COUNT(*) FROM t WHERE id < 10";
  }

  /// Newest sys.query_log entry whose SQL contains `needle` (a copy,
  /// so two lookups can be compared side by side).
  std::optional<obs::QueryLogEntry> LogEntry(const std::string& needle) {
    std::optional<obs::QueryLogEntry> found;
    for (const obs::QueryLogEntry& e : db_.query_log().Snapshot()) {
      if (e.sql.find(needle) != std::string::npos) found = e;
    }
    return found;
  }

  double Metric(const std::string& name) {
    Result<std::vector<Row>> rows = db_.Query(
        "SELECT value FROM sys.metrics WHERE name = '" + name + "'");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok() || rows->size() != 1) return -1;
    return (*rows)[0][0].double_value();
  }

  Database db_;
};

TEST_F(SchedulerTest, CompileTimeClassificationReachesTheLog) {
  ASSERT_TRUE(db_.Execute(SlowScan()).ok());
  ASSERT_TRUE(db_.Execute(FastLookup()).ok());
  std::optional<obs::QueryLogEntry> slow = LogEntry("A, T B");
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(slow->klass, "slow");
  EXPECT_EQ(slow->priority, "low");
  std::optional<obs::QueryLogEntry> fast = LogEntry("ID < 10");
  ASSERT_TRUE(fast.has_value());
  EXPECT_EQ(fast->klass, "fast");
  EXPECT_EQ(fast->priority, "normal");
}

TEST_F(SchedulerTest, StatementPriorityOverrideIsPartOfThePlanCacheKey) {
  ASSERT_TRUE(db_.Execute(FastLookup()).ok());
  Set("SET STATEMENT_PRIORITY = HIGH");
  // Same SQL: a stale cache hit would replay the old normal priority.
  ASSERT_TRUE(db_.Execute(FastLookup()).ok());
  Set("SET STATEMENT_PRIORITY = DEFAULT");
  std::vector<std::string> priorities;
  for (const obs::QueryLogEntry& e : db_.query_log().Snapshot()) {
    if (e.sql.find("ID < 10") != std::string::npos)
      priorities.push_back(e.priority);
  }
  ASSERT_EQ(priorities.size(), 2u);
  EXPECT_EQ(priorities[0], "normal");
  EXPECT_EQ(priorities[1], "high");
}

TEST_F(SchedulerTest, ClassificationThresholdKnobsReclassify) {
  // Everything is slow under a zero row threshold...
  Set("SET SLOW_PLAN_ROWS = 0");
  ASSERT_TRUE(db_.Execute(FastLookup()).ok());
  std::optional<obs::QueryLogEntry> e = LogEntry("ID < 10");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->klass, "slow");
  // ...and nothing under maxed-out thresholds.
  Set("SET SLOW_PLAN_ROWS = 1000000000");
  Set("SET SLOW_PLAN_COST = 1000000000");
  ASSERT_TRUE(db_.Execute(SlowScan()).ok());
  e = LogEntry("A, T B");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->klass, "fast");
  Set("SET SLOW_PLAN_ROWS = DEFAULT");
  Set("SET SLOW_PLAN_COST = DEFAULT");
}

TEST_F(SchedulerTest, RejectsIdentifierValueForNumericKnob) {
  Result<ResultSet> r = db_.Execute("SET BATCH_SIZE = HIGH");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSemanticError);
}

TEST_F(SchedulerTest, HighOverrideAdmittedBeforeQueuedNormal) {
  Set("SET ADMISSION_MEMORY = 64 MB");
  Set("SET ADMISSION_WAIT_MS = 10000");
  Set("SET QUERY_MEMORY = 48 MB");
  Result<AdmissionGrant> held = db_.admission().Admit(48ull << 20, nullptr);
  ASSERT_TRUE(held.ok());

  // A queues at normal priority first...
  Result<ResultSet> ra = Status::Internal("not run");
  std::thread a([&] { ra = db_.Execute("SELECT COUNT(*) FROM t WHERE id < 10"); });
  ASSERT_TRUE(SpinUntil([&] { return db_.admission().stats().waiting_now == 1; }));

  // ...then B arrives later but at high priority.
  Set("SET STATEMENT_PRIORITY = HIGH");
  Result<ResultSet> rb = Status::Internal("not run");
  std::thread b([&] { rb = db_.Execute("SELECT COUNT(*) FROM t WHERE id < 20"); });
  ASSERT_TRUE(SpinUntil([&] { return db_.admission().stats().waiting_now == 2; }));

  *held = AdmissionGrant();  // one 48 MB slot for two 48 MB requests
  a.join();
  b.join();
  Set("SET STATEMENT_PRIORITY = DEFAULT");
  Set("SET QUERY_MEMORY = DEFAULT");
  Set("SET ADMISSION_WAIT_MS = DEFAULT");
  Set("SET ADMISSION_MEMORY = DEFAULT");
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();

  // B went first, so A additionally waited out B's whole execution:
  // queue_us(A) > queue_us(B), deterministically.
  std::optional<obs::QueryLogEntry> ea = LogEntry("ID < 10");
  std::optional<obs::QueryLogEntry> eb = LogEntry("ID < 20");
  ASSERT_TRUE(ea.has_value());
  ASSERT_TRUE(eb.has_value());
  EXPECT_EQ(ea->priority, "normal");
  EXPECT_EQ(eb->priority, "high");
  EXPECT_GT(ea->queue_us, eb->queue_us);
}

TEST_F(SchedulerTest, KilledWhileQueuedSurfacesInSysMetrics) {
  Set("SET ADMISSION_MEMORY = 64 MB");
  Set("SET ADMISSION_WAIT_MS = 60000");
  Result<AdmissionGrant> held = db_.admission().Admit(64ull << 20, nullptr);
  ASSERT_TRUE(held.ok());

  auto start = Clock::now();
  Result<ResultSet> r = Status::Internal("not run");
  std::thread worker([&] { r = db_.Execute(FastLookup()); });
  int64_t victim = 0;
  ASSERT_TRUE(SpinUntil([&] {
    for (const obs::QueryLogEntry& s : db_.statement_registry().Snapshot()) {
      if (s.status == "running" && s.phase == std::string("queued")) {
        victim = s.id;
        return true;
      }
    }
    return false;
  }));
  ASSERT_TRUE(db_.Execute("KILL " + std::to_string(victim)).ok());
  worker.join();
  *held = AdmissionGrant();
  Set("SET ADMISSION_WAIT_MS = DEFAULT");
  Set("SET ADMISSION_MEMORY = DEFAULT");

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // The kill wake-up hook fired: nowhere near the 60 s admission wait.
  EXPECT_LT(ElapsedMs(start), 10000);
  EXPECT_EQ(db_.admission().stats().cancelled_while_queued_total, 1u);
  EXPECT_GE(Metric("admission_cancelled_while_queued_total"), 1.0);
}

TEST_F(SchedulerTest, QueueWaitDoesNotMakeAFastStatementSlow) {
  Set("SET SLOW_QUERY_US = 150000");
  Set("SET ADMISSION_MEMORY = 64 MB");
  Set("SET ADMISSION_WAIT_MS = 10000");
  Result<AdmissionGrant> held = db_.admission().Admit(64ull << 20, nullptr);
  ASSERT_TRUE(held.ok());

  Result<ResultSet> r = Status::Internal("not run");
  std::thread worker([&] { r = db_.Execute(FastLookup()); });
  ASSERT_TRUE(SpinUntil([&] { return db_.admission().stats().waiting_now == 1; }));
  // Pin the statement in the queue past the slow threshold, then free it.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  *held = AdmissionGrant();
  worker.join();
  Set("SET ADMISSION_WAIT_MS = DEFAULT");
  Set("SET ADMISSION_MEMORY = DEFAULT");
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::optional<obs::QueryLogEntry> e = LogEntry("ID < 10");
  ASSERT_TRUE(e.has_value());
  EXPECT_GE(e->queue_us, 200000u);  // the wait is its own logged phase
  EXPECT_GT(e->total_us, e->queue_us);
  EXPECT_LT(e->execute_us, e->queue_us);
  EXPECT_FALSE(e->slow) << "queue wait was billed as execution time";

  // A genuinely slow execution still trips the flag.
  Set("SET SLOW_QUERY_US = 1");
  ASSERT_TRUE(db_.Execute("SELECT COUNT(*) FROM t WHERE id < 20").ok());
  Set("SET SLOW_QUERY_US = DEFAULT");
  e = LogEntry("ID < 20");
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->slow);
}

TEST_F(SchedulerTest, WorkloadColumnsInSystemTables) {
  ASSERT_TRUE(db_.Execute(FastLookup()).ok());
  Result<std::vector<Row>> rows = db_.Query(
      "SELECT priority, class, queue_us FROM sys.query_log "
      "WHERE sql LIKE '%ID < 10%'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_GE(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].string_value(), "normal");
  EXPECT_EQ((*rows)[0][1].string_value(), "fast");
  EXPECT_GE((*rows)[0][2].int_value(), 0);
  // sys.statements history carries the same workload columns.
  rows = db_.Query(
      "SELECT priority, class FROM sys.statements "
      "WHERE sql LIKE '%ID < 10%'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_GE(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0].string_value(), "normal");
  EXPECT_EQ((*rows)[0][1].string_value(), "fast");
}

TEST_F(SchedulerTest, ExplainAnalyzeReportsWorkloadLine) {
  Result<ResultSet> r = db_.Execute("EXPLAIN ANALYZE " + FastLookup());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool found = false;
  for (const Row& row : r->rows()) {
    for (const Value& v : row.values()) {
      if (!v.is_null() &&
          v.string_value().find("workload:") != std::string::npos) {
        EXPECT_NE(v.string_value().find("priority=normal"), std::string::npos);
        EXPECT_NE(v.string_value().find("class=fast"), std::string::npos);
        EXPECT_NE(v.string_value().find("queue_us="), std::string::npos);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "no workload line in EXPLAIN ANALYZE output";
}

// ---------------------------------------------------------------------------
// Multi-client starvation/fairness stress
// ---------------------------------------------------------------------------

TEST_F(SchedulerTest, SlowScanDoesNotStarveUnderFastStatementStream) {
  // One admission slot (48 MB requests against a 64 MB budget), a low
  // slow scan competing with a stream of fast statements, and a tight
  // aging interval: the scan must keep making progress.
  Set("SET SLOW_PLAN_COST = 1000");  // the cross join classifies slow/low
  Set("SET ADMISSION_MEMORY = 64 MB");
  Set("SET QUERY_MEMORY = 48 MB");
  Set("SET ADMISSION_WAIT_MS = 30000");
  Set("SET ADMISSION_AGING_MS = 100");

  std::string slow_sql =
      "SELECT COUNT(*) FROM t a, t b WHERE a.id < 300 AND b.id < 300";
  std::atomic<int> failures{0};
  std::atomic<int> fast_ok{0};
  std::vector<std::string> errors;
  std::mutex errors_mu;
  auto record_failure = [&](const Status& s) {
    failures.fetch_add(1);
    std::lock_guard<std::mutex> lock(errors_mu);
    errors.push_back(s.ToString());
  };

  std::thread slow_client([&] {
    for (int i = 0; i < 3; ++i) {
      Result<ResultSet> r = db_.Execute(slow_sql);
      if (!r.ok()) record_failure(r.status());
    }
  });
  std::vector<std::thread> fast_clients;
  for (int c = 0; c < 3; ++c) {
    fast_clients.emplace_back([&, c] {
      for (int i = 0; i < 15; ++i) {
        Result<ResultSet> r = db_.Execute("SELECT COUNT(*) FROM t WHERE id < " +
                                          std::to_string(10 + c * 100 + i));
        if (r.ok()) {
          fast_ok.fetch_add(1);
        } else {
          record_failure(r.status());
        }
      }
    });
  }
  slow_client.join();
  for (std::thread& th : fast_clients) th.join();
  Set("SET ADMISSION_AGING_MS = DEFAULT");
  Set("SET ADMISSION_WAIT_MS = DEFAULT");
  Set("SET QUERY_MEMORY = DEFAULT");
  Set("SET ADMISSION_MEMORY = DEFAULT");
  Set("SET SLOW_PLAN_COST = DEFAULT");

  // No statement timed out, was rejected, or starved past its wait.
  std::string joined;
  for (const std::string& e : errors) joined += e + "; ";
  EXPECT_EQ(failures.load(), 0) << joined;
  EXPECT_EQ(fast_ok.load(), 45);
  const AdmissionController::Stats stats = db_.admission().stats();
  EXPECT_EQ(stats.timeout_total, 0u);
  EXPECT_EQ(stats.rejected_total, 0u);
  EXPECT_EQ(stats.in_use_bytes, 0u);
  EXPECT_GE(stats.queued_total, 1u);

  // Priority labels flowed through: the scan logged low/slow, the
  // stream normal/fast, and queue waits were recorded per statement.
  std::optional<obs::QueryLogEntry> slow_entry = LogEntry("A.ID < 300");
  ASSERT_TRUE(slow_entry.has_value());
  EXPECT_EQ(slow_entry->priority, "low");
  EXPECT_EQ(slow_entry->klass, "slow");
}

}  // namespace
}  // namespace starburst
