#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "obs/query_log.h"
#include "obs/trace.h"

namespace starburst {
namespace {

TEST(MetricsTest, CounterIncrementsAndMirrors) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(MetricsTest, GaugeSetAndRead) {
  obs::Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.Set(0);
  EXPECT_DOUBLE_EQ(g.value(), 0);
}

TEST(MetricsTest, HistogramBucketsAndQuantiles) {
  obs::Histogram h({10, 100, 1000});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0);  // empty

  for (int i = 0; i < 100; ++i) h.Observe(5);    // first bucket
  for (int i = 0; i < 100; ++i) h.Observe(50);   // second bucket
  EXPECT_EQ(h.count(), 200u);
  EXPECT_DOUBLE_EQ(h.sum(), 100 * 5.0 + 100 * 50.0);
  EXPECT_DOUBLE_EQ(h.max(), 50);

  // p50 lands exactly at the edge of the first bucket, p95 inside the
  // second (interpolated between 10 and 100).
  EXPECT_LE(h.Quantile(0.5), 10.0);
  double p95 = h.Quantile(0.95);
  EXPECT_GT(p95, 10.0);
  EXPECT_LE(p95, 100.0);
}

TEST(MetricsTest, HistogramOverflowReportsTrueMax) {
  obs::Histogram h({10});
  h.Observe(123456);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 123456);
  EXPECT_DOUBLE_EQ(h.max(), 123456);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  obs::MetricsRegistry r;
  obs::Counter* a = r.counter("a_total");
  obs::Counter* again = r.counter("a_total");
  EXPECT_EQ(a, again);
  a->Increment(3);

  std::vector<obs::MetricsRegistry::Sample> snap = r.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "a_total");
  EXPECT_EQ(snap[0].kind, "counter");
  EXPECT_DOUBLE_EQ(snap[0].value, 3);
}

TEST(MetricsTest, SnapshotFlattensHistograms) {
  obs::MetricsRegistry r;
  obs::Histogram* h = r.histogram("lat_us", {100, 1000});
  h->Observe(50);
  h->Observe(500);

  std::vector<std::string> names;
  for (const auto& s : r.Snapshot()) names.push_back(s.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "lat_us_count"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lat_us_sum"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lat_us_p50"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lat_us_p95"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "lat_us_p99"), names.end());
}

TEST(MetricsTest, RenderTextIsPrometheusShaped) {
  obs::MetricsRegistry r;
  r.counter("queries_total")->Increment(5);
  r.gauge("entries")->Set(2);
  r.histogram("lat", {10})->Observe(3);

  std::string text = r.RenderText();
  EXPECT_NE(text.find("# TYPE queries_total counter"), std::string::npos);
  EXPECT_NE(text.find("queries_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE entries gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat summary"), std::string::npos);
  EXPECT_NE(text.find("lat{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1"), std::string::npos);
}

// Satellite: concurrent metric updates from 4 workers must lose nothing
// (run under tsan in sanitizer builds).
TEST(MetricsTest, ConcurrentUpdatesFromFourWorkers) {
  obs::MetricsRegistry r;
  obs::Counter* c = r.counter("hits_total");
  obs::Histogram* h = r.histogram("lat_us", obs::MetricsRegistry::LatencyBoundsUs());

  constexpr int kWorkers = 4;
  constexpr int kPerWorker = 25000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kPerWorker; ++i) {
        c->Increment();
        h->Observe(static_cast<double>((w * kPerWorker + i) % 2000));
      }
    });
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(c->value(), static_cast<uint64_t>(kWorkers) * kPerWorker);
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kWorkers) * kPerWorker);
  uint64_t bucket_total = 0;
  for (uint64_t b : h->BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, h->count());
}

// Satellite: concurrent tracing with exact dropped-count accounting — the
// ring's retained events plus dropped() must equal everything recorded.
TEST(MetricsTest, ConcurrentTracingAccountsEveryEvent) {
  obs::Tracer tracer(64);
  tracer.set_enabled(true);

  constexpr int kWorkers = 4;
  constexpr int kPerWorker = 5000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kPerWorker; ++i) {
        tracer.RecordInstant("e" + std::to_string(w), "test", obs::NowUs());
      }
    });
  }
  for (std::thread& t : workers) t.join();

  std::vector<obs::TraceEvent> snap = tracer.Snapshot();
  EXPECT_EQ(snap.size(), 64u);
  EXPECT_EQ(snap.size() + tracer.dropped(),
            static_cast<uint64_t>(kWorkers) * kPerWorker);
  // Snapshot is oldest-first in recording order.
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].seq, snap[i].seq);
  }
}

TEST(MetricsTest, TracerSetCapacityShrinkDropsOldest) {
  obs::Tracer tracer(8);
  tracer.set_enabled(true);
  for (int i = 0; i < 8; ++i) {
    tracer.RecordInstant("e" + std::to_string(i), "test", obs::NowUs());
  }
  EXPECT_EQ(tracer.dropped(), 0u);

  tracer.set_capacity(3);
  EXPECT_EQ(tracer.capacity(), 3u);
  std::vector<obs::TraceEvent> snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // The newest three survive; the five discarded count as dropped.
  EXPECT_EQ(snap[0].name, "e5");
  EXPECT_EQ(snap[2].name, "e7");
  EXPECT_EQ(tracer.dropped(), 5u);

  // Recording continues seamlessly at the new capacity.
  tracer.RecordInstant("e8", "test", obs::NowUs());
  snap = tracer.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[2].name, "e8");
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(MetricsTest, TracerSetCapacityGrowKeepsEverything) {
  obs::Tracer tracer(2);
  tracer.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    tracer.RecordInstant("e" + std::to_string(i), "test", obs::NowUs());
  }
  EXPECT_EQ(tracer.dropped(), 3u);

  tracer.set_capacity(10);
  std::vector<obs::TraceEvent> before = tracer.Snapshot();
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0].name, "e3");

  for (int i = 5; i < 10; ++i) {
    tracer.RecordInstant("e" + std::to_string(i), "test", obs::NowUs());
  }
  EXPECT_EQ(tracer.Snapshot().size(), 7u);
  EXPECT_EQ(tracer.dropped(), 3u);  // nothing new dropped after the grow
}

TEST(MetricsTest, QueryLogRingEvictsOldest) {
  obs::QueryLog log(3);
  for (int i = 0; i < 5; ++i) {
    obs::QueryLogEntry e;
    e.id = 10 + i;
    e.sql = "Q" + std::to_string(i);
    log.Append(std::move(e));
  }
  std::vector<obs::QueryLogEntry> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].sql, "Q2");
  EXPECT_EQ(snap[2].sql, "Q4");
  EXPECT_EQ(snap[0].id, 12);  // the log keeps the caller's ids
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.dropped(), 2u);
}

TEST(MetricsTest, QueryLogTruncatesLongSql) {
  obs::QueryLog log;
  obs::QueryLogEntry e;
  e.sql = std::string(obs::QueryLog::kMaxSqlLength + 100, 'x');
  log.Append(std::move(e));
  std::vector<obs::QueryLogEntry> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].sql.size(), obs::QueryLog::kMaxSqlLength);
  EXPECT_EQ(snap[0].sql.substr(snap[0].sql.size() - 3), "...");
}

}  // namespace
}  // namespace starburst
