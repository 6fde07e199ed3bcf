#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "ext/extensions.h"
#include "obs/op_stats.h"

namespace starburst {
namespace {

class ExtensionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ext::RegisterAllExtensions(&db_).ok());
  }

  bool Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    if (!r.ok()) last_error_ = r.status().ToString();
    return r.ok();
  }

  std::vector<Row> MustQuery(const std::string& sql) {
    Result<std::vector<Row>> r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r.TakeValue() : std::vector<Row>{};
  }

  Database db_;
  std::string last_error_;
};

// ---------------------------------------------------------------------------
// Externally-defined type + R-tree access method (§1, §2)
// ---------------------------------------------------------------------------

TEST_F(ExtensionTest, PointTypeEndToEnd) {
  ASSERT_TRUE(Exec("CREATE TABLE cities (name STRING, loc POINT)"))
      << last_error_;
  ASSERT_TRUE(Exec("INSERT INTO cities VALUES "
                   "('a', POINT(1, 1)), ('b', POINT(5, 5)), "
                   "('c', POINT(9.5, 2))"))
      << last_error_;
  std::vector<Row> rows = MustQuery(
      "SELECT name FROM cities WHERE CONTAINS(loc, 0, 0, 6, 6) "
      "ORDER BY name");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::String("a"));
  EXPECT_EQ(rows[1][0], Value::String("b"));

  rows = MustQuery("SELECT PX(loc), PY(loc) FROM cities WHERE name = 'c'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Double(9.5));

  rows = MustQuery(
      "SELECT DISTANCE(POINT(0, 0), POINT(3, 4))");
  EXPECT_EQ(rows[0][0], Value::Double(5.0));
}

TEST_F(ExtensionTest, RTreeIndexIsUsedByOptimizer) {
  ASSERT_TRUE(Exec("CREATE TABLE pts (id INT, loc POINT)"));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Exec("INSERT INTO pts VALUES (" + std::to_string(i) +
                     ", POINT(" + std::to_string(i % 20) + ", " +
                     std::to_string(i / 20) + "))"));
  }
  ASSERT_TRUE(Exec("CREATE INDEX pts_loc ON pts (loc) USING RTREE"))
      << last_error_;
  ASSERT_TRUE(db_.AnalyzeAll().ok());

  Result<ResultSet> explain = db_.Execute(
      "EXPLAIN PLAN SELECT id FROM pts WHERE CONTAINS(loc, 2, 2, 4, 4)");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  std::string plan = explain->rows()[0][0].string_value();
  EXPECT_NE(plan.find("RTREE_SCAN"), std::string::npos) << plan;

  // And the answers match a plain scan.
  std::vector<Row> indexed = MustQuery(
      "SELECT id FROM pts WHERE CONTAINS(loc, 2, 2, 4, 4) ORDER BY id");
  // Window [2,4]x[2,4]: x in {2,3,4} per row of 20, y in {2,3,4}.
  EXPECT_EQ(indexed.size(), 9u);
  std::vector<Row> scanned = MustQuery(
      "SELECT id FROM pts WHERE PX(loc) >= 2 AND PX(loc) <= 4 "
      "AND PY(loc) >= 2 AND PY(loc) <= 4 ORDER BY id");
  EXPECT_EQ(indexed, scanned);

  // The R-tree scan (with a residual predicate it filters per batch)
  // answers identically, and every operator reports the same rows_out,
  // at batch size 1 (the row-at-a-time reference) and 1024.
  db_.options().collect_op_stats = true;
  const std::string windowed =
      "SELECT id FROM pts WHERE CONTAINS(loc, 2, 2, 4, 4) AND id % 2 = 0 "
      "ORDER BY id";
  std::vector<std::vector<Row>> answers;
  std::vector<std::vector<std::pair<std::string, uint64_t>>> actuals;
  for (int batch_size : {1, 1024}) {
    ASSERT_TRUE(Exec("SET BATCH_SIZE = " + std::to_string(batch_size)));
    Result<ResultSet> r = db_.Execute(windowed);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    answers.push_back(r->rows());
    ASSERT_NE(db_.last_metrics().op_stats, nullptr);
    ASSERT_FALSE(db_.last_metrics().op_stats->roots().empty());
    actuals.emplace_back();
    std::vector<const obs::PlanStatsTree::Node*> stack = {
        db_.last_metrics().op_stats->roots()[0]};
    while (!stack.empty()) {
      const obs::PlanStatsTree::Node* node = stack.back();
      stack.pop_back();
      actuals.back().emplace_back(node->name, node->actual.rows_out.load());
      stack.insert(stack.end(), node->children.begin(), node->children.end());
    }
  }
  ASSERT_EQ(answers[0].size(), 6u);  // ids 42, 44, 62, 64, 82, 84
  EXPECT_EQ(answers[0][0][0], Value::Int(42));
  EXPECT_EQ(answers[1], answers[0]);
  EXPECT_EQ(actuals[1], actuals[0]);
  bool saw_rtree_scan = false;
  for (const auto& [name, rows_out] : actuals[0]) {
    if (name.find("RTREE_SCAN") == std::string::npos) continue;
    saw_rtree_scan = true;
    EXPECT_EQ(rows_out, 6u) << name;
  }
  EXPECT_TRUE(saw_rtree_scan);
}

TEST_F(ExtensionTest, RTreeMaintainedAcrossDeletes) {
  ASSERT_TRUE(Exec("CREATE TABLE pts (id INT, loc POINT)"));
  ASSERT_TRUE(Exec("INSERT INTO pts VALUES (1, POINT(1,1)), (2, POINT(2,2))"));
  ASSERT_TRUE(Exec("CREATE INDEX pts_loc ON pts (loc) USING RTREE"));
  ASSERT_TRUE(Exec("DELETE FROM pts WHERE id = 1"));
  std::vector<Row> rows =
      MustQuery("SELECT id FROM pts WHERE CONTAINS(loc, 0, 0, 3, 3)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(2));

  // A DELETE whose WHERE is a window reads its victims through the DBC's
  // R-tree STAR, like any query.
  std::string insert = "INSERT INTO pts VALUES ";
  for (int i = 10; i < 210; ++i) {
    if (i > 10) insert += ", ";
    insert += "(" + std::to_string(i) + ", POINT(" + std::to_string(i) + ", " +
              std::to_string(i) + "))";
  }
  ASSERT_TRUE(Exec(insert));
  db_.options().collect_op_stats = true;
  Result<ResultSet> deleted =
      db_.Execute("DELETE FROM pts WHERE CONTAINS(loc, 0, 0, 15, 15)");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->affected_rows(), 7);  // ids 2 and 10..15
  ASSERT_NE(db_.last_metrics().op_stats, nullptr);
  EXPECT_NE(db_.last_metrics().op_stats->Render(/*with_actuals=*/true).find(
                "RTREE_SCAN"),
            std::string::npos);
  EXPECT_TRUE(
      MustQuery("SELECT id FROM pts WHERE CONTAINS(loc, 0, 0, 15, 15)")
          .empty());
  EXPECT_EQ(MustQuery("SELECT COUNT(*) FROM pts")[0][0], Value::Int(194));
}

TEST_F(ExtensionTest, RTreeRejectsNonPointColumns) {
  ASSERT_TRUE(Exec("CREATE TABLE t (a INT)"));
  EXPECT_FALSE(Exec("CREATE INDEX bad ON t (a) USING RTREE"));
}

// ---------------------------------------------------------------------------
// Table function (§2's SAMPLE)
// ---------------------------------------------------------------------------

TEST_F(ExtensionTest, SampleTableFunction) {
  ASSERT_TRUE(Exec("CREATE TABLE nums (n INT)"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Exec("INSERT INTO nums VALUES (" + std::to_string(i) + ")"));
  }
  std::vector<Row> rows = MustQuery("SELECT n FROM SAMPLE(nums, 10) s");
  EXPECT_EQ(rows.size(), 10u);
  // Table functions compose like any table: aggregation over a sample.
  rows = MustQuery("SELECT COUNT(*) FROM SAMPLE(nums, 25) s WHERE n >= 0");
  EXPECT_EQ(rows[0][0], Value::Int(25));
  // A query (not just a name) as the table argument.
  rows = MustQuery(
      "SELECT COUNT(*) FROM SAMPLE(SELECT n FROM nums WHERE n < 50, 5) s");
  EXPECT_EQ(rows[0][0], Value::Int(5));
}

TEST_F(ExtensionTest, SampleValidatesArguments) {
  ASSERT_TRUE(Exec("CREATE TABLE nums (n INT)"));
  EXPECT_FALSE(Exec("SELECT n FROM SAMPLE(nums, 'ten') s"));
  EXPECT_FALSE(Exec("SELECT n FROM SAMPLE(nums, -1) s"));
}

// ---------------------------------------------------------------------------
// Aggregate extension (§2's StandardDeviation)
// ---------------------------------------------------------------------------

TEST_F(ExtensionTest, StddevAndVariance) {
  ASSERT_TRUE(Exec("CREATE TABLE xs (g STRING, x DOUBLE)"));
  ASSERT_TRUE(Exec("INSERT INTO xs VALUES "
                   "('a', 2.0), ('a', 4.0), ('a', 4.0), ('a', 4.0), "
                   "('a', 5.0), ('a', 5.0), ('a', 7.0), ('a', 9.0), "
                   "('b', 1.0)"));
  std::vector<Row> rows = MustQuery(
      "SELECT g, VARIANCE(x), STDDEV(x) FROM xs GROUP BY g ORDER BY g");
  ASSERT_EQ(rows.size(), 2u);
  // Sample variance of {2,4,4,4,5,5,7,9} = 32/7.
  EXPECT_NEAR(rows[0][1].double_value(), 32.0 / 7.0, 1e-9);
  EXPECT_NEAR(rows[0][2].double_value(),
              std::sqrt(32.0 / 7.0), 1e-9);
  // One value: sample stddev undefined -> NULL.
  EXPECT_TRUE(rows[1][1].is_null());
}

// ---------------------------------------------------------------------------
// Set predicate extension (§2's MAJORITY)
// ---------------------------------------------------------------------------

TEST_F(ExtensionTest, MajoritySetPredicate) {
  ASSERT_TRUE(Exec("CREATE TABLE salaries (dept STRING, amount INT)"));
  ASSERT_TRUE(Exec("INSERT INTO salaries VALUES "
                   "('eng', 100), ('eng', 120), ('eng', 90), "
                   "('hr', 50), ('hr', 60)"));
  // 105 > majority of {100,120,90,50,60}? greater than 100,90,50,60 = 4/5.
  std::vector<Row> rows = MustQuery(
      "SELECT 1 WHERE 105 > MAJORITY (SELECT amount FROM salaries)");
  EXPECT_EQ(rows.size(), 1u);
  // 55 > majority? greater than 50 only = 1/5.
  rows = MustQuery(
      "SELECT 1 WHERE 55 > MAJORITY (SELECT amount FROM salaries)");
  EXPECT_EQ(rows.size(), 0u);
  // Correlated use inside a real query.
  rows = MustQuery(
      "SELECT DISTINCT dept FROM salaries s WHERE 100 >= MAJORITY "
      "(SELECT amount FROM salaries t WHERE t.dept = s.dept) ORDER BY dept");
  ASSERT_EQ(rows.size(), 2u);  // eng: 100>=100,90 (2/3) ; hr: both
}

// ---------------------------------------------------------------------------
// Outer-join extension rule (§4/§5 worked example)
// ---------------------------------------------------------------------------

TEST_F(ExtensionTest, OuterJoinSimplifiedByNullRejectingPredicate) {
  ASSERT_TRUE(Exec("CREATE TABLE l (a INT)"));
  ASSERT_TRUE(Exec("CREATE TABLE r (a INT, v INT)"));
  ASSERT_TRUE(Exec("INSERT INTO l VALUES (1), (2), (3)"));
  ASSERT_TRUE(Exec("INSERT INTO r VALUES (1, 10), (2, 20)"));

  // v > 0 rejects the null-padded rows: the rewrite demotes PF to F and
  // merges — EXPLAIN QGM shows a single select box without PF.
  Result<ResultSet> explain = db_.Execute(
      "EXPLAIN QGM SELECT l.a, r.v FROM l LEFT OUTER JOIN r ON l.a = r.a "
      "WHERE r.v > 0");
  ASSERT_TRUE(explain.ok());
  std::string qgm = explain->rows()[0][0].string_value();
  EXPECT_EQ(qgm.find("PF over"), std::string::npos) << qgm;

  // Answers equal the inner join.
  std::vector<Row> outer_q = MustQuery(
      "SELECT l.a, r.v FROM l LEFT OUTER JOIN r ON l.a = r.a "
      "WHERE r.v > 0 ORDER BY a");
  std::vector<Row> inner_q = MustQuery(
      "SELECT l.a, r.v FROM l, r WHERE l.a = r.a AND r.v > 0 ORDER BY a");
  EXPECT_EQ(outer_q, inner_q);
  EXPECT_EQ(outer_q.size(), 2u);

  // Without a null-rejecting predicate the PF stays.
  Result<ResultSet> keep = db_.Execute(
      "EXPLAIN QGM SELECT l.a, r.v FROM l LEFT OUTER JOIN r ON l.a = r.a");
  ASSERT_TRUE(keep.ok());
  EXPECT_NE(keep->rows()[0][0].string_value().find("PF over"),
            std::string::npos);
}

TEST_F(ExtensionTest, PredicatePushdownThroughPreservedSide) {
  ASSERT_TRUE(Exec("CREATE TABLE l (a INT, tag STRING)"));
  ASSERT_TRUE(Exec("CREATE TABLE r (a INT, v INT)"));
  ASSERT_TRUE(Exec("INSERT INTO l VALUES (1, 'keep'), (2, 'drop'), (3, 'keep')"));
  ASSERT_TRUE(Exec("INSERT INTO r VALUES (1, 10)"));

  // §5: the outer join "can receive [predicates] if they refer only to
  // columns of the PF setformer, in which case they are pushed through".
  std::vector<Row> rows = MustQuery(
      "SELECT l.a, r.v FROM l LEFT OUTER JOIN r ON l.a = r.a "
      "WHERE l.tag = 'keep' ORDER BY a");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Value::Int(10));
  EXPECT_TRUE(rows[1][1].is_null());  // 3 preserved with NULL v
}

TEST_F(ExtensionTest, PointPayloadRoundTrip) {
  std::string payload = ext::EncodePoint(1.25, -3.5);
  Result<std::pair<double, double>> decoded = ext::DecodePoint(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->first, 1.25);
  EXPECT_EQ(decoded->second, -3.5);
  EXPECT_FALSE(ext::DecodePoint("short").ok());

  // Total order through the registered comparator: x-major, then y.
  Value a = ext::MakePointValue(1, 5);
  Value b = ext::MakePointValue(2, 0);
  Value c = ext::MakePointValue(1, 7);
  EXPECT_LT(a.CompareTotal(b), 0);
  EXPECT_LT(a.CompareTotal(c), 0);
  EXPECT_EQ(a.CompareTotal(ext::MakePointValue(1, 5)), 0);
}

TEST_F(ExtensionTest, SpatialNullPropagation) {
  std::vector<Row> rows = MustQuery("SELECT DISTANCE(NULL, POINT(1, 1)), "
                                    "PX(NULL), CONTAINS(NULL, 0, 0, 1, 1)");
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_TRUE(rows[0][2].is_null());
}

TEST_F(ExtensionTest, DroppingRTreeIndexFallsBackToScan) {
  ASSERT_TRUE(Exec("CREATE TABLE pts (id INT, loc POINT)"));
  ASSERT_TRUE(Exec("INSERT INTO pts VALUES (1, POINT(1,1)), (2, POINT(5,5))"));
  ASSERT_TRUE(Exec("CREATE INDEX pts_loc ON pts (loc) USING RTREE"));
  ASSERT_TRUE(Exec("DROP INDEX pts_loc"));
  std::vector<Row> rows =
      MustQuery("SELECT id FROM pts WHERE CONTAINS(loc, 0, 0, 2, 2)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
}

TEST_F(ExtensionTest, SampleZeroAndOversized) {
  ASSERT_TRUE(Exec("CREATE TABLE nums (n INT)"));
  ASSERT_TRUE(Exec("INSERT INTO nums VALUES (1), (2), (3)"));
  EXPECT_EQ(MustQuery("SELECT n FROM SAMPLE(nums, 0) s").size(), 0u);
  EXPECT_EQ(MustQuery("SELECT n FROM SAMPLE(nums, 100) s").size(), 3u);
}

TEST_F(ExtensionTest, RegistrationIsIdempotentish) {
  // Registering the same extensions in a second database must work (the
  // global type registry tolerates the POINT re-registration).
  Database other;
  EXPECT_TRUE(ext::RegisterAllExtensions(&other).ok());
}

}  // namespace
}  // namespace starburst
