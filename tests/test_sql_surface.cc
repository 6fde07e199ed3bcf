// Broad SQL-surface coverage: each test exercises one distinct language
// behaviour end-to-end through the full pipeline, including the error
// paths a downstream user will hit first.

#include <gtest/gtest.h>

#include "engine/database.h"

namespace starburst {
namespace {

class SqlSurfaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Exec("CREATE TABLE emp (id INT PRIMARY KEY, name STRING, "
                     "dept STRING, salary DOUBLE, boss INT)"));
    ASSERT_TRUE(Exec(
        "INSERT INTO emp VALUES "
        "(1, 'ada', 'eng', 120, NULL), (2, 'bob', 'eng', 80, 1), "
        "(3, 'cyd', 'ops', 95, 1), (4, 'dee', 'ops', 70, 3), "
        "(5, 'eli', 'eng', 110, 1)"));
  }

  bool Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    if (!r.ok()) {
      last_error_ = r.status();
      return false;
    }
    last_ = r.TakeValue();
    return true;
  }

  std::vector<Row> Q(const std::string& sql) {
    Result<std::vector<Row>> r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r.TakeValue() : std::vector<Row>{};
  }

  Database db_;
  ResultSet last_;
  Status last_error_;
};

// --- expressions -----------------------------------------------------------

TEST_F(SqlSurfaceTest, ArithmeticAndPrecedence) {
  std::vector<Row> rows = Q("SELECT 2 + 3 * 4, (2 + 3) * 4, 7 / 2, 7.0 / 2, "
                            "7 % 3, -salary FROM emp WHERE id = 1");
  EXPECT_EQ(rows[0][0], Value::Int(14));
  EXPECT_EQ(rows[0][1], Value::Int(20));
  EXPECT_EQ(rows[0][2], Value::Int(3));     // integer division
  EXPECT_EQ(rows[0][3], Value::Double(3.5));
  EXPECT_EQ(rows[0][4], Value::Int(1));
  EXPECT_EQ(rows[0][5], Value::Double(-120));
}

TEST_F(SqlSurfaceTest, StringOperations) {
  std::vector<Row> rows =
      Q("SELECT name || '@corp', UPPER(name), LENGTH(name) FROM emp "
        "WHERE id = 2");
  EXPECT_EQ(rows[0][0], Value::String("bob@corp"));
  EXPECT_EQ(rows[0][1], Value::String("BOB"));
  EXPECT_EQ(rows[0][2], Value::Int(3));
}

TEST_F(SqlSurfaceTest, LikePatterns) {
  // ada, cyd, dee contain 'd'.
  EXPECT_EQ(Q("SELECT name FROM emp WHERE name LIKE '%d%'").size(), 3u);
  EXPECT_EQ(Q("SELECT name FROM emp WHERE name LIKE '_o_'").size(), 1u);
  // Everyone but ada.
  EXPECT_EQ(Q("SELECT name FROM emp WHERE name NOT LIKE '%a%'").size(), 4u);
}

TEST_F(SqlSurfaceTest, BetweenAndInList) {
  EXPECT_EQ(Q("SELECT id FROM emp WHERE salary BETWEEN 80 AND 110").size(), 3u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE salary NOT BETWEEN 80 AND 110").size(),
            2u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE dept IN ('eng', 'hr')").size(), 3u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE id NOT IN (1, 2, 3)").size(), 2u);
}

TEST_F(SqlSurfaceTest, NullSemantics) {
  // boss IS NULL vs = NULL (the latter is never true).
  EXPECT_EQ(Q("SELECT id FROM emp WHERE boss IS NULL").size(), 1u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE boss = NULL").size(), 0u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE boss IS NOT NULL").size(), 4u);
  // NULL propagates through arithmetic.
  std::vector<Row> rows = Q("SELECT boss + 1 FROM emp WHERE id = 1");
  EXPECT_TRUE(rows[0][0].is_null());
  // NOT IN with a NULL element is never satisfied... except by matches.
  EXPECT_EQ(Q("SELECT id FROM emp WHERE id NOT IN (1, NULL)").size(), 0u);
  EXPECT_EQ(Q("SELECT id FROM emp WHERE id IN (1, NULL)").size(), 1u);
}

TEST_F(SqlSurfaceTest, CaseWithoutElseYieldsNull) {
  std::vector<Row> rows =
      Q("SELECT CASE WHEN salary > 100 THEN 'high' END FROM emp "
        "WHERE id = 4");
  EXPECT_TRUE(rows[0][0].is_null());
}

TEST_F(SqlSurfaceTest, DivisionByZeroIsRuntimeError) {
  EXPECT_FALSE(Exec("SELECT salary / (id - 1) FROM emp"));
  EXPECT_EQ(last_error_.code(), StatusCode::kInvalidArgument);
}

// --- joins and correlation --------------------------------------------------

TEST_F(SqlSurfaceTest, SelfJoinWithAliases) {
  std::vector<Row> rows = Q(
      "SELECT e.name, b.name FROM emp e, emp b WHERE e.boss = b.id "
      "ORDER BY e.name");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0], Value::String("bob"));
  EXPECT_EQ(rows[0][1], Value::String("ada"));
}

TEST_F(SqlSurfaceTest, TwoLevelCorrelation) {
  // The innermost subquery references the *outermost* query's iterator —
  // parameters must pass through two subplan levels.
  std::vector<Row> rows = Q(
      "SELECT name FROM emp e WHERE EXISTS "
      "(SELECT 1 FROM emp m WHERE m.id = e.boss AND EXISTS "
      "  (SELECT 1 FROM emp x WHERE x.boss = m.id AND x.salary < e.salary)) "
      "ORDER BY name");
  // For each e with a boss m, is there a subordinate x of m cheaper than e?
  // bob(80): subs of ada: bob,eli,cyd; cheaper than 80? dee isn't under ada.
  // cyd(95): bob(80) under ada -> yes. eli(110): bob(80) -> yes.
  // dee(70): subs of cyd: dee(70) < 70? no.
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::String("cyd"));
  EXPECT_EQ(rows[1][0], Value::String("eli"));
}

TEST_F(SqlSurfaceTest, ClassicAboveDepartmentAverage) {
  std::vector<Row> rows = Q(
      "SELECT name FROM emp e WHERE salary > (SELECT AVG(salary) FROM emp d "
      "WHERE d.dept = e.dept) ORDER BY name");
  // eng avg = 103.3: ada(120), eli(110). ops avg = 82.5: cyd(95).
  ASSERT_EQ(rows.size(), 3u);
}

TEST_F(SqlSurfaceTest, EmployeesOverTheirManager) {
  // The paper's §2 example: "employees who make more than their manager
  // can be expressed either as a subquery or as a join" — both phrasings,
  // same answer.
  std::vector<Row> sub = Q(
      "SELECT name FROM emp e WHERE salary > (SELECT salary FROM emp b "
      "WHERE b.id = e.boss) ORDER BY name");
  std::vector<Row> join = Q(
      "SELECT e.name FROM emp e, emp b WHERE e.boss = b.id "
      "AND e.salary > b.salary ORDER BY e.name");
  EXPECT_EQ(sub, join);
  EXPECT_EQ(sub.size(), 0u);  // nobody out-earns ada here... check dee/cyd
  // Give dee a raise and re-check.
  ASSERT_TRUE(Exec("UPDATE emp SET salary = 200 WHERE name = 'dee'"));
  sub = Q("SELECT name FROM emp e WHERE salary > (SELECT salary FROM emp b "
          "WHERE b.id = e.boss)");
  ASSERT_EQ(sub.size(), 1u);
  EXPECT_EQ(sub[0][0], Value::String("dee"));
}

// --- aggregation ------------------------------------------------------------

TEST_F(SqlSurfaceTest, CountDistinct) {
  std::vector<Row> rows = Q("SELECT COUNT(DISTINCT dept), COUNT(dept), "
                            "COUNT(*), COUNT(boss) FROM emp");
  EXPECT_EQ(rows[0][0], Value::Int(2));
  EXPECT_EQ(rows[0][1], Value::Int(5));
  EXPECT_EQ(rows[0][2], Value::Int(5));
  EXPECT_EQ(rows[0][3], Value::Int(4));  // NULL boss not counted
}

TEST_F(SqlSurfaceTest, GroupByExpression) {
  // The grouping key is an expression, re-used verbatim in the select list.
  std::vector<Row> rows =
      Q("SELECT id % 2, COUNT(*) FROM emp GROUP BY id % 2 ORDER BY 1");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(0));
  EXPECT_EQ(rows[0][1], Value::Int(2));  // ids 2, 4
  EXPECT_EQ(rows[1][1], Value::Int(3));  // ids 1, 3, 5
}

TEST_F(SqlSurfaceTest, MinMaxOnStrings) {
  std::vector<Row> rows = Q("SELECT MIN(name), MAX(name) FROM emp");
  EXPECT_EQ(rows[0][0], Value::String("ada"));
  EXPECT_EQ(rows[0][1], Value::String("eli"));
}

TEST_F(SqlSurfaceTest, HavingWithoutGroupBy) {
  // Implicit single group filtered by HAVING.
  EXPECT_EQ(Q("SELECT COUNT(*) FROM emp HAVING COUNT(*) > 3").size(), 1u);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM emp HAVING COUNT(*) > 30").size(), 0u);
}

// --- table-producing forms ---------------------------------------------------

TEST_F(SqlSurfaceTest, NestedTableExpressions) {
  std::vector<Row> rows = Q(
      "WITH eng(id, s) AS (SELECT id, salary FROM emp WHERE dept = 'eng'), "
      "rich(id) AS (SELECT id FROM eng WHERE s > 100) "
      "SELECT COUNT(*) FROM rich");
  EXPECT_EQ(rows[0][0], Value::Int(2));
}

TEST_F(SqlSurfaceTest, UnionAllKeepsDuplicates) {
  EXPECT_EQ(Q("SELECT dept FROM emp UNION ALL SELECT dept FROM emp").size(),
            10u);
  EXPECT_EQ(Q("SELECT dept FROM emp UNION SELECT dept FROM emp").size(), 2u);
}

TEST_F(SqlSurfaceTest, SetOpsInFromPosition) {
  // Hydrogen orthogonality: a set operation wherever a table is allowed.
  std::vector<Row> rows = Q(
      "SELECT COUNT(*) FROM (SELECT id FROM emp WHERE dept = 'eng' "
      "UNION SELECT id FROM emp WHERE salary > 90) u");
  EXPECT_EQ(rows[0][0], Value::Int(4));  // 1,2,5 ∪ 1,3,5
}

TEST_F(SqlSurfaceTest, ViewOnViewAndDrop) {
  ASSERT_TRUE(Exec("CREATE VIEW eng AS SELECT * FROM emp WHERE dept = 'eng'"));
  ASSERT_TRUE(Exec("CREATE VIEW rich_eng AS SELECT name FROM eng "
                   "WHERE salary > 100"));
  EXPECT_EQ(Q("SELECT name FROM rich_eng").size(), 2u);
  ASSERT_TRUE(Exec("DROP VIEW rich_eng"));
  EXPECT_FALSE(Exec("SELECT name FROM rich_eng"));
  // eng still exists.
  EXPECT_EQ(Q("SELECT COUNT(*) FROM eng").size(), 1u);
}

TEST_F(SqlSurfaceTest, InsertFromViewSelect) {
  ASSERT_TRUE(Exec("CREATE TABLE archive (id INT, name STRING)"));
  ASSERT_TRUE(Exec("CREATE VIEW ops AS SELECT id, name FROM emp "
                   "WHERE dept = 'ops'"));
  ASSERT_TRUE(Exec("INSERT INTO archive SELECT id, name FROM ops"));
  EXPECT_EQ(last_.affected_rows(), 2);
}

// --- DDL / DML edges ----------------------------------------------------------

TEST_F(SqlSurfaceTest, NotNullEnforcedOnUpdateToo) {
  ASSERT_TRUE(Exec("CREATE TABLE strict_t (a INT NOT NULL, b INT)"));
  ASSERT_TRUE(Exec("INSERT INTO strict_t VALUES (1, 2)"));
  EXPECT_FALSE(Exec("INSERT INTO strict_t VALUES (NULL, 3)"));
  EXPECT_FALSE(Exec("UPDATE strict_t SET a = NULL"));
  EXPECT_FALSE(Exec("INSERT INTO strict_t (b) VALUES (5)"));  // a omitted
}

TEST_F(SqlSurfaceTest, NumericCoercionOnInsert) {
  ASSERT_TRUE(Exec("CREATE TABLE c (d DOUBLE, i INT)"));
  ASSERT_TRUE(Exec("INSERT INTO c VALUES (3, 4.0)"));  // int->double, 4.0->int
  std::vector<Row> rows = Q("SELECT d, i FROM c");
  EXPECT_EQ(rows[0][0], Value::Double(3.0));
  EXPECT_EQ(rows[0][1], Value::Int(4));
  // Lossy double->int rejected.
  EXPECT_FALSE(Exec("INSERT INTO c VALUES (1.0, 4.5)"));
  // String into numeric rejected.
  EXPECT_FALSE(Exec("INSERT INTO c VALUES ('x', 1)"));
}

TEST_F(SqlSurfaceTest, DropTableDropsItsIndexes) {
  ASSERT_TRUE(Exec("CREATE TABLE tmp_t (a INT)"));
  ASSERT_TRUE(Exec("CREATE INDEX tmp_a ON tmp_t (a)"));
  ASSERT_TRUE(Exec("DROP TABLE tmp_t"));
  EXPECT_FALSE(Exec("DROP INDEX tmp_a"));  // already gone with the table
  // Name is reusable.
  ASSERT_TRUE(Exec("CREATE TABLE tmp_t (a INT)"));
  ASSERT_TRUE(Exec("CREATE INDEX tmp_a ON tmp_t (a)"));
}

TEST_F(SqlSurfaceTest, UpdateWithCorrelatedSubqueryPredicate) {
  ASSERT_TRUE(Exec(
      "UPDATE emp SET salary = salary + 1 WHERE EXISTS "
      "(SELECT 1 FROM emp b WHERE b.id = emp.boss AND b.dept = emp.dept)"));
  // bob and eli have a same-dept boss (ada/eng); dee has cyd/ops.
  EXPECT_EQ(last_.affected_rows(), 3);
}

TEST_F(SqlSurfaceTest, DeleteAllAndReuse) {
  ASSERT_TRUE(Exec("DELETE FROM emp"));
  EXPECT_EQ(last_.affected_rows(), 5);
  EXPECT_EQ(Q("SELECT COUNT(*) FROM emp")[0][0], Value::Int(0));
  ASSERT_TRUE(Exec("INSERT INTO emp VALUES (9, 'zed', 'eng', 50, NULL)"));
  EXPECT_EQ(Q("SELECT name FROM emp").size(), 1u);
}

// --- error reporting -----------------------------------------------------------

TEST_F(SqlSurfaceTest, ErrorsCarryUsefulCodes) {
  EXPECT_FALSE(Exec("SELECT nope FROM emp"));
  EXPECT_EQ(last_error_.code(), StatusCode::kSemanticError);
  EXPECT_FALSE(Exec("SELECT * FROM nope"));
  EXPECT_EQ(last_error_.code(), StatusCode::kSemanticError);
  EXPECT_FALSE(Exec("SELEC 1"));
  EXPECT_EQ(last_error_.code(), StatusCode::kSyntaxError);
  EXPECT_FALSE(Exec("SELECT name + 1 FROM emp"));
  EXPECT_EQ(last_error_.code(), StatusCode::kTypeError);
  EXPECT_FALSE(Exec("CREATE TABLE emp (x INT)"));
  EXPECT_EQ(last_error_.code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(Exec("INSERT INTO emp VALUES (1)"));
  EXPECT_EQ(last_error_.code(), StatusCode::kSemanticError);
  EXPECT_FALSE(Exec("SELECT id FROM emp WHERE salary = "
                    "(SELECT salary FROM emp)"));  // >1 row scalar
  EXPECT_EQ(last_error_.code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlSurfaceTest, SetUnitSuffixOverflowIsOutOfRange) {
  for (const char* value :
       {"9223372036854775807 GB", "-9223372036854775807 KB"}) {
    EXPECT_FALSE(Exec(std::string("SET SORT_MEMORY = ") + value)) << value;
    EXPECT_EQ(last_error_.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(last_error_.message(), "SORT_MEMORY value out of range");
  }
  // The largest multiple of a GB that fits in 64 bits still sets.
  ASSERT_TRUE(Exec("SET SORT_MEMORY = 8589934591 GB"));
  EXPECT_EQ(last_.message(), "SET SORT_MEMORY = 9223372035781033984");
  ASSERT_TRUE(Exec("SET SORT_MEMORY = DEFAULT"));
}

// --- update through views (§2) ---------------------------------------------

TEST_F(SqlSurfaceTest, UpdateThroughViewWhenUnambiguous) {
  ASSERT_TRUE(Exec("CREATE VIEW eng (who, pay) AS "
                   "SELECT name, salary FROM emp WHERE dept = 'eng'"));
  // UPDATE through the view: only eng rows visible; renamed columns work.
  ASSERT_TRUE(Exec("UPDATE eng SET pay = pay + 10 WHERE who <> 'ada'"));
  EXPECT_EQ(last_.affected_rows(), 2);  // bob, eli
  EXPECT_EQ(Q("SELECT salary FROM emp WHERE name = 'bob'")[0][0],
            Value::Double(90));
  EXPECT_EQ(Q("SELECT salary FROM emp WHERE name = 'dee'")[0][0],
            Value::Double(70));  // ops row untouched

  // DELETE through the view respects its predicate.
  ASSERT_TRUE(Exec("DELETE FROM eng WHERE pay < 100"));
  EXPECT_EQ(last_.affected_rows(), 1);  // bob at 90
  EXPECT_EQ(Q("SELECT COUNT(*) FROM emp")[0][0], Value::Int(4));

  // INSERT through eng fails: the unexposed primary key cannot be NULL.
  EXPECT_FALSE(Exec("INSERT INTO eng VALUES ('fox', 60)"));
  EXPECT_NE(last_error_.message().find("NOT NULL"), std::string::npos);

  // On a keyless base table, INSERT through a view fills unexposed
  // nullable columns with NULL.
  ASSERT_TRUE(Exec("CREATE TABLE notes (txt STRING, score INT, tag STRING)"));
  ASSERT_TRUE(Exec("CREATE VIEW short_notes AS SELECT txt, score FROM notes "
                   "WHERE score < 10"));
  ASSERT_TRUE(Exec("INSERT INTO short_notes VALUES ('hello', 60)"));
  std::vector<Row> rows = Q("SELECT score, tag FROM notes");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int(60));  // no CHECK OPTION: stored anyway
  EXPECT_TRUE(rows[0][1].is_null());
  // ...but it is not visible back through the view.
  EXPECT_EQ(Q("SELECT txt FROM short_notes").size(), 0u);
}

TEST_F(SqlSurfaceTest, AmbiguousViewUpdatesRejected) {
  ASSERT_TRUE(Exec("CREATE VIEW agg_v AS SELECT dept, COUNT(*) n FROM emp "
                   "GROUP BY dept"));
  EXPECT_FALSE(Exec("DELETE FROM agg_v"));
  EXPECT_NE(last_error_.message().find("not unambiguously updatable"),
            std::string::npos);

  ASSERT_TRUE(Exec("CREATE VIEW join_v AS SELECT e.name FROM emp e, emp b "
                   "WHERE e.boss = b.id"));
  EXPECT_FALSE(Exec("UPDATE join_v SET name = 'x'"));

  ASSERT_TRUE(Exec("CREATE VIEW expr_v AS SELECT salary * 2 FROM emp"));
  EXPECT_FALSE(Exec("INSERT INTO expr_v VALUES (100)"));

  ASSERT_TRUE(Exec("CREATE VIEW d_v AS SELECT DISTINCT dept FROM emp"));
  EXPECT_FALSE(Exec("DELETE FROM d_v"));
}

TEST_F(SqlSurfaceTest, UpdateRejectsAColumnAssignedTwice) {
  EXPECT_FALSE(Exec("UPDATE emp SET salary = 1, salary = 2 WHERE id = 2"));
  EXPECT_EQ(last_error_.code(), StatusCode::kSemanticError);
  EXPECT_NE(last_error_.message().find("'salary'"), std::string::npos)
      << last_error_.message();
  // Two view names that map to one base column collide the same way.
  ASSERT_TRUE(
      Exec("CREATE VIEW pay2 (a, b) AS SELECT salary, salary FROM emp"));
  EXPECT_FALSE(Exec("UPDATE pay2 SET a = 1, b = 2"));
  EXPECT_EQ(last_error_.code(), StatusCode::kSemanticError);
  EXPECT_NE(last_error_.message().find("'salary'"), std::string::npos)
      << last_error_.message();
  // Nothing was written, and distinct columns still update together.
  EXPECT_EQ(Q("SELECT salary FROM emp WHERE id = 2")[0][0], Value::Double(80));
  ASSERT_TRUE(Exec("UPDATE emp SET salary = 81, boss = 3 WHERE id = 2"));
  std::vector<Row> rows = Q("SELECT salary, boss FROM emp WHERE id = 2");
  EXPECT_EQ(rows[0][0], Value::Double(81));
  EXPECT_EQ(rows[0][1], Value::Int(3));
}

TEST_F(SqlSurfaceTest, InsertThroughViewChecksNotNull) {
  ASSERT_TRUE(Exec("CREATE TABLE strict2 (a INT NOT NULL, b INT)"));
  ASSERT_TRUE(Exec("CREATE VIEW only_b AS SELECT b FROM strict2"));
  // `a` is NOT NULL and not exposed: the insert must fail cleanly.
  EXPECT_FALSE(Exec("INSERT INTO only_b VALUES (7)"));
}

TEST_F(SqlSurfaceTest, ScriptExecution) {
  Result<ResultSet> r = db_.ExecuteScript(
      "CREATE TABLE s (a INT); INSERT INTO s VALUES (1), (2); "
      "SELECT COUNT(*) FROM s;");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows()[0][0], Value::Int(2));
}

}  // namespace
}  // namespace starburst
