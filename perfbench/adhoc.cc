// `adhoc`: eight small tables and two views, and a generated stream of
// compile-heavy statements — 4-8-way chain and star joins, IN and EXISTS
// over the views, a correlated scalar subquery and UNION. Literals come
// from a wide range and no text repeats, so every statement compiles.
//
// Answers are known by construction: every table holds ids 0..R-1 and
// its link columns a, b, c hold ids, so each join step is a lookup and
// an answer is found by following links from the first table's rows.
#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "common.h"

namespace perfbench {
namespace {

constexpr int kTables = 8;
constexpr int64_t kMaxW = 1000000;
constexpr int64_t kMaxV = 1000;
constexpr int64_t kGroups = 10;
const char* kLinks[] = {"a", "b", "c"};

struct TRow {
  int64_t id, grp, v, w;
  int64_t link[3];  // a, b, c
};
using Table = std::vector<TRow>;

/// A filter `alias.col op literal` on one join participant.
struct Filter {
  int pos;           // join participant
  bool on_w;         // w, else v
  bool less;         // <, else >
  int64_t literal;
  bool Holds(const TRow& r) const {
    int64_t x = on_w ? r.w : r.v;
    return less ? x < literal : x > literal;
  }
  std::string Sql() const {
    return "x" + std::to_string(pos) + (on_w ? ".w" : ".v") +
           (less ? " < " : " > ") + std::to_string(literal);
  }
};

class AdhocWorkload : public Workload {
 public:
  AdhocWorkload(uint64_t seed, double scale)
      : seed_(seed),
        rows_(std::max<int64_t>(20, static_cast<int64_t>(100 * scale))) {}

  starburst::Status Setup(Database* db, SetupInfo* info) override {
    Rng rng(seed_);
    tables_.assign(kTables, Table{});
    for (Table& t : tables_) {
      for (int64_t id = 0; id < rows_; ++id) {
        t.push_back({id, rng.Range(0, kGroups - 1), rng.Range(0, kMaxV - 1),
                     rng.Range(0, kMaxW - 1),
                     {rng.Range(0, rows_ - 1), rng.Range(0, rows_ - 1),
                      rng.Range(0, rows_ - 1)}});
      }
    }
    for (const char* knob :
         {"SET PARALLELISM = 1", "SET PARALLEL_MIN_ROWS = 1024",
          "SET BATCH_SIZE = 1024", "SET VECTORIZE = 1",
          "SET PLAN_CACHE_SIZE = 64", "SET SORT_MEMORY = 0",
          "SET AGG_MEMORY = 0", "SET QUERY_MEMORY = 0"}) {
      STARBURST_RETURN_IF_ERROR(Exec(db, knob));
    }
    info->tables.clear();
    double load_us = 0;
    for (int t = 0; t < kTables; ++t) {
      std::string name = "t" + std::to_string(t + 1);
      info->tables.push_back(name);
      STARBURST_RETURN_IF_ERROR(
          Exec(db, "CREATE TABLE " + name +
                       " (id INT, grp INT, v INT, w INT, a INT, b INT, c INT)"));
      std::string sql = "INSERT INTO " + name + " VALUES ";
      for (const TRow& r : tables_[static_cast<size_t>(t)]) {
        sql += (r.id > 0 ? ", (" : "(") + std::to_string(r.id) + ", " +
               std::to_string(r.grp) + ", " + std::to_string(r.v) + ", " +
               std::to_string(r.w) + ", " + std::to_string(r.link[0]) + ", " +
               std::to_string(r.link[1]) + ", " + std::to_string(r.link[2]) +
               ")";
      }
      double t0 = NowUs();
      STARBURST_RETURN_IF_ERROR(Exec(db, sql));
      load_us += NowUs() - t0;
      STARBURST_RETURN_IF_ERROR(Exec(db, "CREATE UNIQUE INDEX " + name +
                                             "_pk ON " + name + " (id)"));
    }
    info->load_s = load_us / 1e6;
    info->load_rows = static_cast<double>(kTables * rows_);
    // vj: a join view; vin: a view with an IN subquery.
    STARBURST_RETURN_IF_ERROR(
        Exec(db, "CREATE VIEW vj AS SELECT p.id AS id, p.v AS v, q.w AS w "
                 "FROM t1 p, t2 q WHERE p.a = q.id"));
    STARBURST_RETURN_IF_ERROR(
        Exec(db, "CREATE VIEW vin AS SELECT id, v FROM t3 WHERE a IN "
                 "(SELECT id FROM t4 WHERE v < 500)"));
    double t0 = NowUs();
    STARBURST_RETURN_IF_ERROR(Exec(db, "ANALYZE"));
    info->analyze_s = (NowUs() - t0) / 1e6;
    return starburst::Status::OK();
  }

  void BuildExpected() override { rng_ = Rng(seed_ ^ 0xAD0C); }

  Statement Next() override {
    while (true) {
      Statement s;
      switch (rng_.Range(0, 5)) {
        case 0: s = Chain(); break;
        case 1: s = Star(); break;
        case 2: s = InView(); break;
        case 3: s = ExistsView(); break;
        case 4: s = ScalarSubquery(); break;
        default: s = Union(); break;
      }
      if (seen_.insert(s.sql).second) return s;
    }
  }

  bool ReusesPlans() const override { return false; }
  // Set-up takes about 10 ms, so many repetitions steady the median.
  int SetupReps() const override { return 50; }

 private:
  const Table& T(int t) const { return tables_[static_cast<size_t>(t)]; }
  std::string Name(int t) const { return "t" + std::to_string(t + 1); }

  /// Distinct tables for `k` join participants, in a random order.
  std::vector<int> PickTables(int k) {
    std::vector<int> all(kTables);
    for (int i = 0; i < kTables; ++i) all[static_cast<size_t>(i)] = i;
    for (int i = kTables - 1; i > 0; --i) {
      std::swap(all[static_cast<size_t>(i)],
                all[static_cast<size_t>(rng_.Range(0, i))]);
    }
    all.resize(static_cast<size_t>(k));
    return all;
  }

  std::vector<Filter> PickFilters(int k) {
    std::vector<Filter> fs;
    int n = static_cast<int>(rng_.Range(1, 3));
    for (int i = 0; i < n; ++i) {
      bool on_w = rng_.Chance(0.5);
      int64_t hi = on_w ? kMaxW : kMaxV;
      // Keep most rows: filters only shape the plan, not the row count.
      bool less = rng_.Chance(0.5);
      int64_t lit = less ? rng_.Range(hi / 4, hi - 1) : rng_.Range(0, hi * 3 / 4);
      fs.push_back({static_cast<int>(rng_.Range(0, k - 1)), on_w, less, lit});
    }
    return fs;
  }

  static bool AllHold(const std::vector<Filter>& fs, int pos, const TRow& r) {
    for (const Filter& f : fs) {
      if (f.pos == pos && !f.Holds(r)) return false;
    }
    return true;
  }

  std::string From(const std::vector<int>& ts) const {
    std::string s;
    for (size_t i = 0; i < ts.size(); ++i) {
      s += (i > 0 ? ", " : "") + Name(ts[i]) + " x" + std::to_string(i);
    }
    return s;
  }

  static Statement Count(std::string sql, int64_t n, int64_t sum) {
    Statement s;
    s.sql = std::move(sql);
    s.expected = ExpectRows(
        {Row({Value::Int(n), n > 0 ? Value::Int(sum) : Value::Null()})}, true);
    return s;
  }

  // x0 -> x1 -> ... -> x(k-1), each step through one link column.
  Statement Chain() {
    int k = static_cast<int>(rng_.Range(4, 8));
    std::vector<int> ts = PickTables(k);
    std::vector<int> links;
    std::string where;
    for (int i = 0; i + 1 < k; ++i) {
      links.push_back(static_cast<int>(rng_.Range(0, 2)));
      where += (i > 0 ? " AND x" : "x") + std::to_string(i) + "." +
               kLinks[links.back()] + " = x" + std::to_string(i + 1) + ".id";
    }
    std::vector<Filter> fs = PickFilters(k);
    for (const Filter& f : fs) where += " AND " + f.Sql();
    int64_t n = 0, sum = 0;
    for (const TRow& r0 : T(ts[0])) {
      const TRow* r = &r0;
      bool ok = AllHold(fs, 0, *r);
      for (int i = 1; ok && i < k; ++i) {
        r = &T(ts[static_cast<size_t>(i)])[static_cast<size_t>(
            r->link[links[static_cast<size_t>(i - 1)]])];
        ok = AllHold(fs, i, *r);
      }
      if (ok) {
        ++n;
        sum += r->v;
      }
    }
    return Count("SELECT COUNT(*) AS n, SUM(x" + std::to_string(k - 1) +
                     ".v) AS s FROM " + From(ts) + " WHERE " + where,
                 n, sum);
  }

  // Hub x0 joined to spokes x1..x(k-1), spoke i through link (i-1) % 3.
  Statement Star() {
    int k = static_cast<int>(rng_.Range(4, 8));
    std::vector<int> ts = PickTables(k);
    std::string where;
    for (int i = 1; i < k; ++i) {
      where += (i > 1 ? " AND x0." : "x0.") + std::string(kLinks[(i - 1) % 3]) +
               " = x" + std::to_string(i) + ".id";
    }
    std::vector<Filter> fs = PickFilters(k);
    for (const Filter& f : fs) where += " AND " + f.Sql();
    int64_t n = 0, sum = 0;
    for (const TRow& hub : T(ts[0])) {
      bool ok = AllHold(fs, 0, hub);
      for (int i = 1; ok && i < k; ++i) {
        const TRow& spoke = T(ts[static_cast<size_t>(i)])[static_cast<size_t>(
            hub.link[(i - 1) % 3])];
        ok = AllHold(fs, i, spoke);
      }
      if (ok) {
        ++n;
        sum += hub.v;
      }
    }
    return Count("SELECT COUNT(*) AS n, SUM(x0.v) AS s FROM " + From(ts) +
                     " WHERE " + where,
                 n, sum);
  }

  // x.b IN (join view).
  Statement InView() {
    int t = static_cast<int>(rng_.Range(2, kTables - 1));
    int64_t lw = rng_.Range(kMaxW / 4, kMaxW - 1);
    int64_t lv = rng_.Range(kMaxV / 4, kMaxV - 1);
    std::set<int64_t> ids;  // vj: t1 p JOIN t2 q ON p.a = q.id
    for (const TRow& p : T(0)) {
      if (T(1)[static_cast<size_t>(p.link[0])].w < lw) ids.insert(p.id);
    }
    int64_t n = 0, sum = 0;
    for (const TRow& x : T(t)) {
      if (x.v < lv && ids.count(x.link[1])) {
        ++n;
        sum += x.w;
      }
    }
    return Count("SELECT COUNT(*) AS n, SUM(x0.w) AS s FROM " + Name(t) +
                     " x0 WHERE x0.v < " + std::to_string(lv) +
                     " AND x0.b IN (SELECT id FROM vj WHERE w < " +
                     std::to_string(lw) + ")",
                 n, sum);
  }

  // EXISTS over the IN-subquery view.
  Statement ExistsView() {
    int t = static_cast<int>(rng_.Range(4, kTables - 1));
    int64_t lv = rng_.Range(0, kMaxV * 3 / 4);
    int64_t lw = rng_.Range(kMaxW / 4, kMaxW - 1);
    std::set<int64_t> ids;  // vin rows with v > lv
    for (const TRow& r : T(2)) {
      if (T(3)[static_cast<size_t>(r.link[0])].v < 500 && r.v > lv) {
        ids.insert(r.id);
      }
    }
    int64_t n = 0, sum = 0;
    for (const TRow& x : T(t)) {
      if (x.w < lw && ids.count(x.link[2])) {
        ++n;
        sum += x.v;
      }
    }
    return Count("SELECT COUNT(*) AS n, SUM(x0.v) AS s FROM " + Name(t) +
                     " x0 WHERE x0.w < " + std::to_string(lw) +
                     " AND EXISTS (SELECT 1 FROM vin WHERE vin.id = x0.c AND "
                     "vin.v > " +
                     std::to_string(lv) + ")",
                 n, sum);
  }

  // Correlated scalar subquery: rows above their group's average.
  Statement ScalarSubquery() {
    std::vector<int> ts = PickTables(2);
    int64_t lw = rng_.Range(kMaxW / 4, kMaxW - 1);
    std::map<int64_t, std::pair<int64_t, int64_t>> agg;  // grp -> sum, count
    for (const TRow& y : T(ts[1])) {
      agg[y.grp].first += y.v;
      agg[y.grp].second += 1;
    }
    int64_t n = 0, sum = 0;
    for (const TRow& x : T(ts[0])) {
      auto it = agg.find(x.grp);
      if (x.w >= lw || it == agg.end()) continue;
      double avg = static_cast<double>(it->second.first) /
                   static_cast<double>(it->second.second);
      if (static_cast<double>(x.v) > avg) {
        ++n;
        sum += x.v;
      }
    }
    return Count("SELECT COUNT(*) AS n, SUM(x0.v) AS s FROM " + Name(ts[0]) +
                     " x0 WHERE x0.w < " + std::to_string(lw) +
                     " AND x0.v > (SELECT AVG(x1.v) FROM " + Name(ts[1]) +
                     " x1 WHERE x1.grp = x0.grp)",
                 n, sum);
  }

  // UNION of two filtered id sets.
  Statement Union() {
    std::vector<int> ts = PickTables(2);
    int64_t lw = rng_.Range(0, kMaxW - 1);
    int64_t lv = rng_.Range(0, kMaxV - 1);
    std::set<int64_t> ids;
    for (const TRow& r : T(ts[0])) {
      if (r.w < lw) ids.insert(r.id);
    }
    for (const TRow& r : T(ts[1])) {
      if (r.v > lv) ids.insert(r.id);
    }
    std::vector<Row> rows;
    for (int64_t id : ids) rows.push_back(Row({Value::Int(id)}));
    Statement s;
    s.sql = "SELECT id FROM " + Name(ts[0]) + " WHERE w < " +
            std::to_string(lw) + " UNION SELECT id FROM " + Name(ts[1]) +
            " WHERE v > " + std::to_string(lv);
    s.expected = ExpectRows(std::move(rows), false);
    return s;
  }

  uint64_t seed_;
  int64_t rows_;
  std::vector<Table> tables_;
  Rng rng_{0};
  std::unordered_set<std::string> seen_;
};

}  // namespace

std::unique_ptr<Workload> MakeAdhoc(uint64_t seed, double scale) {
  return std::make_unique<AdhocWorkload>(seed, scale);
}

}  // namespace perfbench
