// `analytic` and `spill`: TPC-H-shaped tables (nation, customer, orders,
// lineitem, part) whose lineitem outgrows the default 4096-page buffer
// pool, and a fixed decision-support mix. Every answer is recomputed here
// in plain C++ over the generated rows. Money is integer cents and
// discounts integer percents, so sums compare exactly.
#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <unordered_map>

#include "common.h"

namespace perfbench {
namespace {

struct Nation {
  int64_t key, region;
  std::string name;
};
struct Customer {
  int64_t key, nation, acctbal;
  std::string segment;
};
struct Order {
  int64_t key, cust, date, shippriority;
  std::string priority;
};
struct Part {
  int64_t key, size, price;
  std::string brand, container;
};
struct Lineitem {
  int64_t order, part, supp, line, qty, price, disc, tax, ship, commit, receipt;
  std::string flag, status, mode, comment;
};

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                           "MACHINERY"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kModes[] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                        "TRUCK"};
const char* kContainerSize[] = {"SM", "MED", "LG", "JUMBO", "WRAP"};
const char* kContainerKind[] = {"CASE", "BOX", "BAG", "JAR",
                                "PKG",  "PACK", "CAN", "DRUM"};

constexpr int64_t kLastOrderDate = 2405;  // days since 1992-01-01
constexpr int64_t kPairs = 25 * 40;         // (brand, container) pairs

std::string Brand(int64_t pair) {
  return "Brand#" + std::to_string(pair / 40 / 5 + 1) +
         std::to_string(pair / 40 % 5 + 1);
}
std::string Container(int64_t pair) {
  return std::string(kContainerSize[pair % 40 / 8]) + " " +
         kContainerKind[pair % 8];
}

std::string Comment(Rng* rng) {
  std::string s(static_cast<size_t>(rng->Range(10, 40)), ' ');
  for (char& c : s) c = static_cast<char>('a' + rng->Range(0, 25));
  return s;
}

/// The generated database. Sizes at scale 1: 3000 customers, 30000
/// orders, 119997 lineitems (1-7 per order), 4000 parts.
struct TpchData {
  std::vector<Nation> nations;
  std::vector<Customer> customers;
  std::vector<Order> orders;
  std::vector<Part> parts;
  std::vector<Lineitem> lineitems;

  void Generate(uint64_t seed, double scale) {
    Rng rng(seed);
    auto n = [scale](int64_t full) {
      return std::max<int64_t>(10, static_cast<int64_t>(full * scale));
    };
    *this = TpchData{};
    for (int64_t i = 0; i < 25; ++i) {
      nations.push_back({i, i % 5, "NATION" + std::to_string(100 + i)});
    }
    for (int64_t i = 1; i <= n(3000); ++i) {
      customers.push_back({i, rng.Range(0, 24), rng.Range(-99999, 999999),
                           kSegments[rng.Range(0, 4)]});
    }
    // Parts cycle through the 25 x 40 (brand, container) pairs, so every
    // pair names the same number of parts and Q17 costs the same on every
    // seed.
    int64_t offset = rng.Range(0, kPairs - 1);
    for (int64_t i = 1; i <= n(4000); ++i) {
      parts.push_back({i, rng.Range(1, 50), rng.Range(900, 2000),
                       Brand((i + offset) % kPairs),
                       Container((i + offset) % kPairs)});
    }
    const int64_t num_customers = static_cast<int64_t>(customers.size());
    const int64_t num_parts = static_cast<int64_t>(parts.size());
    for (int64_t i = 1; i <= n(30000); ++i) {
      Order o{i, rng.Range(1, num_customers), rng.Range(0, kLastOrderDate),
              rng.Range(0, 1), kPriorities[rng.Range(0, 4)]};
      // 1-7 lines in a fixed cycle: every seed yields the same table
      // sizes, so the optimizer's estimates and plans do not vary.
      int64_t lines = 1 + i % 7;
      for (int64_t l = 1; l <= lines; ++l) {
        Lineitem li;
        li.order = i;
        li.part = rng.Range(1, num_parts);
        li.supp = rng.Range(1, 100);
        li.line = l;
        li.qty = rng.Range(1, 50);
        li.price = li.qty * parts[static_cast<size_t>(li.part - 1)].price;
        li.disc = rng.Range(0, 10);
        li.tax = rng.Range(0, 8);
        li.ship = o.date + rng.Range(1, 121);
        li.commit = o.date + rng.Range(30, 90);
        li.receipt = li.ship + rng.Range(1, 30);
        li.flag = li.receipt <= 1200 ? (rng.Chance(0.5) ? "R" : "A") : "N";
        li.status = li.ship > 1500 ? "O" : "F";
        li.mode = kModes[rng.Range(0, 6)];
        li.comment = Comment(&rng);
        lineitems.push_back(std::move(li));
      }
      orders.push_back(std::move(o));
    }
  }
};

/// Appends `rows` to `table` through multi-row INSERT statements.
template <typename T, typename Fn>
starburst::Status Load(Database* db, const std::string& table,
                       const std::vector<T>& rows, Fn render) {
  constexpr size_t kRowsPerInsert = 1000;
  for (size_t i = 0; i < rows.size(); i += kRowsPerInsert) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t j = i; j < std::min(rows.size(), i + kRowsPerInsert); ++j) {
      if (j > i) sql += ", ";
      sql += "(" + render(rows[j]) + ")";
    }
    STARBURST_RETURN_IF_ERROR(Exec(db, sql));
  }
  return starburst::Status::OK();
}

std::string I(int64_t v) { return std::to_string(v); }

/// The fixed query mix. Literals are drawn from the seed once, so each
/// text repeats every cycle and the plan cache stays warm. The seed picks
/// only literals that leave the optimizer's estimates unchanged (segment,
/// region, part pair, order range); the Q3 and Q5 dates are fixed because
/// their plans flip between hash-join build sides on nearby dates.
struct Params {
  int64_t q1_date, q5_region, q4_first_order, q17_pair;
  std::string q3_segment;
  std::vector<int64_t> q6_dates;
  int64_t sort_date, group_date;
};
constexpr int64_t kQ3Date = 1150;
constexpr int64_t kQ5Date = 1825;
// Q4's EXISTS runs once per outer row, so its outer range is kept small.
constexpr int64_t kQ4Orders = 3;

class AnalyticWorkload : public Workload {
 public:
  AnalyticWorkload(uint64_t seed, double scale, bool spill)
      : seed_(seed), scale_(scale), spill_(spill) {
    Rng rng(seed ^ 0xA11A);
    p_.q1_date = rng.Range(2300, 2400);
    p_.q3_segment = kSegments[rng.Range(0, 4)];
    p_.q5_region = rng.Range(0, 4);
    p_.q4_first_order = rng.Range(
        1, std::max<int64_t>(1, static_cast<int64_t>(30000 * scale) - kQ4Orders));
    p_.q17_pair = rng.Range(0, kPairs - 1);
    for (int i = 0; i < 8; ++i) p_.q6_dates.push_back(rng.Range(1, 5) * 365);
    p_.sort_date = rng.Range(1190, 1210);
    p_.group_date = rng.Range(1790, 1810);
  }

  starburst::Status Setup(Database* db, SetupInfo* info) override {
    data_.Generate(seed_, scale_);
    // Every knob the workload depends on is pinned; nothing is left to
    // the hardware_concurrency() default.
    for (const char* knob :
         {"SET PARALLELISM = 2", "SET PARALLEL_MIN_ROWS = 1024",
          "SET BATCH_SIZE = 1024", "SET VECTORIZE = 1",
          "SET PLAN_CACHE_SIZE = 64", "SET QUERY_MEMORY = 0"}) {
      STARBURST_RETURN_IF_ERROR(Exec(db, knob));
    }
    // `spill` forces external sort runs and grace partitions on the
    // large ORDER BY / GROUP BY; `analytic` keeps them in memory.
    STARBURST_RETURN_IF_ERROR(
        Exec(db, spill_ ? "SET SORT_MEMORY = 1 MB" : "SET SORT_MEMORY = 0"));
    STARBURST_RETURN_IF_ERROR(
        Exec(db, spill_ ? "SET AGG_MEMORY = 512 KB" : "SET AGG_MEMORY = 0"));
    for (const char* ddl :
         {"CREATE TABLE nation (n_nationkey INT, n_name STRING, "
          "n_regionkey INT)",
          "CREATE TABLE customer (c_custkey INT, c_nationkey INT, "
          "c_acctbal INT, c_mktsegment STRING)",
          "CREATE TABLE orders (o_orderkey INT, o_custkey INT, "
          "o_orderdate INT, o_orderpriority STRING, o_shippriority INT)",
          "CREATE TABLE part (p_partkey INT, p_brand STRING, "
          "p_container STRING, p_size INT, p_retailprice INT)",
          "CREATE TABLE lineitem (l_orderkey INT, l_partkey INT, "
          "l_suppkey INT, l_linenumber INT, l_quantity INT, "
          "l_extendedprice INT, l_discount INT, l_tax INT, "
          "l_returnflag STRING, l_linestatus STRING, l_shipdate INT, "
          "l_commitdate INT, l_receiptdate INT, l_shipmode STRING, "
          "l_comment STRING)"}) {
      STARBURST_RETURN_IF_ERROR(Exec(db, ddl));
    }
    double t0 = NowUs();
    STARBURST_RETURN_IF_ERROR(Load(db, "nation", data_.nations, [](auto& r) {
      return I(r.key) + ", " + SqlString(r.name) + ", " + I(r.region);
    }));
    STARBURST_RETURN_IF_ERROR(Load(db, "customer", data_.customers, [](auto& r) {
      return I(r.key) + ", " + I(r.nation) + ", " + I(r.acctbal) + ", " +
             SqlString(r.segment);
    }));
    STARBURST_RETURN_IF_ERROR(Load(db, "orders", data_.orders, [](auto& r) {
      return I(r.key) + ", " + I(r.cust) + ", " + I(r.date) + ", " +
             SqlString(r.priority) + ", " + I(r.shippriority);
    }));
    STARBURST_RETURN_IF_ERROR(Load(db, "part", data_.parts, [](auto& r) {
      return I(r.key) + ", " + SqlString(r.brand) + ", " +
             SqlString(r.container) + ", " + I(r.size) + ", " + I(r.price);
    }));
    STARBURST_RETURN_IF_ERROR(Load(db, "lineitem", data_.lineitems, [](auto& r) {
      return I(r.order) + ", " + I(r.part) + ", " + I(r.supp) + ", " +
             I(r.line) + ", " + I(r.qty) + ", " + I(r.price) + ", " +
             I(r.disc) + ", " + I(r.tax) + ", " + SqlString(r.flag) + ", " +
             SqlString(r.status) + ", " + I(r.ship) + ", " + I(r.commit) +
             ", " + I(r.receipt) + ", " + SqlString(r.mode) + ", " +
             SqlString(r.comment);
    }));
    info->load_s = (NowUs() - t0) / 1e6;
    info->load_rows = static_cast<double>(
        data_.nations.size() + data_.customers.size() + data_.orders.size() +
        data_.parts.size() + data_.lineitems.size());
    info->tables = {"nation", "customer", "orders", "part", "lineitem"};
    for (const char* ddl :
         {"CREATE UNIQUE INDEX nation_pk ON nation (n_nationkey)",
          "CREATE UNIQUE INDEX customer_pk ON customer (c_custkey)",
          "CREATE UNIQUE INDEX orders_pk ON orders (o_orderkey)",
          "CREATE UNIQUE INDEX part_pk ON part (p_partkey)"}) {
      STARBURST_RETURN_IF_ERROR(Exec(db, ddl));
    }
    t0 = NowUs();
    STARBURST_RETURN_IF_ERROR(Exec(db, "ANALYZE"));
    info->analyze_s = (NowUs() - t0) / 1e6;
    return starburst::Status::OK();
  }

  void BuildExpected() override {
    // The cheap statements repeat so that each percentile falls in the
    // middle of one band of similar latencies, where samples are dense,
    // and not on the edge between two bands, where a few samples moving
    // across it shift the percentile by the whole gap. On analytic the
    // 20-statement cycle holds 8 Q6 (the fastest 40%), 4 Q3 (40-60%, so
    // the median falls in the middle of Q3), 6 others, and 2 Q17, the
    // slowest 10%, whose middle is the 95th percentile. On spill, the
    // sorts of all orders hold 30-60% and the large ORDER BY the slowest
    // 10%.
    if (spill_) {
      Statement q3 = Q3(), sort = OrdersSort(), group = OrdersGroupBy();
      mix_ = {LargeSort(), q3, sort, group, q3, sort, LargeGroupBy(), q3,
              sort, group};
    } else {
      Statement q3 = Q3(), q1 = Q1(), q17 = Q17();
      mix_ = {Q6(0), q3,   Q6(1), q1,   Q6(2), q17,   q3,
              Q6(3), Q5(), Q6(4), Q4(), q3,    Q6(5), LargeSort(),
              Q6(6), LargeGroupBy(),    q3,    Q6(7), q1, q17};
    }
  }

  std::vector<Statement> Warmup() override { return mix_; }

  Statement Next() override { return mix_[next_++ % mix_.size()]; }
  size_t CycleLength() const override { return mix_.size(); }
  bool ReusesPlans() const override { return true; }
  int SetupReps() const override { return 3; }

 private:
  static Statement Select(std::string sql, std::vector<Row> rows,
                          bool ordered) {
    Statement s;
    s.sql = std::move(sql);
    s.expected = ExpectRows(std::move(rows), ordered);
    return s;
  }

  // Q1: scan + aggregate over nearly all of lineitem.
  Statement Q1() const {
    const int64_t date = p_.q1_date;
    std::map<std::pair<std::string, std::string>, std::array<int64_t, 4>> g;
    for (const Lineitem& l : data_.lineitems) {
      if (l.ship > date) continue;
      auto& a = g[{l.flag, l.status}];
      a[0] += l.qty;
      a[1] += l.price;
      a[2] += l.price * (100 - l.disc);
      a[3] += 1;
    }
    std::vector<Row> rows;
    for (const auto& [k, a] : g) {
      rows.push_back(Row({Value::String(k.first), Value::String(k.second),
                          Value::Int(a[0]), Value::Int(a[1]), Value::Int(a[2]),
                          Value::Int(a[3])}));
    }
    return Select(
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice) AS sum_base, "
        "SUM(l_extendedprice * (100 - l_discount)) AS sum_disc, "
        "COUNT(*) AS n FROM lineitem WHERE l_shipdate <= " + I(date) +
            " GROUP BY l_returnflag, l_linestatus "
            "ORDER BY l_returnflag, l_linestatus",
        std::move(rows), true);
  }

  // Q6: selective scan.
  Statement Q6(int variant) const {
    int64_t d = p_.q6_dates[static_cast<size_t>(variant)];
    int64_t sum = 0;
    bool any = false;
    for (const Lineitem& l : data_.lineitems) {
      if (l.ship >= d && l.ship < d + 365 && l.disc >= 5 && l.disc <= 7 &&
          l.qty < 24) {
        sum += l.price * l.disc;
        any = true;
      }
    }
    return Select(
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_shipdate >= " +
            I(d) + " AND l_shipdate < " + I(d + 365) +
            " AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24",
        {Row({any ? Value::Int(sum) : Value::Null()})}, true);
  }

  // Q3: 3-way join, aggregate, top-N.
  Statement Q3() const {
    std::set<int64_t> custs;
    for (const Customer& c : data_.customers) {
      if (c.segment == p_.q3_segment) custs.insert(c.key);
    }
    std::unordered_map<int64_t, const Order*> orders;
    for (const Order& o : data_.orders) {
      if (o.date < kQ3Date && custs.count(o.cust)) orders[o.key] = &o;
    }
    std::map<int64_t, int64_t> revenue;
    for (const Lineitem& l : data_.lineitems) {
      if (l.ship > kQ3Date && orders.count(l.order)) {
        revenue[l.order] += l.price * (100 - l.disc);
      }
    }
    std::vector<Row> rows;
    for (const auto& [key, rev] : revenue) {
      const Order* o = orders[key];
      rows.push_back(Row({Value::Int(key), Value::Int(rev), Value::Int(o->date),
                          Value::Int(o->shippriority)}));
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      int64_t ra = *a[1].AsInt(), rb = *b[1].AsInt();
      if (ra != rb) return ra > rb;
      int64_t da = *a[2].AsInt(), db = *b[2].AsInt();
      if (da != db) return da < db;
      return *a[0].AsInt() < *b[0].AsInt();
    });
    if (rows.size() > 10) rows.resize(10);
    return Select(
        "SELECT l_orderkey, SUM(l_extendedprice * (100 - l_discount)) AS "
        "revenue, o_orderdate, o_shippriority FROM customer, orders, lineitem "
        "WHERE c_mktsegment = " +
            SqlString(p_.q3_segment) +
            " AND c_custkey = o_custkey AND l_orderkey = o_orderkey AND "
            "o_orderdate < " +
            I(kQ3Date) + " AND l_shipdate > " + I(kQ3Date) +
            " GROUP BY l_orderkey, o_orderdate, o_shippriority "
            "ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10",
        std::move(rows), true);
  }

  // Q5: 4-way join plus GROUP BY.
  Statement Q5() const {
    std::unordered_map<int64_t, std::string> nation_of;
    for (const Nation& n : data_.nations) {
      if (n.region == p_.q5_region) nation_of[n.key] = n.name;
    }
    std::unordered_map<int64_t, std::string> cust_nation;
    for (const Customer& c : data_.customers) {
      auto it = nation_of.find(c.nation);
      if (it != nation_of.end()) cust_nation[c.key] = it->second;
    }
    std::unordered_map<int64_t, std::string> order_nation;
    for (const Order& o : data_.orders) {
      if (o.date < kQ5Date || o.date >= kQ5Date + 365) continue;
      auto it = cust_nation.find(o.cust);
      if (it != cust_nation.end()) order_nation[o.key] = it->second;
    }
    std::map<std::string, int64_t> revenue;
    for (const Lineitem& l : data_.lineitems) {
      auto it = order_nation.find(l.order);
      if (it != order_nation.end()) {
        revenue[it->second] += l.price * (100 - l.disc);
      }
    }
    std::vector<Row> rows;
    for (const auto& [name, rev] : revenue) {
      rows.push_back(Row({Value::String(name), Value::Int(rev)}));
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      int64_t ra = *a[1].AsInt(), rb = *b[1].AsInt();
      if (ra != rb) return ra > rb;
      return a[0].CompareTotal(b[0]) < 0;
    });
    return Select(
        "SELECT n_name, SUM(l_extendedprice * (100 - l_discount)) AS revenue "
        "FROM customer, orders, lineitem, nation WHERE c_custkey = o_custkey "
        "AND l_orderkey = o_orderkey AND c_nationkey = n_nationkey AND "
        "n_regionkey = " +
            I(p_.q5_region) + " AND o_orderdate >= " + I(kQ5Date) +
            " AND o_orderdate < " + I(kQ5Date + 365) +
            " GROUP BY n_name ORDER BY revenue DESC, n_name",
        std::move(rows), true);
  }

  // Q4: correlated EXISTS over a few orders.
  Statement Q4() const {
    int64_t lo = p_.q4_first_order, hi = lo + kQ4Orders - 1;
    std::set<int64_t> late;
    for (const Lineitem& l : data_.lineitems) {
      if (l.order >= lo && l.order <= hi && l.commit < l.receipt) {
        late.insert(l.order);
      }
    }
    std::map<std::string, int64_t> counts;
    for (const Order& o : data_.orders) {
      if (late.count(o.key)) counts[o.priority]++;
    }
    std::vector<Row> rows;
    for (const auto& [prio, n] : counts) {
      rows.push_back(Row({Value::String(prio), Value::Int(n)}));
    }
    return Select(
        "SELECT o_orderpriority, COUNT(*) AS order_count FROM orders WHERE "
        "o_orderkey BETWEEN " +
            I(lo) + " AND " + I(hi) +
            " AND EXISTS (SELECT * FROM lineitem WHERE l_orderkey = "
            "o_orderkey AND l_commitdate < l_receiptdate) "
            "GROUP BY o_orderpriority ORDER BY o_orderpriority",
        std::move(rows), true);
  }

  // Q17: correlated scalar subquery over lineitem.
  Statement Q17() const {
    std::string brand = Brand(p_.q17_pair);
    std::string container = Container(p_.q17_pair);
    std::set<int64_t> parts;
    for (const Part& p : data_.parts) {
      if (p.brand == brand && p.container == container) {
        parts.insert(p.key);
      }
    }
    std::map<int64_t, std::pair<int64_t, int64_t>> qty;  // sum, count
    for (const Lineitem& l : data_.lineitems) {
      if (parts.count(l.part)) {
        qty[l.part].first += l.qty;
        qty[l.part].second += 1;
      }
    }
    int64_t total = 0;
    bool any = false;
    for (const Lineitem& l : data_.lineitems) {
      if (!parts.count(l.part)) continue;
      const auto& [sum, count] = qty[l.part];
      double avg = static_cast<double>(sum) / static_cast<double>(count);
      if (static_cast<double>(l.qty) < 0.2 * avg) {
        total += l.price;
        any = true;
      }
    }
    return Select(
        "SELECT SUM(l_extendedprice) AS total FROM lineitem, part WHERE "
        "p_partkey = l_partkey AND p_brand = " +
            SqlString(brand) + " AND p_container = " +
            SqlString(container) +
            " AND l_quantity < (SELECT 0.2 * AVG(l2.l_quantity) FROM "
            "lineitem l2 WHERE l2.l_partkey = p_partkey)",
        {Row({any ? Value::Int(total) : Value::Null()})}, true);
  }

  // A large ORDER BY: about half of lineitem, fully ordered.
  Statement LargeSort() const {
    std::vector<const Lineitem*> sel;
    for (const Lineitem& l : data_.lineitems) {
      if (l.ship < p_.sort_date) sel.push_back(&l);
    }
    std::sort(sel.begin(), sel.end(), [](const Lineitem* a, const Lineitem* b) {
      if (a->price != b->price) return a->price > b->price;
      if (a->order != b->order) return a->order < b->order;
      return a->line < b->line;
    });
    std::vector<Row> rows;
    rows.reserve(sel.size());
    for (const Lineitem* l : sel) {
      rows.push_back(Row({Value::Int(l->order), Value::Int(l->line),
                          Value::Int(l->price)}));
    }
    return Select(
        "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
        "WHERE l_shipdate < " +
            I(p_.sort_date) +
            " ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber",
        std::move(rows), true);
  }

  // A large GROUP BY: one group per order shipping after group_date.
  Statement LargeGroupBy() const {
    std::map<int64_t, std::pair<int64_t, int64_t>> g;
    for (const Lineitem& l : data_.lineitems) {
      if (l.ship < p_.group_date) continue;
      g[l.order].first += 1;
      g[l.order].second += l.price;
    }
    std::vector<Row> rows;
    rows.reserve(g.size());
    for (const auto& [k, v] : g) {
      rows.push_back(
          Row({Value::Int(k), Value::Int(v.first), Value::Int(v.second)}));
    }
    return Select(
        "SELECT l_orderkey, COUNT(*) AS n, SUM(l_extendedprice) AS total "
        "FROM lineitem WHERE l_shipdate >= " +
            I(p_.group_date) + " GROUP BY l_orderkey",
        std::move(rows), false);
  }

  // A sort of all orders (spills under SORT_MEMORY).
  Statement OrdersSort() const {
    std::vector<const Order*> sel;
    for (const Order& o : data_.orders) sel.push_back(&o);
    std::sort(sel.begin(), sel.end(), [](const Order* a, const Order* b) {
      if (a->date != b->date) return a->date < b->date;
      return a->key < b->key;
    });
    std::vector<Row> rows;
    for (const Order* o : sel) {
      rows.push_back(
          Row({Value::Int(o->key), Value::Int(o->cust), Value::Int(o->date)}));
    }
    return Select(
        "SELECT o_orderkey, o_custkey, o_orderdate FROM orders "
        "ORDER BY o_orderdate, o_orderkey",
        std::move(rows), true);
  }

  // A GROUP BY with one group per (customer, priority).
  Statement OrdersGroupBy() const {
    std::map<std::pair<int64_t, std::string>, int64_t> g;
    for (const Order& o : data_.orders) g[{o.cust, o.priority}]++;
    std::vector<Row> rows;
    for (const auto& [k, n] : g) {
      rows.push_back(Row(
          {Value::Int(k.first), Value::String(k.second), Value::Int(n)}));
    }
    return Select(
        "SELECT o_custkey, o_orderpriority, COUNT(*) AS n FROM orders "
        "GROUP BY o_custkey, o_orderpriority",
        std::move(rows), false);
  }

  uint64_t seed_;
  double scale_;
  bool spill_;
  Params p_;
  TpchData data_;
  std::vector<Statement> mix_;
  size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalytic(uint64_t seed, double scale,
                                       bool spill) {
  return std::make_unique<AnalyticWorkload>(seed, scale, spill);
}

}  // namespace perfbench
