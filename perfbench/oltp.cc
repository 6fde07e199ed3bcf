// `oltp`: one accounts table with B-tree indexes, sized to fit in the
// buffer pool, and a fixed sequence of short statements — prepared point
// SELECTs by id (the majority), prepared index-range aggregates, INSERT,
// UPDATE by id and DELETE by id. Each INSERT is followed by a DELETE of
// the oldest id, so the table keeps its size. A shadow copy of the table
// checks every read and every DML row count.
#include "common.h"

namespace perfbench {
namespace {

struct Account {
  int64_t branch = 0, balance = 0;
  std::string name;
};

constexpr int64_t kBranches = 100;
constexpr int64_t kRangeWidth = 100;

std::string Name(Rng* rng) {
  std::string s(12, ' ');
  for (char& c : s) c = static_cast<char>('a' + rng->Range(0, 25));
  return s;
}

class OltpWorkload : public Workload {
 public:
  OltpWorkload(uint64_t seed, double scale)
      : seed_(seed),
        rows_(std::max<int64_t>(2 * kRangeWidth,
                                static_cast<int64_t>(20000 * scale))) {}

  starburst::Status Setup(Database* db, SetupInfo* info) override {
    Rng rng(seed_);
    shadow_.assign(1, Account{});  // ids start at 1
    for (int64_t id = 1; id <= rows_; ++id) {
      shadow_.push_back({rng.Range(0, kBranches - 1), rng.Range(0, 100000),
                         Name(&rng)});
    }
    lo_ = 1;
    hi_ = rows_ + 1;
    for (const char* knob :
         {"SET PARALLELISM = 1", "SET PARALLEL_MIN_ROWS = 1024",
          "SET BATCH_SIZE = 1024", "SET VECTORIZE = 1",
          "SET PLAN_CACHE_SIZE = 64", "SET SORT_MEMORY = 0",
          "SET AGG_MEMORY = 0", "SET QUERY_MEMORY = 0",
          "CREATE TABLE accounts (id INT, branch INT, balance INT, "
          "name STRING)"}) {
      STARBURST_RETURN_IF_ERROR(Exec(db, knob));
    }
    double t0 = NowUs();
    for (int64_t id = 1; id <= rows_; id += 1000) {
      std::string sql = "INSERT INTO accounts VALUES ";
      for (int64_t j = id; j < std::min(rows_ + 1, id + 1000); ++j) {
        sql += (j > id ? ", " : "") + Values(j);
      }
      STARBURST_RETURN_IF_ERROR(Exec(db, sql));
    }
    info->load_s = (NowUs() - t0) / 1e6;
    info->load_rows = static_cast<double>(rows_);
    info->tables = {"accounts"};
    STARBURST_RETURN_IF_ERROR(
        Exec(db, "CREATE UNIQUE INDEX accounts_pk ON accounts (id)"));
    STARBURST_RETURN_IF_ERROR(
        Exec(db, "CREATE INDEX accounts_branch ON accounts (branch)"));
    t0 = NowUs();
    STARBURST_RETURN_IF_ERROR(Exec(db, "ANALYZE"));
    info->analyze_s = (NowUs() - t0) / 1e6;
    auto point = db->Prepare(
        "SELECT id, branch, balance, name FROM accounts WHERE id = ?");
    auto range = db->Prepare(
        "SELECT COUNT(*) AS n, SUM(balance) AS total FROM accounts "
        "WHERE id BETWEEN ? AND ?");
    if (!point.ok()) return point.status();
    if (!range.ok()) return range.status();
    point_ = *point;
    range_ = *range;
    return starburst::Status::OK();
  }

  void Release() override {
    point_.reset();
    range_.reset();
  }

  void BuildExpected() override { rng_ = Rng(seed_ ^ 0x0177); }

  Statement Next() override {
    if (pending_delete_) {
      pending_delete_ = false;
      int64_t id = lo_++;
      return Dml(Kind::kDelete,
                 "DELETE FROM accounts WHERE id = " + std::to_string(id));
    }
    int64_t r = rng_.Range(0, 99);
    if (r < 78) return PointSelect(rng_.Range(lo_, hi_ - 1));
    if (r < 88) return RangeSelect(rng_.Range(lo_, hi_ - kRangeWidth));
    if (r < 93) {
      int64_t id = rng_.Range(lo_, hi_ - 1);
      int64_t delta = rng_.Range(-500, 500);
      shadow_[static_cast<size_t>(id)].balance += delta;
      return Dml(Kind::kUpdate, "UPDATE accounts SET balance = balance + " +
                                    std::to_string(delta) +
                                    " WHERE id = " + std::to_string(id));
    }
    int64_t id = hi_++;
    shadow_.push_back(
        {rng_.Range(0, kBranches - 1), rng_.Range(0, 100000), Name(&rng_)});
    pending_delete_ = true;
    return Dml(Kind::kInsert,
               "INSERT INTO accounts VALUES " + Values(id));
  }

  /// One run of each prepared statement before any DML, so a traced
  /// run compiles its plans against the same statistics Prepare saw.
  std::vector<Statement> Warmup() override {
    return {PointSelect(lo_), RangeSelect(lo_)};
  }

  bool ReusesPlans() const override { return true; }
  int SetupReps() const override { return 5; }

 private:
  Statement PointSelect(int64_t id) const {
    const Account& a = shadow_[static_cast<size_t>(id)];
    Statement s = Select(point_, {Value::Int(id)});
    s.expected = ExpectRows({Row({Value::Int(id), Value::Int(a.branch),
                                  Value::Int(a.balance), Value::String(a.name)})},
                            true);
    return s;
  }

  Statement RangeSelect(int64_t first) const {
    int64_t last = first + kRangeWidth - 1;
    int64_t sum = 0;
    for (int64_t id = first; id <= last; ++id) {
      sum += shadow_[static_cast<size_t>(id)].balance;
    }
    Statement s = Select(range_, {Value::Int(first), Value::Int(last)});
    s.expected =
        ExpectRows({Row({Value::Int(kRangeWidth), Value::Int(sum)})}, true);
    return s;
  }

  std::string Values(int64_t id) const {
    const Account& a = shadow_[static_cast<size_t>(id)];
    return "(" + std::to_string(id) + ", " + std::to_string(a.branch) + ", " +
           std::to_string(a.balance) + ", " + SqlString(a.name) + ")";
  }

  static Statement Select(const Database::PreparedHandle& h,
                          std::vector<Value> params) {
    Statement s;
    s.sql = h->sql;
    s.prepared = h;
    s.params = std::move(params);
    return s;
  }
  static Statement Dml(Kind kind, std::string sql) {
    Statement s;
    s.kind = kind;
    s.sql = std::move(sql);
    s.expected = ExpectAffected(1);
    return s;
  }

  uint64_t seed_;
  int64_t rows_;
  std::vector<Account> shadow_;  // indexed by id
  int64_t lo_ = 1, hi_ = 1;      // live ids are [lo_, hi_)
  bool pending_delete_ = false;
  Rng rng_{0};
  Database::PreparedHandle point_, range_;
};

}  // namespace

std::unique_ptr<Workload> MakeOltp(uint64_t seed, double scale) {
  return std::make_unique<OltpWorkload>(seed, scale);
}

}  // namespace perfbench
