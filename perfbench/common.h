// Shared types of the repository benchmark: the statement stream a
// workload hands the closed-loop client, the engine-independent expected
// answers it is checked against, and small helpers (seeded RNG, timer,
// percentiles).
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"

namespace perfbench {

using starburst::Database;
using starburst::ResultSet;
using starburst::Row;
using starburst::Value;

/// splitmix64: the same seed gives the same stream on every platform
/// (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(double p) { return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p; }

 private:
  uint64_t state_;
};

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (`q` in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

enum class Kind { kSelect, kInsert, kUpdate, kDelete };

/// What a statement must return, derived from the generated data
/// without the engine. `affected >= 0` checks a DML row count; otherwise
/// `rows` is compared (in order when `ordered`, else as a multiset),
/// numbers with a relative tolerance of 1e-9. Build it with ExpectRows or
/// ExpectAffected.
struct Expected {
  int64_t affected = -1;
  std::vector<Row> rows;  // sorted once here when not `ordered`
  bool ordered = false;
};
std::shared_ptr<const Expected> ExpectRows(std::vector<Row> rows,
                                           bool ordered);
std::shared_ptr<const Expected> ExpectAffected(int64_t n);

struct Statement {
  Kind kind = Kind::kSelect;
  std::string sql;
  /// Set: run through ExecutePrepared with `params`; else Execute(sql).
  Database::PreparedHandle prepared;
  std::vector<Value> params;
  std::shared_ptr<const Expected> expected;
};

/// Empty when `got` matches `want`; else a one-line reason.
std::string Mismatch(const Expected& want, const ResultSet& got);
/// Multiset comparison with the same numeric tolerance.
bool SameRows(std::vector<Row> a, std::vector<Row> b);
bool NearlyEqual(double a, double b);

/// Set-up facts the per-layer report needs.
struct SetupInfo {
  double load_rows = 0;
  double load_s = 0;
  double analyze_s = 0;
  std::vector<std::string> tables;
};

/// One workload: pins its knobs and loads its data in Setup, then hands
/// out its fixed statement sequence one statement at a time. The same
/// seed gives the same data and the same sequence.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything `setup_s` times: generate, load, index, ANALYZE, SET the
  /// knobs and prepare statements. Called once per set-up repetition on
  /// a fresh Database.
  virtual starburst::Status Setup(Database* db, SetupInfo* info) = 0;
  /// Drops every handle into the database before it is destroyed.
  virtual void Release() {}
  /// Untimed: derive the expected answers from the generated rows.
  virtual void BuildExpected() {}
  /// Statements to run once before measuring (warms the plan cache).
  virtual std::vector<Statement> Warmup() { return {}; }
  virtual Statement Next() = 0;
  /// Length of the repeating statement sequence; a run measures whole
  /// cycles of it. 1 for a stream that does not repeat.
  virtual size_t CycleLength() const { return 1; }
  /// True when statement texts repeat, so a compiled plan is reused.
  virtual bool ReusesPlans() const = 0;
  /// Set-up repetitions per run (the median is `setup_s`).
  virtual int SetupReps() const = 0;
};

/// `scale` 1.0 is the measured size; the smoke mode shrinks it.
std::unique_ptr<Workload> MakeAnalytic(uint64_t seed, double scale, bool spill);
std::unique_ptr<Workload> MakeAdhoc(uint64_t seed, double scale);
std::unique_ptr<Workload> MakeOltp(uint64_t seed, double scale);

/// Runs one statement through the engine's public entry point.
starburst::Result<ResultSet> RunOnEngine(Database* db, const Statement& s);

/// Executes `sql` and fails on error (set-up statements).
starburst::Status Exec(Database* db, const std::string& sql);

/// Renders a value as a SQL literal.
std::string SqlString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
