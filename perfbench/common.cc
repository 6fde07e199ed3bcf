#include "common.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

bool NearlyEqual(double a, double b) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

namespace {

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  auto da = a.AsDouble();
  auto db = b.AsDouble();
  if (da.ok() && db.ok()) return NearlyEqual(*da, *db);
  return a == b;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& x, const Row& y) {
    for (size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
      int c = x[i].CompareTotal(y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  });
}

std::string RowText(const Row& r) {
  std::string s = "(";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i > 0) s += ", ";
    s += r[i].ToString();
  }
  return s + ")";
}

}  // namespace

bool SameRows(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  SortRows(&a);
  SortRows(&b);
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameRow(a[i], b[i])) return false;
  }
  return true;
}

std::shared_ptr<const Expected> ExpectRows(std::vector<Row> rows,
                                           bool ordered) {
  auto e = std::make_shared<Expected>();
  e->rows = std::move(rows);
  e->ordered = ordered;
  if (!ordered) SortRows(&e->rows);
  return e;
}

std::shared_ptr<const Expected> ExpectAffected(int64_t n) {
  auto e = std::make_shared<Expected>();
  e->affected = n;
  return e;
}

std::string Mismatch(const Expected& want, const ResultSet& got) {
  if (want.affected >= 0) {
    if (got.affected_rows() == want.affected) return "";
    return "affected " + std::to_string(got.affected_rows()) + ", want " +
           std::to_string(want.affected);
  }
  if (got.rows().size() != want.rows.size()) {
    return std::to_string(got.rows().size()) + " rows, want " +
           std::to_string(want.rows.size());
  }
  std::vector<Row> sorted;
  if (!want.ordered) {
    sorted = got.rows();
    SortRows(&sorted);
  }
  const std::vector<Row>& rows = want.ordered ? got.rows() : sorted;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!SameRow(rows[i], want.rows[i])) {
      return "row " + std::to_string(i) + " is " + RowText(rows[i]) +
             ", want " + RowText(want.rows[i]);
    }
  }
  return "";
}

starburst::Result<ResultSet> RunOnEngine(Database* db, const Statement& s) {
  if (s.prepared != nullptr) return db->ExecutePrepared(s.prepared, s.params);
  return db->Execute(s.sql);
}

starburst::Status Exec(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  if (!r.ok()) {
    return starburst::Status::Internal(sql.substr(0, 80) + ": " +
                                       r.status().ToString());
  }
  return starburst::Status::OK();
}

std::string SqlString(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out + "'";
}

}  // namespace perfbench
