#ifndef STARBURST_ENGINE_SESSION_OPTIONS_H_
#define STARBURST_ENGINE_SESSION_OPTIONS_H_

#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "rewrite/rule_engine.h"

namespace starburst {

/// Everything a session sets that shapes what a statement compiles to.
/// The value itself is the plan-cache key (beside the normalized SQL):
/// the defaulted `==` compares every field of every nested options
/// struct, so a field added later keys the cache without being listed
/// anywhere.
struct SessionOptions {
  /// Default fast/slow classification thresholds (`SET SLOW_PLAN_COST`,
  /// `SET SLOW_PLAN_ROWS`): a SELECT whose chosen plan's cost or
  /// cardinality estimate reaches either is classified "slow" and, under
  /// STATEMENT_PRIORITY = DEFAULT, scheduled at low priority. The cost
  /// bar corresponds to a few hundred thousand rows flowing through the
  /// optimizer's cost model (point lookups land around 10^1-10^2); the
  /// rows bar catches wide result sets whose root estimate survives
  /// aggregation.
  static constexpr double kDefaultSlowPlanCost = 1e4;
  static constexpr double kDefaultSlowPlanRows = 1e5;

  bool rewrite_enabled = true;  // Figure 1: "could be bypassed"
  rewrite::RuleEngine::Options rewrite;
  optimizer::Optimizer::Options optimizer;
  exec::ExecOptions exec;
  /// Collect per-operator runtime stats for every query (EXPLAIN
  /// ANALYZE collects regardless). Costs two clock reads per operator
  /// invocation.
  bool collect_op_stats = false;
  /// SET STATEMENT_PRIORITY: −1 = DEFAULT (derive from the plan's
  /// fast/slow class), else a StatementPriority index. Stamped into
  /// compiled plans, like the two thresholds below.
  int statement_priority = -1;
  /// Fast/slow classification thresholds: a plan at or above either
  /// estimate is "slow".
  double slow_plan_cost = kDefaultSlowPlanCost;
  double slow_plan_rows = kDefaultSlowPlanRows;

  bool operator==(const SessionOptions&) const = default;
};

}  // namespace starburst

#endif  // STARBURST_ENGINE_SESSION_OPTIONS_H_
