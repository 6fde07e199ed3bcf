#ifndef STARBURST_EXEC_EXECUTOR_H_
#define STARBURST_EXEC_EXECUTOR_H_

#include "exec/plan_refiner.h"

namespace starburst::exec {

/// Session-level settings for the Query Evaluation System: how a chosen
/// plan is refined into an operator tree and how that tree runs. The
/// `SET` knobs write these; Database hands them to the PlanRefiner and
/// the ExecContext of every execution.
struct ExecOptions {
  SubqueryCacheMode cache_mode = SubqueryCacheMode::kMemo;
  double ship_delay_us = 0;
  bool semi_naive_recursion = true;
  /// Worker count for morsel-driven parallel execution (1 = serial).
  /// Defaults to the hardware concurrency; SET PARALLELISM overrides.
  size_t parallelism = DefaultParallelism();
  /// Minimum estimated scanned rows before a subtree is parallelized.
  double parallel_min_rows = 1024;
  /// Rows per NextBatch call (SET BATCH_SIZE; 1 pins exact
  /// row-at-a-time behavior for differential testing).
  size_t batch_size = RowBatch::kDefaultCapacity;
  /// Per-operator build budgets (bytes, 0 = unlimited): past them a
  /// sort cuts spilled runs and an aggregation/DISTINCT grace-
  /// partitions new keys to temp storage (SET SORT_MEMORY /
  /// SET AGG_MEMORY).
  uint64_t sort_memory_bytes = 0;
  uint64_t agg_memory_bytes = 0;
  /// Query-wide cap over every governed operator's sum
  /// (SET QUERY_MEMORY; 0 = unlimited).
  uint64_t query_memory_bytes = 0;
  /// Compile expression sites to column-at-a-time kernel programs
  /// (SET VECTORIZE; 0 pins the row-at-a-time interpreter, the
  /// differential-testing reference).
  bool vectorize = true;

  static size_t DefaultParallelism();
  bool operator==(const ExecOptions&) const = default;
};

}  // namespace starburst::exec

#endif  // STARBURST_EXEC_EXECUTOR_H_
