// The traced run: the Figure 1 pipeline driven layer by layer through
// each layer's public entry point, with a span around every call. The
// spans live in the benchmark, not in the engine.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "engine/plan_cache.h"

namespace perfbench {

/// Spans and counts of one statement through the layered pipeline.
struct LayerSample {
  bool compiled = false;  // false: a reused plan, only execute ran
  double parse_us = 0, bind_us = 0, rewrite_us = 0, optimize_us = 0,
         refine_us = 0, execute_us = 0;
  uint64_t firings = 0, boxes_after_rewrite = 0;
  uint64_t pairs_considered = 0, plans_generated = 0, stars_evaluated = 0;
  uint64_t kernel_programs = 0, kernel_full = 0;
  uint64_t rows_emitted = 0, subquery_evals = 0, subquery_cache_hits = 0;
  uint64_t tasks_run = 0;
  uint64_t logical_reads = 0, cache_hits = 0, index_node_visits = 0;
  uint64_t spill_bytes = 0, spill_files = 0, peak_query_bytes = 0;
  double plan_cost = 0;
  std::vector<Row> rows;

  double CompileUs() const {
    return parse_us + bind_us + rewrite_us + optimize_us + refine_us;
  }
};

/// Compiles SELECTs the way Database::CompileSelect does, from the same
/// session options, and executes them the way ExecuteCompiled does.
/// When plans are reused, a compiled text is kept and re-executed, as the
/// engine's plan cache does.
class LayeredPipeline {
 public:
  LayeredPipeline(Database* db, bool reuse_plans)
      : db_(db), reuse_plans_(reuse_plans) {}

  starburst::Result<LayerSample> Run(const Statement& s);

 private:
  starburst::Result<starburst::PreparedStatementPtr> Compile(
      const std::string& sql, LayerSample* out);
  starburst::Status Execute(starburst::PreparedStatement& ps,
                            const std::vector<Value>& params,
                            LayerSample* out);

  Database* db_;
  bool reuse_plans_;
  std::map<std::string, starburst::PreparedStatementPtr> plans_;
};

/// Bare scans of `tables` through the storage manager's scan iterator,
/// with no operator on top: microseconds for one pass over all of them.
starburst::Result<double> ScanTables(Database* db,
                                     const std::vector<std::string>& tables);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
