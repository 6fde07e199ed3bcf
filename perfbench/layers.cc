#include "layers.h"

#include "exec/operators.h"
#include "exec/plan_refiner.h"
#include "parser/parser.h"
#include "qgm/binder.h"
#include "storage/spill_file.h"

namespace perfbench {

using starburst::PreparedStatement;
using starburst::PreparedStatementPtr;
using starburst::Result;
using starburst::Status;

namespace {

uint64_t TasksRun(Database* db) {
  db->RefreshMetricsMirrors();
  return db->metrics_registry().counter("scheduler_tasks_run_total")->value();
}

}  // namespace

Result<LayerSample> LayeredPipeline::Run(const Statement& s) {
  LayerSample out;
  PreparedStatementPtr ps;
  auto it = plans_.find(s.sql);
  if (it != plans_.end()) {
    ps = it->second;
  } else {
    STARBURST_ASSIGN_OR_RETURN(ps, Compile(s.sql, &out));
    out.compiled = true;
    if (reuse_plans_) plans_[s.sql] = ps;
  }
  out.plan_cost = ps->plan_cost;
  STARBURST_RETURN_IF_ERROR(Execute(*ps, s.params, &out));
  return out;
}

// Mirrors Database::CompileSelect (src/engine/database.cc): bind →
// rewrite → optimize → refine, with the refine options taken from the
// same session options the engine reads.
Result<PreparedStatementPtr> LayeredPipeline::Compile(const std::string& sql,
                                                      LayerSample* out) {
  Database::SessionOptions& o = db_->options();
  auto ps = std::make_shared<PreparedStatement>();
  ps->sql = sql;

  double t = NowUs();
  starburst::Parser parser(sql);
  STARBURST_ASSIGN_OR_RETURN(starburst::ast::StatementPtr stmt,
                             parser.ParseStatement());
  out->parse_us = NowUs() - t;
  if (stmt->kind != starburst::ast::StatementKind::kSelect) {
    return Status::InvalidArgument("the layered pipeline runs SELECTs only");
  }
  const starburst::ast::Query& query =
      *static_cast<const starburst::ast::SelectStatement&>(*stmt).query;

  t = NowUs();
  starburst::qgm::Binder binder(&db_->catalog());
  STARBURST_ASSIGN_OR_RETURN(ps->graph, binder.BindQuery(query));
  out->bind_us = NowUs() - t;
  starburst::qgm::Graph* graph = ps->graph.get();
  ps->num_params = graph->num_params;

  if (o.rewrite_enabled) {
    t = NowUs();
    STARBURST_ASSIGN_OR_RETURN(
        starburst::rewrite::RuleEngine::Stats rs,
        db_->rule_engine().Run(graph, &db_->catalog(), o.rewrite));
    out->rewrite_us = NowUs() - t;
    out->firings = static_cast<uint64_t>(rs.rules_fired);
  }
  out->boxes_after_rewrite = graph->boxes().size();

  t = NowUs();
  ps->optimizer = std::make_unique<starburst::optimizer::Optimizer>(
      &db_->catalog(), o.optimizer);
  STARBURST_ASSIGN_OR_RETURN(ps->plan, ps->optimizer->Optimize(*graph));
  out->optimize_us = NowUs() - t;
  const auto& os = ps->optimizer->stats();
  out->pairs_considered = os.enumerator.pairs_considered;
  out->plans_generated = os.generator.plans_generated;
  out->stars_evaluated = os.generator.stars_evaluated;
  ps->plan_cost = ps->plan->props.cost;
  ps->plan_cardinality = ps->plan->props.cardinality;
  ps->slow_class = ps->plan_cost >= Database::kDefaultSlowPlanCost ||
                   ps->plan_cardinality >= Database::kDefaultSlowPlanRows;
  ps->priority = static_cast<int>(ps->slow_class
                                      ? starburst::StatementPriority::kLow
                                      : starburst::StatementPriority::kNormal);

  t = NowUs();
  starburst::exec::PlanRefiner::Options ro;
  ro.cache_mode = o.exec.cache_mode;
  ro.ship_delay_us = o.exec.ship_delay_us;
  ro.semi_naive_recursion = o.exec.semi_naive_recursion;
  ro.stats = nullptr;
  ro.parallelism = o.exec.parallelism == 0 ? 1 : o.exec.parallelism;
  ro.parallel_min_rows = o.exec.parallel_min_rows;
  ro.batch_size = o.exec.batch_size == 0 ? 1 : o.exec.batch_size;
  ro.sort_memory_bytes = o.exec.sort_memory_bytes;
  ro.agg_memory_bytes = o.exec.agg_memory_bytes;
  ro.vectorize = o.exec.vectorize;
  ro.shared_scheduler = &db_->task_scheduler();
  starburst::exec::PlanRefiner refiner(&db_->catalog(),
                                       &ps->optimizer->box_plans(), ro);
  STARBURST_ASSIGN_OR_RETURN(ps->root, refiner.Refine(ps->plan));
  if (graph->limit >= 0) {
    ps->root = starburst::exec::MakeLimitOp(std::move(ps->root), graph->limit);
  }
  out->refine_us = NowUs() - t;
  out->kernel_programs = refiner.kernel_stats().programs;
  out->kernel_full = refiner.kernel_stats().fully_vectorized;
  ps->kernel_programs = out->kernel_programs;
  ps->kernel_programs_full = out->kernel_full;

  ps->batch_size = ro.batch_size;
  ps->parallelism = static_cast<int>(ro.parallelism);
  ps->reserve_hint = ps->plan_cardinality > 0
                         ? static_cast<size_t>(ps->plan_cardinality)
                         : 0;
  ps->hidden_order_columns = graph->hidden_order_columns;
  ps->visible_columns =
      graph->root()->head.size() - graph->hidden_order_columns;
  return ps;
}

// Mirrors Database::ExecuteCompiled minus admission and the statement
// registry: Open, drain and Close under a fresh ExecContext.
Status LayeredPipeline::Execute(PreparedStatement& ps,
                                const std::vector<Value>& params,
                                LayerSample* out) {
  if (params.size() != ps.num_params) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  uint64_t tasks_before = TasksRun(db_);
  auto storage_before = db_->storage().GatherStats();
  uint64_t spill_bytes_before = starburst::SpillFile::total_bytes();
  uint64_t spill_files_before = starburst::SpillFile::total_count();

  double t = NowUs();
  starburst::exec::ExecContext ctx(&db_->storage(), &db_->catalog());
  ctx.set_batch_size(ps.batch_size);
  ctx.set_query_memory_budget(db_->options().exec.query_memory_bytes);
  ctx.set_scheduler_priority(ps.priority);
  if (ps.parallelism > 1) {
    db_->task_scheduler().EnsureWorkers(static_cast<size_t>(ps.parallelism - 1));
  }
  starburst::exec::ExecContext::ParamFrame frame;
  if (ps.num_params > 0) {
    for (size_t i = 0; i < params.size(); ++i) {
      frame.Set(starburst::exec::QueryParamQuantifier(), i, params[i]);
    }
    ctx.PushParams(&frame);
  }
  Status opened = ps.root->Open(&ctx);
  if (!opened.ok()) {
    ps.root->Close();
    return opened;
  }
  auto rows = starburst::exec::DrainOperator(ps.root.get(), ctx.batch_size(),
                                             ps.reserve_hint, &ctx);
  ps.root->Close();
  out->execute_us = NowUs() - t;
  if (!rows.ok()) return rows.status();

  out->rows = rows.TakeValue();
  if (ps.hidden_order_columns > 0) {
    for (Row& row : out->rows) row.values().resize(ps.visible_columns);
  }
  const auto& es = ctx.stats();
  out->rows_emitted = es.rows_emitted.load();
  out->subquery_evals = es.subquery_evaluations.load();
  out->subquery_cache_hits = es.subquery_cache_hits.load();
  out->peak_query_bytes = ctx.query_memory()->peak();
  auto storage_after = db_->storage().GatherStats();
  auto bp = storage_after.buffer_pool.Since(storage_before.buffer_pool);
  out->logical_reads = bp.logical_reads;
  out->cache_hits = bp.cache_hits;
  out->index_node_visits =
      storage_after.index_node_visits - storage_before.index_node_visits;
  out->spill_bytes = starburst::SpillFile::total_bytes() - spill_bytes_before;
  out->spill_files = starburst::SpillFile::total_count() - spill_files_before;
  out->tasks_run = TasksRun(db_) - tasks_before;
  return Status::OK();
}

Result<double> ScanTables(Database* db, const std::vector<std::string>& tables) {
  constexpr size_t kBlock = 1024;
  std::vector<Row> rows(kBlock);
  std::vector<starburst::Rid> rids(kBlock);
  double t = NowUs();
  for (const std::string& name : tables) {
    STARBURST_ASSIGN_OR_RETURN(starburst::TableStorage * table,
                               db->storage().GetTable(name));
    auto scan = table->NewScan();
    while (true) {
      STARBURST_ASSIGN_OR_RETURN(size_t n,
                                 scan->NextBlock(rows.data(), rids.data(), kBlock));
      if (n == 0) break;
    }
  }
  return NowUs() - t;
}

}  // namespace perfbench
