#ifndef STARBURST_OPTIMIZER_OPTIMIZER_H_
#define STARBURST_OPTIMIZER_OPTIMIZER_H_

#include <map>
#include <memory>

#include "optimizer/cost_model.h"
#include "optimizer/join_enumerator.h"
#include "optimizer/star.h"

namespace starburst::optimizer {

/// The cost-based plan optimizer (§6): "optimizes each QGM operation
/// independently, bottom up, using a rule-driven plan generator and rules
/// peculiar to that operation's type". Its three aspects — plan generation
/// (the STAR registry), plan costing (the CostModel), and search strategy
/// (rank pruning + join-enumerator toggles) — are deliberately orthogonal:
/// each can be replaced without touching the others.
class Optimizer {
 public:
  struct Options {
    JoinEnumerator::Options join;
    PlanGenerator::Options generator = PlanGenerator::Options{1000};
    CostModel::Params cost;
    /// Materialize table expressions referenced more than once so all
    /// consumers share one evaluation (§5: "materialized once and used
    /// several times"). Off = each reference re-evaluates.
    bool materialize_shared = true;
    bool operator==(const Options&) const = default;
  };

  struct Stats {
    PlanGenerator::Stats generator;
    JoinEnumerator::Stats enumerator;
  };

  explicit Optimizer(const Catalog* catalog) : Optimizer(catalog, Options{}) {}
  Optimizer(const Catalog* catalog, Options options);

  /// The STAR array; a DBC may Add() rules before Optimize runs
  /// ("the optimizer designer [can] add, change, or delete rules in the
  /// STAR array without affecting the code for the search strategy").
  StarRegistry& stars() { return registry_; }
  const CostModel& cost_model() const { return cost_; }

  /// Chooses the cheapest query evaluation plan for a rewritten QGM.
  /// The graph must outlive the returned plan (plans point into it).
  /// Every box of the graph gets a plan (retrievable via box_plans());
  /// plan refinement needs them to build correlated subquery runtimes.
  Result<PlanPtr> Optimize(const qgm::Graph& graph);

  /// Per-box plans from the last Optimize call.
  const std::map<const qgm::Box*, PlanPtr>& box_plans() const {
    return box_plans_;
  }

  const Stats& stats() const { return stats_; }

 private:
  Result<PlanPtr> OptimizeBox(const qgm::Box* box);
  Result<PlanPtr> OptimizeSelect(const qgm::Box* box);
  Result<PlanPtr> OptimizeOuterJoin(const qgm::Box* box);
  Result<PlanPtr> OptimizeGroupBy(const qgm::Box* box);
  Result<PlanPtr> OptimizeSetOp(const qgm::Box* box);
  Result<PlanPtr> OptimizeTableFunction(const qgm::Box* box);
  Result<PlanPtr> OptimizeRecursion(const qgm::Box* box);

  /// Access plans for one iterator (the enumerator's leaf supplier).
  Result<std::vector<PlanPtr>> AccessQuantifier(
      const qgm::Quantifier* q, const std::vector<const qgm::Expr*>& preds);

  /// Identity node renaming a box-space stream into quantifier space.
  PlanPtr Relabel(PlanPtr input, const qgm::Quantifier* q);
  /// The plan for a derived table, wrapped in a shared TEMP when it is
  /// referenced multiple times and safe to cache.
  Result<PlanPtr> DerivedTablePlan(const qgm::Box* input);
  bool SubtreeHasIterationRef(const qgm::Box* box) const;
  /// Columns of `q`'s range table referenced anywhere in the graph.
  std::vector<size_t> NeededColumns(const qgm::Quantifier* q) const;
  /// True if `sub`'s subtree references quantifiers outside it.
  bool SubtreeCorrelated(const qgm::Box* sub) const;

  Result<PlanPtr> AttachSubqueryJoins(const qgm::Box* box, PlanPtr plan,
                                      std::vector<const qgm::Expr*>* residual);
  PlanPtr AddFilter(PlanPtr input, std::vector<const qgm::Expr*> preds);
  Result<PlanPtr> ProjectToHead(const qgm::Box* box, PlanPtr input);

  const Catalog* catalog_;
  Options options_;
  CostModel cost_;
  StarRegistry registry_;
  std::unique_ptr<PlanGenerator> generator_;
  std::map<const qgm::Box*, PlanPtr> box_plans_;
  std::map<const qgm::Box*, PlanPtr> shared_temp_plans_;
  const qgm::Graph* graph_ = nullptr;
  Stats stats_;
};

}  // namespace starburst::optimizer

#endif  // STARBURST_OPTIMIZER_OPTIMIZER_H_
