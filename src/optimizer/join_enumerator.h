#ifndef STARBURST_OPTIMIZER_JOIN_ENUMERATOR_H_
#define STARBURST_OPTIMIZER_JOIN_ENUMERATOR_H_

#include <functional>
#include <map>

#include "optimizer/star.h"

namespace starburst::optimizer {

/// The join enumerator (§6, [ONO88]): "enumerates all valid join sequences
/// by iteratively constructing progressively larger sets of iterators from
/// two smaller iterator sets". Exploits implied predicates and composite
/// inners; both can be pruned ("bushy trees" / Cartesian products), as
/// System R and R* always did.
class JoinEnumerator {
 public:
  struct Options {
    /// Composite inners ("bushy trees"); R*/System R pruned these.
    bool allow_composite_inner = true;
    /// Joins with no join predicate.
    bool allow_cartesian = false;
    /// Plans retained per iterator set (cheapest + interesting orders).
    size_t max_plans_per_set = 4;
    bool operator==(const Options&) const = default;
  };

  struct Stats {
    uint64_t pairs_considered = 0;
    uint64_t plans_kept = 0;
    uint64_t sets_built = 0;
  };

  /// Plans the access to one iterator with its single-iterator predicates
  /// applied; supplied by the Optimizer (it knows about derived tables,
  /// remote sites, and DBC access methods).
  using AccessFn = std::function<Result<std::vector<PlanPtr>>(
      const qgm::Quantifier*, const std::vector<const qgm::Expr*>&)>;

  JoinEnumerator(PlanGenerator* generator, Options options)
      : generator_(generator), options_(options) {}

  /// Enumerates join orders for `iterators` (the F setformers of a SELECT
  /// box) under `predicates` (conjuncts referencing those iterators only).
  /// Returns the retained plans for the full set, cheapest first.
  Result<std::vector<PlanPtr>> Enumerate(
      const qgm::Box* box,
      const std::vector<const qgm::Quantifier*>& iterators,
      const std::vector<const qgm::Expr*>& predicates, const AccessFn& access);

  Stats& stats() { return stats_; }
  const Options& options() const { return options_; }

 private:
  using Mask = uint64_t;

  /// Keeps cheapest overall plus the cheapest plan per distinct
  /// interesting order, capped.
  void AddPlan(std::vector<PlanPtr>* plans, PlanPtr plan);

  PlanGenerator* generator_;
  Options options_;
  Stats stats_;
};

}  // namespace starburst::optimizer

#endif  // STARBURST_OPTIMIZER_JOIN_ENUMERATOR_H_
