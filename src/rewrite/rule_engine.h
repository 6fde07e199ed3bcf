#ifndef STARBURST_REWRITE_RULE_ENGINE_H_
#define STARBURST_REWRITE_RULE_ENGINE_H_

#include <functional>
#include <random>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "qgm/box.h"

namespace starburst::rewrite {

/// What a rule sees when it is given a chance to fire: the whole graph and
/// the box the search facility is currently focused on (§5: "Its role is
/// to browse through QGM, providing the context for the rules to work on").
struct RuleContext {
  qgm::Graph* graph = nullptr;
  qgm::Box* box = nullptr;
  const Catalog* catalog = nullptr;
};

/// An IF/THEN query-rewrite rule. Per the paper (§5), the rule language is
/// the host language: the condition and the action are each ordinary
/// functions, and the rule writer guarantees that the action maps a
/// consistent QGM to a consistent QGM (a complete transformation).
struct RewriteRule {
  std::string name;
  /// Rules group into classes "to limit the number of rules that have to
  /// be examined ... and to give the DBC more explicit control".
  std::string rule_class;
  /// For the priority control strategy (higher fires first).
  int priority = 0;
  /// For the statistical control strategy (relative weight).
  double weight = 1.0;

  std::function<bool(const RuleContext&)> condition;
  std::function<Status(RuleContext&)> action;
};

/// The rule engine: forward chaining over the QGM until no rule fires or
/// the budget is exhausted — in which case "processing stops at a
/// consistent state (of QGM)".
class RuleEngine {
 public:
  enum class ControlStrategy { kSequential, kPriority, kStatistical };
  enum class SearchOrder { kDepthFirst, kBreadthFirst };

  struct Options {
    ControlStrategy control = ControlStrategy::kSequential;
    SearchOrder search = SearchOrder::kDepthFirst;
    /// Maximum number of rule firings; <0 = unlimited.
    int budget = -1;
    /// Empty = all classes enabled.
    std::vector<std::string> enabled_classes;
    /// Seed for the statistical strategy.
    uint64_t seed = 42;
    /// Validate the QGM after every firing (tests; costs time).
    bool paranoid_validation = false;
    bool operator==(const Options&) const = default;
  };

  struct Stats {
    /// One rule firing: the shared provenance log EXPLAIN and the tracer
    /// both consume. Box identity is captured before garbage collection
    /// so it survives the box being merged away.
    struct Firing {
      std::string rule;
      int box_id = 0;
      std::string box_label;  // e.g. "OP2(SELECT)"
      int pass = 0;
      /// Steady-clock microseconds (same timebase as obs::NowUs), so
      /// firings can be replayed into a trace as instant events.
      double at_us = 0;
    };

    int rules_fired = 0;
    int conditions_evaluated = 0;
    int passes = 0;
    bool budget_exhausted = false;
    /// Aggregated (rule, count), sorted by rule name; derived from
    /// `firings` after the run.
    std::vector<std::pair<std::string, int>> fired_by_rule;
    /// Every firing in order.
    std::vector<Firing> firings;
  };

  RuleEngine() = default;

  Status AddRule(RewriteRule rule);
  size_t rule_count() const { return rules_.size(); }
  std::vector<std::string> RuleNames() const;

  /// Runs the rules to fixpoint (or budget). The graph is transformed in
  /// place and remains valid.
  Result<Stats> Run(qgm::Graph* graph, const Catalog* catalog,
                    const Options& options);
  Result<Stats> Run(qgm::Graph* graph, const Catalog* catalog);

 private:
  std::vector<RewriteRule> rules_;
};

/// Builds the engine pre-loaded with the base system's rewrite rules:
/// operation merging (incl. view merge), subquery-to-join, predicate
/// migration (push-down, transitivity), projection pruning, and constant
/// folding. A DBC adds rules on top via AddRule.
RuleEngine MakeDefaultRuleEngine();
void RegisterMergeRules(RuleEngine* engine);
void RegisterPredicateRules(RuleEngine* engine);
void RegisterProjectionRules(RuleEngine* engine);
void RegisterMiscRules(RuleEngine* engine);
/// Rewrite rules for recursive queries (§5's magic-sets direction):
/// selection push-down into the recursion base over invariant columns.
void RegisterRecursionRules(RuleEngine* engine);

// -- shared helpers for rule authors ---------------------------------------

/// How many quantifiers anywhere in the graph range over `box`.
int CountReferences(const qgm::Graph& graph, const qgm::Box* box);

/// True if the subtree rooted at `sub` references quantifiers owned
/// outside that subtree (a correlated subquery).
bool IsCorrelated(const qgm::Graph& graph, qgm::Box* sub);

/// Applies `fn` to every expression slot of `box` (predicates, head
/// expressions, group keys, aggregate arguments).
void ForEachExprSlot(qgm::Box* box,
                     const std::function<void(qgm::ExprPtr*)>& fn);

/// Rewrites every reference to `from` (in all boxes) to `to` with the
/// given column remap (empty = identity).
void RemapEverywhere(qgm::Graph* graph, const qgm::Quantifier* from,
                     qgm::Quantifier* to, const std::vector<size_t>& map);

/// Replaces references to `from`'s columns everywhere by clones of the
/// given head expressions.
void InlineEverywhere(qgm::Graph* graph, const qgm::Quantifier* from,
                      const std::vector<const qgm::Expr*>& replacements);

}  // namespace starburst::rewrite

#endif  // STARBURST_REWRITE_RULE_ENGINE_H_
