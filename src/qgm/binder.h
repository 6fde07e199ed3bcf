#ifndef STARBURST_QGM_BINDER_H_
#define STARBURST_QGM_BINDER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "parser/ast.h"
#include "qgm/box.h"

namespace starburst::qgm {

/// Maps a Hydrogen type name ("INT", "VARCHAR", a registered extension
/// type, ...) to a DataType. Used by DDL and by the binder.
Result<DataType> BindTypeName(const std::string& name);

/// Semantic analysis: turns a parsed Hydrogen query into a *valid* QGM
/// (§3: "Semantic analysis of the query is also done during parsing, so
/// the QGM produced is guaranteed to be valid"). Performs name resolution
/// against the catalog, view expansion, subquery-to-quantifier conversion,
/// aggregation restructuring (SELECT→GROUPBY→SELECT sandwich), recursion
/// wiring, and type checking.
class Binder {
 public:
  explicit Binder(const Catalog* catalog) : catalog_(catalog) {}

  /// Binds a full query to a fresh graph; the result passes
  /// Graph::Validate().
  Result<std::unique_ptr<Graph>> BindQuery(const ast::Query& query);

  /// The target of an UPDATE or DELETE: a stored table, named directly
  /// or through an updatable view (§2).
  struct MutationTarget {
    const TableDef* table = nullptr;  // the stored table written
    /// What the statement's column names bind against: `table` itself,
    /// or the view's pseudo table, whose column i is base column
    /// `(*column_map)[i]`.
    const TableDef* exposed = nullptr;
    const std::vector<size_t>* column_map = nullptr;  // null: identity
    const ast::Expr* view_where = nullptr;  // the view's own WHERE
  };
  /// Binds UPDATE/DELETE as the query "which RIDs, with which new
  /// values": one SELECT box over the target's base table (a box of its
  /// own, whose head carries the RID at TableSchema::rid_column()). Its
  /// predicates are the statement's WHERE and the view's own WHERE; its
  /// head is the RID, then for UPDATE (`assignments` non-null) the new
  /// base row, unassigned columns passed through.
  Result<std::unique_ptr<Graph>> BindTableMutation(
      const MutationTarget& target, const ast::Expr* where,
      const std::vector<std::pair<std::string, ast::ExprPtr>>* assignments);

  /// Binds a constant expression (INSERT ... VALUES items): no column
  /// references, no subqueries. The graph in the result owns nothing of
  /// interest but keeps ownership rules uniform.
  struct StandaloneExprBind {
    std::unique_ptr<Graph> graph;
    ExprPtr expr;
  };
  Result<StandaloneExprBind> BindConstantExpr(const ast::Expr& e);

  /// Catalog objects this binder resolved, keyed "T:NAME" / "V:NAME"
  /// (uppercase). View bodies bind through the same binder, so references
  /// made inside expanded views are included — the transitive dependency
  /// set a cached plan must be invalidated on.
  const std::set<std::string>& referenced_objects() const {
    return referenced_objects_;
  }

 private:
  /// A name visible in a FROM scope: alias -> a slice of a quantifier's
  /// columns (a slice, because wrapped outer joins expose two tables'
  /// columns through one quantifier).
  struct RangeVar {
    std::string alias;
    Quantifier* quantifier = nullptr;
    size_t column_offset = 0;
    size_t column_count = 0;
    /// A view's renaming of the quantifier's columns: visible column i
    /// is named `view->column(i).name` and reads quantifier column
    /// `(*view_map)[i]` (column_offset is then unused).
    const TableSchema* view = nullptr;
    const std::vector<size_t>* view_map = nullptr;
  };

  struct Scope {
    Scope* parent = nullptr;
    Box* select_box = nullptr;  // where subquery quantifiers attach
    std::vector<RangeVar> range_vars;
  };

  struct CteEntry {
    Box* box = nullptr;        // bound body (non-recursive, shared)
    Box* recursion = nullptr;  // in-flight recursive union
    std::vector<std::string> column_names;
  };
  using CteEnv = std::map<std::string, CteEntry>;

  /// How expressions bind: normal, or aggregation-translating.
  struct ExprContext {
    Scope* scope = nullptr;  // resolution + subquery attachment
    CteEnv* env = nullptr;
    // Aggregation mode (HAVING / select list above a GROUP BY):
    bool agg_mode = false;
    Scope* low_scope = nullptr;
    Box* low_box = nullptr;
    Box* gb_box = nullptr;
    Quantifier* upper_q = nullptr;
    std::vector<ExprPtr>* low_group_keys = nullptr;  // keys bound over low box
  };

  Result<Box*> BindQueryNode(const ast::Query& query, Scope* outer,
                             CteEnv env);
  Result<Box*> BindBody(const ast::QueryBody& body, Scope* outer, CteEnv* env);
  Result<Box*> BindSelectCore(const ast::SelectCore& core, Scope* outer,
                              CteEnv* env);
  Result<Box*> BindAggregation(const ast::SelectCore& core, Box* low_box,
                               Scope* low_scope, CteEnv* env);

  /// Binds `ref` into `box`; appends visible names to `vars`.
  Status BindTableRef(const ast::TableRef& ref, Box* box, Scope* scope,
                      CteEnv* env, std::vector<RangeVar>* vars);
  Result<Box*> ResolveNamedTable(const std::string& name, CteEnv* env);
  Result<Box*> BindView(const ViewDef& view);
  Box* BaseTableBox(const TableDef* table);

  Result<ExprPtr> BindExpr(const ast::Expr& e, ExprContext* ctx);
  Result<ExprPtr> BindColumnRef(const ast::ColumnRefExpr& e, ExprContext* ctx);
  Result<ExprPtr> BindFunctionCall(const ast::FunctionCallExpr& e,
                                   ExprContext* ctx);
  Result<ExprPtr> BindAggregateCall(const ast::FunctionCallExpr& e,
                                    ExprContext* ctx);
  Result<Box*> BindSubquery(const ast::Query& q, ExprContext* ctx);
  Result<ExprPtr> ResolveInScope(Scope* scope, const std::string& qualifier,
                                 const std::string& column, int* out_level);

  /// Returns the position of a head column of `box` whose expression is
  /// structurally `expr`, appending one if absent.
  size_t EnsureHeadColumn(Box* box, const Expr& expr, const std::string& name);

  Result<DataType> CheckComparable(const DataType& a, const DataType& b,
                                   const std::string& what);
  Result<DataType> NumericResult(ast::BinaryOp op, const DataType& a,
                                 const DataType& b);

  Status BindOrderByLimit(const ast::Query& query, Box* root);

  const Catalog* catalog_;
  Graph* graph_ = nullptr;  // graph under construction
  std::map<std::string, Box*> base_table_boxes_;
  std::set<std::string> referenced_objects_;
  int view_depth_ = 0;
};

}  // namespace starburst::qgm

#endif  // STARBURST_QGM_BINDER_H_
