#ifndef TVDP_QUERY_PLAN_H_
#define TVDP_QUERY_PLAN_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "query/query.h"

namespace tvdp::query {

/// One node of a physical query plan: an operator with its estimated (and,
/// after execution, actual) output cardinality. The tree is deterministic
/// for a given query and corpus state — `explain_query` golden tests rely
/// on that — so nothing time- or thread-dependent may be recorded here.
struct PlanNode {
  /// Operator name: "IndexProbe", "Dedup", "Verify", "MaterializeProbe",
  /// "TopK", "Rerank", "Limit".
  std::string op;
  /// Operator-specific detail, e.g. "textual and(2 terms)" or
  /// "lsh(cnn) k=5 fetch=36".
  std::string detail;
  /// Planner's cardinality estimate for this operator's output; -1 when
  /// the operator has no meaningful estimate.
  double estimated_rows = -1;
  /// Rows actually produced; -1 until the plan has been executed (EXPLAIN
  /// plans keep -1 everywhere).
  int64_t actual_rows = -1;
  /// Input operators. The first child is the pipeline input; additional
  /// children of a Verify node are materialized side-probes.
  std::vector<PlanNode> children;

  /// Deterministic JSON form ("actual_rows" is present only once set).
  Json ToJson() const;
};

/// How the planner evaluates one conjunct of a hybrid query.
struct ConjunctPlan {
  enum class Strategy {
    kSeedProbe,         ///< produces the candidate set from its index
    kMaterializeProbe,  ///< probed once into an id set, then membership
    kVerifyScan,        ///< checked per candidate against catalog rows
  };

  std::string family;  ///< "spatial" | "visual" | "categorical" | ...
  Strategy strategy = Strategy::kVerifyScan;
  /// Estimated result cardinality of the conjunct alone.
  double estimated_rows = -1;
};

const char* ConjunctStrategyName(ConjunctPlan::Strategy s);

/// A fully-built plan for one hybrid query: the operator tree plus the
/// planner's reasoning (conjunct order, strategies, budget). Execution
/// fills in the actual cardinalities and the seed-candidate accounting.
struct QueryPlan {
  /// Conjuncts in evaluation order: the seed first, then verify conjuncts
  /// ordered by ascending estimated cardinality (cheapest rejector first).
  std::vector<ConjunctPlan> conjuncts;
  std::string seed_family;
  QueryBudget budget;
  bool degraded = false;

  /// Root of the operator tree (the last operator to run).
  PlanNode root;

  // --- execution accounting (filled by the Executor) ---

  /// Seed candidates after dedup and budget cap — the value the legacy
  /// plan string reports.
  size_t seed_candidates = 0;
  /// Pre-cap candidate count when the budget cap trimmed the set, else 0.
  size_t capped_from = 0;
  /// True once the executor has run the plan.
  bool executed = false;

  /// The legacy one-line plan summary, e.g.
  /// "seed=textual(1) verify=[spatial temporal] cap=512/900 degraded" —
  /// byte-compatible with the pre-planner engine's plan string.
  std::string LegacySummary() const;

  /// Deterministic JSON: operator tree, conjunct order and strategies,
  /// estimated vs actual cardinalities, budget, degraded flag, summary.
  Json ToJson() const;
};

}  // namespace tvdp::query

#endif  // TVDP_QUERY_PLAN_H_
