#ifndef TVDP_QUERY_PLANNER_H_
#define TVDP_QUERY_PLANNER_H_

#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/thread_pool.h"
#include "index/inverted_index.h"
#include "index/lsh.h"
#include "index/oriented_rtree.h"
#include "index/rtree.h"
#include "index/temporal_index.h"
#include "query/plan.h"
#include "query/query.h"
#include "query/snapshot.h"
#include "storage/catalog.h"

namespace tvdp::query {

/// The access paths the planner and executor operate over: non-owning
/// views of one pinned MVCC snapshot's tables, indexes and classification
/// registry, plus the fan-out pool (QueryEngine::SnapshotPaths). Everything
/// referenced is immutable, so no lock is held. The planner never reaches
/// into index internals — only through the `CardinalityEstimate`
/// statistics hooks and the public probe methods.
struct AccessPaths {
  const storage::TableSet* tables = nullptr;
  ThreadPool* pool = nullptr;
  const index::RTree* points = nullptr;
  const index::OrientedRTree* fovs = nullptr;
  const index::TemporalIndex* temporal = nullptr;
  const index::InvertedIndex* keywords = nullptr;
  const std::map<std::string, std::shared_ptr<const index::LshIndex>>* lsh =
      nullptr;
  const ClassMap* classifications = nullptr;
};

/// The snapshot table named `name`, or nullptr when absent.
const storage::Table* FindTable(const AccessPaths& access,
                                const std::string& name);

/// Knobs for plan construction. The defaults produce the cost-based plan;
/// tests and benches use `force_seed` to run every (or the worst) conjunct
/// order and prove order-independence of the result set.
struct PlannerOptions {
  /// When non-empty, seed with this family instead of the cheapest one.
  /// Ignored when a ranking predicate (spatial kNN, visual top-k) forces
  /// the seed, and rejected when the family is absent from the query.
  std::string force_seed;
};

/// The cost-based planner over the composable operator pipeline.
///
/// Planning is three steps (DESIGN.md "Query planning and EXPLAIN"):
///  1. Validate — degenerate arguments (k <= 0, empty feature vector,
///     empty keyword, inverted temporal range, empty box, invalid point)
///     are kInvalidArgument at the front door, uniformly for every family.
///  2. Estimate — each present conjunct gets a cardinality estimate from
///     its index's `CardinalityEstimate` hook (categorical has no
///     dedicated index and uses a labels-per-task heuristic).
///  3. Order & choose — the cheapest conjunct seeds (ranking predicates
///     are forced to seed: spatial kNN outranks visual top-k); remaining
///     conjuncts are ordered by ascending estimate and assigned a
///     strategy: materialize-probe (one index probe into an id set) for
///     set-valued conjuncts (categorical, textual, spatial range and
///     visible-at), or verify-scan (per-candidate catalog row check) for
///     conjuncts whose check is O(1) per row (temporal, visual distance).
///
/// Plans are deterministic: same query + same corpus state -> same plan.
class Planner {
 public:
  /// Builds a plan without executing it. The returned plan carries
  /// estimates only (`actual_rows` = -1 everywhere, `executed` = false).
  static Result<QueryPlan> BuildPlan(const AccessPaths& access,
                                     const HybridQuery& q,
                                     const QueryBudget& budget,
                                     const PlannerOptions& options = {});

  /// Validates the arguments of every present conjunct (step 1 above).
  /// Also used by the single-family engine entry points so degenerate
  /// arguments fail identically whichever door they come in through.
  static Status Validate(const HybridQuery& q);

  /// Cardinality estimate of a single conjunct family of `q` (must be
  /// present). Exposed for the estimate-accuracy tests.
  static double EstimateFamily(const AccessPaths& access, const HybridQuery& q,
                               const std::string& family);

  /// The visual top-k seed over-fetch: post-filtering must still be able
  /// to fill k results; a degraded budget halves the over-fetch and
  /// respects the candidate cap. Shared by plan construction (the probe
  /// node's estimate) and the executor (the actual LSH fetch) so EXPLAIN
  /// never disagrees with execution.
  static int VisualTopKFetch(const VisualPredicate& pred,
                             const QueryBudget& budget);
};

}  // namespace tvdp::query

#endif  // TVDP_QUERY_PLANNER_H_
