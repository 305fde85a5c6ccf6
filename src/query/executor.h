#ifndef TVDP_QUERY_EXECUTOR_H_
#define TVDP_QUERY_EXECUTOR_H_

#include <optional>
#include <string>
#include <vector>

#include "common/context.h"
#include "common/result.h"
#include "query/plan.h"
#include "query/planner.h"
#include "query/query.h"

namespace tvdp::query {

// --- Single-family evaluation over the access paths ---
//
// These are the leaf routines of the operator pipeline and the bodies
// behind the QueryEngine's single-modality entry points (the engine runs
// them over a pinned snapshot). Each guards its own degenerate arguments
// (kInvalidArgument) so a malformed predicate fails identically whichever
// door it comes in through; each checks `ctx` before touching an index and
// annotates context failures with a stage name and progress.

Result<std::vector<QueryHit>> EvalSpatialRange(const AccessPaths& access,
                                               const geo::BoundingBox& box,
                                               const RequestContext* ctx);
Result<std::vector<QueryHit>> EvalSpatialKnn(const AccessPaths& access,
                                             const geo::GeoPoint& p, int k,
                                             const RequestContext* ctx);
Result<std::vector<QueryHit>> EvalVisibleAt(const AccessPaths& access,
                                            const geo::GeoPoint& p,
                                            const RequestContext* ctx);
Result<std::vector<QueryHit>> EvalVisualTopK(const AccessPaths& access,
                                             const std::string& kind,
                                             const ml::FeatureVector& feature,
                                             int k, const RequestContext* ctx,
                                             const QueryBudget& budget);
Result<std::vector<QueryHit>> EvalVisualThreshold(
    const AccessPaths& access, const std::string& kind,
    const ml::FeatureVector& feature, double threshold,
    const RequestContext* ctx, const QueryBudget& budget);
Result<std::vector<QueryHit>> EvalCategorical(const AccessPaths& access,
                                              const CategoricalPredicate& pred);
Result<std::vector<QueryHit>> EvalTextual(const AccessPaths& access,
                                          const TextualPredicate& pred);
Result<std::vector<QueryHit>> EvalTemporal(const AccessPaths& access,
                                           Timestamp begin, Timestamp end);

/// Pull-based physical operator. Execution proceeds at batch granularity:
/// each Next() call returns up to a batch of rows, or nullopt once the
/// stream is exhausted. Pipeline breakers (Verify, Rerank) drain their
/// input completely on the first pull; streaming operators (Dedup, TopK,
/// Limit) pass batches through and stop pulling as soon as they have
/// enough rows. Every operator records its actual output cardinality into
/// its PlanNode, which is how EXPLAIN reports estimated vs actual.
class Operator {
 public:
  virtual ~Operator() = default;

  /// The next batch of rows; nullopt at end of stream. `ctx` is threaded
  /// to the leaf probes and the verification fan-out.
  virtual Result<std::optional<std::vector<QueryHit>>> Next(
      const RequestContext* ctx) = 0;
};

/// Executes a plan built by the Planner against the access paths.
class Executor {
 public:
  /// Runs `plan` (which must have been built from the same `q` and access
  /// paths) and returns the result rows. Fills `plan->seed_candidates`,
  /// `plan->capped_from`, the per-operator `actual_rows`, and sets
  /// `plan->executed` on success. `access` (a pinned snapshot's paths)
  /// must stay valid for the duration.
  static Result<std::vector<QueryHit>> Run(const AccessPaths& access,
                                           const HybridQuery& q,
                                           QueryPlan* plan,
                                           const RequestContext* ctx);
};

}  // namespace tvdp::query

#endif  // TVDP_QUERY_EXECUTOR_H_
