#ifndef TVDP_QUERY_SCATTER_GATHER_H_
#define TVDP_QUERY_SCATTER_GATHER_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/json.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "geo/bbox.h"
#include "query/plan.h"
#include "query/query.h"

namespace tvdp::query {

/// What happened to one shard during a scatter-gather round.
///   probed       — the shard answered (its rows are in the merged result);
///   migrating    — the shard answered while a cell migration touching it
///                  was in flight; the result is still exact (both migration
///                  endpoints serve the moving rows and the merge dedups by
///                  image id) but the outcome is surfaced so operators can
///                  see rebalancing traffic;
///   pruned       — skipped because the query provably selects nothing
///                  there (region disjoint or a provably-empty estimate);
///   shed         — skipped by degraded-mode load shedding (lowest
///                  estimated selectivity goes first);
///   breaker_open — skipped because the shard's circuit breaker blocked it
///                  (and no replica could stand in);
///   failed       — probed (possibly with hedged retries) and still failed;
///   failed_over  — the primary was unreachable (probe failed or breaker
///                  blocked it) but a replica answered in its place; the
///                  shard's rows are in the merged result.
/// `pruned`, `migrating` and `failed_over` keep the result exact; the other
/// skip/fail outcomes make the response a partial result, which coverage
/// reports.
enum class ShardOutcome {
  kProbed,
  kPruned,
  kShed,
  kBreakerOpen,
  kFailed,
  kMigrating,
  kFailedOver,
};

/// Stable display name, e.g. "breaker_open".
std::string ShardOutcomeName(ShardOutcome o);

/// Per-shard accounting of one scatter-gather execution.
struct ShardReport {
  int shard = 0;
  ShardOutcome outcome = ShardOutcome::kProbed;
  /// The terminal error for kFailed (OK otherwise).
  Status error = Status::OK();
  /// Wall-clock spent probing (0 for skipped shards).
  double latency_ms = 0;
  /// Probe attempts made (0 for skipped shards; > 1 means hedged retries).
  int attempts = 0;
  /// Rows the shard contributed to the merge.
  size_t rows = 0;
  /// The planner's cardinality estimate used for shedding; -1 = unknown.
  double estimated_rows = -1;
  /// Replica index that served this probe (-1 = the primary). Set for
  /// kFailedOver and for balanced replica reads.
  int replica = -1;
  /// False when the primary itself was never probed (balanced replica read
  /// or a breaker-open failover) — breaker bookkeeping must then leave the
  /// primary's circuit untouched.
  bool primary_probed = true;
};

/// The partial-result contract of a sharded response: which shards were
/// probed, which were skipped and why, and which failed. A response is
/// `complete()` when every shard either answered or was pruned by an exact
/// emptiness proof — i.e. the result set equals what an unsharded engine
/// would have returned.
struct Coverage {
  int total_shards = 0;
  std::vector<ShardReport> reports;  ///< one per shard, ordered by shard id

  std::vector<int> ProbedShards() const;
  std::vector<int> SkippedShards() const;  ///< pruned + shed + breaker_open
  std::vector<int> FailedShards() const;

  /// True when the result is exact (no shard shed, blocked, or failed).
  bool complete() const;

  /// Deterministic JSON: {"total_shards", "probed_shards",
  /// "skipped_shards", "failed_shards", "complete", "shards":[...]}.
  Json ToJson() const;
};

/// A shard's cardinality estimate for a query, from its local planner.
struct ShardEstimate {
  /// Estimated seed cardinality on this shard; -1 = unknown.
  double rows = -1;
  /// True only when the shard's indexes prove the query selects nothing
  /// there (exact textual / temporal zero counts). Heuristic estimates
  /// (spatial grids, categorical priors) must never set this — pruning on
  /// them would silently drop rows.
  bool provably_empty = false;
};

/// One probe target of the scatter stage. Implemented by the platform's
/// ShardManager (the query library stays independent of platform types);
/// implementations must be safe to probe from pool threads.
class ShardTarget {
 public:
  virtual ~ShardTarget() = default;

  /// Stable shard id used in coverage reports.
  virtual int id() const = 0;

  /// The geographic region this shard can contribute hits for: its cell
  /// bounds expanded by the largest FOV radius ingested into it (an image
  /// is routed by camera location but its scene can spill into neighbor
  /// cells). An empty box means "unknown" and disables region pruning.
  virtual geo::BoundingBox region() const = 0;

  /// Executes `q` against this shard under `ctx`/`budget`. Returns hits in
  /// the shard's global id space. `plan_out` (optional) receives the
  /// shard-local executed plan.
  virtual Result<std::vector<QueryHit>> Probe(const HybridQuery& q,
                                              const RequestContext& ctx,
                                              const QueryBudget& budget,
                                              QueryPlan* plan_out) = 0;

  /// This shard's cardinality estimate for `q` (used for estimate pruning
  /// and degraded shedding). Must be cheap — planning only, no execution.
  virtual ShardEstimate Estimate(const HybridQuery& q) const = 0;

  /// True when a cell migration touching this shard was in flight when the
  /// target was snapshotted; a successful probe is then reported as
  /// kMigrating instead of kProbed.
  virtual bool migrating() const { return false; }

  /// Replicas available to stand in for the primary (0 = unreplicated or
  /// replica reads disabled). When > 0, a probe whose primary attempts all
  /// failed — or whose primary the breaker blocked — is retried against
  /// the replicas in order, and a success is reported as kFailedOver.
  virtual int replica_count() const { return 0; }

  /// Executes `q` against replica `r` (same contract as Probe; same global
  /// id space — replication preserves row ids).
  virtual Result<std::vector<QueryHit>> ProbeReplica(
      int r, const HybridQuery& q, const RequestContext& ctx,
      const QueryBudget& budget, QueryPlan* plan_out) {
    (void)r, (void)q, (void)ctx, (void)budget, (void)plan_out;
    return Status::Unavailable("shard has no replicas");
  }

  /// Read balancing: when >= 0, a clean (non-failover) probe goes to this
  /// replica first and falls back to the primary on failure. -1 = always
  /// probe the primary first.
  virtual int preferred_replica() const { return -1; }
};

/// Tuning knobs of the scatter-gather stage.
struct ScatterGatherOptions {
  /// Fraction of the request's remaining deadline granted to each shard
  /// probe (shards run concurrently, so this is per-shard, not divided).
  /// Must be in (0, 1]. Ignored when the request carries no deadline.
  double per_shard_deadline_fraction = 0.5;

  /// Hedged probes: each shard gets two attempts with no backoff between
  /// them. Classification uses IsRetryableStatus, so semantic errors
  /// surface immediately while crashes / stragglers get a second chance.
  /// When false, each shard gets exactly one attempt spanning its whole
  /// per-shard budget (the "naive" bench configuration).
  bool hedging = true;

  /// Degraded mode: shed the lowest-estimated-selectivity shards before
  /// probing (the admission controller sheds shards before queries).
  bool shed_low_selectivity = false;

  /// Fraction of eligible shards kept when shedding (at least one).
  double degraded_keep_fraction = 0.5;

  /// Strict mode: any failed or breaker-blocked shard fails the whole
  /// query instead of degrading coverage (the "naive" bench config).
  bool require_full_coverage = false;

  /// Circuit-breaker admission gate, consulted immediately before a probe
  /// is launched (the half-open state admits exactly one probe, so the
  /// gate must only be asked when a probe will actually run). Null = no
  /// breakers. Called from the coordinating thread only.
  std::function<bool(int shard)> admit;

  /// Invoked once per launched probe as its outcome is gathered (kProbed,
  /// kFailed, or kFailedOver), before partial-result semantics can turn the
  /// whole call into an error — so breaker bookkeeping sees every admitted
  /// probe's outcome even when no shard answered. Called from the
  /// coordinating thread only.
  std::function<void(const ShardReport&)> observe;

  /// Derives the retry-after hint (ms) attached to the all-shards-blocked
  /// kUnavailable from the blocked shard ids — e.g. the earliest breaker
  /// half-open deadline. Null = the static 50 ms fallback. Called from the
  /// coordinating thread only.
  std::function<double(const std::vector<int>& blocked_shards)>
      retry_after_hint;

  /// Seed for the hedge-backoff jitter streams.
  uint64_t seed = 0x5ca77e2ULL;
};

/// The merged outcome of one scatter-gather execution.
struct ShardedResult {
  std::vector<QueryHit> hits;
  Coverage coverage;
  /// Executed shard-local plans, (shard id, plan), probed shards only.
  std::vector<std::pair<int, QueryPlan>> plans;
};

/// The scatter-gather stage: prunes shards by query region and cardinality
/// estimates, sheds low-selectivity shards under degraded budgets, fans
/// probes out through `pool` under per-shard deadline slices with hedged
/// retries, and merges the per-shard top-k streams into one well-ordered
/// result (visual distance when a visual predicate participates, kNN score
/// for spatial rankings, image id otherwise).
///
/// Partial-result semantics: as long as at least one probed shard answers,
/// the call succeeds and `coverage` says which shards are missing. It fails
/// outright only when nothing answered: every probe failed (first failure
/// wins) or every shard was blocked (kUnavailable with a retry hint).
class ScatterGather {
 public:
  static Result<ShardedResult> Execute(const std::vector<ShardTarget*>& shards,
                                       ThreadPool* pool, const HybridQuery& q,
                                       const RequestContext* ctx,
                                       const QueryBudget& budget,
                                       const ScatterGatherOptions& options);
};

}  // namespace tvdp::query

#endif  // TVDP_QUERY_SCATTER_GATHER_H_
