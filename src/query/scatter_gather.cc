#include "query/scatter_gather.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <unordered_set>

#include "query/planner.h"

namespace tvdp::query {

namespace {

/// Outcome of one shard's probe task, produced on a pool thread and joined
/// by the coordinator.
struct ProbeOutcome {
  Status status = Status::OK();
  std::vector<QueryHit> hits;
  QueryPlan plan;
  double latency_ms = 0;
  int attempts = 0;
  /// Replica that produced the hits (-1 = the primary).
  int replica = -1;
  /// Whether the primary itself was probed (false for balanced replica
  /// reads that succeeded without touching it, and for breaker-open
  /// failover probes where the gate never admitted the primary).
  bool primary_probed = true;
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Probes one shard with hedged retries: each attempt gets an equal slice
/// of the shard's remaining budget, and a failed attempt is re-tried only
/// when IsRetryableStatus says the failure is transient (crash, straggler
/// timeout, transient IO) — semantic errors surface immediately.
/// One attempt against replica `r` of `shard`; fills `out` on success.
bool TryReplica(ShardTarget* shard, int r, const HybridQuery& q,
                const RequestContext& ctx, const QueryBudget& budget,
                ProbeOutcome& out) {
  ++out.attempts;
  QueryPlan plan;
  Result<std::vector<QueryHit>> probed =
      shard->ProbeReplica(r, q, ctx, budget, &plan);
  if (!probed.ok()) {
    if (out.status.ok()) out.status = probed.status();
    return false;
  }
  out.hits = std::move(probed).value();
  out.plan = std::move(plan);
  out.status = Status::OK();
  out.replica = r;
  return true;
}

/// Replica-only probe, used when the primary's breaker blocked it: the
/// replicas are tried in order and the primary is never touched.
ProbeOutcome ProbeReplicasOnly(ShardTarget* shard, const HybridQuery& q,
                               const RequestContext& shard_ctx,
                               const QueryBudget& budget) {
  ProbeOutcome out;
  out.primary_probed = false;
  out.status = Status::Unavailable("shard " + std::to_string(shard->id()) +
                                   " breaker open and no replica answered");
  const double started_ms = NowMs();
  const int replicas = shard->replica_count();
  for (int r = 0; r < replicas; ++r) {
    if (!shard_ctx.Check().ok()) break;
    ProbeOutcome attempt;
    if (TryReplica(shard, r, q, shard_ctx, budget, attempt)) {
      attempt.attempts += out.attempts;
      attempt.primary_probed = false;
      attempt.latency_ms = NowMs() - started_ms;
      return attempt;
    }
    out.attempts += attempt.attempts;
  }
  out.latency_ms = NowMs() - started_ms;
  return out;
}

ProbeOutcome ProbeWithHedging(ShardTarget* shard, const HybridQuery& q,
                              const RequestContext& shard_ctx,
                              const QueryBudget& budget,
                              const ScatterGatherOptions& options) {
  ProbeOutcome out;
  const double started_ms = NowMs();

  // Balanced replica read: one attempt at the preferred replica before the
  // primary. A success never touches the primary (its breaker state must
  // stay as-is); a failure falls through to the normal primary path.
  const int preferred = shard->preferred_replica();
  bool preferred_tried = false;
  if (preferred >= 0 && preferred < shard->replica_count() &&
      shard_ctx.Check().ok()) {
    preferred_tried = true;
    if (TryReplica(shard, preferred, q, shard_ctx, budget, out)) {
      out.primary_probed = false;
      out.latency_ms = NowMs() - started_ms;
      return out;
    }
    out.status = Status::OK();  // the primary attempts start clean
  }

  const RetryPolicy policy{/*max_attempts=*/options.hedging ? 2 : 1,
                           /*initial_backoff_ms=*/0, /*max_backoff_ms=*/0};
  RetryState retry(policy,
                   options.seed ^ (0x9e3779b97f4a7c15ULL *
                                   static_cast<uint64_t>(shard->id() + 1)));

  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    Status alive = shard_ctx.Check();
    if (!alive.ok()) {
      // Out of per-shard budget before this attempt could start: report
      // the context failure unless a previous attempt already produced a
      // more specific error.
      if (out.attempts == 0) out.status = alive;
      break;
    }

    // Equal share of whatever budget is left across the attempts still
    // available, so a fast first failure leaves the hedge a real budget.
    RequestContext attempt_ctx = shard_ctx;
    const int attempts_left = policy.max_attempts - attempt;
    if (shard_ctx.has_deadline() && attempts_left > 1) {
      attempt_ctx =
          shard_ctx.WithDeadlineIn(shard_ctx.remaining_ms() / attempts_left);
    }

    ++out.attempts;
    QueryPlan plan;
    Result<std::vector<QueryHit>> probed =
        shard->Probe(q, attempt_ctx, budget, &plan);
    if (probed.ok()) {
      out.hits = std::move(probed).value();
      out.plan = std::move(plan);
      out.status = Status::OK();
      break;
    }
    out.status = probed.status();
    const double elapsed = NowMs() - started_ms;
    if (!retry.ShouldRetry(out.status, elapsed)) break;
    const double backoff = retry.NextBackoffMs();
    if (backoff > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff));
    }
  }

  // Failover: every primary attempt failed — try the replicas in order.
  // The failed primary attempts stay counted (and reported, so breaker
  // bookkeeping still sees the primary failure even when a replica saves
  // the probe).
  if (!out.status.ok()) {
    const int replicas = shard->replica_count();
    for (int r = 0; r < replicas; ++r) {
      if (preferred_tried && r == preferred) continue;  // already failed
      if (!shard_ctx.Check().ok()) break;
      if (TryReplica(shard, r, q, shard_ctx, budget, out)) break;
    }
  }
  out.latency_ms = NowMs() - started_ms;
  return out;
}

/// True when the query's spatial predicate provably selects nothing inside
/// `region` (so the shard cannot contribute a hit). kKnn never prunes: the
/// nearest neighbours of a point can live in any cell.
bool RegionDisjoint(const HybridQuery& q, const geo::BoundingBox& region) {
  if (!q.spatial.has_value() || region.IsEmpty()) return false;
  switch (q.spatial->kind) {
    case SpatialPredicate::Kind::kRange:
      return !region.Intersects(q.spatial->range);
    case SpatialPredicate::Kind::kVisibleAt:
      return !region.Contains(q.spatial->point);
    case SpatialPredicate::Kind::kKnn:
      return false;
  }
  return false;
}

bool VisualRanked(const HybridQuery& q) { return q.visual.has_value(); }

/// Drops duplicate image ids, keeping the first (best-ranked) occurrence in
/// the already-sorted stream. During a cell migration both the source and
/// the target shard serve the moving rows, and the two copies carry the
/// same global id — the union deduped by id is exactly the unsharded
/// result. Outside a migration routing makes ids shard-unique, so this is
/// a no-op.
void DedupById(std::vector<QueryHit>& hits) {
  std::unordered_set<int64_t> seen;
  seen.reserve(hits.size());
  size_t w = 0;
  for (size_t i = 0; i < hits.size(); ++i) {
    if (!seen.insert(hits[i].image_id).second) continue;
    if (w != i) hits[w] = std::move(hits[i]);
    ++w;
  }
  hits.resize(w);
}

/// Merges per-shard streams into the global order the unsharded engine
/// would produce: visual distance (ties by id) when a visual predicate
/// participated, kNN score for spatial rankings, ascending image id for
/// pure filters. Top-k truncation is re-applied globally — each shard
/// already truncated locally, so the union's top k is the global top k.
std::vector<QueryHit> MergeHits(std::vector<QueryHit> hits,
                                const HybridQuery& q) {
  if (VisualRanked(q)) {
    std::sort(hits.begin(), hits.end(),
              [](const QueryHit& a, const QueryHit& b) {
                if (a.visual_distance != b.visual_distance)
                  return a.visual_distance < b.visual_distance;
                return a.image_id < b.image_id;
              });
    DedupById(hits);
    if (q.visual->kind == VisualPredicate::Kind::kTopK &&
        hits.size() > static_cast<size_t>(q.visual->k)) {
      hits.resize(static_cast<size_t>(q.visual->k));
    }
  } else if (q.spatial.has_value() &&
             q.spatial->kind == SpatialPredicate::Kind::kKnn) {
    std::sort(hits.begin(), hits.end(),
              [](const QueryHit& a, const QueryHit& b) {
                if (a.score != b.score) return a.score < b.score;
                return a.image_id < b.image_id;
              });
    DedupById(hits);
    if (hits.size() > static_cast<size_t>(q.spatial->k)) {
      hits.resize(static_cast<size_t>(q.spatial->k));
    }
  } else {
    std::sort(hits.begin(), hits.end(),
              [](const QueryHit& a, const QueryHit& b) {
                return a.image_id < b.image_id;
              });
    DedupById(hits);
  }
  if (q.limit > 0 && hits.size() > static_cast<size_t>(q.limit)) {
    hits.resize(static_cast<size_t>(q.limit));
  }
  return hits;
}

Json IntArray(const std::vector<int>& v) {
  Json arr = Json::MakeArray();
  for (int i : v) arr.Append(Json(i));
  return arr;
}

}  // namespace

std::string ShardOutcomeName(ShardOutcome o) {
  switch (o) {
    case ShardOutcome::kProbed:
      return "probed";
    case ShardOutcome::kPruned:
      return "pruned";
    case ShardOutcome::kShed:
      return "shed";
    case ShardOutcome::kBreakerOpen:
      return "breaker_open";
    case ShardOutcome::kFailed:
      return "failed";
    case ShardOutcome::kMigrating:
      return "migrating";
    case ShardOutcome::kFailedOver:
      return "failed_over";
  }
  return "unknown";
}

std::vector<int> Coverage::ProbedShards() const {
  std::vector<int> out;
  for (const ShardReport& r : reports) {
    if (r.outcome == ShardOutcome::kProbed ||
        r.outcome == ShardOutcome::kMigrating ||
        r.outcome == ShardOutcome::kFailedOver) {
      out.push_back(r.shard);
    }
  }
  return out;
}

std::vector<int> Coverage::SkippedShards() const {
  std::vector<int> out;
  for (const ShardReport& r : reports) {
    if (r.outcome == ShardOutcome::kPruned ||
        r.outcome == ShardOutcome::kShed ||
        r.outcome == ShardOutcome::kBreakerOpen) {
      out.push_back(r.shard);
    }
  }
  return out;
}

std::vector<int> Coverage::FailedShards() const {
  std::vector<int> out;
  for (const ShardReport& r : reports)
    if (r.outcome == ShardOutcome::kFailed) out.push_back(r.shard);
  return out;
}

bool Coverage::complete() const {
  for (const ShardReport& r : reports) {
    if (r.outcome != ShardOutcome::kProbed &&
        r.outcome != ShardOutcome::kPruned &&
        r.outcome != ShardOutcome::kMigrating &&
        r.outcome != ShardOutcome::kFailedOver) {
      return false;
    }
  }
  return true;
}

Json Coverage::ToJson() const {
  Json obj = Json::MakeObject();
  obj["total_shards"] = Json(total_shards);
  obj["probed_shards"] = IntArray(ProbedShards());
  obj["skipped_shards"] = IntArray(SkippedShards());
  obj["failed_shards"] = IntArray(FailedShards());
  obj["complete"] = Json(complete());
  Json shards = Json::MakeArray();
  for (const ShardReport& r : reports) {
    Json s = Json::MakeObject();
    s["shard"] = Json(r.shard);
    s["outcome"] = Json(ShardOutcomeName(r.outcome));
    if (!r.error.ok()) {
      s["error"] = Json(std::string(StatusCodeName(r.error.code())));
    }
    s["attempts"] = Json(r.attempts);
    s["rows"] = Json(r.rows);
    if (r.replica >= 0) s["replica"] = Json(r.replica);
    if (r.estimated_rows >= 0) s["estimated_rows"] = Json(r.estimated_rows);
    shards.Append(std::move(s));
  }
  obj["shards"] = std::move(shards);
  return obj;
}

Result<ShardedResult> ScatterGather::Execute(
    const std::vector<ShardTarget*>& shards, ThreadPool* pool,
    const HybridQuery& q, const RequestContext* ctx, const QueryBudget& budget,
    const ScatterGatherOptions& options) {
  if (shards.empty()) {
    return Status::InvalidArgument("scatter-gather requires at least 1 shard");
  }
  for (ShardTarget* s : shards) {
    if (s == nullptr) {
      return Status::InvalidArgument("scatter-gather shard target is null");
    }
  }
  if (!(options.per_shard_deadline_fraction > 0) ||
      options.per_shard_deadline_fraction > 1) {
    return Status::InvalidArgument(
        "per_shard_deadline_fraction must be in (0, 1]");
  }
  if (!(options.degraded_keep_fraction > 0) ||
      options.degraded_keep_fraction > 1) {
    return Status::InvalidArgument(
        "degraded_keep_fraction must be in (0, 1]");
  }
  TVDP_RETURN_IF_ERROR(Planner::Validate(q));
  if (ctx != nullptr) TVDP_RETURN_IF_ERROR(ctx->Check());
  if (pool == nullptr) pool = &ThreadPool::Shared();

  const RequestContext base_ctx = (ctx != nullptr) ? *ctx : RequestContext();
  const size_t n = shards.size();

  ShardedResult result;
  result.coverage.total_shards = static_cast<int>(n);
  result.coverage.reports.resize(n);
  for (size_t i = 0; i < n; ++i) {
    result.coverage.reports[i].shard = shards[i]->id();
  }

  // --- classify: prune by region, prune by exact-empty estimate, shed ---
  //
  // The single-shard manager bypasses all of this: there is nothing to
  // prune or shed, and skipping the whole stage keeps a 1-shard deployment
  // byte-identical to the unsharded engine (same context, same plan).
  std::vector<size_t> eligible;
  if (n == 1) {
    eligible.push_back(0);
  } else {
    for (size_t i = 0; i < n; ++i) {
      ShardReport& report = result.coverage.reports[i];
      if (RegionDisjoint(q, shards[i]->region())) {
        report.outcome = ShardOutcome::kPruned;
        continue;
      }
      ShardEstimate est = shards[i]->Estimate(q);
      report.estimated_rows = est.rows;
      if (est.provably_empty) {
        report.outcome = ShardOutcome::kPruned;
        continue;
      }
      eligible.push_back(i);
    }

    if (options.shed_low_selectivity && eligible.size() > 1) {
      // Keep the highest-estimated-selectivity shards; unknown estimates
      // (-1) are kept — shedding needs positive evidence of low yield.
      size_t keep = static_cast<size_t>(
          std::ceil(static_cast<double>(eligible.size()) *
                    options.degraded_keep_fraction));
      keep = std::max<size_t>(1, std::min(keep, eligible.size()));
      std::vector<size_t> order = eligible;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const double ea = result.coverage.reports[a].estimated_rows;
        const double eb = result.coverage.reports[b].estimated_rows;
        const double ka = ea < 0 ? std::numeric_limits<double>::infinity() : ea;
        const double kb = eb < 0 ? std::numeric_limits<double>::infinity() : eb;
        return ka > kb;
      });
      std::vector<size_t> kept(order.begin(),
                               order.begin() + static_cast<long>(keep));
      std::sort(kept.begin(), kept.end());
      for (size_t i = keep; i < order.size(); ++i) {
        result.coverage.reports[order[i]].outcome = ShardOutcome::kShed;
      }
      eligible = std::move(kept);
    }
  }

  // --- scatter: breaker gate, per-shard deadline slice, hedged probe ---
  //
  // The breaker gate runs immediately before each probe launch: a
  // half-open circuit admits exactly one probe and waits for its outcome,
  // so asking the gate for a shard that then isn't probed would wedge it.
  struct Launched {
    size_t index;
    std::future<ProbeOutcome> future;
    /// The breaker blocked the primary; only replicas were probed. A
    /// success is kFailedOver, a failure falls back to kBreakerOpen.
    bool breaker_blocked = false;
  };
  std::vector<Launched> launched;
  launched.reserve(eligible.size());
  for (size_t i : eligible) {
    ShardTarget* shard = shards[i];
    RequestContext shard_ctx = base_ctx;
    if (n > 1 && base_ctx.has_deadline()) {
      shard_ctx = base_ctx.WithDeadlineIn(base_ctx.remaining_ms() *
                                          options.per_shard_deadline_fraction);
    }
    if (options.admit && !options.admit(shard->id())) {
      if (shard->replica_count() > 0) {
        // The primary's circuit is open but a replica can stand in: probe
        // the replicas only (the gate never admitted the primary, so its
        // breaker bookkeeping must see nothing).
        launched.push_back({i, pool->Submit([shard, q, shard_ctx, budget]() {
                              return ProbeReplicasOnly(shard, q, shard_ctx,
                                                       budget);
                            }),
                            /*breaker_blocked=*/true});
      } else {
        result.coverage.reports[i].outcome = ShardOutcome::kBreakerOpen;
      }
      continue;
    }
    launched.push_back(
        {i, pool->Submit([shard, q, shard_ctx, budget, &options]() {
           return ProbeWithHedging(shard, q, shard_ctx, budget, options);
         })});
  }

  // --- gather ---
  std::vector<QueryHit> all_hits;
  size_t probed = 0;
  for (Launched& l : launched) {
    ProbeOutcome out = l.future.get();
    ShardReport& report = result.coverage.reports[l.index];
    report.latency_ms = out.latency_ms;
    report.attempts = out.attempts;
    report.replica = out.replica;
    report.primary_probed = out.primary_probed;
    if (out.status.ok()) {
      if (l.breaker_blocked || (out.replica >= 0 && out.primary_probed)) {
        // A replica answered for an unreachable primary (probe failed or
        // breaker blocked): the result is exact, the outcome names the
        // stand-in.
        report.outcome = ShardOutcome::kFailedOver;
      } else {
        report.outcome = shards[l.index]->migrating()
                             ? ShardOutcome::kMigrating
                             : ShardOutcome::kProbed;
      }
      report.rows = out.hits.size();
      ++probed;
      all_hits.insert(all_hits.end(), out.hits.begin(), out.hits.end());
      result.plans.emplace_back(shards[l.index]->id(), std::move(out.plan));
      if (probed == 1 && launched.size() == 1) {
        // Sole probe: pass the shard's stream through untouched so a
        // 1-shard deployment stays byte-identical to the unsharded engine.
        result.hits = std::move(out.hits);
      }
    } else {
      report.outcome =
          l.breaker_blocked ? ShardOutcome::kBreakerOpen : ShardOutcome::kFailed;
      report.error = out.status;
    }
    if (options.observe) options.observe(report);
  }

  // --- partial-result semantics ---
  if (options.require_full_coverage) {
    for (const ShardReport& r : result.coverage.reports) {
      if (r.outcome == ShardOutcome::kFailed) return r.error;
      if (r.outcome == ShardOutcome::kBreakerOpen) {
        return Status::Unavailable("shard " + std::to_string(r.shard) +
                                   " circuit breaker open");
      }
    }
  }
  if (probed == 0) {
    for (const ShardReport& r : result.coverage.reports) {
      if (r.outcome == ShardOutcome::kFailed) return r.error;
    }
    std::vector<int> blocked;
    for (const ShardReport& r : result.coverage.reports) {
      if (r.outcome == ShardOutcome::kShed ||
          r.outcome == ShardOutcome::kBreakerOpen) {
        blocked.push_back(r.shard);
      }
    }
    if (!blocked.empty()) {
      // Retry hint: derived from the blocked shards when the caller can
      // (e.g. the earliest breaker half-open deadline), a static fallback
      // otherwise.
      const double hint = options.retry_after_hint
                              ? options.retry_after_hint(blocked)
                              : 50.0;
      return WithRetryAfterHint(
          Status::Unavailable("no shard available to answer the query"),
          hint);
    }
    // Every shard pruned: the query provably selects nothing.
    return result;
  }

  if (!(probed == 1 && launched.size() == 1)) {
    result.hits = MergeHits(std::move(all_hits), q);
  }
  return result;
}

}  // namespace tvdp::query
