#include "query/planner.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace tvdp::query {

const storage::Table* FindTable(const AccessPaths& access,
                                const std::string& name) {
  auto it = access.tables->find(name);
  return it == access.tables->end() ? nullptr : it->second.get();
}

namespace {

/// Families in declaration order — the tie-break order for seed selection
/// and the order the legacy plan string lists verify conjuncts in.
const char* const kFamilies[] = {"spatial", "visual", "categorical", "textual",
                                 "temporal"};

bool HasFamily(const HybridQuery& q, const std::string& family) {
  if (family == "spatial") return q.spatial.has_value();
  if (family == "visual") return q.visual.has_value();
  if (family == "categorical") return q.categorical.has_value();
  if (family == "textual") return q.textual.has_value();
  if (family == "temporal") return q.temporal.has_value();
  return false;
}

std::vector<std::string> TokenizedTerms(const TextualPredicate& pred) {
  std::vector<std::string> terms;
  for (const std::string& kw : pred.keywords) {
    for (const std::string& t : TokenizeWords(kw)) terms.push_back(t);
  }
  return terms;
}

std::string ProbeDetail(const HybridQuery& q, const std::string& family,
                        const QueryBudget& budget) {
  if (family == "spatial") {
    switch (q.spatial->kind) {
      case SpatialPredicate::Kind::kRange:
        return "rtree+fov range";
      case SpatialPredicate::Kind::kKnn:
        return StrFormat("rtree knn k=%d", q.spatial->k);
      case SpatialPredicate::Kind::kVisibleAt:
        return "fov visible-at";
    }
  }
  if (family == "visual") {
    if (q.visual->kind == VisualPredicate::Kind::kTopK) {
      std::string out = StrFormat("lsh(%s) k=%d fetch=%d",
                                  q.visual->feature_kind.c_str(), q.visual->k,
                                  Planner::VisualTopKFetch(*q.visual, budget));
      if (budget.lsh_probes >= 0) {
        out += StrFormat(" probes=%d", budget.lsh_probes);
      }
      return out;
    }
    std::string out = StrFormat("lsh(%s) threshold=%g",
                                q.visual->feature_kind.c_str(),
                                q.visual->threshold);
    if (budget.lsh_probes >= 0) {
      out += StrFormat(" probes=%d", budget.lsh_probes);
    }
    return out;
  }
  if (family == "categorical") {
    return StrFormat("annotations %s/%s", q.categorical->classification.c_str(),
                     q.categorical->label.c_str());
  }
  if (family == "textual") {
    return StrFormat("inverted %s(%zu terms)",
                     q.textual->mode == TextualPredicate::Mode::kAnd ? "and"
                                                                     : "or",
                     TokenizedTerms(*q.textual).size());
  }
  if (family == "temporal") {
    return StrFormat("temporal [%lld, %lld]",
                     static_cast<long long>(q.temporal->begin),
                     static_cast<long long>(q.temporal->end));
  }
  return family;
}

/// Strategy for a conjunct in the verify role. Set-valued conjuncts
/// (categorical, textual, spatial range and visible-at, whose FOV
/// membership only the FOV index answers) are probed once into an id set;
/// row-valued conjuncts (temporal, visual distance) are O(1) against the
/// already-fetched catalog row and stay per-candidate scans. Spatial kNN
/// never verifies: it always seeds.
ConjunctPlan::Strategy VerifyStrategy(const std::string& family) {
  if (family == "categorical" || family == "textual" || family == "spatial") {
    return ConjunctPlan::Strategy::kMaterializeProbe;
  }
  return ConjunctPlan::Strategy::kVerifyScan;
}

}  // namespace

Status Planner::Validate(const HybridQuery& q) {
  if (q.spatial) {
    switch (q.spatial->kind) {
      case SpatialPredicate::Kind::kRange:
        if (q.spatial->range.IsEmpty()) {
          return Status::InvalidArgument("empty query box");
        }
        break;
      case SpatialPredicate::Kind::kKnn:
        if (q.spatial->k <= 0) {
          return Status::InvalidArgument("k must be positive");
        }
        break;
      case SpatialPredicate::Kind::kVisibleAt:
        if (!geo::IsValid(q.spatial->point)) {
          return Status::InvalidArgument("invalid point");
        }
        break;
    }
  }
  if (q.visual) {
    if (q.visual->feature.empty()) {
      return Status::InvalidArgument("empty feature vector");
    }
    if (q.visual->kind == VisualPredicate::Kind::kTopK && q.visual->k <= 0) {
      return Status::InvalidArgument("k must be positive");
    }
    if (q.visual->kind == VisualPredicate::Kind::kThreshold &&
        q.visual->threshold < 0) {
      return Status::InvalidArgument("negative visual threshold");
    }
  }
  if (q.textual) {
    if (q.textual->keywords.empty()) {
      return Status::InvalidArgument("no keywords given");
    }
    for (const std::string& kw : q.textual->keywords) {
      if (TokenizeWords(kw).empty()) {
        return Status::InvalidArgument("empty keyword");
      }
    }
  }
  if (q.temporal && q.temporal->begin > q.temporal->end) {
    return Status::InvalidArgument("temporal range inverted: begin after end");
  }
  return Status::OK();
}

double Planner::EstimateFamily(const AccessPaths& access, const HybridQuery& q,
                               const std::string& family) {
  double n = static_cast<double>(std::max<size_t>(access.points->size(), 1));
  if (family == "spatial" && q.spatial) {
    switch (q.spatial->kind) {
      case SpatialPredicate::Kind::kKnn:
        return static_cast<double>(q.spatial->k);
      case SpatialPredicate::Kind::kRange: {
        // SpatialRange unions FOV-intersect and camera-point hits; the sum
        // of the two estimates is an upper bound (images usually appear in
        // both), capped at the corpus size.
        double est = access.points->CardinalityEstimate(q.spatial->range) +
                     access.fovs->CardinalityEstimate(q.spatial->range);
        return std::clamp(est, 0.0, n);
      }
      case SpatialPredicate::Kind::kVisibleAt: {
        geo::BoundingBox pt;
        pt.min_lat = pt.max_lat = q.spatial->point.lat;
        pt.min_lon = pt.max_lon = q.spatial->point.lon;
        return std::clamp(access.fovs->CardinalityEstimate(pt), 0.0, n);
      }
    }
  }
  if (family == "visual" && q.visual) {
    if (q.visual->kind == VisualPredicate::Kind::kTopK) {
      return static_cast<double>(q.visual->k);
    }
    auto it = access.lsh->find(q.visual->feature_kind);
    if (it == access.lsh->end()) return n;  // unknown kind: NotFound later
    return std::clamp(it->second->CardinalityEstimate(q.visual->feature), 0.0,
                      n);
  }
  if (family == "categorical" && q.categorical) {
    // Annotations have no engine index; assume a typical task has 8 labels
    // and annotations cover the corpus — documented heuristic.
    return n / 8.0;
  }
  if (family == "textual" && q.textual) {
    return access.keywords->CardinalityEstimate(TokenizedTerms(*q.textual),
                                                q.textual->mode ==
                                                    TextualPredicate::Mode::kAnd);
  }
  if (family == "temporal" && q.temporal) {
    return access.temporal->CardinalityEstimate(q.temporal->begin,
                                                q.temporal->end);
  }
  return n;
}

int Planner::VisualTopKFetch(const VisualPredicate& pred,
                             const QueryBudget& budget) {
  // Formula frozen: the pre-planner engine used exactly this, and the
  // candidate counts it produces are part of the observable plan surface.
  int fetch = budget.degraded() ? pred.k * 2 + 8 : pred.k * 4 + 16;
  if (budget.max_candidates > 0) {
    fetch = std::min(fetch, static_cast<int>(budget.max_candidates));
    fetch = std::max(fetch, pred.k);
  }
  return fetch;
}

Result<QueryPlan> Planner::BuildPlan(const AccessPaths& access,
                                     const HybridQuery& q,
                                     const QueryBudget& budget,
                                     const PlannerOptions& options) {
  std::vector<std::string> families;
  for (const char* f : kFamilies) {
    if (HasFamily(q, f)) families.push_back(f);
  }
  if (families.empty()) {
    return Status::InvalidArgument("hybrid query has no predicates");
  }
  TVDP_RETURN_IF_ERROR(Validate(q));

  double n = static_cast<double>(std::max<size_t>(access.points->size(), 1));
  std::vector<std::pair<std::string, double>> estimates;
  for (const std::string& f : families) {
    estimates.emplace_back(f, EstimateFamily(access, q, f));
  }
  auto estimate_of = [&](const std::string& f) {
    for (const auto& [name, est] : estimates) {
      if (name == f) return est;
    }
    return n;
  };

  // Ranking predicates must seed (they define an order, not a filter);
  // spatial kNN outranks visual top-k, matching the pre-planner engine.
  // Otherwise the cheapest estimate seeds, ties broken by family order.
  std::string seed;
  bool seed_forced = false;
  if (q.spatial && q.spatial->kind == SpatialPredicate::Kind::kKnn) {
    seed = "spatial";
    seed_forced = true;
  } else if (q.visual && q.visual->kind == VisualPredicate::Kind::kTopK) {
    seed = "visual";
    seed_forced = true;
  } else {
    double best = -1;
    for (const auto& [name, est] : estimates) {
      if (best < 0 || est < best) {
        best = est;
        seed = name;
      }
    }
  }
  if (!options.force_seed.empty() && !seed_forced) {
    if (!HasFamily(q, options.force_seed)) {
      return Status::InvalidArgument("force_seed family not in query: " +
                                     options.force_seed);
    }
    seed = options.force_seed;
  }

  QueryPlan plan;
  plan.seed_family = seed;
  plan.budget = budget;
  plan.degraded = budget.degraded();

  // Conjunct order: seed first, then verify conjuncts by ascending
  // estimate (cheapest rejector first — selectivity ordering applies to
  // the verify short-circuit too, not just the seed choice).
  ConjunctPlan seed_conjunct;
  seed_conjunct.family = seed;
  seed_conjunct.strategy = ConjunctPlan::Strategy::kSeedProbe;
  seed_conjunct.estimated_rows = estimate_of(seed);
  plan.conjuncts.push_back(seed_conjunct);
  std::vector<std::pair<double, std::string>> verify_order;
  for (const std::string& f : families) {
    if (f != seed) verify_order.emplace_back(estimate_of(f), f);
  }
  std::stable_sort(verify_order.begin(), verify_order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [est, f] : verify_order) {
    ConjunctPlan c;
    c.family = f;
    c.strategy = VerifyStrategy(f);
    c.estimated_rows = est;
    plan.conjuncts.push_back(c);
  }

  // --- Operator tree: IndexProbe -> Dedup -> Verify -> TopK -> Rerank ->
  // Limit, innermost first. Estimates compose multiplicatively under an
  // independence assumption (each verify conjunct keeps est/n of rows).
  PlanNode probe;
  probe.op = "IndexProbe";
  probe.detail = StrFormat("%s: %s", seed.c_str(),
                           ProbeDetail(q, seed, budget).c_str());
  if (seed == "visual" && q.visual->kind == VisualPredicate::Kind::kTopK) {
    probe.estimated_rows = VisualTopKFetch(*q.visual, budget);
  } else {
    probe.estimated_rows = estimate_of(seed);
  }

  PlanNode dedup;
  dedup.op = "Dedup";
  dedup.detail = "by image id";
  dedup.estimated_rows = probe.estimated_rows;
  if (budget.max_candidates > 0) {
    dedup.detail += StrFormat(" cap=%zu", budget.max_candidates);
    dedup.estimated_rows = std::min(
        dedup.estimated_rows, static_cast<double>(budget.max_candidates));
  }
  dedup.children.push_back(std::move(probe));

  PlanNode verify;
  verify.op = "Verify";
  double keep_fraction = 1.0;
  std::string verify_detail;
  for (size_t i = 1; i < plan.conjuncts.size(); ++i) {
    const ConjunctPlan& c = plan.conjuncts[i];
    keep_fraction *= std::clamp(c.estimated_rows / n, 0.0, 1.0);
    if (!verify_detail.empty()) verify_detail += " ";
    verify_detail += c.family + ":" +
                     std::string(ConjunctStrategyName(c.strategy));
  }
  verify.detail = verify_detail.empty() ? "none" : verify_detail;
  verify.estimated_rows = dedup.estimated_rows * keep_fraction;
  verify.children.push_back(std::move(dedup));
  // Materialized side-probes appear as extra children so EXPLAIN shows
  // which conjuncts are probed once vs scanned per candidate.
  for (size_t i = 1; i < plan.conjuncts.size(); ++i) {
    const ConjunctPlan& c = plan.conjuncts[i];
    if (c.strategy != ConjunctPlan::Strategy::kMaterializeProbe) continue;
    PlanNode side;
    side.op = "MaterializeProbe";
    side.detail = StrFormat("%s: %s", c.family.c_str(),
                            ProbeDetail(q, c.family, budget).c_str());
    side.estimated_rows = c.estimated_rows;
    verify.children.push_back(std::move(side));
  }

  PlanNode top = std::move(verify);
  if (q.visual && q.visual->kind == VisualPredicate::Kind::kTopK) {
    PlanNode topk;
    topk.op = "TopK";
    topk.detail = StrFormat("k=%d", q.visual->k);
    topk.estimated_rows =
        std::min(top.estimated_rows, static_cast<double>(q.visual->k));
    topk.children.push_back(std::move(top));
    top = std::move(topk);
  }
  if (q.visual) {
    PlanNode rerank;
    rerank.op = "Rerank";
    rerank.detail = "order=score asc";
    rerank.estimated_rows = top.estimated_rows;
    rerank.children.push_back(std::move(top));
    top = std::move(rerank);
  }
  if (q.limit > 0) {
    PlanNode limit;
    limit.op = "Limit";
    limit.detail = StrFormat("limit=%d", q.limit);
    limit.estimated_rows =
        std::min(top.estimated_rows, static_cast<double>(q.limit));
    limit.children.push_back(std::move(top));
    top = std::move(limit);
  }
  plan.root = std::move(top);
  return plan;
}

}  // namespace tvdp::query
