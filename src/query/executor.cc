#include "query/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "storage/catalog.h"
#include "storage/tvdp_schema.h"

namespace tvdp::query {

using storage::Row;
using storage::RowId;
using storage::Table;
using storage::Value;
namespace tables = storage::tables;

namespace {

/// Rows per Next() batch. Large enough that virtual-call overhead is
/// negligible, small enough that streaming operators (Limit over a
/// non-visual query) terminate early with little wasted work.
constexpr size_t kBatchSize = 256;

/// Below this many candidates a hybrid verification runs sequentially —
/// scheduling would cost more than the verification itself.
constexpr size_t kParallelVerifyMin = 64;

/// Below this many kNN candidates the exact-distance re-rank runs inline.
constexpr size_t kParallelKnnRerankMin = 64;

std::vector<QueryHit> ToHits(const std::vector<index::RecordId>& ids) {
  std::vector<QueryHit> out;
  out.reserve(ids.size());
  for (index::RecordId id : ids) out.push_back(QueryHit{id, 0, 0});
  return out;
}

/// Annotates a failed-context status with where the query stopped and how
/// far it got, e.g. "request deadline exceeded during hybrid verify
/// (120/400 candidates)". Partial results themselves are discarded; only
/// this progress metadata escapes.
Status ContextError(const Status& s, const char* stage, size_t done,
                    size_t total) {
  return Status(s.code(), StrFormat("%s during %s (%zu/%zu candidates)",
                                    s.message().c_str(), stage, done, total));
}

/// The type id of `pred`'s label, from the snapshot's classification
/// registry (published in the same version as the registry's rows).
Result<int64_t> LookupTypeId(const AccessPaths& access,
                             const CategoricalPredicate& pred) {
  auto cls = access.classifications->find(pred.classification);
  if (cls == access.classifications->end()) {
    return Status::NotFound("no classification named " + pred.classification);
  }
  const std::map<std::string, int64_t>& labels = cls->second.second;
  auto type = labels.find(pred.label);
  if (type == labels.end()) {
    return Status::NotFound("no label " + pred.label + " in " +
                            pred.classification);
  }
  return type->second;
}

/// Keeps the first hit per image id, preserving order. Seeds such as LSH
/// (one entry per stored vector) can surface the same image several times;
/// hits arrive sorted by distance for visual seeds, so "first" is also
/// "closest".
void DedupHitsById(std::vector<QueryHit>* hits) {
  std::unordered_set<int64_t> seen;
  seen.reserve(hits->size());
  size_t w = 0;
  for (size_t r = 0; r < hits->size(); ++r) {
    if (seen.insert((*hits)[r].image_id).second) {
      (*hits)[w++] = (*hits)[r];
    }
  }
  hits->resize(w);
}

}  // namespace

Result<std::vector<QueryHit>> EvalSpatialRange(const AccessPaths& access,
                                               const geo::BoundingBox& box,
                                               const RequestContext* ctx) {
  if (box.IsEmpty()) return Status::InvalidArgument("empty query box");
  if (ctx) TVDP_RETURN_IF_ERROR(ctx->Check());
  // Prefer FOV semantics when FOVs exist; union with camera-point hits so
  // images without FOV metadata still surface.
  std::vector<index::RecordId> ids = access.fovs->RangeSearch(box, ctx);
  if (ctx) {
    Status s = ctx->Check();
    if (!s.ok()) {
      return ContextError(s, "spatial range refine", ids.size(), ids.size());
    }
  }
  std::vector<index::RecordId> points = access.points->RangeSearch(box);
  ids.insert(ids.end(), points.begin(), points.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ToHits(ids);
}

Result<std::vector<QueryHit>> EvalSpatialKnn(const AccessPaths& access,
                                             const geo::GeoPoint& p, int k,
                                             const RequestContext* ctx) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (ctx) TVDP_RETURN_IF_ERROR(ctx->Check());
  // The R-tree orders candidates by box min-distance in *degree* space,
  // where a degree of longitude counts the same as a degree of latitude;
  // away from the equator that misorders near-ties. Over-fetch by degree
  // distance, then re-rank the candidates by exact geodesic distance,
  // fanning the distance computations (each an in-place row lookup +
  // haversine) out across the pool when the set is large. A dangling
  // candidate id keeps the lookup's NotFound.
  int fetch = k + k / 2 + 8;
  std::vector<index::RecordId> ids = access.points->KNearest(p, fetch);
  const Table* images = FindTable(access, tables::kImages);
  if (!images) return Status::FailedPrecondition("images table missing");
  const storage::Schema& schema = images->schema();
  const size_t lat_idx = static_cast<size_t>(schema.ColumnIndex("lat"));
  const size_t lon_idx = static_cast<size_t>(schema.ColumnIndex("lon"));
  std::vector<std::pair<double, index::RecordId>> ranked(ids.size());
  auto rank_span = [&](size_t begin, size_t end) -> Status {
    for (size_t i = begin; i < end; ++i) {
      TVDP_ASSIGN_OR_RETURN(const Row* img, images->Get(ids[i]));
      geo::GeoPoint loc{(*img)[lat_idx].AsDouble(), (*img)[lon_idx].AsDouble()};
      ranked[i] = {geo::HaversineMeters(p, loc), ids[i]};
    }
    return Status::OK();
  };
  if (ctx && ranked.size() >= kParallelKnnRerankMin) {
    Status s = access.pool->ParallelFor(*ctx, ranked.size(), 16, rank_span);
    if (!s.ok()) {
      if (s.code() == StatusCode::kDeadlineExceeded ||
          s.code() == StatusCode::kCancelled) {
        return ContextError(s, "spatial kNN re-rank", 0, ranked.size());
      }
      return s;
    }
  } else if (ranked.size() >= kParallelKnnRerankMin) {
    TVDP_RETURN_IF_ERROR(access.pool->ParallelFor(ranked.size(), 16, rank_span));
  } else {
    if (ctx) TVDP_RETURN_IF_ERROR(ctx->Check());
    TVDP_RETURN_IF_ERROR(rank_span(0, ranked.size()));
  }
  std::sort(ranked.begin(), ranked.end());
  if (ranked.size() > static_cast<size_t>(k)) {
    ranked.resize(static_cast<size_t>(k));
  }
  std::vector<QueryHit> out;
  out.reserve(ranked.size());
  for (const auto& [dist, id] : ranked) out.push_back(QueryHit{id, 0, dist});
  return out;
}

Result<std::vector<QueryHit>> EvalVisibleAt(const AccessPaths& access,
                                            const geo::GeoPoint& p,
                                            const RequestContext* ctx) {
  if (!geo::IsValid(p)) return Status::InvalidArgument("invalid point");
  if (ctx) TVDP_RETURN_IF_ERROR(ctx->Check());
  std::vector<index::RecordId> hits = access.fovs->PointQuery(p, ctx);
  if (ctx) {
    Status s = ctx->Check();
    if (!s.ok()) {
      return ContextError(s, "FOV point refine", hits.size(), hits.size());
    }
  }
  return ToHits(hits);
}

Result<std::vector<QueryHit>> EvalVisualTopK(const AccessPaths& access,
                                             const std::string& kind,
                                             const ml::FeatureVector& feature,
                                             int k, const RequestContext* ctx,
                                             const QueryBudget& budget) {
  if (feature.empty()) return Status::InvalidArgument("empty feature vector");
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  auto it = access.lsh->find(kind);
  if (it == access.lsh->end()) {
    return Status::NotFound("no feature index for kind: " + kind);
  }
  if (ctx) TVDP_RETURN_IF_ERROR(ctx->Check());
  auto ranked = it->second->KNearest(feature, k, ctx, budget.lsh_probes);
  if (ctx) {
    // The LSH returns whatever it ranked before the context failed;
    // discard it — partial top-k lists are misleading.
    Status s = ctx->Check();
    if (!s.ok()) {
      return ContextError(s, "LSH probe/rank", ranked.size(), ranked.size());
    }
  }
  std::vector<QueryHit> out;
  for (const auto& [id, dist] : ranked) {
    out.push_back(QueryHit{id, dist, dist});
  }
  DedupHitsById(&out);
  return out;
}

Result<std::vector<QueryHit>> EvalVisualThreshold(
    const AccessPaths& access, const std::string& kind,
    const ml::FeatureVector& feature, double threshold,
    const RequestContext* ctx, const QueryBudget& budget) {
  if (feature.empty()) return Status::InvalidArgument("empty feature vector");
  if (threshold < 0) return Status::InvalidArgument("negative visual threshold");
  auto it = access.lsh->find(kind);
  if (it == access.lsh->end()) {
    return Status::NotFound("no feature index for kind: " + kind);
  }
  if (ctx) TVDP_RETURN_IF_ERROR(ctx->Check());
  auto ranked = it->second->RangeSearch(feature, threshold, ctx,
                                        budget.lsh_probes);
  if (ctx) {
    Status s = ctx->Check();
    if (!s.ok()) {
      return ContextError(s, "LSH probe/rank", ranked.size(), ranked.size());
    }
  }
  std::vector<QueryHit> out;
  for (const auto& [id, dist] : ranked) {
    out.push_back(QueryHit{id, dist, dist});
  }
  DedupHitsById(&out);
  return out;
}

Result<std::vector<QueryHit>> EvalCategorical(
    const AccessPaths& access, const CategoricalPredicate& pred) {
  TVDP_ASSIGN_OR_RETURN(int64_t type_id, LookupTypeId(access, pred));
  const Table* ann = FindTable(access, tables::kImageContentAnnotation);
  if (!ann) return Status::FailedPrecondition("annotation table missing");
  const storage::Schema& as = ann->schema();
  size_t type_idx = static_cast<size_t>(as.ColumnIndex("type_id"));
  size_t conf_idx = static_cast<size_t>(as.ColumnIndex("confidence"));
  size_t src_idx = static_cast<size_t>(as.ColumnIndex("annotation_source"));
  size_t img_idx = static_cast<size_t>(as.ColumnIndex("image_id"));
  // One pass over the annotation rows in place; an image annotated with
  // the label several times is reported once, in ascending id order.
  std::vector<index::RecordId> ids;
  ann->ForEach([&](const Row& r) {
    if (r[type_idx].AsInt64() != type_id) return true;
    if (r[conf_idx].AsDouble() < pred.min_confidence) return true;
    if (!pred.source.empty() && r[src_idx].AsString() != pred.source) {
      return true;
    }
    ids.push_back(r[img_idx].AsInt64());
    return true;
  });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ToHits(ids);
}

Result<std::vector<QueryHit>> EvalTextual(const AccessPaths& access,
                                          const TextualPredicate& pred) {
  if (pred.keywords.empty()) {
    return Status::InvalidArgument("no keywords given");
  }
  std::vector<std::string> terms;
  for (const auto& kw : pred.keywords) {
    std::vector<std::string> toks = TokenizeWords(kw);
    if (toks.empty()) return Status::InvalidArgument("empty keyword");
    for (auto& t : toks) terms.push_back(std::move(t));
  }
  std::vector<index::RecordId> ids = pred.mode == TextualPredicate::Mode::kAnd
                                         ? access.keywords->QueryAnd(terms)
                                         : access.keywords->QueryOr(terms);
  return ToHits(ids);
}

Result<std::vector<QueryHit>> EvalTemporal(const AccessPaths& access,
                                           Timestamp begin, Timestamp end) {
  // Boundary contract: [begin, end] inclusive on both ends; an inverted
  // range is a caller error, never an unspecified scan.
  if (begin > end) {
    return Status::InvalidArgument("temporal range inverted: begin after end");
  }
  return ToHits(access.temporal->RangeSearch(begin, end));
}

namespace {

/// Finds the spine node (first-child chain) with the given operator name.
PlanNode* FindSpineNode(PlanNode* root, const char* op) {
  for (PlanNode* n = root; n != nullptr;
       n = n->children.empty() ? nullptr : &n->children[0]) {
    if (n->op == op) return n;
  }
  return nullptr;
}

/// Leaf operator: runs the seed probe on the first pull, then streams the
/// probe result out in batches.
class SeedProbeOp : public Operator {
 public:
  SeedProbeOp(const AccessPaths& access, const HybridQuery& q,
              const QueryPlan& plan, PlanNode* node)
      : access_(access), q_(q), plan_(plan), node_(node) {}

  Result<std::optional<std::vector<QueryHit>>> Next(
      const RequestContext* ctx) override {
    if (!probed_) {
      probed_ = true;
      TVDP_ASSIGN_OR_RETURN(hits_, Probe(ctx));
      if (node_) node_->actual_rows = static_cast<int64_t>(hits_.size());
    }
    if (pos_ >= hits_.size()) return std::optional<std::vector<QueryHit>>();
    size_t end = std::min(pos_ + kBatchSize, hits_.size());
    std::vector<QueryHit> batch(hits_.begin() + static_cast<ptrdiff_t>(pos_),
                                hits_.begin() + static_cast<ptrdiff_t>(end));
    pos_ = end;
    return std::optional<std::vector<QueryHit>>(std::move(batch));
  }

 private:
  Result<std::vector<QueryHit>> Probe(const RequestContext* ctx) const {
    const std::string& seed = plan_.seed_family;
    if (seed == "spatial") {
      switch (q_.spatial->kind) {
        case SpatialPredicate::Kind::kRange:
          return EvalSpatialRange(access_, q_.spatial->range, ctx);
        case SpatialPredicate::Kind::kKnn:
          return EvalSpatialKnn(access_, q_.spatial->point, q_.spatial->k, ctx);
        case SpatialPredicate::Kind::kVisibleAt:
          return EvalVisibleAt(access_, q_.spatial->point, ctx);
      }
    }
    if (seed == "visual") {
      if (q_.visual->kind == VisualPredicate::Kind::kTopK) {
        return EvalVisualTopK(access_, q_.visual->feature_kind,
                              q_.visual->feature,
                              Planner::VisualTopKFetch(*q_.visual, plan_.budget),
                              ctx, plan_.budget);
      }
      return EvalVisualThreshold(access_, q_.visual->feature_kind,
                                 q_.visual->feature, q_.visual->threshold, ctx,
                                 plan_.budget);
    }
    if (seed == "categorical") return EvalCategorical(access_, *q_.categorical);
    if (seed == "textual") return EvalTextual(access_, *q_.textual);
    return EvalTemporal(access_, q_.temporal->begin, q_.temporal->end);
  }

  const AccessPaths& access_;
  const HybridQuery& q_;
  const QueryPlan& plan_;
  PlanNode* node_;
  bool probed_ = false;
  std::vector<QueryHit> hits_;
  size_t pos_ = 0;
};

/// Streaming dedup + budget cap. An image that matched the seed through
/// several index entries (several stored vectors, repeated keywords, ...)
/// must be verified — and returned — at most once. Once the cap is
/// reached, the remaining input is drained only to count the distinct
/// candidates that were cut (the plan reports "cap=kept/total").
class DedupCapOp : public Operator {
 public:
  DedupCapOp(std::unique_ptr<Operator> child, QueryPlan* plan, PlanNode* node)
      : child_(std::move(child)), plan_(plan), node_(node) {}

  Result<std::optional<std::vector<QueryHit>>> Next(
      const RequestContext* ctx) override {
    const size_t cap = plan_->budget.max_candidates;
    while (!done_) {
      TVDP_ASSIGN_OR_RETURN(auto batch, child_->Next(ctx));
      if (!batch) {
        done_ = true;
        break;
      }
      std::vector<QueryHit> out;
      for (QueryHit& h : *batch) {
        if (!seen_.insert(h.image_id).second) continue;
        ++distinct_;
        if (cap > 0 && emitted_ >= cap) continue;  // counting cut candidates
        ++emitted_;
        out.push_back(h);
      }
      if (!out.empty()) return std::optional<std::vector<QueryHit>>(std::move(out));
    }
    if (!finalized_) {
      finalized_ = true;
      plan_->seed_candidates = emitted_;
      plan_->capped_from = distinct_ > emitted_ ? distinct_ : 0;
      if (node_) node_->actual_rows = static_cast<int64_t>(emitted_);
    }
    return std::optional<std::vector<QueryHit>>();
  }

 private:
  std::unique_ptr<Operator> child_;
  QueryPlan* plan_;
  PlanNode* node_;
  std::unordered_set<int64_t> seen_;
  size_t distinct_ = 0;
  size_t emitted_ = 0;
  bool done_ = false;
  bool finalized_ = false;
};

/// Pipeline breaker: drains the candidate stream, materializes the
/// set-valued conjuncts once, then verifies every candidate — in parallel
/// when the set is large. Survivors stream out in candidate order with
/// their exact visual distance filled in.
class VerifyOp : public Operator {
 public:
  VerifyOp(std::unique_ptr<Operator> child, const AccessPaths& access,
           const HybridQuery& q, QueryPlan* plan, PlanNode* node)
      : child_(std::move(child)),
        access_(access),
        q_(q),
        plan_(plan),
        node_(node) {}

  Result<std::optional<std::vector<QueryHit>>> Next(
      const RequestContext* ctx) override {
    if (!ran_) {
      ran_ = true;
      TVDP_RETURN_IF_ERROR(RunVerify(ctx));
    }
    if (pos_ >= kept_.size()) return std::optional<std::vector<QueryHit>>();
    size_t end = std::min(pos_ + kBatchSize, kept_.size());
    std::vector<QueryHit> batch(kept_.begin() + static_cast<ptrdiff_t>(pos_),
                                kept_.begin() + static_cast<ptrdiff_t>(end));
    pos_ = end;
    return std::optional<std::vector<QueryHit>>(std::move(batch));
  }

 private:
  Status RunVerify(const RequestContext* ctx) {
    std::vector<QueryHit> candidates;
    while (true) {
      TVDP_ASSIGN_OR_RETURN(auto batch, child_->Next(ctx));
      if (!batch) break;
      candidates.insert(candidates.end(), batch->begin(), batch->end());
    }

    // Materialize set-valued conjuncts once — their membership check was
    // a full index probe per candidate in the pre-planner engine; one
    // probe shared by all candidates is the materialize-probe strategy's
    // payoff. Materialization is lazy: an empty candidate list does no
    // probing (and surfaces no probe errors), matching the old
    // per-candidate behaviour.
    if (!candidates.empty()) {
      TVDP_RETURN_IF_ERROR(Materialize());
      images_ = FindTable(access_, tables::kImages);
      if (!images_) return Status::FailedPrecondition("images table missing");
      captured_idx_ = static_cast<size_t>(
          images_->schema().ColumnIndex("timestamp_capturing"));
    }

    std::vector<char> keep(candidates.size(), 1);
    std::vector<double> distances(candidates.size(), 0);
    for (size_t i = 0; i < candidates.size(); ++i) {
      distances[i] = candidates[i].visual_distance;
    }
    std::atomic<size_t> verified{0};
    auto verify_span = [&](size_t chunk_begin, size_t chunk_end) -> Status {
      for (size_t i = chunk_begin; i < chunk_end; ++i) {
        TVDP_ASSIGN_OR_RETURN(
            bool ok_hit, VerifyOne(candidates[i].image_id, &distances[i]));
        keep[i] = ok_hit ? 1 : 0;
        verified.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::OK();
    };
    Status verify_status = Status::OK();
    if (ctx && candidates.size() >= kParallelVerifyMin) {
      verify_status =
          access_.pool->ParallelFor(*ctx, candidates.size(), 16, verify_span);
    } else if (candidates.size() >= kParallelVerifyMin) {
      verify_status =
          access_.pool->ParallelFor(candidates.size(), 16, verify_span);
    } else {
      if (ctx) verify_status = ctx->Check();
      if (verify_status.ok()) {
        verify_status = verify_span(0, candidates.size());
      }
    }
    if (!verify_status.ok()) {
      if (verify_status.code() == StatusCode::kDeadlineExceeded ||
          verify_status.code() == StatusCode::kCancelled) {
        return ContextError(verify_status, "hybrid verify",
                            verified.load(std::memory_order_relaxed),
                            candidates.size());
      }
      return verify_status;
    }
    kept_.reserve(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!keep[i]) continue;
      kept_.push_back(QueryHit{candidates[i].image_id, distances[i],
                               distances[i]});
    }
    if (node_) node_->actual_rows = static_cast<int64_t>(kept_.size());
    return Status::OK();
  }

  Status Materialize() {
    for (size_t i = 1; i < plan_->conjuncts.size(); ++i) {
      const ConjunctPlan& c = plan_->conjuncts[i];
      if (c.strategy != ConjunctPlan::Strategy::kMaterializeProbe) continue;
      Result<std::vector<QueryHit>> probed =
          c.family == "categorical" ? EvalCategorical(access_, *q_.categorical)
          : c.family == "textual" ? EvalTextual(access_, *q_.textual)
          : q_.spatial->kind == SpatialPredicate::Kind::kVisibleAt
              ? EvalVisibleAt(access_, q_.spatial->point, nullptr)
              : EvalSpatialRange(access_, q_.spatial->range, nullptr);
      TVDP_RETURN_IF_ERROR(probed.status());
      std::unordered_set<int64_t>& ids = materialized_[c.family];
      ids.reserve(probed->size());
      for (const QueryHit& h : *probed) ids.insert(h.image_id);
      // Record the probe's actual cardinality on its side-node.
      if (node_) {
        for (size_t ci = 1; ci < node_->children.size(); ++ci) {
          PlanNode& side = node_->children[ci];
          if (side.op == "MaterializeProbe" &&
              side.detail.rfind(c.family + ":", 0) == 0) {
            side.actual_rows = static_cast<int64_t>(probed->size());
          }
        }
      }
    }
    return Status::OK();
  }

  /// Verifies one candidate against every non-seed conjunct, in the
  /// plan's evaluation order (cheapest rejector first). The image row is
  /// read in place from the snapshot, so a dangling candidate id is a
  /// storage error surfaced to the caller, never silently dropped.
  Result<bool> VerifyOne(RowId id, double* visual_distance) {
    TVDP_ASSIGN_OR_RETURN(const Row* img, images_->Get(id));
    for (size_t i = 1; i < plan_->conjuncts.size(); ++i) {
      const ConjunctPlan& c = plan_->conjuncts[i];
      if (c.strategy == ConjunctPlan::Strategy::kMaterializeProbe) {
        auto it = materialized_.find(c.family);
        if (it == materialized_.end() || it->second.count(id) == 0) {
          return false;
        }
        continue;
      }
      if (c.family == "temporal") {
        Timestamp t = (*img)[captured_idx_].AsInt64();
        if (t < q_.temporal->begin || t > q_.temporal->end) return false;
      } else if (c.family == "visual") {
        // Exact feature distance from the stored feature rows. An image
        // can store several vectors of the same kind; membership and the
        // reported distance use the *closest* one — the same convention
        // as the visual seed path, so plan order cannot change results.
        const Table* feats = FindTable(access_, tables::kImageVisualFeatures);
        if (!feats) {
          return Status::FailedPrecondition("features table missing");
        }
        TVDP_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              feats->FindBy("image_id", Value(id)));
        const storage::Schema& fs = feats->schema();
        size_t kind_idx = static_cast<size_t>(fs.ColumnIndex("feature_kind"));
        size_t feat_idx = static_cast<size_t>(fs.ColumnIndex("feature"));
        double best = std::numeric_limits<double>::max();
        bool found = false;
        for (const Row& r : rows) {
          if (r[kind_idx].AsString() != q_.visual->feature_kind) continue;
          double d =
              ml::L2Distance(r[feat_idx].AsFloatVector(), q_.visual->feature);
          if (!found || d < best) best = d;
          found = true;
        }
        if (!found) return false;
        if (q_.visual->kind == VisualPredicate::Kind::kThreshold &&
            best > q_.visual->threshold) {
          return false;
        }
        if (visual_distance) *visual_distance = best;
      }
    }
    return true;
  }

  std::unique_ptr<Operator> child_;
  const AccessPaths& access_;
  const HybridQuery& q_;
  QueryPlan* plan_;
  PlanNode* node_;
  std::map<std::string, std::unordered_set<int64_t>> materialized_;
  /// The snapshot's images table and its capture-time column, resolved
  /// once per run for VerifyOne.
  const Table* images_ = nullptr;
  size_t captured_idx_ = 0;
  bool ran_ = false;
  std::vector<QueryHit> kept_;
  size_t pos_ = 0;
};

/// Streaming head: emits at most `n` rows, then stops pulling its input.
/// Implements both TopK (over the verified, candidate-ordered stream — the
/// visual seed emits candidates in ascending distance, so the first k
/// survivors are the top k) and Limit for non-visual queries.
class HeadOp : public Operator {
 public:
  HeadOp(std::unique_ptr<Operator> child, size_t n, PlanNode* node)
      : child_(std::move(child)), remaining_(n), node_(node) {}

  Result<std::optional<std::vector<QueryHit>>> Next(
      const RequestContext* ctx) override {
    if (remaining_ == 0) {
      Finalize();
      return std::optional<std::vector<QueryHit>>();
    }
    TVDP_ASSIGN_OR_RETURN(auto batch, child_->Next(ctx));
    if (!batch) {
      remaining_ = 0;
      Finalize();
      return std::optional<std::vector<QueryHit>>();
    }
    if (batch->size() > remaining_) batch->resize(remaining_);
    remaining_ -= batch->size();
    emitted_ += batch->size();
    return batch;
  }

 private:
  void Finalize() {
    if (node_ && node_->actual_rows < 0) {
      node_->actual_rows = static_cast<int64_t>(emitted_);
    }
  }

  std::unique_ptr<Operator> child_;
  size_t remaining_;
  size_t emitted_ = 0;
  PlanNode* node_;
};

/// Pipeline breaker: materializes its input and emits it ordered by
/// (score ascending, image id) — the cross-family result convention.
class RerankOp : public Operator {
 public:
  RerankOp(std::unique_ptr<Operator> child, PlanNode* node)
      : child_(std::move(child)), node_(node) {}

  Result<std::optional<std::vector<QueryHit>>> Next(
      const RequestContext* ctx) override {
    if (!ran_) {
      ran_ = true;
      while (true) {
        TVDP_ASSIGN_OR_RETURN(auto batch, child_->Next(ctx));
        if (!batch) break;
        rows_.insert(rows_.end(), batch->begin(), batch->end());
      }
      std::sort(rows_.begin(), rows_.end(),
                [](const QueryHit& a, const QueryHit& b) {
                  if (a.visual_distance != b.visual_distance) {
                    return a.visual_distance < b.visual_distance;
                  }
                  return a.image_id < b.image_id;
                });
      if (node_) node_->actual_rows = static_cast<int64_t>(rows_.size());
    }
    if (pos_ >= rows_.size()) return std::optional<std::vector<QueryHit>>();
    size_t end = std::min(pos_ + kBatchSize, rows_.size());
    std::vector<QueryHit> batch(rows_.begin() + static_cast<ptrdiff_t>(pos_),
                                rows_.begin() + static_cast<ptrdiff_t>(end));
    pos_ = end;
    return std::optional<std::vector<QueryHit>>(std::move(batch));
  }

 private:
  std::unique_ptr<Operator> child_;
  PlanNode* node_;
  bool ran_ = false;
  std::vector<QueryHit> rows_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::vector<QueryHit>> Executor::Run(const AccessPaths& access,
                                            const HybridQuery& q,
                                            QueryPlan* plan,
                                            const RequestContext* ctx) {
  // Assemble the operator chain along the plan's spine, innermost first.
  std::unique_ptr<Operator> op = std::make_unique<SeedProbeOp>(
      access, q, *plan, FindSpineNode(&plan->root, "IndexProbe"));
  op = std::make_unique<DedupCapOp>(std::move(op), plan,
                                    FindSpineNode(&plan->root, "Dedup"));
  op = std::make_unique<VerifyOp>(std::move(op), access, q, plan,
                                  FindSpineNode(&plan->root, "Verify"));
  if (PlanNode* topk = FindSpineNode(&plan->root, "TopK")) {
    op = std::make_unique<HeadOp>(std::move(op),
                                  static_cast<size_t>(q.visual->k), topk);
  }
  if (PlanNode* rerank = FindSpineNode(&plan->root, "Rerank")) {
    op = std::make_unique<RerankOp>(std::move(op), rerank);
  }
  if (PlanNode* limit = FindSpineNode(&plan->root, "Limit")) {
    op = std::make_unique<HeadOp>(std::move(op), static_cast<size_t>(q.limit),
                                  limit);
  }

  std::vector<QueryHit> out;
  while (true) {
    TVDP_ASSIGN_OR_RETURN(auto batch, op->Next(ctx));
    if (!batch) break;
    out.insert(out.end(), batch->begin(), batch->end());
  }
  plan->executed = true;
  return out;
}

}  // namespace tvdp::query
