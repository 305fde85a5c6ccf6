#include "query/engine.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/strings.h"

namespace tvdp::query {

using storage::Row;
using storage::RowId;
using storage::Table;
using storage::Value;
namespace tables = storage::tables;

namespace {

/// Rough per-table heap estimate for the commit accounting: rows * columns
/// at ~40 bytes per value plus fixed overhead. The point is the shared-vs-
/// copied *ratio* per commit, not exact byte counts.
size_t EstimateTableBytes(const Table& t) {
  return t.size() * t.schema().columns().size() * 40 + 64;
}

/// Rough per-index estimate, by entry count.
size_t EstimateIndexBytes(size_t entries) { return entries * 64 + 64; }

}  // namespace

QueryEngine::QueryEngine(storage::Catalog* catalog, ThreadPool* pool)
    : catalog_(catalog),
      pool_(pool ? pool : &ThreadPool::Shared()),
      fovs_(index::OrientedRTree::Options{16, pool_}) {}

AccessPaths QueryEngine::SnapshotPaths(const EngineSnapshot& snap) const {
  AccessPaths paths;
  paths.tables = &snap.tables;
  paths.pool = pool_;
  paths.points = snap.points.get();
  paths.fovs = snap.fovs.get();
  paths.temporal = snap.temporal.get();
  paths.keywords = snap.keywords.get();
  paths.lsh = &snap.lsh;
  paths.classifications = snap.classifications.get();
  return paths;
}

void QueryEngine::MarkTableDirtyLocked(const std::string& table) {
  dirty_tables_.insert(table);
}

void QueryEngine::SetClassMapLocked(const ClassMap& m) {
  class_map_ = std::make_shared<const ClassMap>(m);
  dirty_classes_ = true;
}

void QueryEngine::PublishLocked() {
  std::shared_ptr<const EngineSnapshot> prev = snapshot_.load();
  bool dirty = !prev || !dirty_tables_.empty() ||
               !dirty_feature_kinds_.empty() || dirty_points_ || dirty_fovs_ ||
               dirty_temporal_ || dirty_keywords_ || dirty_classes_;
  if (!dirty) return;

  auto snap = std::make_shared<EngineSnapshot>();
  size_t copied = 0, shared = 0;

  // Tables: copy-on-write at table granularity. A commit typically touches
  // one or two tables; the rest are shared with the previous version.
  for (const std::string& name : catalog_->TableNames()) {
    const Table* t = catalog_->GetTable(name);
    bool reuse = prev && !dirty_tables_.count(name) &&
                 prev->tables.count(name);
    if (reuse) {
      snap->tables[name] = prev->tables.at(name);
      shared += EstimateTableBytes(*t);
    } else {
      snap->tables[name] = std::make_shared<const Table>(*t);
      copied += EstimateTableBytes(*t);
    }
  }

  // Indexes: cloned only when this write section touched them.
  if (!prev || dirty_points_) {
    snap->points = std::make_shared<const index::RTree>(points_.Clone());
    copied += EstimateIndexBytes(points_.size());
  } else {
    snap->points = prev->points;
    shared += EstimateIndexBytes(points_.size());
  }
  if (!prev || dirty_fovs_) {
    snap->fovs = std::make_shared<const index::OrientedRTree>(fovs_.Clone());
    copied += EstimateIndexBytes(fovs_.size());
  } else {
    snap->fovs = prev->fovs;
    shared += EstimateIndexBytes(fovs_.size());
  }
  if (!prev || dirty_temporal_) {
    snap->temporal = std::make_shared<const index::TemporalIndex>(temporal_);
    copied += EstimateIndexBytes(temporal_.size());
  } else {
    snap->temporal = prev->temporal;
    shared += EstimateIndexBytes(temporal_.size());
  }
  if (!prev || dirty_keywords_) {
    snap->keywords = std::make_shared<const index::InvertedIndex>(keywords_);
    copied += EstimateIndexBytes(keywords_.document_count());
  } else {
    snap->keywords = prev->keywords;
    shared += EstimateIndexBytes(keywords_.document_count());
  }
  for (const auto& [kind, lsh] : lsh_) {
    bool reuse = prev && !dirty_feature_kinds_.count(kind) &&
                 prev->lsh.count(kind);
    if (reuse) {
      snap->lsh[kind] = prev->lsh.at(kind);
      shared += EstimateIndexBytes(lsh.size());
    } else {
      snap->lsh[kind] = std::make_shared<const index::LshIndex>(lsh);
      copied += EstimateIndexBytes(lsh.size());
    }
  }

  snap->classifications = class_map_;
  snap->version = next_version_++;
  snap->bytes_copied = copied;
  snap->bytes_shared = shared;
  snap->live_gauge = live_snapshots_;
  live_snapshots_->fetch_add(1, std::memory_order_relaxed);

  // The root swap IS the commit, from a reader's point of view: queries
  // pinned before this instant keep the old version; queries arriving
  // after see the new one. The box's release pairs with readers' acquire.
  snapshot_.store(std::move(snap));

  dirty_tables_.clear();
  dirty_feature_kinds_.clear();
  dirty_points_ = dirty_fovs_ = dirty_temporal_ = dirty_keywords_ = false;
  dirty_classes_ = false;
}

Json QueryEngine::MvccStatsJson() const {
  std::shared_ptr<const EngineSnapshot> snap = snapshot_.load();
  Json out = Json::MakeObject();
  out["version"] = static_cast<int64_t>(snap->version);
  out["pinned_snapshots"] = pinned_readers_.load(std::memory_order_relaxed);
  // Everything alive beyond the latest version is retired and awaiting
  // reclamation by the pinned readers that still reference it. `snap`
  // itself is our own transient reference, not a retired version.
  int64_t live = live_snapshots_->load(std::memory_order_relaxed);
  out["retired_versions"] = std::max<int64_t>(0, live - 1);
  out["bytes_copied_last_commit"] = static_cast<int64_t>(snap->bytes_copied);
  out["bytes_shared_last_commit"] = static_cast<int64_t>(snap->bytes_shared);
  return out;
}

Status QueryEngine::IndexRowLocked(const std::string& table, const Row& row) {
  const Table* images = catalog_->GetTable(tables::kImages);
  const Table* source = catalog_->GetTable(table);
  if (!images || !source) return Status::FailedPrecondition("table missing");
  const storage::Schema& schema = source->schema();
  auto col = [&](const char* name) -> const Value& {
    return row[static_cast<size_t>(schema.ColumnIndex(name))];
  };

  if (table == tables::kImages) {
    RowId id = row[0].AsInt64();
    geo::BoundingBox point_box;
    point_box.min_lat = point_box.max_lat = col("lat").AsDouble();
    point_box.min_lon = point_box.max_lon = col("lon").AsDouble();
    TVDP_RETURN_IF_ERROR(points_.Insert(point_box, id));
    temporal_.Insert(col("timestamp_capturing").AsInt64(), id);
    dirty_points_ = dirty_temporal_ = true;
    return Status::OK();
  }
  if (table != tables::kImageFov && table != tables::kImageManualKeywords &&
      table != tables::kImageVisualFeatures) {
    return Status::OK();
  }

  // Rows that describe an image are indexed only while the image exists.
  RowId image_id = col("image_id").AsInt64();
  if (!images->Exists(image_id)) return Status::OK();
  if (table == tables::kImageManualKeywords) {
    // The inverted index accumulates per id, so one image's keyword rows
    // add up to the document its whole keyword list would make.
    std::vector<std::string> terms = TokenizeWords(col("keyword").AsString());
    if (terms.empty()) return Status::OK();
    dirty_keywords_ = true;
    return keywords_.AddDocument(image_id, terms);
  }

  if (table == tables::kImageFov) {
    // An FOV is placed at the camera: a primary-key lookup.
    TVDP_ASSIGN_OR_RETURN(const Row* img, images->Get(image_id));
    const storage::Schema& is = images->schema();
    geo::GeoPoint camera{
        (*img)[static_cast<size_t>(is.ColumnIndex("lat"))].AsDouble(),
        (*img)[static_cast<size_t>(is.ColumnIndex("lon"))].AsDouble()};
    TVDP_ASSIGN_OR_RETURN(
        geo::FieldOfView fov,
        geo::FieldOfView::Make(camera, col("direction_deg").AsDouble(),
                               col("angle_deg").AsDouble(),
                               col("radius_m").AsDouble()));
    dirty_fovs_ = true;
    return fovs_.Insert(fov, image_id);
  }
  const ml::FeatureVector& feature = col("feature").AsFloatVector();
  const std::string& kind = col("feature_kind").AsString();
  if (feature.empty()) return Status::InvalidArgument("empty feature");
  auto lsh_it = lsh_.find(kind);
  if (lsh_it == lsh_.end()) {
    // The first vector of a kind fixes its dimensionality.
    index::LshIndex::Options lsh_options;
    lsh_options.pool = pool_;
    lsh_it = lsh_.try_emplace(kind, feature.size(), lsh_options).first;
  }
  TVDP_RETURN_IF_ERROR(lsh_it->second.Insert(feature, image_id));
  dirty_feature_kinds_.insert(kind);
  return Status::OK();
}

Status QueryEngine::CheckFeatureDimLocked(const std::string& kind,
                                          size_t dim) const {
  auto it = lsh_.find(kind);
  if (it != lsh_.end() && it->second.dim() != dim) {
    return Status::InvalidArgument(
        StrFormat("feature kind %s has dimensionality %zu, got %zu",
                  kind.c_str(), it->second.dim(), dim));
  }
  return Status::OK();
}

Status QueryEngine::ReindexAllLocked() {
  points_ = index::RTree();
  fovs_ = index::OrientedRTree(index::OrientedRTree::Options{16, pool_});
  temporal_ = index::TemporalIndex();
  keywords_ = index::InvertedIndex();
  lsh_.clear();
  // An index left empty must still replace its published predecessor.
  dirty_points_ = dirty_fovs_ = dirty_temporal_ = dirty_keywords_ = true;
  for (const std::string& name : catalog_->TableNames()) {
    Status status = Status::OK();
    catalog_->GetTable(name)->ForEach([&](const Row& r) {
      status = IndexRowLocked(name, r);
      return status.ok();
    });
    TVDP_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Result<std::vector<QueryHit>> QueryEngine::SpatialRange(
    const geo::BoundingBox& box, const RequestContext* ctx) const {
  SnapshotRef snap = PinSnapshot();
  return EvalSpatialRange(SnapshotPaths(*snap), box, ctx);
}

Result<std::vector<QueryHit>> QueryEngine::SpatialKnn(
    const geo::GeoPoint& p, int k, const RequestContext* ctx) const {
  SnapshotRef snap = PinSnapshot();
  return EvalSpatialKnn(SnapshotPaths(*snap), p, k, ctx);
}

Result<std::vector<QueryHit>> QueryEngine::VisibleAt(
    const geo::GeoPoint& p, const RequestContext* ctx) const {
  SnapshotRef snap = PinSnapshot();
  return EvalVisibleAt(SnapshotPaths(*snap), p, ctx);
}

Result<std::vector<QueryHit>> QueryEngine::VisualTopK(
    const std::string& kind, const ml::FeatureVector& feature, int k,
    const RequestContext* ctx, const QueryBudget& budget) const {
  SnapshotRef snap = PinSnapshot();
  return EvalVisualTopK(SnapshotPaths(*snap), kind, feature, k, ctx, budget);
}

Result<std::vector<QueryHit>> QueryEngine::VisualThreshold(
    const std::string& kind, const ml::FeatureVector& feature, double threshold,
    const RequestContext* ctx, const QueryBudget& budget) const {
  SnapshotRef snap = PinSnapshot();
  return EvalVisualThreshold(SnapshotPaths(*snap), kind, feature, threshold,
                             ctx, budget);
}

Result<std::vector<QueryHit>> QueryEngine::Categorical(
    const CategoricalPredicate& pred) const {
  SnapshotRef snap = PinSnapshot();
  return EvalCategorical(SnapshotPaths(*snap), pred);
}

Result<std::vector<QueryHit>> QueryEngine::Textual(
    const TextualPredicate& pred) const {
  SnapshotRef snap = PinSnapshot();
  return EvalTextual(SnapshotPaths(*snap), pred);
}

Result<std::vector<QueryHit>> QueryEngine::Temporal(Timestamp begin,
                                                    Timestamp end) const {
  SnapshotRef snap = PinSnapshot();
  return EvalTemporal(SnapshotPaths(*snap), begin, end);
}

Result<std::vector<QueryHit>> QueryEngine::Execute(
    const HybridQuery& q, const RequestContext* ctx, const QueryBudget& budget,
    QueryPlan* plan_out, const PlannerOptions& options) const {
  SnapshotRef snap = PinSnapshot();
  AccessPaths paths = SnapshotPaths(*snap);
  TVDP_ASSIGN_OR_RETURN(QueryPlan plan,
                        Planner::BuildPlan(paths, q, budget, options));
  // An already-failed context rejects before any index is probed, leaving
  // `plan_out` untouched.
  if (ctx) TVDP_RETURN_IF_ERROR(ctx->Check());
  auto result = Executor::Run(paths, q, &plan, ctx);
  if (plan_out) *plan_out = std::move(plan);
  return result;
}

Result<QueryPlan> QueryEngine::Explain(const HybridQuery& q,
                                       const QueryBudget& budget,
                                       const PlannerOptions& options) const {
  SnapshotRef snap = PinSnapshot();
  return Planner::BuildPlan(SnapshotPaths(*snap), q, budget, options);
}

Result<std::vector<QueryHit>> QueryEngine::SpatialRangeScan(
    const geo::BoundingBox& box) const {
  SnapshotRef snap = PinSnapshot();
  const Table* images = snap->FindTable(tables::kImages);
  const Table* fov_table = snap->FindTable(tables::kImageFov);
  if (!images || !fov_table) {
    return Status::FailedPrecondition("schema tables missing");
  }
  const storage::Schema& is = images->schema();
  const storage::Schema& fs = fov_table->schema();
  size_t lat_idx = static_cast<size_t>(is.ColumnIndex("lat"));
  size_t lon_idx = static_cast<size_t>(is.ColumnIndex("lon"));

  std::set<index::RecordId> ids;
  // Camera-point membership.
  images->ForEach([&](const Row& r) {
    geo::GeoPoint loc{r[lat_idx].AsDouble(), r[lon_idx].AsDouble()};
    if (box.Contains(loc)) ids.insert(r[0].AsInt64());
    return true;
  });
  // FOV intersection (requires the image row for the camera location).
  Status status = Status::OK();
  fov_table->ForEach([&](const Row& r) {
    int64_t image_id =
        r[static_cast<size_t>(fs.ColumnIndex("image_id"))].AsInt64();
    auto img = images->Get(image_id);
    if (!img.ok()) {
      status = img.status();
      return false;
    }
    geo::GeoPoint loc{(*img)->at(lat_idx).AsDouble(),
                      (*img)->at(lon_idx).AsDouble()};
    auto fov = geo::FieldOfView::Make(
        loc, r[static_cast<size_t>(fs.ColumnIndex("direction_deg"))].AsDouble(),
        r[static_cast<size_t>(fs.ColumnIndex("angle_deg"))].AsDouble(),
        r[static_cast<size_t>(fs.ColumnIndex("radius_m"))].AsDouble());
    if (fov.ok() && fov->IntersectsBBox(box)) ids.insert(image_id);
    return true;
  });
  TVDP_RETURN_IF_ERROR(status);
  std::vector<QueryHit> out;
  out.reserve(ids.size());
  for (index::RecordId id : ids) out.push_back(QueryHit{id, 0, 0});
  return out;
}

Result<std::vector<QueryHit>> QueryEngine::VisualTopKScan(
    const std::string& kind, const ml::FeatureVector& feature, int k) const {
  SnapshotRef snap = PinSnapshot();
  const Table* feats = snap->FindTable(tables::kImageVisualFeatures);
  if (!feats) return Status::FailedPrecondition("features table missing");
  const storage::Schema& fs = feats->schema();
  size_t kind_idx = static_cast<size_t>(fs.ColumnIndex("feature_kind"));
  size_t feat_idx = static_cast<size_t>(fs.ColumnIndex("feature"));
  size_t img_idx = static_cast<size_t>(fs.ColumnIndex("image_id"));
  std::vector<QueryHit> all;
  feats->ForEach([&](const Row& r) {
    if (r[kind_idx].AsString() == kind) {
      double d = ml::L2Distance(r[feat_idx].AsFloatVector(), feature);
      all.push_back(QueryHit{r[img_idx].AsInt64(), d, d});
    }
    return true;
  });
  std::sort(all.begin(), all.end(), [](const QueryHit& a, const QueryHit& b) {
    if (a.visual_distance != b.visual_distance) {
      return a.visual_distance < b.visual_distance;
    }
    return a.image_id < b.image_id;
  });
  if (all.size() > static_cast<size_t>(std::max(k, 0))) {
    all.resize(static_cast<size_t>(std::max(k, 0)));
  }
  return all;
}

}  // namespace tvdp::query
