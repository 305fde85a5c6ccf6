#include "platform/tvdp.h"

#include <algorithm>
#include <mutex>
#include <unordered_set>

#include "common/strings.h"
#include "query/executor.h"
#include "storage/serializer.h"

namespace tvdp::platform {

using storage::Row;
using storage::Value;
namespace tables = storage::tables;

Tvdp::Tvdp(Tvdp&& other) noexcept
    : mem_fs_(std::move(other.mem_fs_)),
      durable_(std::move(other.durable_)),
      engine_(std::move(other.engine_)),
      classifications_(std::move(other.classifications_)),
      mutation_observer_(std::move(other.mutation_observer_)),
      epoch_(other.epoch_.load(std::memory_order_relaxed)),
      fenced_(other.fenced_.load(std::memory_order_relaxed)),
      fence_refusal_(std::move(other.fence_refusal_)) {}

Tvdp& Tvdp::operator=(Tvdp&& other) noexcept {
  if (this != &other) {
    // Dependents first: the old engine reads the old store, whose WAL
    // handles point into the old MemFs.
    engine_ = std::move(other.engine_);
    durable_ = std::move(other.durable_);
    mem_fs_ = std::move(other.mem_fs_);
    classifications_ = std::move(other.classifications_);
    mutation_observer_ = std::move(other.mutation_observer_);
    epoch_.store(other.epoch_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    fenced_.store(other.fenced_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    fence_refusal_ = std::move(other.fence_refusal_);
  }
  return *this;
}

Result<Tvdp> Tvdp::Create() {
  auto fs = std::make_unique<MemFs>();
  storage::DurableCatalogOptions options;
  options.fs = fs.get();
  TVDP_ASSIGN_OR_RETURN(Tvdp t, Open("tvdp", options));
  t.mem_fs_ = std::move(fs);
  return t;
}

Result<Tvdp> Tvdp::Open(const std::string& base_path,
                        storage::DurableCatalogOptions options) {
  Tvdp t;
  TVDP_ASSIGN_OR_RETURN(storage::DurableCatalog durable,
                        storage::DurableCatalog::Open(base_path, options));
  t.durable_ = std::make_unique<storage::DurableCatalog>(std::move(durable));
  if (!t.durable_->recovered_from_disk()) {
    TVDP_ASSIGN_OR_RETURN(storage::Catalog fresh, storage::MakeTvdpCatalog());
    TVDP_RETURN_IF_ERROR(t.durable_->Bootstrap(std::move(fresh)));
  }
  t.engine_.reset(new query::QueryEngine(&t.durable_->catalog()));
  TVDP_RETURN_IF_ERROR(t.RebuildClassificationsUnlocked());
  {
    // The engine has published nothing yet: the registry and the indexes
    // (one pass over each table) publish together as version 1.
    CommitScope commit(t.engine_.get(), &t.classifications_);
    TVDP_RETURN_IF_ERROR(t.engine_->ReindexAllLocked());
  }
  return t;
}

Status Tvdp::RebuildClassificationsUnlocked() {
  storage::Catalog& cat = catalog();
  const storage::Table* cls = cat.GetTable(tables::kImageContentClassification);
  const storage::Table* types =
      cat.GetTable(tables::kImageContentClassificationTypes);
  if (!cls || !types) {
    return Status::Internal("recovered catalog is missing the TVDP schema");
  }
  classifications_.clear();
  std::map<int64_t, std::string> cls_name_of;
  cls->ForEach([&](const Row& r) {
    int64_t id = r[0].AsInt64();
    classifications_[r[1].AsString()] = {id, {}};
    cls_name_of[id] = r[1].AsString();
    return true;
  });
  types->ForEach([&](const Row& r) {
    auto name_it = cls_name_of.find(r[1].AsInt64());
    if (name_it != cls_name_of.end()) {
      classifications_[name_it->second].second[r[2].AsString()] = r[0].AsInt64();
    }
    return true;
  });
  return Status::OK();
}

Result<int64_t> Tvdp::InsertRow(const std::string& table, storage::Row row) {
  if (fenced_.load(std::memory_order_acquire)) return fence_refusal_;
  TVDP_ASSIGN_OR_RETURN(int64_t id, durable_->Insert(table, std::move(row)));
  engine_->MarkTableDirtyLocked(table);
  TVDP_ASSIGN_OR_RETURN(const Row* stored, catalog().GetTable(table)->Get(id));
  if (mutation_observer_) {
    storage::WalRecord record{table, id,
                              Row(stored->begin() + 1, stored->end())};
    record.epoch = epoch_.load(std::memory_order_relaxed);
    mutation_observer_(record);
  }
  TVDP_RETURN_IF_ERROR(engine_->IndexRowLocked(table, *stored));
  return id;
}

Status Tvdp::DeleteRow(const std::string& table, storage::RowId id) {
  if (fenced_.load(std::memory_order_acquire)) return fence_refusal_;
  TVDP_RETURN_IF_ERROR(durable_->Delete(table, id));
  engine_->MarkTableDirtyLocked(table);
  if (mutation_observer_) {
    storage::WalRecord record = storage::WalRecord::Delete(table, id);
    record.epoch = epoch_.load(std::memory_order_relaxed);
    mutation_observer_(record);
  }
  return Status::OK();
}

Result<int64_t> Tvdp::IngestImage(const ImageRecord& record) {
  if (!geo::IsValid(record.location)) {
    return Status::InvalidArgument("invalid image location");
  }
  // Writer: the catalog rows and the index entries of one image publish as
  // one snapshot version — a concurrent query never sees a half-ingested
  // image. The durable catalog's own lock nests inside (engine -> durable;
  // never the reverse).
  CommitScope commit(engine_.get());
  Row image_row{
      Value(record.uri),
      Value(record.location.lat),
      Value(record.location.lon),
      Value(record.captured_at),
      Value(record.uploaded_at != 0 ? record.uploaded_at
                                    : record.captured_at),
      Value(record.source),
      Value(record.is_augmented),
      record.original_image_id ? Value(*record.original_image_id) : Value(),
  };
  TVDP_ASSIGN_OR_RETURN(int64_t image_id,
                        InsertRow(tables::kImages, std::move(image_row)));

  if (record.fov) {
    TVDP_RETURN_IF_ERROR(
        InsertRow(tables::kImageFov,
                  Row{Value(image_id), Value(record.fov->direction_deg),
                      Value(record.fov->angle_deg),
                      Value(record.fov->radius_m)})
            .status());
    geo::BoundingBox scene = record.fov->SceneLocation();
    TVDP_RETURN_IF_ERROR(
        InsertRow(tables::kImageSceneLocation,
                  Row{Value(image_id), Value(scene.min_lat),
                      Value(scene.min_lon), Value(scene.max_lat),
                      Value(scene.max_lon)})
            .status());
  }
  for (const std::string& kw : record.keywords) {
    TVDP_RETURN_IF_ERROR(
        InsertRow(tables::kImageManualKeywords,
                  Row{Value(image_id), Value(kw)})
            .status());
  }
  return image_id;
}

Result<int64_t> Tvdp::RegisterClassification(
    const std::string& name, const std::vector<std::string>& labels,
    const std::string& description) {
  if (name.empty()) return Status::InvalidArgument("empty task name");
  if (labels.empty()) return Status::InvalidArgument("no labels given");

  CommitScope commit(engine_.get(), &classifications_);
  auto it = classifications_.find(name);
  if (it == classifications_.end()) {
    TVDP_ASSIGN_OR_RETURN(
        int64_t cls_id,
        InsertRow(tables::kImageContentClassification,
                  Row{Value(name), description.empty()
                                       ? Value()
                                       : Value(description)}));
    it = classifications_
             .emplace(name, std::make_pair(cls_id,
                                           std::map<std::string, int64_t>()))
             .first;
  }
  for (const std::string& label : labels) {
    if (it->second.second.count(label)) continue;
    TVDP_ASSIGN_OR_RETURN(
        int64_t type_id,
        InsertRow(tables::kImageContentClassificationTypes,
                  Row{Value(it->second.first), Value(label)}));
    it->second.second[label] = type_id;
  }
  return it->second.first;
}

Result<int64_t> Tvdp::ClassificationId(const std::string& name) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  auto it = snap->classifications->find(name);
  if (it == snap->classifications->end()) {
    return Status::NotFound("unregistered classification: " + name);
  }
  return it->second.first;
}

Result<int64_t> Tvdp::PeekClassificationId(const std::string& name) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  auto it = snap->classifications->find(name);
  if (it != snap->classifications->end()) return it->second.first;
  const storage::Table* cls =
      snap->FindTable(tables::kImageContentClassification);
  if (!cls) return Status::Internal("catalog is missing the TVDP schema");
  return cls->next_id();
}

bool Tvdp::ClassificationApplied(
    const std::string& name, const std::vector<std::string>& labels) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  auto it = snap->classifications->find(name);
  if (it == snap->classifications->end()) return false;
  for (const std::string& label : labels) {
    if (!it->second.second.count(label)) return false;
  }
  return true;
}

Json Tvdp::ClassificationTableJson() const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  Json out = Json::MakeObject();
  for (const auto& [name, entry] : *snap->classifications) {
    Json cls = Json::MakeObject();
    cls["id"] = Json(entry.first);
    Json labels = Json::MakeObject();
    for (const auto& [label, type_id] : entry.second) {
      labels[label] = Json(type_id);
    }
    cls["labels"] = std::move(labels);
    out[name] = std::move(cls);
  }
  return out;
}

double Tvdp::MaxFovRadiusM() const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  const storage::Table* fov = snap->FindTable(tables::kImageFov);
  if (!fov) return 0;
  const storage::Schema& s = fov->schema();
  size_t radius_idx = static_cast<size_t>(s.ColumnIndex("radius_m"));
  double max_radius = 0;
  fov->ForEach([&](const Row& r) {
    max_radius = std::max(max_radius, r[radius_idx].AsDouble());
    return true;
  });
  return max_radius;
}

Result<int64_t> Tvdp::AnnotateImage(int64_t image_id,
                                    const AnnotationRecord& annotation) {
  CommitScope commit(engine_.get());
  auto cls_it = classifications_.find(annotation.classification);
  if (cls_it == classifications_.end()) {
    return Status::NotFound("unregistered classification: " +
                            annotation.classification);
  }
  auto label_it = cls_it->second.second.find(annotation.label);
  if (label_it == cls_it->second.second.end()) {
    return Status::NotFound(StrFormat("label %s not in classification %s",
                                      annotation.label.c_str(),
                                      annotation.classification.c_str()));
  }
  if (annotation.confidence < 0 || annotation.confidence > 1) {
    return Status::InvalidArgument("confidence must be in [0, 1]");
  }
  Row row{Value(image_id),
          Value(label_it->second),
          Value(annotation.confidence),
          Value(annotation.machine ? "machine" : "manual"),
          annotation.region ? Value(int64_t{(*annotation.region)[0]}) : Value(),
          annotation.region ? Value(int64_t{(*annotation.region)[1]}) : Value(),
          annotation.region ? Value(int64_t{(*annotation.region)[2]}) : Value(),
          annotation.region ? Value(int64_t{(*annotation.region)[3]}) : Value()};
  return InsertRow(tables::kImageContentAnnotation, std::move(row));
}

Status Tvdp::StoreFeature(int64_t image_id, const std::string& kind,
                          const ml::FeatureVector& feature) {
  if (feature.empty()) return Status::InvalidArgument("empty feature");
  CommitScope commit(engine_.get());
  // A vector the kind's LSH would reject is refused before it is written,
  // logged or shipped: a stored row that cannot be indexed would fail
  // every later reindex (deletes, Open).
  TVDP_RETURN_IF_ERROR(engine_->CheckFeatureDimLocked(kind, feature.size()));
  return InsertRow(tables::kImageVisualFeatures,
                   Row{Value(image_id), Value(kind),
                       Value(std::vector<double>(feature))})
      .status();
}

Result<std::vector<query::QueryHit>> Tvdp::ExecuteQuery(
    const query::HybridQuery& q, const RequestContext* ctx,
    const query::QueryBudget& budget, query::QueryPlan* plan_out) const {
  return engine_->Execute(q, ctx, budget, plan_out);
}

Result<query::QueryPlan> Tvdp::ExplainQuery(
    const query::HybridQuery& q, const query::QueryBudget& budget) const {
  return engine_->Explain(q, budget);
}

Json Tvdp::MvccStats() const { return engine_->MvccStatsJson(); }

size_t Tvdp::image_count() const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  const storage::Table* t = snap->FindTable(tables::kImages);
  return t ? t->size() : 0;
}

Result<Json> Tvdp::ImageRowJson(int64_t image_id) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  const storage::Table* images = snap->FindTable(tables::kImages);
  const storage::Schema& s = images->schema();
  TVDP_ASSIGN_OR_RETURN(const Row* found, images->Get(image_id));
  const Row& row = *found;
  Json r = Json::MakeObject();
  r["id"] = row[0].AsInt64();
  r["uri"] = row[static_cast<size_t>(s.ColumnIndex("uri"))].AsString();
  r["lat"] = row[static_cast<size_t>(s.ColumnIndex("lat"))].AsDouble();
  r["lon"] = row[static_cast<size_t>(s.ColumnIndex("lon"))].AsDouble();
  r["captured_at"] =
      row[static_cast<size_t>(s.ColumnIndex("timestamp_capturing"))].AsInt64();
  r["source"] = row[static_cast<size_t>(s.ColumnIndex("source"))].AsString();
  return r;
}

Result<std::string> Tvdp::GetLabel(int64_t image_id,
                                   const std::string& classification) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  auto cls_it = snap->classifications->find(classification);
  if (cls_it == snap->classifications->end()) {
    return Status::NotFound("unregistered classification: " + classification);
  }
  const storage::Table* ann =
      snap->FindTable(tables::kImageContentAnnotation);
  TVDP_ASSIGN_OR_RETURN(std::vector<Row> rows,
                        ann->FindBy("image_id", Value(image_id)));
  const storage::Schema& s = ann->schema();
  size_t type_idx = static_cast<size_t>(s.ColumnIndex("type_id"));
  size_t conf_idx = static_cast<size_t>(s.ColumnIndex("confidence"));

  // type id -> label for this classification.
  std::map<int64_t, std::string> label_of;
  for (const auto& [label, type_id] : cls_it->second.second) {
    label_of[type_id] = label;
  }
  std::string best;
  double best_conf = -1;
  for (const Row& r : rows) {
    auto it = label_of.find(r[type_idx].AsInt64());
    if (it == label_of.end()) continue;
    if (r[conf_idx].AsDouble() > best_conf) {
      best_conf = r[conf_idx].AsDouble();
      best = it->second;
    }
  }
  if (best_conf < 0) {
    return Status::NotFound(StrFormat("image %lld has no %s annotation",
                                      static_cast<long long>(image_id),
                                      classification.c_str()));
  }
  return best;
}

Result<ml::FeatureVector> Tvdp::GetFeature(int64_t image_id,
                                           const std::string& kind) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  const storage::Table* feats =
      snap->FindTable(tables::kImageVisualFeatures);
  TVDP_ASSIGN_OR_RETURN(std::vector<Row> rows,
                        feats->FindBy("image_id", Value(image_id)));
  const storage::Schema& s = feats->schema();
  size_t kind_idx = static_cast<size_t>(s.ColumnIndex("feature_kind"));
  size_t feat_idx = static_cast<size_t>(s.ColumnIndex("feature"));
  for (const Row& r : rows) {
    if (r[kind_idx].AsString() == kind) return r[feat_idx].AsFloatVector();
  }
  return Status::NotFound(StrFormat("image %lld has no %s feature",
                                    static_cast<long long>(image_id),
                                    kind.c_str()));
}

Result<std::vector<geo::GeoPoint>> Tvdp::LocationsWithLabel(
    const std::string& classification, const std::string& label,
    double min_confidence) const {
  query::CategoricalPredicate pred;
  pred.classification = classification;
  pred.label = label;
  pred.min_confidence = min_confidence;
  // One pinned snapshot covers both the categorical evaluation and the
  // location lookups, so the hit set and the rows cannot tear apart.
  query::SnapshotRef snap = engine_->PinSnapshot();
  TVDP_ASSIGN_OR_RETURN(
      std::vector<query::QueryHit> hits,
      query::EvalCategorical(engine_->SnapshotPaths(*snap), pred));
  const storage::Table* images = snap->FindTable(tables::kImages);
  const storage::Schema& s = images->schema();
  size_t lat_idx = static_cast<size_t>(s.ColumnIndex("lat"));
  size_t lon_idx = static_cast<size_t>(s.ColumnIndex("lon"));
  std::vector<geo::GeoPoint> out;
  out.reserve(hits.size());
  for (const auto& h : hits) {
    TVDP_ASSIGN_OR_RETURN(const Row* img, images->Get(h.image_id));
    out.push_back(
        geo::GeoPoint{(*img)[lat_idx].AsDouble(), (*img)[lon_idx].AsDouble()});
  }
  return out;
}

Result<ImageRecord> Tvdp::ExportImage(int64_t image_id) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  const storage::Table* images = snap->FindTable(tables::kImages);
  const storage::Schema& s = images->schema();
  TVDP_ASSIGN_OR_RETURN(const Row* found, images->Get(image_id));
  const Row& row = *found;
  ImageRecord rec;
  rec.uri = row[static_cast<size_t>(s.ColumnIndex("uri"))].AsString();
  rec.location = geo::GeoPoint{
      row[static_cast<size_t>(s.ColumnIndex("lat"))].AsDouble(),
      row[static_cast<size_t>(s.ColumnIndex("lon"))].AsDouble()};
  rec.captured_at =
      row[static_cast<size_t>(s.ColumnIndex("timestamp_capturing"))].AsInt64();
  rec.uploaded_at =
      row[static_cast<size_t>(s.ColumnIndex("timestamp_uploading"))].AsInt64();
  rec.source = row[static_cast<size_t>(s.ColumnIndex("source"))].AsString();
  rec.is_augmented =
      row[static_cast<size_t>(s.ColumnIndex("is_augmented"))].AsBool();
  const Value& original =
      row[static_cast<size_t>(s.ColumnIndex("original_image_id"))];
  if (!original.is_null()) rec.original_image_id = original.AsInt64();

  const storage::Table* fov = snap->FindTable(tables::kImageFov);
  TVDP_ASSIGN_OR_RETURN(std::vector<Row> fov_rows,
                        fov->FindBy("image_id", Value(image_id)));
  if (!fov_rows.empty()) {
    const storage::Schema& fsch = fov->schema();
    geo::FieldOfView f;
    f.camera = rec.location;
    f.direction_deg =
        fov_rows[0][static_cast<size_t>(fsch.ColumnIndex("direction_deg"))]
            .AsDouble();
    f.angle_deg =
        fov_rows[0][static_cast<size_t>(fsch.ColumnIndex("angle_deg"))]
            .AsDouble();
    f.radius_m =
        fov_rows[0][static_cast<size_t>(fsch.ColumnIndex("radius_m"))]
            .AsDouble();
    rec.fov = f;
  }

  const storage::Table* kw = snap->FindTable(tables::kImageManualKeywords);
  TVDP_ASSIGN_OR_RETURN(std::vector<Row> kw_rows,
                        kw->FindBy("image_id", Value(image_id)));
  const storage::Schema& ksch = kw->schema();
  size_t kw_idx = static_cast<size_t>(ksch.ColumnIndex("keyword"));
  for (const Row& r : kw_rows) rec.keywords.push_back(r[kw_idx].AsString());
  return rec;
}

Result<geo::GeoPoint> Tvdp::ImageLocation(int64_t image_id) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  const storage::Table* images = snap->FindTable(tables::kImages);
  const storage::Schema& s = images->schema();
  TVDP_ASSIGN_OR_RETURN(const Row* row, images->Get(image_id));
  return geo::GeoPoint{
      (*row)[static_cast<size_t>(s.ColumnIndex("lat"))].AsDouble(),
      (*row)[static_cast<size_t>(s.ColumnIndex("lon"))].AsDouble()};
}

std::vector<int64_t> Tvdp::ImageIdsMatching(
    const std::function<bool(const geo::GeoPoint&)>& pred) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  const storage::Table* images = snap->FindTable(tables::kImages);
  const storage::Schema& s = images->schema();
  size_t lat_idx = static_cast<size_t>(s.ColumnIndex("lat"));
  size_t lon_idx = static_cast<size_t>(s.ColumnIndex("lon"));
  std::vector<int64_t> out;
  images->ForEach([&](const Row& r) {
    geo::GeoPoint p{r[lat_idx].AsDouble(), r[lon_idx].AsDouble()};
    if (pred(p)) out.push_back(r[0].AsInt64());
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<AnnotationRecord>> Tvdp::ListAnnotations(
    int64_t image_id) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  // type id -> (classification name, label) across the whole registry.
  std::map<int64_t, std::pair<std::string, std::string>> name_of;
  for (const auto& [name, entry] : *snap->classifications) {
    for (const auto& [label, type_id] : entry.second) {
      name_of[type_id] = {name, label};
    }
  }
  const storage::Table* ann =
      snap->FindTable(tables::kImageContentAnnotation);
  TVDP_ASSIGN_OR_RETURN(std::vector<Row> rows,
                        ann->FindBy("image_id", Value(image_id)));
  const storage::Schema& s = ann->schema();
  size_t type_idx = static_cast<size_t>(s.ColumnIndex("type_id"));
  size_t conf_idx = static_cast<size_t>(s.ColumnIndex("confidence"));
  size_t src_idx = static_cast<size_t>(s.ColumnIndex("annotation_source"));
  size_t rx = static_cast<size_t>(s.ColumnIndex("region_x"));
  size_t ry = static_cast<size_t>(s.ColumnIndex("region_y"));
  size_t rw = static_cast<size_t>(s.ColumnIndex("region_w"));
  size_t rh = static_cast<size_t>(s.ColumnIndex("region_h"));
  std::vector<AnnotationRecord> out;
  for (const Row& r : rows) {
    auto it = name_of.find(r[type_idx].AsInt64());
    if (it == name_of.end()) continue;
    AnnotationRecord rec;
    rec.classification = it->second.first;
    rec.label = it->second.second;
    rec.confidence = r[conf_idx].AsDouble();
    rec.machine = r[src_idx].AsString() == "machine";
    if (!r[rx].is_null()) {
      rec.region = std::array<int, 4>{static_cast<int>(r[rx].AsInt64()),
                                      static_cast<int>(r[ry].AsInt64()),
                                      static_cast<int>(r[rw].AsInt64()),
                                      static_cast<int>(r[rh].AsInt64())};
    }
    out.push_back(std::move(rec));
  }
  return out;
}

Result<std::vector<std::pair<std::string, ml::FeatureVector>>>
Tvdp::ListFeatures(int64_t image_id) const {
  query::SnapshotRef snap = engine_->PinSnapshot();
  const storage::Table* feats =
      snap->FindTable(tables::kImageVisualFeatures);
  TVDP_ASSIGN_OR_RETURN(std::vector<Row> rows,
                        feats->FindBy("image_id", Value(image_id)));
  const storage::Schema& s = feats->schema();
  size_t kind_idx = static_cast<size_t>(s.ColumnIndex("feature_kind"));
  size_t feat_idx = static_cast<size_t>(s.ColumnIndex("feature"));
  std::vector<std::pair<std::string, ml::FeatureVector>> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    out.emplace_back(r[kind_idx].AsString(), r[feat_idx].AsFloatVector());
  }
  return out;
}

Status Tvdp::RemoveImages(const std::vector<int64_t>& ids) {
  if (ids.empty()) return Status::OK();
  // Writer: rows disappear and the rebuilt indexes appear as one published
  // version — a concurrent query sees either all of the images or none.
  CommitScope commit(engine_.get());
  std::unordered_set<int64_t> doomed_images(ids.begin(), ids.end());
  const char* dependents[] = {
      tables::kImageFov,          tables::kImageSceneLocation,
      tables::kImageManualKeywords, tables::kImageVisualFeatures,
      tables::kImageContentAnnotation};
  for (const char* tname : dependents) {
    storage::Table* t = catalog().GetTable(tname);
    if (!t) return Status::Internal("catalog is missing the TVDP schema");
    const storage::Schema& s = t->schema();
    size_t img_idx = static_cast<size_t>(s.ColumnIndex("image_id"));
    std::vector<storage::RowId> doomed_rows;
    t->ForEach([&](const Row& r) {
      if (doomed_images.count(r[img_idx].AsInt64())) {
        doomed_rows.push_back(r[0].AsInt64());
      }
      return true;
    });
    for (storage::RowId rid : doomed_rows) {
      TVDP_RETURN_IF_ERROR(DeleteRow(tname, rid));
    }
  }
  storage::Table* images = catalog().GetTable(tables::kImages);
  for (int64_t id : ids) {
    if (!images->Exists(id)) continue;
    TVDP_RETURN_IF_ERROR(DeleteRow(tables::kImages, id));
  }
  // The indexes have no per-record delete: re-index the survivors.
  return engine_->ReindexAllLocked();
}

void Tvdp::SetMutationObserver(
    std::function<void(const storage::WalRecord&)> observer) {
  std::unique_lock lock(engine_->mutex());
  mutation_observer_ = std::move(observer);
}

Result<uint64_t> Tvdp::CopyAndObserve(
    std::function<void(const storage::WalRecord&)> observer,
    const std::vector<std::string>& copy_paths, Fs* fs) {
  std::unique_lock lock(engine_->mutex());
  uint64_t cut = durable_->wal_size_bytes();
  for (const std::string& path : copy_paths) {
    TVDP_ASSIGN_OR_RETURN(cut, durable_->CopyTo(path, fs));
  }
  mutation_observer_ = std::move(observer);
  return cut;
}

Result<size_t> Tvdp::ApplyReplicated(
    const std::vector<storage::WalRecord>& records) {
  // Writer: the whole batch publishes as one snapshot version, mirroring
  // how the primary's writer lock made each source mutation visible.
  CommitScope commit(engine_.get(), &classifications_);
  size_t applied = 0;
  bool registry_dirty = false;
  bool saw_delete = false;
  for (const storage::WalRecord& rec : records) {
    if (rec.type != storage::WalRecordType::kInsert &&
        rec.type != storage::WalRecordType::kDelete) {
      continue;
    }
    storage::Table* t = catalog().GetTable(rec.table);
    if (!t) {
      return Status::IOError("replicated record references unknown table " +
                             rec.table);
    }
    if (rec.type == storage::WalRecordType::kDelete) {
      if (!t->Exists(rec.row_id)) continue;  // already applied
      TVDP_RETURN_IF_ERROR(durable_->Delete(rec.table, rec.row_id));
      saw_delete = true;
    } else {
      if (t->Exists(rec.row_id)) continue;  // already applied
      TVDP_RETURN_IF_ERROR(
          durable_->RestoreInsert(rec.table, rec.row_id, rec.values));
      // Indexed as it lands, so where the shipper cut the batches (an
      // image row alone, its FOV and keywords in the next) cannot matter.
      TVDP_ASSIGN_OR_RETURN(const Row* stored, t->Get(rec.row_id));
      TVDP_RETURN_IF_ERROR(engine_->IndexRowLocked(rec.table, *stored));
    }
    engine_->MarkTableDirtyLocked(rec.table);
    ++applied;
    registry_dirty = registry_dirty ||
                     rec.table == tables::kImageContentClassification ||
                     rec.table == tables::kImageContentClassificationTypes;
  }
  // Deletes have no per-record index removal: rebuild from survivors.
  if (saw_delete) TVDP_RETURN_IF_ERROR(engine_->ReindexAllLocked());
  if (registry_dirty) {
    TVDP_RETURN_IF_ERROR(RebuildClassificationsUnlocked());
  }
  return applied;
}

void Tvdp::Fence(int64_t fenced_at_epoch) {
  // Writer lock: in-flight writers drain before the fence lands, so a
  // stale primary cannot ack a mutation sequenced after its demotion.
  std::unique_lock lock(engine_->mutex());
  const int64_t epoch =
      std::max(epoch_.load(std::memory_order_relaxed), fenced_at_epoch);
  epoch_.store(epoch, std::memory_order_relaxed);
  fence_refusal_ = Status::FailedPrecondition(
      "engine is fenced (stale primary, epoch " + std::to_string(epoch) +
      "): write rejected");
  fenced_.store(true, std::memory_order_release);
}

void Tvdp::Fence(Status refusal) {
  std::unique_lock lock(engine_->mutex());
  fence_refusal_ = std::move(refusal);
  fenced_.store(true, std::memory_order_release);
}

bool Tvdp::fenced() const { return fenced_.load(std::memory_order_acquire); }

void Tvdp::set_epoch(int64_t epoch) {
  std::unique_lock lock(engine_->mutex());
  epoch_.store(epoch, std::memory_order_release);
  durable_->set_epoch(epoch);
}

int64_t Tvdp::epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

Status Tvdp::SaveToFile(const std::string& path) const {
  // Serialize the pinned snapshot's immutable table copies: byte-identical
  // to Catalog::SaveToFile (same format, same name order), no lock held.
  query::SnapshotRef snap = engine_->PinSnapshot();
  std::vector<const storage::Table*> snapshot_tables;
  snapshot_tables.reserve(snap->tables.size());
  for (const auto& [_, t] : snap->tables) snapshot_tables.push_back(t.get());
  return storage::WriteFile(
      path, storage::Catalog::SerializeTables(snapshot_tables));
}

Status Tvdp::Checkpoint() { return durable_->Checkpoint(); }

}  // namespace tvdp::platform
