#include "corpus.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "storage/tvdp_schema.h"

namespace tvdp::e2e {
namespace {

using storage::Row;
using storage::Value;
namespace tables = storage::tables;

constexpr double kLabelShares[] = {0.50, 0.15, 0.15, 0.10, 0.10};
constexpr int kHotspots = 8;
constexpr double kHotspotSigmaDeg = 0.005;
constexpr int kCentres = 64;
constexpr double kFeatureNoise = 0.15;

geo::GeoPoint ClampToRegion(geo::GeoPoint p) {
  const geo::BoundingBox r = Region();
  p.lat = std::clamp(p.lat, r.min_lat, r.max_lat);
  p.lon = std::clamp(p.lon, r.min_lon, r.max_lon);
  return p;
}

geo::GeoPoint UniformPoint(Rng& rng) {
  const geo::BoundingBox r = Region();
  return {rng.Uniform(r.min_lat, r.max_lat), rng.Uniform(r.min_lon, r.max_lon)};
}

void L2Normalize(ml::FeatureVector& v) {
  double norm = 0;
  for (double x : v) norm += x * x;
  norm = std::sqrt(norm);
  for (double& x : v) x /= norm;
}

}  // namespace

geo::BoundingBox Region() {
  return geo::BoundingBox{34.0, -118.4, 34.2, -118.2};
}

Corpus::Corpus(uint64_t seed) : seed_(seed) {
  Rng rng(seed);
  // One hotspot in the middle half of each cell of a 2x4 grid over the
  // region: seeded, but never overlapping or clipped at the region's edge,
  // so every seed loads the indexes (and the fleet's shards) alike.
  const geo::BoundingBox r = Region();
  const double dlat = (r.max_lat - r.min_lat) / 2;
  const double dlon = (r.max_lon - r.min_lon) / (kHotspots / 2);
  for (int h = 0; h < kHotspots; ++h) {
    const double lat0 = r.min_lat + (h / (kHotspots / 2)) * dlat;
    const double lon0 = r.min_lon + (h % (kHotspots / 2)) * dlon;
    hotspots_.push_back({rng.Uniform(lat0 + dlat / 4, lat0 + 3 * dlat / 4),
                         rng.Uniform(lon0 + dlon / 4, lon0 + 3 * dlon / 4)});
  }
  for (int c = 0; c < kCentres; ++c) {
    ml::FeatureVector centre(kFeatureDim);
    for (double& x : centre) x = rng.Normal();
    L2Normalize(centre);
    centres_.push_back(std::move(centre));
  }
}

geo::GeoPoint Corpus::QueryPoint(Rng& rng) const {
  if (rng.Bernoulli(0.5)) return UniformPoint(rng);
  const geo::GeoPoint& h =
      hotspots_[static_cast<size_t>(rng.UniformInt(0, kHotspots - 1))];
  return ClampToRegion({rng.Normal(h.lat, kHotspotSigmaDeg),
                        rng.Normal(h.lon, kHotspotSigmaDeg)});
}

ml::FeatureVector Corpus::QueryFeature(Rng& rng) const {
  ml::FeatureVector f =
      centres_[static_cast<size_t>(rng.UniformInt(0, kCentres - 1))];
  const double sigma =
      kFeatureNoise / std::sqrt(static_cast<double>(kFeatureDim));
  for (double& x : f) x += rng.Normal(0, sigma);
  L2Normalize(f);
  return f;
}

Image Corpus::Make(int64_t i) const {
  Rng rng(seed_ ^ (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(i + 1)));
  Image img;
  platform::ImageRecord& r = img.record;
  r.location = QueryPoint(rng);
  r.fov = geo::FieldOfView{r.location, rng.Uniform(0, 360), 60,
                           rng.Uniform(50, 150)};
  r.captured_at = kEpoch + 60 * i;
  r.uri = StrFormat("tvdp://lasan/img_%lld", static_cast<long long>(i));
  r.source = "lasan_truck";
  img.label = static_cast<int>(rng.WeightedIndex(
      std::vector<double>(std::begin(kLabelShares), std::end(kLabelShares))));
  r.keywords = {"street", kLabels[static_cast<size_t>(img.label)]};
  img.confidence = rng.Uniform(0.6, 1.0);
  img.feature = QueryFeature(rng);
  return img;
}

Status SeedRows(const std::vector<Image>& images, storage::Catalog* catalog) {
  // Row layouts mirror Tvdp::RegisterClassification, IngestImage,
  // StoreFeature and AnnotateImage column for column.
  TVDP_ASSIGN_OR_RETURN(
      int64_t task_id,
      catalog->Insert(tables::kImageContentClassification,
                      Row{Value(kTask), Value()}));
  std::vector<int64_t> type_ids;
  for (const char* label : kLabels) {
    TVDP_ASSIGN_OR_RETURN(
        int64_t type_id,
        catalog->Insert(tables::kImageContentClassificationTypes,
                        Row{Value(task_id), Value(label)}));
    type_ids.push_back(type_id);
  }
  for (const Image& img : images) {
    const platform::ImageRecord& r = img.record;
    TVDP_ASSIGN_OR_RETURN(
        int64_t id,
        catalog->Insert(tables::kImages,
                        Row{Value(r.uri), Value(r.location.lat),
                            Value(r.location.lon), Value(r.captured_at),
                            Value(r.captured_at), Value(r.source), Value(false),
                            Value()}));
    TVDP_RETURN_IF_ERROR(
        catalog
            ->Insert(tables::kImageFov,
                     Row{Value(id), Value(r.fov->direction_deg),
                         Value(r.fov->angle_deg), Value(r.fov->radius_m)})
            .status());
    const geo::BoundingBox scene = r.fov->SceneLocation();
    TVDP_RETURN_IF_ERROR(
        catalog
            ->Insert(tables::kImageSceneLocation,
                     Row{Value(id), Value(scene.min_lat), Value(scene.min_lon),
                         Value(scene.max_lat), Value(scene.max_lon)})
            .status());
    for (const std::string& kw : r.keywords) {
      TVDP_RETURN_IF_ERROR(catalog
                               ->Insert(tables::kImageManualKeywords,
                                        Row{Value(id), Value(kw)})
                               .status());
    }
    TVDP_RETURN_IF_ERROR(
        catalog
            ->Insert(tables::kImageVisualFeatures,
                     Row{Value(id), Value(kFeatureKind),
                         Value(std::vector<double>(img.feature))})
            .status());
    TVDP_RETURN_IF_ERROR(
        catalog
            ->Insert(tables::kImageContentAnnotation,
                     Row{Value(id),
                         Value(type_ids[static_cast<size_t>(img.label)]),
                         Value(img.confidence), Value("machine"), Value(),
                         Value(), Value(), Value()})
            .status());
  }
  return Status::OK();
}

Status IngestThroughFacade(const std::vector<Image>& images,
                           platform::Tvdp* tvdp) {
  TVDP_RETURN_IF_ERROR(
      tvdp->RegisterClassification(
              kTask, std::vector<std::string>(kLabels.begin(), kLabels.end()))
          .status());
  for (const Image& img : images) {
    TVDP_ASSIGN_OR_RETURN(int64_t id, tvdp->IngestImage(img.record));
    TVDP_RETURN_IF_ERROR(tvdp->StoreFeature(id, kFeatureKind, img.feature));
    platform::AnnotationRecord ann;
    ann.classification = kTask;
    ann.label = kLabels[static_cast<size_t>(img.label)];
    ann.confidence = img.confidence;
    ann.machine = true;
    TVDP_RETURN_IF_ERROR(tvdp->AnnotateImage(id, ann).status());
  }
  return Status::OK();
}

Json AddDataRequest(const Image& image) {
  const platform::ImageRecord& r = image.record;
  Json req = Json::MakeObject();
  req["lat"] = r.location.lat;
  req["lon"] = r.location.lon;
  req["uri"] = r.uri;
  req["source"] = r.source;
  req["captured_at"] = r.captured_at;
  Json fov = Json::MakeObject();
  fov["direction"] = r.fov->direction_deg;
  fov["angle"] = r.fov->angle_deg;
  fov["radius"] = r.fov->radius_m;
  req["fov"] = std::move(fov);
  Json kws = Json::MakeArray();
  for (const std::string& kw : r.keywords) kws.Append(kw);
  req["keywords"] = std::move(kws);
  Json feature = Json::MakeArray();
  for (double x : image.feature) feature.Append(x);
  Json features = Json::MakeObject();
  features[kFeatureKind] = std::move(feature);
  req["features"] = std::move(features);
  return req;
}

}  // namespace tvdp::e2e
