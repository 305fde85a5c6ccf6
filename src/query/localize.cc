#include "query/localize.h"

#include <cmath>

namespace tvdp::query {

Result<Localization> SceneLocalizer::Localize(const std::string& feature_kind,
                                              const ml::FeatureVector& feature,
                                              int k) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  TVDP_ASSIGN_OR_RETURN(std::vector<QueryHit> hits,
                        engine_->VisualTopK(feature_kind, feature, k));
  if (hits.empty()) {
    return Status::FailedPrecondition(
        "no visually similar tagged images available");
  }

  const storage::Table* images =
      catalog_->GetTable(storage::tables::kImages);
  if (!images) return Status::FailedPrecondition("images table missing");
  const storage::Schema& s = images->schema();
  size_t lat_idx = static_cast<size_t>(s.ColumnIndex("lat"));
  size_t lon_idx = static_cast<size_t>(s.ColumnIndex("lon"));

  // Similarity-weighted centroid of the neighbours' camera locations.
  double total_weight = 0, lat = 0, lon = 0;
  std::vector<std::pair<geo::GeoPoint, double>> weighted;
  for (const QueryHit& hit : hits) {
    TVDP_ASSIGN_OR_RETURN(const storage::Row* row, images->Get(hit.image_id));
    geo::GeoPoint p{(*row)[lat_idx].AsDouble(), (*row)[lon_idx].AsDouble()};
    double w = 1.0 / (hit.visual_distance + 1e-3);
    weighted.emplace_back(p, w);
    total_weight += w;
    lat += p.lat * w;
    lon += p.lon * w;
  }
  Localization out;
  out.estimate = geo::GeoPoint{lat / total_weight, lon / total_weight};
  out.support = static_cast<int>(weighted.size());
  double spread = 0;
  for (const auto& [p, w] : weighted) {
    spread += w * geo::HaversineMeters(p, out.estimate);
  }
  out.spread_m = spread / total_weight;
  return out;
}

}  // namespace tvdp::query
