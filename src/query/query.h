#ifndef TVDP_QUERY_QUERY_H_
#define TVDP_QUERY_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/timeutil.h"
#include "geo/bbox.h"
#include "geo/geo_point.h"
#include "ml/dataset.h"

namespace tvdp::query {

/// Spatial predicate: a range box, a k-nearest-neighbour request, or a
/// point-visibility request ("images that actually show this point",
/// evaluated against FOVs).
struct SpatialPredicate {
  enum class Kind { kRange, kKnn, kVisibleAt };
  Kind kind = Kind::kRange;
  geo::BoundingBox range;   // kRange
  geo::GeoPoint point;      // kKnn / kVisibleAt
  int k = 10;               // kKnn
};

/// Visual predicate: top-k by feature similarity or a distance threshold.
struct VisualPredicate {
  enum class Kind { kTopK, kThreshold };
  Kind kind = Kind::kTopK;
  std::string feature_kind = "cnn";
  ml::FeatureVector feature;
  int k = 10;
  double threshold = 0.5;
};

/// Categorical predicate: annotation label within a classification task.
struct CategoricalPredicate {
  std::string classification;  ///< e.g. "street_cleanliness"
  std::string label;           ///< e.g. "encampment"
  double min_confidence = 0.0;
  /// "manual", "machine", or "" for either.
  std::string source;
};

/// Textual predicate over manual keywords.
struct TextualPredicate {
  enum class Mode { kAnd, kOr };
  Mode mode = Mode::kAnd;
  std::vector<std::string> keywords;
};

/// Temporal predicate over the capture timestamp.
struct TemporalPredicate {
  Timestamp begin = 0;
  Timestamp end = 0;
};

/// A hybrid query: the conjunction of any subset of the five predicate
/// families (paper Sec. IV-C: "a combination of different query types,
/// e.g., spatial-visual query, and spatial-textual query"). Ranking:
/// when a visual top-k predicate is present the result is ordered by
/// visual distance; otherwise by record id.
struct HybridQuery {
  std::optional<SpatialPredicate> spatial;
  std::optional<VisualPredicate> visual;
  std::optional<CategoricalPredicate> categorical;
  std::optional<TextualPredicate> textual;
  std::optional<TemporalPredicate> temporal;
  /// Cap on returned results; 0 = unlimited.
  int limit = 0;
};

/// Per-query resource budget. The default-constructed budget means "no
/// override": the engine uses index-configured probe counts and carries
/// every seed candidate into verification. Degraded plans (admission
/// controller under overload) substitute a cheaper budget — fewer LSH
/// probes and a hard cap on hybrid candidates — trading recall for
/// latency.
struct QueryBudget {
  /// Multi-probe LSH budget per table; -1 = the index default.
  int lsh_probes = -1;
  /// Cap on seed candidates carried into hybrid verification (and on the
  /// visual over-fetch); 0 = uncapped.
  size_t max_candidates = 0;

  /// True when any knob deviates from the full-fidelity plan.
  bool degraded() const { return lsh_probes >= 0 || max_candidates > 0; }
};

/// One result row.
///
/// Score convention (uniform across every operator family): ascending,
/// lower is better, 0 means "boolean membership, no ranking signal".
///  - SpatialKnn: exact geodesic distance in meters.
///  - VisualTopK / VisualThreshold: L2 feature distance.
///  - Hybrid Execute: L2 feature distance when a visual predicate
///    participated, else 0.
///  - SpatialRange / VisibleAt / Categorical / Textual / Temporal: 0.
/// Because all families agree on "ascending, lower is better", hits from
/// different operators can be merged and re-ranked without per-family
/// special cases.
struct QueryHit {
  int64_t image_id = 0;
  /// Visual distance when a visual predicate participated, else 0.
  double visual_distance = 0;
  /// The unified ranking score (see convention above).
  double score = 0;
};

/// Human-readable summary of which predicates a query carries, e.g.
/// "spatial+visual" — used in logs and plan explanations.
std::string DescribeQuery(const HybridQuery& q);

}  // namespace tvdp::query

#endif  // TVDP_QUERY_QUERY_H_
