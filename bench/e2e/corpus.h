#ifndef TVDP_BENCH_E2E_CORPUS_H_
#define TVDP_BENCH_E2E_CORPUS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/rng.h"
#include "geo/bbox.h"
#include "ml/dataset.h"
#include "platform/tvdp.h"
#include "storage/catalog.h"

namespace tvdp::e2e {

inline constexpr char kTask[] = "street_cleanliness";
inline constexpr char kFeatureKind[] = "cnn";
inline constexpr int kFeatureDim = 16;
/// Capture time of image 0; image i is captured i minutes later.
inline constexpr Timestamp kEpoch = 1546300800;

/// The paper's five street-cleanliness classes, in label-id order.
inline constexpr std::array<const char*, 5> kLabels = {
    "clean", "bulky_item", "illegal_dumping", "encampment",
    "overgrown_vegetation"};
inline constexpr int kEncampment = 3;

/// The LASAN region every workload covers.
geo::BoundingBox Region();

/// One generated street image: what `add_data` would upload, plus the
/// machine annotation and CNN feature the analysis service attaches.
struct Image {
  platform::ImageRecord record;
  int label = 0;
  double confidence = 1.0;
  ml::FeatureVector feature;
};

/// The seeded corpus generator. Image `i` depends only on (seed, i), so the
/// corpus, the images writers upload later, and every oracle agree without
/// sharing state.
///   - locations: half uniform over Region(), half around 8 hotspots
///     (sigma 0.005 deg), one per cell of a 2x4 grid;
///   - FOV: angle 60 deg, radius 50-150 m, random direction;
///   - captured_at: kEpoch + 60 s * i;
///   - keywords: "street" plus the class name;
///   - label: clean 50%, bulky_item 15%, illegal_dumping 15%,
///     encampment 10%, overgrown_vegetation 10%;
///   - feature: 16-d and unit-norm like the CNN extractor's output, around
///     one of 64 unit centres with noise of norm ~0.15.
class Corpus {
 public:
  explicit Corpus(uint64_t seed);

  Image Make(int64_t i) const;

  /// A fresh query vector drawn like a corpus feature.
  ml::FeatureVector QueryFeature(Rng& rng) const;
  /// A point near a hotspot (half the draws) or uniform in the region.
  geo::GeoPoint QueryPoint(Rng& rng) const;

 private:
  uint64_t seed_;
  std::vector<geo::GeoPoint> hotspots_;
  std::vector<ml::FeatureVector> centres_;
};

/// Writes `images` into `catalog` (which must hold the empty TVDP schema)
/// as the rows the facade would insert for RegisterClassification(kTask)
/// followed by IngestImage + StoreFeature + AnnotateImage of each image, in
/// order. Every table gets the same row ids the facade would assign.
Status SeedRows(const std::vector<Image>& images, storage::Catalog* catalog);

/// Builds the same state through the facade calls users make.
Status IngestThroughFacade(const std::vector<Image>& images,
                           platform::Tvdp* tvdp);

/// The `add_data` request body for an image (FOV, keywords, CNN feature).
Json AddDataRequest(const Image& image);

}  // namespace tvdp::e2e

#endif  // TVDP_BENCH_E2E_CORPUS_H_
