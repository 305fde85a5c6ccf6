// Sec. IV-C design-choice ablation: per-operation latency of every TVDP
// query family through its index versus a full-scan baseline, plus the
// planner's filter-then-rank spatial-visual query.
// Run with --benchmark_filter=... to select cases.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "platform/tvdp.h"
#include "query/engine.h"

namespace tvdp {
namespace {

constexpr int kCorpusSize = 4000;
constexpr size_t kFeatureDim = 64;

/// One shared corpus for all ablation cases (built once, lazily).
struct AblationFixture {
  platform::Tvdp tvdp;
  geo::BoundingBox region;
  std::vector<ml::FeatureVector> probe_features;
  std::vector<geo::BoundingBox> probe_boxes;

  static AblationFixture& Get() {
    static AblationFixture* fixture = new AblationFixture();
    return *fixture;
  }

 private:
  AblationFixture() : tvdp(std::move(platform::Tvdp::Create()).value()) {
    region = geo::BoundingBox::FromCorners({34.00, -118.30}, {34.10, -118.20});
    Rng rng(1234);
    bool registered =
        tvdp.RegisterClassification("street_cleanliness",
                                    {"clean", "encampment"})
            .ok();
    (void)registered;
    for (int i = 0; i < kCorpusSize; ++i) {
      platform::ImageRecord rec;
      rec.uri = "bench://" + std::to_string(i);
      rec.location = geo::GeoPoint{rng.Uniform(region.min_lat, region.max_lat),
                                   rng.Uniform(region.min_lon, region.max_lon)};
      auto fov = geo::FieldOfView::Make(rec.location, rng.Uniform(0, 360),
                                        60, 120);
      rec.fov = *fov;
      rec.captured_at = 1546300800 + i * 60;
      rec.keywords = {i % 7 == 0 ? "tent" : "street"};
      auto id = tvdp.IngestImage(rec);
      ml::FeatureVector f(kFeatureDim);
      for (double& x : f) x = rng.Normal();
      ml::L2NormalizeInPlace(f);
      bool stored = tvdp.StoreFeature(*id, "cnn", f).ok();
      (void)stored;
      platform::AnnotationRecord ann;
      ann.classification = "street_cleanliness";
      ann.label = i % 5 == 0 ? "encampment" : "clean";
      ann.confidence = 0.9;
      ann.machine = true;
      bool annotated = tvdp.AnnotateImage(*id, ann).ok();
      (void)annotated;
    }
    // Pre-generate probes so benchmark iterations measure queries only.
    for (int i = 0; i < 64; ++i) {
      ml::FeatureVector f(kFeatureDim);
      for (double& x : f) x = rng.Normal();
      ml::L2NormalizeInPlace(f);
      probe_features.push_back(std::move(f));
      probe_boxes.push_back(geo::BoundingBox::FromCenterRadius(
          geo::GeoPoint{rng.Uniform(region.min_lat, region.max_lat),
                        rng.Uniform(region.min_lon, region.max_lon)},
          rng.Uniform(300, 1500)));
    }
  }
};

void BM_SpatialRange_Indexed(benchmark::State& state) {
  auto& f = AblationFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto hits = f.tvdp.query().SpatialRange(
        f.probe_boxes[i++ % f.probe_boxes.size()]);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_SpatialRange_Indexed);

void BM_SpatialRange_FullScan(benchmark::State& state) {
  auto& f = AblationFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto hits = f.tvdp.query().SpatialRangeScan(
        f.probe_boxes[i++ % f.probe_boxes.size()]);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_SpatialRange_FullScan);

void BM_VisualTopK_Lsh(benchmark::State& state) {
  auto& f = AblationFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto hits = f.tvdp.query().VisualTopK(
        "cnn", f.probe_features[i++ % f.probe_features.size()], 10);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_VisualTopK_Lsh);

void BM_VisualTopK_FullScan(benchmark::State& state) {
  auto& f = AblationFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto hits = f.tvdp.query().VisualTopKScan(
        "cnn", f.probe_features[i++ % f.probe_features.size()], 10);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_VisualTopK_FullScan);

void BM_SpatialVisual_FilterThenRank(benchmark::State& state) {
  // Spatial range plus visual top-k through the planner: an LSH seed with
  // a spatial verify.
  auto& f = AblationFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    size_t j = i++ % f.probe_features.size();
    query::HybridQuery q;
    query::SpatialPredicate sp;
    sp.kind = query::SpatialPredicate::Kind::kRange;
    sp.range = f.probe_boxes[j];
    q.spatial = sp;
    query::VisualPredicate vp;
    vp.feature_kind = "cnn";
    vp.feature = f.probe_features[j];
    vp.k = 10;
    q.visual = vp;
    auto hits = f.tvdp.query().Execute(q);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_SpatialVisual_FilterThenRank);

void BM_Textual_InvertedIndex(benchmark::State& state) {
  auto& f = AblationFixture::Get();
  query::TextualPredicate pred;
  pred.keywords = {"tent"};
  for (auto _ : state) {
    auto hits = f.tvdp.query().Textual(pred);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Textual_InvertedIndex);

void BM_Temporal_SortedIndex(benchmark::State& state) {
  auto& f = AblationFixture::Get();
  Timestamp begin = 1546300800 + 1000 * 60;
  for (auto _ : state) {
    auto hits = f.tvdp.query().Temporal(begin, begin + 600 * 60);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Temporal_SortedIndex);

void BM_Categorical_Annotations(benchmark::State& state) {
  auto& f = AblationFixture::Get();
  query::CategoricalPredicate pred;
  pred.classification = "street_cleanliness";
  pred.label = "encampment";
  for (auto _ : state) {
    auto hits = f.tvdp.query().Categorical(pred);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Categorical_Annotations);

void BM_HybridPlanner_CategoricalTemporal(benchmark::State& state) {
  auto& f = AblationFixture::Get();
  query::HybridQuery q;
  query::CategoricalPredicate cp;
  cp.classification = "street_cleanliness";
  cp.label = "encampment";
  q.categorical = cp;
  q.temporal = query::TemporalPredicate{1546300800, 1546300800 + 500 * 60};
  for (auto _ : state) {
    auto hits = f.tvdp.query().Execute(q);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_HybridPlanner_CategoricalTemporal);

// --- Index construction: incremental insert vs STR bulk load ---

std::vector<std::pair<geo::BoundingBox, index::RecordId>> BuildEntries(
    int n) {
  Rng rng(99);
  std::vector<std::pair<geo::BoundingBox, index::RecordId>> entries;
  entries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    geo::GeoPoint p{rng.Uniform(34.0, 34.1), rng.Uniform(-118.3, -118.2)};
    entries.emplace_back(geo::BoundingBox::FromCenterRadius(p, 50), i);
  }
  return entries;
}

void BM_RTreeBuild_Incremental(benchmark::State& state) {
  auto entries = BuildEntries(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    index::RTree tree;
    for (const auto& [box, id] : entries) {
      benchmark::DoNotOptimize(tree.Insert(box, id));
    }
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_RTreeBuild_Incremental)->Arg(1000)->Arg(10000);

void BM_RTreeBuild_BulkLoad(benchmark::State& state) {
  auto entries = BuildEntries(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto tree = index::RTree::BulkLoad(entries);
    benchmark::DoNotOptimize(tree->size());
  }
}
BENCHMARK(BM_RTreeBuild_BulkLoad)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace tvdp

BENCHMARK_MAIN();
