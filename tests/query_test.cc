#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "geo/geo_point.h"
#include "platform/tvdp.h"
#include "query/engine.h"
#include "query/query.h"

namespace tvdp::query {
namespace {

using platform::AnnotationRecord;
using platform::ImageRecord;
using platform::Tvdp;

/// A platform pre-loaded with a deterministic corpus:
///  * 40 images on a grid across the region;
///  * even ids have keyword "tent" + "street", odd have "clean" + "street";
///  * even ids annotated encampment, odd annotated clean;
///  * all have a 4-d "cnn" feature: ~one-hot by quadrant;
///  * capture times spread at 1h intervals.
struct Fixture {
  Tvdp tvdp;
  std::vector<int64_t> ids;
  geo::BoundingBox region;

  static Fixture Make() {
    auto created = Tvdp::Create();
    EXPECT_TRUE(created.ok());
    Fixture f{std::move(created).value(), {}, geo::BoundingBox()};
    f.region = geo::BoundingBox::FromCorners({34.00, -118.30}, {34.10, -118.20});
    EXPECT_TRUE(f.tvdp
                    .RegisterClassification(
                        "street_cleanliness",
                        {"clean", "bulky_item", "illegal_dumping",
                         "encampment", "overgrown_vegetation"})
                    .ok());
    for (int i = 0; i < 40; ++i) {
      int row = i / 8, col = i % 8;
      ImageRecord rec;
      rec.uri = "img" + std::to_string(i);
      rec.location = geo::GeoPoint{34.00 + row * 0.02, -118.30 + col * 0.0125};
      auto fov = geo::FieldOfView::Make(rec.location, (i * 37) % 360, 60, 120);
      EXPECT_TRUE(fov.ok());
      rec.fov = *fov;
      rec.captured_at = 1546300800 + i * 3600;
      rec.keywords = i % 2 == 0
                         ? std::vector<std::string>{"tent", "street"}
                         : std::vector<std::string>{"clean", "street"};
      auto id = f.tvdp.IngestImage(rec);
      EXPECT_TRUE(id.ok()) << id.status();
      f.ids.push_back(*id);

      AnnotationRecord ann;
      ann.classification = "street_cleanliness";
      ann.label = i % 2 == 0 ? "encampment" : "clean";
      ann.confidence = 0.5 + 0.01 * i;
      ann.machine = true;
      EXPECT_TRUE(f.tvdp.AnnotateImage(*id, ann).ok());

      ml::FeatureVector feat(4, 0.1);
      feat[static_cast<size_t>(i % 4)] = 1.0;
      EXPECT_TRUE(f.tvdp.StoreFeature(*id, "cnn", feat).ok());
    }
    return f;
  }
};

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { fixture_ = std::make_unique<Fixture>(Fixture::Make()); }
  QueryEngine& engine() { return fixture_->tvdp.query(); }
  Fixture& fixture() { return *fixture_; }
  std::unique_ptr<Fixture> fixture_;
};

// ---------- single-modality ----------

TEST_F(QueryEngineTest, SpatialRangeFindsSubsets) {
  auto all = engine().SpatialRange(fixture().region);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 40u);
  // A small box around the first image.
  geo::BoundingBox small = geo::BoundingBox::FromCenterRadius(
      geo::GeoPoint{34.00, -118.30}, 200);
  auto few = engine().SpatialRange(small);
  ASSERT_TRUE(few.ok());
  EXPECT_GE(few->size(), 1u);
  EXPECT_LT(few->size(), 40u);
  EXPECT_FALSE(engine().SpatialRange(geo::BoundingBox::Empty()).ok());
}

TEST_F(QueryEngineTest, SpatialRangeMatchesScanBaseline) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    geo::BoundingBox box = geo::BoundingBox::FromCenterRadius(
        geo::GeoPoint{rng.Uniform(34.0, 34.1), rng.Uniform(-118.3, -118.2)},
        rng.Uniform(300, 3000));
    auto indexed = engine().SpatialRange(box);
    auto scanned = engine().SpatialRangeScan(box);
    ASSERT_TRUE(indexed.ok());
    ASSERT_TRUE(scanned.ok());
    std::set<int64_t> a, b;
    for (const auto& h : *indexed) a.insert(h.image_id);
    for (const auto& h : *scanned) b.insert(h.image_id);
    EXPECT_EQ(a, b);
  }
}

TEST_F(QueryEngineTest, SpatialKnnOrdersByDistance) {
  geo::GeoPoint probe{34.05, -118.25};
  auto hits = engine().SpatialKnn(probe, 5);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 5u);
  EXPECT_FALSE(engine().SpatialKnn(probe, 0).ok());
}

TEST_F(QueryEngineTest, SpatialKnnRanksByGeodesicMeters) {
  // Off-grid probe: the nearest-k order by exact haversine meters differs
  // from naive degree-space ordering (a degree of longitude is ~17%
  // shorter than a degree of latitude at this latitude). The engine must
  // return the brute-force geodesic order.
  geo::GeoPoint probe{34.051, -118.256};
  const int k = 10;
  auto hits = engine().SpatialKnn(probe, k);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), static_cast<size_t>(k));
  std::vector<std::pair<double, int64_t>> expect;
  for (int i = 0; i < 40; ++i) {
    int row = i / 8, col = i % 8;
    geo::GeoPoint loc{34.00 + row * 0.02, -118.30 + col * 0.0125};
    expect.emplace_back(geo::HaversineMeters(probe, loc), fixture().ids[i]);
  }
  std::sort(expect.begin(), expect.end());
  for (int i = 0; i < k; ++i) {
    EXPECT_EQ((*hits)[static_cast<size_t>(i)].image_id,
              expect[static_cast<size_t>(i)].second)
        << "rank " << i;
  }
}

TEST_F(QueryEngineTest, VisibleAtUsesFovs) {
  // Pick an image's FOV interior point.
  auto hits = engine().VisibleAt(geo::GeoPoint{34.00, -118.30});
  ASSERT_TRUE(hits.ok());
  // The camera location itself is visible to its own FOV.
  bool found = false;
  for (const auto& h : *hits) {
    if (h.image_id == fixture().ids[0]) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(QueryEngineTest, VisualTopKReturnsExactDuplicateFirst) {
  ml::FeatureVector probe(4, 0.1);
  probe[2] = 1.0;
  auto hits = engine().VisualTopK("cnn", probe, 3);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_NEAR((*hits)[0].visual_distance, 0.0, 1e-12);
  // Unknown kind errors.
  EXPECT_FALSE(engine().VisualTopK("sift_bow", probe, 3).ok());
}

TEST_F(QueryEngineTest, VisualTopKAgreesWithScan) {
  ml::FeatureVector probe(4, 0.1);
  probe[1] = 1.0;
  auto approx = engine().VisualTopK("cnn", probe, 10);
  auto exact = engine().VisualTopKScan("cnn", probe, 10);
  ASSERT_TRUE(approx.ok());
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact->size(), 10u);
  // LSH recall on this small exact-match corpus should be high: compare
  // distance of last returned result.
  EXPECT_GE(approx->size(), 5u);
  EXPECT_NEAR((*approx)[0].visual_distance, (*exact)[0].visual_distance, 1e-9);
}

TEST_F(QueryEngineTest, CategoricalFiltersByLabelConfidenceSource) {
  CategoricalPredicate pred;
  pred.classification = "street_cleanliness";
  pred.label = "encampment";
  auto hits = engine().Categorical(pred);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 20u);
  pred.min_confidence = 0.8;  // only the later (higher-confidence) ones
  auto confident = engine().Categorical(pred);
  ASSERT_TRUE(confident.ok());
  EXPECT_LT(confident->size(), 20u);
  EXPECT_GT(confident->size(), 0u);
  pred.min_confidence = 0;
  pred.source = "manual";
  auto manual = engine().Categorical(pred);
  ASSERT_TRUE(manual.ok());
  EXPECT_TRUE(manual->empty());
  pred.label = "not_a_label";
  EXPECT_FALSE(engine().Categorical(pred).ok());
}

TEST_F(QueryEngineTest, TextualAndOrSemantics) {
  TextualPredicate tent_and;
  tent_and.keywords = {"tent", "street"};
  auto both = engine().Textual(tent_and);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->size(), 20u);
  TextualPredicate any;
  any.mode = TextualPredicate::Mode::kOr;
  any.keywords = {"tent", "clean"};
  auto either = engine().Textual(any);
  ASSERT_TRUE(either.ok());
  EXPECT_EQ(either->size(), 40u);
  TextualPredicate empty;
  EXPECT_FALSE(engine().Textual(empty).ok());
}

TEST_F(QueryEngineTest, TemporalRange) {
  auto first_ten = engine().Temporal(1546300800, 1546300800 + 9 * 3600);
  ASSERT_TRUE(first_ten.ok());
  EXPECT_EQ(first_ten->size(), 10u);
  EXPECT_FALSE(engine().Temporal(100, 50).ok());
}

TEST_F(QueryEngineTest, TemporalBoundariesAreInclusive) {
  // Fixture capture times are 1546300800 + i*3600. Both window boundaries
  // are part of the result ([begin, end] closed on both ends).
  const Timestamp t0 = 1546300800;
  auto exact = engine().Temporal(t0, t0);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->size(), 1u);
  auto both_ends = engine().Temporal(t0 + 3600, t0 + 2 * 3600);
  ASSERT_TRUE(both_ends.ok());
  EXPECT_EQ(both_ends->size(), 2u);
  // One second short of a capture time excludes it.
  auto short_of = engine().Temporal(t0 + 1, t0 + 3600 - 1);
  ASSERT_TRUE(short_of.ok());
  EXPECT_TRUE(short_of->empty());
  // An inverted range is InvalidArgument, not an empty (or full) scan —
  // even when inverted by a single tick.
  auto inverted = engine().Temporal(t0 + 1, t0);
  ASSERT_FALSE(inverted.ok());
  EXPECT_EQ(inverted.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryEngineTest, HybridRejectsInvertedTemporal) {
  // Before the fix the planner silently treated an inverted window as
  // non-selective; it must fail the whole query up front instead.
  HybridQuery q;
  TextualPredicate tp;
  tp.keywords = {"tent"};
  q.textual = tp;
  q.temporal = TemporalPredicate{1546300800 + 3600, 1546300800};
  auto hits = engine().Execute(q);
  ASSERT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kInvalidArgument);
}

// ---------- hybrid ----------

TEST_F(QueryEngineTest, HybridSpatialTextual) {
  HybridQuery q;
  SpatialPredicate sp;
  sp.kind = SpatialPredicate::Kind::kRange;
  sp.range = fixture().region;
  q.spatial = sp;
  TextualPredicate tp;
  tp.keywords = {"tent"};
  q.textual = tp;
  QueryPlan plan;
  auto hits = engine().Execute(q, nullptr, QueryBudget(), &plan);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 20u);
  EXPECT_TRUE(plan.executed);
  EXPECT_FALSE(plan.LegacySummary().empty());
}

TEST_F(QueryEngineTest, HybridCategoricalTemporal) {
  HybridQuery q;
  CategoricalPredicate cp;
  cp.classification = "street_cleanliness";
  cp.label = "encampment";
  q.categorical = cp;
  q.temporal = TemporalPredicate{1546300800, 1546300800 + 9 * 3600};
  auto hits = engine().Execute(q);
  ASSERT_TRUE(hits.ok());
  // Even ids among the first 10 images -> 5.
  EXPECT_EQ(hits->size(), 5u);
}

TEST_F(QueryEngineTest, HybridVisualTopKWithCategoricalFilter) {
  HybridQuery q;
  VisualPredicate vp;
  vp.feature_kind = "cnn";
  vp.feature = ml::FeatureVector(4, 0.1);
  vp.feature[0] = 1.0;
  vp.k = 5;
  q.visual = vp;
  CategoricalPredicate cp;
  cp.classification = "street_cleanliness";
  cp.label = "encampment";
  q.categorical = cp;
  auto hits = engine().Execute(q);
  ASSERT_TRUE(hits.ok());
  EXPECT_LE(hits->size(), 5u);
  // Every hit must be annotated encampment (even id).
  for (const auto& h : *hits) {
    auto label = fixture().tvdp.GetLabel(h.image_id, "street_cleanliness");
    ASSERT_TRUE(label.ok());
    EXPECT_EQ(*label, "encampment");
  }
  // Results sorted by visual distance.
  for (size_t i = 1; i < hits->size(); ++i) {
    EXPECT_GE((*hits)[i].visual_distance, (*hits)[i - 1].visual_distance);
  }
}

TEST_F(QueryEngineTest, HybridReturnsEachImageOnce) {
  // An image with several stored vectors of the same kind used to surface
  // once per vector: the LSH/visual indexes keep one entry per insert, and
  // the hybrid executor verified (and emitted) every candidate entry.
  int64_t dup_id = fixture().ids[0];
  ml::FeatureVector near_first(4, 0.1);
  near_first[0] = 1.0;
  // Two more vectors for the same image, same kind, both close to probe.
  ml::FeatureVector v2 = near_first, v3 = near_first;
  v2[1] = 0.15;
  v3[2] = 0.15;
  ASSERT_TRUE(fixture().tvdp.StoreFeature(dup_id, "cnn", v2).ok());
  ASSERT_TRUE(fixture().tvdp.StoreFeature(dup_id, "cnn", v3).ok());

  auto count_of = [&](const std::vector<QueryHit>& hits, int64_t id) {
    return std::count_if(hits.begin(), hits.end(),
                         [&](const QueryHit& h) { return h.image_id == id; });
  };

  // Visual threshold: wide enough to pull in every stored vector.
  auto thr = engine().VisualThreshold("cnn", near_first, 10.0);
  ASSERT_TRUE(thr.ok());
  EXPECT_EQ(count_of(*thr, dup_id), 1) << "VisualThreshold duplicated a hit";

  // Visual top-k: k larger than the duplicate count.
  auto topk = engine().VisualTopK("cnn", near_first, 10);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(count_of(*topk, dup_id), 1) << "VisualTopK duplicated a hit";

  // Hybrid visual + textual: the seed fans out over index entries but the
  // result must carry the image at most once.
  HybridQuery q;
  VisualPredicate vp;
  vp.kind = VisualPredicate::Kind::kThreshold;
  vp.feature_kind = "cnn";
  vp.feature = near_first;
  vp.threshold = 10.0;
  q.visual = vp;
  TextualPredicate tp;
  tp.keywords = {"tent"};
  q.textual = tp;
  auto hits = engine().Execute(q);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(count_of(*hits, dup_id), 1) << "hybrid Execute duplicated a hit";
  std::set<int64_t> unique_ids;
  for (const auto& h : *hits) unique_ids.insert(h.image_id);
  EXPECT_EQ(unique_ids.size(), hits->size());
}

TEST_F(QueryEngineTest, HybridRespectsLimit) {
  HybridQuery q;
  TextualPredicate tp;
  tp.keywords = {"street"};
  q.textual = tp;
  q.limit = 7;
  auto hits = engine().Execute(q);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 7u);
}

TEST_F(QueryEngineTest, EmptyHybridRejected) {
  EXPECT_FALSE(engine().Execute(HybridQuery{}).ok());
}

TEST_F(QueryEngineTest, PlannerSeedsWithMostSelectivePredicate) {
  // A very rare keyword should seed the plan rather than the broad
  // spatial range.
  ImageRecord rec;
  rec.uri = "special";
  rec.location = geo::GeoPoint{34.05, -118.25};
  rec.captured_at = 1546300800;
  rec.keywords = {"zebraunicorn"};
  auto id = fixture().tvdp.IngestImage(rec);
  ASSERT_TRUE(id.ok());

  HybridQuery q;
  SpatialPredicate sp;
  sp.kind = SpatialPredicate::Kind::kRange;
  sp.range = fixture().region;
  q.spatial = sp;
  TextualPredicate tp;
  tp.keywords = {"zebraunicorn"};
  q.textual = tp;
  QueryPlan plan;
  auto hits = engine().Execute(q, nullptr, QueryBudget(), &plan);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].image_id, *id);
  EXPECT_NE(plan.LegacySummary().find("seed=textual"), std::string::npos)
      << plan.LegacySummary();
}

TEST_F(QueryEngineTest, ScoreConventionIsUniformAcrossFamilies) {
  // Every family agrees on "ascending, lower is better, 0 = boolean
  // membership", so hits from different operators can be merged and
  // re-ranked with one comparator.
  geo::GeoPoint probe{34.051, -118.256};
  auto knn = engine().SpatialKnn(probe, 5);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->size(), 5u);
  for (size_t i = 0; i < knn->size(); ++i) {
    // kNN scores are exact geodesic meters.
    int idx = -1;
    for (size_t j = 0; j < fixture().ids.size(); ++j) {
      if (fixture().ids[j] == (*knn)[i].image_id) idx = static_cast<int>(j);
    }
    ASSERT_GE(idx, 0);
    geo::GeoPoint loc{34.00 + (idx / 8) * 0.02, -118.30 + (idx % 8) * 0.0125};
    EXPECT_NEAR((*knn)[i].score, geo::HaversineMeters(probe, loc), 1e-6);
    if (i > 0) {
      EXPECT_GE((*knn)[i].score, (*knn)[i - 1].score);
    }
  }

  ml::FeatureVector vfeat(4, 0.1);
  vfeat[1] = 1.0;
  auto topk = engine().VisualTopK("cnn", vfeat, 5);
  ASSERT_TRUE(topk.ok());
  for (size_t i = 0; i < topk->size(); ++i) {
    // Visual scores are the L2 feature distance.
    EXPECT_DOUBLE_EQ((*topk)[i].score, (*topk)[i].visual_distance);
    if (i > 0) {
      EXPECT_GE((*topk)[i].score, (*topk)[i - 1].score);
    }
  }

  // Boolean-membership families report score 0.
  auto range = engine().SpatialRange(fixture().region);
  ASSERT_TRUE(range.ok());
  for (const auto& h : *range) EXPECT_EQ(h.score, 0.0);
  TextualPredicate tp;
  tp.keywords = {"street"};
  auto textual = engine().Textual(tp);
  ASSERT_TRUE(textual.ok());
  for (const auto& h : *textual) EXPECT_EQ(h.score, 0.0);

  // Hybrid with a visual conjunct: score is the visual distance and the
  // result comes back already ordered by it.
  HybridQuery q;
  VisualPredicate vp;
  vp.kind = VisualPredicate::Kind::kThreshold;
  vp.feature_kind = "cnn";
  vp.feature = vfeat;
  vp.threshold = 10.0;
  q.visual = vp;
  q.textual = tp;
  auto hybrid = engine().Execute(q);
  ASSERT_TRUE(hybrid.ok());
  ASSERT_FALSE(hybrid->empty());
  for (size_t i = 0; i < hybrid->size(); ++i) {
    EXPECT_DOUBLE_EQ((*hybrid)[i].score, (*hybrid)[i].visual_distance);
    if (i > 0) {
      EXPECT_GE((*hybrid)[i].score, (*hybrid)[i - 1].score);
    }
  }

  // Cross-family merge: one comparator ranks a mixed hit list without
  // per-family cases (membership hits sort ahead at score 0).
  std::vector<QueryHit> merged;
  merged.insert(merged.end(), knn->begin(), knn->end());
  merged.insert(merged.end(), topk->begin(), topk->end());
  merged.insert(merged.end(), textual->begin(), textual->end());
  std::sort(merged.begin(), merged.end(),
            [](const QueryHit& a, const QueryHit& b) {
              return a.score < b.score;
            });
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_GE(merged[i].score, merged[i - 1].score);
  }
}

TEST(QueryDescribeTest, ListsFamilies) {
  HybridQuery q;
  EXPECT_EQ(DescribeQuery(q), "empty");
  q.spatial = SpatialPredicate{};
  q.visual = VisualPredicate{};
  EXPECT_EQ(DescribeQuery(q), "spatial+visual");
}

}  // namespace
}  // namespace tvdp::query
