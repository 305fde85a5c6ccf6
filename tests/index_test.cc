#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "index/inverted_index.h"
#include "index/lsh.h"
#include "index/oriented_rtree.h"
#include "index/rtree.h"
#include "index/temporal_index.h"

namespace tvdp::index {
namespace {

geo::BoundingBox RandomBox(Rng& rng, double max_extent = 0.01) {
  double lat = rng.Uniform(33.9, 34.2);
  double lon = rng.Uniform(-118.5, -118.1);
  geo::BoundingBox box;
  box.min_lat = lat;
  box.min_lon = lon;
  box.max_lat = lat + rng.Uniform(0, max_extent);
  box.max_lon = lon + rng.Uniform(0, max_extent);
  return box;
}

// ---------- RTree ----------

TEST(RTreeTest, InsertValidation) {
  RTree tree;
  EXPECT_FALSE(tree.Insert(geo::BoundingBox::Empty(), 1).ok());
  EXPECT_TRUE(tree.Insert(geo::BoundingBox::FromCorners({34, -118.3},
                                                        {34.01, -118.29}),
                          1)
                  .ok());
  EXPECT_EQ(tree.size(), 1u);
}

class RTreeRandomizedTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeRandomizedTest, RangeSearchMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(100 + n);
  RTree tree;
  std::vector<geo::BoundingBox> boxes;
  for (int i = 0; i < n; ++i) {
    geo::BoundingBox box = RandomBox(rng);
    boxes.push_back(box);
    ASSERT_TRUE(tree.Insert(box, i).ok());
  }
  EXPECT_TRUE(tree.CheckInvariants());
  for (int q = 0; q < 25; ++q) {
    geo::BoundingBox query = RandomBox(rng, 0.05);
    std::set<RecordId> expected;
    for (int i = 0; i < n; ++i) {
      if (boxes[static_cast<size_t>(i)].Intersects(query)) expected.insert(i);
    }
    std::vector<RecordId> got = tree.RangeSearch(query);
    std::set<RecordId> got_set(got.begin(), got.end());
    EXPECT_EQ(got_set, expected) << "n=" << n << " query " << query.ToString();
    EXPECT_EQ(got.size(), got_set.size()) << "duplicates returned";
  }
}

TEST_P(RTreeRandomizedTest, KNearestMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(200 + n);
  RTree tree;
  std::vector<geo::GeoPoint> points;
  for (int i = 0; i < n; ++i) {
    geo::GeoPoint p{rng.Uniform(33.9, 34.2), rng.Uniform(-118.5, -118.1)};
    points.push_back(p);
    geo::BoundingBox box;
    box.min_lat = box.max_lat = p.lat;
    box.min_lon = box.max_lon = p.lon;
    ASSERT_TRUE(tree.Insert(box, i).ok());
  }
  for (int q = 0; q < 10; ++q) {
    geo::GeoPoint probe{rng.Uniform(33.9, 34.2), rng.Uniform(-118.5, -118.1)};
    int k = static_cast<int>(rng.UniformInt(1, std::min(n, 20)));
    std::vector<RecordId> got = tree.KNearest(probe, k);
    ASSERT_EQ(got.size(), static_cast<size_t>(std::min(k, n)));
    // Verify against brute force by distance.
    std::vector<std::pair<double, RecordId>> dist;
    for (int i = 0; i < n; ++i) {
      geo::BoundingBox b;
      b.min_lat = b.max_lat = points[static_cast<size_t>(i)].lat;
      b.min_lon = b.max_lon = points[static_cast<size_t>(i)].lon;
      dist.push_back({MinDistDeg(probe, b), i});
    }
    std::sort(dist.begin(), dist.end());
    double kth = dist[static_cast<size_t>(k) - 1].first;
    for (RecordId id : got) {
      geo::BoundingBox b;
      b.min_lat = b.max_lat = points[static_cast<size_t>(id)].lat;
      b.min_lon = b.max_lon = points[static_cast<size_t>(id)].lon;
      EXPECT_LE(MinDistDeg(probe, b), kth + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeRandomizedTest,
                         ::testing::Values(1, 10, 60, 300, 1500));

TEST(RTreeTest, RemoveThenSearch) {
  Rng rng(7);
  RTree tree;
  std::vector<geo::BoundingBox> boxes;
  for (int i = 0; i < 100; ++i) {
    boxes.push_back(RandomBox(rng));
    ASSERT_TRUE(tree.Insert(boxes.back(), i).ok());
  }
  // Remove the even ids.
  for (int i = 0; i < 100; i += 2) {
    EXPECT_TRUE(tree.Remove(boxes[static_cast<size_t>(i)], i).ok());
  }
  EXPECT_EQ(tree.size(), 50u);
  geo::BoundingBox everything =
      geo::BoundingBox::FromCorners({33, -119}, {35, -117});
  std::vector<RecordId> all = tree.RangeSearch(everything);
  EXPECT_EQ(all.size(), 50u);
  for (RecordId id : all) EXPECT_EQ(id % 2, 1);
  // Removing again fails.
  EXPECT_FALSE(tree.Remove(boxes[0], 0).ok());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  Rng rng(8);
  RTree tree;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(RandomBox(rng), i).ok());
  }
  EXPECT_GE(tree.height(), 2);
  EXPECT_LE(tree.height(), 8);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(MinDistTest, ZeroInsideBox) {
  geo::BoundingBox box = geo::BoundingBox::FromCorners({34, -118.3},
                                                       {34.1, -118.2});
  EXPECT_DOUBLE_EQ(MinDistDeg(geo::GeoPoint{34.05, -118.25}, box), 0.0);
  EXPECT_GT(MinDistDeg(geo::GeoPoint{35.0, -118.25}, box), 0.0);
}

// ---------- OrientedRTree ----------

TEST(OrientedRTreeTest, RangeSearchRefinesByExactSector) {
  OrientedRTree tree;
  geo::GeoPoint cam{34.05, -118.25};
  // FOV looking north.
  auto north = geo::FieldOfView::Make(cam, 0, 60, 300);
  ASSERT_TRUE(north.ok());
  ASSERT_TRUE(tree.Insert(*north, 1).ok());
  // Box north of the camera: hit.
  geo::BoundingBox north_box = geo::BoundingBox::FromCenterRadius(
      geo::Destination(cam, 0, 150), 30);
  EXPECT_EQ(tree.RangeSearch(north_box).size(), 1u);
  // Box south: the scene MBR may or may not contain it, but exact
  // refinement must reject it.
  geo::BoundingBox south_box = geo::BoundingBox::FromCenterRadius(
      geo::Destination(cam, 180, 150), 30);
  EXPECT_TRUE(tree.RangeSearch(south_box).empty());
}

TEST(OrientedRTreeTest, PointQueryMatchesFovContainment) {
  Rng rng(44);
  OrientedRTree tree;
  std::vector<geo::FieldOfView> fovs;
  for (int i = 0; i < 300; ++i) {
    geo::GeoPoint cam{rng.Uniform(34.0, 34.1), rng.Uniform(-118.3, -118.2)};
    auto fov = geo::FieldOfView::Make(cam, rng.Uniform(0, 360),
                                      rng.Uniform(30, 120),
                                      rng.Uniform(50, 400));
    ASSERT_TRUE(fov.ok());
    fovs.push_back(*fov);
    ASSERT_TRUE(tree.Insert(*fov, i).ok());
  }
  for (int q = 0; q < 30; ++q) {
    geo::GeoPoint probe{rng.Uniform(34.0, 34.1), rng.Uniform(-118.3, -118.2)};
    std::set<RecordId> expected;
    for (int i = 0; i < 300; ++i) {
      if (fovs[static_cast<size_t>(i)].ContainsPoint(probe)) expected.insert(i);
    }
    std::vector<RecordId> got = tree.PointQuery(probe);
    EXPECT_EQ(std::set<RecordId>(got.begin(), got.end()), expected);
  }
}

// Seam sweep: every direction-sector predicate must behave identically for
// headings that straddle the 0°/360° wraparound as for interior headings.
// A camera looking theta=350° with a 30° aperture sees bearings on BOTH
// sides of north ([335°, 5°]); naive |bearing - theta| comparisons break
// exactly here.
class SeamHeadingTest : public ::testing::TestWithParam<double> {};

TEST_P(SeamHeadingTest, FovCoversBearing) {
  const double theta = GetParam();
  auto fov =
      geo::FieldOfView::Make(geo::GeoPoint{34.05, -118.25}, theta, 30, 300);
  ASSERT_TRUE(fov.ok());
  for (double off : {-14.0, 0.0, 14.0}) {
    EXPECT_TRUE(fov->CoversBearing(geo::NormalizeBearing(theta + off)))
        << "theta=" << theta << " off=" << off;
  }
  for (double off : {-20.0, 20.0, 180.0}) {
    EXPECT_FALSE(fov->CoversBearing(geo::NormalizeBearing(theta + off)))
        << "theta=" << theta << " off=" << off;
  }
}

TEST_P(SeamHeadingTest, PointQueryAcrossSeam) {
  const double theta = GetParam();
  geo::GeoPoint cam{34.05, -118.25};
  auto fov = geo::FieldOfView::Make(cam, theta, 30, 300);
  ASSERT_TRUE(fov.ok());
  OrientedRTree tree;
  ASSERT_TRUE(tree.Insert(*fov, 7).ok());
  // Probes just inside each sector edge — for seam-straddling headings one
  // of these lies on the far side of north from the heading itself.
  for (double off : {-12.0, 0.0, 12.0}) {
    geo::GeoPoint p =
        geo::Destination(cam, geo::NormalizeBearing(theta + off), 150);
    EXPECT_EQ(tree.PointQuery(p), std::vector<RecordId>{7})
        << "theta=" << theta << " off=" << off;
  }
  // Probes safely outside the aperture (and one behind the camera).
  for (double off : {-30.0, 30.0, 180.0}) {
    geo::GeoPoint p =
        geo::Destination(cam, geo::NormalizeBearing(theta + off), 150);
    EXPECT_TRUE(tree.PointQuery(p).empty())
        << "theta=" << theta << " off=" << off;
  }
}

INSTANTIATE_TEST_SUITE_P(SeamCrossingHeadings, SeamHeadingTest,
                         ::testing::Values(345.0, 350.0, 355.0, 358.0, 0.0,
                                           2.0, 5.0, 15.0));

// ---------- LSH ----------

TEST(LshTest, InsertValidatesDimension) {
  LshIndex lsh(4);
  EXPECT_TRUE(lsh.Insert({1, 2, 3, 4}, 1).ok());
  EXPECT_FALSE(lsh.Insert({1, 2}, 2).ok());
}

TEST(LshTest, ExactDuplicateAlwaysFound) {
  Rng rng(3);
  LshIndex lsh(16);
  std::vector<ml::FeatureVector> vectors;
  for (int i = 0; i < 500; ++i) {
    ml::FeatureVector v(16);
    for (double& x : v) x = rng.Normal();
    vectors.push_back(v);
    ASSERT_TRUE(lsh.Insert(v, i).ok());
  }
  // Querying with a stored vector must return it first at distance 0.
  for (int i = 0; i < 100; i += 10) {
    auto hits = lsh.KNearest(vectors[static_cast<size_t>(i)], 3);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0].first, i);
    EXPECT_NEAR(hits[0].second, 0.0, 1e-12);
  }
}

TEST(LshTest, RecallAtTenOnClusteredData) {
  // LSH is approximate; measure recall@10 against brute force on data
  // with genuine near-neighbour structure.
  Rng rng(5);
  const size_t dim = 32;
  LshIndex::Options opts;
  // Intra-cluster pairwise distances are ~sqrt(2)*0.3*sqrt(32) ~ 2.4;
  // w=10 with k=6 gives a per-table same-cluster collision probability of
  // ~0.25 (so ~0.9 recall over 8 tables) while the far-apart cluster
  // centers (~30 units) essentially never collide across all 6 hashes.
  opts.bucket_width = 10.0;
  opts.hashes_per_table = 6;
  LshIndex lsh(dim, opts);
  std::vector<ml::FeatureVector> vectors;
  for (int c = 0; c < 20; ++c) {
    ml::FeatureVector center(dim);
    for (double& x : center) x = rng.Normal(0, 4);
    for (int i = 0; i < 50; ++i) {
      ml::FeatureVector v(dim);
      for (size_t d = 0; d < dim; ++d) v[d] = center[d] + rng.Normal(0, 0.3);
      vectors.push_back(v);
      ASSERT_TRUE(lsh.Insert(v, static_cast<RecordId>(vectors.size() - 1)).ok());
    }
  }
  double recall_sum = 0;
  int queries = 30;
  for (int q = 0; q < queries; ++q) {
    const ml::FeatureVector& probe =
        vectors[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(vectors.size()) - 1))];
    auto approx = lsh.KNearest(probe, 10);
    std::vector<std::pair<double, RecordId>> exact;
    for (size_t i = 0; i < vectors.size(); ++i) {
      exact.push_back({ml::L2Distance(probe, vectors[i]),
                       static_cast<RecordId>(i)});
    }
    std::sort(exact.begin(), exact.end());
    std::set<RecordId> truth;
    for (int i = 0; i < 10; ++i) truth.insert(exact[static_cast<size_t>(i)].second);
    int found = 0;
    for (const auto& [id, d] : approx) found += truth.count(id);
    recall_sum += static_cast<double>(found) / 10.0;
  }
  EXPECT_GT(recall_sum / queries, 0.7);
}

TEST(LshTest, RangeSearchRespectsThreshold) {
  Rng rng(6);
  LshIndex lsh(8);
  for (int i = 0; i < 200; ++i) {
    ml::FeatureVector v(8);
    for (double& x : v) x = rng.Normal();
    ASSERT_TRUE(lsh.Insert(v, i).ok());
  }
  ml::FeatureVector probe(8, 0.0);
  for (const auto& [id, d] : lsh.RangeSearch(probe, 1.5)) {
    EXPECT_LE(d, 1.5);
  }
}

// ---------- InvertedIndex ----------

TEST(InvertedIndexTest, BooleanQueries) {
  InvertedIndex idx;
  ASSERT_TRUE(idx.AddDocument(1, {"tent", "street"}).ok());
  ASSERT_TRUE(idx.AddDocument(2, {"tent", "graffiti"}).ok());
  ASSERT_TRUE(idx.AddDocument(3, {"clean", "street"}).ok());
  EXPECT_EQ(idx.QueryAnd({"tent", "street"}), std::vector<RecordId>{1});
  EXPECT_EQ(idx.QueryAnd({"tent"}).size(), 2u);
  EXPECT_EQ(idx.QueryOr({"tent", "clean"}).size(), 3u);
  EXPECT_TRUE(idx.QueryAnd({"tent", "nonexistent"}).empty());
  EXPECT_TRUE(idx.QueryAnd({}).empty());
}

TEST(InvertedIndexTest, DocumentFrequencyAndVocab) {
  InvertedIndex idx;
  idx.AddDocument(1, {"a", "b"}).ok();
  idx.AddDocument(2, {"a"}).ok();
  EXPECT_EQ(idx.DocumentFrequency("a"), 2u);
  EXPECT_EQ(idx.DocumentFrequency("b"), 1u);
  EXPECT_EQ(idx.DocumentFrequency("z"), 0u);
  EXPECT_EQ(idx.vocabulary_size(), 2u);
  EXPECT_EQ(idx.document_count(), 2u);
}

TEST(InvertedIndexTest, ReAddingDocAccumulatesTf) {
  InvertedIndex idx;
  idx.AddDocument(1, {"x"}).ok();
  idx.AddDocument(1, {"x", "y"}).ok();
  EXPECT_EQ(idx.DocumentFrequency("x"), 1u);
  EXPECT_EQ(idx.QueryAnd({"x", "y"}), std::vector<RecordId>{1});
}

TEST(InvertedIndexTest, RejectsEmptyTermList) {
  InvertedIndex idx;
  EXPECT_FALSE(idx.AddDocument(1, {}).ok());
}

// ---------- TemporalIndex ----------

TEST(TemporalIndexTest, RangeInclusive) {
  TemporalIndex idx;
  idx.Insert(100, 1);
  idx.Insert(200, 2);
  idx.Insert(300, 3);
  EXPECT_EQ(idx.RangeSearch(100, 300).size(), 3u);
  EXPECT_EQ(idx.RangeSearch(101, 299), std::vector<RecordId>{2});
  EXPECT_TRUE(idx.RangeSearch(400, 500).empty());
  EXPECT_TRUE(idx.RangeSearch(300, 100).empty());
}

TEST(TemporalIndexTest, BoundarySemantics) {
  // Contract: [begin, end] closed on BOTH ends.
  TemporalIndex idx({{100, 1}, {200, 2}, {300, 3}});
  // Exact-boundary timestamps are included.
  EXPECT_EQ(idx.RangeSearch(100, 100), std::vector<RecordId>{1});
  EXPECT_EQ(idx.RangeSearch(300, 300), std::vector<RecordId>{3});
  EXPECT_EQ(idx.RangeSearch(200, 300), (std::vector<RecordId>{2, 3}));
  // One past either boundary excludes it.
  EXPECT_TRUE(idx.RangeSearch(99, 99).empty());
  EXPECT_TRUE(idx.RangeSearch(301, 400).empty());
  // Degenerate begin == end between entries.
  EXPECT_TRUE(idx.RangeSearch(150, 150).empty());
  // Inverted ranges never scan, including the one-off case.
  EXPECT_TRUE(idx.RangeSearch(101, 100).empty());
  EXPECT_TRUE(idx.RangeSearch(1000, 0).empty());
}

TEST(TemporalIndexTest, BulkConstructorSorts) {
  TemporalIndex idx({{300, 3}, {100, 1}, {200, 2}});
  EXPECT_EQ(idx.min_timestamp(), 100);
  EXPECT_EQ(idx.max_timestamp(), 300);
  auto all = idx.RangeSearch(0, 1000);
  EXPECT_EQ(all, (std::vector<RecordId>{1, 2, 3}));
}

}  // namespace
}  // namespace tvdp::index
