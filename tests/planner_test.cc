#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "geo/geo_point.h"
#include "ml/dataset.h"
#include "platform/tvdp.h"
#include "query/engine.h"
#include "query/plan.h"
#include "query/planner.h"
#include "query/query.h"

namespace tvdp::query {
namespace {

using platform::AnnotationRecord;
using platform::ImageRecord;
using platform::Tvdp;

/// Ground truth for one seeded image, kept outside the platform so the
/// brute-force oracle never touches the code under test.
struct TruthRow {
  int64_t id = 0;
  geo::GeoPoint loc;
  std::vector<std::string> keywords;
  Timestamp captured_at = 0;
  std::string label;
  double confidence = 0;
  ml::FeatureVector feature;
};

constexpr int kCorpus = 500;
constexpr Timestamp kT0 = 1546300800;

/// A platform pre-loaded with a deterministic 500-image corpus on a
/// 20x25 grid. Selectivities are deliberately skewed:
///  * every image has keyword "city";
///  * every 5th image has "market" (100 images);
///  * every 50th image has "needle" (10 images — the rare term);
///  * every 4th image is annotated "dirty" (125), the rest "clean";
///  * 8-d one-hot-by-(i%8) "cnn" features (63 exact matches per slot);
///  * capture times at one-minute intervals.
struct PlannerFixture {
  Tvdp tvdp;
  std::vector<TruthRow> truth;
  geo::BoundingBox region;

  static std::unique_ptr<PlannerFixture> Make() {
    auto created = Tvdp::Create();
    EXPECT_TRUE(created.ok());
    auto f = std::make_unique<PlannerFixture>(
        PlannerFixture{std::move(created).value(), {}, geo::BoundingBox()});
    f->region =
        geo::BoundingBox::FromCorners({34.00, -118.30}, {34.08, -118.20});
    EXPECT_TRUE(
        f->tvdp.RegisterClassification("scene", {"clean", "dirty"}).ok());
    for (int i = 0; i < kCorpus; ++i) {
      int row = i / 25, col = i % 25;
      TruthRow t;
      t.loc = geo::GeoPoint{34.00 + row * 0.004, -118.30 + col * 0.004};
      t.keywords = {"city"};
      if (i % 5 == 0) t.keywords.push_back("market");
      if (i % 50 == 0) t.keywords.push_back("needle");
      t.captured_at = kT0 + i * 60;
      t.label = i % 4 == 0 ? "dirty" : "clean";
      t.confidence = 0.5 + (i % 50) * 0.01;
      t.feature = ml::FeatureVector(8, 0.0);
      t.feature[static_cast<size_t>(i % 8)] = 1.0;

      ImageRecord rec;
      rec.uri = "img" + std::to_string(i);
      rec.location = t.loc;
      rec.captured_at = t.captured_at;
      rec.keywords = t.keywords;
      auto id = f->tvdp.IngestImage(rec);
      EXPECT_TRUE(id.ok()) << id.status();
      t.id = *id;

      AnnotationRecord ann;
      ann.classification = "scene";
      ann.label = t.label;
      ann.confidence = t.confidence;
      ann.machine = true;
      EXPECT_TRUE(f->tvdp.AnnotateImage(t.id, ann).ok());
      EXPECT_TRUE(f->tvdp.StoreFeature(t.id, "cnn", t.feature).ok());
      f->truth.push_back(std::move(t));
    }
    return f;
  }

  /// Brute-force oracle: evaluates every conjunct of `q` against the
  /// ground-truth rows, no indexes involved. Only handles the predicate
  /// shapes the property tests use (range / threshold / and-or keywords).
  std::set<int64_t> BruteForce(const HybridQuery& q) const {
    std::set<int64_t> out;
    for (const TruthRow& t : truth) {
      if (q.spatial) {
        EXPECT_EQ(q.spatial->kind, SpatialPredicate::Kind::kRange);
        if (!q.spatial->range.Contains(t.loc)) continue;
      }
      if (q.textual) {
        auto has = [&](const std::string& kw) {
          return std::find(t.keywords.begin(), t.keywords.end(), kw) !=
                 t.keywords.end();
        };
        bool ok = q.textual->mode == TextualPredicate::Mode::kAnd;
        for (const std::string& kw : q.textual->keywords) {
          if (q.textual->mode == TextualPredicate::Mode::kAnd) {
            ok = ok && has(kw);
          } else {
            ok = ok || has(kw);
          }
        }
        if (!ok) continue;
      }
      if (q.categorical) {
        if (t.label != q.categorical->label) continue;
        if (t.confidence < q.categorical->min_confidence) continue;
      }
      if (q.temporal) {
        if (t.captured_at < q.temporal->begin ||
            t.captured_at > q.temporal->end) {
          continue;
        }
      }
      if (q.visual) {
        EXPECT_EQ(q.visual->kind, VisualPredicate::Kind::kThreshold);
        if (ml::L2Distance(t.feature, q.visual->feature) >
            q.visual->threshold) {
          continue;
        }
      }
      out.insert(t.id);
    }
    return out;
  }
};

std::set<int64_t> IdSet(const std::vector<QueryHit>& hits) {
  std::set<int64_t> out;
  for (const QueryHit& h : hits) out.insert(h.image_id);
  return out;
}

std::vector<std::string> PresentFamilies(const HybridQuery& q) {
  std::vector<std::string> out;
  if (q.spatial) out.push_back("spatial");
  if (q.visual) out.push_back("visual");
  if (q.categorical) out.push_back("categorical");
  if (q.textual) out.push_back("textual");
  if (q.temporal) out.push_back("temporal");
  return out;
}

class PlannerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = PlannerFixture::Make().release(); }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static QueryEngine& engine() { return fixture_->tvdp.query(); }
  static PlannerFixture& fixture() { return *fixture_; }
  static PlannerFixture* fixture_;
};
PlannerFixture* PlannerTest::fixture_ = nullptr;

/// The hybrid query mix the property tests sweep: every pair and the
/// all-families conjunction, built from skewed-selectivity predicates.
std::vector<HybridQuery> PropertyQueries(const PlannerFixture& f) {
  SpatialPredicate west;  // left half of the grid
  west.kind = SpatialPredicate::Kind::kRange;
  west.range = geo::BoundingBox::FromCorners({33.99, -118.31}, {34.09, -118.25});

  TextualPredicate market;
  market.keywords = {"market"};
  TextualPredicate market_or_needle;
  market_or_needle.mode = TextualPredicate::Mode::kOr;
  market_or_needle.keywords = {"market", "needle"};

  CategoricalPredicate dirty;
  dirty.classification = "scene";
  dirty.label = "dirty";
  dirty.min_confidence = 0.7;

  CategoricalPredicate clean;
  clean.classification = "scene";
  clean.label = "clean";
  clean.min_confidence = 0.7;

  TemporalPredicate first_half{kT0, kT0 + (kCorpus / 2) * 60};

  VisualPredicate near3;  // exact matches of the one-hot(3) slot
  near3.kind = VisualPredicate::Kind::kThreshold;
  near3.feature_kind = "cnn";
  near3.feature = ml::FeatureVector(8, 0.0);
  near3.feature[3] = 1.0;
  near3.threshold = 0.5;

  std::vector<HybridQuery> qs;
  {
    HybridQuery q;
    q.spatial = west;
    q.textual = market;
    qs.push_back(q);
  }
  {
    HybridQuery q;
    q.categorical = dirty;
    q.temporal = first_half;
    qs.push_back(q);
  }
  {
    HybridQuery q;
    q.visual = near3;
    q.textual = market_or_needle;
    qs.push_back(q);
  }
  {
    HybridQuery q;
    q.spatial = west;
    q.temporal = first_half;
    q.categorical = dirty;
    qs.push_back(q);
  }
  {
    HybridQuery q;  // all five families at once (a satisfiable conjunction:
                    // the one-hot(3) slot holds odd ids, which are "clean")
    q.spatial = west;
    q.visual = near3;
    q.categorical = clean;
    q.textual = market;
    q.temporal = first_half;
    qs.push_back(q);
  }
  (void)f;
  return qs;
}

// ---------- property: plan order never changes the result set ----------

TEST_F(PlannerTest, EveryForcedSeedMatchesBruteForce) {
  for (const HybridQuery& q : PropertyQueries(fixture())) {
    std::set<int64_t> expect = fixture().BruteForce(q);

    QueryPlan default_plan;
    auto base = engine().Execute(q, nullptr, QueryBudget(), &default_plan);
    ASSERT_TRUE(base.ok()) << base.status();
    EXPECT_EQ(IdSet(*base), expect)
        << "default plan diverged (seed=" << default_plan.seed_family << ")";

    for (const std::string& family : PresentFamilies(q)) {
      PlannerOptions options;
      options.force_seed = family;
      QueryPlan plan;
      auto hits = engine().Execute(q, nullptr, QueryBudget(), &plan, options);
      ASSERT_TRUE(hits.ok()) << hits.status() << " forcing seed " << family;
      EXPECT_EQ(plan.seed_family, family);
      EXPECT_EQ(IdSet(*hits), expect)
          << "seed=" << family << " changed the result set";
    }
  }
}

TEST_F(PlannerTest, ForcedSeedOfAbsentFamilyRejected) {
  HybridQuery q;
  TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;
  PlannerOptions options;
  options.force_seed = "temporal";
  auto hits = engine().Execute(q, nullptr, QueryBudget(), nullptr, options);
  ASSERT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlannerFovTest, RangeConjunctKeepsFovOnlyHitsWhateverSeeds) {
  // Image "reach" stands west of the box and looks east into it: only its
  // FOV intersects the box. Image "inside" has its camera in the box, and
  // image "away" neither. A range conjunct must keep "reach" whether it
  // seeds the plan or verifies another conjunct's candidates.
  auto created = Tvdp::Create();
  ASSERT_TRUE(created.ok());
  Tvdp tvdp = std::move(created).value();
  ASSERT_TRUE(tvdp.RegisterClassification("scene", {"clean", "dirty"}).ok());
  const geo::BoundingBox box =
      geo::BoundingBox::FromCorners({33.9995, -118.2990}, {34.0005, -118.2980});
  std::vector<int64_t> ids;
  for (const geo::GeoPoint& camera :
       {geo::GeoPoint{34.0, -118.3}, geo::GeoPoint{34.0, -118.2985},
        geo::GeoPoint{34.01, -118.3}}) {
    ImageRecord rec;
    rec.location = camera;
    rec.captured_at = kT0 + static_cast<Timestamp>(ids.size()) * 60;
    rec.keywords = {"city"};
    auto fov = geo::FieldOfView::Make(camera, 90, 60, 200);
    ASSERT_TRUE(fov.ok());
    rec.fov = *fov;
    auto id = tvdp.IngestImage(rec);
    ASSERT_TRUE(id.ok()) << id.status();
    AnnotationRecord ann;
    ann.classification = "scene";
    ann.label = "dirty";
    ann.confidence = 0.9;
    ASSERT_TRUE(tvdp.AnnotateImage(*id, ann).ok());
    ids.push_back(*id);
  }
  ASSERT_FALSE(box.Contains(geo::GeoPoint{34.0, -118.3}));
  const std::set<int64_t> expect{ids[0], ids[1]};
  auto range = tvdp.query().SpatialRange(box);
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(IdSet(*range), expect);

  HybridQuery q;
  SpatialPredicate sp;
  sp.kind = SpatialPredicate::Kind::kRange;
  sp.range = box;
  q.spatial = sp;
  TextualPredicate city;
  city.keywords = {"city"};
  q.textual = city;
  CategoricalPredicate dirty;
  dirty.classification = "scene";
  dirty.label = "dirty";
  q.categorical = dirty;
  q.temporal = TemporalPredicate{kT0, kT0 + 3600};
  for (const std::string& family : PresentFamilies(q)) {
    PlannerOptions options;
    options.force_seed = family;
    QueryPlan plan;
    auto hits =
        tvdp.query().Execute(q, nullptr, QueryBudget(), &plan, options);
    ASSERT_TRUE(hits.ok()) << hits.status();
    EXPECT_EQ(plan.seed_family, family);
    EXPECT_EQ(IdSet(*hits), expect) << "seed=" << family;
  }
}

// ---------- estimates ----------

TEST_F(PlannerTest, EstimatesTrackActualCardinalities) {
  // Temporal estimates are exact (order-statistic counting on the sorted
  // timestamp index); textual AND estimates are the minimum document
  // frequency, exact for a single term.
  HybridQuery q;
  TextualPredicate needle;
  needle.keywords = {"needle"};
  q.textual = needle;
  q.temporal = TemporalPredicate{kT0, kT0 + 99 * 60};  // first 100 images
  auto plan = engine().Explain(q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  double textual_est = -1, temporal_est = -1;
  for (const ConjunctPlan& c : plan->conjuncts) {
    if (c.family == "textual") textual_est = c.estimated_rows;
    if (c.family == "temporal") temporal_est = c.estimated_rows;
  }
  EXPECT_DOUBLE_EQ(textual_est, 10.0);    // df("needle") = 10
  EXPECT_DOUBLE_EQ(temporal_est, 100.0);  // exact range count

  // The rare term must seed; temporal verifies.
  EXPECT_EQ(plan->seed_family, "textual");

  // Spatial estimates are heuristic (uniform density over node boxes) but
  // must stay within an order of magnitude on a uniform grid.
  HybridQuery sq;
  SpatialPredicate sp;
  sp.kind = SpatialPredicate::Kind::kRange;
  sp.range = fixture().region;
  sq.spatial = sp;
  TextualPredicate city;
  city.keywords = {"city"};
  sq.textual = city;
  auto splan = engine().Explain(sq);
  ASSERT_TRUE(splan.ok());
  double spatial_est = -1;
  for (const ConjunctPlan& c : splan->conjuncts) {
    if (c.family == "spatial") spatial_est = c.estimated_rows;
  }
  size_t actual = fixture().BruteForce([&] {
                    HybridQuery only;
                    only.spatial = sp;
                    return only;
                  }()).size();
  ASSERT_GT(actual, 0u);
  EXPECT_GT(spatial_est, static_cast<double>(actual) / 10.0);
  EXPECT_LT(spatial_est, static_cast<double>(actual) * 10.0);
}

TEST_F(PlannerTest, ExecutedPlanRecordsActualRows) {
  HybridQuery q;
  TextualPredicate needle;
  needle.keywords = {"needle"};
  q.textual = needle;
  q.temporal = TemporalPredicate{kT0, kT0 + 99 * 60};
  QueryPlan plan;
  auto hits = engine().Execute(q, nullptr, QueryBudget(), &plan);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(plan.executed);
  EXPECT_EQ(plan.seed_candidates, 10u);  // the 10 "needle" images
  // needle images are i % 50 == 0; the first 100 images hold i=0 and i=50.
  EXPECT_EQ(hits->size(), 2u);
  Json j = plan.ToJson();
  EXPECT_TRUE(j.Has("summary"));
  EXPECT_NE(j["summary"].AsString().find("seed=textual(10)"),
            std::string::npos)
      << j["summary"].AsString();
  // The Verify node on the spine carries the surviving-row count.
  const Json* node = &j["operators"];
  while (node->Has("children") && (*node)["op"].AsString() != "Verify") {
    node = &(*node)["children"].AsArray()[0];
  }
  ASSERT_EQ((*node)["op"].AsString(), "Verify");
  EXPECT_EQ((*node)["actual_rows"].AsInt(), 2);
}

// ---------- EXPLAIN ----------

TEST_F(PlannerTest, ExplainIsDeterministic) {
  for (const HybridQuery& q : PropertyQueries(fixture())) {
    auto a = engine().Explain(q);
    ASSERT_TRUE(a.ok()) << a.status();
    // Executing queries in between must not perturb later explains.
    ASSERT_TRUE(engine().Execute(q).ok());
    auto b = engine().Explain(q);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->ToJson().Dump(), b->ToJson().Dump());
    EXPECT_FALSE(a->executed);
    EXPECT_FALSE(a->ToJson().Has("summary"));
  }
}

// ---------- budget ----------

TEST_F(PlannerTest, BudgetCapsCandidatesAndMarksPlan) {
  HybridQuery q;
  TextualPredicate tp;
  tp.keywords = {"market"};  // 100 candidates
  q.textual = tp;
  QueryBudget budget;
  budget.max_candidates = 7;
  QueryPlan plan;
  auto hits = engine().Execute(q, nullptr, budget, &plan);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 7u);
  EXPECT_TRUE(plan.degraded);
  EXPECT_EQ(plan.seed_candidates, 7u);
  EXPECT_EQ(plan.capped_from, 100u);
  EXPECT_NE(plan.LegacySummary().find("cap=7/100"), std::string::npos)
      << plan.LegacySummary();
  EXPECT_NE(plan.LegacySummary().find("degraded"), std::string::npos);
}

// ---------- degenerate arguments, uniformly through every door ----------

TEST_F(PlannerTest, DegenerateArgumentsRejectedEverywhere) {
  const geo::GeoPoint p{34.0, -118.25};
  const ml::FeatureVector probe(8, 0.1);
  const ml::FeatureVector empty_feature;

  // Single-family doors.
  EXPECT_EQ(engine().SpatialKnn(p, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine().SpatialKnn(p, -3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine().VisualTopK("cnn", probe, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine().VisualTopK("cnn", empty_feature, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      engine().VisualThreshold("cnn", empty_feature, 0.5).status().code(),
      StatusCode::kInvalidArgument);
  TextualPredicate blank;
  blank.keywords = {""};
  EXPECT_EQ(engine().Textual(blank).status().code(),
            StatusCode::kInvalidArgument);

  // The hybrid front door applies identical guards before planning.
  {
    HybridQuery q;
    SpatialPredicate sp;
    sp.kind = SpatialPredicate::Kind::kKnn;
    sp.point = p;
    sp.k = 0;
    q.spatial = sp;
    EXPECT_EQ(engine().Execute(q).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine().Explain(q).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    HybridQuery q;
    VisualPredicate vp;
    vp.feature_kind = "cnn";
    vp.k = 0;
    vp.feature = probe;
    q.visual = vp;
    EXPECT_EQ(engine().Execute(q).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    HybridQuery q;
    VisualPredicate vp;
    vp.feature_kind = "cnn";
    vp.feature = empty_feature;
    q.visual = vp;
    EXPECT_EQ(engine().Execute(q).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine().Explain(q).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    HybridQuery q;
    q.textual = blank;
    EXPECT_EQ(engine().Execute(q).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine().Explain(q).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// ---------- concurrent stress (also run under ASan/TSan as tier-1) ----------

class PlannerStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = PlannerFixture::Make().release(); }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static PlannerFixture* fixture_;
};
PlannerFixture* PlannerStressTest::fixture_ = nullptr;

TEST_F(PlannerStressTest, ConcurrentMixedSeedsAgree) {
  QueryEngine& engine = fixture_->tvdp.query();
  std::vector<HybridQuery> queries = PropertyQueries(*fixture_);
  std::vector<std::set<int64_t>> expect;
  expect.reserve(queries.size());
  for (const HybridQuery& q : queries) {
    expect.push_back(fixture_->BruteForce(q));
  }

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        size_t qi = static_cast<size_t>(w + iter) % queries.size();
        const HybridQuery& q = queries[qi];
        std::vector<std::string> families = PresentFamilies(q);
        PlannerOptions options;
        // Rotate through every seed order plus the planner's own choice.
        size_t pick = static_cast<size_t>(w * kItersPerThread + iter) %
                      (families.size() + 1);
        if (pick < families.size()) options.force_seed = families[pick];
        QueryPlan plan;
        auto hits =
            engine.Execute(q, nullptr, QueryBudget(), &plan, options);
        if (!hits.ok() || IdSet(*hits) != expect[qi]) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Interleave explains: read-only planning must be safe alongside
        // concurrent execution.
        auto explain = engine.Explain(q);
        if (!explain.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace tvdp::query
