#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/file.h"
#include "common/json.h"
#include "geo/fov.h"
#include "platform/api.h"
#include "platform/model_registry.h"
#include "platform/sharding.h"
#include "platform/tvdp.h"
#include "query/query.h"
#include "query/scatter_gather.h"

namespace tvdp::platform {
namespace {

using query::HybridQuery;
using query::QueryBudget;
using query::ShardOutcome;

constexpr Timestamp kT0 = 1546300800;
constexpr int kCorpus = 500;

/// The PR 5 planner-suite corpus: 500 images on a 20x25 grid with skewed
/// keyword / label / feature selectivities. Templated so the identical
/// ingest sequence can be replayed into an unsharded Tvdp and a
/// ShardManager (both expose the same acquisition surface).
template <typename P>
void BuildCorpus(P& p) {
  ASSERT_TRUE(p.RegisterClassification("scene", {"clean", "dirty"}).ok());
  for (int i = 0; i < kCorpus; ++i) {
    int row = i / 25, col = i % 25;
    ImageRecord rec;
    rec.uri = "img" + std::to_string(i);
    rec.location = geo::GeoPoint{34.00 + row * 0.004, -118.30 + col * 0.004};
    rec.captured_at = kT0 + i * 60;
    rec.keywords = {"city"};
    if (i % 5 == 0) rec.keywords.push_back("market");
    if (i % 50 == 0) rec.keywords.push_back("needle");
    auto id = p.IngestImage(rec);
    ASSERT_TRUE(id.ok()) << id.status();

    AnnotationRecord ann;
    ann.classification = "scene";
    ann.label = i % 4 == 0 ? "dirty" : "clean";
    ann.confidence = 0.5 + (i % 50) * 0.01;
    ann.machine = true;
    ASSERT_TRUE(p.AnnotateImage(*id, ann).ok());

    ml::FeatureVector feat(8, 0.0);
    feat[static_cast<size_t>(i % 8)] = 1.0;
    ASSERT_TRUE(p.StoreFeature(*id, "cnn", feat).ok());
  }
}

/// The corpus region and a 2x2 grid over it.
geo::BoundingBox CorpusRegion() {
  return geo::BoundingBox::FromCorners({34.00, -118.30}, {34.08, -118.204});
}

ShardManagerOptions GridOptions(int shards, int rows, int cols) {
  ShardManagerOptions opts;
  opts.shard_count = shards;
  opts.grid_rows = rows;
  opts.grid_cols = cols;
  opts.region = CorpusRegion();
  return opts;
}

/// The property-query mix from the planner suite (every pair plus the
/// all-family conjunction), as request JSON bodies so they exercise the
/// full API parse path.
std::vector<Json> PropertyRequests() {
  std::vector<Json> out;
  {
    Json q = Json::MakeObject();
    q["bbox"] = Json(Json::Array{33.99, -118.31, 34.09, -118.25});
    q["keywords"] = Json(Json::Array{"market"});
    out.push_back(q);
  }
  {
    Json q = Json::MakeObject();
    q["classification"] = "scene";
    q["label"] = "dirty";
    q["min_confidence"] = 0.7;
    q["time_begin"] = Json(static_cast<int64_t>(kT0));
    q["time_end"] = Json(static_cast<int64_t>(kT0 + 250 * 60));
    out.push_back(q);
  }
  {
    Json q = Json::MakeObject();
    q["feature"] = Json(Json::Array{0, 0, 0, 1, 0, 0, 0, 0});
    q["feature_kind"] = "cnn";
    q["threshold"] = 0.5;
    q["keywords"] = Json(Json::Array{"market", "needle"});
    q["keyword_mode"] = "or";
    out.push_back(q);
  }
  {
    Json q = Json::MakeObject();
    q["bbox"] = Json(Json::Array{33.99, -118.31, 34.09, -118.25});
    q["time_begin"] = Json(static_cast<int64_t>(kT0));
    q["time_end"] = Json(static_cast<int64_t>(kT0 + 250 * 60));
    q["classification"] = "scene";
    q["label"] = "dirty";
    q["min_confidence"] = 0.7;
    out.push_back(q);
  }
  {
    Json q = Json::MakeObject();  // all five families
    q["bbox"] = Json(Json::Array{33.99, -118.31, 34.09, -118.25});
    q["feature"] = Json(Json::Array{0, 0, 0, 1, 0, 0, 0, 0});
    q["feature_kind"] = "cnn";
    q["threshold"] = 0.5;
    q["classification"] = "scene";
    q["label"] = "clean";
    q["min_confidence"] = 0.7;
    q["keywords"] = Json(Json::Array{"market"});
    q["time_begin"] = Json(static_cast<int64_t>(kT0));
    q["time_end"] = Json(static_cast<int64_t>(kT0 + 250 * 60));
    out.push_back(q);
  }
  {
    Json q = Json::MakeObject();  // visual top-k ranking
    q["feature"] = Json(Json::Array{0, 1, 0, 0, 0, 0, 0, 0});
    q["feature_kind"] = "cnn";
    q["k"] = 7;
    out.push_back(q);
  }
  {
    Json q = Json::MakeObject();  // limit-capped filter
    q["keywords"] = Json(Json::Array{"needle"});
    q["limit"] = 4;
    out.push_back(q);
  }
  return out;
}

std::set<std::string> UrisOf(const ShardManager& m,
                             const std::vector<query::QueryHit>& hits) {
  std::set<std::string> out;
  for (const auto& h : hits) {
    auto row = m.ImageRowJson(h.image_id);
    EXPECT_TRUE(row.ok()) << row.status();
    if (row.ok()) out.insert((*row)["uri"].AsString());
  }
  return out;
}

// ---------------------------------------------------------------------
// Satellite: kInvalidArgument guards for degenerate shard configs.
// ---------------------------------------------------------------------

TEST(ShardingConfigTest, RejectsDegenerateConfigs) {
  {
    ShardManagerOptions o = GridOptions(0, 1, 1);
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions o = GridOptions(1, 0, 1);  // empty grid
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions o = GridOptions(1, 1, 0);
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions o = GridOptions(1, 1, 1);
    o.region = geo::BoundingBox::Empty();
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions o = GridOptions(5, 2, 2);  // 5 shards, 4 cells
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions o = GridOptions(2, 2, 2);
    o.cell_assignments = {{1, 0}, {1, 1}};  // duplicate cell
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions o = GridOptions(2, 2, 2);
    o.cell_assignments = {{7, 0}};  // cell out of range
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions o = GridOptions(2, 2, 2);
    o.cell_assignments = {{0, 5}};  // shard out of range
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions o = GridOptions(2, 2, 2);
    o.gather.per_shard_deadline_fraction = 0;
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions o = GridOptions(2, 2, 2);
    o.gather.degraded_keep_fraction = 1.5;
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions o = GridOptions(2, 2, 2);
    o.breaker.failure_threshold = 0;
    auto m = ShardManager::Create(o);
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ShardingConfigTest, ScatterGatherFrontDoorGuards) {
  // No shards at all is kInvalidArgument at the scatter-gather door.
  auto r = query::ScatterGather::Execute({}, nullptr, HybridQuery(), nullptr,
                                         QueryBudget(),
                                         query::ScatterGatherOptions());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardingConfigTest, LifecycleAndFaultGuards) {
  auto m = ShardManager::Create(GridOptions(2, 1, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  EXPECT_EQ(mgr.KillShard(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr.KillShard(2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr.RecoverShard(2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr.SetShardFaults(2, {}).code(), StatusCode::kInvalidArgument);

  ShardFaultProfile bad;
  bad.crash_prob = 1.5;
  EXPECT_EQ(mgr.SetShardFaults(0, bad).code(), StatusCode::kInvalidArgument);
  bad = {};
  bad.slow_ms = -1;
  EXPECT_EQ(mgr.SetShardFaults(0, bad).code(), StatusCode::kInvalidArgument);

  // Lifecycle: recover-while-alive and double-kill are preconditions.
  EXPECT_EQ(mgr.RecoverShard(0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(mgr.KillShard(0).ok());
  EXPECT_EQ(mgr.KillShard(0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(mgr.RecoverShard(0).ok());

  // Routing guards: invalid location, negative ids.
  ImageRecord rec;
  rec.location = geo::GeoPoint{200.0, 0.0};
  EXPECT_EQ(mgr.IngestImage(rec).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr.GetFeature(-1, "cnn").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mgr.ImageRowJson(-3).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Routing and global id encoding.
// ---------------------------------------------------------------------

TEST(ShardingRoutingTest, RoutesByLocationAndEncodesShardInId) {
  auto m = ShardManager::Create(GridOptions(4, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  ASSERT_TRUE(mgr.RegisterClassification("scene", {"clean", "dirty"}).ok());

  // One image per quadrant of the 2x2 grid.
  const geo::GeoPoint quadrants[4] = {
      {34.01, -118.29},  // row 0, col 0 -> cell 0
      {34.01, -118.22},  // row 0, col 1 -> cell 1
      {34.07, -118.29},  // row 1, col 0 -> cell 2
      {34.07, -118.22},  // row 1, col 1 -> cell 3
  };
  for (int i = 0; i < 4; ++i) {
    const int expect_shard = mgr.ShardForLocation(quadrants[i]);
    ImageRecord rec;
    rec.uri = "quad" + std::to_string(i);
    rec.location = quadrants[i];
    auto id = mgr.IngestImage(rec);
    ASSERT_TRUE(id.ok()) << id.status();
    EXPECT_EQ(*id % 4, expect_shard);

    ml::FeatureVector feat(4, 0.0);
    feat[static_cast<size_t>(i)] = 1.0;
    ASSERT_TRUE(mgr.StoreFeature(*id, "cnn", feat).ok());
    auto back = mgr.GetFeature(*id, "cnn");
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, feat);

    auto row = mgr.ImageRowJson(*id);
    ASSERT_TRUE(row.ok()) << row.status();
    EXPECT_EQ((*row)["id"].AsInt(), *id);
    EXPECT_EQ((*row)["uri"].AsString(), rec.uri);

    AnnotationRecord ann;
    ann.classification = "scene";
    ann.label = "clean";
    EXPECT_TRUE(mgr.AnnotateImage(*id, ann).ok());
  }
  EXPECT_EQ(mgr.image_count(), 4u);
}

// ---------------------------------------------------------------------
// Multi-shard equivalence against the unsharded engine.
// ---------------------------------------------------------------------

TEST(ShardingEquivalenceTest, FourShardsMatchUnshardedResults) {
  auto unsharded = Tvdp::Create();
  ASSERT_TRUE(unsharded.ok());
  BuildCorpus(*unsharded);

  auto m = ShardManager::Create(GridOptions(4, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  BuildCorpus(**m);
  EXPECT_EQ((*m)->image_count(), static_cast<size_t>(kCorpus));

  ModelRegistry reg;
  ApiService api_flat(&*unsharded, &reg);
  // Translate the property requests through the same parser both stacks
  // use, then compare result URI sets (global ids differ by design).
  for (const Json& request : PropertyRequests()) {
    // Ranked/limited queries truncate across ties by id, and global ids
    // order differently than local ids — set equality holds only for the
    // untruncated filter queries; for the others the count must agree.
    const bool truncated = request.Has("limit") || request.Has("k");
    std::string key = api_flat.CreateApiKey("test");
    Json flat_env =
        api_flat.HandleEnvelope(key, "search_datasets", request);
    ASSERT_EQ(flat_env["status"].AsString(), "ok") << flat_env.Dump();

    // Re-parse into a HybridQuery via the manager's own API service.
    ModelRegistry reg2;
    ApiService api_sharded((*m).get(), &reg2);
    std::string key2 = api_sharded.CreateApiKey("test");
    Json sharded_env =
        api_sharded.HandleEnvelope(key2, "search_datasets", request);
    ASSERT_EQ(sharded_env["status"].AsString(), "ok") << sharded_env.Dump();

    EXPECT_EQ(flat_env["data"]["count"].AsInt(),
              sharded_env["data"]["count"].AsInt())
        << request.Dump();
    EXPECT_TRUE(sharded_env["data"]["coverage"]["complete"].AsBool())
        << sharded_env["data"]["coverage"].Dump();
    if (truncated) continue;

    std::set<std::string> flat_uris, sharded_uris;
    for (const Json& idj : flat_env["data"]["image_ids"].AsArray()) {
      auto row = unsharded->ImageRowJson(idj.AsInt());
      ASSERT_TRUE(row.ok());
      flat_uris.insert((*row)["uri"].AsString());
    }
    for (const Json& idj : sharded_env["data"]["image_ids"].AsArray()) {
      auto row = (*m)->ImageRowJson(idj.AsInt());
      ASSERT_TRUE(row.ok());
      sharded_uris.insert((*row)["uri"].AsString());
    }
    EXPECT_EQ(flat_uris, sharded_uris) << request.Dump();
  }
}

TEST(ShardingEquivalenceTest, RegionPruningSkipsDisjointShards) {
  auto m = ShardManager::Create(GridOptions(4, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  BuildCorpus(**m);

  // A box inside the south-west quadrant: the other three shards must be
  // pruned (exactly — coverage stays complete) and the result correct.
  HybridQuery q;
  query::SpatialPredicate sp;
  sp.kind = query::SpatialPredicate::Kind::kRange;
  sp.range = geo::BoundingBox::FromCorners({34.005, -118.295}, {34.02, -118.27});
  q.spatial = sp;
  auto r = (*m)->ExecuteQuery(q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->coverage.complete());
  EXPECT_FALSE(r->hits.empty());
  size_t pruned = 0;
  for (const auto& rep : r->coverage.reports) {
    if (rep.outcome == ShardOutcome::kPruned) ++pruned;
  }
  EXPECT_GE(pruned, 2u);
}

TEST(ShardingEquivalenceTest, ProvablyEmptyEstimatePrunesExactly) {
  auto m = ShardManager::Create(GridOptions(4, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  BuildCorpus(**m);

  // "needle" appears every 50th image; some shards have no posting for a
  // keyword that exists nowhere — the textual estimate is provably zero
  // everywhere, so every shard is pruned and the empty result is exact.
  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"no_such_keyword"};
  q.textual = tp;
  auto r = (*m)->ExecuteQuery(q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->hits.empty());
  EXPECT_TRUE(r->coverage.complete());
  for (const auto& rep : r->coverage.reports) {
    EXPECT_EQ(rep.outcome, ShardOutcome::kPruned);
  }
}

TEST(ShardingEquivalenceTest, FovSpilloverStillFoundUnderRegionPruning) {
  ShardManagerOptions opts = GridOptions(2, 1, 2);
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  // Camera sits just west of the cell boundary (shard 0) but its FOV
  // points east across it; the target point lies in shard 1's cell. The
  // shard-0 prune region must include the FOV spillover or the probe
  // that actually holds the hit would be skipped.
  const geo::GeoPoint camera{34.04, -118.253};
  const geo::GeoPoint target{34.04, -118.2505};
  ASSERT_EQ(mgr.ShardForLocation(camera), 0);
  ASSERT_EQ(mgr.ShardForLocation(target), 1);

  ImageRecord rec;
  rec.uri = "boundary_cam";
  rec.location = camera;
  auto fov = geo::FieldOfView::Make(camera, 90.0, 60.0, 300.0);
  ASSERT_TRUE(fov.ok());
  rec.fov = *fov;
  auto id = mgr.IngestImage(rec);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id % 2, 0);

  HybridQuery q;
  query::SpatialPredicate sp;
  sp.kind = query::SpatialPredicate::Kind::kVisibleAt;
  sp.point = target;
  q.spatial = sp;
  auto r = mgr.ExecuteQuery(q);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->hits.size(), 1u);
  EXPECT_EQ(r->hits[0].image_id, *id);
  // Shard 0 must have been probed (not pruned) thanks to FOV expansion.
  EXPECT_EQ(r->coverage.reports[0].outcome, ShardOutcome::kProbed);
}

// ---------------------------------------------------------------------
// Satellite: single-shard degenerate mode is byte-identical.
// ---------------------------------------------------------------------

TEST(ShardingSingleShardTest, ByteIdenticalSearchEnvelopes) {
  auto unsharded = Tvdp::Create();
  ASSERT_TRUE(unsharded.ok());
  BuildCorpus(*unsharded);

  auto m = ShardManager::Create(GridOptions(1, 1, 1));
  ASSERT_TRUE(m.ok()) << m.status();
  BuildCorpus(**m);

  ModelRegistry reg_flat, reg_sharded;
  ApiService api_flat(&*unsharded, &reg_flat);
  ApiService api_sharded((*m).get(), &reg_sharded);
  // Key derivation is deterministic per (owner, counter), so both
  // services issue the same key and the request bytes are identical.
  std::string key_flat = api_flat.CreateApiKey("prop");
  std::string key_sharded = api_sharded.CreateApiKey("prop");
  ASSERT_EQ(key_flat, key_sharded);

  for (const Json& request : PropertyRequests()) {
    Json flat = api_flat.HandleEnvelope(key_flat, "search_datasets", request);
    Json sharded =
        api_sharded.HandleEnvelope(key_sharded, "search_datasets", request);
    ASSERT_EQ(sharded["status"].AsString(), "ok") << sharded.Dump();
    // The sharded envelope adds exactly one field: the coverage object.
    ASSERT_TRUE(sharded["data"].Has("coverage"));
    sharded["data"].AsObject().erase("coverage");
    EXPECT_EQ(flat.Dump(), sharded.Dump()) << request.Dump();
  }

  // explain_query carries no coverage and must match outright.
  for (const Json& request : PropertyRequests()) {
    Json flat = api_flat.HandleEnvelope(key_flat, "explain_query", request);
    Json sharded =
        api_sharded.HandleEnvelope(key_sharded, "explain_query", request);
    EXPECT_EQ(flat.Dump(), sharded.Dump()) << request.Dump();
  }

  // download_datasets: global ids coincide with local ids when N == 1.
  Json dl = Json::MakeObject();
  dl["image_ids"] = Json(Json::Array{0, 7, 249, 499});
  EXPECT_EQ(api_flat.HandleEnvelope(key_flat, "download_datasets", dl).Dump(),
            api_sharded.HandleEnvelope(key_sharded, "download_datasets", dl)
                .Dump());
}

// ---------------------------------------------------------------------
// Partial results, breakers, hedging, shedding.
// ---------------------------------------------------------------------

TEST(ShardingFaultTest, DeadShardDegradesCoverageNotAvailability) {
  auto m = ShardManager::Create(GridOptions(4, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildCorpus(mgr);

  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};  // all 500 images, spread over all shards
  q.textual = tp;
  auto before = mgr.ExecuteQuery(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->hits.size(), static_cast<size_t>(kCorpus));

  ASSERT_TRUE(mgr.KillShard(2).ok());
  auto after = mgr.ExecuteQuery(q);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->coverage.complete());
  EXPECT_EQ(after->coverage.FailedShards(), std::vector<int>{2});
  EXPECT_LT(after->hits.size(), before->hits.size());
  EXPECT_FALSE(after->hits.empty());
  // The surviving hits are still well-ordered (ascending image id for a
  // pure filter) and none of them belong to the dead shard.
  for (size_t i = 1; i < after->hits.size(); ++i) {
    EXPECT_LT(after->hits[i - 1].image_id, after->hits[i].image_id);
  }
  for (const auto& h : after->hits) EXPECT_NE(h.image_id % 4, 2);
}

TEST(ShardingFaultTest, BreakerOpensHalfOpensAndRecloses) {
  auto clock = std::make_shared<double>(0.0);
  ShardManagerOptions opts = GridOptions(2, 1, 2);
  opts.now_ms = [clock] { return *clock; };
  opts.breaker.failure_threshold = 3;
  opts.breaker.open_cooldown_ms = 500;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildCorpus(mgr);

  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;

  ASSERT_TRUE(mgr.KillShard(0).ok());
  // Three failed probes trip the breaker closed -> open.
  for (int i = 0; i < 3; ++i) {
    auto r = mgr.ExecuteQuery(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->coverage.FailedShards(), std::vector<int>{0});
  }
  EXPECT_EQ(mgr.breaker_state(0), edge::CircuitState::kOpen);

  // While open, the shard is skipped without being probed at all.
  auto blocked = mgr.ExecuteQuery(q);
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->coverage.reports[0].outcome, ShardOutcome::kBreakerOpen);
  EXPECT_EQ(blocked->coverage.reports[0].attempts, 0);

  // Recovery alone does not re-admit: the cooldown must elapse, then the
  // half-open state admits a single probe whose success closes the
  // circuit and restores full coverage.
  ASSERT_TRUE(mgr.RecoverShard(0).ok());
  *clock += 600;
  auto probe = mgr.ExecuteQuery(q);
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->coverage.complete()) << probe->coverage.ToJson().Dump();
  EXPECT_EQ(probe->hits.size(), static_cast<size_t>(kCorpus));
  EXPECT_EQ(mgr.breaker_state(0), edge::CircuitState::kClosed);
}

TEST(ShardingFaultTest, HedgedProbesBeatTransientCrashes) {
  // Two managers with identical fault seeds; only hedging differs.
  auto make = [](bool hedging) {
    ShardManagerOptions opts = GridOptions(2, 1, 2);
    opts.breakers = false;  // isolate the hedging effect
    opts.gather.hedging = hedging;
    opts.fault_seed = 7;
    auto m = ShardManager::Create(opts);
    EXPECT_TRUE(m.ok());
    BuildCorpus(**m);
    ShardFaultProfile faults;
    faults.crash_prob = 0.4;  // transient: each attempt re-draws
    EXPECT_TRUE((*m)->SetShardFaults(0, faults).ok());
    return std::move(m).value();
  };
  auto hedged = make(true);
  auto naive = make(false);

  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;

  int hedged_failures = 0, naive_failures = 0;
  for (int i = 0; i < 40; ++i) {
    auto rh = hedged->ExecuteQuery(q);
    ASSERT_TRUE(rh.ok());
    if (!rh->coverage.FailedShards().empty()) ++hedged_failures;
    auto rn = naive->ExecuteQuery(q);
    ASSERT_TRUE(rn.ok());
    if (!rn->coverage.FailedShards().empty()) ++naive_failures;
  }
  EXPECT_GT(naive_failures, 0);
  EXPECT_LT(hedged_failures, naive_failures);
}

TEST(ShardingFaultTest, DegradedBudgetShedsLowSelectivityShardsFirst) {
  auto m = ShardManager::Create(GridOptions(4, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildCorpus(mgr);

  // "market" density is uniform, so make the query textual "city" (every
  // shard matches) and rely on per-shard cardinality differences from the
  // grid split; the contract under test: with a degraded budget exactly
  // ceil(4 * 0.5) = 2 shards are probed and the shed ones have the
  // lowest estimates.
  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;
  auto r = mgr.ExecuteQuery(q, nullptr, QueryBudget(),
                            /*shed_shards_degraded=*/true);
  ASSERT_TRUE(r.ok()) << r.status();
  std::vector<const query::ShardReport*> shed, probed;
  for (const auto& rep : r->coverage.reports) {
    if (rep.outcome == ShardOutcome::kShed) shed.push_back(&rep);
    if (rep.outcome == ShardOutcome::kProbed) probed.push_back(&rep);
  }
  EXPECT_EQ(probed.size(), 2u);
  EXPECT_EQ(shed.size(), 2u);
  EXPECT_FALSE(r->coverage.complete());
  for (const auto* s : shed) {
    for (const auto* p : probed) {
      EXPECT_LE(s->estimated_rows, p->estimated_rows);
    }
  }
  EXPECT_FALSE(r->hits.empty());
}

TEST(ShardingFaultTest, AllShardsDownIsUnavailableWithRetryHint) {
  auto m = ShardManager::Create(GridOptions(2, 1, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildCorpus(mgr);
  ASSERT_TRUE(mgr.KillShard(0).ok());
  ASSERT_TRUE(mgr.KillShard(1).ok());

  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;
  auto r = mgr.ExecuteQuery(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(ShardingFaultTest, ApiEnvelopeCarriesCoverageWithFailedShards) {
  auto m = ShardManager::Create(GridOptions(4, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  BuildCorpus(**m);
  ASSERT_TRUE((*m)->KillShard(1).ok());

  ModelRegistry reg;
  ApiService api((*m).get(), &reg);
  std::string key = api.CreateApiKey("ops");
  Json request = Json::MakeObject();
  request["keywords"] = Json(Json::Array{"city"});
  Json env = api.HandleEnvelope(key, "search_datasets", request);
  ASSERT_EQ(env["status"].AsString(), "ok") << env.Dump();
  const Json& cov = env["data"]["coverage"];
  EXPECT_FALSE(cov["complete"].AsBool());
  ASSERT_EQ(cov["failed_shards"].size(), 1u);
  EXPECT_EQ(cov["failed_shards"].AsArray()[0].AsInt(), 1);
  EXPECT_GT(env["data"]["count"].AsInt(), 0);
}

TEST(ShardingFaultTest, PlatformStatsExposesPerShardState) {
  auto m = ShardManager::Create(GridOptions(2, 1, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  BuildCorpus(**m);
  ModelRegistry reg;
  ApiService api((*m).get(), &reg);
  std::string key = api.CreateApiKey("ops");

  Json request = Json::MakeObject();
  request["keywords"] = Json(Json::Array{"city"});
  ASSERT_EQ(api.HandleEnvelope(key, "search_datasets", request)["status"]
                .AsString(),
            "ok");

  Json env = api.HandleEnvelope(key, "platform_stats", Json::MakeObject());
  ASSERT_EQ(env["status"].AsString(), "ok") << env.Dump();
  const Json& data = env["data"];
  EXPECT_TRUE(data["sharded"].AsBool());
  EXPECT_EQ(data["images"].AsInt(), kCorpus);
  const Json& shards = data["shards"];
  EXPECT_EQ(shards["shard_count"].AsInt(), 2);
  ASSERT_EQ(shards["shards"].size(), 2u);
  for (const Json& s : shards["shards"].AsArray()) {
    EXPECT_TRUE(s.Has("breaker"));
    EXPECT_TRUE(s.Has("wal_bytes"));
    EXPECT_TRUE(s.Has("probe_p50_ms"));
    EXPECT_TRUE(s.Has("probe_p99_ms"));
    EXPECT_EQ(s["breaker"].AsString(), "closed");
    EXPECT_GT(s["probes"].AsInt(), 0);
    EXPECT_TRUE(s["alive"].AsBool());
  }
}

// ---------------------------------------------------------------------
// Online recovery via WAL replay (kill -> query -> recover -> query).
// ---------------------------------------------------------------------

TEST(ShardingRecoveryTest, KilledDurableShardRecoversViaWalReplay) {
  std::string dir = ::testing::TempDir() + "tvdp_shardXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);

  auto clock = std::make_shared<double>(0.0);
  ShardManagerOptions opts = GridOptions(2, 1, 2);
  opts.base_path = dir;
  opts.now_ms = [clock] { return *clock; };
  opts.breaker.failure_threshold = 1;  // first failure trips the breaker
  opts.breaker.open_cooldown_ms = 500;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  ASSERT_TRUE(mgr.RegisterClassification("scene", {"clean", "dirty"}).ok());
  for (int i = 0; i < 40; ++i) {
    ImageRecord rec;
    rec.uri = "dur" + std::to_string(i);
    rec.location =
        geo::GeoPoint{34.01 + (i % 4) * 0.01, -118.29 + (i % 8) * 0.012};
    rec.captured_at = kT0 + i;
    rec.keywords = {"city"};
    ASSERT_TRUE(mgr.IngestImage(rec).ok());
  }
  EXPECT_EQ(mgr.replayed_records(0), 0u);  // fresh stores: nothing replayed

  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;
  auto baseline = mgr.ExecuteQuery(q);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline->coverage.complete());
  const std::set<std::string> expect = UrisOf(mgr, baseline->hits);
  EXPECT_EQ(expect.size(), 40u);

  // Kill: the engine is dropped with no checkpoint, so every committed
  // record lives only in the WAL.
  ASSERT_TRUE(mgr.KillShard(0).ok());
  EXPECT_FALSE(mgr.shard_alive(0));
  auto partial = mgr.ExecuteQuery(q);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->coverage.FailedShards(), std::vector<int>{0});
  EXPECT_LT(partial->hits.size(), 40u);
  EXPECT_EQ(mgr.breaker_state(0), edge::CircuitState::kOpen);

  // Recover online: reopen from snapshot + WAL, no platform restart.
  ASSERT_TRUE(mgr.RecoverShard(0).ok());
  EXPECT_TRUE(mgr.shard_alive(0));
  EXPECT_GT(mgr.replayed_records(0), 0u);

  // Still gated: the breaker must walk open -> half-open -> closed.
  auto still_blocked = mgr.ExecuteQuery(q);
  ASSERT_TRUE(still_blocked.ok());
  EXPECT_EQ(still_blocked->coverage.reports[0].outcome,
            ShardOutcome::kBreakerOpen);

  *clock += 600;  // past the cooldown: half-open admits one probe
  auto recovered = mgr.ExecuteQuery(q);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->coverage.complete())
      << recovered->coverage.ToJson().Dump();
  EXPECT_EQ(mgr.breaker_state(0), edge::CircuitState::kClosed);
  EXPECT_EQ(UrisOf(mgr, recovered->hits), expect);
}

TEST(ShardingRecoveryTest, WalWriteFaultsSurfaceWithoutCorruptingShard) {
  std::string dir = ::testing::TempDir() + "tvdp_shardioXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);

  FaultInjectingFs faulty(Fs::Default());
  ShardManagerOptions opts = GridOptions(2, 1, 2);
  opts.base_path = dir;
  opts.durable.fs = &faulty;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  ImageRecord rec;
  rec.uri = "pre";
  rec.location = geo::GeoPoint{34.01, -118.29};
  rec.keywords = {"city"};
  ASSERT_TRUE(mgr.IngestImage(rec).ok());
  const size_t before = mgr.image_count();

  // The injected I/O fault aborts the WAL commit; the ingest fails loudly
  // instead of acknowledging an unpersisted write.
  faulty.InjectErrors(1);
  rec.uri = "faulted";
  auto failed = mgr.IngestImage(rec);
  EXPECT_FALSE(failed.ok());
  EXPECT_GT(faulty.injected_faults(), 0);
  EXPECT_EQ(mgr.image_count(), before);

  // With the disk healthy again the shard keeps serving and accepting.
  rec.uri = "post";
  ASSERT_TRUE(mgr.IngestImage(rec).ok());
  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;
  auto r = mgr.ExecuteQuery(q);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->coverage.complete());
  EXPECT_EQ(r->hits.size(), before + 1);
}

// ---------------------------------------------------------------------
// Stress: concurrent queries during kill/recover cycles (the tier-1
// ShardingStress.{asan,tsan} targets run exactly this suite).
// ---------------------------------------------------------------------

TEST(ShardingStressTest, ConcurrentQueriesDuringKillRecoverCycles) {
  auto m = ShardManager::Create(GridOptions(4, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildCorpus(mgr);

  std::atomic<bool> stop{false};
  std::atomic<int> queries{0}, answered{0}, malformed{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      HybridQuery q;
      query::TextualPredicate tp;
      tp.keywords = {w % 2 == 0 ? "city" : "market"};
      q.textual = tp;
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = mgr.ExecuteQuery(q);
        ++queries;
        if (r.ok()) {
          ++answered;
          // Structural invariant: every shard is accounted for exactly
          // once, whatever the kill/recover cycle did meanwhile.
          size_t accounted = r->coverage.ProbedShards().size() +
                             r->coverage.SkippedShards().size() +
                             r->coverage.FailedShards().size();
          if (accounted != 4u) ++malformed;
        } else if (r.status().code() != StatusCode::kUnavailable) {
          ++malformed;  // partial results may fail only as Unavailable
        }
      }
    });
  }
  std::thread ingester([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ImageRecord rec;
      rec.uri = "live" + std::to_string(i);
      rec.location =
          geo::GeoPoint{34.005 + (i % 19) * 0.004, -118.295 + (i % 23) * 0.004};
      rec.keywords = {"city"};
      auto id = mgr.IngestImage(rec);
      if (!id.ok() && id.status().code() != StatusCode::kUnavailable) {
        ++malformed;
      }
      ++i;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Kill/recover cycles over rotating shards while the fleet serves.
  for (int cycle = 0; cycle < 12; ++cycle) {
    int shard = cycle % 4;
    EXPECT_TRUE(mgr.KillShard(shard).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(mgr.RecoverShard(shard).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& t : workers) t.join();
  ingester.join();

  EXPECT_GT(queries.load(), 0);
  EXPECT_GT(answered.load(), 0);
  EXPECT_EQ(malformed.load(), 0);
  // The platform survived: once the breaker cooldowns elapse, half-open
  // probes re-admit every recovered shard and coverage returns to full.
  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;
  bool full_coverage = false;
  for (int attempt = 0; attempt < 100 && !full_coverage; ++attempt) {
    auto final_r = mgr.ExecuteQuery(q);
    if (final_r.ok() && final_r->coverage.complete()) full_coverage = true;
    if (!full_coverage) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(full_coverage);
}

// ---------------------------------------------------------------------
// Atomic cross-shard broadcasts: two-phase intent/commit, id-divergence
// detection, and crash reconciliation.
// ---------------------------------------------------------------------

/// Registers `extra` directly on one shard, bypassing the coordinator —
/// the id-skew the broadcast protocol must detect.
void SkewShard(ShardManager& mgr, int shard) {
  ASSERT_NE(mgr.shard(shard), nullptr);
  ASSERT_TRUE(
      mgr.shard(shard)->RegisterClassification("skew", {"x"}).ok());
}

TEST(BroadcastAtomicityTest, AtomicBroadcastDetectsIdDivergence) {
  auto m = ShardManager::Create(GridOptions(2, 1, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  SkewShard(mgr, 1);

  // The divergence detector sees the skew before any broadcast runs.
  Json detail;
  Status s = mgr.VerifyClassificationConsistency(&detail);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.message().find("shard"), std::string::npos);

  auto id = mgr.RegisterClassification("scene", {"clean", "dirty"});
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kDataLoss);
  // The divergent shard is named, and the broadcast is still resolved
  // (every shard applied; nothing is left pending).
  EXPECT_NE(id.status().message().find("shard"), std::string::npos);
  EXPECT_EQ(mgr.pending_broadcasts(0), 0u);
  EXPECT_EQ(mgr.pending_broadcasts(1), 0u);
  EXPECT_TRUE(mgr.shard(0)->ClassificationId("scene").ok());
  EXPECT_TRUE(mgr.shard(1)->ClassificationId("scene").ok());
}

TEST(BroadcastAtomicityTest, AgreementBroadcastCommitsCleanly) {
  auto m = ShardManager::Create(GridOptions(3, 1, 3));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  auto id = mgr.RegisterClassification("scene", {"clean", "dirty"});
  ASSERT_TRUE(id.ok()) << id.status();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(mgr.pending_broadcasts(i), 0u);
    auto sid = mgr.shard(i)->ClassificationId("scene");
    ASSERT_TRUE(sid.ok());
    EXPECT_EQ(*sid, *id);
  }
  EXPECT_TRUE(mgr.VerifyClassificationConsistency().ok());
  // Idempotent re-broadcast returns the same id.
  auto again = mgr.RegisterClassification("scene", {"clean", "dirty"});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *id);
}

TEST(BroadcastAtomicityTest, AbandonedBeforeAnyApplyRollsBack) {
  auto m = ShardManager::Create(GridOptions(2, 1, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  // Coordinator "crashes" after logging intents but before the first
  // apply: the classification must not exist anywhere afterwards.
  mgr.SetBroadcastHook([](const std::string& phase, int shard) {
    return !(phase == "apply" && shard == 0);
  });
  auto id = mgr.RegisterClassification("ghost", {"a"});
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(mgr.pending_broadcasts(0), 1u);
  EXPECT_EQ(mgr.pending_broadcasts(1), 1u);
  EXPECT_FALSE(mgr.shard(0)->ClassificationId("ghost").ok());

  mgr.SetBroadcastHook({});
  auto report = mgr.ReconcileBroadcasts();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ((*report)["rolled_back"].size(), 1u);
  EXPECT_EQ((*report)["completed"].size(), 0u);
  EXPECT_TRUE((*report)["consistent"].AsBool());
  EXPECT_EQ(mgr.pending_broadcasts(0), 0u);
  EXPECT_EQ(mgr.pending_broadcasts(1), 0u);
  EXPECT_FALSE(mgr.shard(0)->ClassificationId("ghost").ok());
  EXPECT_FALSE(mgr.shard(1)->ClassificationId("ghost").ok());
}

TEST(BroadcastAtomicityTest, AbandonedMidApplyCompletesForward) {
  auto m = ShardManager::Create(GridOptions(2, 1, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  // Crash after shard 0 applied: reconciliation must finish the job, not
  // roll back what shard 0 already holds.
  mgr.SetBroadcastHook([](const std::string& phase, int shard) {
    return !(phase == "apply" && shard == 1);
  });
  auto id = mgr.RegisterClassification("half", {"a", "b"});
  ASSERT_FALSE(id.ok());
  ASSERT_TRUE(mgr.shard(0)->ClassificationId("half").ok());
  ASSERT_FALSE(mgr.shard(1)->ClassificationId("half").ok());

  mgr.SetBroadcastHook({});
  auto report = mgr.ReconcileBroadcasts();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ((*report)["completed"].size(), 1u);
  EXPECT_EQ((*report)["rolled_back"].size(), 0u);
  EXPECT_TRUE((*report)["consistent"].AsBool());
  auto id0 = mgr.shard(0)->ClassificationId("half");
  auto id1 = mgr.shard(1)->ClassificationId("half");
  ASSERT_TRUE(id0.ok());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id0, *id1);
  EXPECT_EQ(mgr.pending_broadcasts(0), 0u);
  EXPECT_EQ(mgr.pending_broadcasts(1), 0u);
}

TEST(BroadcastAtomicityTest, AbandonedBeforeCommitMarkersStillResolves) {
  auto m = ShardManager::Create(GridOptions(2, 1, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  // Applied everywhere, crashed before any commit marker: the commit is
  // re-derived from the applied evidence.
  mgr.SetBroadcastHook([](const std::string& phase, int shard) {
    return !(phase == "commit" && shard == 0);
  });
  auto id = mgr.RegisterClassification("done", {"a"});
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(mgr.pending_broadcasts(0), 1u);
  EXPECT_EQ(mgr.pending_broadcasts(1), 1u);

  mgr.SetBroadcastHook({});
  auto report = mgr.ReconcileBroadcasts();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ((*report)["completed"].size(), 1u);
  EXPECT_EQ(mgr.pending_broadcasts(0), 0u);
  EXPECT_EQ(mgr.pending_broadcasts(1), 0u);
  auto id0 = mgr.shard(0)->ClassificationId("done");
  auto id1 = mgr.shard(1)->ClassificationId("done");
  ASSERT_TRUE(id0.ok());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id0, *id1);
}

TEST(BroadcastAtomicityTest, ReconcileEndpointReportsFleetState) {
  auto m = ShardManager::Create(GridOptions(2, 1, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ModelRegistry reg;
  ApiService api((*m).get(), &reg);
  std::string key = api.CreateApiKey("ops");

  Json env = api.HandleEnvelope(key, "reconcile", Json::MakeObject());
  ASSERT_EQ(env["status"].AsString(), "ok") << env.Dump();
  EXPECT_TRUE(env["data"]["consistent"].AsBool());
  EXPECT_EQ(env["data"]["completed"].size(), 0u);

  // Pending state shows up in platform_stats per shard.
  (*m)->SetBroadcastHook([](const std::string& phase, int) {
    return phase != "commit";
  });
  EXPECT_FALSE((*m)->RegisterClassification("p", {"a"}).ok());
  (*m)->SetBroadcastHook({});
  Json stats = api.HandleEnvelope(key, "platform_stats", Json::MakeObject());
  ASSERT_EQ(stats["status"].AsString(), "ok");
  EXPECT_EQ(stats["data"]["shards"]["shards"]
                .AsArray()[0]["pending_broadcasts"]
                .AsInt(),
            1);

  env = api.HandleEnvelope(key, "reconcile", Json::MakeObject());
  ASSERT_EQ(env["status"].AsString(), "ok") << env.Dump();
  EXPECT_EQ(env["data"]["completed"].size(), 1u);
  EXPECT_TRUE(env["data"]["consistent"].AsBool());
}

// ---------------------------------------------------------------------
// Crash reconciliation with real shard kills and WAL replay.
// ---------------------------------------------------------------------

TEST(BroadcastRecoveryTest, ShardKilledMidBroadcastConvergesAfterWalReplay) {
  std::string dir = ::testing::TempDir() + "tvdp_bcastXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = GridOptions(2, 1, 2);
  opts.base_path = dir;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  // Identical pre-crash history on both shards, plus rows for the WAL to
  // replay on shard 1.
  ASSERT_TRUE(mgr.RegisterClassification("scene", {"clean", "dirty"}).ok());
  for (int i = 0; i < 10; ++i) {
    ImageRecord rec;
    rec.uri = "east" + std::to_string(i);
    rec.location = geo::GeoPoint{34.04, -118.21 - i * 0.0001};  // shard 1
    rec.keywords = {"city"};
    ASSERT_TRUE(mgr.IngestImage(rec).ok());
  }

  // Shard 1 dies between logging the intent and applying it: the intent
  // survives only in its broadcast log on disk.
  mgr.SetBroadcastHook([&mgr](const std::string& phase, int shard) {
    if (phase == "apply" && shard == 1) {
      EXPECT_TRUE(mgr.KillShard(1).ok());
      return false;
    }
    return true;
  });
  auto id = mgr.RegisterClassification("crash_task", {"a", "b"});
  ASSERT_FALSE(id.ok());
  mgr.SetBroadcastHook({});
  ASSERT_TRUE(mgr.shard(0)->ClassificationId("crash_task").ok());

  // With shard 1 down, reconciliation completes the live side and defers
  // the rest — it must NOT roll back while the evidence is offline.
  auto report = mgr.ReconcileBroadcasts();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ((*report)["rolled_back"].size(), 0u);
  EXPECT_EQ(mgr.pending_broadcasts(0), 0u);

  // Recovery replays shard 1's WAL, reloads the pending intent from its
  // broadcast log, and the reconciliation pass completes it forward.
  ASSERT_TRUE(mgr.RecoverShard(1).ok());
  EXPECT_GT(mgr.replayed_records(1), 0u);
  EXPECT_EQ(mgr.pending_broadcasts(1), 0u);
  auto id0 = mgr.shard(0)->ClassificationId("crash_task");
  auto id1 = mgr.shard(1)->ClassificationId("crash_task");
  ASSERT_TRUE(id0.ok());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id0, *id1);  // identical ids, not just identical names
  // The whole table converges, not just the crashed broadcast.
  EXPECT_EQ(mgr.shard(0)->ClassificationTableJson().Dump(),
            mgr.shard(1)->ClassificationTableJson().Dump());
  EXPECT_TRUE(mgr.VerifyClassificationConsistency().ok());
}

TEST(BroadcastRecoveryTest, UnappliedIntentRolledBackAfterRecovery) {
  std::string dir = ::testing::TempDir() + "tvdp_bcastrbXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = GridOptions(2, 1, 2);
  opts.base_path = dir;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  ASSERT_TRUE(mgr.RegisterClassification("scene", {"clean"}).ok());

  // Shard 0 dies before ANY apply: the operation never happened anywhere,
  // but only shard 0's recovery can prove that.
  mgr.SetBroadcastHook([&mgr](const std::string& phase, int shard) {
    if (phase == "apply" && shard == 0) {
      EXPECT_TRUE(mgr.KillShard(0).ok());
      return false;
    }
    return true;
  });
  ASSERT_FALSE(mgr.RegisterClassification("ghost", {"a"}).ok());
  mgr.SetBroadcastHook({});

  // While shard 0 is down the intent must be deferred, not rolled back:
  // for all the coordinator knows, shard 0 applied it before dying.
  auto report = mgr.ReconcileBroadcasts();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ((*report)["rolled_back"].size(), 0u);
  EXPECT_EQ((*report)["deferred"].size(), 1u);
  EXPECT_EQ(mgr.pending_broadcasts(1), 1u);

  // Recovery proves shard 0 never applied it; the fleet rolls back.
  ASSERT_TRUE(mgr.RecoverShard(0).ok());
  EXPECT_EQ(mgr.pending_broadcasts(0), 0u);
  EXPECT_EQ(mgr.pending_broadcasts(1), 0u);
  EXPECT_FALSE(mgr.shard(0)->ClassificationId("ghost").ok());
  EXPECT_FALSE(mgr.shard(1)->ClassificationId("ghost").ok());
  EXPECT_EQ(mgr.shard(0)->ClassificationTableJson().Dump(),
            mgr.shard(1)->ClassificationTableJson().Dump());
  EXPECT_TRUE(mgr.VerifyClassificationConsistency().ok());
}

TEST(BroadcastRecoveryTest, StartupReconciliationAfterProcessCrash) {
  std::string dir = ::testing::TempDir() + "tvdp_bcastprXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = GridOptions(2, 1, 2);
  opts.base_path = dir;
  {
    auto m = ShardManager::Create(opts);
    ASSERT_TRUE(m.ok()) << m.status();
    // Applied on every shard, crashed before any commit marker, then the
    // whole process dies.
    (*m)->SetBroadcastHook([](const std::string& phase, int) {
      return phase != "commit";
    });
    ASSERT_FALSE((*m)->RegisterClassification("boot", {"a"}).ok());
    EXPECT_EQ((*m)->pending_broadcasts(0), 1u);
  }
  // A fresh fleet over the same stores reconciles during Create, before
  // serving anything.
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ((*m)->pending_broadcasts(0), 0u);
  EXPECT_EQ((*m)->pending_broadcasts(1), 0u);
  auto id0 = (*m)->shard(0)->ClassificationId("boot");
  auto id1 = (*m)->shard(1)->ClassificationId("boot");
  ASSERT_TRUE(id0.ok());
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id0, *id1);
  EXPECT_TRUE((*m)->VerifyClassificationConsistency().ok());
}

// ---------------------------------------------------------------------
// Satellite regressions: FOV margin across reopen, in-memory total loss.
// ---------------------------------------------------------------------

TEST(ShardingRecoveryTest, FovSpilloverMarginSurvivesDurableReopen) {
  std::string dir = ::testing::TempDir() + "tvdp_fovXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = GridOptions(2, 1, 2);
  opts.base_path = dir;

  // Same geometry as FovSpilloverStillFoundUnderRegionPruning: camera in
  // shard 0, FOV reaching across the boundary into shard 1's cell.
  const geo::GeoPoint camera{34.04, -118.253};
  const geo::GeoPoint target{34.04, -118.2505};
  HybridQuery q;
  query::SpatialPredicate sp;
  sp.kind = query::SpatialPredicate::Kind::kVisibleAt;
  sp.point = target;
  q.spatial = sp;

  int64_t image_id = -1;
  {
    auto m = ShardManager::Create(opts);
    ASSERT_TRUE(m.ok()) << m.status();
    ImageRecord rec;
    rec.uri = "boundary_cam";
    rec.location = camera;
    auto fov = geo::FieldOfView::Make(camera, 90.0, 60.0, 300.0);
    ASSERT_TRUE(fov.ok());
    rec.fov = *fov;
    auto id = (*m)->IngestImage(rec);
    ASSERT_TRUE(id.ok()) << id.status();
    image_id = *id;
    auto r = (*m)->ExecuteQuery(q);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->hits.size(), 1u);
  }

  // Reopen: the prune margin must be recomputed from the recovered
  // catalog. Before the fix it silently reset to 0 and shard 0 was pruned
  // out of exactly the query that needs it.
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  auto r = (*m)->ExecuteQuery(q);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->hits.size(), 1u) << "spillover image lost after reopen";
  EXPECT_EQ(r->hits[0].image_id, image_id);
  EXPECT_EQ(r->coverage.reports[0].outcome, ShardOutcome::kProbed);
}

TEST(ShardingRecoveryTest, KillFencesWritersHoldingTheOldHandle) {
  // Writers copy a shard's engine handle and commit after releasing the
  // fleet lock. A kill must stop such a writer before recovery reopens the
  // WAL, or its frame lands in (or tears) the log the revived engine owns:
  // acked writes then vanish on recovery or on the next replay.
  std::string dir = ::testing::TempDir() + "tvdp_stalewXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = GridOptions(4, 2, 2);
  opts.base_path = dir;
  opts.breakers = false;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  auto location = [](int i) {
    return geo::GeoPoint{34.005 + (i % 19) * 0.004,
                         -118.295 + (i % 23) * 0.004};
  };
  constexpr int kSeeded = 40;
  for (int i = 0; i < kSeeded; ++i) {
    ImageRecord rec;
    rec.uri = "seed" + std::to_string(i);
    rec.location = location(i);
    ASSERT_TRUE(mgr.IngestImage(rec).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> acked{0}, refused{0}, wrong_code{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      for (int i = w; !stop.load(std::memory_order_relaxed); i += 3) {
        ImageRecord rec;
        rec.uri = "w" + std::to_string(i);
        rec.location = location(i);
        rec.keywords = {"city"};
        auto id = mgr.IngestImage(rec);
        if (id.ok()) {
          ++acked;
        } else if (id.status().code() == StatusCode::kUnavailable) {
          ++refused;
        } else {
          ++wrong_code;
        }
      }
    });
  }
  for (int cycle = 0; cycle < 40; ++cycle) {
    const int shard = cycle % 4;
    EXPECT_TRUE(mgr.KillShard(shard).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    EXPECT_TRUE(mgr.RecoverShard(shard).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true);
  for (auto& t : writers) t.join();

  // One more crash and WAL replay of every shard: what each log holds is
  // what the fleet serves.
  for (int shard = 0; shard < 4; ++shard) {
    ASSERT_TRUE(mgr.KillShard(shard).ok());
    ASSERT_TRUE(mgr.RecoverShard(shard).ok());
  }
  EXPECT_GT(acked.load(), 0);
  EXPECT_EQ(wrong_code.load(), 0);
  EXPECT_EQ(mgr.image_count(), static_cast<size_t>(kSeeded + acked.load()))
      << refused.load() << " writes refused";
}

// ---------------------------------------------------------------------
// Stress: concurrent broadcasts racing kill/recover cycles (the tier-1
// BroadcastStress.{asan,tsan} targets run exactly this suite).
// ---------------------------------------------------------------------

TEST(BroadcastStressTest, ConcurrentBroadcastsVsKillRecoverConverge) {
  auto m = ShardManager::Create(GridOptions(4, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  ASSERT_TRUE(mgr.RegisterClassification("scene", {"clean"}).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> committed{0}, rejected{0};

  std::vector<std::thread> broadcasters;
  for (int w = 0; w < 2; ++w) {
    broadcasters.emplace_back([&, w] {
      int n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string name =
            "task_" + std::to_string(w) + "_" + std::to_string(n++ % 16);
        auto id = mgr.RegisterClassification(name, {"a", "b"});
        if (id.ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)mgr.StatsJson();
      for (int i = 0; i < 4; ++i) (void)mgr.pending_broadcasts(i);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Kill/recover cycles racing the broadcast coordinator.
  for (int cycle = 0; cycle < 10; ++cycle) {
    int shard = cycle % 4;
    EXPECT_TRUE(mgr.KillShard(shard).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Status recovered = mgr.RecoverShard(shard);
    // Divergence is never acceptable here; transient FailedPrecondition
    // cannot happen (kill/recover run from this one thread).
    EXPECT_TRUE(recovered.ok()) << recovered.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : broadcasters) t.join();
  reader.join();
  EXPECT_GT(committed.load(), 0);

  // Quiesced: one reconciliation pass over the whole (live) fleet must
  // drain every pending intent and leave identical classification tables.
  auto report = mgr.ReconcileBroadcasts();
  ASSERT_TRUE(report.ok()) << report.status();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(mgr.pending_broadcasts(i), 0u) << "shard " << i;
  }
  Json detail;
  Status consistent = mgr.VerifyClassificationConsistency(&detail);
  EXPECT_TRUE(consistent.ok())
      << consistent.ToString() << "\n" << detail.Dump();
  const std::string table0 = mgr.shard(0)->ClassificationTableJson().Dump();
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(mgr.shard(i)->ClassificationTableJson().Dump(), table0);
  }
}

}  // namespace
}  // namespace tvdp::platform
