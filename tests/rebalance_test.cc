// Crash-safe online shard rebalancing: guards, equivalence, crash-at-every-
// phase recovery, and the RebalanceStress.{asan,tsan} concurrency suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "platform/api.h"
#include "platform/model_registry.h"
#include "platform/sharding.h"
#include "platform/tvdp.h"
#include "query/query.h"
#include "query/scatter_gather.h"

namespace tvdp::platform {
namespace {

using query::HybridQuery;
using query::ShardOutcome;

constexpr Timestamp kT0 = 1546300800;
constexpr int kCorpus = 500;

/// The PR 5 planner-suite corpus (identical ingest sequence to the sharding
/// suite, replayable into an unsharded Tvdp or a ShardManager).
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

constexpr int kSmall = 80;

/// A small durable-friendly corpus for the crash matrix (WAL replay of the
/// full 500-image suite times 6 crash points would dominate the runtime).
template <typename P>
void BuildSmallCorpus(P& p) {
  ASSERT_TRUE(p.RegisterClassification("scene", {"clean", "dirty"}).ok());
  for (int i = 0; i < kSmall; ++i) {
    int row = i / 10, col = i % 10;
    ImageRecord rec;
    rec.uri = "img" + std::to_string(i);
    rec.location = geo::GeoPoint{34.00 + row * 0.009, -118.30 + col * 0.0095};
    rec.captured_at = kT0 + i * 60;
    rec.keywords = {"city"};
    if (i % 5 == 0) rec.keywords.push_back("market");
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

/// The planner-suite property queries as request bodies (the byte-identity
/// check runs them through the full API parse path).
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

HybridQuery CityQuery() {
  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;
  return q;
}

/// A point inside grid cell 0 of the 2x2 corpus grid (the SW quadrant).
geo::GeoPoint CellZeroPoint() { return {34.01, -118.29}; }

// ---------------------------------------------------------------------
// Satellite: admission guards for malformed / unsafe rebalances.
// ---------------------------------------------------------------------

TEST(RebalanceGuardTest, RejectsMalformedRequests) {
  auto m = ShardManager::Create(GridOptions(2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  auto expect_invalid = [&](const std::vector<int>& cells, int src, int tgt) {
    auto r = mgr.RebalanceCells(cells, src, tgt);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status();
  };
  expect_invalid({}, 0, 1);        // no cells
  expect_invalid({99}, 0, 1);      // unknown cell
  expect_invalid({-1}, 0, 1);      // negative cell
  expect_invalid({0, 0}, 0, 1);    // duplicate cell
  expect_invalid({0}, 0, 0);       // source == target
  expect_invalid({0}, -1, 1);      // shard out of range
  expect_invalid({0}, 0, 5);       // shard out of range
}

TEST(RebalanceGuardTest, RejectsWrongOwnerAndDeadEndpoints) {
  auto m = ShardManager::Create(GridOptions(2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  // Round-robin assignment: cell 1 belongs to shard 1, not shard 0.
  auto not_owner = mgr.RebalanceCells({1}, 0, 1);
  ASSERT_FALSE(not_owner.ok());
  EXPECT_EQ(not_owner.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(mgr.KillShard(1).ok());
  auto dead_target = mgr.RebalanceCells({0}, 0, 1);
  ASSERT_FALSE(dead_target.ok());
  EXPECT_EQ(dead_target.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(mgr.RecoverShard(1).ok());

  ASSERT_TRUE(mgr.KillShard(0).ok());
  auto dead_source = mgr.RebalanceCells({0}, 0, 1);
  ASSERT_FALSE(dead_source.ok());
  EXPECT_EQ(dead_source.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RebalanceGuardTest, UnresolvedMigrationBlocksKillAndReMigration) {
  auto m = ShardManager::Create(GridOptions(2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);

  // Coordinator "crashes" during the bulk copy.
  mgr.SetMigrationHook(
      [](const std::string& phase, int) { return phase != "copy"; });
  auto crashed = mgr.RebalanceCells({0}, 0, 1);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kUnavailable);
  mgr.SetMigrationHook({});
  EXPECT_TRUE(mgr.shard_migrating(0));
  EXPECT_TRUE(mgr.shard_migrating(1));

  // A migrating shard cannot be killed by accident...
  Status kill = mgr.KillShard(0);
  ASSERT_FALSE(kill.ok());
  EXPECT_EQ(kill.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(mgr.shard_alive(0));

  // ...and a second migration touching either endpoint is refused.
  auto again = mgr.RebalanceCells({0}, 0, 1);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);

  // Reconciliation rolls the abandoned migration back; everything unwedges.
  auto report = mgr.ReconcileBroadcasts();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ((*report)["rolled_back"].size(), 1u) << (*report).Dump();
  EXPECT_FALSE(mgr.shard_migrating(0));
  EXPECT_FALSE(mgr.shard_migrating(1));
  EXPECT_EQ(mgr.ShardForLocation(CellZeroPoint()), 0);
  EXPECT_EQ(mgr.image_count(), static_cast<size_t>(kSmall));

  auto retry = mgr.RebalanceCells({0}, 0, 1);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(mgr.ShardForLocation(CellZeroPoint()), 1);
  EXPECT_EQ(mgr.image_count(), static_cast<size_t>(kSmall));
}

TEST(RebalanceGuardTest, ApiEndpointValidatesAndReports) {
  auto flat = Tvdp::Create();
  ASSERT_TRUE(flat.ok());
  ModelRegistry reg_flat;
  ApiService api_flat(&*flat, &reg_flat);
  std::string key = api_flat.CreateApiKey("ops");
  Json req = Json::MakeObject();
  req["cells"] = Json(Json::Array{0});
  req["source"] = 0;
  req["target"] = 1;
  auto unsharded = api_flat.HandleRequest(key, "rebalance", req);
  ASSERT_FALSE(unsharded.ok());
  EXPECT_EQ(unsharded.status().code(), StatusCode::kFailedPrecondition);

  auto m = ShardManager::Create(GridOptions(2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  BuildSmallCorpus(**m);
  ModelRegistry reg;
  ApiService api((*m).get(), &reg);
  std::string skey = api.CreateApiKey("ops");

  Json missing = Json::MakeObject();
  missing["source"] = 0;
  missing["target"] = 1;
  auto no_cells = api.HandleRequest(skey, "rebalance", missing);
  ASSERT_FALSE(no_cells.ok());
  EXPECT_EQ(no_cells.status().code(), StatusCode::kInvalidArgument);

  auto ok = api.HandleRequest(skey, "rebalance", req);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ((*ok)["source"].AsInt(), 0);
  EXPECT_EQ((*ok)["target"].AsInt(), 1);
  EXPECT_GT((*ok)["rows_copied"].AsInt(), 0);
  EXPECT_EQ((*m)->ShardForLocation(CellZeroPoint()), 1);

  // platform_stats surfaces the (now idle) migration machinery.
  auto stats = api.HandleRequest(skey, "platform_stats", Json::MakeObject());
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Json& shard_stats = (*stats)["shards"];
  EXPECT_FALSE(shard_stats["migration"]["active"].AsBool());
  EXPECT_EQ(shard_stats["migration"]["phase"].AsString(), "done");
  EXPECT_EQ(shard_stats["pending_rebalance_intents"].AsInt(), 0);
  EXPECT_GT(shard_stats["relocated_rows"].AsInt(), 0);
  EXPECT_FALSE(shard_stats["shards"].AsArray()[0]["migrating"].AsBool());
}

// ---------------------------------------------------------------------
// Tentpole: query equivalence across a live migration (byte-identity).
// ---------------------------------------------------------------------

TEST(RebalanceEquivalenceTest, EnvelopesByteIdenticalAcrossRebalance) {
  auto m = ShardManager::Create(GridOptions(2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildCorpus(mgr);

  ModelRegistry reg;
  ApiService api((*m).get(), &reg);
  std::string key = api.CreateApiKey("prop");

  // Relocated rows keep their original global ids, so the response bytes
  // must be identical modulo the per-shard "plan" (estimates move with the
  // rows) and "coverage" (the probe fan-out changes).
  auto strip = [](Json env) {
    if (env.Has("data")) {
      env["data"].AsObject().erase("plan");
      env["data"].AsObject().erase("coverage");
    }
    return env.Dump();
  };
  std::vector<std::string> before;
  for (const Json& request : PropertyRequests()) {
    Json env = api.HandleEnvelope(key, "search_datasets", request);
    ASSERT_EQ(env["status"].AsString(), "ok") << env.Dump();
    before.push_back(strip(env));
  }

  auto report = mgr.RebalanceCells({0}, 0, 1);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT((*report)["rows_copied"].AsInt(), 0);
  EXPECT_EQ(mgr.ShardForLocation(CellZeroPoint()), 1);
  EXPECT_EQ(mgr.image_count(), static_cast<size_t>(kCorpus));

  size_t i = 0;
  for (const Json& request : PropertyRequests()) {
    Json env = api.HandleEnvelope(key, "search_datasets", request);
    ASSERT_EQ(env["status"].AsString(), "ok") << env.Dump();
    EXPECT_TRUE(env["data"]["coverage"]["complete"].AsBool());
    EXPECT_EQ(before[i++], strip(env)) << request.Dump();
  }
}

TEST(RebalanceEquivalenceTest, RelocatedIdsKeepServingPointLookups) {
  auto unsharded = Tvdp::Create();
  ASSERT_TRUE(unsharded.ok());
  BuildCorpus(*unsharded);

  auto m = ShardManager::Create(GridOptions(2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildCorpus(mgr);

  auto baseline = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(baseline.ok());
  const std::set<std::string> oracle = UrisOf(mgr, baseline->hits);
  ASSERT_EQ(oracle.size(), static_cast<size_t>(kCorpus));

  ASSERT_TRUE(mgr.RebalanceCells({0}, 0, 1).ok());

  auto after = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->coverage.complete());
  EXPECT_EQ(UrisOf(mgr, after->hits), oracle);
  // Same ids, same order as before the migration.
  ASSERT_EQ(after->hits.size(), baseline->hits.size());
  for (size_t i = 0; i < after->hits.size(); ++i) {
    EXPECT_EQ(after->hits[i].image_id, baseline->hits[i].image_id);
  }

  // A relocated row keeps serving every point-access surface through its
  // original global id.
  bool checked = false;
  for (const auto& h : baseline->hits) {
    auto row = mgr.ImageRowJson(h.image_id);
    ASSERT_TRUE(row.ok()) << row.status();
    geo::GeoPoint loc{(*row)["lat"].AsDouble(), (*row)["lon"].AsDouble()};
    if (mgr.ShardForLocation(loc) != 1 || h.image_id % 2 != 0) continue;
    // Routed by id parity to shard 0 originally, now living on shard 1.
    auto feat = mgr.GetFeature(h.image_id, "cnn");
    ASSERT_TRUE(feat.ok()) << feat.status();
    EXPECT_EQ(feat->size(), 8u);
    AnnotationRecord ann;
    ann.classification = "scene";
    ann.label = "dirty";
    ann.confidence = 0.9;
    auto ann_id = mgr.AnnotateImage(h.image_id, ann);
    ASSERT_TRUE(ann_id.ok()) << ann_id.status();
    checked = true;
    break;
  }
  EXPECT_TRUE(checked) << "no relocated row found to probe";
}

TEST(RebalanceEquivalenceTest, DurableRebalanceSurvivesReopen) {
  std::string dir = ::testing::TempDir() + "tvdp_rebdurXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = GridOptions(2, 2, 2);
  opts.base_path = dir;

  std::set<std::string> oracle;
  std::vector<int64_t> ids_before;
  {
    auto m = ShardManager::Create(opts);
    ASSERT_TRUE(m.ok()) << m.status();
    BuildSmallCorpus(**m);
    auto baseline = (*m)->ExecuteQuery(CityQuery());
    ASSERT_TRUE(baseline.ok());
    oracle = UrisOf(**m, baseline->hits);
    auto report = (*m)->RebalanceCells({0}, 0, 1);
    ASSERT_TRUE(report.ok()) << report.status();
    auto after = (*m)->ExecuteQuery(CityQuery());
    ASSERT_TRUE(after.ok());
    for (const auto& h : after->hits) ids_before.push_back(h.image_id);
  }

  // Reopen: the shard map, relocations, and moved rows must all survive.
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ((*m)->ShardForLocation(CellZeroPoint()), 1);
  EXPECT_EQ((*m)->pending_broadcasts(0), 0u);
  EXPECT_EQ((*m)->pending_broadcasts(1), 0u);
  EXPECT_EQ((*m)->image_count(), static_cast<size_t>(kSmall));
  auto r = (*m)->ExecuteQuery(CityQuery());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->coverage.complete());
  EXPECT_EQ(UrisOf(**m, r->hits), oracle);
  ASSERT_EQ(r->hits.size(), ids_before.size());
  for (size_t i = 0; i < r->hits.size(); ++i) {
    EXPECT_EQ(r->hits[i].image_id, ids_before[i]);
  }
}

// ---------------------------------------------------------------------
// Tentpole: crash at every phase boundary recovers to the oracle.
// ---------------------------------------------------------------------

struct CrashCase {
  const char* phase;
  int expected_owner;  // of cell 0 after recovery
};

class RebalanceRecoveryTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(RebalanceRecoveryTest, ProcessCrashAtPhaseBoundaryRecovers) {
  const CrashCase& c = GetParam();
  std::string dir = ::testing::TempDir() + "tvdp_rebcrashXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = GridOptions(2, 2, 2);
  opts.base_path = dir;

  auto flat = Tvdp::Create();
  ASSERT_TRUE(flat.ok());
  BuildSmallCorpus(*flat);
  std::vector<int64_t> oracle_local;
  {
    auto r = flat->ExecuteQuery(CityQuery());
    ASSERT_TRUE(r.ok());
    for (const auto& h : *r) oracle_local.push_back(h.image_id);
  }
  ASSERT_EQ(oracle_local.size(), static_cast<size_t>(kSmall));

  {
    auto m = ShardManager::Create(opts);
    ASSERT_TRUE(m.ok()) << m.status();
    BuildSmallCorpus(**m);
    const std::string crash_phase = c.phase;
    // The intent phase needs one durable intent to be interesting, so the
    // "crash" lands on the second endpoint; every other phase vetoes its
    // first visit.
    (*m)->SetMigrationHook([crash_phase](const std::string& ph, int shard) {
      if (ph != crash_phase) return true;
      if (crash_phase == "intent") return shard != 1;
      return false;
    });
    auto r = (*m)->RebalanceCells({0}, 0, 1);
    ASSERT_FALSE(r.ok()) << "phase " << c.phase;
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << r.status();
    // The process now "dies" with the migration unresolved on disk.
  }

  // A fresh fleet over the same stores must resolve the migration during
  // Create from durable evidence alone and serve exact results.
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << "phase " << c.phase << ": " << m.status();
  ShardManager& mgr = **m;
  EXPECT_EQ(mgr.pending_broadcasts(0), 0u) << c.phase;
  EXPECT_EQ(mgr.pending_broadcasts(1), 0u) << c.phase;
  EXPECT_FALSE(mgr.shard_migrating(0)) << c.phase;
  EXPECT_FALSE(mgr.shard_migrating(1)) << c.phase;
  EXPECT_EQ(mgr.ShardForLocation(CellZeroPoint()), c.expected_owner)
      << c.phase;
  EXPECT_EQ(mgr.image_count(), static_cast<size_t>(kSmall)) << c.phase;

  auto r = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->coverage.complete()) << r->coverage.ToJson().Dump();
  std::set<std::string> uris = UrisOf(mgr, r->hits);
  EXPECT_EQ(uris.size(), static_cast<size_t>(kSmall)) << c.phase;

  // The fleet is not wedged: the (re)migration completes normally.
  if (c.expected_owner == 0) {
    auto redo = mgr.RebalanceCells({0}, 0, 1);
    ASSERT_TRUE(redo.ok()) << c.phase << ": " << redo.status();
    EXPECT_EQ(mgr.ShardForLocation(CellZeroPoint()), 1);
    auto post = mgr.ExecuteQuery(CityQuery());
    ASSERT_TRUE(post.ok());
    EXPECT_EQ(UrisOf(mgr, post->hits).size(), static_cast<size_t>(kSmall));
    EXPECT_EQ(mgr.image_count(), static_cast<size_t>(kSmall));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, RebalanceRecoveryTest,
    ::testing::Values(CrashCase{"intent", 0}, CrashCase{"copy", 0},
                      CrashCase{"catchup", 0}, CrashCase{"cutover", 0},
                      CrashCase{"commit", 1}, CrashCase{"gc", 1}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      return std::string(info.param.phase);
    });

TEST(RebalanceRecoverySuiteTest, SameProcessReconcileRollsBackAbandonedCopy) {
  auto m = ShardManager::Create(GridOptions(2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);

  mgr.SetMigrationHook(
      [](const std::string& ph, int) { return ph != "catchup"; });
  ASSERT_FALSE(mgr.RebalanceCells({0}, 0, 1).ok());
  mgr.SetMigrationHook({});

  // Dual-serve keeps the abandoned state exact while unresolved.
  auto mid = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(mid.ok());
  EXPECT_TRUE(mid->coverage.complete());
  EXPECT_EQ(UrisOf(mgr, mid->hits).size(), static_cast<size_t>(kSmall));
  bool saw_migrating = false;
  for (const auto& rep : mid->coverage.reports) {
    if (rep.outcome == ShardOutcome::kMigrating) saw_migrating = true;
  }
  EXPECT_TRUE(saw_migrating);

  auto report = mgr.ReconcileBroadcasts();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ((*report)["rolled_back"].size(), 1u) << (*report).Dump();
  EXPECT_EQ(mgr.ShardForLocation(CellZeroPoint()), 0);
  EXPECT_EQ(mgr.image_count(), static_cast<size_t>(kSmall));
  auto r = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(UrisOf(mgr, r->hits).size(), static_cast<size_t>(kSmall));
}

TEST(RebalanceRecoverySuiteTest, EndpointDeathMidCopyAbandonsThenRollsBack) {
  std::string dir = ::testing::TempDir() + "tvdp_rebdeadXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = GridOptions(2, 2, 2);
  opts.base_path = dir;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);

  // The source shard dies mid-migration (force bypasses the guard; the
  // WAL survives). The migration must abandon, not write to a corpse.
  mgr.SetMigrationHook([&mgr](const std::string& ph, int) {
    if (ph == "catchup") {
      EXPECT_TRUE(mgr.KillShard(0, /*force=*/true).ok());
    }
    return true;
  });
  auto r = mgr.RebalanceCells({0}, 0, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << r.status();
  mgr.SetMigrationHook({});

  // Recover the endpoint; reconciliation now has both sides and rolls the
  // un-committed migration back.
  ASSERT_TRUE(mgr.RecoverShard(0).ok());
  auto report = mgr.ReconcileBroadcasts();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(mgr.shard_migrating(0));
  EXPECT_FALSE(mgr.shard_migrating(1));
  EXPECT_EQ(mgr.ShardForLocation(CellZeroPoint()), 0);
  EXPECT_EQ(mgr.image_count(), static_cast<size_t>(kSmall));

  // And a clean retry completes.
  auto retry = mgr.RebalanceCells({0}, 0, 1);
  ASSERT_TRUE(retry.ok()) << retry.status();
  auto post = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(post.ok());
  EXPECT_TRUE(post->coverage.complete());
  EXPECT_EQ(UrisOf(mgr, post->hits).size(), static_cast<size_t>(kSmall));
}

// ---------------------------------------------------------------------
// Stress: concurrent queries + ingest vs. ping-pong rebalances vs. a
// kill/recover churn loop (the tier-1 RebalanceStress.{asan,tsan} targets
// run exactly this suite).
// ---------------------------------------------------------------------

TEST(RebalanceStressTest, QueriesStayExactWhileCellsMigrateUnderChurn) {
  ShardManagerOptions opts = GridOptions(3, 2, 3);
  opts.breakers = false;  // kill/recover churn without cooldown gating
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildCorpus(mgr);

  std::atomic<bool> done{false};
  std::atomic<int> ingested{0};
  std::atomic<int> query_errors{0};
  std::vector<std::thread> threads;

  // Query threads: results may be partial while shard 2 is down, but a
  // response must never contain a duplicate id (the dual-serve merge
  // dedups) and must never fail outright while shards 0/1 are healthy.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      HybridQuery q = CityQuery();
      while (!done.load()) {
        auto r = mgr.ExecuteQuery(q);
        if (!r.ok()) {
          ++query_errors;
          continue;
        }
        std::set<int64_t> seen;
        for (const auto& h : r->hits) {
          EXPECT_TRUE(seen.insert(h.image_id).second)
              << "duplicate id " << h.image_id;
        }
      }
    });
  }
  // Kill/recover churn on shard 2 (never a migration endpoint — killing an
  // endpoint is guard-tested separately).
  threads.emplace_back([&] {
    while (!done.load()) {
      (void)mgr.KillShard(2);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      (void)mgr.RecoverShard(2);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Live ingest into the moving cell, exercising catch-up and the write
  // gate across cutovers. Bounded: every row ingested into the moving
  // cell makes every subsequent copy pass scan more rows, and under the
  // sanitizers that feedback loop (slower passes -> longer test -> more
  // rows -> slower passes) diverges if left open-ended.
  threads.emplace_back([&] {
    int i = 0;
    while (!done.load() && ingested.load() < 400) {
      ImageRecord rec;
      rec.uri = "live" + std::to_string(i++);
      rec.location = CellZeroPoint();
      rec.keywords = {"city", "live"};
      if (mgr.IngestImage(rec).ok()) ++ingested;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Ping-pong cell 0 between shards 0 and 1 while everything churns.
  int migrations = 0;
  for (int round = 0; round < 6; ++round) {
    const int owner = mgr.ShardForLocation(CellZeroPoint());
    ASSERT_TRUE(owner == 0 || owner == 1);
    auto r = mgr.RebalanceCells({0}, owner, 1 - owner);
    ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.status();
    ++migrations;
  }
  done = true;
  for (auto& t : threads) t.join();
  EXPECT_EQ(migrations, 6);
  EXPECT_EQ(query_errors.load(), 0);

  // Quiesce: recover the churned shard and verify nothing was lost or
  // double-counted across six live migrations.
  if (!mgr.shard_alive(2)) {
    ASSERT_TRUE(mgr.RecoverShard(2).ok());
  }
  EXPECT_EQ(mgr.image_count(),
            static_cast<size_t>(kCorpus) + ingested.load());

  auto final_city = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(final_city.ok()) << final_city.status();
  EXPECT_TRUE(final_city->coverage.complete())
      << final_city->coverage.ToJson().Dump();
  EXPECT_EQ(final_city->hits.size(),
            static_cast<size_t>(kCorpus) + ingested.load());

  HybridQuery live;
  query::TextualPredicate tp;
  tp.keywords = {"live"};
  live.textual = tp;
  auto final_live = mgr.ExecuteQuery(live);
  ASSERT_TRUE(final_live.ok());
  EXPECT_TRUE(final_live->coverage.complete());
  EXPECT_EQ(final_live->hits.size(), static_cast<size_t>(ingested.load()));
}

}  // namespace
}  // namespace tvdp::platform
