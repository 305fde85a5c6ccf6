// Per-shard replication: WAL shipping, fenced failover, replica-served
// reads, the crash-at-every-phase promotion matrix, and the tier-1
// ReplicationStress.{asan,tsan} concurrency suite.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/file.h"
#include "common/json.h"
#include "common/retry.h"
#include "platform/api.h"
#include "platform/model_registry.h"
#include "platform/replication.h"
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

/// The planner-suite corpus shared with the sharding/rebalance suites.
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

/// A small corpus for the durable crash matrix (WAL replay of the full
/// suite times six crash points would dominate the runtime).
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

ShardManagerOptions ReplicatedOptions(int shards, int rows, int cols,
                                      int factor,
                                      SyncLevel sync = SyncLevel::kSync) {
  ShardManagerOptions opts;
  opts.shard_count = shards;
  opts.grid_rows = rows;
  opts.grid_cols = cols;
  opts.region = CorpusRegion();
  opts.replication.replication_factor = factor;
  opts.replication.sync = sync;
  return opts;
}

HybridQuery CityQuery() {
  HybridQuery q;
  query::TextualPredicate tp;
  tp.keywords = {"city"};
  q.textual = tp;
  return q;
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

/// A point inside grid cell 0 of the 2x2 corpus grid (owned by shard 0).
geo::GeoPoint CellZeroPoint() { return {34.01, -118.29}; }

// ---------------------------------------------------------------------
// Guards and unit pieces: config validation, fencing, stale captures.
// ---------------------------------------------------------------------

TEST(ReplicationGuardTest, RejectsBadConfigAndUnreplicatedOps) {
  {
    ShardManagerOptions opts = ReplicatedOptions(2, 2, 2, /*factor=*/0);
    auto m = ShardManager::Create(opts);
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  {
    ShardManagerOptions opts = ReplicatedOptions(2, 2, 2, 2, SyncLevel::kAsync);
    opts.replication.max_async_lag_records = 0;
    auto m = ShardManager::Create(opts);
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }

  // Factor 1 is replication off: promotion and replica faults are refused.
  auto m = ShardManager::Create(ReplicatedOptions(2, 2, 2, 1));
  ASSERT_TRUE(m.ok()) << m.status();
  auto promoted = (*m)->PromoteShard(0);
  ASSERT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.status().code(), StatusCode::kFailedPrecondition);
  Status killed = (*m)->KillReplica(0, 0);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.code(), StatusCode::kFailedPrecondition);
  auto range = (*m)->PromoteShard(7);
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*m)->live_replica_count(0), 0);
}

TEST(ReplicationUnitTest, FencedEngineRejectsWrites) {
  auto t = Tvdp::Create();
  ASSERT_TRUE(t.ok());
  ImageRecord rec;
  rec.uri = "pre";
  rec.location = CellZeroPoint();
  ASSERT_TRUE(t->IngestImage(rec).ok());

  t->Fence(3);
  EXPECT_EQ(t->epoch(), 3);
  rec.uri = "post";
  auto blocked = t->IngestImage(rec);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kFailedPrecondition);
  // Reads keep working: fencing protects history, not availability of the
  // data the fenced instance already holds.
  auto r = t->ExecuteQuery(CityQuery());
  ASSERT_TRUE(r.ok());
}

TEST(ReplicationUnitTest, StaleEpochCapturesAreRejected) {
  auto created = Tvdp::Create();
  ASSERT_TRUE(created.ok());
  auto primary = std::make_shared<Tvdp>(std::move(*created));

  // The set believes epoch 5; the primary still stamps epoch 0 — the
  // fenced-out-but-still-writing stale primary model.
  MemFs fs;
  storage::DurableCatalogOptions store;
  store.fs = &fs;
  ReplicaSet set(/*shard=*/0, /*epoch=*/5);
  ASSERT_TRUE(set.Attach(primary, {"replica"}, store, SyncLevel::kSync).ok());
  ImageRecord rec;
  rec.uri = "stale";
  rec.location = CellZeroPoint();
  ASSERT_TRUE(primary->IngestImage(rec).ok());
  EXPECT_GT(set.rejected_stale_records(), 0u);
  EXPECT_EQ(set.lag_records(), 0u);
  ASSERT_TRUE(set.Ship().ok());
  // Nothing forked onto the replica.
  EXPECT_EQ(set.applied_records(0), 0u);
}

TEST(ReplicationUnitTest, AppliedCountersSkipAlreadyAppliedRecords) {
  MemFs primary_fs;
  storage::DurableCatalogOptions primary_store;
  primary_store.fs = &primary_fs;
  auto opened = Tvdp::Open("primary", primary_store);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto primary = std::make_shared<Tvdp>(std::move(*opened));
  ImageRecord rec;
  rec.uri = "pre";
  rec.location = CellZeroPoint();
  ASSERT_TRUE(primary->IngestImage(rec).ok());

  MemFs fs;
  storage::DurableCatalogOptions store;
  store.fs = &fs;
  ReplicaSet set(/*shard=*/0, /*epoch=*/0);
  ASSERT_TRUE(set.Attach(primary, {"replica"}, store, SyncLevel::kSync).ok());
  // The replica starts as a copy of the primary's files: it holds the
  // image, and it has applied nothing since the attach.
  ASSERT_NE(set.replica(0), nullptr);
  EXPECT_EQ(set.replica(0)->image_count(), 1u);
  EXPECT_EQ(set.applied_records(0), 0u);

  // Re-applying the primary's log, which the copy already holds (the
  // WAL-tail overlap a promotion produces), applies nothing new, so the
  // caught-up counter the election compares must not move — it counts
  // applied records, not shipped ones.
  auto log = storage::Wal::TailFrom(&primary_fs, "primary.wal", 0);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_FALSE(log->records.empty());
  ASSERT_TRUE(set.ApplyToLive(log->records).ok());
  EXPECT_EQ(set.applied_records(0), 0u);

  // Genuinely new records still advance it.
  rec.uri = "fresh";
  ASSERT_TRUE(primary->IngestImage(rec).ok());
  ASSERT_TRUE(set.Ship().ok());
  EXPECT_GT(set.applied_records(0), 0u);
  EXPECT_EQ(set.replica(0)->image_count(), 2u);
}

TEST(ReplicationUnitTest, AttachWorkDoesNotGrowWithTheStore) {
  // A replica starts as a copy of two files, so attaching one makes the
  // same writes at any store size. The primary keeps its own MemFs: the
  // copy must land on the replicas' Fs, or the replica opens empty.
  auto attach_work = [](int images) {
    MemFs primary_fs;
    storage::DurableCatalogOptions primary_store;
    primary_store.fs = &primary_fs;
    auto opened = Tvdp::Open("primary", primary_store);
    EXPECT_TRUE(opened.ok()) << opened.status();
    auto primary = std::make_shared<Tvdp>(std::move(*opened));
    for (int i = 0; i < images; ++i) {
      ImageRecord rec;
      rec.uri = "img" + std::to_string(i);
      rec.location = CellZeroPoint();
      rec.keywords = {"city"};
      EXPECT_TRUE(primary->IngestImage(rec).ok());
    }
    MemFs mem;
    FaultInjectingFs fs(&mem);
    storage::DurableCatalogOptions store;
    store.fs = &fs;
    ReplicaSet set(/*shard=*/0, /*epoch=*/0);
    EXPECT_TRUE(set.Attach(primary, {"replica"}, store, SyncLevel::kSync).ok());
    std::shared_ptr<Tvdp> replica = set.replica(0);
    EXPECT_NE(replica, nullptr);
    if (replica) {
      EXPECT_EQ(replica->image_count(), static_cast<size_t>(images));
    }
    return std::make_pair(fs.append_calls(), fs.sync_calls());
  };
  const auto small = attach_work(100);
  const auto large = attach_work(400);
  EXPECT_EQ(small, large);
  // One append and one fsync for each copied file: the snapshot and the WAL.
  EXPECT_LE(small.first, 2);
  EXPECT_LE(small.second, 2);
}

TEST(ReplicationUnitTest, AttachRefusesAnEmptyReplicaPath) {
  auto created = Tvdp::Create();
  ASSERT_TRUE(created.ok());
  auto primary = std::make_shared<Tvdp>(std::move(*created));
  MemFs fs;
  storage::DurableCatalogOptions store;
  store.fs = &fs;
  ReplicaSet set(/*shard=*/0, /*epoch=*/0);
  EXPECT_EQ(set.Attach(primary, {""}, store, SyncLevel::kSync).code(),
            StatusCode::kInvalidArgument);
  for (const char* file :
       {".snapshot", ".snapshot.tmp", ".wal", ".wal.tmp", ".broadcast"}) {
    EXPECT_FALSE(fs.Exists(file)) << file;
  }
  EXPECT_EQ(set.replica_count(), 0);
}

TEST(ReplicationUnitTest, IngestSplitAcrossBatchesIndexesLikeThePrimary) {
  // ShardManager ships after the writer lock is released, so another
  // writer's Ship can drain an ingest's image row before its FOV and
  // keyword rows are captured: the replica then sees them in two batches.
  auto created = Tvdp::Create();
  ASSERT_TRUE(created.ok());
  Tvdp primary = std::move(created).value();
  std::vector<storage::WalRecord> captured;
  primary.SetMutationObserver(
      [&](const storage::WalRecord& r) { captured.push_back(r); });
  const geo::GeoPoint camera = CellZeroPoint();
  ImageRecord rec;
  rec.uri = "split";
  rec.location = camera;
  rec.captured_at = kT0;
  rec.keywords = {"city", "market stall"};
  auto fov = geo::FieldOfView::Make(camera, 90, 60, 150);
  ASSERT_TRUE(fov.ok());
  rec.fov = *fov;
  ASSERT_TRUE(primary.IngestImage(rec).ok());
  ASSERT_GT(captured.size(), 1u);
  ASSERT_EQ(captured[0].table, storage::tables::kImages);

  auto replica = Tvdp::Create();
  ASSERT_TRUE(replica.ok());
  ASSERT_TRUE(replica->ApplyReplicated({captured[0]}).ok());
  ASSERT_TRUE(replica
                  ->ApplyReplicated(std::vector<storage::WalRecord>(
                      captured.begin() + 1, captured.end()))
                  .ok());

  auto ids = [](const Result<std::vector<query::QueryHit>>& hits) {
    EXPECT_TRUE(hits.ok()) << hits.status();
    std::vector<int64_t> out;
    if (hits.ok()) {
      for (const auto& h : *hits) out.push_back(h.image_id);
    }
    return out;
  };
  // A point the FOV sees, and a box only the FOV reaches into.
  const geo::GeoPoint seen = geo::Destination(camera, 90, 100);
  const geo::BoundingBox ahead = geo::BoundingBox::FromCenterRadius(seen, 20);
  ASSERT_FALSE(ahead.Contains(camera));
  query::TextualPredicate market;
  market.keywords = {"market"};
  EXPECT_EQ(ids(primary.query().VisibleAt(seen)).size(), 1u);
  EXPECT_EQ(ids(replica->query().VisibleAt(seen)),
            ids(primary.query().VisibleAt(seen)));
  EXPECT_EQ(ids(primary.query().Textual(market)).size(), 1u);
  EXPECT_EQ(ids(replica->query().Textual(market)),
            ids(primary.query().Textual(market)));
  EXPECT_EQ(ids(primary.query().SpatialRange(ahead)).size(), 1u);
  EXPECT_EQ(ids(replica->query().SpatialRange(ahead)),
            ids(primary.query().SpatialRange(ahead)));
}

TEST(ReplicationUnitTest, RegistrySplitAcrossBatchesServesCategorical) {
  // A categorical probe resolves its label through the snapshot's
  // classification registry. A label added after the fact ships as one
  // type row, and the annotation using it can land in a later batch: the
  // replica must resolve the label from the batch that brought its row.
  auto created = Tvdp::Create();
  ASSERT_TRUE(created.ok());
  Tvdp primary = std::move(created).value();
  std::vector<storage::WalRecord> captured;
  primary.SetMutationObserver(
      [&](const storage::WalRecord& r) { captured.push_back(r); });
  ImageRecord rec;
  rec.uri = "labelled";
  rec.location = CellZeroPoint();
  rec.captured_at = kT0;
  auto image = primary.IngestImage(rec);
  ASSERT_TRUE(image.ok()) << image.status();
  ASSERT_TRUE(primary.RegisterClassification("scene", {"clean"}).ok());
  AnnotationRecord ann;
  ann.classification = "scene";
  ann.label = "clean";
  ann.confidence = 0.9;
  ann.machine = true;
  ASSERT_TRUE(primary.AnnotateImage(*image, ann).ok());
  const size_t type_row = captured.size();
  ASSERT_TRUE(primary.RegisterClassification("scene", {"dirty"}).ok());
  ann.label = "dirty";
  ASSERT_TRUE(primary.AnnotateImage(*image, ann).ok());
  ASSERT_EQ(captured.size(), type_row + 2);
  ASSERT_EQ(captured[type_row].table,
            storage::tables::kImageContentClassificationTypes);
  ASSERT_EQ(captured[type_row + 1].table,
            storage::tables::kImageContentAnnotation);

  auto ids = [](const Result<std::vector<query::QueryHit>>& hits) {
    EXPECT_TRUE(hits.ok()) << hits.status();
    std::vector<int64_t> out;
    if (hits.ok()) {
      for (const auto& h : *hits) out.push_back(h.image_id);
    }
    return out;
  };
  query::CategoricalPredicate clean;
  clean.classification = "scene";
  clean.label = "clean";
  query::CategoricalPredicate dirty = clean;
  dirty.label = "dirty";
  ASSERT_EQ(ids(primary.query().Categorical(clean)),
            std::vector<int64_t>{*image});
  ASSERT_EQ(ids(primary.query().Categorical(dirty)),
            std::vector<int64_t>{*image});

  auto replica = Tvdp::Create();
  ASSERT_TRUE(replica.ok());
  ASSERT_TRUE(replica
                  ->ApplyReplicated(std::vector<storage::WalRecord>(
                      captured.begin(), captured.begin() + type_row))
                  .ok());
  EXPECT_EQ(replica->query().Categorical(dirty).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ids(replica->query().Categorical(clean)),
            ids(primary.query().Categorical(clean)));

  // The type row alone: the label resolves, nothing carries it yet.
  ASSERT_TRUE(replica->ApplyReplicated({captured[type_row]}).ok());
  EXPECT_TRUE(ids(replica->query().Categorical(dirty)).empty());

  ASSERT_TRUE(replica->ApplyReplicated({captured[type_row + 1]}).ok());
  EXPECT_EQ(ids(replica->query().Categorical(dirty)),
            ids(primary.query().Categorical(dirty)));
  EXPECT_EQ(ids(replica->query().Categorical(clean)),
            ids(primary.query().Categorical(clean)));
}

// ---------------------------------------------------------------------
// Shipping basics: sync replicas stay caught up, async lag is bounded.
// ---------------------------------------------------------------------

TEST(ReplicationShippingTest, SyncReplicasStayCaughtUp) {
  auto m = ShardManager::Create(ReplicatedOptions(2, 2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);

  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(mgr.replica_lag_records(s), 0u) << "shard " << s;
    EXPECT_EQ(mgr.live_replica_count(s), 1) << "shard " << s;
    EXPECT_EQ(mgr.shard_epoch(s), 0) << "shard " << s;
    EXPECT_EQ(mgr.shard_primary_index(s), 0) << "shard " << s;
  }
  Json stats = mgr.StatsJson();
  EXPECT_EQ(stats["replication_factor"].AsInt(), 2);
  EXPECT_EQ(stats["sync"].AsString(), "sync");
  for (const Json& s : stats["shards"].AsArray()) {
    EXPECT_EQ(s["replication"]["lag_records"].AsInt(), 0);
    EXPECT_GT(s["replication"]["applied"].AsArray()[0].AsInt(), 0);
  }
}

TEST(ReplicationShippingTest, AsyncLagStaysBoundedAndDrainsOnPromotion) {
  ShardManagerOptions opts = ReplicatedOptions(2, 2, 2, 2, SyncLevel::kAsync);
  opts.replication.max_async_lag_records = 8;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);

  // Shipping triggers whenever the channel reaches the bound, so at rest
  // the lag sits strictly below it.
  for (int s = 0; s < 2; ++s) {
    EXPECT_LT(mgr.replica_lag_records(s), 8u) << "shard " << s;
  }

  // A healthy-shard promotion ships the channel first; nothing is lost.
  auto baseline = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(baseline.ok());
  const std::set<std::string> oracle = UrisOf(mgr, baseline->hits);
  auto promoted = mgr.PromoteShard(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_EQ((*promoted)["action"].AsString(), "promoted");
  EXPECT_EQ(mgr.shard_epoch(0), 1);
  auto after = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->coverage.complete());
  EXPECT_EQ(UrisOf(mgr, after->hits), oracle);
}

// ---------------------------------------------------------------------
// Tentpole: automatic failover on KillShard, replica-served reads, and
// the stats surface naming the surviving copy.
// ---------------------------------------------------------------------

TEST(ReplicationFailoverTest, KilledShardAutoPromotesSurvivingReplica) {
  auto m = ShardManager::Create(ReplicatedOptions(2, 2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);
  auto baseline = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(baseline.ok());
  const std::set<std::string> oracle = UrisOf(mgr, baseline->hits);
  ASSERT_EQ(oracle.size(), static_cast<size_t>(kSmall));

  // The primary crashes; killing a replicated shard with a live replica
  // promotes that replica in-line.
  ASSERT_TRUE(mgr.KillShard(0).ok());
  EXPECT_TRUE(mgr.shard_alive(0));
  EXPECT_EQ(mgr.shard_epoch(0), 1);
  EXPECT_EQ(mgr.shard_primary_index(0), 1);
  EXPECT_FALSE(mgr.shard_promoting(0));

  auto after = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->coverage.complete()) << after->coverage.ToJson().Dump();
  EXPECT_EQ(UrisOf(mgr, after->hits), oracle);

  // Writes flow to the promoted primary and replicate... to nothing (the
  // factor-2 group spent its only replica), which the stats make visible.
  ImageRecord rec;
  rec.uri = "after_failover";
  rec.location = CellZeroPoint();
  rec.keywords = {"city"};
  ASSERT_TRUE(mgr.IngestImage(rec).ok());
  EXPECT_EQ(mgr.live_replica_count(0), 0);

  ModelRegistry reg;
  ApiService api((*m).get(), &reg);
  std::string key = api.CreateApiKey("ops");
  auto stats = api.HandleRequest(key, "platform_stats", Json::MakeObject());
  ASSERT_TRUE(stats.ok()) << stats.status();
  const Json& shard0 = (*stats)["shards"]["shards"].AsArray()[0];
  EXPECT_EQ(shard0["epoch"].AsInt(), 1);
  EXPECT_EQ(shard0["primary_index"].AsInt(), 1);
  EXPECT_EQ(shard0["replication"]["live"].AsInt(), 0);
  EXPECT_EQ((*stats)["shards"]["replication_factor"].AsInt(), 2);
}

TEST(ReplicationFailoverTest, EnvelopesByteIdenticalAcrossFailover) {
  auto m = ShardManager::Create(ReplicatedOptions(2, 2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildCorpus(mgr);

  ModelRegistry reg;
  ApiService api((*m).get(), &reg);
  std::string key = api.CreateApiKey("prop");

  std::vector<Json> requests;
  {
    Json q = Json::MakeObject();
    q["bbox"] = Json(Json::Array{33.99, -118.31, 34.09, -118.25});
    q["keywords"] = Json(Json::Array{"market"});
    requests.push_back(q);
  }
  {
    Json q = Json::MakeObject();
    q["classification"] = "scene";
    q["label"] = "dirty";
    q["min_confidence"] = 0.7;
    q["time_begin"] = Json(static_cast<int64_t>(kT0));
    q["time_end"] = Json(static_cast<int64_t>(kT0 + 250 * 60));
    requests.push_back(q);
  }
  {
    Json q = Json::MakeObject();
    q["feature"] = Json(Json::Array{0, 0, 0, 1, 0, 0, 0, 0});
    q["feature_kind"] = "cnn";
    q["threshold"] = 0.5;
    q["keywords"] = Json(Json::Array{"market", "needle"});
    q["keyword_mode"] = "or";
    requests.push_back(q);
  }
  {
    Json q = Json::MakeObject();  // visual top-k ranking
    q["feature"] = Json(Json::Array{0, 1, 0, 0, 0, 0, 0, 0});
    q["feature_kind"] = "cnn";
    q["k"] = 7;
    requests.push_back(q);
  }

  // The response bytes must match modulo the per-shard "plan" (the probed
  // instance changes) and "coverage" (the outcome names the stand-in).
  auto strip = [](Json env) {
    if (env.Has("data")) {
      env["data"].AsObject().erase("plan");
      env["data"].AsObject().erase("coverage");
    }
    return env.Dump();
  };
  std::vector<std::string> before;
  for (const Json& request : requests) {
    Json env = api.HandleEnvelope(key, "search_datasets", request);
    ASSERT_EQ(env["status"].AsString(), "ok") << env.Dump();
    before.push_back(strip(env));
  }

  // During the failover (primary dead, shard map not yet flipped) reads
  // fail over to the replica and stay byte-identical.
  std::atomic<int> during_checked{0};
  mgr.SetPromotionHook([&](const std::string& phase, int) {
    if (phase != "promote") return true;
    size_t i = 0;
    for (const Json& request : requests) {
      Json env = api.HandleEnvelope(key, "search_datasets", request);
      EXPECT_EQ(env["status"].AsString(), "ok") << env.Dump();
      EXPECT_EQ(before[i++], strip(env)) << request.Dump();
      ++during_checked;
    }
    return true;
  });
  ASSERT_TRUE(mgr.KillShard(0).ok());
  mgr.SetPromotionHook({});
  EXPECT_EQ(during_checked.load(), static_cast<int>(requests.size()));
  EXPECT_EQ(mgr.shard_epoch(0), 1);

  size_t i = 0;
  for (const Json& request : requests) {
    Json env = api.HandleEnvelope(key, "search_datasets", request);
    ASSERT_EQ(env["status"].AsString(), "ok") << env.Dump();
    EXPECT_TRUE(env["data"]["coverage"]["complete"].AsBool());
    EXPECT_EQ(before[i++], strip(env)) << request.Dump();
  }
}

TEST(ReplicationFailoverTest, DurableAsyncFailoverAppliesWalTail) {
  std::string dir = ::testing::TempDir() + "tvdp_repasyncXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = ReplicatedOptions(2, 2, 2, 2, SyncLevel::kAsync);
  // A bound the corpus never reaches: every record sits unshipped in the
  // channel, and the crash (KillShard discards the channel) would lose all
  // of them if promotion trusted shipping alone.
  opts.replication.max_async_lag_records = 1000000;
  opts.base_path = dir;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);
  auto baseline = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(baseline.ok());
  const std::set<std::string> oracle = UrisOf(mgr, baseline->hits);
  EXPECT_GT(mgr.replica_lag_records(0), 0u);

  // The apply phase must read the acked records back from the dead
  // primary's on-disk WAL past the shipped offset.
  ASSERT_TRUE(mgr.KillShard(0).ok());
  EXPECT_TRUE(mgr.shard_alive(0));
  EXPECT_EQ(mgr.shard_epoch(0), 1);

  auto after = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->coverage.complete()) << after->coverage.ToJson().Dump();
  EXPECT_EQ(UrisOf(mgr, after->hits), oracle);
}

TEST(ReplicationFailoverTest, PromotedReplicaFsyncsItsCommits) {
  // A replica commits without an fsync, because Ship syncs each shipped
  // batch. Promoted, it acks writes itself and must commit with the
  // fleet's sync_on_commit: this promotion spends the only replica, so an
  // unsynced ack would exist nowhere but the page cache.
  std::string dir = ::testing::TempDir() + "tvdp_repsyncXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  FaultInjectingFs fs(Fs::Default());
  ShardManagerOptions opts = ReplicatedOptions(2, 2, 2, 2);
  opts.base_path = dir;
  opts.durable.fs = &fs;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;

  ImageRecord rec;
  rec.uri = "before";
  rec.location = CellZeroPoint();
  int64_t syncs = fs.sync_calls();
  ASSERT_TRUE(mgr.IngestImage(rec).ok());
  EXPECT_GE(fs.sync_calls() - syncs, 2);  // the primary's commit + the ship

  auto promoted = mgr.PromoteShard(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  ASSERT_EQ(mgr.live_replica_count(0), 0);

  rec.uri = "after";
  syncs = fs.sync_calls();
  ASSERT_TRUE(mgr.IngestImage(rec).ok());
  EXPECT_GE(fs.sync_calls() - syncs, 1)
      << "the promoted primary acked a write without an fsync";
}

TEST(ReplicationFailoverTest, RecoverShardUnderWritersLosesNoAckedWrite) {
  // RecoverShard re-attaches the replicas while writers keep ingesting
  // into the recovering shard. Under kSync every write acked once the
  // shard is back is on its replica, so the promotion a later kill makes
  // serves all of them.
  auto m = ShardManager::Create(ReplicatedOptions(2, 1, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  constexpr int kSeeded = 200;
  for (int i = 0; i < kSeeded; ++i) {
    ImageRecord rec;
    rec.uri = "seed" + std::to_string(i);
    rec.location = CellZeroPoint();
    ASSERT_TRUE(mgr.IngestImage(rec).ok());
  }

  std::atomic<int> acked{0};
  for (int cycle = 0; cycle < 20; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    // No replica is live, so the kill promotes nothing: the shard is down.
    ASSERT_TRUE(mgr.KillReplica(0, 0).ok());
    ASSERT_TRUE(mgr.KillShard(0).ok());
    ASSERT_FALSE(mgr.shard_alive(0));

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 3; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          ImageRecord rec;
          rec.uri = "c" + std::to_string(cycle) + "w" + std::to_string(w) +
                    "_" + std::to_string(i);
          rec.location = CellZeroPoint();
          if (mgr.IngestImage(rec).ok()) ++acked;
          // The pause keeps the writers from monopolizing the engine
          // mutex that the attach needs.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }
    EXPECT_TRUE(mgr.RecoverShard(0).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stop.store(true);
    for (auto& t : writers) t.join();

    // The kill promotes the replica the recovery attached.
    ASSERT_TRUE(mgr.KillShard(0).ok());
    ASSERT_TRUE(mgr.shard_alive(0));
    ASSERT_NE(mgr.shard(0), nullptr);
    EXPECT_EQ(mgr.shard(0)->image_count(),
              static_cast<size_t>(kSeeded + acked.load()));
  }
}

TEST(ReplicationFailoverTest, BreakerTripRetriesVetoedPromotion) {
  auto clock = std::make_shared<double>(0.0);
  ShardManagerOptions opts = ReplicatedOptions(2, 2, 2, 2);
  opts.now_ms = [clock] { return *clock; };
  opts.breaker.failure_threshold = 3;
  opts.breaker.open_cooldown_ms = 500;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);

  // A fault hook vetoes the kill-time automatic promotion: the shard stays
  // dead with a healthy replica standing by.
  mgr.SetPromotionHook([](const std::string&, int) { return false; });
  ASSERT_TRUE(mgr.KillShard(0).ok());
  mgr.SetPromotionHook({});
  EXPECT_FALSE(mgr.shard_alive(0));
  EXPECT_EQ(mgr.shard_epoch(0), 0);

  // Replica reads keep the fleet exact while the primary's breaker counts
  // the failures; the closed -> open trip retries the promotion.
  for (int i = 0; i < 3; ++i) {
    auto r = mgr.ExecuteQuery(CityQuery());
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r->coverage.complete()) << r->coverage.ToJson().Dump();
    EXPECT_EQ(r->coverage.reports[0].outcome, ShardOutcome::kFailedOver);
    EXPECT_EQ(r->coverage.reports[0].replica, 0);
  }
  EXPECT_TRUE(mgr.shard_alive(0));
  EXPECT_EQ(mgr.shard_epoch(0), 1);
  // The flip resets the promoted shard's breaker: the next query probes
  // the new primary directly.
  auto probe = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->coverage.reports[0].outcome, ShardOutcome::kProbed);
}

TEST(ReplicationReadBalanceTest, BalancedReadsServeFromReplicasExactly) {
  ShardManagerOptions opts = ReplicatedOptions(2, 2, 2, 2);
  opts.replication.balance_replica_reads = true;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);

  auto baseline = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->hits.size(), static_cast<size_t>(kSmall));

  int replica_served = 0;
  for (int round = 0; round < 6; ++round) {
    auto r = mgr.ExecuteQuery(CityQuery());
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r->coverage.complete());
    ASSERT_EQ(r->hits.size(), baseline->hits.size());
    for (size_t i = 0; i < r->hits.size(); ++i) {
      EXPECT_EQ(r->hits[i].image_id, baseline->hits[i].image_id);
    }
    for (const auto& rep : r->coverage.reports) {
      if (rep.replica >= 0 && !rep.primary_probed) {
        // A clean balanced read: the primary was never touched, so its
        // breaker bookkeeping saw nothing.
        EXPECT_EQ(rep.outcome, ShardOutcome::kProbed);
        ++replica_served;
      }
    }
  }
  // Round-robin across primary + one replica: half the probes per shard
  // land on the replica.
  EXPECT_GT(replica_served, 0);
}

// ---------------------------------------------------------------------
// Satellite: promotion/migration interlock, both orders.
// ---------------------------------------------------------------------

TEST(ReplicationInterlockTest, RebalanceRefusedWhilePromotionInFlight) {
  auto m = ShardManager::Create(ReplicatedOptions(2, 2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);

  std::atomic<bool> checked{false};
  mgr.SetPromotionHook([&](const std::string& phase, int) {
    if (phase != "apply") return true;
    auto r = mgr.RebalanceCells({0}, 0, 1);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
        << r.status();
    checked = true;
    return true;
  });
  auto promoted = mgr.PromoteShard(0);
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  mgr.SetPromotionHook({});
  EXPECT_TRUE(checked.load());
  EXPECT_EQ(mgr.shard_epoch(0), 1);

  // Once the promotion resolved, the same rebalance goes through.
  auto retry = mgr.RebalanceCells({0}, 0, 1);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(mgr.ShardForLocation(CellZeroPoint()), 1);
  auto r = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->coverage.complete());
  EXPECT_EQ(r->hits.size(), static_cast<size_t>(kSmall));
}

TEST(ReplicationInterlockTest, PromotionDefersBehindMigrationThenDrains) {
  auto m = ShardManager::Create(ReplicatedOptions(2, 2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);

  // Abandon a migration mid-flight: shard 0 stays a migration endpoint.
  mgr.SetMigrationHook(
      [](const std::string& ph, int) { return ph != "catchup"; });
  ASSERT_FALSE(mgr.RebalanceCells({0}, 0, 1).ok());
  mgr.SetMigrationHook({});
  ASSERT_TRUE(mgr.shard_migrating(0));

  // Promotion of a migrating shard parks instead of racing the cutover.
  auto deferred = mgr.PromoteShard(0);
  ASSERT_TRUE(deferred.ok()) << deferred.status();
  EXPECT_EQ((*deferred)["action"].AsString(), "deferred");
  EXPECT_EQ(mgr.shard_epoch(0), 0);
  EXPECT_FALSE(mgr.shard_promoting(0));

  // Resolving the migration (rollback here) drains the parked promotion.
  auto report = mgr.ReconcileBroadcasts();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(mgr.shard_migrating(0));
  EXPECT_EQ(mgr.shard_epoch(0), 1);
  EXPECT_EQ(mgr.shard_primary_index(0), 1);

  auto r = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->coverage.complete());
  EXPECT_EQ(r->hits.size(), static_cast<size_t>(kSmall));
}

// ---------------------------------------------------------------------
// Satellite: the all-shards-down retry-after hint tracks the earliest
// breaker half-open deadline instead of a static constant.
// ---------------------------------------------------------------------

TEST(ReplicationRetryHintTest, RetryAfterTracksBreakerCooldown) {
  auto clock = std::make_shared<double>(0.0);
  ShardManagerOptions opts = ReplicatedOptions(2, 1, 2, /*factor=*/1);
  opts.now_ms = [clock] { return *clock; };
  opts.breaker.failure_threshold = 1;
  opts.breaker.open_cooldown_ms = 500;
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildSmallCorpus(mgr);

  ASSERT_TRUE(mgr.KillShard(0).ok());
  ASSERT_TRUE(mgr.KillShard(1).ok());
  // Both probes fail at t=0; the one-strike breakers trip open.
  ASSERT_FALSE(mgr.ExecuteQuery(CityQuery()).ok());
  EXPECT_EQ(mgr.breaker_state(0), edge::CircuitState::kOpen);
  EXPECT_EQ(mgr.breaker_state(1), edge::CircuitState::kOpen);

  // 100 ms in: both circuits reopen in 400 ms — and that is the hint.
  *clock = 100;
  auto blocked = mgr.ExecuteQuery(CityQuery());
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kUnavailable);
  auto hint = RetryAfterHintMs(blocked.status());
  ASSERT_TRUE(hint.has_value());
  EXPECT_DOUBLE_EQ(*hint, 400.0);

  *clock = 460;
  auto later = mgr.ExecuteQuery(CityQuery());
  ASSERT_FALSE(later.ok());
  hint = RetryAfterHintMs(later.status());
  ASSERT_TRUE(hint.has_value());
  EXPECT_DOUBLE_EQ(*hint, 40.0);

  // The envelope surface carries the same hint.
  ModelRegistry reg;
  ApiService api((*m).get(), &reg);
  std::string key = api.CreateApiKey("ops");
  Json req = Json::MakeObject();
  req["keywords"] = Json(Json::Array{"city"});
  Json env = api.HandleEnvelope(key, "search_datasets", req);
  EXPECT_EQ(env["status"].AsString(), "error");
  ASSERT_TRUE(env.Has("retry_after_ms")) << env.Dump();
  EXPECT_DOUBLE_EQ(env["retry_after_ms"].AsDouble(), 40.0);
}

// ---------------------------------------------------------------------
// Satellite: the promote API endpoint.
// ---------------------------------------------------------------------

TEST(ReplicationApiTest, PromoteEndpointValidatesAndReports) {
  auto flat = Tvdp::Create();
  ASSERT_TRUE(flat.ok());
  ModelRegistry reg_flat;
  ApiService api_flat(&*flat, &reg_flat);
  std::string fkey = api_flat.CreateApiKey("ops");
  Json req = Json::MakeObject();
  req["shard"] = 0;
  auto unsharded = api_flat.HandleRequest(fkey, "promote", req);
  ASSERT_FALSE(unsharded.ok());
  EXPECT_EQ(unsharded.status().code(), StatusCode::kFailedPrecondition);

  auto m = ShardManager::Create(ReplicatedOptions(2, 2, 2, 2));
  ASSERT_TRUE(m.ok()) << m.status();
  BuildSmallCorpus(**m);
  ModelRegistry reg;
  ApiService api((*m).get(), &reg);
  std::string key = api.CreateApiKey("ops");

  auto missing = api.HandleRequest(key, "promote", Json::MakeObject());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  auto ok = api.HandleRequest(key, "promote", req);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ((*ok)["action"].AsString(), "promoted");
  EXPECT_EQ((*ok)["shard"].AsInt(), 0);
  EXPECT_EQ((*ok)["old_epoch"].AsInt(), 0);
  EXPECT_EQ((*ok)["new_epoch"].AsInt(), 1);
  EXPECT_EQ((*ok)["promoted_replica"].AsInt(), 0);
  EXPECT_EQ((*m)->shard_epoch(0), 1);
}

// ---------------------------------------------------------------------
// Tentpole: crash at every promotion phase boundary — zero lost acked
// writes, no split-brain, resolved from durable evidence alone.
// ---------------------------------------------------------------------

struct PromotionCrashCase {
  const char* phase;
  int expected_primary;  // copy index serving shard 0 after recovery
  int64_t expected_epoch;
};

class ReplicationRecoveryTest
    : public ::testing::TestWithParam<PromotionCrashCase> {};

TEST_P(ReplicationRecoveryTest, ProcessCrashAtPhaseBoundaryLosesNothing) {
  const PromotionCrashCase& c = GetParam();
  std::string dir = ::testing::TempDir() + "tvdp_repcrashXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = ReplicatedOptions(2, 2, 2, 2);
  opts.base_path = dir;

  std::set<std::string> oracle;
  {
    auto m = ShardManager::Create(opts);
    ASSERT_TRUE(m.ok()) << m.status();
    BuildSmallCorpus(**m);  // every row here is an acked write
    auto baseline = (*m)->ExecuteQuery(CityQuery());
    ASSERT_TRUE(baseline.ok());
    oracle = UrisOf(**m, baseline->hits);
    ASSERT_EQ(oracle.size(), static_cast<size_t>(kSmall));

    const std::string crash_phase = c.phase;
    (*m)->SetPromotionHook([crash_phase](const std::string& ph, int) {
      return ph != crash_phase;
    });
    auto r = (*m)->PromoteShard(0);
    ASSERT_FALSE(r.ok()) << "phase " << c.phase;
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << r.status();
    // The process now "dies" with the promotion unresolved on disk.
  }

  // A fresh fleet over the same stores resolves the promotion from the
  // shard map alone: before the promote commit the old primary serves,
  // after it the promoted replica does. Either way every acked write is
  // there and exactly one lineage serves (no split-brain).
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << "phase " << c.phase << ": " << m.status();
  ShardManager& mgr = **m;
  EXPECT_EQ(mgr.shard_primary_index(0), c.expected_primary) << c.phase;
  EXPECT_EQ(mgr.shard_epoch(0), c.expected_epoch) << c.phase;
  EXPECT_FALSE(mgr.shard_promoting(0)) << c.phase;
  EXPECT_EQ(mgr.live_replica_count(0), 1) << c.phase;
  EXPECT_EQ(mgr.image_count(), static_cast<size_t>(kSmall)) << c.phase;

  auto r = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->coverage.complete()) << r->coverage.ToJson().Dump();
  EXPECT_EQ(UrisOf(mgr, r->hits), oracle) << c.phase;

  // Not wedged: a fresh promotion completes and writes keep flowing.
  auto redo = mgr.PromoteShard(0);
  ASSERT_TRUE(redo.ok()) << c.phase << ": " << redo.status();
  EXPECT_EQ(mgr.shard_epoch(0), c.expected_epoch + 1);
  ImageRecord rec;
  rec.uri = "post_recovery";
  rec.location = CellZeroPoint();
  rec.keywords = {"city"};
  ASSERT_TRUE(mgr.IngestImage(rec).ok()) << c.phase;
  auto post = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->hits.size(), static_cast<size_t>(kSmall) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, ReplicationRecoveryTest,
    ::testing::Values(PromotionCrashCase{"ship", 0, 0},
                      PromotionCrashCase{"apply", 0, 0},
                      PromotionCrashCase{"ack", 0, 0},
                      PromotionCrashCase{"promote", 0, 0},
                      PromotionCrashCase{"fence", 1, 1},
                      PromotionCrashCase{"flip", 1, 1}),
    [](const ::testing::TestParamInfo<PromotionCrashCase>& info) {
      return std::string(info.param.phase);
    });

// ---------------------------------------------------------------------
// Interlock: the shard map has one serialized writer. A rebalance that
// lands between a promotion's durable commit (phase 4) and its in-memory
// flip (phase 6) must persist the promoted epoch/primary, not the stale
// slot values — or a restart would reopen the deposed primary as primary
// and drop its acked writes.
// ---------------------------------------------------------------------

TEST(ReplicationInterlockTest, RebalanceDuringPromotionCannotRegressShardMap) {
  std::string dir = ::testing::TempDir() + "tvdp_repmapXXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  ShardManagerOptions opts = ReplicatedOptions(3, 2, 3, 2);
  opts.base_path = dir;

  std::set<std::string> oracle;
  std::vector<int> owners_before;
  {
    auto m = ShardManager::Create(opts);
    ASSERT_TRUE(m.ok()) << m.status();
    ShardManager& mgr = **m;
    BuildSmallCorpus(mgr);
    auto baseline = mgr.ExecuteQuery(CityQuery());
    ASSERT_TRUE(baseline.ok());
    oracle = UrisOf(mgr, baseline->hits);
    ASSERT_EQ(oracle.size(), static_cast<size_t>(kSmall));

    // At shard 0's fence — after its shard-map commit, before its slot
    // epoch rises — rebalance a cell between the two OTHER shards. The
    // rebalance rewrites the whole shard map mid-promotion.
    std::atomic<bool> rebalanced{false};
    mgr.SetPromotionHook([&](const std::string& phase, int shard) {
      if (phase == "fence" && shard == 0 && !rebalanced.exchange(true)) {
        auto moved = mgr.RebalanceCells({1}, /*source=*/1, /*target=*/2);
        EXPECT_TRUE(moved.ok()) << moved.status();
      }
      return true;
    });
    auto promoted = mgr.PromoteShard(0);
    ASSERT_TRUE(promoted.ok()) << promoted.status();
    ASSERT_TRUE(rebalanced.load());
    EXPECT_EQ(mgr.shard_epoch(0), 1);
    EXPECT_EQ(mgr.shard_primary_index(0), 1);
    for (int i = 0; i < kSmall; ++i) {
      int row = i / 10, col = i % 10;
      owners_before.push_back(mgr.ShardForLocation(
          {34.00 + row * 0.009, -118.30 + col * 0.0095}));
    }
  }

  // Restart from durable state alone: both the promotion and the rebalance
  // survive, in full — neither map write clobbered the other.
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  EXPECT_EQ(mgr.shard_epoch(0), 1);
  EXPECT_EQ(mgr.shard_primary_index(0), 1);
  std::vector<int> owners_after;
  for (int i = 0; i < kSmall; ++i) {
    int row = i / 10, col = i % 10;
    owners_after.push_back(mgr.ShardForLocation(
        {34.00 + row * 0.009, -118.30 + col * 0.0095}));
  }
  EXPECT_EQ(owners_after, owners_before);

  auto r = mgr.ExecuteQuery(CityQuery());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->coverage.complete()) << r->coverage.ToJson().Dump();
  EXPECT_EQ(UrisOf(mgr, r->hits), oracle);

  // The promoted shard keeps taking writes under its new epoch.
  ImageRecord rec;
  rec.uri = "post_restart";
  rec.location = CellZeroPoint();
  rec.keywords = {"city"};
  ASSERT_TRUE(mgr.IngestImage(rec).ok());
  std::string cleanup = "rm -rf '" + dir + "'";
  (void)std::system(cleanup.c_str());
}

// ---------------------------------------------------------------------
// Stress: concurrent writers + queries vs. a rolling promotion churn
// (the tier-1 ReplicationStress.{asan,tsan} targets run this suite).
// ---------------------------------------------------------------------

TEST(ReplicationStressTest, WritesAndQueriesStayExactUnderPromotionChurn) {
  ShardManagerOptions opts = ReplicatedOptions(3, 2, 3, /*factor=*/3);
  opts.breakers = false;  // churn without cooldown gating
  auto m = ShardManager::Create(opts);
  ASSERT_TRUE(m.ok()) << m.status();
  ShardManager& mgr = **m;
  BuildCorpus(mgr);

  std::atomic<bool> done{false};
  std::atomic<int> ingested{0};
  std::atomic<int> query_errors{0};
  std::vector<std::thread> threads;

  // Query threads: the fleet is never down (failovers promote standing
  // replicas of live shards), so every response must be complete and free
  // of duplicate ids.
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
  // Writer threads: acked ingests must survive every failover. Bounded so
  // the sanitizer runs terminate.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      int i = 0;
      while (!done.load() && ingested.load() < 300) {
        ImageRecord rec;
        rec.uri = "live_" + std::to_string(t) + "_" + std::to_string(i++);
        rec.location =
            geo::GeoPoint{34.00 + (i % 8) * 0.009, -118.30 + (i % 9) * 0.01};
        rec.keywords = {"city", "live"};
        if (mgr.IngestImage(rec).ok()) ++ingested;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  // Broadcast thread: classification registration mutates every engine
  // without a per-row write path, so it must ride the write gate — a
  // fence landing between its per-shard applies would strand a write on
  // the deposed primary. Bounded iterations; no done check (it must run
  // its full course even if the churn finishes first).
  constexpr int kBroadcasts = 12;
  threads.emplace_back([&] {
    for (int i = 0; i < kBroadcasts; ++i) {
      auto id = mgr.RegisterClassification("live_cls_" + std::to_string(i),
                                           {"yes", "no"});
      EXPECT_TRUE(id.ok()) << id.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Rolling promotion churn: each shard fails over twice (factor 3 gives
  // two standby replicas), racing the write gate, the fencing epoch bump,
  // and the observer rebind against live traffic.
  for (int round = 0; round < 2; ++round) {
    for (int s = 0; s < 3; ++s) {
      auto r = mgr.PromoteShard(s);
      ASSERT_TRUE(r.ok()) << "round " << round << " shard " << s << ": "
                          << r.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  }
  done = true;
  for (auto& t : threads) t.join();
  EXPECT_EQ(query_errors.load(), 0);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(mgr.shard_epoch(s), 2) << "shard " << s;
  }

  // Quiesce: every acked write survived two failovers of its shard, and
  // every broadcast landed on every shard exactly once.
  EXPECT_TRUE(mgr.VerifyClassificationConsistency().ok());
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
