// MVCC snapshot isolation: lock-free reads over published versions.
//
// Covers the three contracts of DESIGN.md "MVCC snapshots and
// copy-on-write storage":
//  * isolation  — a reader pinned mid-commit sees the byte-identical
//    pre-commit result set, no matter how much churn commits after the pin;
//  * liveness   — reads complete while the writer lock is held, and a
//    saturating reader pool never delays a writer commit;
//  * durability — crash recovery republishes a version with the same
//    serialized bytes and the same query envelopes.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "geo/geo_point.h"
#include "platform/tvdp.h"
#include "query/engine.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/query.h"
#include "query/snapshot.h"
#include "storage/tvdp_schema.h"

namespace tvdp::query {
namespace {

using platform::AnnotationRecord;
using platform::ImageRecord;
using platform::Tvdp;
namespace tables = storage::tables;

constexpr Timestamp kT0 = 1546300800;

ImageRecord MakeImage(int i) {
  ImageRecord rec;
  rec.uri = "img" + std::to_string(i);
  rec.location =
      geo::GeoPoint{34.00 + (i % 20) * 0.004, -118.30 + (i % 25) * 0.004};
  rec.captured_at = kT0 + i * 60;
  rec.keywords = {"city"};
  if (i % 5 == 0) rec.keywords.push_back("market");
  return rec;
}

Result<Tvdp> SeedPlatform(int corpus) {
  TVDP_ASSIGN_OR_RETURN(Tvdp tvdp, Tvdp::Create());
  TVDP_RETURN_IF_ERROR(
      tvdp.RegisterClassification("scene", {"clean", "dirty"}).status());
  for (int i = 0; i < corpus; ++i) {
    TVDP_ASSIGN_OR_RETURN(int64_t id, tvdp.IngestImage(MakeImage(i)));
    AnnotationRecord ann;
    ann.classification = "scene";
    ann.label = i % 4 == 0 ? "dirty" : "clean";
    ann.confidence = 0.5 + (i % 50) * 0.01;
    ann.machine = true;
    TVDP_RETURN_IF_ERROR(tvdp.AnnotateImage(id, ann).status());
    ml::FeatureVector feat(8, 0.0);
    feat[static_cast<size_t>(i % 8)] = 1.0;
    TVDP_RETURN_IF_ERROR(tvdp.StoreFeature(id, "cnn", feat));
  }
  return tvdp;
}

/// The hybrid query mix whose result envelopes the isolation properties
/// compare (a slice of the PR 5 planner property suite).
std::vector<HybridQuery> EnvelopeQueries() {
  std::vector<HybridQuery> out;

  HybridQuery spatial;
  spatial.spatial.emplace();
  spatial.spatial->kind = SpatialPredicate::Kind::kRange;
  spatial.spatial->range =
      geo::BoundingBox::FromCorners({33.99, -118.31}, {34.05, -118.22});
  out.push_back(spatial);

  HybridQuery cat_time;
  cat_time.categorical.emplace();
  cat_time.categorical->classification = "scene";
  cat_time.categorical->label = "dirty";
  cat_time.categorical->min_confidence = 0.6;
  cat_time.temporal.emplace(TemporalPredicate{kT0, kT0 + 500 * 60});
  out.push_back(cat_time);

  HybridQuery text_spatial = spatial;
  text_spatial.textual.emplace();
  text_spatial.textual->keywords = {"market"};
  out.push_back(text_spatial);

  HybridQuery visual;
  visual.visual.emplace();
  visual.visual->kind = VisualPredicate::Kind::kThreshold;
  visual.visual->feature_kind = "cnn";
  visual.visual->feature = ml::FeatureVector(8, 0.0);
  visual.visual->feature[3] = 1.0;
  visual.visual->threshold = 0.1;
  out.push_back(visual);

  return out;
}

/// Executes `q` against a pinned snapshot's access paths — the full
/// planner + operator pipeline, exactly what the engine's snapshot read
/// path runs.
Result<std::vector<QueryHit>> RunOnSnapshot(const QueryEngine& engine,
                                            const EngineSnapshot& snap,
                                            const HybridQuery& q) {
  AccessPaths paths = engine.SnapshotPaths(snap);
  TVDP_ASSIGN_OR_RETURN(QueryPlan plan,
                        Planner::BuildPlan(paths, q, QueryBudget()));
  return Executor::Run(paths, q, &plan, nullptr);
}

/// Byte-exact envelope equality: ids, order, and score bit patterns.
void ExpectSameHits(const std::vector<QueryHit>& a,
                    const std::vector<QueryHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].image_id, b[i].image_id) << "hit " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "hit " << i;
    EXPECT_EQ(a[i].visual_distance, b[i].visual_distance) << "hit " << i;
  }
}

// ---------- isolation ----------

TEST(MvccTest, FreshPlatformPublishesVersionOne) {
  auto created = Tvdp::Create();
  ASSERT_TRUE(created.ok()) << created.status();
  Tvdp tvdp = std::move(created).value();

  // Construction publishes: the very first read already has a version.
  SnapshotRef pin = tvdp.query().PinSnapshot();
  ASSERT_TRUE(static_cast<bool>(pin));
  EXPECT_EQ(pin->version, 1u);
  EXPECT_EQ(pin->FindTable(tables::kImages)->size(), 0u);
  EXPECT_EQ(tvdp.MvccStats()["version"].AsInt(), 1);
}

TEST(MvccTest, SnapshotIsolationPinnedReaderSeesPreCommitState) {
  auto created = SeedPlatform(200);
  ASSERT_TRUE(created.ok()) << created.status();
  Tvdp tvdp = std::move(created).value();
  QueryEngine& engine = tvdp.query();

  // Pin, and record the pre-commit envelopes.
  SnapshotRef pinned = engine.PinSnapshot();
  ASSERT_TRUE(static_cast<bool>(pinned));
  std::vector<HybridQuery> queries = EnvelopeQueries();
  std::vector<std::vector<QueryHit>> before;
  for (const HybridQuery& q : queries) {
    auto hits = RunOnSnapshot(engine, *pinned, q);
    ASSERT_TRUE(hits.ok()) << hits.status();
    before.push_back(std::move(hits).value());
  }
  size_t count_before = tvdp.image_count();

  // Commit churn: new images, new annotations, and deletions.
  std::vector<int64_t> doomed;
  for (int i = 200; i < 260; ++i) {
    auto id = tvdp.IngestImage(MakeImage(i));
    ASSERT_TRUE(id.ok()) << id.status();
    if (i % 2 == 0) doomed.push_back(*id);
  }
  ASSERT_TRUE(tvdp.RemoveImages(doomed).ok());

  // The pinned version is frozen: byte-identical envelopes, same count.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto hits = RunOnSnapshot(engine, *pinned, queries[qi]);
    ASSERT_TRUE(hits.ok()) << hits.status();
    ExpectSameHits(before[qi], *hits);
  }
  const storage::Table* images_then = pinned->FindTable(tables::kImages);
  ASSERT_NE(images_then, nullptr);
  EXPECT_EQ(images_then->size(), count_before);

  // A fresh pin observes the churn.
  SnapshotRef now = engine.PinSnapshot();
  EXPECT_GT(now->version, pinned->version);
  EXPECT_EQ(now->FindTable(tables::kImages)->size(), tvdp.image_count());
}

TEST(MvccTest, PinnedEnvelopesStableUnderConcurrentChurn) {
  auto created = SeedPlatform(150);
  ASSERT_TRUE(created.ok()) << created.status();
  Tvdp tvdp = std::move(created).value();
  QueryEngine& engine = tvdp.query();

  SnapshotRef pinned = engine.PinSnapshot();
  std::vector<HybridQuery> queries = EnvelopeQueries();
  std::vector<std::vector<QueryHit>> before;
  for (const HybridQuery& q : queries) {
    auto hits = RunOnSnapshot(engine, *pinned, q);
    ASSERT_TRUE(hits.ok()) << hits.status();
    before.push_back(std::move(hits).value());
  }

  // Churn writer: ingest + periodic removal, racing the re-evaluations.
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    int i = 150;
    std::vector<int64_t> recent;
    while (!stop.load(std::memory_order_relaxed)) {
      auto id = tvdp.IngestImage(MakeImage(i++));
      if (id.ok()) recent.push_back(*id);
      if (recent.size() >= 8) {
        (void)tvdp.RemoveImages({recent[0], recent[1]});
        recent.erase(recent.begin(), recent.begin() + 2);
      }
    }
  });

  // Property: while commits land, the pinned version answers every query
  // byte-identically, every time.
  for (int round = 0; round < 10; ++round) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto hits = RunOnSnapshot(engine, *pinned, queries[qi]);
      ASSERT_TRUE(hits.ok()) << hits.status();
      ExpectSameHits(before[qi], *hits);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  churn.join();
}

// ---------- liveness ----------

TEST(MvccTest, ReadsCompleteWhileWriterLockHeld) {
  auto created = SeedPlatform(50);
  ASSERT_TRUE(created.ok()) << created.status();
  Tvdp tvdp = std::move(created).value();

  // Grab the writer lock and hold it. Under the old reader-writer scheme
  // every read below would block; with MVCC they must all complete.
  std::unique_lock<std::mutex> writer(tvdp.mutex());
  auto fut = std::async(std::launch::async, [&] {
    EXPECT_EQ(tvdp.image_count(), 50u);
    auto loc = tvdp.ImageLocation(1);
    EXPECT_TRUE(loc.ok()) << loc.status();
    auto hits = tvdp.query().Temporal(kT0, kT0 + 10 * 60);
    EXPECT_TRUE(hits.ok()) << hits.status();
    EXPECT_EQ(hits->size(), 11u);
    auto range = tvdp.query().SpatialRange(
        geo::BoundingBox::FromCorners({33.0, -119.0}, {35.0, -118.0}));
    EXPECT_TRUE(range.ok()) << range.status();
    return true;
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)), std::future_status::ready)
      << "reads blocked behind the writer lock";
  EXPECT_TRUE(fut.get());
}

// ---------- observability ----------

TEST(MvccTest, VersionAdvancesAndStatsTrack) {
  auto created = SeedPlatform(20);
  ASSERT_TRUE(created.ok()) << created.status();
  Tvdp tvdp = std::move(created).value();
  QueryEngine& engine = tvdp.query();

  Json stats = tvdp.MvccStats();
  int64_t v0 = stats["version"].AsInt();
  EXPECT_GT(v0, 0);
  EXPECT_EQ(stats["pinned_snapshots"].AsInt(), 0);

  // A commit advances the version and shares most bytes with the parent
  // (only the touched tables/indexes are re-copied).
  ASSERT_TRUE(tvdp.IngestImage(MakeImage(20)).ok());
  stats = tvdp.MvccStats();
  EXPECT_GT(stats["version"].AsInt(), v0);
  EXPECT_GT(stats["bytes_copied_last_commit"].AsInt(), 0);
  EXPECT_GT(stats["bytes_shared_last_commit"].AsInt(), 0);

  // Pinning shows up in the gauge; holding a pin across a commit keeps the
  // retired version alive until released.
  {
    SnapshotRef pin = engine.PinSnapshot();
    EXPECT_EQ(tvdp.MvccStats()["pinned_snapshots"].AsInt(), 1);
    ASSERT_TRUE(tvdp.IngestImage(MakeImage(21)).ok());
    EXPECT_GE(tvdp.MvccStats()["retired_versions"].AsInt(), 1);
  }
  EXPECT_EQ(tvdp.MvccStats()["pinned_snapshots"].AsInt(), 0);
}

TEST(MvccTest, CommitCopiesOnlyWhatItTouched) {
  auto created = SeedPlatform(20);  // 8-d "cnn" features
  ASSERT_TRUE(created.ok()) << created.status();
  Tvdp tvdp = std::move(created).value();
  QueryEngine& engine = tvdp.query();
  auto id = tvdp.IngestImage(MakeImage(20));
  ASSERT_TRUE(id.ok()) << id.status();
  ASSERT_TRUE(tvdp.StoreFeature(*id, "hist", ml::FeatureVector(3, 0.5)).ok());

  // A feature commit copies the features table and its kind's LSH only.
  SnapshotRef before = engine.PinSnapshot();
  ASSERT_TRUE(tvdp.StoreFeature(*id, "cnn", ml::FeatureVector(8, 0.25)).ok());
  SnapshotRef after = engine.PinSnapshot();
  ASSERT_GT(after->version, before->version);
  ASSERT_EQ(after->tables.size(), before->tables.size());
  for (const auto& [name, table] : after->tables) {
    if (name == tables::kImageVisualFeatures) {
      EXPECT_NE(table, before->tables.at(name)) << name;
    } else {
      EXPECT_EQ(table, before->tables.at(name)) << name;
    }
  }
  EXPECT_NE(after->lsh.at("cnn"), before->lsh.at("cnn"));
  EXPECT_EQ(after->lsh.at("hist"), before->lsh.at("hist"));
  EXPECT_EQ(after->points, before->points);
  EXPECT_EQ(after->fovs, before->fovs);
  EXPECT_EQ(after->temporal, before->temporal);
  EXPECT_EQ(after->keywords, before->keywords);
  EXPECT_EQ(after->classifications, before->classifications);

  // An image commit with an FOV and keywords leaves every feature
  // component shared.
  ImageRecord rec = MakeImage(21);
  auto fov = geo::FieldOfView::Make(rec.location, 90, 60, 100);
  ASSERT_TRUE(fov.ok());
  rec.fov = *fov;
  ASSERT_TRUE(tvdp.IngestImage(rec).ok());
  SnapshotRef ingested = engine.PinSnapshot();
  EXPECT_EQ(ingested->tables.at(tables::kImageVisualFeatures),
            after->tables.at(tables::kImageVisualFeatures));
  EXPECT_EQ(ingested->lsh.at("cnn"), after->lsh.at("cnn"));
  EXPECT_EQ(ingested->lsh.at("hist"), after->lsh.at("hist"));
  for (const char* name : {tables::kImages, tables::kImageFov,
                           tables::kImageManualKeywords}) {
    EXPECT_NE(ingested->tables.at(name), after->tables.at(name)) << name;
  }
  EXPECT_NE(ingested->points, after->points);
  EXPECT_NE(ingested->fovs, after->fovs);
  EXPECT_NE(ingested->temporal, after->temporal);
  EXPECT_NE(ingested->keywords, after->keywords);
}

// ---------- durability ----------

TEST(MvccTest, CrashRecoveryRebuildsSamePublishedVersion) {
  std::string templ = ::testing::TempDir() + "tvdp_mvccXXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  ASSERT_NE(mkdtemp(buf.data()), nullptr);
  std::string dir(buf.data());
  std::string base = dir + "/plat";

  std::string bytes_before;
  std::vector<std::vector<QueryHit>> env_before;
  std::vector<HybridQuery> queries = EnvelopeQueries();
  {
    auto opened = Tvdp::Open(base);
    ASSERT_TRUE(opened.ok()) << opened.status();
    Tvdp tvdp = std::move(opened).value();
    ASSERT_TRUE(
        tvdp.RegisterClassification("scene", {"clean", "dirty"}).ok());
    for (int i = 0; i < 60; ++i) {
      auto id = tvdp.IngestImage(MakeImage(i));
      ASSERT_TRUE(id.ok()) << id.status();
      AnnotationRecord ann;
      ann.classification = "scene";
      ann.label = i % 4 == 0 ? "dirty" : "clean";
      ann.confidence = 0.5 + (i % 50) * 0.01;
      ASSERT_TRUE(tvdp.AnnotateImage(*id, ann).ok());
      ml::FeatureVector feat(8, 0.0);
      feat[static_cast<size_t>(i % 8)] = 1.0;
      ASSERT_TRUE(tvdp.StoreFeature(*id, "cnn", feat).ok());
    }
    ASSERT_TRUE(tvdp.SaveToFile(dir + "/before.bin").ok());
    QueryEngine& engine = tvdp.query();
    SnapshotRef pin = engine.PinSnapshot();
    for (const HybridQuery& q : queries) {
      auto hits = RunOnSnapshot(engine, *pin, q);
      ASSERT_TRUE(hits.ok()) << hits.status();
      env_before.push_back(std::move(hits).value());
    }
    // No checkpoint: recovery must rebuild purely from the WAL replay.
    // The Tvdp goes out of scope here — the "crash".
  }

  auto reopened = Tvdp::Open(base);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  Tvdp tvdp = std::move(reopened).value();
  ASSERT_TRUE(tvdp.SaveToFile(dir + "/after.bin").ok());

  // Same serialized catalog bytes out of the published snapshot.
  auto read_file = [](const std::string& path) {
    FILE* f = fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char chunk[4096];
    size_t n;
    while ((n = fread(chunk, 1, sizeof(chunk), f)) > 0) out.append(chunk, n);
    fclose(f);
    return out;
  };
  EXPECT_EQ(read_file(dir + "/before.bin"), read_file(dir + "/after.bin"));

  // Same envelopes from the rebuilt version.
  QueryEngine& engine = tvdp.query();
  SnapshotRef pin = engine.PinSnapshot();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto hits = RunOnSnapshot(engine, *pin, queries[qi]);
    ASSERT_TRUE(hits.ok()) << hits.status();
    ExpectSameHits(env_before[qi], *hits);
  }

  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

// ---------- stress (registered as MvccStress.{asan,tsan} too) ----------

TEST(MvccStressTest, SaturatingReadersNeverBlockWriterCommit) {
  auto created = SeedPlatform(100);
  ASSERT_TRUE(created.ok()) << created.status();
  Tvdp tvdp = std::move(created).value();
  QueryEngine& engine = tvdp.query();

  const unsigned hw = std::thread::hardware_concurrency();
  const int kReaders = static_cast<int>(hw > 1 ? hw + 2 : 4);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(kReaders));
  geo::BoundingBox box =
      geo::BoundingBox::FromCorners({33.99, -118.31}, {34.09, -118.18});
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto hits = engine.SpatialRange(box);
        EXPECT_TRUE(hits.ok());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: every commit must land promptly even with every core busy
  // reading — readers pin snapshots, they never hold the engine lock.
  int64_t worst_commit_ms = 0;
  for (int i = 100; i < 140; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto id = tvdp.IngestImage(MakeImage(i));
    auto dt = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    ASSERT_TRUE(id.ok()) << id.status();
    worst_commit_ms = std::max(worst_commit_ms, dt);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0);
  // Generous bound (sanitizer builds run slow): the point is that commits
  // never wait for the reader pool to drain — a reader-preference rwlock
  // would starve this into the tens of seconds.
  EXPECT_LT(worst_commit_ms, 5000) << "writer commit stalled behind readers";
  EXPECT_EQ(tvdp.image_count(), 140u);
}

TEST(MvccStressTest, ConcurrentChurnAndPinnedReaders) {
  auto created = SeedPlatform(60);
  ASSERT_TRUE(created.ok()) << created.status();
  Tvdp tvdp = std::move(created).value();
  QueryEngine& engine = tvdp.query();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Readers: pin, then check the pinned version is internally consistent —
  // re-running a query on the same pin twice must agree exactly.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      HybridQuery q;
      q.temporal.emplace(TemporalPredicate{kT0, kT0 + 100000 * 60});
      while (!stop.load(std::memory_order_relaxed)) {
        SnapshotRef pin = engine.PinSnapshot();
        auto a = RunOnSnapshot(engine, *pin, q);
        auto b = RunOnSnapshot(engine, *pin, q);
        if (!a.ok() || !b.ok() || a->size() != b->size()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (size_t i = 0; i < a->size(); ++i) {
          if ((*a)[i].image_id != (*b)[i].image_id) {
            failures.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }

  // Writers: ingest/annotate churn plus periodic deletes.
  std::thread writer([&] {
    std::vector<int64_t> recent;
    for (int i = 60; i < 140 && !stop.load(std::memory_order_relaxed); ++i) {
      auto id = tvdp.IngestImage(MakeImage(i));
      if (!id.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      recent.push_back(*id);
      if (recent.size() >= 10) {
        if (!tvdp.RemoveImages({recent[0]}).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        recent.erase(recent.begin());
      }
    }
  });

  writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // After the dust settles the latest snapshot matches the live count.
  SnapshotRef pin = engine.PinSnapshot();
  EXPECT_EQ(pin->FindTable(tables::kImages)->size(), tvdp.image_count());
}

}  // namespace
}  // namespace tvdp::query
