#ifndef TVDP_QUERY_ENGINE_H_
#define TVDP_QUERY_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/context.h"
#include "common/json.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "geo/fov.h"
#include "index/inverted_index.h"
#include "index/lsh.h"
#include "index/oriented_rtree.h"
#include "index/rtree.h"
#include "index/temporal_index.h"
#include "query/executor.h"
#include "query/plan.h"
#include "query/planner.h"
#include "query/query.h"
#include "query/snapshot.h"
#include "storage/catalog.h"
#include "storage/tvdp_schema.h"

namespace tvdp::platform {
class Tvdp;
}  // namespace tvdp::platform

namespace tvdp::query {

/// The access layer of TVDP: maintains the per-modality indexes over the
/// catalog (Sec. IV-C) and serves queries. The engine itself is a thin
/// facade: it owns the indexes and the writer mutex, publishes immutable
/// snapshots of them, and delegates planning to the cost-based Planner and
/// evaluation to the Executor's operator pipeline over a snapshot's
/// AccessPaths (see DESIGN.md "Query planning and EXPLAIN").
///
/// Only the platform facade (platform::Tvdp) constructs an engine and
/// mutates it. `Tvdp::Open` builds the indexes and publishes version 1
/// before anything can read the engine, and every facade write
/// section (catalog mutation, index update, publish) runs under `mutex_`
/// and ends by publishing the next version (DESIGN.md "MVCC snapshots and
/// copy-on-write storage").
///
/// Thread safety: reads are LOCK-FREE. Every public read pins the latest
/// published EngineSnapshot (two atomic ops) and evaluates over it, so
/// readers never touch the mutex and can neither block nor starve a
/// writer. Readers write no shared engine state; the executed plan is
/// returned through `plan_out` only.
///
/// Heavy read paths (hybrid candidate verification, LSH probing and
/// re-ranking, FOV refinement, spatial-kNN exact re-ranking) fan out
/// across the pool when the work is large enough to amortize scheduling.
class QueryEngine {
 public:
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // --- Single-modality queries (Sec. IV-C's five families) ---
  //
  // Every query method accepts an optional RequestContext. A non-null
  // context is checked before the indexes are touched and again at every
  // parallel chunk boundary inside the heavy loops; an expired or
  // cancelled context surfaces as kDeadlineExceeded / kCancelled with
  // partial-progress metadata in the status message, and no partial
  // results escape.
  //
  // Degenerate arguments (k <= 0, empty feature vector, empty keyword,
  // inverted temporal range, empty box, invalid point) are
  // kInvalidArgument — the same guards the hybrid planner applies, so a
  // malformed predicate fails identically through every door.

  /// Spatial: images whose FOV (or camera point if no FOV) intersects box.
  /// Hits carry score 0 (boolean membership).
  Result<std::vector<QueryHit>> SpatialRange(
      const geo::BoundingBox& box, const RequestContext* ctx = nullptr) const;

  /// Spatial: k nearest camera locations, ordered by exact geodesic
  /// distance (candidates over-fetched by index distance, then re-ranked).
  /// Hits carry score = geodesic distance in meters.
  Result<std::vector<QueryHit>> SpatialKnn(const geo::GeoPoint& p, int k,
                                           const RequestContext* ctx =
                                               nullptr) const;

  /// Spatial: images whose FOV sees point p. Hits carry score 0.
  Result<std::vector<QueryHit>> VisibleAt(
      const geo::GeoPoint& p, const RequestContext* ctx = nullptr) const;

  /// Visual: approximate top-k similar images by feature kind. Each image
  /// appears at most once (the closest of its stored vectors). Hits carry
  /// score = L2 feature distance. `budget.lsh_probes` >= 0 substitutes the
  /// LSH multi-probe budget for this query (degraded plans).
  Result<std::vector<QueryHit>> VisualTopK(
      const std::string& kind, const ml::FeatureVector& feature, int k,
      const RequestContext* ctx = nullptr,
      const QueryBudget& budget = QueryBudget()) const;

  /// Visual: all images within a feature-distance threshold, deduplicated
  /// by image id (closest match per image). Hits carry score = L2 feature
  /// distance.
  Result<std::vector<QueryHit>> VisualThreshold(
      const std::string& kind, const ml::FeatureVector& feature,
      double threshold, const RequestContext* ctx = nullptr,
      const QueryBudget& budget = QueryBudget()) const;

  /// Categorical: images annotated with (classification, label). Score 0.
  Result<std::vector<QueryHit>> Categorical(
      const CategoricalPredicate& pred) const;

  /// Textual: keyword search over manual keywords. Score 0.
  Result<std::vector<QueryHit>> Textual(const TextualPredicate& pred) const;

  /// Temporal: capture-time range. Boundary semantics are inclusive on
  /// both ends — the result is every image with captured_at in
  /// [begin, end]. An inverted range (begin > end) is InvalidArgument.
  /// Score 0.
  Result<std::vector<QueryHit>> Temporal(Timestamp begin, Timestamp end) const;

  // --- Hybrid queries ---

  /// Evaluates a hybrid query through the cost-based planner: the most
  /// selective conjunct (by index cardinality estimates) seeds the
  /// candidate set, remaining conjuncts verify — set-valued ones through
  /// one materialized index probe, row-valued ones per candidate. Every
  /// returned image id is unique. `budget` tightens the plan under
  /// degraded serving (smaller LSH probe budget, capped candidate set,
  /// reduced over-fetch); the cap is recorded in the plan. When `plan_out`
  /// is non-null it receives the executed plan with actual cardinalities.
  /// `options.force_seed` overrides the cost-based seed choice (tests,
  /// benches).
  Result<std::vector<QueryHit>> Execute(
      const HybridQuery& q, const RequestContext* ctx = nullptr,
      const QueryBudget& budget = QueryBudget(), QueryPlan* plan_out = nullptr,
      const PlannerOptions& options = PlannerOptions()) const;

  /// Plans a hybrid query without executing it: validation, cardinality
  /// estimation, conjunct ordering, operator tree. Deterministic for a
  /// given query and corpus state.
  Result<QueryPlan> Explain(const HybridQuery& q,
                            const QueryBudget& budget = QueryBudget(),
                            const PlannerOptions& options =
                                PlannerOptions()) const;

  // --- Full-scan baselines (index ablation) ---

  /// SpatialRange evaluated by scanning all FOV rows.
  Result<std::vector<QueryHit>> SpatialRangeScan(
      const geo::BoundingBox& box) const;

  /// VisualTopK evaluated by exact exhaustive distance computation.
  Result<std::vector<QueryHit>> VisualTopKScan(const std::string& kind,
                                               const ml::FeatureVector& feature,
                                               int k) const;

  // --- MVCC snapshots ---

  /// Pins the latest published snapshot (never null: `Tvdp::Open`
  /// publishes version 1). The pin is two atomic ops; the returned ref
  /// keeps every component of that version alive until released.
  SnapshotRef PinSnapshot() const {
    return SnapshotRef(snapshot_.load(), &pinned_readers_);
  }

  /// AccessPaths over a pinned snapshot: everything referenced is
  /// immutable, so the paths are valid (without any lock) for as long as
  /// the SnapshotRef lives.
  AccessPaths SnapshotPaths(const EngineSnapshot& snap) const;

  /// MVCC observability for platform_stats: {version, pinned_snapshots,
  /// retired_versions, bytes_copied_last_commit, bytes_shared_last_commit}.
  Json MvccStatsJson() const;

 private:
  friend class tvdp::platform::Tvdp;

  /// `catalog` must outlive the engine and contain the TVDP schema.
  /// `pool` (default: the process-shared pool) runs intra-query fan-out;
  /// pass a zero-worker pool to force sequential execution. Publishes
  /// nothing: the first CommitScope publishes version 1.
  explicit QueryEngine(storage::Catalog* catalog, ThreadPool* pool = nullptr);

  /// The writer mutex: held by the platform facade around every
  /// catalog-mutation + index-update + snapshot-publish section. Readers
  /// never take it.
  std::mutex& mutex() const { return mutex_; }

  /// One facade write section: holds the writer mutex for its lifetime
  /// and, on exit (success and error paths alike), installs `class_map`
  /// when given and publishes the next snapshot before releasing the
  /// mutex — so the published version never diverges from the live
  /// catalog, and a concurrent query never sees half a write.
  class CommitScope {
   public:
    explicit CommitScope(QueryEngine* engine,
                         const ClassMap* class_map = nullptr)
        : engine_(engine), class_map_(class_map), lock_(engine->mutex_) {}
    CommitScope(const CommitScope&) = delete;
    CommitScope& operator=(const CommitScope&) = delete;
    ~CommitScope() {
      if (class_map_) engine_->SetClassMapLocked(*class_map_);
      engine_->PublishLocked();
    }

   private:
    QueryEngine* engine_;
    const ClassMap* class_map_;
    std::unique_lock<std::mutex> lock_;
  };

  // --- Write section: caller must hold mutex() (e.g. via CommitScope). ---

  /// Publishes a new immutable snapshot from the current live state,
  /// copy-on-write: only components marked dirty since the last publish
  /// are cloned; everything else is shared with the previous version.
  /// No-op when nothing is dirty.
  void PublishLocked();

  /// Marks a catalog table as touched by the current write section so the
  /// next PublishLocked() re-copies it.
  void MarkTableDirtyLocked(const std::string& table);

  /// Installs the classification registry published with the next
  /// snapshot.
  void SetClassMapLocked(const ClassMap& m);

  /// Routes one stored catalog row (id first) to the index its table
  /// feeds: images -> point R-tree and temporal index; FOV -> oriented
  /// R-tree, placed at the image's camera; keywords -> inverted index;
  /// features -> the kind's LSH (the first vector of a kind fixes its
  /// dimensionality). Other tables, and FOV/keyword/feature rows whose
  /// image is gone, index nothing. Every write path calls it as a row
  /// lands, so each index receives its own table's rows in storage order,
  /// and a rebuilt engine equals the one that ingested row by row.
  Status IndexRowLocked(const std::string& table, const storage::Row& row);
  /// InvalidArgument when `kind` already has an LSH of a dimensionality
  /// other than `dim`: the facade checks a feature before it writes the
  /// row, so IndexRowLocked never rejects a row that is already stored.
  Status CheckFeatureDimLocked(const std::string& kind, size_t dim) const;
  /// Empties every index and replays each table once through
  /// IndexRowLocked: O(rows). Runs after a durable Open and after deletes
  /// (the indexes have no per-record delete).
  Status ReindexAllLocked();

  storage::Catalog* catalog_;
  ThreadPool* pool_;

  // --- Live mutable state (guarded by mutex_) ---
  index::RTree points_;
  index::OrientedRTree fovs_;
  index::TemporalIndex temporal_;
  index::InvertedIndex keywords_;
  std::map<std::string, index::LshIndex> lsh_;
  /// Classification registry published with the next snapshot.
  std::shared_ptr<const ClassMap> class_map_ =
      std::make_shared<const ClassMap>();

  // --- Dirty tracking since the last publish (guarded by mutex_) ---
  std::set<std::string> dirty_tables_;
  std::set<std::string> dirty_feature_kinds_;
  bool dirty_points_ = false;
  bool dirty_fovs_ = false;
  bool dirty_temporal_ = false;
  bool dirty_keywords_ = false;
  bool dirty_classes_ = false;

  // --- MVCC publication state ---
  /// The published root. Readers load-acquire and pin; writers
  /// store-release a fresh version per commit. Retired versions reclaim
  /// via shared_ptr refcounting when the last pinned reader drains.
  AtomicSnapshotPtr snapshot_;
  /// Gauge of EngineSnapshot objects alive (latest + retired-but-pinned);
  /// shared with the snapshots themselves, which decrement on destruction.
  std::shared_ptr<std::atomic<int64_t>> live_snapshots_ =
      std::make_shared<std::atomic<int64_t>>(0);
  mutable std::atomic<int64_t> pinned_readers_{0};
  uint64_t next_version_ = 1;

  /// Writer mutex over every index and (through the facade) the catalog.
  mutable std::mutex mutex_;
};

}  // namespace tvdp::query

#endif  // TVDP_QUERY_ENGINE_H_
