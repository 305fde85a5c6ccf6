#ifndef TVDP_PLATFORM_TVDP_H_
#define TVDP_PLATFORM_TVDP_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/timeutil.h"
#include "geo/coverage.h"
#include "geo/fov.h"
#include "query/engine.h"
#include "storage/catalog.h"
#include "storage/durable_catalog.h"
#include "storage/tvdp_schema.h"

namespace tvdp::platform {

/// Everything known about an image at ingest time.
struct ImageRecord {
  std::string uri;
  geo::GeoPoint location;
  std::optional<geo::FieldOfView> fov;
  Timestamp captured_at = 0;
  Timestamp uploaded_at = 0;
  std::string source = "upload";  ///< e.g. "lasan_truck", "crowd", "upload"
  std::vector<std::string> keywords;
  bool is_augmented = false;
  std::optional<int64_t> original_image_id;
};

/// One annotation to attach to an image.
struct AnnotationRecord {
  std::string classification;  ///< task name, e.g. "street_cleanliness"
  std::string label;           ///< e.g. "encampment"
  double confidence = 1.0;
  bool machine = false;        ///< machine vs manual provenance
  /// Optional sub-image region.
  std::optional<std::array<int, 4>> region;  // x, y, w, h
};

/// The Translational Visual Data Platform facade: one object wiring the
/// four core services of Fig. 1 over the embedded store and indexes.
///
///  * Acquisition — IngestImage / IngestCapture (crowdsourced uploads).
///  * Access      — query() exposes the five query families + hybrids.
///  * Analysis    — feature storage, classification registry, annotation
///                  write-back (augmented knowledge, Sec. VII-B).
///  * Action      — annotations and features are readable by every other
///                  participant, enabling translational reuse; edge
///                  dispatch lives in tvdp::edge and is driven from here
///                  by the examples.
///
/// Thread safety: reads are LOCK-FREE. Every mutation commits by
/// publishing an immutable MVCC snapshot through the query engine (see
/// DESIGN.md "MVCC snapshots and copy-on-write storage"); a read pins the
/// current snapshot with two atomic ops and never touches `mutex()`, so
/// readers can neither block nor starve a writer. Ingest, annotation
/// write-back, feature storage and checkpointing hold the platform-wide
/// writer mutex, so a write is observed atomically — catalog
/// rows, index entries and the published snapshot never tear apart. WAL
/// commit ordering matches publish ordering (writers are fully
/// serialized). See DESIGN.md "Concurrency model".
class Tvdp {
 public:
  /// Creates a fresh platform whose store lives in memory: `Open` over a
  /// private `MemFs`, so every write commits through the same WAL.
  static Result<Tvdp> Create();

  /// Opens (or creates) a crash-safe platform rooted at `base_path`
  /// (`<base_path>.snapshot` + `<base_path>.wal`). Every ingest, annotation
  /// and feature write is committed through the write-ahead log; reopening
  /// after a crash recovers all committed records, rebuilds the query
  /// indexes and the classification registry, and publishes them as the
  /// first snapshot version.
  static Result<Tvdp> Open(const std::string& base_path,
                           storage::DurableCatalogOptions options = {});

  // Custom moves: the fencing state lives in atomics (lock-free readers),
  // which have no implicit move.
  Tvdp(Tvdp&& other) noexcept;
  Tvdp& operator=(Tvdp&& other) noexcept;

  // --- Acquisition ---

  /// Stores an image's metadata rows and indexes it. Returns the image id.
  Result<int64_t> IngestImage(const ImageRecord& record);

  // --- Analysis ---

  /// Registers a classification task with its label set; idempotent on
  /// name. Returns the classification id.
  Result<int64_t> RegisterClassification(const std::string& name,
                                         const std::vector<std::string>& labels,
                                         const std::string& description = "");

  /// Id of the registered classification `name`, or NotFound.
  Result<int64_t> ClassificationId(const std::string& name) const;

  /// The id a `RegisterClassification(name, ...)` call would return right
  /// now: the existing id when `name` is registered, otherwise the id the
  /// classification table will assign next. The sharded broadcast
  /// coordinator records these per-shard targets in the intent so recovery
  /// can verify the fleet converged on the same ids.
  Result<int64_t> PeekClassificationId(const std::string& name) const;

  /// True iff `name` is registered and every label in `labels` is present —
  /// the reconciliation pass's "this shard already applied the broadcast"
  /// evidence check.
  bool ClassificationApplied(const std::string& name,
                             const std::vector<std::string>& labels) const;

  /// Deterministic dump of the classification registry
  /// ({name: {"id": .., "labels": {label: type_id}}}) used by the sharded
  /// layer to verify the fleet's classification tables are identical.
  Json ClassificationTableJson() const;

  /// Largest FOV radius (meters) stored in the catalog, 0 when none — lets
  /// the sharded layer rebuild its spillover prune margin after a reopen.
  double MaxFovRadiusM() const;

  /// Attaches an annotation (manual or machine) to an image; the task and
  /// label must have been registered. Returns the annotation id.
  Result<int64_t> AnnotateImage(int64_t image_id,
                                const AnnotationRecord& annotation);

  /// Stores (and indexes) a visual feature vector for an image. The first
  /// vector of a kind fixes its dimensionality; a vector of another
  /// length is InvalidArgument and writes nothing.
  Status StoreFeature(int64_t image_id, const std::string& kind,
                      const ml::FeatureVector& feature);

  // --- Access ---

  query::QueryEngine& query() { return *engine_; }
  const query::QueryEngine& query() const { return *engine_; }

  /// Evaluates a hybrid query over the latest published snapshot,
  /// honoring an optional request context (deadline/cancellation) and a
  /// query budget (degraded plans) — the access-layer entry point used by
  /// the API service. When `plan_out` is non-null it receives the executed
  /// plan (operator tree with estimated and actual cardinalities).
  Result<std::vector<query::QueryHit>> ExecuteQuery(
      const query::HybridQuery& q, const RequestContext* ctx = nullptr,
      const query::QueryBudget& budget = query::QueryBudget(),
      query::QueryPlan* plan_out = nullptr) const;

  /// Plans a hybrid query without executing it (the `explain_query` API
  /// endpoint). Deterministic for a given query and corpus state.
  Result<query::QueryPlan> ExplainQuery(
      const query::HybridQuery& q,
      const query::QueryBudget& budget = query::QueryBudget()) const;

  /// MVCC observability: the engine's snapshot stats ({version,
  /// pinned_snapshots, retired_versions, bytes copied/shared on the last
  /// commit}) — surfaced per shard/engine in `platform_stats`.
  Json MvccStats() const;

  /// The platform-wide writer mutex (owned by the query engine). Every
  /// facade mutation holds it; reads pin an MVCC snapshot and never take
  /// it.
  std::mutex& mutex() const { return engine_->mutex(); }

  storage::Catalog& catalog() { return durable_->catalog(); }
  const storage::Catalog& catalog() const { return durable_->catalog(); }

  /// The durable store; never null.
  storage::DurableCatalog* durable_catalog() { return durable_.get(); }

  /// Number of live images.
  size_t image_count() const;

  /// The label (annotation) of `image_id` under `classification` with the
  /// highest confidence, or NotFound.
  Result<std::string> GetLabel(int64_t image_id,
                               const std::string& classification) const;

  /// Retrieves the stored feature of the given kind.
  Result<ml::FeatureVector> GetFeature(int64_t image_id,
                                       const std::string& kind) const;

  /// The image's metadata row in the download_datasets JSON shape
  /// ({"id","uri","lat","lon","captured_at","source"}); NotFound for an
  /// unknown id. Shared by the API layer and the sharded serving layer so
  /// both render rows identically.
  Result<Json> ImageRowJson(int64_t image_id) const;

  /// All camera locations of images annotated (classification, label) with
  /// confidence >= min_confidence — the translational primitive behind the
  /// homeless-counting study (Sec. VII-B: reuse encampment annotations).
  Result<std::vector<geo::GeoPoint>> LocationsWithLabel(
      const std::string& classification, const std::string& label,
      double min_confidence = 0.0) const;

  // --- Rebalancing support (used by the sharded serving layer to move
  // grid cells between shards, DESIGN.md "Online shard rebalancing") ---

  /// The full acquisition-time record of `image_id`, reconstructed from the
  /// catalog rows (FOV and keywords included) — the export half of a cell
  /// migration; NotFound for an unknown id.
  Result<ImageRecord> ExportImage(int64_t image_id) const;

  /// Camera location of `image_id`; NotFound for an unknown id.
  Result<geo::GeoPoint> ImageLocation(int64_t image_id) const;

  /// Ids of every image whose camera location satisfies `pred`, in id
  /// order — the migration copy loop's cell scan.
  std::vector<int64_t> ImageIdsMatching(
      const std::function<bool(const geo::GeoPoint&)>& pred) const;

  /// All annotations attached to `image_id` in insertion order, type ids
  /// translated back to (classification, label) names. Annotations whose
  /// type id is not in the registry are skipped.
  Result<std::vector<AnnotationRecord>> ListAnnotations(int64_t image_id) const;

  /// All stored feature vectors of `image_id` as (kind, vector) pairs, in
  /// insertion order.
  Result<std::vector<std::pair<std::string, ml::FeatureVector>>> ListFeatures(
      int64_t image_id) const;

  /// Removes the given images and every dependent row (FOV, scene
  /// location, keywords, features, annotations) through the WAL, then
  /// rebuilds the query indexes from the surviving rows.
  /// The GC half of a cell migration. Unknown ids are skipped.
  Status RemoveImages(const std::vector<int64_t>& ids);

  // --- Replication support (used by platform::ReplicaSet, DESIGN.md
  // "Replication, failover, and fencing") ---

  /// Installs (or clears, with nullptr) the mutation observer: a callback
  /// invoked — under the engine writer lock, after the mutation committed —
  /// with the WAL-shaped record of every row insert/delete this engine
  /// performs. The replication layer captures these to ship them to the
  /// shard's replicas; because the writer lock serializes mutations, the
  /// observed stream totally orders with the primary's WAL.
  void SetMutationObserver(
      std::function<void(const storage::WalRecord&)> observer);

  /// The replica cut: in one writer critical section, copies the committed
  /// store to each of `copy_paths` on `fs` (`DurableCatalog::CopyTo`) and
  /// installs `observer`, so every mutation is either in the copies or
  /// observed. Returns the WAL length at the cut, after which the observed
  /// stream starts.
  Result<uint64_t> CopyAndObserve(
      std::function<void(const storage::WalRecord&)> observer,
      const std::vector<std::string>& copy_paths, Fs* fs);

  /// Applies a batch of shipped primary records (or a promotion's WAL
  /// tail) to this replica engine: forced-id inserts and deletes,
  /// committed through the replica's own WAL, with query indexes and the
  /// classification registry kept in sync. Already-applied records (id
  /// present) are skipped, so re-shipping after a retry or a WAL tail
  /// replay is safe. Returns the number of records newly applied.
  Result<size_t> ApplyReplicated(
      const std::vector<storage::WalRecord>& records);

  /// Fencing: a fenced engine rejects every later mutation, and a commit in
  /// flight finishes before the fence returns. A stale primary is fenced
  /// at promotion (kFailedPrecondition) so its in-flight writers cannot ack
  /// anything the new primary will not have; a killed shard's engine is
  /// fenced with `refusal` so a writer still holding its handle cannot
  /// append to the WAL that recovery reopens.
  void Fence(int64_t fenced_at_epoch);
  void Fence(Status refusal);
  bool fenced() const;

  /// The engine's replication epoch, stamped onto every mutation record it
  /// produces and persisted via the durable catalog.
  void set_epoch(int64_t epoch);
  int64_t epoch() const;

  // --- Persistence ---

  Status SaveToFile(const std::string& path) const;

  /// Forces a snapshot + WAL reset now.
  Status Checkpoint();

 private:
  using CommitScope = query::QueryEngine::CommitScope;

  Tvdp() = default;

  /// Commits a row insert through the WAL and indexes it.
  Result<int64_t> InsertRow(const std::string& table, storage::Row row);

  /// Commits a row delete through the WAL.
  Status DeleteRow(const std::string& table, storage::RowId id);

  /// Rebuilds only the classification registry from the catalog rows
  /// (classifications_ is guarded by the writer path's exclusive lock; the
  /// caller must not be racing mutations).
  Status RebuildClassificationsUnlocked();

  /// A `Create`d platform's files; declared first so it outlives `durable_`.
  std::unique_ptr<MemFs> mem_fs_;
  std::unique_ptr<storage::DurableCatalog> durable_;
  std::unique_ptr<query::QueryEngine> engine_;
  // classification name -> (classification id, label -> type id)
  std::map<std::string, std::pair<int64_t, std::map<std::string, int64_t>>>
      classifications_;
  // Replication state. The observer is guarded by the engine writer lock
  // (mutations already hold it exclusively when it is consulted); the
  // fencing state is atomic so lock-free readers (fenced()/epoch()) observe
  // it without the lock; the refusal a fenced engine returns is written and
  // read under the writer lock.
  std::function<void(const storage::WalRecord&)> mutation_observer_;
  std::atomic<int64_t> epoch_{0};
  std::atomic<bool> fenced_{false};
  Status fence_refusal_;
};

}  // namespace tvdp::platform

#endif  // TVDP_PLATFORM_TVDP_H_
