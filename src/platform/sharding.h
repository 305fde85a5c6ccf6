#ifndef TVDP_PLATFORM_SHARDING_H_
#define TVDP_PLATFORM_SHARDING_H_

#include <array>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/rng.h"
#include "edge/health.h"
#include "geo/bbox.h"
#include "platform/replication.h"
#include "platform/tvdp.h"
#include "query/scatter_gather.h"
#include "storage/durable_catalog.h"

namespace tvdp::platform {

/// Seeded fault injection for one shard: every probe draws independently
/// (crash, then hang, then slow) from the shard's deterministic stream.
///   crash — the probe fails instantly with kUnavailable;
///   hang  — the probe blocks (in 1 ms slices, watching the attempt
///           context) until the attempt budget or `hang_ms` runs out,
///           then fails with kUnavailable — the straggler-shard model;
///   slow  — the probe sleeps `slow_ms` and then proceeds normally.
struct ShardFaultProfile {
  double crash_prob = 0;
  double hang_prob = 0;
  double slow_prob = 0;
  double slow_ms = 0;
  /// Upper bound on an injected hang, so a probe with no deadline still
  /// terminates.
  double hang_ms = 250;
};

/// Configuration of a ShardManager.
struct ShardManagerOptions {
  /// Number of independent engine instances. 1 is the degenerate
  /// single-shard mode (byte-identical to an unsharded platform).
  int shard_count = 1;

  /// The spatial grid: `grid_rows` x `grid_cols` equal cells tiling
  /// `region`. Images are routed to the shard owning the cell their
  /// camera location falls in (locations outside the region clamp to the
  /// nearest edge cell).
  int grid_rows = 1;
  int grid_cols = 1;
  geo::BoundingBox region;

  /// Optional explicit (cell, shard) assignments; cells not listed use
  /// the default round-robin `cell % shard_count`. A duplicate cell is
  /// kInvalidArgument.
  std::vector<std::pair<int, int>> cell_assignments;

  /// Each shard persists through its own DurableCatalog (WAL + snapshot)
  /// rooted at `<base_path>/shard_<i>`, and a killed shard recovers by
  /// replaying its WAL. Empty with no `durable.fs`: the fleet keeps every
  /// file in a `MemFs` of its own.
  std::string base_path;

  /// Durable-store knobs shared by every shard (tests hook a
  /// FaultInjectingFs here to inject slow-I/O and write faults).
  storage::DurableCatalogOptions durable;

  /// Scatter-gather tuning (per-shard deadline fraction, hedging policy,
  /// pruning switches, degraded shedding fraction).
  query::ScatterGatherOptions gather;

  /// Per-shard circuit breakers (closed / open / half-open) fed by probe
  /// outcomes; `breakers = false` disables the gate (the naive bench
  /// configuration).
  bool breakers = true;
  edge::HealthOptions breaker;

  /// Per-shard replication: total copies, sync level, replica-read policy
  /// (DESIGN.md "Replication, failover, and fencing"). The default factor
  /// of 1 is replication off — byte-identical to the pre-replication
  /// behaviour.
  ReplicationOptions replication;

  /// Seed of the per-shard fault-injection streams.
  uint64_t fault_seed = 0x5eedfa071ULL;

  /// Clock used for breaker bookkeeping, milliseconds on any monotonic
  /// scale; null = steady_clock. Tests inject a fake clock to step the
  /// open -> half-open cooldown deterministically.
  std::function<double()> now_ms;
};

/// An in-process sharded serving layer: N fault-isolated engine instances
/// (each with its own catalog, WAL, and indexes) behind one facade that
/// routes ingest by camera location and answers queries through the
/// scatter-gather stage with per-shard circuit breakers, hedged probes,
/// seeded fault injection, partial-result coverage, and online recovery
/// (WAL replay + half-open re-admission).
///
/// Global image ids interleave the shard id: `global = local * N + shard`,
/// so ids are dense per shard, never collide across shards, and coincide
/// with local ids when N == 1 (the degenerate mode stays byte-identical
/// to an unsharded platform).
///
/// Thread safety: all public methods are safe to call concurrently.
/// Probes snapshot a shard's engine handle, so KillShard during an
/// in-flight query lets that query finish against the old instance.
class ShardManager {
 public:
  /// Validates `options` (degenerate configs are kInvalidArgument) and
  /// builds the shard fleet. Durable shards that find existing state on
  /// disk recover it (WAL replay) before serving.
  static Result<std::unique_ptr<ShardManager>> Create(
      ShardManagerOptions options);

  ShardManager(const ShardManager&) = delete;
  ShardManager& operator=(const ShardManager&) = delete;

  int shard_count() const { return static_cast<int>(slots_.size()); }

  /// The grid cell `p` falls in (clamped into the region).
  int CellForLocation(const geo::GeoPoint& p) const;

  /// The shard owning `p`'s grid cell (clamped into the region).
  int ShardForLocation(const geo::GeoPoint& p) const;

  // --- Acquisition / analysis (routed to the owning shard) ---

  /// Routes by camera location; returns the image's global id.
  Result<int64_t> IngestImage(const ImageRecord& record);

  /// Atomic broadcast: registers the task on every shard through the
  /// two-phase intent/commit protocol (idempotent per shard). All shards
  /// must be live. Every shard's resulting classification id is verified
  /// against the first shard's — a mismatch is kDataLoss naming the
  /// divergent shards. A crash mid-broadcast leaves a durably logged
  /// intent that `ReconcileBroadcasts` / shard recovery completes forward
  /// (some shard already applied) or rolls back (none did), so the fleet
  /// always converges to one classification table.
  Result<int64_t> RegisterClassification(
      const std::string& name, const std::vector<std::string>& labels,
      const std::string& description = "");

  /// Repair entry point (also run automatically by Create and
  /// RecoverShard): resolves every pending broadcast intent visible on the
  /// live fleet. An intent is completed forward when any live shard
  /// already applied it, rolled back when every shard is live and none
  /// applied it, and deferred while a shard that might hold the only
  /// evidence is still down. Returns a report
  /// ({"completed","rolled_back","deferred","errors","consistent",
  ///   "divergent"}) — surfaced by the API's `reconcile` endpoint.
  Result<Json> ReconcileBroadcasts();

  /// Compares the classification tables (name -> id, label -> type id) of
  /// every live shard; divergence is kDataLoss naming the classifications
  /// and shards that disagree. `detail` (optional) receives the divergent
  /// entries per shard.
  Status VerifyClassificationConsistency(Json* detail = nullptr) const;

  /// Test hook called before each per-shard step of a broadcast with the
  /// phase ("intent" / "apply" / "commit") and the shard index. Returning
  /// false abandons the broadcast at that point — the simulated
  /// coordinator crash used by the fault-injection suite. The hook may
  /// call KillShard.
  void SetBroadcastHook(
      std::function<bool(const std::string& phase, int shard)> hook);

  /// Unresolved broadcast intents currently pending on one shard.
  size_t pending_broadcasts(int shard) const;

  /// Routes by the global image id; returns a global annotation id.
  Result<int64_t> AnnotateImage(int64_t image_id,
                                const AnnotationRecord& annotation);

  Status StoreFeature(int64_t image_id, const std::string& kind,
                      const ml::FeatureVector& feature);

  Result<ml::FeatureVector> GetFeature(int64_t image_id,
                                       const std::string& kind) const;

  /// The image's metadata row (download_datasets shape) with the global id.
  Result<Json> ImageRowJson(int64_t image_id) const;

  // --- Access ---

  struct ShardedQueryResult {
    std::vector<query::QueryHit> hits;
    query::Coverage coverage;
    /// N == 1: the shard's executed plan verbatim; N > 1: a ScatterGather
    /// wrapper node with the per-shard plans as children.
    Json plan;
  };

  /// Scatter-gather query execution with partial-result semantics. When
  /// `shed_shards_degraded` is set (the admission controller degraded the
  /// request) the lowest-estimated-selectivity shards are shed before any
  /// probe runs — whole shards go before whole queries.
  Result<ShardedQueryResult> ExecuteQuery(
      const query::HybridQuery& q, const RequestContext* ctx = nullptr,
      const query::QueryBudget& budget = query::QueryBudget(),
      bool shed_shards_degraded = false) const;

  /// Deterministic plan JSON without executing (explain_query shape).
  Result<Json> ExplainQuery(
      const query::HybridQuery& q,
      const query::QueryBudget& budget = query::QueryBudget()) const;

  // --- Fault injection & lifecycle ---

  /// Installs a fault profile on one shard (probabilities in [0, 1]).
  Status SetShardFaults(int shard, const ShardFaultProfile& faults);

  /// Simulates a process crash: the shard's engine is dropped without a
  /// checkpoint and its files stay, so recovery must replay its WAL. The
  /// dropped engine is fenced: a commit in flight finishes first, and a
  /// later write through a handle taken before the kill fails with
  /// kUnavailable. In-flight probes finish against the old instance;
  /// subsequent probes fail with kUnavailable until recovery. A replicated
  /// shard with a live replica promotes it at once. kFailedPrecondition
  /// while the shard is an endpoint of an in-flight cell migration, unless
  /// `force` (the migration then abandons and reconciliation resolves its
  /// durable intents).
  Status KillShard(int shard, bool force = false);

  /// Online recovery: reopens the shard from its snapshot + WAL (counting
  /// replayed records, recomputing the FOV spillover margin, and reloading
  /// pending broadcast intents) without restarting the platform. A
  /// reconciliation pass then resolves any broadcasts the crash left
  /// pending; the recovered shard stays up even when that pass reports
  /// divergence (kDataLoss). The shard's circuit breaker is left to
  /// re-admit it through its half-open probe. A replicated shard's
  /// replicas start again as copies of the recovered primary's files,
  /// attached before the primary takes writes.
  Status RecoverShard(int shard);

  // --- Replication & failover (DESIGN.md "Replication, failover, and
  //     fencing") ---

  /// Fails shard `shard` over to its most-caught-up live replica as a
  /// durable multi-phase state machine:
  ///
  ///   1. ship  — the capture channel is drained into the replicas;
  ///   2. apply — when the primary died with unshipped records, its WAL
  ///              tail (past the shipped offset) is read back and applied,
  ///              so every *acknowledged* write reaches the replicas even
  ///              under kAsync lag;
  ///   3. ack   — every live replica fsyncs its own WAL;
  ///   4. promote — the shard map is atomically rewritten with a bumped
  ///              fencing epoch and the new primary path: THE cross-restart
  ///              commit point (a crash before it resolves to the old
  ///              primary, after it to the new one);
  ///   5. fence — the old primary engine (if still held anywhere) starts
  ///              rejecting writes with kFailedPrecondition, and the
  ///              replica channel rejects its stale-epoch captures;
  ///   6. flip  — routing atomically swaps to the promoted engine, which
  ///              from now on commits with the fleet's `sync_on_commit`; the
  ///              shard's circuit breaker resets, and the capture observer
  ///              rebinds to the new primary.
  ///
  /// A promotion requested while the shard is a migration endpoint is
  /// deferred ({"action":"deferred"}) and runs when the migration
  /// resolves. kFailedPrecondition when the shard has no live replica.
  /// Returns {"shard","action","old_epoch","new_epoch","promoted_replica",
  /// "applied_tail_records"}.
  Result<Json> PromoteShard(int shard);

  /// Test hook called at each promotion phase boundary
  /// ("ship" / "apply" / "ack" / "promote" / "fence" / "flip") with the
  /// shard being promoted. Returning false abandons the promotion at that
  /// point — the simulated coordinator crash; durable state is left for
  /// Create / RecoverShard to resolve from evidence.
  void SetPromotionHook(
      std::function<bool(const std::string& phase, int shard)> hook);

  /// Kills one replica of a replicated shard (fault injection).
  Status KillReplica(int shard, int replica);

  /// True while a promotion of `shard` is in flight (RebalanceCells
  /// refuses to touch such a shard).
  bool shard_promoting(int shard) const;

  /// The shard's current fencing epoch (0 until its first failover).
  int64_t shard_epoch(int shard) const;

  /// Which copy path currently serves as the primary (0 = the original
  /// `shard_<i>` path; r >= 1 = replica path `shard_<i>_replica_<r-1>`).
  int shard_primary_index(int shard) const;

  /// Live replicas standing by for `shard` (0 when unreplicated).
  int live_replica_count(int shard) const;

  /// Captured-but-unshipped records on `shard`'s replication channel (the
  /// kAsync lag; 0 under kSync outside a write's critical section).
  size_t replica_lag_records(int shard) const;

  // --- Online rebalancing (DESIGN.md "Online shard rebalancing") ---

  /// Moves the given grid cells from `source` to `target` while both keep
  /// serving, as a durable multi-phase state machine:
  ///
  ///   1. intent   — a kMigrationIntent record is fsynced into both shards'
  ///                 broadcast logs before anything moves;
  ///   2. copy     — the cells' rows (images, annotations, features) are
  ///                 bulk-copied into the target through the normal ingest
  ///                 path while the source keeps absorbing writes; copied
  ///                 rows keep their original global ids via relocation
  ///                 maps, so the dual-serving window stays exact (the
  ///                 scatter-gather merge dedups by image id);
  ///   3. catch-up — idempotent diff passes re-copy whatever arrived during
  ///                 the bulk copy until the delta drains;
  ///   4. cutover  — new writes are briefly gated, a final catch-up runs,
  ///                 the new shard map (cell ownership + relocations) is
  ///                 atomically persisted to `<base_path>/shard_map.json` —
  ///                 THE cross-restart commit point — and the in-memory
  ///                 routing, prune regions and FOV margins flip;
  ///   5. commit+gc— commit markers resolve the intents and the moved rows
  ///                 are garbage-collected from the source.
  ///
  /// A crash at any boundary leaves durable evidence that Create /
  /// RecoverShard / ReconcileBroadcasts resolves: forward once the shard
  /// map committed, backward before it. Guards: unknown or duplicate cells,
  /// source == target, or an out-of-range shard are kInvalidArgument; a
  /// cell not owned by `source`, a dead endpoint, divergent classification
  /// tables, or an unresolved earlier migration are kFailedPrecondition.
  /// Returns a report ({"migration_id","cells","source","target",
  /// "rows_copied","rows_caught_up","relocations"}).
  Result<Json> RebalanceCells(const std::vector<int>& cells, int source,
                              int target);

  /// Test hook called at each migration phase boundary
  /// ("intent" / "copy" / "catchup" / "cutover" / "commit" / "gc") with the
  /// shard the step is about to touch. Returning false abandons the
  /// migration at that point — the simulated coordinator crash. Durable
  /// state (intents, the shard map) is left as-is for reconciliation; the
  /// endpoints keep dual-serving so queries stay exact until then.
  void SetMigrationHook(
      std::function<bool(const std::string& phase, int shard)> hook);

  /// True while `shard` is an endpoint of an unresolved cell migration.
  bool shard_migrating(int shard) const;

  bool shard_alive(int shard) const;
  edge::CircuitState breaker_state(int shard) const;

  /// WAL records replayed by the last RecoverShard of this shard.
  size_t replayed_records(int shard) const;

  /// Per-shard operational state for the platform_stats endpoint: breaker
  /// state, image/WAL sizes, probe counters, last-probe p50/p99.
  Json StatsJson() const;

  size_t image_count() const;

  /// Direct access to one shard's engine (tests); nullptr while killed.
  Tvdp* shard(int i);

 private:
  friend class ShardProbeTarget;

  struct Slot {
    /// The primary engine; null while the shard is down.
    std::shared_ptr<Tvdp> tvdp;
    ShardFaultProfile faults;
    Rng rng{0};
    double max_fov_radius_m = 0;
    geo::BoundingBox cells = geo::BoundingBox::Empty();
    size_t probes = 0;
    size_t failures = 0;
    size_t replayed = 0;
    std::vector<double> latencies;  ///< ring buffer of probe latencies
    size_t latency_next = 0;
    /// Mirror of the shard's unresolved broadcast intents (the source of
    /// truth is the shard's broadcast log). Guarded by slots_mutex_;
    /// refreshed from the log on Create/RecoverShard.
    std::map<int64_t, storage::PendingBroadcast> pending_broadcasts;
    /// True while this shard is an endpoint of an unresolved cell
    /// migration; successful probes then report kMigrating and the merge
    /// dedups the dual-served rows. Guarded by slots_mutex_.
    bool migrating = false;
    /// local id -> original global id for rows this shard serves on behalf
    /// of another shard (migrated in, or mid-copy). Immutable snapshot
    /// swapped under slots_mutex_; probes read it lock-free after the swap.
    std::shared_ptr<const std::unordered_map<int64_t, int64_t>>
        reverse_relocations;
    /// Replica group (nullptr when replication is off). Set at Create,
    /// reassignment only under slots_mutex_; the set's own state is
    /// self-locked.
    std::shared_ptr<ReplicaSet> replicas;
    /// Fencing epoch of the current primary; bumped by each committed
    /// promotion. Guarded by slots_mutex_.
    int64_t epoch = 0;
    /// Which copy path the primary engine serves from (0 = `shard_<i>`,
    /// r >= 1 = `shard_<i>_replica_<r-1>`). Guarded by slots_mutex_.
    int primary_index = 0;
    /// True while a promotion of this shard is in flight; RebalanceCells
    /// refuses to touch it. Guarded by slots_mutex_.
    bool promoting = false;
    /// Round-robin lane for balanced replica reads. Guarded by
    /// slots_mutex_.
    size_t read_rr = 0;
  };

  /// Coordinator-side state of the (single) in-flight migration. Guarded by
  /// slots_mutex_; only RebalanceCells (serialized by migration_mutex_)
  /// mutates it.
  struct MigrationState {
    bool active = false;
    int64_t id = 0;
    std::vector<int> cells;
    int source = -1;
    int target = -1;
    std::string phase;  ///< "", copy, catchup, cutover, commit, gc,
                        ///< abandoned, done
    int64_t high_water = 0;  ///< source image rows at intent (informational)
    size_t rows_copied = 0;
    size_t rows_caught_up = 0;
    /// source-local id -> target-local id of every row copied so far.
    std::unordered_map<int64_t, int64_t> relocations;
  };

  explicit ShardManager(ShardManagerOptions options);

  double NowMs() const;

  /// Where a global image id lives: its shard, its local id there and the
  /// shard's engine handle.
  struct ImageOwner {
    int shard = 0;
    int64_t local = 0;
    std::shared_ptr<Tvdp> tvdp;
  };

  /// Routes `image_id` through `relocated_`, else `id % n` / `id / n`.
  /// kInvalidArgument for a negative id, kUnavailable while the owning
  /// shard is down. Callers hold a WriteTicket, so the route cannot span a
  /// cutover.
  Result<ImageOwner> OwnerOf(int64_t image_id) const;

  /// The shard's prune region: its cells' union expanded by the largest
  /// FOV radius ingested into it. Caller holds slots_mutex_.
  geo::BoundingBox ExpandedRegionLocked(int shard) const;

  /// One probe against a snapshotted engine handle: fault draws first
  /// (crash / hang / slow), then the shard-local query, then local ->
  /// global id translation. Replica probes pass `inject_faults = false`:
  /// the configured fault profile models the primary, and a failover read
  /// must not re-roll the dice that just killed the primary probe.
  Result<std::vector<query::QueryHit>> ProbeShard(
      int shard, const std::shared_ptr<Tvdp>& tvdp,
      const query::HybridQuery& q, const RequestContext& ctx,
      const query::QueryBudget& budget, query::QueryPlan* plan_out,
      bool inject_faults = true) const;

  query::ShardEstimate EstimateShard(const std::shared_ptr<Tvdp>& tvdp,
                                     const query::HybridQuery& q) const;

  /// Breaker + latency bookkeeping for one gathered probe outcome. A
  /// breaker that trips open for a replicated shard whose engine is dead
  /// retries the automatic promotion (the KillShard-time attempt may have
  /// been vetoed by a fault hook).
  void RecordProbeOutcome(const query::ShardReport& report) const;

  // --- Replication internals ---

  /// Store root of copy `copy` of shard `shard`: copy 0 is
  /// `<base>/shard_<i>` (the pre-replication layout, unchanged), copy
  /// r >= 1 is `<base>/shard_<i>_replica_<r-1>`.
  std::string CopyPath(int shard, int copy) const;

  /// Replica copy slot r's path index given the current primary: the
  /// (r+1)-th copy index skipping `primary_index`.
  int ReplicaCopyIndex(int primary_index, int r) const;

  /// Attaches `shard`'s replicas to `primary` (`ReplicaSet::Attach`: each
  /// replica path gets a copy of the primary's files, replacing any stale
  /// state, and opens from it). `primary_index` names the copy path the
  /// primary serves from. Caller must not hold slots_mutex_.
  Status AttachReplicas(int shard, const std::shared_ptr<Tvdp>& primary,
                        int primary_index,
                        const std::shared_ptr<ReplicaSet>& replicas);

  /// Ships `shard`'s captured mutations to its replicas according to the
  /// configured sync level (kSync: always, before the write is
  /// acknowledged; kAsync: once the lag bound is reached). Called after
  /// every successful routed write.
  void ShipShard(int shard) const;

  /// True unless the promotion test hook vetoes this step. Caller holds
  /// promotion_mutex_.
  bool PromotionHookOk(const char* phase, int shard) const;

  /// Runs any promotions deferred behind a migration that has since
  /// resolved. Takes promotion_mutex_ via PromoteShard; caller must hold
  /// neither promotion_mutex_ nor slots_mutex_.
  void DrainDeferredPromotions();

  /// Appends one broadcast or migration record to `shard`'s log (fsynced
  /// through the DurableCatalog) and updates the slot's mirror.
  /// Unavailable when the shard is down. Caller holds
  /// broadcast_mutex_ or migration_mutex_ (the mirror itself is guarded by
  /// slots_mutex_ inside).
  Status AppendBroadcastTo(int shard, const storage::WalRecord& record);

  /// True unless a test hook vetoes this step (simulated coordinator
  /// crash). Caller holds broadcast_mutex_.
  bool BroadcastHookOk(const char* phase, int shard) const;

  /// Reconciliation + consistency check bodies; caller holds a WriteTicket
  /// (reconciliation mutates shard engines — rollback sweeps, forward
  /// re-applies — and the cutover/fence write gate must be able to drain
  /// it) and then broadcast_mutex_, in that order.
  Result<Json> ReconcileLocked();
  Status VerifyConsistencyLocked(Json* detail) const;

  // --- Rebalancing internals ---

  /// RAII write ticket: every engine-mutating ShardManager path (routed
  /// writes, classification broadcasts, reconciliation, foreign-row
  /// sweeps) holds one so a cutover (which flips the routing) or a
  /// promotion fence (which raises the epoch gate) can wait the in-flight
  /// mutations out instead of racing them. Acquired before
  /// broadcast_mutex_, never inside it — and never nested: a holder that
  /// re-acquired while BlockWrites waits would deadlock the barrier.
  class WriteTicket {
   public:
    explicit WriteTicket(const ShardManager* mgr);
    ~WriteTicket();

   private:
    const ShardManager* mgr_;
  };
  friend class WriteTicket;

  /// Blocks new write tickets and waits until the in-flight count drains
  /// (the cutover barrier) / lifts the block.
  void BlockWrites() const;
  void UnblockWrites() const;

  /// True unless the migration test hook vetoes this step. Caller holds
  /// migration_mutex_.
  bool MigrationHookOk(const char* phase, int shard) const;

  /// One idempotent copy/diff pass of the in-flight migration: full-copies
  /// source rows in the migrating cells that have no relocation yet and
  /// diff-copies new annotations / feature kinds onto already-copied rows.
  /// Returns the number of rows this pass changed (0 = caught up). Caller
  /// holds migration_mutex_; engine work runs lock-free on the snapshotted
  /// handles.
  Result<size_t> MigrationCopyPass(
      const std::shared_ptr<Tvdp>& src, const std::shared_ptr<Tvdp>& dst,
      const std::function<bool(const geo::GeoPoint&)>& in_cells, int source,
      int target);

  /// RebalanceCells / RecoverShard bodies; the public wrappers drain any
  /// deferred promotions after the migration locks are released.
  Result<Json> RebalanceCellsInner(const std::vector<int>& cells, int source,
                                   int target);
  Status RecoverShardInner(int shard);

  /// Marks the in-flight migration abandoned (coordinator crash model):
  /// durable intents stay pending for reconciliation and the endpoints keep
  /// their migrating flags (dual-serve keeps queries exact). Returns
  /// kUnavailable carrying `why`.
  Status AbandonMigration(const std::string& why);

  /// Deletes every row on `shard` whose cell the current shard map assigns
  /// to a different shard, then recomputes the shard's FOV margin — the GC
  /// half of forward recovery and the undo half of rollback. The public
  /// entry acquires a WriteTicket; the Ticketed body is for callers
  /// (ReconcileLocked) already holding one.
  Status SweepForeignRows(int shard);
  Status SweepForeignRowsTicketed(int shard);

  /// Recomputes `shard`'s cells bounding box from cell_to_shard_. Caller
  /// holds slots_mutex_.
  void RecomputeCellsLocked(int shard);

  /// Rebuilds every slot's reverse relocation map from relocated_ (drops
  /// any in-copy entries of an abandoned migration). Caller holds
  /// slots_mutex_.
  void RebuildReverseMapsLocked();

  std::string ShardMapPath() const;

  /// Atomically persists the given post-cutover cell map together with the
  /// persisted per-shard fencing epochs / primary copy indices — the
  /// durable commit point of a migration or a promotion. Caller holds
  /// shard_map_mutex_ (the single serialization point for every
  /// shard_map.json write; epochs and primaries are always sourced from
  /// persisted_epochs_ / persisted_primaries_ at write time, so a
  /// concurrent writer can never regress another shard's committed
  /// promotion).
  Status WriteShardMapLocked(const std::vector<int>& cell_map,
                             const std::vector<std::array<int64_t, 3>>& relocs,
                             const std::vector<int64_t>& committed);

  /// Snapshots the current cell state under slots_mutex_, then (under
  /// shard_map_mutex_) bumps `shard`'s persisted epoch / primary and writes
  /// the map — the promotion commit point. The persisted vectors are
  /// reverted if the write fails, so an aborted promotion cannot flip a
  /// later restart onto an unpromoted replica.
  Status CommitPromotionToShardMap(int shard, int64_t new_epoch,
                                   int new_primary_index);

  /// Loads `<base_path>/shard_map.json` if present, overriding the options'
  /// cell assignments and seeding relocated_ / committed_migrations_ /
  /// boot_epochs_ / boot_primaries_. Returns whether a map file existed
  /// (its existence triggers a foreign-row sweep at Create — the GC a
  /// crash may have skipped).
  Result<bool> LoadShardMap();

  /// Files of a fleet without a base path; declared first so it outlives
  /// every engine and replica whose files it holds.
  std::unique_ptr<MemFs> mem_fs_;
  /// `durable.fs` is never null after Create.
  ShardManagerOptions options_;
  /// Mutable under slots_mutex_ since cutovers rewrite cell ownership.
  std::vector<int> cell_to_shard_;
  mutable std::vector<Slot> slots_;
  mutable std::mutex slots_mutex_;
  /// Serializes fleet-wide broadcasts, reconciliation, and recovery; taken
  /// before slots_mutex_ (never the reverse). A migration takes it only
  /// briefly per append batch; migration_mutex_ orders before it.
  mutable std::mutex broadcast_mutex_;
  int64_t next_broadcast_id_ = 1;  ///< guarded by broadcast_mutex_
  std::function<bool(const std::string&, int)> broadcast_hook_;

  /// Serializes promotions end to end (one in flight at a time).
  /// Deliberately independent of the order chain below: PromoteShard never
  /// takes migration_mutex_ or broadcast_mutex_, so a promotion hook may
  /// re-entrantly call RebalanceCells / KillShard without a cycle.
  mutable std::mutex promotion_mutex_;
  std::function<bool(const std::string&, int)> promotion_hook_;  ///< by promotion_mutex_
  /// Shards whose promotion is parked behind an in-flight migration; the
  /// migration's resolution drains them. Guarded by slots_mutex_.
  std::unordered_set<int> deferred_promotions_;
  /// Epochs / primary copy indices loaded from shard_map.json, consumed by
  /// Create when building the slots (empty = fresh map, all zeros).
  std::vector<int64_t> boot_epochs_;
  std::vector<int> boot_primaries_;

  /// Serializes migrations end to end (one in flight at a time). Lock
  /// order: migration_mutex_ -> broadcast_mutex_ -> slots_mutex_.
  mutable std::mutex migration_mutex_;
  MigrationState migration_;  ///< guarded by slots_mutex_
  std::function<bool(const std::string&, int)> migration_hook_;  ///< by migration_mutex_
  /// original global id -> (owning shard, local id) for every row moved by
  /// a committed migration; consulted before the arithmetic id % N routing.
  /// Guarded by slots_mutex_.
  std::unordered_map<int64_t, std::pair<int, int64_t>> relocated_;
  /// Ids of migrations whose cutover committed (survives restarts through
  /// shard_map.json) — the evidence recovery rolls forward on. Guarded by
  /// slots_mutex_.
  std::unordered_set<int64_t> committed_migrations_;

  /// Serializes every shard_map.json write (promotion commits and
  /// rebalance cutovers would otherwise interleave and regress each
  /// other's persisted state). The rebalance cutover holds it across the
  /// file write AND the in-memory routing flip so a concurrent promotion's
  /// map write cannot snapshot the pre-flip cell map after the cutover
  /// committed. Ordered before slots_mutex_, never inside it.
  mutable std::mutex shard_map_mutex_;
  int64_t shard_map_version_ = 0;  ///< guarded by shard_map_mutex_
  /// Per-shard fencing epoch / primary copy index as last durably written
  /// to shard_map.json (seeded from boot_epochs_ / boot_primaries_ at
  /// Create). Authoritative for map writes: slots_ lag behind between a
  /// promotion's commit point (phase 4) and its in-memory flip (phase 6).
  /// Guarded by shard_map_mutex_.
  std::vector<int64_t> persisted_epochs_;
  std::vector<int> persisted_primaries_;

  /// The cutover write gate (leaf lock; never held across engine calls).
  mutable std::mutex gate_mutex_;
  mutable std::condition_variable gate_cv_;
  mutable int writes_in_flight_ = 0;
  mutable bool write_block_ = false;
  /// DeviceHealthTracker is not thread-safe; every access goes through
  /// this mutex.
  mutable std::unique_ptr<edge::DeviceHealthTracker> tracker_;
  mutable std::mutex tracker_mutex_;
};

}  // namespace tvdp::platform

#endif  // TVDP_PLATFORM_SHARDING_H_
