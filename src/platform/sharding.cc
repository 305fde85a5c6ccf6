#include "platform/sharding.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <thread>

#include "common/file.h"
#include "common/logging.h"
#include "common/percentile.h"
#include "query/planner.h"
#include "storage/wal.h"

namespace tvdp::platform {

namespace {

/// Meters per degree of latitude (spherical model); longitude scales by
/// cos(latitude).
constexpr double kMetersPerDegLat = 111320.0;

/// Expands `box` by `radius_m` meters in every direction (degree-space
/// approximation, ample for city-scale prune regions).
geo::BoundingBox ExpandByMeters(geo::BoundingBox box, double radius_m) {
  if (box.IsEmpty() || radius_m <= 0) return box;
  const double dlat = radius_m / kMetersPerDegLat;
  const double mid_lat = (box.min_lat + box.max_lat) / 2;
  const double cos_lat =
      std::max(0.01, std::cos(geo::DegToRad(mid_lat)));
  const double dlon = radius_m / (kMetersPerDegLat * cos_lat);
  box.min_lat -= dlat;
  box.max_lat += dlat;
  box.min_lon -= dlon;
  box.max_lon += dlon;
  return box;
}

Json BBoxJson(const geo::BoundingBox& b) {
  Json arr = Json::MakeArray();
  arr.Append(Json(b.min_lat));
  arr.Append(Json(b.min_lon));
  arr.Append(Json(b.max_lat));
  arr.Append(Json(b.max_lon));
  return arr;
}

constexpr size_t kLatencyRing = 256;

}  // namespace

/// The per-query ShardTarget adapter handed to the scatter-gather stage.
/// It snapshots the shard's engine handle at query start, so a concurrent
/// KillShard lets in-flight probes finish against the old instance.
class ShardProbeTarget : public query::ShardTarget {
 public:
  ShardProbeTarget(const ShardManager* mgr, int shard,
                   std::shared_ptr<Tvdp> tvdp, geo::BoundingBox region,
                   bool migrating,
                   std::vector<std::shared_ptr<Tvdp>> replicas = {},
                   int preferred_replica = -1)
      : mgr_(mgr),
        shard_(shard),
        tvdp_(std::move(tvdp)),
        region_(region),
        migrating_(migrating),
        replicas_(std::move(replicas)),
        preferred_replica_(preferred_replica) {}

  int id() const override { return shard_; }
  geo::BoundingBox region() const override { return region_; }
  bool migrating() const override { return migrating_; }

  Result<std::vector<query::QueryHit>> Probe(const query::HybridQuery& q,
                                             const RequestContext& ctx,
                                             const query::QueryBudget& budget,
                                             query::QueryPlan* plan_out)
      override {
    return mgr_->ProbeShard(shard_, tvdp_, q, ctx, budget, plan_out);
  }

  query::ShardEstimate Estimate(const query::HybridQuery& q) const override {
    return mgr_->EstimateShard(tvdp_, q);
  }

  int replica_count() const override {
    return static_cast<int>(replicas_.size());
  }

  int preferred_replica() const override { return preferred_replica_; }

  Result<std::vector<query::QueryHit>> ProbeReplica(
      int r, const query::HybridQuery& q, const RequestContext& ctx,
      const query::QueryBudget& budget, query::QueryPlan* plan_out) override {
    if (r < 0 || r >= static_cast<int>(replicas_.size())) {
      return Status::Unavailable("replica index out of range");
    }
    // A replica holds the same local id space as its primary, so the same
    // id translation applies. Fault injection stays off: the configured
    // profile models the primary, and the failover read must not re-roll
    // the dice that just killed the primary probe.
    return mgr_->ProbeShard(shard_, replicas_[static_cast<size_t>(r)], q, ctx,
                            budget, plan_out, /*inject_faults=*/false);
  }

 private:
  const ShardManager* mgr_;
  int shard_;
  std::shared_ptr<Tvdp> tvdp_;
  geo::BoundingBox region_;
  bool migrating_;
  std::vector<std::shared_ptr<Tvdp>> replicas_;
  int preferred_replica_;
};

ShardManager::ShardManager(ShardManagerOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<ShardManager>> ShardManager::Create(
    ShardManagerOptions options) {
  if (options.shard_count < 1) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (options.grid_rows < 1 || options.grid_cols < 1) {
    return Status::InvalidArgument(
        "shard grid must have at least one row and one column");
  }
  if (options.region.IsEmpty() ||
      !geo::IsValid({options.region.min_lat, options.region.min_lon}) ||
      !geo::IsValid({options.region.max_lat, options.region.max_lon})) {
    return Status::InvalidArgument(
        "shard grid region must be a valid non-empty bounding box");
  }
  const int cells = options.grid_rows * options.grid_cols;
  if (options.shard_count > cells) {
    return Status::InvalidArgument(
        "shard_count exceeds the number of grid cells");
  }
  std::set<int> assigned;
  for (const auto& [cell, shard] : options.cell_assignments) {
    if (cell < 0 || cell >= cells) {
      return Status::InvalidArgument("cell assignment out of grid range");
    }
    if (shard < 0 || shard >= options.shard_count) {
      return Status::InvalidArgument("cell assigned to an unknown shard");
    }
    if (!assigned.insert(cell).second) {
      return Status::InvalidArgument("duplicate cell assignment for cell " +
                                     std::to_string(cell));
    }
  }
  if (!(options.gather.per_shard_deadline_fraction > 0) ||
      options.gather.per_shard_deadline_fraction > 1) {
    return Status::InvalidArgument(
        "per_shard_deadline_fraction must be in (0, 1]");
  }
  if (!(options.gather.degraded_keep_fraction > 0) ||
      options.gather.degraded_keep_fraction > 1) {
    return Status::InvalidArgument(
        "degraded_keep_fraction must be in (0, 1]");
  }
  if (options.breaker.failure_threshold < 1) {
    return Status::InvalidArgument("breaker failure_threshold must be >= 1");
  }
  if (options.replication.replication_factor < 1) {
    return Status::InvalidArgument(
        "replication_factor must be >= 1 (1 = replication off)");
  }
  if (options.replication.max_async_lag_records < 1) {
    return Status::InvalidArgument("max_async_lag_records must be >= 1");
  }

  auto mgr =
      std::unique_ptr<ShardManager>(new ShardManager(std::move(options)));
  // Every shard and replica commits through its own WAL; a fleet without a
  // base path keeps all of them in one MemFs of its own.
  storage::DurableCatalogOptions& durable = mgr->options_.durable;
  if (!durable.fs && mgr->options_.base_path.empty()) {
    mgr->mem_fs_ = std::make_unique<MemFs>();
    durable.fs = mgr->mem_fs_.get();
  }
  if (!durable.fs) durable.fs = Fs::Default();
  const ShardManagerOptions& opts = mgr->options_;
  const int n = opts.shard_count;

  // cell -> shard: explicit assignments first, round-robin for the rest.
  mgr->cell_to_shard_.assign(static_cast<size_t>(cells), -1);
  for (const auto& [cell, shard] : opts.cell_assignments) {
    mgr->cell_to_shard_[static_cast<size_t>(cell)] = shard;
  }
  for (int c = 0; c < cells; ++c) {
    if (mgr->cell_to_shard_[static_cast<size_t>(c)] < 0) {
      mgr->cell_to_shard_[static_cast<size_t>(c)] = c % n;
    }
  }
  // A persisted shard map (written at a migration's cutover) overrides the
  // configured assignments: committed cell moves survive restarts.
  TVDP_ASSIGN_OR_RETURN(bool had_shard_map, mgr->LoadShardMap());

  mgr->slots_.resize(static_cast<size_t>(n));
  Rng seed_rng(opts.fault_seed);
  const int rf = opts.replication.replication_factor;
  for (int i = 0; i < n; ++i) {
    Slot& slot = mgr->slots_[static_cast<size_t>(i)];
    slot.rng = seed_rng.Fork();
    mgr->RecomputeCellsLocked(i);
    // Evidence-only failover recovery: the persisted shard map names the
    // copy path whose engine is the primary (a crash between a promotion's
    // commit point and its in-memory flip resolves here — the promoted
    // replica's path opens as the primary, the stale old primary's path is
    // overwritten with a copy of it as a replica below, so its forked
    // history can never serve).
    if (i < static_cast<int>(mgr->boot_primaries_.size())) {
      slot.primary_index = mgr->boot_primaries_[static_cast<size_t>(i)];
      slot.epoch = mgr->boot_epochs_[static_cast<size_t>(i)];
    }
    if (slot.primary_index < 0 || slot.primary_index >= rf) {
      return Status::FailedPrecondition(
          "shard_map.json promotes shard " + std::to_string(i) + " to copy " +
          std::to_string(slot.primary_index) + " but replication_factor is " +
          std::to_string(rf));
    }
    TVDP_ASSIGN_OR_RETURN(
        Tvdp t, Tvdp::Open(mgr->CopyPath(i, slot.primary_index), opts.durable));
    slot.tvdp = std::make_shared<Tvdp>(std::move(t));
    slot.tvdp->set_epoch(slot.epoch);
    storage::DurableCatalog* dc = slot.tvdp->durable_catalog();
    slot.replayed = dc->replayed_records();
    // The spillover prune margin must survive a reopen: recompute it from
    // the recovered catalog instead of restarting at 0 (which silently
    // dropped FOV-overlap matches near shard borders).
    slot.max_fov_radius_m = slot.tvdp->MaxFovRadiusM();
    for (const storage::PendingBroadcast& p : dc->PendingBroadcasts()) {
      slot.pending_broadcasts[p.broadcast_id] = p;
    }
    mgr->next_broadcast_id_ =
        std::max(mgr->next_broadcast_id_, dc->max_broadcast_id() + 1);
    if (rf > 1) {
      slot.replicas = std::make_shared<ReplicaSet>(i, slot.epoch);
      TVDP_RETURN_IF_ERROR(mgr->AttachReplicas(i, slot.tvdp,
                                               slot.primary_index,
                                               slot.replicas));
    }
  }
  // Seed the persisted epoch/primary vectors from what the slots booted
  // with: these (not the slots, which lag mid-promotion) are what every
  // subsequent shard_map.json write sources.
  mgr->persisted_epochs_.reserve(static_cast<size_t>(n));
  mgr->persisted_primaries_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    mgr->persisted_epochs_.push_back(mgr->slots_[static_cast<size_t>(i)].epoch);
    mgr->persisted_primaries_.push_back(
        mgr->slots_[static_cast<size_t>(i)].primary_index);
  }
  if (mgr->options_.breakers) {
    mgr->tracker_ = std::make_unique<edge::DeviceHealthTracker>(
        static_cast<size_t>(n), mgr->options_.breaker);
  }
  mgr->RebuildReverseMapsLocked();
  bool any_pending = false;
  for (const Slot& slot : mgr->slots_) {
    if (!slot.pending_broadcasts.empty()) any_pending = true;
  }
  if (any_pending) {
    // Startup reconciliation: resolve the broadcasts and migrations a
    // previous process's crash left pending before this fleet starts
    // serving.
    WriteTicket ticket(mgr.get());
    std::lock_guard<std::mutex> lock(mgr->broadcast_mutex_);
    Result<Json> report = mgr->ReconcileLocked();
    if (!report.ok()) return report.status();
  }
  if (had_shard_map) {
    // A shard map on disk proves at least one cutover committed; a crash
    // between that commit point and GC can leave moved rows on their old
    // shard with no pending intent to say so. Sweeping foreign rows is
    // idempotent, so run it unconditionally on every live shard.
    for (int i = 0; i < n; ++i) {
      if (!mgr->shard_alive(i)) continue;
      Status swept = mgr->SweepForeignRows(i);
      if (!swept.ok()) return swept;
    }
  }
  return mgr;
}

double ShardManager::NowMs() const {
  if (options_.now_ms) return options_.now_ms();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ShardManager::CellForLocation(const geo::GeoPoint& p) const {
  const geo::BoundingBox& r = options_.region;
  const double dlat = (r.max_lat - r.min_lat) / options_.grid_rows;
  const double dlon = (r.max_lon - r.min_lon) / options_.grid_cols;
  int row = dlat > 0 ? static_cast<int>((p.lat - r.min_lat) / dlat) : 0;
  int col = dlon > 0 ? static_cast<int>((p.lon - r.min_lon) / dlon) : 0;
  row = std::clamp(row, 0, options_.grid_rows - 1);
  col = std::clamp(col, 0, options_.grid_cols - 1);
  return row * options_.grid_cols + col;
}

int ShardManager::ShardForLocation(const geo::GeoPoint& p) const {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return cell_to_shard_[static_cast<size_t>(CellForLocation(p))];
}

ShardManager::WriteTicket::WriteTicket(const ShardManager* mgr) : mgr_(mgr) {
  std::unique_lock<std::mutex> lock(mgr_->gate_mutex_);
  mgr_->gate_cv_.wait(lock, [&] { return !mgr_->write_block_; });
  ++mgr_->writes_in_flight_;
}

ShardManager::WriteTicket::~WriteTicket() {
  std::lock_guard<std::mutex> lock(mgr_->gate_mutex_);
  if (--mgr_->writes_in_flight_ == 0) mgr_->gate_cv_.notify_all();
}

void ShardManager::BlockWrites() const {
  std::unique_lock<std::mutex> lock(gate_mutex_);
  write_block_ = true;
  gate_cv_.wait(lock, [&] { return writes_in_flight_ == 0; });
}

void ShardManager::UnblockWrites() const {
  std::lock_guard<std::mutex> lock(gate_mutex_);
  write_block_ = false;
  gate_cv_.notify_all();
}

geo::BoundingBox ShardManager::ExpandedRegionLocked(int shard) const {
  const Slot& slot = slots_[static_cast<size_t>(shard)];
  return ExpandByMeters(slot.cells, slot.max_fov_radius_m);
}

Result<int64_t> ShardManager::IngestImage(const ImageRecord& record) {
  if (!geo::IsValid(record.location)) {
    return Status::InvalidArgument("image location out of lat/lon bounds");
  }
  // The ticket pins the routing decision: a cutover (which rewrites cell
  // ownership) waits until in-flight writes drain, so a row can never land
  // on a shard that stopped owning its cell mid-insert.
  WriteTicket ticket(this);
  int shard;
  std::shared_ptr<Tvdp> tvdp;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    shard = cell_to_shard_[static_cast<size_t>(CellForLocation(
        record.location))];
    const Slot& slot = slots_[static_cast<size_t>(shard)];
    if (!slot.tvdp) {
      return Status::Unavailable("shard " + std::to_string(shard) +
                                 " is down");
    }
    tvdp = slot.tvdp;
  }
  TVDP_ASSIGN_OR_RETURN(int64_t local, tvdp->IngestImage(record));
  if (record.fov.has_value()) {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    Slot& slot = slots_[static_cast<size_t>(shard)];
    slot.max_fov_radius_m =
        std::max(slot.max_fov_radius_m, record.fov->radius_m);
  }
  ShipShard(shard);
  return local * shard_count() + shard;
}

std::string ShardManager::CopyPath(int shard, int copy) const {
  std::string base = options_.base_path + "/shard_" + std::to_string(shard);
  if (copy == 0) return base;
  return base + "_replica_" + std::to_string(copy - 1);
}

int ShardManager::ReplicaCopyIndex(int primary_index, int r) const {
  // Copy indices 0..rf-1 minus the primary's, in order; replica slot r is
  // the (r+1)-th remaining index. Stable across promotions: the demoted
  // primary's path becomes a replica path without renaming any directory.
  int seen = -1;
  for (int c = 0; c < options_.replication.replication_factor; ++c) {
    if (c == primary_index) continue;
    if (++seen == r) return c;
  }
  return -1;
}

Status ShardManager::AttachReplicas(
    int shard, const std::shared_ptr<Tvdp>& primary, int primary_index,
    const std::shared_ptr<ReplicaSet>& replicas) {
  const int rf = options_.replication.replication_factor;
  std::vector<std::string> paths;
  paths.reserve(static_cast<size_t>(rf - 1));
  for (int r = 0; r + 1 < rf; ++r) {
    paths.push_back(CopyPath(shard, ReplicaCopyIndex(primary_index, r)));
  }
  return replicas->Attach(primary, paths, options_.durable,
                          options_.replication.sync);
}

void ShardManager::ShipShard(int shard) const {
  std::shared_ptr<ReplicaSet> reps;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    reps = slots_[static_cast<size_t>(shard)].replicas;
  }
  if (!reps) return;
  // kSync: every acked write is on every live replica (fsynced when
  // durable) before the caller returns. kAsync: ship only once the lag
  // bound is hit; the channel carries the rest until then.
  if (options_.replication.sync == SyncLevel::kSync ||
      reps->lag_records() >= options_.replication.max_async_lag_records) {
    (void)reps->Ship();
  }
}

void ShardManager::SetBroadcastHook(
    std::function<bool(const std::string& phase, int shard)> hook) {
  std::lock_guard<std::mutex> lock(broadcast_mutex_);
  broadcast_hook_ = std::move(hook);
}

bool ShardManager::BroadcastHookOk(const char* phase, int shard) const {
  if (!broadcast_hook_) return true;
  return broadcast_hook_(phase, shard);
}

Status ShardManager::AppendBroadcastTo(int shard,
                                       const storage::WalRecord& record) {
  std::shared_ptr<Tvdp> tvdp;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    const Slot& slot = slots_[static_cast<size_t>(shard)];
    // Re-checked under the lock on every per-shard step: a handle
    // snapshotted before a KillShard must never receive broadcast writes —
    // a "crashed" shard that kept durably logging would falsify the crash
    // model the reconciliation tests rely on.
    if (!slot.tvdp) {
      return Status::Unavailable("shard " + std::to_string(shard) +
                                 " is down");
    }
    tvdp = slot.tvdp;
  }
  // fsyncs before returning; deliberately outside slots_mutex_ so query
  // dispatch never blocks behind a broadcast's disk write.
  TVDP_RETURN_IF_ERROR(tvdp->durable_catalog()->AppendBroadcast(record));
  std::lock_guard<std::mutex> lock(slots_mutex_);
  Slot& slot = slots_[static_cast<size_t>(shard)];
  if (record.type == storage::WalRecordType::kBroadcastIntent ||
      record.type == storage::WalRecordType::kMigrationIntent) {
    storage::PendingBroadcast pending{record.broadcast_id, record.op,
                                      record.payload, record.target_ids};
    pending.type = record.type;
    slot.pending_broadcasts[record.broadcast_id] = std::move(pending);
  } else {
    slot.pending_broadcasts.erase(record.broadcast_id);
  }
  return Status::OK();
}

Result<int64_t> ShardManager::RegisterClassification(
    const std::string& name, const std::vector<std::string>& labels,
    const std::string& description) {
  // Broadcasts mutate every shard's engine, so they must be drainable by
  // the cutover / promotion-fence write gate like any routed write: without
  // the ticket a per-shard apply could commit on the old primary between
  // the fence's Ship() drain and the epoch rise — a write acked to the
  // caller that the promoted primary never sees.
  WriteTicket ticket(this);
  std::lock_guard<std::mutex> block(broadcast_mutex_);
  const int n = shard_count();
  std::vector<std::shared_ptr<Tvdp>> live(static_cast<size_t>(n));
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (int i = 0; i < n; ++i) {
      const Slot& slot = slots_[static_cast<size_t>(i)];
      if (!slot.tvdp) {
        return Status::Unavailable("shard " + std::to_string(i) +
                                   " is down; classification broadcast "
                                   "requires the full fleet");
      }
      live[static_cast<size_t>(i)] = slot.tvdp;
    }
  }

  // The id every shard is expected to assign, recorded in the intent so
  // recovery can check the fleet converged on the same ids.
  std::vector<int64_t> targets(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    TVDP_ASSIGN_OR_RETURN(
        targets[static_cast<size_t>(i)],
        live[static_cast<size_t>(i)]->PeekClassificationId(name));
  }

  const int64_t bid = next_broadcast_id_++;
  Json payload = Json::MakeObject();
  payload["name"] = Json(name);
  Json jlabels = Json::MakeArray();
  for (const std::string& l : labels) jlabels.Append(Json(l));
  payload["labels"] = std::move(jlabels);
  payload["description"] = Json(description);
  const storage::WalRecord intent = storage::WalRecord::BroadcastIntent(
      bid, "register_classification", payload.Dump(), targets);

  // Phase 1: a durable intent on every shard before anything is applied.
  for (int i = 0; i < n; ++i) {
    if (!BroadcastHookOk("intent", i)) {
      // Simulated coordinator crash. Intents already written stay pending
      // for reconciliation; since nothing applied, it will roll them back.
      return Status::Unavailable("broadcast " + std::to_string(bid) +
                                 " abandoned before intent on shard " +
                                 std::to_string(i));
    }
    Status logged = AppendBroadcastTo(i, intent);
    if (!logged.ok()) {
      // Nothing applied yet anywhere: abort the earlier intents in place.
      for (int j = 0; j < i; ++j) {
        (void)AppendBroadcastTo(j, storage::WalRecord::BroadcastAbort(bid));
      }
      return logged;
    }
  }

  // Phase 2: apply on every shard. From here on a failure leaves the
  // intent pending — ReconcileBroadcasts / shard recovery decides from
  // evidence whether to complete it forward or roll it back.
  std::vector<int64_t> ids(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (!BroadcastHookOk("apply", i)) {
      return Status::Unavailable("broadcast " + std::to_string(bid) +
                                 " abandoned before apply on shard " +
                                 std::to_string(i) +
                                 "; pending until reconciliation");
    }
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      Slot& slot = slots_[static_cast<size_t>(i)];
      if (!slot.tvdp) {
        return Status::Unavailable("shard " + std::to_string(i) +
                                   " went down during broadcast " +
                                   std::to_string(bid) +
                                   "; pending until reconciliation");
      }
      live[static_cast<size_t>(i)] = slot.tvdp;
    }
    Result<int64_t> id = live[static_cast<size_t>(i)]->RegisterClassification(
        name, labels, description);
    if (!id.ok()) {
      if (i == 0) {
        // The first apply failed, so no shard holds the operation: the
        // intents can be rolled back immediately.
        for (int j = 0; j < n; ++j) {
          (void)AppendBroadcastTo(j, storage::WalRecord::BroadcastAbort(bid));
        }
      }
      return id.status();
    }
    ids[static_cast<size_t>(i)] = id.value();
    ShipShard(i);
  }

  // Applied everywhere — verify the fleet agreed on one id before
  // committing. A mismatch is still resolved (every shard did apply), but
  // surfaced as data loss naming the divergent shards.
  std::string divergent;
  for (int i = 1; i < n; ++i) {
    if (ids[static_cast<size_t>(i)] == ids[0]) continue;
    if (!divergent.empty()) divergent += ", ";
    divergent += std::to_string(i) + " (id " +
                 std::to_string(ids[static_cast<size_t>(i)]) + ")";
  }
  if (!divergent.empty()) {
    for (int i = 0; i < n; ++i) {
      (void)AppendBroadcastTo(i, storage::WalRecord::BroadcastCommit(bid));
    }
    return Status::DataLoss("classification '" + name +
                            "' diverged: shard 0 assigned id " +
                            std::to_string(ids[0]) + " but shard " +
                            divergent + " disagreed");
  }

  // Phase 3: commit markers. Best-effort per shard — the operation is
  // fully applied, so a marker lost to a crash only means reconciliation
  // re-derives the commit from the applied evidence.
  for (int i = 0; i < n; ++i) {
    if (!BroadcastHookOk("commit", i)) {
      return Status::Unavailable("broadcast " + std::to_string(bid) +
                                 " applied on every shard but abandoned "
                                 "before commit on shard " +
                                 std::to_string(i) +
                                 "; pending until reconciliation");
    }
    (void)AppendBroadcastTo(i, storage::WalRecord::BroadcastCommit(bid));
  }
  return ids[0];
}

Result<Json> ShardManager::ReconcileBroadcasts() {
  Result<Json> report = [this]() -> Result<Json> {
    // Ticket before broadcast_mutex_ (the fixed order): reconciliation
    // sweeps and re-applies against shard engines, which the write gate
    // must be able to drain. Released before the deferred-promotion drain
    // below — PromoteShard's fence blocks writes and would deadlock
    // against our own ticket.
    WriteTicket ticket(this);
    std::lock_guard<std::mutex> lock(broadcast_mutex_);
    return ReconcileLocked();
  }();
  // Reconciliation can resolve the migration a promotion was deferred
  // behind; run the deferred promotions with no lock held.
  DrainDeferredPromotions();
  return report;
}

Result<Json> ShardManager::ReconcileLocked() {
  const int n = shard_count();
  std::vector<std::shared_ptr<Tvdp>> handles(static_cast<size_t>(n));
  std::vector<bool> alive(static_cast<size_t>(n), false);
  std::map<int64_t, storage::PendingBroadcast> pending;
  std::map<int64_t, std::vector<int>> holders;
  bool all_live = true;
  int64_t in_flight_id = 0;
  std::unordered_set<int64_t> committed;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (int i = 0; i < n; ++i) {
      const Slot& slot = slots_[static_cast<size_t>(i)];
      alive[static_cast<size_t>(i)] = slot.tvdp != nullptr;
      if (alive[static_cast<size_t>(i)]) {
        handles[static_cast<size_t>(i)] = slot.tvdp;
      } else {
        all_live = false;
      }
      for (const auto& [bid, p] : slot.pending_broadcasts) {
        pending.emplace(bid, p);
        holders[bid].push_back(i);
      }
    }
    if (migration_.active) in_flight_id = migration_.id;
    committed = committed_migrations_;
  }

  Json completed = Json::MakeArray();
  Json rolled_back = Json::MakeArray();
  Json deferred = Json::MakeArray();
  Json errors = Json::MakeArray();
  for (const auto& [bid, p] : pending) {
    Json entry = Json::MakeObject();
    entry["broadcast_id"] = Json(bid);
    entry["op"] = Json(p.op);
    if (p.op == "rebalance_cells") {
      Result<Json> parsed = Json::Parse(p.payload);
      if (!parsed.ok()) {
        errors.Append(Json("migration " + std::to_string(bid) +
                           ": bad payload: " + parsed.status().ToString()));
        continue;
      }
      const int msrc = static_cast<int>((*parsed)["source"].AsInt());
      const int mtgt = static_cast<int>((*parsed)["target"].AsInt());
      entry["source"] = Json(msrc);
      entry["target"] = Json(mtgt);
      entry["cells"] = (*parsed)["cells"];
      if (bid == in_flight_id) {
        // This process's own migration is still running; its coordinator —
        // not the reconciler — owns the resolution.
        entry["action"] = Json("in_flight");
        deferred.Append(std::move(entry));
        continue;
      }
      if (committed.count(bid) > 0) {
        // The shard map committed at cutover: roll forward. Re-mark the
        // commit on every live holder, then finish the GC the crash
        // skipped (sweeping the source's moved rows is idempotent).
        Json remaining = Json::MakeArray();
        bool failed = false;
        for (int i : holders[bid]) {
          if (!alive[static_cast<size_t>(i)]) {
            remaining.Append(Json(i));
            continue;
          }
          Status marked =
              AppendBroadcastTo(i, storage::WalRecord::MigrationCommit(bid));
          if (!marked.ok()) {
            errors.Append(Json("migration " + std::to_string(bid) +
                               " shard " + std::to_string(i) + ": " +
                               marked.ToString()));
            failed = true;
          }
        }
        if (alive[static_cast<size_t>(msrc)]) {
          Status swept = SweepForeignRowsTicketed(msrc);
          if (!swept.ok()) {
            errors.Append(Json("migration " + std::to_string(bid) +
                               " gc: " + swept.ToString()));
            failed = true;
          }
        }
        {
          std::lock_guard<std::mutex> lock(slots_mutex_);
          if (alive[static_cast<size_t>(msrc)]) {
            slots_[static_cast<size_t>(msrc)].migrating = false;
          }
          if (alive[static_cast<size_t>(mtgt)]) {
            slots_[static_cast<size_t>(mtgt)].migrating = false;
          }
          if (!migration_.active && migration_.id == bid) {
            migration_ = MigrationState{};
          }
          RebuildReverseMapsLocked();
        }
        entry["action"] = Json("completed_forward");
        if (remaining.size() > 0) entry["awaiting_recovery"] = remaining;
        (failed ? deferred : completed).Append(std::move(entry));
      } else if (alive[static_cast<size_t>(msrc)] &&
                 alive[static_cast<size_t>(mtgt)]) {
        // No committed shard map: the cutover never happened, so the
        // source still owns every row — undo the partial copy. Sweeping
        // the target's foreign rows deletes exactly the migrated-in copies
        // (their cells still map to the source).
        bool failed = false;
        for (int i : holders[bid]) {
          Status marked =
              AppendBroadcastTo(i, storage::WalRecord::MigrationAbort(bid));
          if (!marked.ok()) {
            errors.Append(Json("migration " + std::to_string(bid) +
                               " shard " + std::to_string(i) + ": " +
                               marked.ToString()));
            failed = true;
          }
        }
        Status swept = SweepForeignRowsTicketed(mtgt);
        if (!swept.ok()) {
          errors.Append(Json("migration " + std::to_string(bid) +
                             " undo: " + swept.ToString()));
          failed = true;
        }
        {
          std::lock_guard<std::mutex> lock(slots_mutex_);
          slots_[static_cast<size_t>(msrc)].migrating = false;
          slots_[static_cast<size_t>(mtgt)].migrating = false;
          if (!migration_.active && migration_.id == bid) {
            migration_ = MigrationState{};
          }
          RebuildReverseMapsLocked();
        }
        entry["action"] = Json("rolled_back");
        (failed ? deferred : rolled_back).Append(std::move(entry));
      } else {
        // A dead endpoint may hold rows (or the only copies) this decision
        // needs; defer until both endpoints are back.
        entry["action"] = Json("deferred");
        Json down = Json::MakeArray();
        for (int i = 0; i < n; ++i) {
          if (!alive[static_cast<size_t>(i)]) down.Append(Json(i));
        }
        entry["down_shards"] = std::move(down);
        deferred.Append(std::move(entry));
      }
      continue;
    }
    if (p.op != "register_classification") {
      errors.Append(Json("broadcast " + std::to_string(bid) +
                         ": unknown op '" + p.op + "'"));
      continue;
    }
    Result<Json> parsed = Json::Parse(p.payload);
    if (!parsed.ok()) {
      errors.Append(Json("broadcast " + std::to_string(bid) +
                         ": bad payload: " + parsed.status().ToString()));
      continue;
    }
    const std::string& name = (*parsed)["name"].AsString();
    std::vector<std::string> labels;
    for (const Json& l : (*parsed)["labels"].AsArray()) {
      labels.push_back(l.AsString());
    }
    const std::string& description = (*parsed)["description"].AsString();
    entry["name"] = Json(name);

    // Evidence: did any live shard's classification table already absorb
    // this operation?
    bool applied_somewhere = false;
    for (int i = 0; i < n; ++i) {
      if (alive[static_cast<size_t>(i)] &&
          handles[static_cast<size_t>(i)]->ClassificationApplied(name,
                                                                 labels)) {
        applied_somewhere = true;
        break;
      }
    }

    if (applied_somewhere) {
      // Complete forward: re-apply (idempotent) on every live shard still
      // holding the intent, then commit. Intents on down shards resolve
      // when those shards recover and re-run this pass.
      Json remaining = Json::MakeArray();
      bool failed = false;
      for (int i : holders[bid]) {
        if (!alive[static_cast<size_t>(i)]) {
          remaining.Append(Json(i));
          continue;
        }
        Result<int64_t> id =
            handles[static_cast<size_t>(i)]->RegisterClassification(
                name, labels, description);
        if (!id.ok()) {
          errors.Append(Json("broadcast " + std::to_string(bid) + " shard " +
                             std::to_string(i) + ": " +
                             id.status().ToString()));
          failed = true;
          continue;
        }
        Status marked =
            AppendBroadcastTo(i, storage::WalRecord::BroadcastCommit(bid));
        if (!marked.ok()) {
          errors.Append(Json("broadcast " + std::to_string(bid) + " shard " +
                             std::to_string(i) + ": " + marked.ToString()));
          failed = true;
        }
      }
      entry["action"] = Json("completed_forward");
      if (remaining.size() > 0) entry["awaiting_recovery"] = remaining;
      (failed ? deferred : completed).Append(std::move(entry));
    } else if (all_live) {
      // Every shard is up and none applied it: the coordinator died before
      // any apply, so the operation never happened — roll it back.
      bool failed = false;
      for (int i : holders[bid]) {
        Status marked =
            AppendBroadcastTo(i, storage::WalRecord::BroadcastAbort(bid));
        if (!marked.ok()) {
          errors.Append(Json("broadcast " + std::to_string(bid) + " shard " +
                             std::to_string(i) + ": " + marked.ToString()));
          failed = true;
        }
      }
      entry["action"] = Json("rolled_back");
      (failed ? deferred : rolled_back).Append(std::move(entry));
    } else {
      // A down shard may hold the only evidence that the operation was
      // applied; rolling back now could diverge from what that shard
      // replays on recovery. Defer until the fleet is whole.
      entry["action"] = Json("deferred");
      Json down = Json::MakeArray();
      for (int i = 0; i < n; ++i) {
        if (!alive[static_cast<size_t>(i)]) down.Append(Json(i));
      }
      entry["down_shards"] = std::move(down);
      deferred.Append(std::move(entry));
    }
  }

  // Stragglers: a migrating flag with no unresolved rebalance intent means
  // the migration passed its commit markers but died before GC finished —
  // finish the sweep and clear the flag.
  Json finalized = Json::MakeArray();
  std::vector<int> stragglers;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (int i = 0; i < n; ++i) {
      const Slot& slot = slots_[static_cast<size_t>(i)];
      if (!slot.migrating || !slot.tvdp) continue;
      if (migration_.active &&
          (i == migration_.source || i == migration_.target)) {
        continue;
      }
      bool has_intent = false;
      for (const auto& [bid, p] : slot.pending_broadcasts) {
        if (p.op == "rebalance_cells") has_intent = true;
      }
      if (!has_intent) stragglers.push_back(i);
    }
  }
  for (int i : stragglers) {
    Status swept = SweepForeignRowsTicketed(i);
    if (!swept.ok()) {
      errors.Append(Json("migration finalize shard " + std::to_string(i) +
                         ": " + swept.ToString()));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      slots_[static_cast<size_t>(i)].migrating = false;
      RebuildReverseMapsLocked();
    }
    finalized.Append(Json(i));
  }

  Json out = Json::MakeObject();
  out["completed"] = std::move(completed);
  out["rolled_back"] = std::move(rolled_back);
  out["deferred"] = std::move(deferred);
  out["finalized"] = std::move(finalized);
  out["errors"] = std::move(errors);
  Json detail = Json::MakeObject();
  Status consistent = VerifyConsistencyLocked(&detail);
  out["consistent"] = Json(consistent.ok());
  out["divergent"] = std::move(detail["divergent"]);
  return out;
}

Status ShardManager::VerifyClassificationConsistency(Json* detail) const {
  std::lock_guard<std::mutex> lock(broadcast_mutex_);
  return VerifyConsistencyLocked(detail);
}

Status ShardManager::VerifyConsistencyLocked(Json* detail) const {
  const int n = shard_count();
  std::vector<std::shared_ptr<Tvdp>> handles(static_cast<size_t>(n));
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (int i = 0; i < n; ++i) {
      handles[static_cast<size_t>(i)] = slots_[static_cast<size_t>(i)].tvdp;
    }
  }
  int ref = -1;
  Json ref_table;
  std::string shard_list;
  std::set<std::string> names;
  Json divergent = Json::MakeObject();
  for (int i = 0; i < n; ++i) {
    if (!handles[static_cast<size_t>(i)]) continue;
    Json table = handles[static_cast<size_t>(i)]->ClassificationTableJson();
    if (ref < 0) {
      ref = i;
      ref_table = std::move(table);
      continue;
    }
    if (table == ref_table) continue;
    // Collect the classification names whose entries disagree.
    for (const auto& [cls, entry] : table.AsObject()) {
      if (!ref_table.Has(cls) || !(ref_table[cls] == entry)) names.insert(cls);
    }
    for (const auto& [cls, entry] : ref_table.AsObject()) {
      if (!table.Has(cls)) names.insert(cls);
    }
    if (!shard_list.empty()) shard_list += ", ";
    shard_list += std::to_string(i);
    divergent[std::to_string(i)] = std::move(table);
  }
  if (detail) {
    Json d = Json::MakeObject();
    d["reference_shard"] = ref < 0 ? Json() : Json(ref);
    d["reference"] = ref_table;
    d["divergent"] = divergent;
    *detail = std::move(d);
  }
  if (shard_list.empty()) return Status::OK();
  std::string name_list;
  for (const std::string& cls : names) {
    if (!name_list.empty()) name_list += ", ";
    name_list += "'" + cls + "'";
  }
  return Status::DataLoss("classification tables diverged from shard " +
                          std::to_string(ref) + " on shard(s) " + shard_list +
                          " (classifications: " + name_list + ")");
}

size_t ShardManager::pending_broadcasts(int shard) const {
  if (shard < 0 || shard >= shard_count()) return 0;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return slots_[static_cast<size_t>(shard)].pending_broadcasts.size();
}

void ShardManager::SetMigrationHook(
    std::function<bool(const std::string& phase, int shard)> hook) {
  std::lock_guard<std::mutex> lock(migration_mutex_);
  migration_hook_ = std::move(hook);
}

bool ShardManager::MigrationHookOk(const char* phase, int shard) const {
  if (!migration_hook_) return true;
  return migration_hook_(phase, shard);
}

bool ShardManager::shard_migrating(int shard) const {
  if (shard < 0 || shard >= shard_count()) return false;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return slots_[static_cast<size_t>(shard)].migrating;
}

Status ShardManager::AbandonMigration(const std::string& why) {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  migration_.active = false;
  migration_.phase = "abandoned";
  // The endpoints keep their migrating flags: dual-serve + merge dedup
  // keeps queries exact until reconciliation resolves the durable intents.
  return Status::Unavailable(why);
}

void ShardManager::RecomputeCellsLocked(int shard) {
  const ShardManagerOptions& opts = options_;
  const int cells = opts.grid_rows * opts.grid_cols;
  const double dlat =
      (opts.region.max_lat - opts.region.min_lat) / opts.grid_rows;
  const double dlon =
      (opts.region.max_lon - opts.region.min_lon) / opts.grid_cols;
  geo::BoundingBox box = geo::BoundingBox::Empty();
  for (int c = 0; c < cells; ++c) {
    if (cell_to_shard_[static_cast<size_t>(c)] != shard) continue;
    const int row = c / opts.grid_cols;
    const int col = c % opts.grid_cols;
    geo::BoundingBox cell_box;
    cell_box.min_lat = opts.region.min_lat + row * dlat;
    cell_box.max_lat = opts.region.min_lat + (row + 1) * dlat;
    cell_box.min_lon = opts.region.min_lon + col * dlon;
    cell_box.max_lon = opts.region.min_lon + (col + 1) * dlon;
    box.Extend(cell_box);
  }
  slots_[static_cast<size_t>(shard)].cells = box;
}

void ShardManager::RebuildReverseMapsLocked() {
  const int n = static_cast<int>(slots_.size());
  std::vector<std::unordered_map<int64_t, int64_t>> maps(
      static_cast<size_t>(n));
  for (const auto& [global, loc] : relocated_) {
    maps[static_cast<size_t>(loc.first)][loc.second] = global;
  }
  if (migration_.active) {
    // Keep the in-copy entries of the running migration: its target already
    // serves the copied rows, and they must keep translating to their
    // original global ids (chained moves resolve through the source's own
    // map, built just above).
    const auto& src_map = maps[static_cast<size_t>(migration_.source)];
    auto& tgt_map = maps[static_cast<size_t>(migration_.target)];
    for (const auto& [slocal, tlocal] : migration_.relocations) {
      auto it = src_map.find(slocal);
      tgt_map[tlocal] = it != src_map.end()
                            ? it->second
                            : slocal * n + migration_.source;
    }
  }
  for (int i = 0; i < n; ++i) {
    auto& m = maps[static_cast<size_t>(i)];
    slots_[static_cast<size_t>(i)].reverse_relocations =
        m.empty() ? nullptr
                  : std::make_shared<const std::unordered_map<int64_t, int64_t>>(
                        std::move(m));
  }
}

std::string ShardManager::ShardMapPath() const {
  return options_.base_path + "/shard_map.json";
}

Status ShardManager::WriteShardMapLocked(
    const std::vector<int>& cell_map,
    const std::vector<std::array<int64_t, 3>>& relocs,
    const std::vector<int64_t>& committed) {
  Json doc = Json::MakeObject();
  doc["version"] = Json(++shard_map_version_);
  Json jcells = Json::MakeArray();
  for (int s : cell_map) jcells.Append(Json(s));
  doc["cell_to_shard"] = std::move(jcells);
  Json jrel = Json::MakeArray();
  for (const auto& r : relocs) {
    Json triple = Json::MakeArray();
    triple.Append(Json(r[0]));
    triple.Append(Json(r[1]));
    triple.Append(Json(r[2]));
    jrel.Append(std::move(triple));
  }
  doc["relocations"] = std::move(jrel);
  Json jcom = Json::MakeArray();
  for (int64_t id : committed) jcom.Append(Json(id));
  doc["committed_migrations"] = std::move(jcom);
  // Fencing evidence: the per-shard promotion epoch and which copy path is
  // the primary, always sourced from the persisted vectors (the last
  // durably committed values) rather than the slots — a concurrent
  // rebalance writing the map mid-promotion must never regress a shard's
  // committed epoch back to what its in-memory slot still says. Writing
  // this file IS a promotion's durable commit point.
  Json jep = Json::MakeArray();
  for (int64_t e : persisted_epochs_) jep.Append(Json(e));
  doc["epochs"] = std::move(jep);
  Json jpr = Json::MakeArray();
  for (int p : persisted_primaries_) jpr.Append(Json(p));
  doc["primaries"] = std::move(jpr);
  const std::string text = doc.Dump();
  return AtomicWriteFile(*options_.durable.fs, ShardMapPath(),
                         std::vector<uint8_t>(text.begin(), text.end()));
}

Result<bool> ShardManager::LoadShardMap() {
  Fs* fs = options_.durable.fs;
  const std::string path = ShardMapPath();
  if (!fs->Exists(path)) return false;
  TVDP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, fs->ReadAll(path));
  TVDP_ASSIGN_OR_RETURN(
      Json doc, Json::Parse(std::string_view(
                    reinterpret_cast<const char*>(bytes.data()),
                    bytes.size())));
  const Json& jcells = doc["cell_to_shard"];
  if (jcells.AsArray().size() != cell_to_shard_.size()) {
    return Status::FailedPrecondition(
        "shard_map.json disagrees with the configured grid; the grid shape "
        "cannot change once cells have been rebalanced");
  }
  for (size_t c = 0; c < cell_to_shard_.size(); ++c) {
    const int s = static_cast<int>(jcells.AsArray()[c].AsInt());
    if (s < 0 || s >= options_.shard_count) {
      return Status::FailedPrecondition(
          "shard_map.json assigns a cell to an unknown shard");
    }
    cell_to_shard_[c] = s;
  }
  for (const Json& r : doc["relocations"].AsArray()) {
    const auto& triple = r.AsArray();
    relocated_[triple[0].AsInt()] = {static_cast<int>(triple[1].AsInt()),
                                     triple[2].AsInt()};
  }
  for (const Json& id : doc["committed_migrations"].AsArray()) {
    committed_migrations_.insert(id.AsInt());
  }
  boot_epochs_.assign(static_cast<size_t>(options_.shard_count), 0);
  boot_primaries_.assign(static_cast<size_t>(options_.shard_count), 0);
  // Absent on maps written before replication existed: all shards at epoch
  // 0 with copy 0 as primary — exactly the pre-replication layout.
  if (doc.Has("epochs")) {
    const auto& jep = doc["epochs"].AsArray();
    for (size_t i = 0; i < jep.size() && i < boot_epochs_.size(); ++i) {
      boot_epochs_[i] = jep[i].AsInt();
    }
  }
  if (doc.Has("primaries")) {
    const auto& jpr = doc["primaries"].AsArray();
    for (size_t i = 0; i < jpr.size() && i < boot_primaries_.size(); ++i) {
      boot_primaries_[i] = static_cast<int>(jpr[i].AsInt());
    }
  }
  shard_map_version_ = doc["version"].AsInt();
  return true;
}

Status ShardManager::SweepForeignRows(int shard) {
  // The sweep deletes rows through the shard engine; ticket it so the
  // cutover / fence barrier drains it like any other write.
  WriteTicket ticket(this);
  return SweepForeignRowsTicketed(shard);
}

Status ShardManager::SweepForeignRowsTicketed(int shard) {
  std::shared_ptr<Tvdp> tvdp;
  std::vector<int> cell_map;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    const Slot& slot = slots_[static_cast<size_t>(shard)];
    if (!slot.tvdp) {
      return Status::Unavailable("shard " + std::to_string(shard) +
                                 " is down");
    }
    tvdp = slot.tvdp;
    cell_map = cell_to_shard_;
  }
  const std::vector<int64_t> doomed =
      tvdp->ImageIdsMatching([&](const geo::GeoPoint& p) {
        return cell_map[static_cast<size_t>(CellForLocation(p))] != shard;
      });
  if (!doomed.empty()) {
    TVDP_RETURN_IF_ERROR(tvdp->RemoveImages(doomed));
  }
  const double fov = tvdp->MaxFovRadiusM();
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    slots_[static_cast<size_t>(shard)].max_fov_radius_m = fov;
  }
  ShipShard(shard);
  return Status::OK();
}

Result<size_t> ShardManager::MigrationCopyPass(
    const std::shared_ptr<Tvdp>& src, const std::shared_ptr<Tvdp>& dst,
    const std::function<bool(const geo::GeoPoint&)>& in_cells, int source,
    int target) {
  const int n = shard_count();
  size_t delta = 0;
  const std::vector<int64_t> ids = src->ImageIdsMatching(in_cells);
  for (int64_t slocal : ids) {
    int64_t tlocal = -1;
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      auto it = migration_.relocations.find(slocal);
      if (it != migration_.relocations.end()) tlocal = it->second;
    }
    TVDP_ASSIGN_OR_RETURN(std::vector<AnnotationRecord> anns,
                          src->ListAnnotations(slocal));
    TVDP_ASSIGN_OR_RETURN(auto feats, src->ListFeatures(slocal));
    if (tlocal < 0) {
      TVDP_ASSIGN_OR_RETURN(ImageRecord rec, src->ExportImage(slocal));
      if (rec.original_image_id.has_value()) {
        // The provenance link is shard-local. Originals sort before their
        // augmented derivatives (smaller ids), so a co-migrating original
        // is already relocated by the time we get here; an original that
        // stays behind has no target-side identity and the link drops.
        std::lock_guard<std::mutex> lock(slots_mutex_);
        auto it = migration_.relocations.find(*rec.original_image_id);
        if (it != migration_.relocations.end()) {
          rec.original_image_id = it->second;
        } else {
          rec.original_image_id.reset();
        }
      }
      TVDP_ASSIGN_OR_RETURN(tlocal, dst->IngestImage(rec));
      {
        // Publish the relocation before copying the row's satellites so a
        // concurrent probe translates the (already visible) target row back
        // to its original global id as early as possible.
        std::lock_guard<std::mutex> lock(slots_mutex_);
        migration_.relocations[slocal] = tlocal;
        ++migration_.rows_copied;
        int64_t global = slocal * n + source;
        const auto& src_reverse =
            slots_[static_cast<size_t>(source)].reverse_relocations;
        if (src_reverse) {
          auto rit = src_reverse->find(slocal);
          if (rit != src_reverse->end()) global = rit->second;
        }
        auto next =
            slots_[static_cast<size_t>(target)].reverse_relocations
                ? std::make_shared<std::unordered_map<int64_t, int64_t>>(
                      *slots_[static_cast<size_t>(target)].reverse_relocations)
                : std::make_shared<std::unordered_map<int64_t, int64_t>>();
        (*next)[tlocal] = global;
        slots_[static_cast<size_t>(target)].reverse_relocations =
            std::move(next);
      }
      for (const AnnotationRecord& ann : anns) {
        TVDP_RETURN_IF_ERROR(dst->AnnotateImage(tlocal, ann).status());
      }
      for (const auto& [kind, vec] : feats) {
        TVDP_RETURN_IF_ERROR(dst->StoreFeature(tlocal, kind, vec));
      }
      ++delta;
      continue;
    }
    // Already copied: diff the satellites. Annotations only append, so the
    // target's list is a prefix of the source's; features diff by kind.
    bool touched = false;
    TVDP_ASSIGN_OR_RETURN(std::vector<AnnotationRecord> tanns,
                          dst->ListAnnotations(tlocal));
    for (size_t a = tanns.size(); a < anns.size(); ++a) {
      TVDP_RETURN_IF_ERROR(dst->AnnotateImage(tlocal, anns[a]).status());
      touched = true;
    }
    TVDP_ASSIGN_OR_RETURN(auto tfeats, dst->ListFeatures(tlocal));
    std::set<std::string> have;
    for (const auto& [kind, vec] : tfeats) have.insert(kind);
    for (const auto& [kind, vec] : feats) {
      if (have.count(kind)) continue;
      TVDP_RETURN_IF_ERROR(dst->StoreFeature(tlocal, kind, vec));
      touched = true;
    }
    if (touched) {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      ++migration_.rows_caught_up;
      ++delta;
    }
  }
  // The migrated-in rows must reach the target's replicas too, or losing
  // the target's primary right after a cutover would lose the moved rows.
  ShipShard(target);
  return delta;
}

Result<Json> ShardManager::RebalanceCells(const std::vector<int>& cells,
                                          int source, int target) {
  Result<Json> report = RebalanceCellsInner(cells, source, target);
  // A resolved migration may unblock a promotion that arrived while it ran;
  // drain with migration_mutex_ released (PromoteShard never takes it, but
  // a promotion hook may re-enter RebalanceCells).
  if (report.ok()) DrainDeferredPromotions();
  return report;
}

Result<Json> ShardManager::RebalanceCellsInner(const std::vector<int>& cells,
                                               int source, int target) {
  const int n = shard_count();
  if (source < 0 || source >= n || target < 0 || target >= n) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (source == target) {
    return Status::InvalidArgument(
        "source and target of a rebalance must differ");
  }
  if (cells.empty()) {
    return Status::InvalidArgument("no cells to migrate");
  }
  const int total_cells = options_.grid_rows * options_.grid_cols;
  std::set<int> cell_set;
  for (int c : cells) {
    if (c < 0 || c >= total_cells) {
      return Status::InvalidArgument("unknown grid cell " +
                                     std::to_string(c));
    }
    if (!cell_set.insert(c).second) {
      return Status::InvalidArgument("duplicate cell " + std::to_string(c) +
                                     " in the rebalance request");
    }
  }

  std::lock_guard<std::mutex> mig_lock(migration_mutex_);
  std::shared_ptr<Tvdp> src, dst;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (int c : cells) {
      if (cell_to_shard_[static_cast<size_t>(c)] != source) {
        return Status::FailedPrecondition(
            "cell " + std::to_string(c) + " is owned by shard " +
            std::to_string(cell_to_shard_[static_cast<size_t>(c)]) +
            ", not the requested source " + std::to_string(source));
      }
    }
    const Slot& s = slots_[static_cast<size_t>(source)];
    const Slot& t = slots_[static_cast<size_t>(target)];
    if (!s.tvdp) {
      return Status::FailedPrecondition("source shard " +
                                        std::to_string(source) + " is down");
    }
    if (!t.tvdp) {
      return Status::FailedPrecondition("target shard " +
                                        std::to_string(target) + " is down");
    }
    if (s.migrating || t.migrating) {
      return Status::FailedPrecondition(
          "an earlier migration touching shard " +
          std::to_string(s.migrating ? source : target) +
          " is unresolved; run reconcile first");
    }
    if (s.promoting || t.promoting) {
      // A promotion mid-flight is rewriting the endpoint's engine identity;
      // migrating rows through it would copy from (or into) an engine about
      // to be fenced.
      return Status::FailedPrecondition(
          "a promotion of shard " +
          std::to_string(s.promoting ? source : target) +
          " is in flight; retry the rebalance after it resolves");
    }
    for (const Slot* slot : {&s, &t}) {
      for (const auto& [bid, p] : slot->pending_broadcasts) {
        if (p.op == "rebalance_cells") {
          return Status::FailedPrecondition(
              "an unresolved rebalance intent (migration " +
              std::to_string(bid) + ") blocks this migration; run "
              "reconcile first");
        }
      }
    }
    src = s.tvdp;
    dst = t.tvdp;
  }
  if (!(src->ClassificationTableJson() == dst->ClassificationTableJson())) {
    return Status::FailedPrecondition(
        "source and target classification tables diverge; reconcile "
        "broadcasts before rebalancing");
  }

  int64_t mid;
  {
    std::lock_guard<std::mutex> block(broadcast_mutex_);
    mid = next_broadcast_id_++;
  }
  Json payload = Json::MakeObject();
  Json jcells = Json::MakeArray();
  for (int c : cells) jcells.Append(Json(c));
  payload["cells"] = std::move(jcells);
  payload["source"] = Json(source);
  payload["target"] = Json(target);
  const int64_t high_water = static_cast<int64_t>(src->image_count());
  payload["high_water"] = Json(high_water);
  const storage::WalRecord intent = storage::WalRecord::MigrationIntent(
      mid, "rebalance_cells", payload.Dump(),
      {static_cast<int64_t>(source), static_cast<int64_t>(target)});

  // Phase 1 — intent: durably logged on both endpoints before anything
  // moves. A hook veto here models a coordinator crash (state stays for
  // reconciliation); an append *failure* rolls the earlier intent back
  // inline, since nothing has been applied anywhere yet.
  const int endpoints[2] = {source, target};
  for (int i = 0; i < 2; ++i) {
    if (!MigrationHookOk("intent", endpoints[i])) {
      return Status::Unavailable(
          "migration " + std::to_string(mid) +
          " abandoned before intent on shard " +
          std::to_string(endpoints[i]) + "; pending until reconciliation");
    }
    Status logged = AppendBroadcastTo(endpoints[i], intent);
    if (!logged.ok()) {
      for (int j = 0; j < i; ++j) {
        (void)AppendBroadcastTo(endpoints[j],
                                storage::WalRecord::MigrationAbort(mid));
      }
      return logged;
    }
  }
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    migration_ = MigrationState{};
    migration_.active = true;
    migration_.id = mid;
    migration_.cells = cells;
    migration_.source = source;
    migration_.target = target;
    migration_.phase = "copy";
    migration_.high_water = high_water;
    slots_[static_cast<size_t>(source)].migrating = true;
    slots_[static_cast<size_t>(target)].migrating = true;
  }

  // Phases 2+3 — copy, then idempotent catch-up passes until the delta the
  // still-serving source absorbed drains (bounded; the gated final pass
  // under cutover catches any persistent trickle).
  auto in_cells = [this, cell_set](const geo::GeoPoint& p) {
    return cell_set.count(CellForLocation(p)) > 0;
  };
  // Fail fast on a killed endpoint (its fenced handle refuses writes
  // anyway). Checked after every hook call too — fault hooks kill shards
  // mid-phase to simulate exactly that.
  auto endpoints_down = [this, source, target]() {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    const Slot& s = slots_[static_cast<size_t>(source)];
    const Slot& t = slots_[static_cast<size_t>(target)];
    return !s.tvdp || !t.tvdp;
  };
  constexpr int kMaxCatchUpPasses = 6;
  for (int pass = 0; pass < kMaxCatchUpPasses; ++pass) {
    const char* phase = pass == 0 ? "copy" : "catchup";
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      migration_.phase = phase;
    }
    if (!MigrationHookOk(phase, source)) {
      return AbandonMigration("migration " + std::to_string(mid) +
                              " abandoned at " + phase +
                              "; pending until reconciliation");
    }
    if (endpoints_down()) {
      return AbandonMigration("migration " + std::to_string(mid) +
                              " abandoned: an endpoint died mid-copy; "
                              "pending until reconciliation");
    }
    Result<size_t> changed = MigrationCopyPass(src, dst, in_cells, source,
                                               target);
    if (!changed.ok()) {
      (void)AbandonMigration("");
      return changed.status();
    }
    if (pass > 0 && *changed == 0) break;
  }

  // Phase 4 — cutover: gate new writes, drain the in-flight ones, run the
  // final catch-up against the now-quiescent source, persist the new shard
  // map (the durable commit point), and flip routing.
  if (!MigrationHookOk("cutover", source)) {
    return AbandonMigration("migration " + std::to_string(mid) +
                            " abandoned before cutover; pending until "
                            "reconciliation");
  }
  if (endpoints_down()) {
    return AbandonMigration("migration " + std::to_string(mid) +
                            " abandoned: an endpoint died before cutover; "
                            "pending until reconciliation");
  }
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    migration_.phase = "cutover";
  }
  BlockWrites();
  Result<size_t> final_pass =
      MigrationCopyPass(src, dst, in_cells, source, target);
  if (!final_pass.ok()) {
    UnblockWrites();
    (void)AbandonMigration("");
    return final_pass.status();
  }
  const double target_fov = dst->MaxFovRadiusM();
  // Held across the file write AND the in-memory flip: a promotion's map
  // write serializes behind it, so it can neither regress this cutover's
  // just-committed cell ownership (by snapshotting the pre-flip memory
  // state) nor have its own committed epoch regressed by us (the write
  // sources epochs/primaries from the persisted vectors it maintains).
  std::unique_lock<std::mutex> map_lock(shard_map_mutex_);
  std::vector<int> new_cell_map;
  std::vector<std::array<int64_t, 3>> new_relocs;
  std::vector<int64_t> new_committed;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    new_cell_map = cell_to_shard_;
    for (int c : cells) new_cell_map[static_cast<size_t>(c)] = target;
    for (const auto& [global, loc] : relocated_) {
      new_relocs.push_back({global, loc.first, loc.second});
    }
    const auto& src_reverse =
        slots_[static_cast<size_t>(source)].reverse_relocations;
    for (const auto& [slocal, tlocal] : migration_.relocations) {
      int64_t global = slocal * n + source;
      if (src_reverse) {
        auto rit = src_reverse->find(slocal);
        if (rit != src_reverse->end()) global = rit->second;
      }
      new_relocs.push_back({global, target, tlocal});
    }
    new_committed.assign(committed_migrations_.begin(),
                         committed_migrations_.end());
    new_committed.push_back(mid);
  }
  Status saved = WriteShardMapLocked(new_cell_map, new_relocs, new_committed);
  if (!saved.ok()) {
    map_lock.unlock();
    UnblockWrites();
    (void)AbandonMigration("");
    return saved;
  }
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (int c : cells) cell_to_shard_[static_cast<size_t>(c)] = target;
    committed_migrations_.insert(mid);
    const auto& src_reverse =
        slots_[static_cast<size_t>(source)].reverse_relocations;
    for (const auto& [slocal, tlocal] : migration_.relocations) {
      int64_t global = slocal * n + source;
      if (src_reverse) {
        auto rit = src_reverse->find(slocal);
        if (rit != src_reverse->end()) global = rit->second;
      }
      relocated_[global] = {target, tlocal};
    }
    RecomputeCellsLocked(source);
    RecomputeCellsLocked(target);
    Slot& t = slots_[static_cast<size_t>(target)];
    t.max_fov_radius_m = std::max(t.max_fov_radius_m, target_fov);
    RebuildReverseMapsLocked();
    migration_.phase = "commit";
  }
  map_lock.unlock();
  UnblockWrites();

  // Phase 5 — commit markers + GC. The migration is committed; everything
  // from here is best-effort and reconciliation finishes whatever a crash
  // skips (forward: the shard map already says so).
  for (int i = 0; i < 2; ++i) {
    if (!MigrationHookOk("commit", endpoints[i])) {
      return AbandonMigration("migration " + std::to_string(mid) +
                              " committed but abandoned before its commit "
                              "marker on shard " +
                              std::to_string(endpoints[i]) +
                              "; reconciliation will finalize it");
    }
    (void)AppendBroadcastTo(endpoints[i],
                            storage::WalRecord::MigrationCommit(mid));
  }
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    migration_.phase = "gc";
  }
  if (!MigrationHookOk("gc", source)) {
    return AbandonMigration("migration " + std::to_string(mid) +
                            " committed but abandoned before GC; "
                            "reconciliation will finalize it");
  }
  std::vector<int64_t> moved;
  size_t rows_copied, rows_caught_up, relocation_count;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    moved.reserve(migration_.relocations.size());
    for (const auto& [slocal, tlocal] : migration_.relocations) {
      moved.push_back(slocal);
    }
    rows_copied = migration_.rows_copied;
    rows_caught_up = migration_.rows_caught_up;
    relocation_count = migration_.relocations.size();
  }
  Status gc = src->RemoveImages(moved);
  if (!gc.ok()) {
    (void)AbandonMigration("");
    return gc;
  }
  ShipShard(source);
  const double source_fov = src->MaxFovRadiusM();
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    slots_[static_cast<size_t>(source)].max_fov_radius_m = source_fov;
    slots_[static_cast<size_t>(source)].migrating = false;
    slots_[static_cast<size_t>(target)].migrating = false;
    migration_.active = false;
    migration_.phase = "done";
    RebuildReverseMapsLocked();
  }

  Json report = Json::MakeObject();
  report["migration_id"] = Json(mid);
  Json rcells = Json::MakeArray();
  for (int c : cells) rcells.Append(Json(c));
  report["cells"] = std::move(rcells);
  report["source"] = Json(source);
  report["target"] = Json(target);
  report["rows_copied"] = Json(static_cast<int64_t>(rows_copied));
  report["rows_caught_up"] = Json(static_cast<int64_t>(rows_caught_up));
  report["relocations"] = Json(static_cast<int64_t>(relocation_count));
  return report;
}

Result<ShardManager::ImageOwner> ShardManager::OwnerOf(
    int64_t image_id) const {
  if (image_id < 0) {
    return Status::InvalidArgument("image id must be non-negative");
  }
  const int n = shard_count();
  ImageOwner owner;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  auto it = relocated_.find(image_id);
  if (it != relocated_.end()) {
    owner.shard = it->second.first;
    owner.local = it->second.second;
  } else {
    owner.shard = static_cast<int>(image_id % n);
    owner.local = image_id / n;
  }
  owner.tvdp = slots_[static_cast<size_t>(owner.shard)].tvdp;
  if (!owner.tvdp) {
    return Status::Unavailable("shard " + std::to_string(owner.shard) +
                               " is down");
  }
  return owner;
}

Result<int64_t> ShardManager::AnnotateImage(
    int64_t image_id, const AnnotationRecord& annotation) {
  WriteTicket ticket(this);
  TVDP_ASSIGN_OR_RETURN(ImageOwner owner, OwnerOf(image_id));
  TVDP_ASSIGN_OR_RETURN(int64_t ann_local,
                        owner.tvdp->AnnotateImage(owner.local, annotation));
  ShipShard(owner.shard);
  return ann_local * shard_count() + owner.shard;
}

Status ShardManager::StoreFeature(int64_t image_id, const std::string& kind,
                                  const ml::FeatureVector& feature) {
  WriteTicket ticket(this);
  TVDP_ASSIGN_OR_RETURN(ImageOwner owner, OwnerOf(image_id));
  TVDP_RETURN_IF_ERROR(owner.tvdp->StoreFeature(owner.local, kind, feature));
  ShipShard(owner.shard);
  return Status::OK();
}

Result<ml::FeatureVector> ShardManager::GetFeature(
    int64_t image_id, const std::string& kind) const {
  // Reads take a ticket too: the routing decision must not span a cutover,
  // or a read routed to the old owner could race the GC of the moved row.
  WriteTicket ticket(this);
  TVDP_ASSIGN_OR_RETURN(ImageOwner owner, OwnerOf(image_id));
  return owner.tvdp->GetFeature(owner.local, kind);
}

Result<Json> ShardManager::ImageRowJson(int64_t image_id) const {
  WriteTicket ticket(this);
  TVDP_ASSIGN_OR_RETURN(ImageOwner owner, OwnerOf(image_id));
  TVDP_ASSIGN_OR_RETURN(Json row, owner.tvdp->ImageRowJson(owner.local));
  row["id"] = Json(image_id);
  return row;
}

Result<std::vector<query::QueryHit>> ShardManager::ProbeShard(
    int shard, const std::shared_ptr<Tvdp>& tvdp, const query::HybridQuery& q,
    const RequestContext& ctx, const query::QueryBudget& budget,
    query::QueryPlan* plan_out, bool inject_faults) const {
  if (!tvdp) {
    return Status::Unavailable("shard " + std::to_string(shard) + " is down");
  }
  ShardFaultProfile f;
  bool crash = false, hang = false, slow = false;
  std::shared_ptr<const std::unordered_map<int64_t, int64_t>> reverse;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    Slot& slot = slots_[static_cast<size_t>(shard)];
    f = slot.faults;
    reverse = slot.reverse_relocations;
    if (inject_faults) {
      if (f.crash_prob > 0) crash = slot.rng.Bernoulli(f.crash_prob);
      if (!crash && f.hang_prob > 0) hang = slot.rng.Bernoulli(f.hang_prob);
      if (!crash && !hang && f.slow_prob > 0) {
        slow = slot.rng.Bernoulli(f.slow_prob);
      }
    }
  }
  if (crash) {
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " crash (injected)");
  }
  if (hang) {
    // Block in 1 ms slices until the attempt's budget or the hang cap
    // runs out — the probe never answers, like a wedged replica.
    double hung = 0;
    while (hung < f.hang_ms && ctx.Check().ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      hung += 1;
    }
    return Status::Unavailable("shard " + std::to_string(shard) +
                               " hang (injected)");
  }
  if (slow && f.slow_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(f.slow_ms));
  }
  query::HybridQuery local_q = q;
  if (reverse && !reverse->empty()) {
    // A shard holding relocated rows cannot truncate a ranked query
    // locally: relocated rows sit at the high end of the local id space,
    // so the local tie order no longer matches the global (original-id)
    // order and local top-k could evict a true global winner. Return the
    // shard's full ranking instead; the gather-side merge re-truncates
    // globally after ids are translated back.
    const int all = static_cast<int>(
        std::min<size_t>(tvdp->image_count(),
                         static_cast<size_t>(
                             std::numeric_limits<int>::max())));
    if (local_q.visual.has_value() &&
        local_q.visual->kind == query::VisualPredicate::Kind::kTopK) {
      local_q.visual->k = std::max(local_q.visual->k, all);
    }
    if (local_q.spatial.has_value() &&
        local_q.spatial->kind == query::SpatialPredicate::Kind::kKnn) {
      local_q.spatial->k = std::max(local_q.spatial->k, all);
    }
  }
  TVDP_ASSIGN_OR_RETURN(std::vector<query::QueryHit> hits,
                        tvdp->ExecuteQuery(local_q, &ctx, budget, plan_out));
  const int n = shard_count();
  if (n > 1) {
    // Rows migrated in (or mid-copy) keep their original global id so the
    // dual-serving window dedups exactly; everything else translates
    // arithmetically.
    for (query::QueryHit& h : hits) {
      if (reverse) {
        auto it = reverse->find(h.image_id);
        if (it != reverse->end()) {
          h.image_id = it->second;
          continue;
        }
      }
      h.image_id = h.image_id * n + shard;
    }
  }
  return hits;
}

query::ShardEstimate ShardManager::EstimateShard(
    const std::shared_ptr<Tvdp>& tvdp, const query::HybridQuery& q) const {
  query::ShardEstimate est;
  if (!tvdp) return est;
  Result<query::QueryPlan> plan = tvdp->ExplainQuery(q);
  if (!plan.ok()) return est;
  if (!plan->conjuncts.empty()) {
    est.rows = plan->conjuncts.front().estimated_rows;
  }
  // Only exact counters may prove emptiness: the textual estimate is a
  // min-df / capped-sum over real posting lists and the temporal estimate
  // an exact order statistic, so a zero there is a zero. Spatial and
  // categorical estimates are heuristic and never prune.
  for (const query::ConjunctPlan& c : plan->conjuncts) {
    if ((c.family == "textual" || c.family == "temporal") &&
        c.estimated_rows == 0) {
      est.provably_empty = true;
    }
  }
  return est;
}

void ShardManager::RecordProbeOutcome(const query::ShardReport& report) const {
  if (report.outcome != query::ShardOutcome::kProbed &&
      report.outcome != query::ShardOutcome::kMigrating &&
      report.outcome != query::ShardOutcome::kFailed &&
      report.outcome != query::ShardOutcome::kFailedOver) {
    return;
  }
  const bool failed = report.outcome == query::ShardOutcome::kFailed;
  // A failed-over probe whose primary was actually attempted is a primary
  // failure for the breaker, even though the query succeeded via a replica.
  // A probe served by a replica without touching the primary (breaker
  // already open, or a balanced read) says nothing about the primary.
  const bool primary_failure =
      report.primary_probed &&
      (failed || report.outcome == query::ShardOutcome::kFailedOver);
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    Slot& slot = slots_[static_cast<size_t>(report.shard)];
    ++slot.probes;
    if (failed) ++slot.failures;
    if (slot.latencies.size() < kLatencyRing) {
      slot.latencies.push_back(report.latency_ms);
    } else {
      slot.latencies[slot.latency_next % kLatencyRing] = report.latency_ms;
    }
    ++slot.latency_next;
  }
  bool tripped_open = false;
  if (tracker_ && report.primary_probed) {
    std::lock_guard<std::mutex> lock(tracker_mutex_);
    const size_t i = static_cast<size_t>(report.shard);
    const edge::CircuitState before = tracker_->state(i);
    if (primary_failure) {
      tracker_->RecordFailure(i, NowMs());
    } else {
      tracker_->RecordSuccess(i, NowMs());
    }
    tripped_open = before != edge::CircuitState::kOpen &&
                   tracker_->state(i) == edge::CircuitState::kOpen;
  }
  if (tripped_open) {
    // The breaker just gave up on this primary. If the shard is replicated
    // and its engine is actually gone, retry the automatic promotion the
    // KillShard-time attempt may have skipped (e.g. a fault hook vetoed
    // it). No locks held here; PromoteShard manages its own.
    bool promotable = false;
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      const Slot& slot = slots_[static_cast<size_t>(report.shard)];
      promotable = slot.replicas && !slot.tvdp && !slot.promoting;
    }
    if (promotable) {
      Result<Json> promoted =
          const_cast<ShardManager*>(this)->PromoteShard(report.shard);
      if (!promoted.ok()) {
        TVDP_LOG(Warning) << "breaker-triggered promotion of shard "
                          << report.shard
                          << " failed: " << promoted.status().ToString();
      }
    }
  }
}

Result<ShardManager::ShardedQueryResult> ShardManager::ExecuteQuery(
    const query::HybridQuery& q, const RequestContext* ctx,
    const query::QueryBudget& budget, bool shed_shards_degraded) const {
  const size_t n = slots_.size();
  std::vector<ShardProbeTarget> targets;
  targets.reserve(n);
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (size_t i = 0; i < n; ++i) {
      Slot& slot = slots_[i];
      std::vector<std::shared_ptr<Tvdp>> replicas;
      int preferred = -1;
      if (slot.replicas) {
        const int rc = slot.replicas->replica_count();
        for (int r = 0; r < rc; ++r) {
          std::shared_ptr<Tvdp> handle = slot.replicas->replica(r);
          if (handle) replicas.push_back(std::move(handle));
        }
        if (options_.replication.balance_replica_reads &&
            !replicas.empty() && slot.tvdp) {
          // Round-robin the clean read across primary + replicas; lane 0
          // is the primary (preferred stays -1).
          const size_t lane = slot.read_rr++ % (replicas.size() + 1);
          if (lane > 0) preferred = static_cast<int>(lane - 1);
        }
      }
      targets.emplace_back(this, static_cast<int>(i), slot.tvdp,
                           ExpandedRegionLocked(static_cast<int>(i)),
                           slot.migrating, std::move(replicas), preferred);
    }
  }
  std::vector<query::ShardTarget*> ptrs;
  ptrs.reserve(n);
  for (ShardProbeTarget& t : targets) ptrs.push_back(&t);

  query::ScatterGatherOptions gopts = options_.gather;
  gopts.shed_low_selectivity =
      gopts.shed_low_selectivity || shed_shards_degraded;
  if (tracker_) {
    gopts.admit = [this](int shard) {
      std::lock_guard<std::mutex> lock(tracker_mutex_);
      return tracker_->AllowRequest(static_cast<size_t>(shard), NowMs());
    };
    // All-shards-blocked responses carry a retry-after derived from the
    // earliest breaker half-open deadline instead of a static hint.
    gopts.retry_after_hint = [this](const std::vector<int>& blocked) {
      std::lock_guard<std::mutex> lock(tracker_mutex_);
      const double now = NowMs();
      double best = -1;
      for (int s : blocked) {
        const double rem =
            tracker_->RemainingCooldownMs(static_cast<size_t>(s), now);
        if (rem > 0 && (best < 0 || rem < best)) best = rem;
      }
      return best > 0 ? best : 50.0;
    };
  }
  gopts.observe = [this](const query::ShardReport& r) {
    RecordProbeOutcome(r);
  };

  TVDP_ASSIGN_OR_RETURN(
      query::ShardedResult gathered,
      query::ScatterGather::Execute(ptrs, nullptr, q, ctx, budget, gopts));

  ShardedQueryResult out;
  out.hits = std::move(gathered.hits);
  out.coverage = std::move(gathered.coverage);
  if (n == 1) {
    // Degenerate single-shard mode: the shard's executed plan verbatim,
    // byte-identical to an unsharded platform's plan JSON.
    out.plan = gathered.plans.empty() ? Json::MakeObject()
                                      : gathered.plans[0].second.ToJson();
  } else {
    Json node = Json::MakeObject();
    node["op"] = "ScatterGather";
    node["detail"] =
        "probed " + std::to_string(out.coverage.ProbedShards().size()) + "/" +
        std::to_string(n);
    Json shard_plans = Json::MakeArray();
    for (const auto& [sid, plan] : gathered.plans) {
      Json entry = Json::MakeObject();
      entry["shard"] = Json(sid);
      entry["plan"] = plan.ToJson();
      shard_plans.Append(std::move(entry));
    }
    node["shard_plans"] = std::move(shard_plans);
    out.plan = std::move(node);
  }
  return out;
}

Result<Json> ShardManager::ExplainQuery(const query::HybridQuery& q,
                                        const query::QueryBudget& budget) const {
  TVDP_RETURN_IF_ERROR(query::Planner::Validate(q));
  std::vector<std::pair<int, std::shared_ptr<Tvdp>>> shards;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (size_t i = 0; i < slots_.size(); ++i) {
      shards.emplace_back(static_cast<int>(i), slots_[i].tvdp);
    }
  }
  if (shards.size() == 1) {
    if (!shards[0].second) {
      return Status::Unavailable("shard 0 is down");
    }
    TVDP_ASSIGN_OR_RETURN(query::QueryPlan plan,
                          shards[0].second->ExplainQuery(q, budget));
    return plan.ToJson();
  }
  Json node = Json::MakeObject();
  node["op"] = "ScatterGather";
  node["detail"] = "shards " + std::to_string(shards.size());
  Json shard_plans = Json::MakeArray();
  for (const auto& [sid, tvdp] : shards) {
    Json entry = Json::MakeObject();
    entry["shard"] = Json(sid);
    if (!tvdp) {
      entry["error"] = "Unavailable";
    } else {
      Result<query::QueryPlan> plan = tvdp->ExplainQuery(q, budget);
      if (!plan.ok()) return plan.status();
      entry["plan"] = plan->ToJson();
    }
    shard_plans.Append(std::move(entry));
  }
  node["shard_plans"] = std::move(shard_plans);
  return node;
}

Status ShardManager::SetShardFaults(int shard,
                                    const ShardFaultProfile& faults) {
  if (shard < 0 || shard >= shard_count()) {
    return Status::InvalidArgument("shard index out of range");
  }
  auto valid_prob = [](double p) { return p >= 0 && p <= 1; };
  if (!valid_prob(faults.crash_prob) || !valid_prob(faults.hang_prob) ||
      !valid_prob(faults.slow_prob)) {
    return Status::InvalidArgument(
        "fault probabilities must be in [0, 1]");
  }
  if (faults.slow_ms < 0 || faults.hang_ms < 0) {
    return Status::InvalidArgument("fault delays must be non-negative");
  }
  std::lock_guard<std::mutex> lock(slots_mutex_);
  slots_[static_cast<size_t>(shard)].faults = faults;
  return Status::OK();
}

Status ShardManager::KillShard(int shard, bool force) {
  if (shard < 0 || shard >= shard_count()) {
    return Status::InvalidArgument("shard index out of range");
  }
  const Status down = Status::FailedPrecondition(
      "shard " + std::to_string(shard) + " is already down");
  std::shared_ptr<Tvdp> engine;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    Slot& slot = slots_[static_cast<size_t>(shard)];
    if (!slot.tvdp) return down;
    if (slot.migrating && !force) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) +
          " is an endpoint of an in-flight cell migration; pass force to "
          "kill it anyway (the migration will abandon and reconcile later)");
    }
    engine = slot.tvdp;
  }
  // A writer that took the handle before the kill must not append to the
  // WAL that recovery reopens: the fence waits out a commit in flight and
  // refuses every later write through the handle. It lands before the slot
  // reads as down, so no RecoverShard can reopen the files under a commit.
  engine->Fence(
      Status::Unavailable("shard " + std::to_string(shard) + " is down"));
  std::shared_ptr<ReplicaSet> reps;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    Slot& slot = slots_[static_cast<size_t>(shard)];
    if (slot.tvdp != engine) return down;  // a racing kill or promotion
    // The shard crashes as a process does: the engine is dropped with no
    // checkpoint and no flush, and its files stay for recovery to replay.
    // In-flight probes keep their snapshotted handle and finish against
    // the old instance.
    slot.tvdp.reset();
    reps = slot.replicas;
  }
  if (reps) {
    // The crash takes the unshipped capture channel with it. Under kSync
    // the channel is empty at every ack boundary, so no acknowledged write
    // is in it; under kAsync the promotion re-derives the lost records
    // from the primary's WAL tail.
    reps->DiscardPending();
    if (reps->has_live_replica()) {
      // Automatic failover: promote the most-caught-up replica. Best
      // effort — a fault hook's veto leaves the shard down, and the
      // breaker-trip path in RecordProbeOutcome retries later.
      Result<Json> promoted = PromoteShard(shard);
      if (!promoted.ok()) {
        TVDP_LOG(Warning) << "automatic promotion of killed shard " << shard
                          << " failed: " << promoted.status().ToString();
      }
    }
  }
  return Status::OK();
}

Status ShardManager::RecoverShard(int shard) {
  Status out = RecoverShardInner(shard);
  // Recovery reconciles migrations, which may unblock a parked promotion.
  DrainDeferredPromotions();
  return out;
}

Status ShardManager::RecoverShardInner(int shard) {
  if (shard < 0 || shard >= shard_count()) {
    return Status::InvalidArgument("shard index out of range");
  }
  // Ticketed (the reconciliation pass below mutates shard engines and must
  // be drainable by the cutover / fence write gate), then serialized with
  // broadcasts so that pass sees a stable fleet (ticket before
  // broadcast_mutex_ before slots_mutex_, never the reverse).
  WriteTicket ticket(this);
  std::lock_guard<std::mutex> block(broadcast_mutex_);
  std::shared_ptr<ReplicaSet> reps;
  int primary_index = 0;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    Slot& slot = slots_[static_cast<size_t>(shard)];
    if (slot.tvdp) {
      return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                        " is not down");
    }
    reps = slot.replicas;
    primary_index = slot.primary_index;
  }
  // Reopen outside slots_mutex_ — WAL replay is disk-bound and must not
  // stall query dispatch. The slot stays down until the swap below, so
  // no other caller can race the handle.
  TVDP_ASSIGN_OR_RETURN(
      Tvdp t, Tvdp::Open(CopyPath(shard, primary_index), options_.durable));
  auto revived_primary = std::make_shared<Tvdp>(std::move(t));
  if (reps) {
    // The replicas may have drifted past the recovered primary (they kept
    // the shipped records the crash destroyed locally under kAsync) or
    // behind it; rather than diff, start them again as copies of the
    // revived primary, the only state that is now authoritative. Until the
    // swap below no writer can commit on it, so none is acked before the
    // cut.
    TVDP_RETURN_IF_ERROR(
        AttachReplicas(shard, revived_primary, primary_index, reps));
  }
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    Slot& slot = slots_[static_cast<size_t>(shard)];
    slot.tvdp = revived_primary;
    slot.tvdp->set_epoch(slot.epoch);
    storage::DurableCatalog* dc = slot.tvdp->durable_catalog();
    slot.replayed = dc->replayed_records();
    slot.max_fov_radius_m = slot.tvdp->MaxFovRadiusM();
    slot.pending_broadcasts.clear();
    for (const storage::PendingBroadcast& p : dc->PendingBroadcasts()) {
      slot.pending_broadcasts[p.broadcast_id] = p;
    }
    next_broadcast_id_ =
        std::max(next_broadcast_id_, dc->max_broadcast_id() + 1);
  }
  // Resolve whatever a crash left pending now that this shard is back,
  // then surface (without undoing the recovery) any remaining divergence.
  TVDP_ASSIGN_OR_RETURN(Json report, ReconcileLocked());
  (void)report;
  return VerifyConsistencyLocked(nullptr);
}

void ShardManager::SetPromotionHook(
    std::function<bool(const std::string& phase, int shard)> hook) {
  std::lock_guard<std::mutex> lock(promotion_mutex_);
  promotion_hook_ = std::move(hook);
}

bool ShardManager::PromotionHookOk(const char* phase, int shard) const {
  if (!promotion_hook_) return true;
  return promotion_hook_(phase, shard);
}

Status ShardManager::CommitPromotionToShardMap(int shard, int64_t new_epoch,
                                               int new_primary_index) {
  // shard_map_mutex_ first (it orders before slots_mutex_): the mutex both
  // serializes this write against a concurrent rebalance cutover's and
  // pins the cell snapshot below to the cutover's write-then-flip critical
  // section, so the map this promotion persists can never carry a cell
  // ownership the cutover already superseded on disk.
  std::lock_guard<std::mutex> map_lock(shard_map_mutex_);
  std::vector<int> cell_map;
  std::vector<std::array<int64_t, 3>> relocs;
  std::vector<int64_t> committed;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    cell_map = cell_to_shard_;
    for (const auto& [global, loc] : relocated_) {
      relocs.push_back({global, loc.first, loc.second});
    }
    committed.assign(committed_migrations_.begin(),
                     committed_migrations_.end());
  }
  const int64_t prev_epoch = persisted_epochs_[static_cast<size_t>(shard)];
  const int prev_primary = persisted_primaries_[static_cast<size_t>(shard)];
  persisted_epochs_[static_cast<size_t>(shard)] = new_epoch;
  persisted_primaries_[static_cast<size_t>(shard)] = new_primary_index;
  Status written = WriteShardMapLocked(cell_map, relocs, committed);
  if (!written.ok()) {
    // The file kept its old contents; the in-memory persisted state must
    // agree, or a later (unrelated) map write would durably promote a
    // replica that was never flipped to.
    persisted_epochs_[static_cast<size_t>(shard)] = prev_epoch;
    persisted_primaries_[static_cast<size_t>(shard)] = prev_primary;
  }
  return written;
}

Result<Json> ShardManager::PromoteShard(int shard) {
  if (shard < 0 || shard >= shard_count()) {
    return Status::InvalidArgument("shard index out of range");
  }
  std::lock_guard<std::mutex> promo(promotion_mutex_);
  std::shared_ptr<ReplicaSet> reps;
  std::shared_ptr<Tvdp> old_primary;
  int64_t old_epoch = 0;
  int old_primary_index = 0;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    Slot& slot = slots_[static_cast<size_t>(shard)];
    if (!slot.replicas) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) +
          " is not replicated; nothing to promote");
    }
    if (slot.migrating) {
      // Promotion and migration both rewrite the shard's engine identity;
      // park the promotion until the migration resolves (reconciliation /
      // rebalance completion drains the deferred set).
      deferred_promotions_.insert(shard);
      Json out = Json::MakeObject();
      out["shard"] = Json(shard);
      out["action"] = Json("deferred");
      return out;
    }
    deferred_promotions_.erase(shard);
    if (!slot.replicas->has_live_replica()) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) +
          " has no live replica to promote");
    }
    reps = slot.replicas;
    old_primary = slot.tvdp;  // may be null: the primary crashed
    old_epoch = slot.epoch;
    old_primary_index = slot.primary_index;
    slot.promoting = true;
  }

  // Every exit below must clear the promoting flag; run the phases in a
  // closure so one cleanup covers all paths.
  Result<Json> result = [&]() -> Result<Json> {
    const int64_t new_epoch = old_epoch + 1;
    auto abandoned = [shard](const char* phase) {
      return Status::Unavailable(
          "promotion of shard " + std::to_string(shard) + " abandoned at " +
          phase + "; durable evidence resolves it at recovery");
    };

    // Phase 1 — ship: drain whatever the capture channel still holds.
    if (!PromotionHookOk("ship", shard)) return abandoned("ship");
    TVDP_RETURN_IF_ERROR(reps->Ship());

    // Phase 2 — apply: a primary that died with unshipped records (the
    // kAsync window, or a crash that destroyed the channel) left them in
    // its WAL; tail it past the shipped offset and apply. This is what
    // makes "zero lost acknowledged writes" hold even under kAsync.
    if (!PromotionHookOk("apply", shard)) return abandoned("apply");
    size_t applied_tail = 0;
    Fs* fs = options_.durable.fs;
    const std::string wal_path = CopyPath(shard, old_primary_index) + ".wal";
    if (fs->Exists(wal_path)) {
      Result<storage::WalRecovery> tail =
          storage::Wal::TailFrom(fs, wal_path, reps->shipped_wal_offset());
      // Tail errors are not fatal: a compacted WAL means the shipped
      // offset over-covers the log and nothing is missing.
      if (tail.ok() && !tail->records.empty()) {
        std::vector<storage::WalRecord> mutations;
        for (storage::WalRecord& r : tail->records) {
          if (r.type == storage::WalRecordType::kInsert ||
              r.type == storage::WalRecordType::kDelete) {
            mutations.push_back(std::move(r));
          }
        }
        if (!mutations.empty()) {
          TVDP_RETURN_IF_ERROR(reps->ApplyToLive(mutations));
          applied_tail = mutations.size();
        }
      }
    }

    // Phase 3 — ack: every live replica fsyncs its own WAL, so the
    // promoted state survives a second crash.
    if (!PromotionHookOk("ack", shard)) return abandoned("ack");
    TVDP_RETURN_IF_ERROR(reps->FsyncReplicas());

    const int elected = reps->ElectMostCaughtUp();
    if (elected < 0) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(shard) +
          " lost its last live replica mid-promotion");
    }
    const int new_primary_index = ReplicaCopyIndex(old_primary_index, elected);

    // Phase 4 — promote: atomically rewrite the shard map with the bumped
    // epoch and the new primary path. THE durable commit point: a restart
    // before this write serves the old primary, after it the new one.
    if (!PromotionHookOk("promote", shard)) return abandoned("promote");
    TVDP_RETURN_IF_ERROR(
        CommitPromotionToShardMap(shard, new_epoch, new_primary_index));

    // Phase 5 — fence: gate writes, drain the in-flight ones into the
    // replicas (they committed against the old primary under the old
    // epoch, so they must ship BEFORE the epoch gate rises), then raise
    // the epoch and fence the old engine. From here a straggler holding
    // the old primary's handle gets kFailedPrecondition on writes and its
    // captures are rejected as stale — no split-brain.
    if (!PromotionHookOk("fence", shard)) return abandoned("fence");
    BlockWrites();
    Status shipped = reps->Ship();
    if (!shipped.ok()) {
      UnblockWrites();
      return shipped;
    }
    reps->set_epoch(new_epoch);
    if (old_primary) {
      old_primary->Fence(new_epoch);
      reps->Detach(old_primary);
    }

    // Phase 6 — flip: swap routing to the promoted engine, rebind the
    // capture observer, reset the breaker. A veto here models a crash
    // after the fence: the shard map already names the new primary, so a
    // restart (or a retried PromoteShard) completes the flip.
    if (!PromotionHookOk("flip", shard)) {
      UnblockWrites();
      return abandoned("flip");
    }
    std::shared_ptr<Tvdp> engine = reps->Take(elected);
    if (!engine) {
      UnblockWrites();
      return Status::Internal("elected replica vanished during promotion");
    }
    engine->set_epoch(new_epoch);
    // A replica commits without an fsync, because Ship syncs each batch;
    // as the primary it acks writes, so it takes on the fleet's setting.
    engine->durable_catalog()->set_sync_on_commit(
        options_.durable.sync_on_commit);
    const double fov = engine->MaxFovRadiusM();
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      Slot& slot = slots_[static_cast<size_t>(shard)];
      slot.tvdp = engine;
      slot.epoch = new_epoch;
      slot.primary_index = new_primary_index;
      slot.max_fov_radius_m = std::max(slot.max_fov_radius_m, fov);
    }
    reps->Rebind(engine);
    UnblockWrites();
    if (tracker_) {
      // The failures that tripped the breaker belonged to the dead
      // primary; the promoted engine starts with a clean circuit.
      std::lock_guard<std::mutex> lock(tracker_mutex_);
      tracker_->Reset(static_cast<size_t>(shard));
    }

    Json report = Json::MakeObject();
    report["shard"] = Json(shard);
    report["action"] = Json("promoted");
    report["old_epoch"] = Json(old_epoch);
    report["new_epoch"] = Json(new_epoch);
    report["promoted_replica"] = Json(elected);
    report["new_primary_index"] = Json(new_primary_index);
    report["applied_tail_records"] =
        Json(static_cast<int64_t>(applied_tail));
    return report;
  }();

  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    slots_[static_cast<size_t>(shard)].promoting = false;
  }
  return result;
}

void ShardManager::DrainDeferredPromotions() {
  std::vector<int> ready;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (int s : deferred_promotions_) {
      if (!slots_[static_cast<size_t>(s)].migrating) ready.push_back(s);
    }
  }
  for (int s : ready) {
    Result<Json> promoted = PromoteShard(s);  // re-defers if migrating again
    if (!promoted.ok()) {
      TVDP_LOG(Warning) << "deferred promotion of shard " << s
                        << " failed: " << promoted.status().ToString();
      std::lock_guard<std::mutex> lock(slots_mutex_);
      deferred_promotions_.erase(s);
    }
  }
}

Status ShardManager::KillReplica(int shard, int replica) {
  if (shard < 0 || shard >= shard_count()) {
    return Status::InvalidArgument("shard index out of range");
  }
  std::shared_ptr<ReplicaSet> reps;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    reps = slots_[static_cast<size_t>(shard)].replicas;
  }
  if (!reps) {
    return Status::FailedPrecondition("shard " + std::to_string(shard) +
                                      " is not replicated");
  }
  return reps->KillReplica(replica);
}

bool ShardManager::shard_promoting(int shard) const {
  if (shard < 0 || shard >= shard_count()) return false;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return slots_[static_cast<size_t>(shard)].promoting;
}

int64_t ShardManager::shard_epoch(int shard) const {
  if (shard < 0 || shard >= shard_count()) return 0;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return slots_[static_cast<size_t>(shard)].epoch;
}

int ShardManager::shard_primary_index(int shard) const {
  if (shard < 0 || shard >= shard_count()) return 0;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return slots_[static_cast<size_t>(shard)].primary_index;
}

int ShardManager::live_replica_count(int shard) const {
  if (shard < 0 || shard >= shard_count()) return 0;
  std::shared_ptr<ReplicaSet> reps;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    reps = slots_[static_cast<size_t>(shard)].replicas;
  }
  return reps ? reps->live_replica_count() : 0;
}

size_t ShardManager::replica_lag_records(int shard) const {
  if (shard < 0 || shard >= shard_count()) return 0;
  std::shared_ptr<ReplicaSet> reps;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    reps = slots_[static_cast<size_t>(shard)].replicas;
  }
  return reps ? reps->lag_records() : 0;
}

bool ShardManager::shard_alive(int shard) const {
  if (shard < 0 || shard >= shard_count()) return false;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  const Slot& slot = slots_[static_cast<size_t>(shard)];
  return slot.tvdp != nullptr;
}

edge::CircuitState ShardManager::breaker_state(int shard) const {
  if (!tracker_ || shard < 0 || shard >= shard_count()) {
    return edge::CircuitState::kClosed;
  }
  std::lock_guard<std::mutex> lock(tracker_mutex_);
  return tracker_->state(static_cast<size_t>(shard));
}

size_t ShardManager::replayed_records(int shard) const {
  if (shard < 0 || shard >= shard_count()) return 0;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return slots_[static_cast<size_t>(shard)].replayed;
}

Json ShardManager::StatsJson() const {
  Json out = Json::MakeObject();
  out["shard_count"] = Json(shard_count());
  out["breakers"] = Json(options_.breakers);
  out["replication_factor"] =
      Json(options_.replication.replication_factor);
  out["sync"] = Json(options_.replication.sync == SyncLevel::kSync
                         ? std::string("sync")
                         : std::string("async"));
  Json shards = Json::MakeArray();
  for (int i = 0; i < shard_count(); ++i) {
    std::shared_ptr<Tvdp> tvdp;
    std::shared_ptr<ReplicaSet> reps;
    Json s = Json::MakeObject();
    {
      std::lock_guard<std::mutex> lock(slots_mutex_);
      const Slot& slot = slots_[static_cast<size_t>(i)];
      tvdp = slot.tvdp;
      reps = slot.replicas;
      s["epoch"] = Json(slot.epoch);
      s["primary_index"] = Json(slot.primary_index);
      s["promoting"] = Json(slot.promoting);
      s["shard"] = Json(i);
      s["alive"] = Json(slot.tvdp != nullptr);
      s["probes"] = Json(slot.probes);
      s["failures"] = Json(slot.failures);
      s["probe_p50_ms"] = Json(Percentile(slot.latencies, 50));
      s["probe_p99_ms"] = Json(Percentile(slot.latencies, 99));
      s["replayed_records"] = Json(slot.replayed);
      s["pending_broadcasts"] = Json(slot.pending_broadcasts.size());
      s["region"] = BBoxJson(ExpandedRegionLocked(i));
      s["migrating"] = Json(slot.migrating);
      const bool endpoint = !migration_.phase.empty() &&
                            (i == migration_.source || i == migration_.target);
      s["migration_phase"] =
          Json(endpoint ? migration_.phase : std::string());
      s["migration_rows_copied"] =
          Json(endpoint ? migration_.rows_copied : size_t{0});
      s["migration_rows_caught_up"] =
          Json(endpoint ? migration_.rows_caught_up : size_t{0});
    }
    {
      std::lock_guard<std::mutex> lock(tracker_mutex_);
      s["breaker"] =
          Json(tracker_ ? edge::CircuitStateName(tracker_->state(
                              static_cast<size_t>(i)))
                        : std::string("disabled"));
    }
    s["images"] = Json(tvdp ? tvdp->image_count() : 0);
    if (tvdp) s["mvcc"] = tvdp->MvccStats();
    s["wal_bytes"] = Json(tvdp ? tvdp->durable_catalog()->wal_size_bytes() : 0);
    // Self-locked; read outside slots_mutex_ so a mid-ship stats call
    // never stalls dispatch.
    if (reps) s["replication"] = reps->StatsJson();
    shards.Append(std::move(s));
  }
  out["shards"] = std::move(shards);
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    Json mig = Json::MakeObject();
    mig["active"] = Json(migration_.active);
    mig["id"] = Json(migration_.id);
    mig["phase"] = Json(migration_.phase);
    mig["source"] = Json(migration_.source);
    mig["target"] = Json(migration_.target);
    mig["rows_copied"] = Json(migration_.rows_copied);
    mig["rows_caught_up"] = Json(migration_.rows_caught_up);
    out["migration"] = std::move(mig);
    size_t pending_rebalance = 0;
    for (const Slot& slot : slots_) {
      for (const auto& [bid, p] : slot.pending_broadcasts) {
        if (p.op == "rebalance_cells") ++pending_rebalance;
      }
    }
    out["pending_rebalance_intents"] = Json(pending_rebalance);
    out["relocated_rows"] = Json(relocated_.size());
  }
  return out;
}

size_t ShardManager::image_count() const {
  std::vector<std::shared_ptr<Tvdp>> live;
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    for (const Slot& slot : slots_) {
      if (slot.tvdp) live.push_back(slot.tvdp);
    }
  }
  size_t total = 0;
  for (const auto& t : live) total += t->image_count();
  return total;
}

Tvdp* ShardManager::shard(int i) {
  if (i < 0 || i >= shard_count()) return nullptr;
  std::lock_guard<std::mutex> lock(slots_mutex_);
  return slots_[static_cast<size_t>(i)].tvdp.get();
}

}  // namespace tvdp::platform
