#include "platform/replication.h"

#include <algorithm>

#include "common/file.h"
#include "common/logging.h"

namespace tvdp::platform {

ReplicaSet::ReplicaSet(int shard, int64_t epoch)
    : shard_(shard), epoch_(epoch) {}

Status ReplicaSet::Attach(const std::shared_ptr<Tvdp>& primary,
                          const std::vector<std::string>& replica_paths,
                          storage::DurableCatalogOptions durable,
                          SyncLevel sync) {
  // Replicas commit through their own WAL but are fsynced by Ship (when the
  // sync level demands it), not per record.
  durable.sync_on_commit = false;
  Fs* fs = durable.fs ? durable.fs : Fs::Default();
  // Held through the swap: no Ship may drain a capture made after the cut
  // into the replicas being replaced.
  std::lock_guard<std::mutex> ship(ship_mutex_);
  // The copy replaces whatever a previous incarnation (e.g. a demoted stale
  // primary) left at each path: the live primary is the only state that
  // survived the failover.
  TVDP_ASSIGN_OR_RETURN(uint64_t offset, Cut(primary, replica_paths, fs));
  std::vector<Replica> replicas;
  for (const std::string& path : replica_paths) {
    TVDP_ASSIGN_OR_RETURN(Tvdp engine, Tvdp::Open(path, durable));
    replicas.push_back({std::make_shared<Tvdp>(std::move(engine)), true, 0});
  }
  std::lock_guard<std::mutex> lock(members_mutex_);
  replicas_ = std::move(replicas);
  shipped_wal_offset_ = offset;
  sync_ = sync;
  return Status::OK();
}

Result<uint64_t> ReplicaSet::Cut(const std::shared_ptr<Tvdp>& primary,
                                 const std::vector<std::string>& copy_paths,
                                 Fs* fs) {
  // Weak handle: the observer must not keep a dropped (killed) primary
  // alive. It runs under the primary's writer lock, after the mutation
  // committed, so the WAL's size_bytes() is the record's post-append
  // boundary — the offset promotion tails from.
  std::weak_ptr<Tvdp> weak = primary;
  return primary->CopyAndObserve(
      [this, weak](const storage::WalRecord& record) {
        std::shared_ptr<Tvdp> p = weak.lock();
        Capture(record, p ? p->durable_catalog()->wal_size_bytes() : 0);
      },
      copy_paths, fs);
}

void ReplicaSet::Detach(const std::shared_ptr<Tvdp>& primary) {
  if (primary) primary->SetMutationObserver(nullptr);
}

void ReplicaSet::Rebind(const std::shared_ptr<Tvdp>& primary) {
  // With nothing to copy the cut cannot fail.
  const uint64_t offset = Cut(primary, {}, nullptr).value();
  std::lock_guard<std::mutex> lock(members_mutex_);
  shipped_wal_offset_ = offset;
}

Status ReplicaSet::FsyncReplicas() {
  std::lock_guard<std::mutex> ship(ship_mutex_);
  std::vector<std::shared_ptr<Tvdp>> live;
  {
    std::lock_guard<std::mutex> lock(members_mutex_);
    for (const Replica& r : replicas_) {
      if (r.live && r.engine) live.push_back(r.engine);
    }
  }
  for (const auto& engine : live) {
    TVDP_RETURN_IF_ERROR(engine->durable_catalog()->Flush());
  }
  return Status::OK();
}

void ReplicaSet::Capture(const storage::WalRecord& record,
                         uint64_t wal_offset) {
  std::lock_guard<std::mutex> lock(channel_mutex_);
  if (record.epoch < epoch_) {
    // A stale primary (fenced out by a promotion it has not observed)
    // still holds the observer: its mutations must never reach the
    // replicas, or the new primary's history would fork.
    ++rejected_stale_;
    return;
  }
  channel_.emplace_back(record, wal_offset);
}

Status ReplicaSet::Ship() {
  std::lock_guard<std::mutex> ship(ship_mutex_);
  std::vector<std::pair<storage::WalRecord, uint64_t>> drained;
  {
    std::lock_guard<std::mutex> lock(channel_mutex_);
    drained.swap(channel_);
  }
  if (drained.empty()) return Status::OK();
  std::vector<storage::WalRecord> batch;
  batch.reserve(drained.size());
  uint64_t max_offset = 0;
  for (auto& [record, offset] : drained) {
    max_offset = std::max(max_offset, offset);
    batch.push_back(std::move(record));
  }
  Status s = ApplyBatchLocked(batch, sync_ == SyncLevel::kSync);
  if (s.ok() && max_offset > 0) {
    std::lock_guard<std::mutex> lock(members_mutex_);
    shipped_wal_offset_ = std::max(shipped_wal_offset_, max_offset);
  }
  return s;
}

void ReplicaSet::DiscardPending() {
  std::lock_guard<std::mutex> lock(channel_mutex_);
  channel_.clear();
}

Status ReplicaSet::ApplyToLive(const std::vector<storage::WalRecord>& records) {
  std::lock_guard<std::mutex> ship(ship_mutex_);
  return ApplyBatchLocked(records, /*fsync=*/true);
}

Status ReplicaSet::ApplyBatchLocked(
    const std::vector<storage::WalRecord>& batch, bool fsync) {
  if (batch.empty()) return Status::OK();
  // Snapshot the live handles; the engine work runs without ReplicaSet
  // locks (each engine has its own writer lock).
  std::vector<std::pair<size_t, std::shared_ptr<Tvdp>>> live;
  {
    std::lock_guard<std::mutex> lock(members_mutex_);
    for (size_t r = 0; r < replicas_.size(); ++r) {
      if (replicas_[r].live && replicas_[r].engine) {
        live.emplace_back(r, replicas_[r].engine);
      }
    }
  }
  for (auto& [r, engine] : live) {
    Result<size_t> newly_applied = engine->ApplyReplicated(batch);
    Status applied = newly_applied.status();
    if (applied.ok() && fsync) {
      applied = engine->durable_catalog()->Flush();
    }
    std::lock_guard<std::mutex> lock(members_mutex_);
    if (r >= replicas_.size() || replicas_[r].engine != engine) continue;
    if (applied.ok()) {
      // Count what the engine actually applied, not the batch size: records
      // it skipped as already-applied (a retry or WAL-tail overlap) must not
      // inflate the applied counter ElectMostCaughtUp compares.
      replicas_[r].applied += *newly_applied;
    } else {
      // A sick replica must not take down the primary's availability: mark
      // it dead and keep serving. Its death is visible in the stats, and a
      // later promotion will not elect it.
      TVDP_LOG(Warning) << "shard " << shard_ << " replica " << r
                        << " failed to apply shipped records, marking dead: "
                        << applied.ToString();
      replicas_[r].live = false;
      replicas_[r].engine.reset();
    }
  }
  return Status::OK();
}

size_t ReplicaSet::lag_records() const {
  std::lock_guard<std::mutex> lock(channel_mutex_);
  return channel_.size();
}

uint64_t ReplicaSet::shipped_wal_offset() const {
  std::lock_guard<std::mutex> lock(members_mutex_);
  return shipped_wal_offset_;
}

int ReplicaSet::replica_count() const {
  std::lock_guard<std::mutex> lock(members_mutex_);
  return static_cast<int>(replicas_.size());
}

int ReplicaSet::live_replica_count() const {
  std::lock_guard<std::mutex> lock(members_mutex_);
  int live = 0;
  for (const Replica& r : replicas_) {
    if (r.live && r.engine) ++live;
  }
  return live;
}

std::shared_ptr<Tvdp> ReplicaSet::replica(int r) const {
  std::lock_guard<std::mutex> lock(members_mutex_);
  if (r < 0 || r >= static_cast<int>(replicas_.size())) return nullptr;
  return replicas_[static_cast<size_t>(r)].live
             ? replicas_[static_cast<size_t>(r)].engine
             : nullptr;
}

uint64_t ReplicaSet::applied_records(int r) const {
  std::lock_guard<std::mutex> lock(members_mutex_);
  if (r < 0 || r >= static_cast<int>(replicas_.size())) return 0;
  return replicas_[static_cast<size_t>(r)].applied;
}

Status ReplicaSet::KillReplica(int r) {
  std::lock_guard<std::mutex> lock(members_mutex_);
  if (r < 0 || r >= static_cast<int>(replicas_.size())) {
    return Status::InvalidArgument("replica index out of range: " +
                                   std::to_string(r));
  }
  replicas_[static_cast<size_t>(r)].live = false;
  replicas_[static_cast<size_t>(r)].engine.reset();
  return Status::OK();
}

int ReplicaSet::ElectMostCaughtUp() const {
  std::lock_guard<std::mutex> lock(members_mutex_);
  int best = -1;
  uint64_t best_applied = 0;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (!replicas_[r].live || !replicas_[r].engine) continue;
    if (best == -1 || replicas_[r].applied > best_applied) {
      best = static_cast<int>(r);
      best_applied = replicas_[r].applied;
    }
  }
  return best;
}

std::shared_ptr<Tvdp> ReplicaSet::Take(int r) {
  std::lock_guard<std::mutex> lock(members_mutex_);
  if (r < 0 || r >= static_cast<int>(replicas_.size())) return nullptr;
  std::shared_ptr<Tvdp> engine =
      std::move(replicas_[static_cast<size_t>(r)].engine);
  replicas_[static_cast<size_t>(r)].live = false;
  return engine;
}

void ReplicaSet::set_epoch(int64_t epoch) {
  std::lock_guard<std::mutex> lock(channel_mutex_);
  epoch_ = std::max(epoch_, epoch);
}

int64_t ReplicaSet::epoch() const {
  std::lock_guard<std::mutex> lock(channel_mutex_);
  return epoch_;
}

size_t ReplicaSet::rejected_stale_records() const {
  std::lock_guard<std::mutex> lock(channel_mutex_);
  return rejected_stale_;
}

Json ReplicaSet::StatsJson() const {
  Json out = Json::MakeObject();
  {
    std::lock_guard<std::mutex> lock(members_mutex_);
    out["replicas"] = Json(static_cast<int64_t>(replicas_.size()));
    int live = 0;
    Json applied = Json::MakeArray();
    for (const Replica& r : replicas_) {
      if (r.live && r.engine) ++live;
      applied.Append(Json(static_cast<int64_t>(r.applied)));
    }
    out["live"] = Json(static_cast<int64_t>(live));
    out["applied"] = std::move(applied);
    out["shipped_wal_offset"] =
        Json(static_cast<int64_t>(shipped_wal_offset_));
  }
  {
    std::lock_guard<std::mutex> lock(channel_mutex_);
    out["lag_records"] = Json(static_cast<int64_t>(channel_.size()));
    out["epoch"] = Json(epoch_);
    out["rejected_stale_records"] =
        Json(static_cast<int64_t>(rejected_stale_));
  }
  return out;
}

}  // namespace tvdp::platform
