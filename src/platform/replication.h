#ifndef TVDP_PLATFORM_REPLICATION_H_
#define TVDP_PLATFORM_REPLICATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "platform/tvdp.h"
#include "storage/durable_catalog.h"
#include "storage/wal.h"

namespace tvdp::platform {

/// When a routed write is acknowledged to the client relative to its
/// replication (DESIGN.md "Replication, failover, and fencing").
enum class SyncLevel {
  /// The record is applied to every live replica — and fsynced into each
  /// replica's own WAL — before the client ack. Losing the primary loses
  /// nothing that was acknowledged.
  kSync = 0,
  /// The record is acknowledged once the primary committed it; replicas
  /// apply in the background with a bounded lag (`max_async_lag_records`,
  /// exposed as `replica_lag_records`). Losing the primary can lose up to
  /// that many acknowledged records.
  kAsync = 1,
};

/// Per-shard replication configuration (ShardManagerOptions::replication).
struct ReplicationOptions {
  /// Total copies of each shard, primary included. 1 = replication off
  /// (the pre-replication behaviour, byte-identical); 2 = primary + one
  /// replica; etc.
  int replication_factor = 1;

  SyncLevel sync = SyncLevel::kSync;

  /// kAsync only: ship once this many captured records are waiting.
  size_t max_async_lag_records = 64;

  /// Round-robin clean (non-failover) read probes across primary and
  /// replicas for capacity. Off by default: replica reads under kAsync can
  /// trail the primary by the lag bound. Either way scatter-gather fails a
  /// probe over to a replica when the primary is down or its breaker is
  /// open.
  bool balance_replica_reads = false;
};

/// One shard's replica group: the capture channel fed by the primary's
/// mutation observer, the replica engines the channel is shipped to, and
/// the bookkeeping promotion needs (per-replica applied counts, the shipped
/// WAL offset, the fencing epoch).
///
/// Thread safety: all public methods are safe to call concurrently.
/// `Capture` runs under the primary's writer lock and only touches the
/// channel mutex; `Ship` serializes on its own mutex so concurrent writers
/// cannot interleave halves of a batch into a replica.
class ReplicaSet {
 public:
  ReplicaSet(int shard, int64_t epoch);

  /// Starts one replica per path on `durable.fs` as a copy of `primary`'s
  /// files. Under the primary's writer lock it copies the snapshot and the
  /// committed WAL to every path (replacing any stale state there) and
  /// installs the capture observer: each mutation is then in the copies or
  /// captured, and the shipped WAL offset is the copied length. The
  /// replicas then open with `Tvdp::Open`, sync_on_commit off (`Ship`
  /// fsyncs them when the sync level demands it), and replace the set;
  /// their applied counters start at 0. The ship lock is held throughout.
  Status Attach(const std::shared_ptr<Tvdp>& primary,
                const std::vector<std::string>& replica_paths,
                storage::DurableCatalogOptions durable, SyncLevel sync);

  /// Detaches the capture observer from `primary` (engine handoff; the
  /// channel keeps whatever it already captured).
  void Detach(const std::shared_ptr<Tvdp>& primary);

  /// Installs the capture observer on a new primary (the promotion flip)
  /// without copying anything to the remaining replicas, and re-anchors the
  /// shipped WAL offset to the new primary's log length at the same cut.
  /// The epoch gate (already raised by the fence) keeps any stragglers from
  /// the old primary out.
  void Rebind(const std::shared_ptr<Tvdp>& primary);

  /// fsyncs every live replica's WAL — the promotion "ack" phase
  /// (under kAsync the background ships never fsynced).
  Status FsyncReplicas();

  /// Applies every captured-but-unshipped record to every live replica;
  /// with kSync the replicas are fsynced before returning. A
  /// replica that fails to apply is marked dead (the write is NOT failed —
  /// a sick replica must not take down the primary's availability); its
  /// death is visible through `live_replica_count` / `StatsJson`.
  Status Ship();

  /// Crash model: the primary died with the channel unshipped — the
  /// captured records are gone (promotion re-derives them from the
  /// primary's WAL tail).
  void DiscardPending();

  /// Applies `records` (e.g. a recovered WAL tail) to every live replica
  /// and fsyncs them — the promotion "apply" phase.
  Status ApplyToLive(const std::vector<storage::WalRecord>& records);

  /// Captured records not yet shipped (the kAsync lag, 0 under kSync).
  size_t lag_records() const;

  /// Primary-WAL byte offset covered by shipping so far (regresses are
  /// impossible — compaction invalidates it and the promotion tail read
  /// guards on file size).
  uint64_t shipped_wal_offset() const;

  int replica_count() const;
  int live_replica_count() const;
  bool has_live_replica() const { return live_replica_count() > 0; }

  /// The replica engine handle (nullptr when killed / taken / out of range).
  std::shared_ptr<Tvdp> replica(int r) const;

  /// Records successfully applied to replica `r` since attach.
  uint64_t applied_records(int r) const;

  /// Kills one replica (fault injection): its engine is dropped and it no
  /// longer receives shipped records.
  Status KillReplica(int r);

  /// The most-caught-up live replica (max applied records, ties to the
  /// lowest index), or -1 when none is live.
  int ElectMostCaughtUp() const;

  /// Removes replica `r` from the set and returns its engine — the
  /// promotion flip. The remaining replicas keep serving the set.
  std::shared_ptr<Tvdp> Take(int r);

  /// Raises the set's fencing epoch: captured records stamped with an older
  /// epoch (a stale primary still holding the observer) are rejected.
  void set_epoch(int64_t epoch);
  int64_t epoch() const;
  size_t rejected_stale_records() const;

  int shard() const { return shard_; }
  SyncLevel sync() const { return sync_; }

  /// {"replicas","live","lag_records","shipped_wal_offset","epoch",
  ///  "rejected_stale_records","applied":[..]}
  Json StatsJson() const;

 private:
  struct Replica {
    std::shared_ptr<Tvdp> engine;
    bool live = false;
    uint64_t applied = 0;
  };

  /// Copies `primary`'s store to `copy_paths` on `fs` and installs the
  /// capture observer in one writer critical section
  /// (`Tvdp::CopyAndObserve`); returns the WAL offset the captures start
  /// after.
  Result<uint64_t> Cut(const std::shared_ptr<Tvdp>& primary,
                       const std::vector<std::string>& copy_paths, Fs* fs);

  /// The observer body: appends (record, post-append WAL offset) to the
  /// channel unless the record's epoch is stale. Runs under the primary's
  /// writer lock.
  void Capture(const storage::WalRecord& record, uint64_t wal_offset);

  /// Applies one drained batch to every live replica. Caller holds
  /// ship_mutex_ (never channel_mutex_).
  Status ApplyBatchLocked(const std::vector<storage::WalRecord>& batch,
                          bool fsync);

  const int shard_;

  /// Channel state: captured records + epoch gate. Leaf mutex — safe to
  /// take under the primary's writer lock.
  mutable std::mutex channel_mutex_;
  std::vector<std::pair<storage::WalRecord, uint64_t>> channel_;
  int64_t epoch_;
  size_t rejected_stale_ = 0;

  /// Serializes Ship / ApplyToLive / Attach so concurrent writers cannot
  /// interleave halves of a batch into a replica, and no capture made after
  /// an attach's cut ships to the replicas it replaces. Taken before the
  /// other two mutexes and the primary's writer lock, never inside them.
  mutable std::mutex ship_mutex_;

  /// Guards the replica table itself (handles, live flags, applied counts)
  /// — a leaf mutex so handle reads never wait behind an in-flight ship.
  mutable std::mutex members_mutex_;
  std::vector<Replica> replicas_;       ///< guarded by members_mutex_
  uint64_t shipped_wal_offset_ = 0;     ///< guarded by members_mutex_
  SyncLevel sync_ = SyncLevel::kSync;   ///< set at Attach
};

}  // namespace tvdp::platform

#endif  // TVDP_PLATFORM_REPLICATION_H_
