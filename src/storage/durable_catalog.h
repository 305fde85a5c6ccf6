#ifndef TVDP_STORAGE_DURABLE_CATALOG_H_
#define TVDP_STORAGE_DURABLE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/file.h"
#include "common/result.h"
#include "storage/catalog.h"
#include "storage/wal.h"

namespace tvdp::storage {

/// Tuning knobs for `DurableCatalog`.
struct DurableCatalogOptions {
  /// fsync the WAL on every committed insert. Turning this off trades the
  /// last few records after a power cut for throughput (data is still safe
  /// against process crashes thanks to the OS page cache).
  bool sync_on_commit = true;

  /// Once the WAL grows past this many bytes, the next insert triggers a
  /// compaction: snapshot the catalog and reset the log. Transient IO
  /// errors are retried (three attempts, 1-16 ms jittered backoff) inside
  /// that insert; if they all fail, the next threshold cross tries again.
  uint64_t compaction_threshold_bytes = 4u << 20;

  /// Filesystem to operate on; nullptr means `Fs::Default()`. Tests pass a
  /// `FaultInjectingFs` here.
  Fs* fs = nullptr;
};

/// An unresolved fleet-wide operation recovered from (or appended to) the
/// shard-local broadcast log: an intent without a matching commit or abort
/// marker. The reconciliation pass (platform::ShardManager) either
/// completes it forward or rolls it back.
struct PendingBroadcast {
  int64_t broadcast_id = 0;
  std::string op;
  std::string payload;              ///< op arguments (JSON)
  std::vector<int64_t> target_ids;  ///< expected id per shard
  /// kBroadcastIntent for fleet-wide two-phase ops, kMigrationIntent for the
  /// online cell-migration state machine — preserved across compaction so a
  /// rewritten log keeps the same record kinds.
  WalRecordType type = WalRecordType::kBroadcastIntent;
};

/// Crash-safe persistence for `Catalog`: a checksummed snapshot plus a
/// write-ahead log of inserts since that snapshot, plus a separate
/// broadcast log tracing fleet-wide two-phase operations.
///
/// Thread safety: `Insert`, `Checkpoint`, `Flush` and `Bootstrap` are
/// serialized by an internal writer lock, so WAL commit ordering always
/// matches in-memory apply ordering. Reading `catalog()` concurrently with
/// writers is NOT synchronized here — the owning facade (platform::Tvdp)
/// holds its reader-writer lock around catalog reads; standalone users
/// doing concurrent reads should do the same via `mutex()`.
///
/// Disk layout for base path `p`:
///   p.snapshot — `Catalog::Serialize()` output (magic, version, body CRC),
///                always replaced atomically (tmp + fsync + rename + dirsync)
///   p.wal      — length-framed, CRC'd insert records since the snapshot
///   p.broadcast— intent/commit/abort markers of fleet-wide operations.
///                Unlike p.wal it is NOT reset by checkpoints: a pending
///                intent must survive any number of compactions until the
///                coordinator resolves it. Open drops resolved markers and
///                rewrites the file atomically, keeping only a high-water
///                commit marker (so broadcast ids never regress) plus the
///                still-pending intents.
///
/// Lifecycle: `Open` loads the snapshot (if any), replays the longest valid
/// WAL prefix, and truncates any garbage tail. `Insert` applies the row to
/// the in-memory catalog, then commits it to the WAL (rolling the row back
/// if the log write fails, so memory never runs ahead of what a reopen would
/// reconstruct... plus the commit record, which is the durability point).
/// When the WAL exceeds the compaction threshold the catalog is
/// re-snapshotted and the log reset; the snapshot is made durable before the
/// log is dropped, so a crash between the two steps only replays redundant
/// records onto the new snapshot — which recovery tolerates by id dedup.
class DurableCatalog {
 public:
  /// Opens (or creates) the store rooted at `base_path`. An empty path is
  /// kInvalidArgument: it would name `.snapshot` and `.wal` themselves.
  static Result<DurableCatalog> Open(const std::string& base_path,
                                     DurableCatalogOptions options = {});

  DurableCatalog(DurableCatalog&&) = default;
  DurableCatalog& operator=(DurableCatalog&&) = default;

  /// True when Open found existing on-disk state (snapshot or WAL records).
  bool recovered_from_disk() const { return recovered_from_disk_; }

  /// Number of WAL records replayed by Open.
  size_t replayed_records() const { return replayed_records_; }

  /// Installs the initial catalog (schema + any seed rows) of a freshly
  /// created store and snapshots it durably. Only valid while the catalog
  /// is still empty and nothing was recovered.
  Status Bootstrap(Catalog initial);

  /// Durable insert: validates and applies via `Catalog::Insert`, then
  /// commits the record to the WAL. On a log failure the in-memory row is
  /// rolled back and the error returned, leaving memory and disk agreeing.
  Result<RowId> Insert(const std::string& table, Row row);

  /// Durable delete: removes the row from the in-memory catalog, then
  /// commits a kDelete record to the WAL. On a log failure the row is
  /// restored, leaving memory and disk agreeing. Deleting a missing row is
  /// kNotFound. Used by rebalancing GC to drop migrated rows from a source
  /// shard without rewriting the snapshot.
  Status Delete(const std::string& table, RowId id);

  /// Idempotent forced-id insert used by replication: applies a shipped
  /// primary record (row id already assigned by the primary) and commits it
  /// to this replica's own WAL, so the replica recovers independently. A row
  /// that already exists is kAlreadyExists — the caller treats it as an
  /// already-applied record, which makes re-shipping safe.
  Status RestoreInsert(const std::string& table, RowId id, Row values);

  /// Fencing epoch stamped onto every kInsert / kDelete record this catalog
  /// commits from now on (see WalRecord::epoch). 0 = unreplicated.
  void set_epoch(int64_t epoch);
  int64_t epoch() const;

  /// Forces a snapshot now and resets the WAL.
  Status Checkpoint();

  /// The reader-writer lock serializing mutations. Writers (Insert,
  /// Checkpoint, ...) take it exclusively; external readers of `catalog()`
  /// may take it shared when no higher-level lock already excludes writers.
  std::shared_mutex& mutex() const { return *mutex_; }

  /// fsyncs outstanding WAL appends (useful with sync_on_commit=false).
  Status Flush();

  /// Copies the committed store to a new one rooted at `base_path` on `fs`:
  /// the snapshot and the first `wal_size_bytes()` of the WAL, each written
  /// with `AtomicWriteFile`, and removes a stale `.broadcast` there. Returns
  /// the copied WAL length. An empty `base_path` is kInvalidArgument.
  Result<uint64_t> CopyTo(const std::string& base_path, Fs* fs) const;

  /// Switches `sync_on_commit` for every later commit — a promoted replica
  /// takes on its fleet's setting without a reopen.
  void set_sync_on_commit(bool sync);

  // --- Broadcast log (fleet-wide two-phase operations) ---

  /// Appends one broadcast record (intent/commit/abort) to the broadcast
  /// log, fsynced before returning — an intent is durable before the
  /// coordinator applies anything. Commit/abort markers resolve the
  /// matching pending intent; a marker for an unknown id is legal (it only
  /// advances the high-water mark).
  Status AppendBroadcast(const WalRecord& record);

  /// Unresolved intents, in broadcast-id order.
  std::vector<PendingBroadcast> PendingBroadcasts() const;

  /// Largest broadcast id ever seen by this shard (survives compaction via
  /// the high-water marker), 0 when none.
  int64_t max_broadcast_id() const;

  /// The in-memory catalog. Reads are free; direct mutation bypasses the
  /// log — use `Insert` for anything that must survive a crash.
  Catalog& catalog() { return *catalog_; }
  const Catalog& catalog() const { return *catalog_; }

  /// The WAL's length, read under the shared lock: safe while writers
  /// commit.
  uint64_t wal_size_bytes() const {
    std::shared_lock<std::shared_mutex> lock(*mutex_);
    return wal_->size_bytes();
  }
  size_t checkpoints_taken() const { return checkpoints_taken_; }

 private:
  DurableCatalog() = default;

  Status CheckpointLocked();

  Fs* fs_ = nullptr;
  DurableCatalogOptions options_;
  /// Owned through a pointer so the catalog stays movable.
  std::unique_ptr<std::shared_mutex> mutex_ =
      std::make_unique<std::shared_mutex>();
  std::string snapshot_path_;
  std::string wal_path_;
  std::string broadcast_path_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<Wal> broadcast_log_;
  std::map<int64_t, PendingBroadcast> pending_broadcasts_;
  int64_t epoch_ = 0;  ///< guarded by mutex_
  int64_t max_broadcast_id_ = 0;
  bool recovered_from_disk_ = false;
  size_t replayed_records_ = 0;
  size_t checkpoints_taken_ = 0;
};

}  // namespace tvdp::storage

#endif  // TVDP_STORAGE_DURABLE_CATALOG_H_
