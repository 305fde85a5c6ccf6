#include "storage/durable_catalog.h"

#include <algorithm>
#include <utility>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/retry.h"
#include "storage/serializer.h"

namespace tvdp::storage {

namespace {

/// Frames `record` exactly as `Wal::Append` would ([len][crc][payload]) and
/// appends the bytes to `out` — used to rebuild a compacted broadcast log
/// as one atomic file replacement.
void AppendFramed(const WalRecord& record, std::vector<uint8_t>& out) {
  std::vector<uint8_t> payload = record.Encode();
  BinaryWriter frame;
  frame.WriteU32(static_cast<uint32_t>(payload.size()));
  frame.WriteU32(Crc32c(payload));
  out.insert(out.end(), frame.buffer().begin(), frame.buffer().end());
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace

Result<DurableCatalog> DurableCatalog::Open(const std::string& base_path,
                                            DurableCatalogOptions options) {
  if (base_path.empty()) {
    return Status::InvalidArgument("durable store path must not be empty");
  }
  DurableCatalog dc;
  dc.fs_ = options.fs ? options.fs : Fs::Default();
  dc.options_ = options;
  dc.snapshot_path_ = base_path + ".snapshot";
  dc.wal_path_ = base_path + ".wal";
  dc.broadcast_path_ = base_path + ".broadcast";

  // 1. Snapshot. The file is only ever replaced atomically, so either it is
  // absent (fresh store) or it must verify; a checksum failure means real
  // corruption and is surfaced, not papered over.
  if (dc.fs_->Exists(dc.snapshot_path_)) {
    TVDP_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          dc.fs_->ReadAll(dc.snapshot_path_));
    TVDP_ASSIGN_OR_RETURN(Catalog snapshot, Catalog::Deserialize(bytes));
    dc.catalog_ = std::make_unique<Catalog>(std::move(snapshot));
    dc.recovered_from_disk_ = true;
  } else {
    dc.catalog_ = std::make_unique<Catalog>();
  }

  // 2. WAL replay: longest valid prefix, garbage tail truncated on disk.
  TVDP_ASSIGN_OR_RETURN(WalRecovery recovery,
                        Wal::Recover(dc.fs_, dc.wal_path_));
  for (const WalRecord& rec : recovery.records) {
    if (rec.type != WalRecordType::kInsert &&
        rec.type != WalRecordType::kDelete) {
      return Status::IOError("non-row-mutation record in the catalog WAL");
    }
    Table* table = dc.catalog_->GetTable(rec.table);
    if (!table) {
      return Status::IOError("WAL references unknown table " + rec.table);
    }
    if (rec.type == WalRecordType::kDelete) {
      // A delete of a row the snapshot already dropped (crash between
      // checkpoint-snapshot and log-reset) is redundant, not an error.
      if (table->Exists(rec.row_id)) {
        TVDP_RETURN_IF_ERROR(table->Delete(rec.row_id));
      }
      ++dc.replayed_records_;
      continue;
    }
    // A crash between checkpoint-snapshot and log-reset leaves records that
    // are already in the snapshot; their ids collide and they are skipped.
    if (table->Exists(rec.row_id)) continue;
    Row full;
    full.reserve(rec.values.size() + 1);
    full.push_back(Value(rec.row_id));
    for (const Value& v : rec.values) full.push_back(v);
    TVDP_RETURN_IF_ERROR(table->RestoreRow(std::move(full)));
    ++dc.replayed_records_;
  }
  if (!recovery.records.empty()) dc.recovered_from_disk_ = true;
  if (recovery.dropped_bytes > 0) {
    TVDP_LOG(Warning) << "WAL " << dc.wal_path_ << ": dropped "
                      << recovery.dropped_bytes
                      << " bytes of torn/corrupt tail, kept "
                      << recovery.records.size() << " records";
  }

  // 3. Reopen the log for appending after the valid prefix.
  TVDP_ASSIGN_OR_RETURN(Wal wal, Wal::Open(dc.fs_, dc.wal_path_));
  dc.wal_ = std::make_unique<Wal>(std::move(wal));

  // 4. Broadcast-log replay: fold intents and their commit/abort markers,
  // in order, into the pending set; anything resolved is dropped. The file
  // is then compacted to [high-water commit marker] + pending intents via
  // an atomic replace, so a crash during compaction can never lose an
  // unresolved intent.
  TVDP_ASSIGN_OR_RETURN(WalRecovery broadcasts,
                        Wal::Recover(dc.fs_, dc.broadcast_path_));
  for (const WalRecord& rec : broadcasts.records) {
    switch (rec.type) {
      case WalRecordType::kBroadcastIntent:
      case WalRecordType::kMigrationIntent:
        dc.pending_broadcasts_[rec.broadcast_id] =
            PendingBroadcast{rec.broadcast_id, rec.op, rec.payload,
                             rec.target_ids, rec.type};
        break;
      case WalRecordType::kBroadcastCommit:
      case WalRecordType::kBroadcastAbort:
      case WalRecordType::kMigrationCommit:
      case WalRecordType::kMigrationAbort:
        dc.pending_broadcasts_.erase(rec.broadcast_id);
        break;
      case WalRecordType::kInsert:
      case WalRecordType::kDelete:
      case WalRecordType::kEpochInsert:  // Decode normalizes; unreachable
      case WalRecordType::kEpochDelete:
        return Status::IOError("row-mutation record in the broadcast log");
    }
    dc.max_broadcast_id_ = std::max(dc.max_broadcast_id_, rec.broadcast_id);
  }
  const size_t kept =
      dc.pending_broadcasts_.size() + (dc.max_broadcast_id_ > 0 ? 1u : 0u);
  if (broadcasts.records.size() > kept) {
    std::vector<uint8_t> compacted;
    // High-water first: a commit marker for an id with no following intent
    // is a pure watermark, and fold order guarantees it cannot resolve the
    // re-appended pending intents behind it.
    AppendFramed(WalRecord::BroadcastCommit(dc.max_broadcast_id_), compacted);
    for (const auto& [id, pending] : dc.pending_broadcasts_) {
      WalRecord intent =
          pending.type == WalRecordType::kMigrationIntent
              ? WalRecord::MigrationIntent(id, pending.op, pending.payload,
                                           pending.target_ids)
              : WalRecord::BroadcastIntent(id, pending.op, pending.payload,
                                           pending.target_ids);
      AppendFramed(intent, compacted);
    }
    TVDP_RETURN_IF_ERROR(AtomicWriteFile(*dc.fs_, dc.broadcast_path_,
                                         compacted));
  }
  TVDP_ASSIGN_OR_RETURN(Wal blog, Wal::Open(dc.fs_, dc.broadcast_path_));
  dc.broadcast_log_ = std::make_unique<Wal>(std::move(blog));
  return dc;
}

Status DurableCatalog::Bootstrap(Catalog initial) {
  std::unique_lock<std::shared_mutex> lock(*mutex_);
  if (recovered_from_disk_ || !catalog_->TableNames().empty()) {
    return Status::FailedPrecondition(
        "Bootstrap on a non-empty durable catalog");
  }
  *catalog_ = std::move(initial);
  return CheckpointLocked();
}

Result<RowId> DurableCatalog::Insert(const std::string& table, Row row) {
  // The writer lock spans apply + WAL append + (possible) compaction, so
  // the commit order in the log always matches the in-memory apply order.
  std::unique_lock<std::shared_mutex> lock(*mutex_);
  Row logged = row;  // keep a copy for the WAL record
  TVDP_ASSIGN_OR_RETURN(RowId id, catalog_->Insert(table, std::move(row)));
  WalRecord record{table, id, std::move(logged)};
  record.epoch = epoch_;
  Status committed = wal_->Append(record, options_.sync_on_commit);
  if (!committed.ok()) {
    // Undo the in-memory apply so state matches what a reopen reconstructs.
    Table* t = catalog_->GetTable(table);
    Status undone = t->Delete(id);
    if (undone.ok()) t->SetNextId(id);
    return committed;
  }
  if (wal_->size_bytes() > options_.compaction_threshold_bytes) {
    // Best-effort: the record is already durable in the WAL, so a failed
    // compaction loses nothing. Transient IO errors are retried with
    // bounded jittered backoff inside this insert; if the budget runs out
    // the next threshold cross tries again.
    Status compacted = RunWithRetries(
        RetryPolicy{/*max_attempts=*/3, /*initial_backoff_ms=*/1,
                    /*max_backoff_ms=*/16},
        /*seed=*/0x7e7u + static_cast<uint64_t>(checkpoints_taken_), [&] {
          Status s = CheckpointLocked();
          if (!s.ok()) {
            TVDP_LOG(Warning) << "WAL compaction failed (will retry): "
                              << s.ToString();
          }
          return s;
        });
    (void)compacted;
  }
  return id;
}

Status DurableCatalog::Delete(const std::string& table, RowId id) {
  std::unique_lock<std::shared_mutex> lock(*mutex_);
  Table* t = catalog_->GetTable(table);
  if (!t) return Status::NotFound("no such table: " + table);
  // Keep a copy so a failed log append can restore the exact row.
  TVDP_ASSIGN_OR_RETURN(const Row* live, t->Get(id));
  Row saved = *live;
  TVDP_RETURN_IF_ERROR(t->Delete(id));
  WalRecord record = WalRecord::Delete(table, id);
  record.epoch = epoch_;
  Status committed = wal_->Append(record, options_.sync_on_commit);
  if (!committed.ok()) {
    // Undo the in-memory delete so state matches what a reopen reconstructs.
    (void)t->RestoreRow(std::move(saved));
    return committed;
  }
  return Status::OK();
}

Status DurableCatalog::RestoreInsert(const std::string& table, RowId id,
                                     Row values) {
  std::unique_lock<std::shared_mutex> lock(*mutex_);
  Table* t = catalog_->GetTable(table);
  if (!t) return Status::NotFound("no such table: " + table);
  if (t->Exists(id)) {
    return Status::AlreadyExists("row " + std::to_string(id) +
                                 " already applied to " + table);
  }
  Row full;
  full.reserve(values.size() + 1);
  full.push_back(Value(id));
  for (const Value& v : values) full.push_back(v);
  TVDP_RETURN_IF_ERROR(t->RestoreRow(std::move(full)));
  WalRecord record{table, id, std::move(values)};
  record.epoch = epoch_;
  Status committed = wal_->Append(record, options_.sync_on_commit);
  if (!committed.ok()) {
    // Undo the apply so memory never runs ahead of the replica's own log
    // (next_id may stay bumped — ids merely skip, which is harmless).
    (void)t->Delete(id);
    return committed;
  }
  return Status::OK();
}

void DurableCatalog::set_epoch(int64_t epoch) {
  std::unique_lock<std::shared_mutex> lock(*mutex_);
  epoch_ = epoch;
}

int64_t DurableCatalog::epoch() const {
  std::shared_lock<std::shared_mutex> lock(*mutex_);
  return epoch_;
}

Status DurableCatalog::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(*mutex_);
  return CheckpointLocked();
}

Status DurableCatalog::CheckpointLocked() {
  TVDP_RETURN_IF_ERROR(AtomicWriteFile(*fs_, snapshot_path_,
                                       catalog_->Serialize()));
  TVDP_RETURN_IF_ERROR(wal_->Reset());
  ++checkpoints_taken_;
  return Status::OK();
}

Status DurableCatalog::Flush() {
  std::unique_lock<std::shared_mutex> lock(*mutex_);
  return wal_->Sync();
}

Result<uint64_t> DurableCatalog::CopyTo(const std::string& base_path,
                                        Fs* fs) const {
  if (base_path.empty()) {
    return Status::InvalidArgument("durable store path must not be empty");
  }
  std::shared_lock<std::shared_mutex> lock(*mutex_);
  TVDP_ASSIGN_OR_RETURN(std::vector<uint8_t> snapshot,
                        fs_->ReadAll(snapshot_path_));
  TVDP_ASSIGN_OR_RETURN(std::vector<uint8_t> wal, fs_->ReadAll(wal_path_));
  // Bytes past the committed length are a failed append's torn tail.
  const uint64_t committed = wal_->size_bytes();
  if (wal.size() > committed) wal.resize(committed);
  TVDP_RETURN_IF_ERROR(AtomicWriteFile(*fs, base_path + ".snapshot", snapshot));
  TVDP_RETURN_IF_ERROR(AtomicWriteFile(*fs, base_path + ".wal", wal));
  const std::string broadcast = base_path + ".broadcast";
  if (fs->Exists(broadcast)) TVDP_RETURN_IF_ERROR(fs->Remove(broadcast));
  return committed;
}

void DurableCatalog::set_sync_on_commit(bool sync) {
  std::unique_lock<std::shared_mutex> lock(*mutex_);
  options_.sync_on_commit = sync;
}

Status DurableCatalog::AppendBroadcast(const WalRecord& record) {
  if (record.type == WalRecordType::kInsert ||
      record.type == WalRecordType::kDelete) {
    return Status::InvalidArgument(
        "row-mutation records do not belong in the broadcast log");
  }
  std::unique_lock<std::shared_mutex> lock(*mutex_);
  // Always synced: an intent must be durable before the coordinator applies
  // the operation anywhere, and a commit marker before the coordinator
  // reports the broadcast resolved.
  TVDP_RETURN_IF_ERROR(broadcast_log_->Append(record, /*sync=*/true));
  switch (record.type) {
    case WalRecordType::kBroadcastIntent:
    case WalRecordType::kMigrationIntent:
      pending_broadcasts_[record.broadcast_id] =
          PendingBroadcast{record.broadcast_id, record.op, record.payload,
                           record.target_ids, record.type};
      break;
    case WalRecordType::kBroadcastCommit:
    case WalRecordType::kBroadcastAbort:
    case WalRecordType::kMigrationCommit:
    case WalRecordType::kMigrationAbort:
      pending_broadcasts_.erase(record.broadcast_id);
      break;
    case WalRecordType::kInsert:
    case WalRecordType::kDelete:
    case WalRecordType::kEpochInsert:
    case WalRecordType::kEpochDelete:
      break;  // rejected above
  }
  max_broadcast_id_ = std::max(max_broadcast_id_, record.broadcast_id);
  return Status::OK();
}

std::vector<PendingBroadcast> DurableCatalog::PendingBroadcasts() const {
  std::shared_lock<std::shared_mutex> lock(*mutex_);
  std::vector<PendingBroadcast> out;
  out.reserve(pending_broadcasts_.size());
  for (const auto& [id, pending] : pending_broadcasts_) out.push_back(pending);
  return out;
}

int64_t DurableCatalog::max_broadcast_id() const {
  std::shared_lock<std::shared_mutex> lock(*mutex_);
  return max_broadcast_id_;
}

}  // namespace tvdp::storage
