#ifndef TVDP_QUERY_SNAPSHOT_H_
#define TVDP_QUERY_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "index/inverted_index.h"
#include "index/lsh.h"
#include "index/oriented_rtree.h"
#include "index/rtree.h"
#include "index/temporal_index.h"
#include "storage/table.h"

namespace tvdp::query {

/// classification name -> (classification row id, label -> type row id).
/// Same shape as the platform facade's registry cache; snapshotted so
/// lock-free readers can resolve labels without touching the live map.
using ClassMap =
    std::map<std::string, std::pair<int64_t, std::map<std::string, int64_t>>>;

/// One immutable published version of the engine's queryable state: the
/// catalog tables and every index, all frozen at a single commit boundary.
/// Snapshots are published by an atomic shared_ptr root swap; readers pin
/// one at query start and see a stable version for the query's whole
/// lifetime while writers race ahead.
///
/// Copy-on-write: components untouched by a commit are shared (the same
/// shared_ptr) with the previous version, so consecutive snapshots share
/// almost everything structurally. Reclamation is refcount-driven — the
/// last reader to release a retired version frees exactly the components
/// no newer version shares.
struct EngineSnapshot {
  EngineSnapshot() = default;
  // Copying would double-count the live-version gauge in the destructor.
  EngineSnapshot(const EngineSnapshot&) = delete;
  EngineSnapshot& operator=(const EngineSnapshot&) = delete;

  ~EngineSnapshot() {
    if (live_gauge) live_gauge->fetch_sub(1, std::memory_order_relaxed);
  }

  /// Monotonic commit version (1 = initial publish).
  uint64_t version = 0;

  /// Immutable per-version view of the catalog tables.
  storage::TableSet tables;

  /// Frozen indexes, one per query family (LSH: one per feature kind).
  std::shared_ptr<const index::RTree> points;
  std::shared_ptr<const index::OrientedRTree> fovs;
  std::shared_ptr<const index::TemporalIndex> temporal;
  std::shared_ptr<const index::InvertedIndex> keywords;
  std::map<std::string, std::shared_ptr<const index::LshIndex>> lsh;

  /// Classification registry at this version.
  std::shared_ptr<const ClassMap> classifications;

  /// Commit accounting (bytes of snapshot components copied by the commit
  /// that published this version vs. shared with its predecessor).
  size_t bytes_copied = 0;
  size_t bytes_shared = 0;

  /// Decremented on destruction: (gauge - 1) = retired versions still
  /// awaiting reclamation by a pinned reader.
  std::shared_ptr<std::atomic<int64_t>> live_gauge;

  const storage::Table* FindTable(const std::string& name) const {
    auto it = tables.find(name);
    return it == tables.end() ? nullptr : it->second.get();
  }
};

/// RAII pin on a snapshot: holds the shared_ptr (keeping every component
/// of that version alive) and counts itself in the engine's pinned-reader
/// gauge. Move-only; cheap (two atomic ops) — taken per query.
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(std::shared_ptr<const EngineSnapshot> snap,
              std::atomic<int64_t>* pinned)
      : snap_(std::move(snap)), pinned_(snap_ ? pinned : nullptr) {
    if (pinned_) pinned_->fetch_add(1, std::memory_order_relaxed);
  }
  ~SnapshotRef() { Release(); }

  SnapshotRef(SnapshotRef&& other) noexcept
      : snap_(std::move(other.snap_)), pinned_(other.pinned_) {
    other.pinned_ = nullptr;
    other.snap_.reset();
  }
  SnapshotRef& operator=(SnapshotRef&& other) noexcept {
    if (this != &other) {
      Release();
      snap_ = std::move(other.snap_);
      pinned_ = other.pinned_;
      other.pinned_ = nullptr;
      other.snap_.reset();
    }
    return *this;
  }
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;

  void Release() {
    if (pinned_) pinned_->fetch_sub(1, std::memory_order_relaxed);
    pinned_ = nullptr;
    snap_.reset();
  }

  const EngineSnapshot& operator*() const { return *snap_; }
  const EngineSnapshot* operator->() const { return snap_.get(); }
  const EngineSnapshot* get() const { return snap_.get(); }
  explicit operator bool() const { return snap_ != nullptr; }

 private:
  std::shared_ptr<const EngineSnapshot> snap_;
  std::atomic<int64_t>* pinned_ = nullptr;
};

/// Atomic root pointer for the published snapshot.
///
/// Not std::atomic<std::shared_ptr<...>>: libstdc++ guards its pointer
/// with an embedded spinlock whose load() path releases the gate with
/// relaxed ordering (_Sp_atomic::load in bits/shared_ptr_atomic.h), so
/// ThreadSanitizer cannot pair a reader's pointer read with the writer's
/// later swap and reports every pin/publish as a race. This box is the
/// same technique — std::atomic<shared_ptr> is internally lock-based too
/// — with explicit acquire/release ordering on the gate, which TSan
/// models exactly. The critical section is a pointer copy plus refcount
/// bump, so a saturating read load cannot meaningfully delay the
/// (already fully serialized) writer's publish.
class AtomicSnapshotPtr {
 public:
  std::shared_ptr<const EngineSnapshot> load() const {
    Lock();
    std::shared_ptr<const EngineSnapshot> out = ptr_;
    Unlock();
    return out;
  }

  void store(std::shared_ptr<const EngineSnapshot> next) {
    Lock();
    ptr_.swap(next);
    Unlock();
    // `next` now holds the retired version; if this was its last owner
    // the whole component graph destructs here, outside the gate.
  }

 private:
  void Lock() const {
    int expected = 0;
    while (!gate_.compare_exchange_weak(expected, 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      expected = 0;
    }
  }
  void Unlock() const { gate_.store(0, std::memory_order_release); }

  std::shared_ptr<const EngineSnapshot> ptr_;
  mutable std::atomic<int> gate_{0};
};

}  // namespace tvdp::query

#endif  // TVDP_QUERY_SNAPSHOT_H_
