#!/usr/bin/env bash
# Lock audit: every read pins an MVCC snapshot, never takes a lock and
# writes no shared state, and this check keeps it that way. It counts
# shared_lock acquisitions in the query engine and the read endpoints, and
# mutable members in the indexes, and fails when a new one appears. It also
# keeps the platform to one storage mode: every engine commits through the
# WAL, so nothing in src/platform/ branches on whether it has one. And it
# keeps one way for a replica to get its state: it starts as a copy of its
# primary's files and then applies only the shipped tail, so no row-by-row
# bootstrap comes back.
#
# Budgets (comment lines are not counted):
#   shared_lock in
#     src/query/            0   engine reads pin an MVCC snapshot
#     src/platform/tvdp.cc  0   facade reads pin an MVCC snapshot
#     src/platform/export.cc 0  exports pin an MVCC snapshot
#     src/platform/api.cc   2   keys_mutex_ (API-key registry, not a read
#                               path over catalog/index state)
#   mutable in
#     src/index/            0   index queries are const and write nothing
#   storage-mode branches (durable_ ?, if (durable_), durable(), path.empty())
#     src/platform/         1   the Fs choice in ShardManager::Create: a
#                               fleet without a base path gets a MemFs
#   SnapshotRecords
#     src/                  0   no full-state dump to bootstrap replicas from
#   ApplyReplicated(
#     src/                  3   its declaration, its definition, and the one
#                               caller: ReplicaSet::ApplyBatchLocked (shipped
#                               batches and a promotion's WAL tail)
set -u
cd "$(dirname "$0")/.."

fail=0

# check LABEL PATTERN BUDGET PATH...: counts the non-comment lines under
# PATH... that match the extended regex PATTERN.
check() {
  local label="$1" pattern="$2" budget="$3"
  shift 3
  local hits count
  hits=$(grep -rnE "$pattern" "$@" 2>/dev/null |
         grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
  count=$(printf '%s' "$hits" | grep -c . || true)
  if [ "$count" -gt "$budget" ]; then
    echo "FAIL: $label has $count matches of '$pattern' (budget $budget):"
    echo "$hits"
    fail=1
  else
    echo "ok:   $label '$pattern' count $count <= $budget"
  fi
}

check "src/query/" 'shared_lock' 0 src/query/
check "src/platform/tvdp.cc" 'shared_lock' 0 src/platform/tvdp.cc
check "src/platform/export.cc" 'shared_lock' 0 src/platform/export.cc
check "src/platform/api.cc" 'shared_lock' 2 src/platform/api.cc
check "src/index/" '\bmutable\b' 0 src/index/
check "src/platform/" 'durable_ \?|if \(durable_\)|durable\(\)|path\.empty\(\)' 1 \
  src/platform/
check "src/" 'SnapshotRecords' 0 src/
check "src/" 'ApplyReplicated\(' 3 src/

if [ "$fail" -ne 0 ]; then
  echo
  echo "Reads must pin an MVCC snapshot (QueryEngine::PinSnapshot) instead"
  echo "of taking the engine lock shared, and an index query must not write"
  echo "state that concurrent readers share. See DESIGN.md 'MVCC snapshots"
  echo "and copy-on-write storage'. Every engine and fleet commits through"
  echo "the WAL (in memory over a MemFs): see DESIGN.md 'Durability model'."
  echo "A replica starts as a copy of its primary's files: see DESIGN.md"
  echo "'Replication, failover, and fencing'."
  exit 1
fi
echo "lock audit passed"
