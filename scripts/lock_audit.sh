#!/usr/bin/env bash
# Lock audit: every read pins an MVCC snapshot and never takes a lock, and
# this check keeps it that way. It counts shared_lock acquisitions in the
# query engine and the read endpoints and fails when a new one appears.
#
# Budgets:
#   src/query/            0   engine reads pin an MVCC snapshot
#   src/platform/tvdp.cc  0   facade reads pin an MVCC snapshot
#   src/platform/export.cc 0  exports pin an MVCC snapshot
#   src/platform/api.cc   2   keys_mutex_ (API-key registry, not a read
#                             path over catalog/index state)
set -u
cd "$(dirname "$0")/.."

fail=0

check() {
  local label="$1" budget="$2"
  shift 2
  local count
  count=$(grep -rn 'shared_lock' "$@" 2>/dev/null | grep -cv '^\s*//' || true)
  if [ "$count" -gt "$budget" ]; then
    echo "FAIL: $label has $count shared_lock acquisitions (budget $budget):"
    grep -rn 'shared_lock' "$@" | grep -v '^\s*//'
    fail=1
  else
    echo "ok:   $label shared_lock count $count <= $budget"
  fi
}

check "src/query/" 0 src/query/
check "src/platform/tvdp.cc" 0 src/platform/tvdp.cc
check "src/platform/export.cc" 0 src/platform/export.cc
check "src/platform/api.cc" 2 src/platform/api.cc

if [ "$fail" -ne 0 ]; then
  echo
  echo "Reads must pin an MVCC snapshot (QueryEngine::PinSnapshot) instead"
  echo "of taking the engine lock shared. See DESIGN.md 'MVCC snapshots and"
  echo "copy-on-write storage'."
  exit 1
fi
echo "lock audit passed"
