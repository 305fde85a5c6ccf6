#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs workloads, each in
# its own process.
#
#   bench/e2e/run.sh [--workload W]... [--seed S] [--seconds T]
#                    [--trace [0|1]] [--smoke] [--images N] [--out DIR]
#
# Without --workload every workload runs in turn. --smoke runs each at 1/20
# scale for 2 s, after the seeding-equivalence check. Every run prints
# "<workload> <metric> <value> <unit>" lines and ends with one JSON line
# {"correct","attempted","failed","metrics"}; result_<workload>.json (and
# trace_<workload>.json for --trace) go to --out, by default
# .bench_build/e2e-out under the checkout. Exits non-zero when the build
# fails or any run fails a correctness check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
out="$root/.bench_build/e2e-out"
seed=1
smoke=0
workloads=()
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds|--images) args+=("$1" "$2"); shift 2 ;;
    --smoke) smoke=1; args+=("$1"); shift ;;
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        args+=("$1" "$2"); shift 2
      else
        args+=("$1"); shift
      fi ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(search search_under_ingest ingest_retention sharded_fleet)
fi

# Everything, compiler temporaries included, stays under the checkout.
export TMPDIR="$root/.bench_build/tmp"
mkdir -p "$TMPDIR"

# Build output goes to stderr: the last line on stdout is the result.
jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -le 4 ] || jobs=4
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target tvdp_e2e -j "$jobs" >&2
bin="$build/tvdp_e2e"

status=0
if [ "$smoke" = 1 ]; then
  "$bin" --check-seeding --seed "$seed" --out "$out" || status=1
fi
for w in "${workloads[@]}"; do
  "$bin" --workload "$w" --seed "$seed" ${args[@]+"${args[@]}"} --out "$out" ||
    status=1
done
exit "$status"
