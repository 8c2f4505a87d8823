#!/usr/bin/env bash
# Heap allocations per call site of one program over a time window (see
# allocsites.c). Builds the preload library with the system gcc on first
# use, into target/hostprof/.
#
#   scripts/hostprof/allocsites.sh [--delay S] [--seconds S] [--every N] \
#       [--top N] [--out FILE] [--only SUBSTRING] -- PROGRAM [ARGS...]
#
# Example, 7 s inside the benchmark's timed window:
#   scripts/hostprof/allocsites.sh --delay 12 --seconds 7 --only flexlog-benchmark \
#       -- benchmark/target/release/flexlog-benchmark --workload append-pipelined \
#          --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../../target/hostprof"
mkdir -p "$build"
lib="$build/allocsites.so"
if [[ ! "$lib" -nt "$here/allocsites.c" ]]; then
  gcc -O2 -Wall -shared -fPIC -o "$lib" "$here/allocsites.c" -ldl -lpthread
fi
while [[ $# -gt 0 ]]; do
  case "$1" in
    --delay) export ALLOCSITES_DELAY="$2"; shift 2 ;;
    --seconds) export ALLOCSITES_SECONDS="$2"; shift 2 ;;
    --every) export ALLOCSITES_EVERY="$2"; shift 2 ;;
    --top) export ALLOCSITES_TOP="$2"; shift 2 ;;
    --out) export ALLOCSITES_OUT="$2"; shift 2 ;;
    --only) export ALLOCSITES_ONLY="$2"; shift 2 ;;
    --) shift; break ;;
    *) echo "allocsites.sh: unknown option $1" >&2; exit 2 ;;
  esac
done
[[ $# -gt 0 ]] || { echo "allocsites.sh: no program given" >&2; exit 2; }
LD_PRELOAD="$lib" exec "$@"
