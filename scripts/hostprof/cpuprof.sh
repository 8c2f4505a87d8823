#!/usr/bin/env bash
# Where one program's CPU goes over a time window (see cpuprof.c). Builds
# the sampler with the system gcc on first use, into target/hostprof/.
#
#   scripts/hostprof/cpuprof.sh [-g] [-T NAME] [-d DELAY_S] [-s SECONDS] [-f HZ] [-t TOP] -- PROGRAM [ARGS...]
#
# -T NAME keeps only the samples of threads whose name starts with NAME
# (e.g. -T replica for the replica node threads, `replica#N`).
#
# Example, 10 s inside the benchmark's timed window:
#   scripts/hostprof/cpuprof.sh -d 12 -s 10 -- benchmark/target/release/flexlog-benchmark \
#       --workload append-pipelined --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../../target/hostprof"
mkdir -p "$build"
bin="$build/cpuprof"
if [[ ! "$bin" -nt "$here/cpuprof.c" ]]; then
  gcc -O2 -Wall -o "$bin" "$here/cpuprof.c"
fi
exec "$bin" "$@"
