#!/usr/bin/env bash
# Regenerates the tracked feature-bench artifacts (BENCH_datapath.json,
# BENCH_elasticity.json, BENCH_fanout.json, BENCH_tiering.json) with
# full-length runs and appends one line per metric to BENCH_history.jsonl,
# so a new number lands beside the previous one instead of replacing it.
# Each bench prints its summary table and evaluates its own gates on the
# median; all four run even if one fails a gate (its file then says
# `"pass": false`), and the script exits non-zero at the end. Commit the
# refreshed files together with any data-path or control-plane change.
#
# Usage: scripts/bench.sh [REV]   (REV labels the rows; default: HEAD's
# short hash, `+dirty` appended when the working tree differs from it)
set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:-$(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo +dirty)}

cargo build --release -p flexlog-bench
failed=()
for bench in datapath elasticity fanout tiering; do
    echo "==> $bench (full run, writes BENCH_$bench.json, rows labelled $rev)"
    ./target/release/flexlog-bench "$bench" --out "BENCH_$bench.json" \
        --history BENCH_history.jsonl --commit "$rev" || failed+=("$bench")
done
if [ "${#failed[@]}" -gt 0 ]; then
    echo "GATE FAILED in: ${failed[*]} (files and history rows are written; see the summary tables)"
    exit 1
fi
