#!/usr/bin/env bash
# Code-line report for ROADMAP aim 2 ("the line count goes down"): non-blank,
# non-comment lines per crate `src/` (tests.rs submodules and `tests/`
# directories excluded) and for the files the ROADMAP names. Report only —
# nothing here gates; run it on the parent and on the change and compare.
set -euo pipefail
cd "$(dirname "$0")/.."

# Counts lines that are neither blank nor start with `//` in the given files.
count() {
    if [ "$#" -eq 0 ]; then echo 0; else cat "$@" | grep -cvE '^\s*(//|$)' || true; fi
}

total=0
printf '%-28s %8s\n' "crate src/" "code"
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    mapfile -t files < <(find "$dir" -name '*.rs' ! -name 'tests.rs' ! -path '*/tests/*' | sort)
    n=$(count "${files[@]}")
    total=$((total + n))
    printf '%-28s %8d\n' "$dir" "$n"
done
printf '%-28s %8d\n' "total" "$total"

echo
printf '%-44s %8s\n' "ROADMAP-named file" "code"
for f in crates/replication/src/replica.rs crates/replication/src/client.rs \
         crates/storage/src/server.rs crates/ctrl/src/plane.rs; do
    if [ -f "$f" ]; then printf '%-44s %8d\n' "$f" "$(count "$f")"; fi
done
