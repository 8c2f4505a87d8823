#!/usr/bin/env bash
# Code-line report for ROADMAP aim 2 ("the line count and the concept count
# go down"): non-blank, non-comment lines per crate `src/` (tests.rs
# submodules and `tests/` directories excluded) and for the files the
# ROADMAP names (and the `OrderMsg` variant count), then the settable values
# per crate — `pub` fields of `pub struct *Config` / `*Spec` items, and
# `ControlPlane`'s, which callers set after construction — then the
# synchronisation each crate declares — `Mutex<` / `RwLock<` and `Atomic*`
# fields, statics and type aliases in non-test `src/` — and what the
# measurement harness
# weighs: binary targets in crates/bench, embedded-Python lines per script,
# code lines per vendored shim. Report only — nothing here gates; run it on
# the parent and on the change and compare.
set -euo pipefail
cd "$(dirname "$0")/.."

# Counts lines that are neither blank nor start with `//` in the given files.
count() {
    if [ "$#" -eq 0 ]; then echo 0; else cat "$@" | grep -cvE '^\s*(//|$)' || true; fi
}

# `pub` fields between `pub struct <Name>Config|Spec {` (or the struct named
# by $STRUCT) and its closing brace.
settable() {
    if [ "$#" -eq 0 ]; then echo 0; return; fi
    awk -v re="^pub struct ${STRUCT:-[A-Za-z]*(Config|Spec)}( |<|\\{)" '$0 ~ re { inside = 1; next }
         inside && /^}/ { inside = 0 }
         inside && /^    pub [a-z_][a-z0-9_]*:/ { n++ }
         END { print n + 0 }' "$@"
}

# Prints `$3 <files>` for each crate's non-test sources, and the total.
per_crate() {
    local total=0 n dir files
    printf '%-28s %8s\n' "$1" "$2"
    for dir in crates/*/src src; do
        [ -d "$dir" ] || continue
        mapfile -t files < <(find "$dir" -name '*.rs' ! -name 'tests.rs' ! -path '*/tests/*' | sort)
        n=$("$3" "${files[@]}")
        total=$((total + n))
        printf '%-28s %8d\n' "$dir" "$n"
    done
    printf '%-28s %8d\n' "total" "$total"
}

# A declaration's head: a field or static (`name: ` and no `&` or `=`
# before the type), or a type alias.
decl='^\s*(pub(\([a-z]+\))? )?(((static|const) )?[A-Za-z_][A-Za-z0-9_]*: [^&=]*|type [A-Za-z0-9_]+(<[^>]*>)? = .*)'

# Counts non-comment declaration lines whose type matches $1 in the files.
declared() {
    local re=$1
    shift
    if [ "$#" -eq 0 ]; then echo 0; else cat "$@" | grep -vE '^\s*//' | grep -cE "$decl$re" || true; fi
}
locks() { declared '\b(Mutex|RwLock)<' "$@"; }
# (`AtomicU64::new(..)` in a struct literal is a value, not a declaration.)
atomics() { declared '\bAtomic[A-Z][A-Za-z0-9]*([^A-Za-z0-9:]|$)' "$@"; }

per_crate "crate src/" "code" count

echo
printf '%-44s %8s\n' "ROADMAP-named file" "code"
for f in crates/replication/src/replica.rs crates/replication/src/client.rs \
         crates/replication/src/read_replica.rs crates/replication/src/subs.rs \
         crates/replication/src/follower.rs crates/replication/src/service.rs \
         crates/storage/src/server.rs crates/ctrl/src/plane.rs \
         crates/ordering/src/sequencer.rs crates/ordering/src/service.rs \
         crates/ordering/src/backup.rs crates/ordering/src/directory.rs \
         crates/ordering/src/catalog.rs; do
    if [ -f "$f" ]; then printf '%-44s %8d\n' "$f" "$(count "$f")"; fi
done
# Variants of the ordering layer's wire enum (a line opening with a
# capitalised name inside `pub enum OrderMsg`).
printf '%-44s %8d\n' "OrderMsg variants" "$(awk '/^pub enum OrderMsg/ { inside = 1; next }
    inside && /^}/ { inside = 0 }
    inside && /^    [A-Z][A-Za-z]*( \{|,)/ { n++ }
    END { print n + 0 }' crates/ordering/src/msg.rs)"

echo
per_crate "settable values" "fields" settable
# Not a `*Config`: its `pub` fields are set on the value `new` returns.
printf '%-28s %8d\n' "ControlPlane pub fields" "$(STRUCT=ControlPlane settable crates/ctrl/src/plane.rs)"

echo
per_crate "Mutex/RwLock declared" "decls" locks
echo
per_crate "Atomic* declared" "decls" atomics

echo
bins=0
if [ -d crates/bench/src/bin ]; then bins=$(find crates/bench/src/bin -name '*.rs' | wc -l); fi
if [ -f crates/bench/src/main.rs ]; then bins=$((bins + 1)); fi
printf '%-28s %8d\n' "crates/bench binary targets" "$bins"
# Spelled in two halves so that this script does not count itself.
interp='pyth''on3'
for f in scripts/*.sh; do
    printf '%-28s %8d\n' "$interp in $f" "$(grep -c "$interp" "$f" || true)"
done
for dir in third_party/*/src; do
    mapfile -t files < <(find "$dir" -name '*.rs' | sort)
    printf '%-28s %8d\n' "$dir" "$(count "${files[@]}")"
done
