#!/usr/bin/env bash
# CI gate: release build (workspace + the out-of-workspace benchmark crate,
# build only), a code-line report (scripts/loc.sh, no gate), full test
# suite, the PM pool's count-based write-amplification bars, the storage
# regime probe (report only; one color, then a 4-color line that shows the
# spill order), the CRC's slicing-by-8 equivalence tests and
# the pool's every-device-operation crash sweep once more in release, the timing and
# heap bounds of the latency path (polled short waits, the vendored channel's
# one wait — a message taken while the receiver polls, an idle wait that
# sleeps, a parked receiver woken once and never lost — the sequencer's batch
# wait, the file-backed SSD medium, the heap a spilled record and a committed
# token cost, the heap allocations a pipelined append costs the process) in
# release, two bounded
# nemesis smoke runs (fixed seed, ~5 s of injected faults under load — once
# on the instant network, once over delayed links through the delay
# scheduler), the follower-join probe (a copy that joins 40 000 records behind
# must not cost its source shard one append), the four feature-bench smokes
# (`flexlog-bench <name> --quick`, gates evaluated by the binary), the paper
# reproduction suite in --quick, one tiering, one subscription, two
# migration-crash and two controller-crash nemesis scenarios (one of each
# pair crashes inside the freeze window, where appends wait at the source
# replicas), a check that
# no SSD medium file outlived its process, and a zero-warning clippy pass
# over the whole workspace.
#
# Replay a failing smoke run with: FLEXLOG_CHAOS_SEED=<seed> scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The benchmark crate lives outside the workspace (its own lock file and
# target dir), so nothing above compiles it: build it here so a public-API
# rename under crates/ that breaks it fails CI, not the next benchmark run.
echo "==> benchmark crate builds against the workspace crates"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> code lines per crate (report only, ROADMAP aim 2)"
scripts/loc.sh

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> PM write amplification in the spilling regime (device-operation counts, release)"
cargo test --release -q -p flexlog-storage --test write_amplification

# Report only: wall µs and PM device operations per record in the same
# regime (the table in DESIGN.md "What a record costs storage at the
# watermark"), with one color and then four; compare it parent vs change,
# it gates nothing.
echo "==> storage regime probe (wall µs per record at the watermark, report only)"
cargo run --release -q -p flexlog-storage --example regime_probe

echo "==> CRC-32 slicing-by-8 against the byte-at-a-time reference (release)"
cargo test --release -q -p flexlog-pm --lib crc

echo "==> PM pool crash-point sweep + tombstone resurrection + shrunk-device proptest (release)"
cargo test --release -q -p flexlog-pm --test crash_consistency

# Timing bounds mean nothing in a debug build: what a 1 µs receive timeout
# and a lone OReq's aggregation window really cost, what a spilled record
# leaves in the heap now that the SSD's medium is a file, and what a
# committed token leaves in its color's idempotence map.
# The vendored shims are not workspace members, so the suite above skips
# their tests; the channel's wait and wake-up rule are on every message's path.
echo "==> latency-path bounds (release): polled short waits, the channel's wait and wake-up, batch wait, ssd medium, heap per record and per token, allocations per append"
cargo test --release -q -p flexlog-simnet short_timeouts_are_polled
cargo test --release -q -p crossbeam
cargo test --release -q -p flexlog-ordering lone_oreq_waits_the_window
cargo test --release -q -p flexlog-pm --lib ssd::
cargo test --release -q -p flexlog-storage --test spilled_heap
cargo test --release -q -p flexlog-storage --test committed_token_heap
cargo test --release -q -p flexlog-core --test alloc_per_append

echo "==> nemesis smoke (bounded chaos run, fixed seed)"
cargo run --release -p flexlog-chaos --example nemesis_smoke

echo "==> nemesis smoke over delayed links (datacenter link model)"
FLEXLOG_NEMESIS_NET=datacenter cargo run --release -p flexlog-chaos --example nemesis_smoke

# One serial writer beside (i) nothing, (ii) a read replica joining 40 000
# records behind, (iii) a migration of the same span; exits non-zero if any
# append failed. ~20 s wall: three 40 000-record preloads under ClockMode::Spin.
echo "==> follower-join probe (no failed append while a copy 40 000 records behind catches up)"
cargo run --release --example follower_join

# Each feature bench runs its paired trials, evaluates its own gates on the
# median (bounds: GATES in crates/bench/src/harness.rs) and exits non-zero
# if one fails.
echo "==> bench smokes (--quick: shard scaling, cutover stall, fan-out goodput, hot-append ratio)"
cargo run --release -p flexlog-bench -- datapath --quick --out /tmp/flexlog_datapath_smoke.json
cargo run --release -p flexlog-bench -- elasticity --quick --out /tmp/flexlog_elasticity_smoke.json
cargo run --release -p flexlog-bench -- fanout --quick --out /tmp/flexlog_fanout_smoke.json
cargo run --release -p flexlog-bench -- tiering --quick --out /tmp/flexlog_tiering_smoke.json

echo "==> paper reproduction smoke (every table and figure, --quick)"
cargo run --release -p flexlog-bench -- repro --quick

echo "==> tiering nemesis (storage crash + store outage during archive rounds)"
cargo test --release -q -p flexlog-chaos --test tiering_nemesis

echo "==> subscription nemesis (read replica dies mid-push)"
cargo test --release -q -p flexlog-chaos --test subscription_nemesis subscribers_survive_read_replica_crash_mid_push

echo "==> migration-crash nemesis (source replica dies mid-migration)"
cargo test --release -q -p flexlog-chaos --test migration_nemesis source_replica_crash_mid_migration

echo "==> migration-crash nemesis (sequencer leader dies mid-migration: freeze path)"
cargo test --release -q -p flexlog-chaos --test migration_nemesis sequencer_crash_mid_migration

echo "==> controller-crash nemesis (controller dies mid-catch-up round)"
cargo test --release -q -p flexlog-chaos --test controller_nemesis controller_crash_mid_catchup_round

echo "==> controller-crash nemesis (controller dies right after the freeze round)"
cargo test --release -q -p flexlog-chaos --test controller_nemesis controller_crash_after_freeze

# Every SsdDevice unlinks its medium file at creation, so nothing
# that ran above — tests, nemeses, benches — can have left one.
echo "==> no ssd medium file outlives its process"
if ls "${TMPDIR:-/tmp}"/flexlog-ssd-* 2>/dev/null; then
    echo "leaked ssd medium files (listed above)"
    exit 1
fi

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI green."
