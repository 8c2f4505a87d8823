#!/usr/bin/env bash
# CI gate: release build (workspace + the out-of-workspace benchmark crate,
# build only), a code-line report (scripts/loc.sh, no gate), full test
# suite, the PM pool's count-based write-amplification bars and its
# every-device-operation crash sweep once more in release, two bounded
# nemesis smoke runs (fixed seed, ~5 s of injected faults under load — once
# on the instant network, once over delayed links with 4 delay-scheduler
# shards), bench smokes (datapath + elasticity,
# --quick, JSON shape + scaling-ratio checks), one migration-crash and one
# controller-crash nemesis scenario, and a zero-warning clippy pass over the
# whole workspace.
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

echo "==> PM pool crash-point sweep + tombstone resurrection + shrunk-device proptest (release)"
cargo test --release -q -p flexlog-pm --test crash_consistency

echo "==> nemesis smoke (bounded chaos run, fixed seed)"
cargo run --release -p flexlog-chaos --example nemesis_smoke

echo "==> nemesis smoke over delayed links (4 delay-scheduler shards)"
FLEXLOG_NEMESIS_NET=datacenter cargo run --release -p flexlog-chaos --example nemesis_smoke

echo "==> datapath bench smoke (--quick, JSON shape check)"
cargo run --release -p flexlog-bench --bin datapath -- --quick --out /tmp/flexlog_datapath_smoke.json
python3 - <<'EOF'
import json
d = json.load(open("/tmp/flexlog_datapath_smoke.json"))
assert d["bench"] == "datapath" and d["quick"] is True
assert {"shards_1", "shards_2", "shards_4"} <= set(d["pre_pr_baseline"])
assert len(d["results"]) == 6, f"expected 6 rows, got {len(d['results'])}"
for r in d["results"]:
    assert r["records"] > 0 and r["records_per_s"] > 0, r
    assert {"p50_us", "p99_us", "cache_hit_rate", "bytes_appended", "bytes_read"} <= set(r), r
    # Modelled capacity metric (virtual-clock substitution, see DESIGN.md):
    # every row must name its bottleneck node and carry a positive rate.
    assert r["records_per_s_modelled"] > 0, r
    assert r["busiest_node"].startswith("node.busy_ns."), r
    assert r["busiest_node_busy_ms"] > 0, r
    # Per-stage latency decomposition from the flight recorder: every
    # stage must have been exercised (non-zero percentiles and counts).
    stages = r["stages"]
    assert set(stages) == {"client", "sequencer", "replica", "storage"}, r
    for name, s in stages.items():
        assert s["count"] > 0, f"stage {name} recorded nothing: {r}"
        assert s["p50_us"] > 0 and s["p99_us"] > 0, f"stage {name} has zero percentiles: {r}"
        assert s["p50_us"] <= s["p99_us"], f"stage {name} p50 > p99: {r}"
# Scaling-curve gate: modelled pipelined throughput at 4 shards must beat
# 1 shard by >= 1.5x even in the short, noisy --quick run (the tracked
# full-mode BENCH_datapath.json targets >= 2.0).
assert d["scaling_4x_over_1x"] >= 1.5, f"scaling_4x_over_1x regressed: {d['scaling_4x_over_1x']}"
print(f"datapath smoke JSON OK (incl. per-stage percentiles, scaling {d['scaling_4x_over_1x']:.2f}x)")
EOF

echo "==> elasticity bench smoke (--quick, JSON shape check)"
cargo run --release -p flexlog-bench --bin elasticity -- --quick --out /tmp/flexlog_elasticity_smoke.json
python3 - <<'EOF'
import json
d = json.load(open("/tmp/flexlog_elasticity_smoke.json"))
assert d["bench"] == "elasticity" and d["quick"] is True
assert d["failed_appends"] == 0, d
assert d["ctrl"]["migrations"] == 1 and d["ctrl"]["epoch_bumps"] >= 1, d
p = d["phases"]
assert set(p) == {"before", "during", "after"}
assert p["before"]["records"] > 0 and p["after"]["records"] > 0, p
# Incremental migration: the bulk ships in catch-up rounds while the
# source still serves, so the client-visible stall is the freeze window
# over the residual sliver only — independent of span size. The quick run
# is short and noisy, so the gate is 60 ms (full mode asserts < 10 ms in
# the bench itself), but it must never regress toward the old O(span)
# freeze-the-whole-copy behaviour (~90 ms even in --quick).
assert 0 < d["cutover_stall_ms"] < 60, d["cutover_stall_ms"]
assert d["catchup_rounds"] >= 1, d
assert "final_sliver_records" in d, d
# Controller-crash recovery drill: a successor controller attaches to the
# intent WAL, fences the dead generation and rolls the orphaned migration
# back. Recovery is a handful of fenced rounds on the instant network —
# the gate catches it regressing toward a span-sized or retry-bound scan.
assert 0 < d["controller_recovery_ms"] < 250, d["controller_recovery_ms"]
# Throughput must recover after the cutover: within 2x of the warm-up rate.
assert p["after"]["records_per_s"] > p["before"]["records_per_s"] / 2, p
print("elasticity smoke JSON OK (bounded stall, catch-up rounds ran, throughput recovered)")
EOF

echo "==> fanout bench smoke (--quick, JSON shape + goodput gate)"
cargo run --release -p flexlog-bench --bin fanout -- --quick --out /tmp/flexlog_fanout_smoke.json
python3 - <<'EOF'
import json
d = json.load(open("/tmp/flexlog_fanout_smoke.json"))
assert d["bench"] == "fanout" and d["quick"] is True
assert len(d["mixed"]) == 2, d["mixed"]
for r in d["mixed"]:
    assert r["appends"] > 0 and r["reads"] > 0 and r["ops_per_s"] > 0, r
    assert r["ops_per_s_modelled"] > 0 and r["busiest_node"].startswith("node.busy_ns."), r
# With a read replica per shard the follower must actually absorb read
# work (its modelled busy time is non-zero); without one it must be idle.
by_rr = {r["read_replicas_per_shard"]: r for r in d["mixed"]}
assert by_rr[0]["rreplica_busy_ms"] == 0, by_rr[0]
assert by_rr[1]["rreplica_busy_ms"] > 0, by_rr[1]
rows = {(r["mode"], r["subscribers"]): r for r in d["fanout"]}
assert set(rows) == {("poll", 1), ("push", 1), ("push", 100)}, rows
for r in d["fanout"]:
    assert r["goodput_rec_sub_per_s"] > 0, r
# Push subscriptions must actually push (batches + per-batch latency).
push100 = rows[("push", 100)]
assert push100["push_batches"] > 0 and push100["push_records"] > 0, push100
assert 0 < push100["push_p50_us"] <= push100["push_p99_us"], push100
# The fan-out gate: 100-subscriber push goodput >= 20x the
# single-subscriber polling baseline.
assert d["goodput_100x_over_poll"] >= 20, f"fan-out goodput regressed: {d['goodput_100x_over_poll']}x"
print(f"fanout smoke JSON OK (goodput {d['goodput_100x_over_poll']:.1f}x over the polling baseline)")
EOF

echo "==> tiering bench smoke (--quick, JSON shape + hot-append gate)"
cargo run --release -p flexlog-bench --bin tiering -- --quick --out /tmp/flexlog_tiering_smoke.json
python3 - <<'EOF'
import json
d = json.load(open("/tmp/flexlog_tiering_smoke.json"))
assert d["bench"] == "tiering" and d["quick"] is True
a = d["archive"]
assert a["records"] > 0 and a["records_per_s"] > 0 and a["mib_per_s"] > 0, a
assert a["store_puts"] > 0 and a["store_objects"] > 0, a
r = d["reads"]
assert r["cold_p50_us"] > 0 and r["cold_p99_us"] >= r["cold_p50_us"], r
assert r["ssd_p50_us"] > 0 and r["ssd_p99_us"] >= r["ssd_p50_us"], r
# The modelled device gap: archive segment fetches are ms-scale, SSD
# block reads are tens of us. If cold reads come out cheaper than SSD
# the read-through is sneaking through the wrong tier.
assert r["cold_p50_us"] > r["ssd_p50_us"], r
h = d["hot_append"]
# The archiver must have genuinely run during the hot phase...
assert h["archived_during_hot_phase"] > 0, h
assert h["without_archiver_ops_per_s"] > 0 and h["with_archiver_ops_per_s"] > 0, h
# ...and cost the hot append path at most 10% of its throughput.
assert h["hot_append_ratio"] >= 0.9, f"hot appends degraded by the archiver: {h['hot_append_ratio']}"
print(f"tiering smoke JSON OK (hot-append ratio {h['hot_append_ratio']:.2f}, "
      f"cold read p50 {r['cold_p50_us']:.0f} us vs SSD {r['ssd_p50_us']:.1f} us)")
EOF

echo "==> tiering nemesis (storage crash + store outage during archive rounds)"
cargo test --release -q -p flexlog-chaos --test tiering_nemesis

echo "==> subscription nemesis (read replica dies mid-push)"
cargo test --release -q -p flexlog-chaos --test subscription_nemesis subscribers_survive_read_replica_crash_mid_push

echo "==> migration-crash nemesis (source replica dies mid-migration)"
cargo test --release -q -p flexlog-chaos --test migration_nemesis source_replica_crash_mid_migration

echo "==> controller-crash nemesis (controller dies mid-catch-up round)"
cargo test --release -q -p flexlog-chaos --test controller_nemesis controller_crash_mid_catchup_round

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI green."
