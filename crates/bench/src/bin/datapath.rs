//! Data-path throughput/latency benchmark (`BENCH_datapath.json`).
//!
//! Measures append throughput and completion latency of the data layer at
//! 1, 2 and 4 shards, in two modes:
//!
//! * `serial` — the classic one-in-flight `Append` protocol: each append
//!   blocks until every replica of the chosen shard acks (Algorithm 1);
//! * `pipelined` — the bounded-window `append_pipelined` API: up to W
//!   appends in flight per client with out-of-order ack tracking.
//!
//! The emitted JSON also carries the **pre-PR baseline** (serial mode
//! measured at commit 6cf3d48, before the zero-copy / lock-sharding /
//! pipelining overhaul landed) so the speedup of the optimised data path is
//! visible in one file. Runs are seeded and closed-loop; wall-clock numbers
//! on this single-CPU host measure software overhead (copies, locks,
//! context switches), which is exactly what the overhaul targets.
//!
//! **Scaling curve.** Wall clock on one CPU cannot show shard scaling (total
//! CPU work is shard-independent, so every shard count saturates the same
//! core). Following the virtual-clock substitution documented in DESIGN.md,
//! each run also reports a *modelled* throughput: every node accrues a
//! `node.busy_ns.*` counter (per-message/per-record handling costs plus
//! virtual PM device time), and `records_per_s_modelled` is the workload
//! divided by the **busiest node's** busy time — the capacity of the
//! pipeline's bottleneck stage if every node ran on its own core. The
//! top-level `scaling_4x_over_1x` field is the modelled pipelined 4-shard /
//! 1-shard ratio; `scripts/ci.sh` gates on it.
//!
//! Usage: `datapath [--quick] [--out PATH]`; `scripts/bench.sh` regenerates
//! the tracked file, `scripts/ci.sh` runs `--quick` as a smoke test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use std::collections::HashMap;

use flexlog_core::{ClusterSpec, FlexLogCluster};
use flexlog_pm::ClockMode;
use flexlog_simnet::NetConfig;
use flexlog_storage::StorageConfig;
use flexlog_types::{ColorId, Payload, Token};

/// Fixed workload shape: everything below is part of the tracked-bench
/// contract; change it only together with `BENCH_datapath.json`.
const PAYLOAD_BYTES: usize = 256;
const REPLICATION_FACTOR: usize = 3;
const CLIENTS: usize = 4;
const COLORS: u32 = 4;
const RECORDS_PER_CLIENT: usize = 1500;
const QUICK_RECORDS_PER_CLIENT: usize = 150;
const PIPELINE_WINDOW: usize = 32;
const READBACK_SAMPLES: usize = 1000;
const SEED: u64 = 42;

/// Serial-mode records/s measured at commit 6cf3d48 (pre-PR data path:
/// deep-copied payloads, two global storage mutexes, one in-flight append
/// per client) with the exact workload above. The acceptance bar for this
/// PR is ≥ 2× over the 4-shard figure in pipelined mode.
const PRE_PR_BASELINE: &[(usize, f64)] = &[(1, 11489.0), (2, 11517.0), (4, 11884.0)];

/// The paper-style latency decomposition: per-stage percentiles pulled
/// from the cluster's shared metrics registry after the run. All values
/// in microseconds.
struct StageBreakdown {
    /// `(stage name, histogram name)` → (p50_us, p99_us, count).
    stages: Vec<(&'static str, f64, f64, u64)>,
}

/// Registry histogram per pipeline stage. `client` is end-to-end (the sum
/// of everything plus the wire); the others are the on-node service times.
const STAGE_HISTOGRAMS: &[(&str, &str)] = &[
    ("client", "client.append_ns"),
    ("sequencer", "seq.batch_wait_ns"),
    ("replica", "replica.commit_batch_ns"),
    ("storage", "storage.commit_ns"),
];

struct ModeResult {
    mode: &'static str,
    shards: usize,
    records: u64,
    elapsed: Duration,
    records_per_s: f64,
    mb_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    cache_hit_rate: f64,
    bytes_appended: u64,
    bytes_read: u64,
    /// Busiest node by modelled busy time (`node.busy_ns.*` counter name).
    busiest_node: String,
    /// That node's modelled busy time over the run, in milliseconds.
    busiest_node_busy_ms: f64,
    /// Modelled capacity: records ÷ busiest-node busy time (see module docs).
    records_per_s_modelled: f64,
    breakdown: StageBreakdown,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn run_mode(shards: usize, per_client: usize, window: usize) -> ModeResult {
    let spec = ClusterSpec {
        // One leaf sequencer per shard: scale-out in FlexLog adds ordering
        // capacity together with data-layer shards (§5.2); a fixed root
        // sequencer would otherwise cap the modelled curve at every shard
        // count (it serves one OReq per record regardless of shards).
        leaves: shards,
        shards_per_leaf: 1,
        replication_factor: REPLICATION_FACTOR,
        net: NetConfig::instant(),
        // Virtual device clock: PM latencies are charged to the per-node
        // `node.busy_ns.*` counters instead of spin-waited, feeding the
        // modelled scaling curve without distorting wall-clock numbers.
        storage: StorageConfig {
            clock: ClockMode::Virtual,
            ..Default::default()
        },
        ..Default::default()
    };
    let cluster = FlexLogCluster::start(spec);
    for c in 1..=COLORS {
        cluster.add_color(ColorId(c)).unwrap();
    }

    let start_barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let total_records = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    type ClientOut = (Vec<f64>, Vec<(ColorId, flexlog_core::SeqNum)>);
    let (lat_tx, lat_rx) = std::sync::mpsc::channel::<ClientOut>();

    for c in 0..CLIENTS {
        let mut handle = cluster.handle();
        let barrier = Arc::clone(&start_barrier);
        let total = Arc::clone(&total_records);
        let tx = lat_tx.clone();
        threads.push(std::thread::spawn(move || {
            // One shared buffer per thread: every append below broadcasts a
            // refcount bump of this allocation, never a byte copy.
            let payload = Payload::from(vec![0xA5u8; PAYLOAD_BYTES]);
            let mut lats: Vec<f64> = Vec::with_capacity(per_client);
            let mut written: Vec<(ColorId, flexlog_core::SeqNum)> =
                Vec::with_capacity(per_client);
            barrier.wait();
            if window <= 1 {
                for i in 0..per_client {
                    let color = ColorId(1 + ((c as u32 + i as u32) % COLORS));
                    let t0 = Instant::now();
                    let sn = handle
                        .append_payloads(std::slice::from_ref(&payload), color)
                        .expect("serial append");
                    lats.push(t0.elapsed().as_secs_f64() * 1e6);
                    written.push((color, sn));
                    total.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                let mut starts: HashMap<Token, (Instant, ColorId)> =
                    HashMap::with_capacity(window * 2);
                for i in 0..per_client {
                    let color = ColorId(1 + ((c as u32 + i as u32) % COLORS));
                    let t0 = Instant::now();
                    let token = handle
                        .append_pipelined(std::slice::from_ref(&payload), color)
                        .expect("pipelined append");
                    starts.insert(token, (t0, color));
                    for (done, sn) in handle.take_completed_appends() {
                        let (issued, color) =
                            starts.remove(&done).expect("completion of a known token");
                        lats.push(issued.elapsed().as_secs_f64() * 1e6);
                        written.push((color, sn));
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                }
                for (done, sn) in handle.flush_appends().expect("flush pipelined appends") {
                    let (issued, color) =
                        starts.remove(&done).expect("completion of a known token");
                    lats.push(issued.elapsed().as_secs_f64() * 1e6);
                    written.push((color, sn));
                    total.fetch_add(1, Ordering::Relaxed);
                }
                assert!(starts.is_empty(), "flush left {} appends unresolved", starts.len());
            }
            let _ = tx.send((lats, written));
        }));
    }
    drop(lat_tx);

    start_barrier.wait();
    let t0 = Instant::now();
    for t in threads {
        t.join().expect("client thread");
    }
    let elapsed = t0.elapsed();

    // Snapshot the per-node capacity counters now, before the read-back
    // phase adds post-window work to them. The bottleneck node's busy time
    // is the modelled service demand of the whole run.
    let (busiest_node, busiest_busy_ns) = cluster
        .obs()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("node.busy_ns."))
        .max_by_key(|&(_, &v)| v)
        .map(|(name, &v)| (name.clone(), v))
        .unwrap_or_default();

    let mut lats: Vec<f64> = Vec::new();
    let mut written: Vec<(ColorId, flexlog_core::SeqNum)> = Vec::new();
    for (l, w) in lat_rx.iter() {
        lats.extend(l);
        written.extend(w);
    }
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let records = total_records.load(Ordering::Relaxed);

    // Read-back phase (outside the timed window): exercises the read path so
    // the cache hit-rate / bytes_read counters in the report mean something.
    // Commits pre-fill the DRAM cache, so most of these should be hits.
    let mut reader = cluster.handle();
    let step = (written.len() / READBACK_SAMPLES).max(1);
    for &(color, sn) in written.iter().step_by(step) {
        let got = reader.read(sn, color).expect("read back");
        assert!(got.is_some(), "committed record missing at {sn:?}");
    }

    // Storage counters (summed over every replica) and per-stage latency
    // percentiles, both from the shared metrics registry.
    let snap = cluster.obs().snapshot();
    let cache_hits = snap.counter("storage.cache_hits");
    let cache_misses = snap.counter("storage.cache_misses");
    let bytes_appended = snap.counter("storage.bytes_appended");
    let bytes_read = snap.counter("storage.bytes_read");
    let cache_hit_rate = if cache_hits + cache_misses > 0 {
        cache_hits as f64 / (cache_hits + cache_misses) as f64
    } else {
        0.0
    };

    let breakdown = StageBreakdown {
        stages: STAGE_HISTOGRAMS
            .iter()
            .map(|&(stage, hist)| match snap.histogram(hist) {
                Some(h) => (stage, h.p50 as f64 / 1e3, h.p99 as f64 / 1e3, h.count),
                None => (stage, 0.0, 0.0, 0),
            })
            .collect(),
    };

    cluster.shutdown();

    let secs = elapsed.as_secs_f64();
    ModeResult {
        mode: if window <= 1 { "serial" } else { "pipelined" },
        shards,
        records,
        elapsed,
        records_per_s: records as f64 / secs,
        mb_per_s: (records as f64 * PAYLOAD_BYTES as f64) / secs / 1e6,
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        cache_hit_rate,
        bytes_appended,
        bytes_read,
        busiest_node,
        busiest_node_busy_ms: busiest_busy_ns as f64 / 1e6,
        records_per_s_modelled: if busiest_busy_ns > 0 {
            records as f64 / (busiest_busy_ns as f64 / 1e9)
        } else {
            0.0
        },
        breakdown,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_datapath.json".to_string());
    let per_client = if quick {
        QUICK_RECORDS_PER_CLIENT
    } else {
        RECORDS_PER_CLIENT
    };

    let mut results: Vec<ModeResult> = Vec::new();
    for &shards in &[1usize, 2, 4] {
        for &window in &[1usize, PIPELINE_WINDOW] {
            eprintln!(
                "==> datapath: shards={shards} mode={} records={}",
                if window <= 1 { "serial" } else { "pipelined" },
                per_client * CLIENTS
            );
            let r = run_mode(shards, per_client, window);
            eprintln!(
                "    {:>9} rec/s  p50 {:7.1} us  p99 {:7.1} us  ({:.2?})",
                r.records_per_s as u64, r.p50_us, r.p99_us, r.elapsed
            );
            eprintln!(
                "    modelled {:>9} rec/s  bottleneck {} busy {:.1} ms",
                r.records_per_s_modelled as u64, r.busiest_node, r.busiest_node_busy_ms
            );
            let decomp: Vec<String> = r
                .breakdown
                .stages
                .iter()
                .map(|(stage, p50, p99, _)| format!("{stage} {p50:.0}/{p99:.0}us"))
                .collect();
            eprintln!("    stage p50/p99: {}", decomp.join("  "));
            results.push(r);
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"datapath\",\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"payload_bytes\": {PAYLOAD_BYTES},\n"));
    json.push_str(&format!("  \"replication_factor\": {REPLICATION_FACTOR},\n"));
    json.push_str(&format!("  \"clients\": {CLIENTS},\n"));
    json.push_str(&format!("  \"colors\": {COLORS},\n"));
    json.push_str(&format!("  \"records_per_client\": {per_client},\n"));
    json.push_str(&format!("  \"pipeline_window\": {PIPELINE_WINDOW},\n"));
    json.push_str("  \"pre_pr_baseline\": {\n");
    json.push_str("    \"commit\": \"6cf3d48\",\n");
    json.push_str("    \"mode\": \"serial\",\n");
    let base: Vec<String> = PRE_PR_BASELINE
        .iter()
        .map(|(s, v)| format!("    \"shards_{s}\": {v:.1}"))
        .collect();
    json.push_str(&format!("{}\n  }},\n", base.join(",\n")));
    json.push_str("  \"results\": [\n");
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            let stages: Vec<String> = r
                .breakdown
                .stages
                .iter()
                .map(|(stage, p50, p99, count)| {
                    format!(
                        "\"{stage}\": {{\"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}, \"count\": {count}}}"
                    )
                })
                .collect();
            format!(
                "    {{\"shards\": {}, \"mode\": \"{}\", \"records\": {}, \"records_per_s\": {:.1}, \"records_per_s_modelled\": {:.1}, \"busiest_node\": \"{}\", \"busiest_node_busy_ms\": {:.2}, \"mb_per_s\": {:.2}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"cache_hit_rate\": {:.4}, \"bytes_appended\": {}, \"bytes_read\": {}, \"stages\": {{{}}}}}",
                r.shards,
                r.mode,
                r.records,
                r.records_per_s,
                r.records_per_s_modelled,
                r.busiest_node,
                r.busiest_node_busy_ms,
                r.mb_per_s,
                r.p50_us,
                r.p99_us,
                r.cache_hit_rate,
                r.bytes_appended,
                r.bytes_read,
                stages.join(", ")
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n");

    // Modelled pipelined scaling ratio (4 shards over 1) — the headline
    // scaling-curve number `scripts/ci.sh` gates on.
    let modelled = |shards: usize, mode: &str| {
        results
            .iter()
            .find(|r| r.shards == shards && r.mode == mode)
            .map(|r| r.records_per_s_modelled)
            .unwrap_or(0.0)
    };
    let p1 = modelled(1, "pipelined");
    let p4 = modelled(4, "pipelined");
    let scaling = if p1 > 0.0 { p4 / p1 } else { 0.0 };
    let s1 = modelled(1, "serial");
    let s4 = modelled(4, "serial");
    let scaling_serial = if s1 > 0.0 { s4 / s1 } else { 0.0 };
    json.push_str(&format!("  \"scaling_4x_over_1x\": {scaling:.3},\n"));
    json.push_str(&format!(
        "  \"scaling_4x_over_1x_serial\": {scaling_serial:.3}\n"
    ));
    json.push_str("}\n");
    eprintln!(
        "==> scaling_4x_over_1x: {scaling:.3} (pipelined modelled), {scaling_serial:.3} (serial modelled)"
    );

    std::fs::write(&out, &json).expect("write bench json");
    eprintln!("==> wrote {out}");
}
