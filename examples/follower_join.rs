//! Probe: what does a copy that joins 40 000 records behind cost the shard
//! it copies from?
//!
//! One shard of three replicas under `ClockMode::Spin` (modelled PM / SSD
//! device time is spent for real, as `benchmark/` runs it), 40 000 × 256 B
//! preloaded, and one serial writer with the 5 ms / 40 ms client retry the
//! elasticity bench uses. The writer runs through three scenarios on a
//! fresh cluster each:
//!
//! 1. `undisturbed` — nothing else happens (the baseline);
//! 2. `read-replica join` — `add_read_replica`, until the new follower
//!    holds the whole preload;
//! 3. `migration` — `add_shard` + `migrate_color` onto it.
//!
//! Per scenario it prints the writer's p50 append latency, the worst gap
//! between two acks, the failed appends, the time the copy took to get
//! level and the requests followers sent their sources for it (the
//! registry's `*.sync_fetches`; a controller that copies by itself counts
//! none), and exits non-zero if any append — or the migration — failed.
//! Public API only, so the same file runs on any checkout.
//!
//! ```sh
//! cargo run --release --example follower_join
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use flexlog::core::{ClusterSpec, ColorId, FlexLogCluster};
use flexlog::ctrl::ControlPlane;
use flexlog::ordering::RoleId;
use flexlog::pm::ClockMode;
use flexlog::storage::StorageConfig;
use flexlog::types::Payload;

const PRELOAD: usize = 40_000;
const RECORD_BYTES: usize = 256;
const COLOR: ColorId = ColorId(7);
/// How long the writer runs before and after the disturbance.
const MARGIN: Duration = Duration::from_millis(500);
/// Give up waiting for a copy to get level after this long.
const LEVEL_CAP: Duration = Duration::from_secs(30);

#[derive(Clone, Copy)]
enum Scenario {
    Undisturbed,
    ReadReplicaJoin,
    Migration,
}

struct Outcome {
    acks: usize,
    p50_us: f64,
    worst_gap_ms: f64,
    failed: u64,
    /// Time the copy took to get level, `-` where there is none; the
    /// error if the copy failed.
    level: Result<String, String>,
    requests: u64,
}

fn run(scenario: Scenario) -> Outcome {
    let cluster = FlexLogCluster::start(ClusterSpec {
        leaves: 0,
        shards_per_leaf: 1,
        replication_factor: 3,
        storage: StorageConfig { clock: ClockMode::Spin, ..Default::default() },
        client_retry: Duration::from_millis(5),
        client_max_retry: Duration::from_millis(40),
        ..Default::default()
    });
    cluster.add_color(COLOR).expect("fresh color");
    let payload = Payload::from(vec![0xF0u8; RECORD_BYTES]);

    let mut loader = cluster.handle();
    for _ in 0..PRELOAD {
        loader.append_pipelined(std::slice::from_ref(&payload), COLOR).expect("preload");
    }
    loader.flush_appends().expect("preload flush");

    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (acks, latencies, failed, level, end) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut h = cluster.handle();
            let (mut acks, mut latencies, mut failed) = (Vec::new(), Vec::new(), 0u64);
            while !stop.load(Ordering::Relaxed) {
                let sent = Instant::now();
                match h.append_payloads(std::slice::from_ref(&payload), COLOR) {
                    Ok(_) => {
                        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
                        acks.push(t0.elapsed().as_secs_f64());
                    }
                    Err(_) => failed += 1,
                }
            }
            (acks, latencies, failed)
        });
        std::thread::sleep(MARGIN);
        let started = Instant::now();
        let ms = |d: Duration| format!("{:.0}", d.as_secs_f64() * 1e3);
        let level = match scenario {
            Scenario::Undisturbed => {
                std::thread::sleep(MARGIN * 2);
                Ok("-".to_string())
            }
            Scenario::ReadReplicaJoin => {
                let shard = cluster.data().topology.shards_of(COLOR)[0].id;
                let node = cluster.add_read_replica(shard);
                let storage = cluster.data().storage_of(node).expect("the new follower");
                while storage.record_count(COLOR) < PRELOAD && started.elapsed() < LEVEL_CAP {
                    std::thread::sleep(Duration::from_millis(2));
                }
                if storage.record_count(COLOR) >= PRELOAD {
                    Ok(ms(started.elapsed()))
                } else {
                    Ok(format!(">{}", ms(LEVEL_CAP)))
                }
            }
            Scenario::Migration => {
                let mut plane = ControlPlane::new(&cluster);
                let dest = plane.add_shard(RoleId(0));
                // Reported, not unwrapped: the writer must still be stopped.
                let migrated = plane.migrate_color(COLOR, dest.id);
                migrated.map(|()| ms(started.elapsed())).map_err(|e| format!("{e:?}"))
            }
        };
        std::thread::sleep(MARGIN);
        stop.store(true, Ordering::Relaxed);
        let (acks, latencies, failed) = writer.join().expect("writer thread");
        (acks, latencies, failed, level, t0.elapsed().as_secs_f64())
    });
    let counters = cluster.obs().snapshot();
    let requests =
        counters.counter("rreplica.sync_fetches") + counters.counter("replica.sync_fetches");
    cluster.shutdown();

    let mut sorted = latencies;
    sorted.sort_by(f64::total_cmp);
    // The gap to the end of the run counts too: a shard still down when the
    // writer is stopped has not acked since its last one.
    let gaps = acks.windows(2).map(|w| w[1] - w[0]).chain(acks.last().map(|&t| end - t));
    Outcome {
        acks: acks.len(),
        p50_us: sorted.get(sorted.len() / 2).copied().unwrap_or(f64::NAN),
        worst_gap_ms: gaps.fold(0.0, f64::max) * 1e3,
        failed,
        level,
        requests,
    }
}

fn main() {
    let scenarios = [
        ("undisturbed", Scenario::Undisturbed),
        ("read-replica join", Scenario::ReadReplicaJoin),
        ("migration", Scenario::Migration),
    ];
    println!(
        "{:<18} {:>8} {:>10} {:>13} {:>7} {:>10} {:>9}",
        "scenario", "acks", "p50 us", "worst gap ms", "failed", "level ms", "requests"
    );
    let mut failed = 0;
    for (name, scenario) in scenarios {
        let o = run(scenario);
        println!(
            "{name:<18} {:>8} {:>10.0} {:>13.1} {:>7} {:>10} {:>9}",
            o.acks,
            o.p50_us,
            o.worst_gap_ms,
            o.failed,
            match &o.level {
                Ok(level) | Err(level) => level,
            },
            o.requests
        );
        failed += o.failed + u64::from(o.level.is_err());
    }
    if failed > 0 {
        eprintln!("{failed} appends or copies failed");
        std::process::exit(1);
    }
}
