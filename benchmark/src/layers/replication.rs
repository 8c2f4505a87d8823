//! flexlog-replication: the read-replica read path, and a replica crash
//! under a serial writer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use flexlog_core::{ClusterSpec, ColorId, FlexLogCluster, SeqNum};
use flexlog_types::Payload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{lost_acks, median_call_us, serial_writer, Drivers};
use crate::stats::ratio;
use crate::workloads::cluster_spec;

const COLOR: ColorId = ColorId(1);
const PRELOAD: usize = 8_000;
const READS: usize = 4_000;

pub fn run(seed: u64, out: &mut Drivers) {
    read_replica_reads(seed, out);
    replica_recovery(out);
}

/// The `read-write-mix` read loop against a cluster whose shards each carry
/// one read-only replica (client reads prefer it).
fn read_replica_reads(seed: u64, out: &mut Drivers) {
    let cluster = FlexLogCluster::start(ClusterSpec {
        read_replicas_per_shard: 1,
        ..cluster_spec()
    });
    cluster.add_color(COLOR).expect("fresh color");
    let payload = Payload::from(vec![0xA5u8; 256]);
    let mut h = cluster.handle();
    for _ in 0..PRELOAD {
        h.append_pipelined(std::slice::from_ref(&payload), COLOR)
            .expect("preload");
    }
    let keys: Vec<SeqNum> = h
        .flush_appends()
        .expect("preload acked")
        .into_iter()
        .chain(h.take_completed_appends())
        .map(|(_, sn)| sn)
        .collect();
    // Let the read replicas catch up, so the loop measures reads, not the
    // read-through fetch of a lagging follower.
    let imported = || {
        cluster
            .obs()
            .snapshot()
            .counter("rreplica.imported_records")
    };
    let caught_up = Instant::now() + Duration::from_secs(10);
    while imported() < keys.len() as u64 && Instant::now() < caught_up {
        std::thread::sleep(Duration::from_millis(5));
    }
    let fetches = cluster.obs().snapshot().counter("rreplica.sync_fetches");
    out.put(
        "replication.rreplica_sync_fetches_per_record",
        ratio(fetches as f64, imported() as f64),
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let mut missing = 0u64;
    let p50 = median_call_us(READS, |_| {
        let sn = keys[rng.gen_range(0..keys.len())];
        if !matches!(h.read(sn, COLOR), Ok(Some(_))) {
            missing += 1;
        }
    });
    out.put("replication.rreplica_read_p50_us", p50);
    out.attempted_ops += READS as u64;
    out.failed_ops += missing;
    cluster.shutdown();
}

/// A serial writer keeps appending while one replica of its shard is
/// crashed and restarted: appends block (write-all) until the replica has
/// re-synced. Recovery time runs from the restart to the first ack after it.
fn replica_recovery(out: &mut Drivers) {
    let cluster = FlexLogCluster::start(ClusterSpec {
        leaves: 0,
        ..cluster_spec()
    });
    cluster.add_color(COLOR).expect("fresh color");
    let victim = cluster.data().all_replicas()[0];
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let (acks, failed, restarted_at) = std::thread::scope(|s| {
        let writer = s.spawn(|| serial_writer(&cluster, COLOR, epoch, &stop));
        std::thread::sleep(Duration::from_millis(100));
        cluster.data().crash_replica(cluster.network(), victim);
        std::thread::sleep(Duration::from_millis(50));
        let restarted_at = epoch.elapsed();
        cluster
            .data()
            .restart_replica(cluster.network(), cluster.directory(), victim);
        // Give the writer time to get going again, then stop it.
        std::thread::sleep(Duration::from_millis(1_500));
        stop.store(true, Ordering::Relaxed);
        let (acks, failed) = writer.join().expect("writer thread");
        (acks, failed, restarted_at)
    });
    let first_ack_after = acks.iter().find(|&&t| t > restarted_at);
    out.put(
        "replication.replica_recovery_ms",
        first_ack_after.map_or(0.0, |&t| (t - restarted_at).as_secs_f64() * 1e3),
    );
    let lost = lost_acks(&cluster, COLOR, acks.len());
    let failed = failed + lost + u64::from(first_ack_after.is_none());
    out.put("replication.replica_recovery_failed", failed as f64);
    out.attempted_ops += acks.len() as u64 + failed;
    out.failed_ops += failed;
    cluster.shutdown();
}
