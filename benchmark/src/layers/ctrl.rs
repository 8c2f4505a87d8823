//! flexlog-ctrl: a live color migration under a serial writer, and the
//! intent WAL every reconfiguration logs to.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_core::{ClusterSpec, ColorId, FlexLogCluster};
use flexlog_ctrl::{ControlPlane, CtrlPhase, IntentWal, OpKind};
use flexlog_ordering::RoleId;
use flexlog_pm::{PmDevice, PmDeviceConfig, PmPool};
use flexlog_types::{Payload, ShardId};

use super::{lost_acks, median_call_us, serial_writer, Drivers};
use crate::workloads::cluster_spec;

const HOT: ColorId = ColorId(7);
const PRELOAD: usize = 20_000;
const WAL_OPS: usize = 200;

pub fn run(_seed: u64, out: &mut Drivers) {
    migration_under_load(out);

    // Begin → one phase → commit, as the cheapest reconfiguration logs it.
    let pool = Arc::new(PmPool::create(Arc::new(PmDevice::new(
        PmDeviceConfig::default(),
    ))));
    let (mut wal, _) = IntentWal::attach(pool);
    let kind = OpKind::ScaleOut { leaf: RoleId(0) };
    out.put(
        "ctrl.wal_intent_us",
        median_call_us(WAL_OPS, |_| {
            let op = wal.begin(&kind);
            wal.phase(op, CtrlPhase::Begun);
            wal.commit(op);
        }),
    );
}

/// Scale out by one shard and migrate a 20 000-record color onto it while a
/// serial writer keeps appending to that color. Reconfiguration may delay
/// an append, never fail one.
fn migration_under_load(out: &mut Drivers) {
    // Root-only tree, one shard; short client retries so the measured stall
    // is the cutover's, not a retransmit timer's (as BENCH_elasticity.json).
    let cluster = FlexLogCluster::start(ClusterSpec {
        leaves: 0,
        client_retry: Duration::from_millis(5),
        client_max_retry: Duration::from_millis(40),
        ..cluster_spec()
    });
    cluster.add_color(HOT).expect("fresh color");
    let payload = Payload::from(vec![0xA5u8; 256]);
    let mut pre = cluster.handle();
    for _ in 0..PRELOAD {
        pre.append_pipelined(std::slice::from_ref(&payload), HOT)
            .expect("preload");
    }
    pre.flush_appends().expect("preload acked");

    let mut plane = ControlPlane::new(&cluster);
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let (acks, mut failed, migration) = std::thread::scope(|s| {
        let writer = s.spawn(|| serial_writer(&cluster, HOT, epoch, &stop));
        std::thread::sleep(Duration::from_millis(200));
        let t = Instant::now();
        let dest: ShardId = plane.add_shard(RoleId(0)).id;
        let migrated = plane.migrate_color(HOT, dest);
        let migration = t.elapsed();
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        let (acks, failed) = writer.join().expect("writer thread");
        (acks, failed + u64::from(migrated.is_err()), migration)
    });
    // The longest gap between two acks: the stall the writer saw.
    let stall = acks
        .windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .unwrap_or_default();
    failed += lost_acks(&cluster, HOT, PRELOAD + acks.len());
    out.put("ctrl.migration_ms", migration.as_secs_f64() * 1e3);
    out.put("ctrl.cutover_stall_ms", stall.as_secs_f64() * 1e3);
    out.put("ctrl.failed_appends", failed as f64);
    out.attempted_ops += acks.len() as u64 + failed;
    out.failed_ops += failed;
    cluster.shutdown();
}
