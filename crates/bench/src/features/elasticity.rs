//! Elasticity (`BENCH_elasticity.json`): append throughput before and after
//! a live color migration, the cutover stall a client actually observes,
//! and a controller-crash recovery drill.
//!
//! One trial is one timeline: writer threads append serially to a hot color
//! on the seed shard; after a warm-up window the control plane scales out
//! (adds a shard under the root) and migrates the hot color onto it with
//! the catch-up → freeze → cutover protocol. Writers never stop —
//! reconfiguration may *delay* an append (the source replicas hold a frozen
//! color's appends and answer them at the cutover with `ColorMoved`) but
//! must never fail one. The **freeze window** runs from the first source
//! replica's `MigrateFreeze` trace event to the last one's
//! `MigrateCutover`; the **cutover stall** is the longest gap between
//! consecutive append completions that overlaps it — the stall the
//! migration caused. The run's longest gap anywhere is reported beside it:
//! it can be a host pause outside the migration. Then a second migration is
//! started and its controller killed right after the freeze round — the
//! worst place to die, since the color is unavailable until somebody thaws
//! it — and the successor's full recovery is timed (durable generation
//! bump, hello round, WAL scan, roll-back).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use flexlog_core::{ClusterSpec, FlexLogCluster, Stage, CTRL_TOKEN};
use flexlog_ctrl::{ControlPlane, CtrlError, CtrlPhase};
use flexlog_ordering::RoleId;
use flexlog_replication::{ClientConfig, FlexLogClient};
use flexlog_simnet::{NetConfig, NodeId};
use flexlog_types::{ColorId, Payload};

use crate::harness::{Report, WALL};

const PAYLOAD_BYTES: usize = 256;
const REPLICATION_FACTOR: usize = 3;
const CLIENTS: usize = 3;
const HOT: ColorId = ColorId(7);
const PHASE_SECS: f64 = 2.0;
const QUICK_PHASE_SECS: f64 = 0.4;

fn trial(phase: Duration, report: &mut Report) {
    let spec = ClusterSpec {
        leaves: 0,
        shards_per_leaf: 1,
        replication_factor: REPLICATION_FACTOR,
        net: NetConfig::instant(),
        client_retry: Duration::from_millis(5),
        client_max_retry: Duration::from_millis(40),
        ..Default::default()
    };
    let cluster = FlexLogCluster::start(spec);
    cluster.add_color(HOT).unwrap();
    let mut plane = ControlPlane::new(&cluster);

    let t0 = Instant::now();
    let t0_ns = cluster.obs().tracer().now_ns();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(CLIENTS + 1);
    // Completion timestamps (seconds since t0) and failures, all writers.
    let (mut times, failed, mig_start, mig_end, (freeze, cutover)) = std::thread::scope(|s| {
        let (stop, start, cluster) = (&stop, &start, &cluster);
        let writers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut h = cluster.handle();
                    let payload = Payload::from(vec![0xE1u8; PAYLOAD_BYTES]);
                    let (mut done, mut failed) = (Vec::with_capacity(1 << 14), 0u64);
                    start.wait();
                    while !stop.load(Ordering::Relaxed) {
                        match h.append_payloads(std::slice::from_ref(&payload), HOT) {
                            Ok(_) => done.push(t0.elapsed().as_secs_f64()),
                            Err(_) => failed += 1,
                        }
                    }
                    (done, failed)
                })
            })
            .collect();

        start.wait();
        std::thread::sleep(phase);
        let mig_start = t0.elapsed().as_secs_f64();
        let dest = plane.add_shard(RoleId(0));
        plane.migrate_color(HOT, dest.id).expect("migration");
        let mig_end = t0.elapsed().as_secs_f64();
        // Now, before the writers' spans wrap the trace ring.
        let window = freeze_window(cluster, t0_ns);
        std::thread::sleep(phase);
        stop.store(true, Ordering::Relaxed);

        let (mut all, mut failed) = (Vec::new(), 0);
        for w in writers {
            let (done, f) = w.join().expect("writer thread");
            all.extend(done);
            failed += f;
        }
        (all, failed, mig_start, mig_end, window)
    });
    let end = t0.elapsed().as_secs_f64().min(mig_end + phase.as_secs_f64());

    // Post-migration sanity: the hot color lives exactly on the new shard
    // and the quiescent log holds every acked append in one total order.
    assert_eq!(cluster.data().topology.shards_of(HOT).len(), 1, "hot color must live on one shard");
    // The spec's tight retry cap keeps the writers' stall measurement
    // honest, but a bulk subscribe of the whole run needs a patient
    // client: every retransmit restarts the replica's full-log scan.
    let ep = cluster.network().register(NodeId::named(NodeId::CLASS_CLIENT, 999_999));
    let patient = ClientConfig {
        retry: Duration::from_millis(200),
        max_retry: Duration::from_secs(2),
        ..Default::default()
    };
    let mut reader = FlexLogClient::new(ep, cluster.data().topology.clone(), patient);
    let log = reader.subscribe(HOT).expect("final subscribe");
    assert_eq!(log.len(), times.len(), "quiescent log must hold exactly the acked appends");
    assert!(log.windows(2).all(|w| w[0].sn < w[1].sn), "per-color total order broken");

    // Controller-crash recovery drill. The append probe proves the color
    // serves again the moment recovery returns.
    let dest2 = plane.add_shard(RoleId(0));
    plane.crash_after = Some(CtrlPhase::Frozen);
    let crashed = plane.migrate_color(HOT, dest2.id);
    assert_eq!(crashed, Err(CtrlError::Crashed), "injected crash must fire");
    let t_rec = Instant::now();
    let (_successor, recovery) = ControlPlane::recover(&cluster);
    let controller_recovery_ms = t_rec.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recovery.in_flight, 1, "recovery must find the orphaned migration");
    assert_eq!(recovery.rolled_back, 1, "a freeze-phase crash must roll back");
    cluster.handle().append(b"post-recovery", HOT).expect("append after controller recovery");

    let snap = cluster.obs().snapshot();
    let catchup_rounds = snap.counter("ctrl.catchup_rounds");
    assert_eq!(snap.counter("ctrl.migrations"), 1, "the drill's migration must not complete");
    assert!(catchup_rounds >= 1, "migration must run catch-up rounds");
    cluster.shutdown();

    times.sort_by(f64::total_cmp);
    let rate = |lo: f64, hi: f64| {
        let records = times.iter().filter(|&&t| t >= lo && t < hi).count();
        records as f64 / (hi - lo).max(1e-9)
    };
    let (before, after) = (rate(0.0, mig_start), rate(mig_end, end));
    let gap_ms = |w: &[f64]| (w[1] - w[0]) * 1e3;
    let longest_ack_gap_ms = times.windows(2).map(gap_ms).fold(0.0, f64::max);
    let overlapping = times.windows(2).filter(|w| w[0] < cutover && w[1] > freeze);
    let cutover_stall_ms = overlapping.map(gap_ms).fold(0.0, f64::max);
    let freeze_to_cutover_ms = (cutover - freeze) * 1e3;
    let migration_ms = (mig_end - mig_start) * 1e3;
    eprintln!(
        "elasticity: before {before:.0} rec/s, after {after:.0} rec/s, migration {migration_ms:.1} ms \
         ({catchup_rounds} catch-up rounds), freeze→cutover {freeze_to_cutover_ms:.2} ms, \
         stall {cutover_stall_ms:.2} ms (longest gap {longest_ack_gap_ms:.2} ms), \
         controller recovery {controller_recovery_ms:.2} ms, {failed} failed appends"
    );

    report.record("before_rec_per_s", "rec/s", WALL, before);
    report.record("after_rec_per_s", "rec/s", WALL, after);
    report.record("after_over_before", "x", WALL, after / before);
    report.record("freeze_to_cutover_ms", "ms", WALL, freeze_to_cutover_ms);
    report.record("cutover_stall_ms", "ms", WALL, cutover_stall_ms);
    report.record("longest_ack_gap_ms", "ms", WALL, longest_ack_gap_ms);
    report.record("controller_recovery_ms", "ms", WALL, controller_recovery_ms);
    report.record("failed_appends", "count", WALL, failed as f64);
}

/// The migration's freeze window in seconds since the trial's start (the
/// tracer read `t0_ns` then): the first source replica's `MigrateFreeze`
/// to the last one's `MigrateCutover`.
fn freeze_window(cluster: &FlexLogCluster, t0_ns: u64) -> (f64, f64) {
    let trace = cluster.obs().trace(CTRL_TOKEN);
    let freeze = trace.first_ns(Stage::MigrateFreeze);
    let cutover = trace.last_ns(Stage::MigrateCutover);
    let at = |ns: Option<u64>| {
        let ns = ns.expect("the migration's freeze and cutover are still in the trace ring");
        ns.saturating_sub(t0_ns) as f64 * 1e-9
    };
    (at(freeze), at(cutover))
}

pub fn run(quick: bool) -> Report {
    let phase_secs = if quick { QUICK_PHASE_SECS } else { PHASE_SECS };
    let mut report = Report::new("elasticity", quick);
    for _ in 0..report.trials {
        trial(Duration::from_secs_f64(phase_secs), &mut report);
    }
    report
}
