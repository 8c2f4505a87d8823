//! Controller-crash nemesis scenarios: the controller dies at every
//! migration phase (and mid-catch-up-round) while clients keep appending,
//! and a successor recovers from the durable intent WAL. The §7 invariant
//! suite (via [`flexlog_chaos::HistoryChecker`] inside `run_chaos`) must
//! hold, and the scenario-specific post checks assert the recovery
//! contract: no color stays frozen, the migration either completed or
//! fully reverted (never half), and the recovery counters agree with the
//! phase the controller died at.

use std::time::{Duration, Instant};

use flexlog_chaos::{
    run_chaos, seed_from_env, ChaosOptions, FaultEvent, FaultKind, FaultPlan, PostCheckFn,
    ReconfigFn, WorkloadConfig,
};
use flexlog_core::{ClusterSpec, FlexLogCluster};
use flexlog_ctrl::{ControlPlane, CtrlError, CtrlPhase};
use flexlog_ordering::RoleId;
use flexlog_replication::{AppendMsg, ClusterMsg, DataMsg};
use flexlog_simnet::NodeId;
use flexlog_types::{ColorId, Payload, ShardId, Token};

const RED: ColorId = ColorId(1);

fn resilient_spec() -> ClusterSpec {
    ClusterSpec {
        backups_per_sequencer: 2,
        delta: Duration::from_millis(80),
        client_retry: Duration::from_millis(20),
        client_max_retry: Duration::from_millis(200),
        ..ClusterSpec::single_shard()
    }
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        clients: 3,
        colors: vec![RED],
        seed: 0, // overridden by the harness with the run seed
        multi_appends: false,
        trims: false,
        think_time: Duration::from_millis(5),
    }
}

/// A bounded raw append against RED's current shard: `Ok` when it
/// commits, `Err` describing the nack or the timeout. A replica left
/// frozen parks the probe unanswered, so a regression that leaves the
/// color frozen after recovery surfaces as the timeout, a violation.
fn probe_append(cluster: &FlexLogCluster) -> Result<(), String> {
    let shards = cluster.data().topology.shards_of(RED);
    let shard = shards.first().ok_or("RED has no shard")?;
    let ep = cluster
        .network()
        .register(NodeId::named(0, (u64::MAX >> 4) - 7_777));
    let token = Token(u64::MAX - 0xBEEF);
    for &r in shard.replicas.iter() {
        let _ = ep.send(
            r,
            AppendMsg::Append {
                color: RED,
                token,
                payloads: [Payload::from(&b"post-recovery-probe"[..])].into(),
                reply_to: ep.id(),
            }
            .into(),
        );
    }
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let left = deadline
            .checked_duration_since(Instant::now())
            .ok_or("probe append timed out (color left frozen?)")?;
        match ep.recv_timeout(left) {
            Ok((_, ClusterMsg::Data(DataMsg::Append(AppendMsg::AppendAck { acks }))))
                if acks.iter().any(|&(t, _)| t == token) =>
            {
                return Ok(());
            }
            Ok((_, ClusterMsg::Data(DataMsg::Append(AppendMsg::Rejected { token: t, reason })))) if t == token => {
                return Err(format!("probe append nacked with {reason:?}"));
            }
            Ok(_) => {}
            Err(e) => return Err(format!("probe append: {e:?}")),
        }
    }
}

/// Driver: scale out, then migrate RED with an injected controller crash
/// right after `phase`'s WAL record persists. The cluster then lives with
/// the orphaned half-reconfiguration under client load for a while
/// (a crash at `Frozen` leaves RED frozen with nobody to thaw it — the
/// replicas hold the workload's appends) before a successor attaches to the WAL,
/// fences the dead generation, and rolls the operation forward or back.
fn crash_at_phase_driver(phase: CtrlPhase) -> ReconfigFn {
    Box::new(move |cluster: &FlexLogCluster| {
        let mut plane = ControlPlane::new(cluster);
        plane.timeout = Duration::from_millis(800);
        plane.crash_after = Some(phase);
        let dest = plane.add_shard(RoleId(0));
        let crashed = plane.migrate_color(RED, dest.id);
        assert_eq!(
            crashed,
            Err(CtrlError::Crashed),
            "injected controller crash at {phase:?} did not fire"
        );
        std::thread::sleep(Duration::from_millis(200));
        let (_successor, report) = ControlPlane::recover(cluster);
        assert_eq!(report.in_flight, 1, "recovery must find the orphan at {phase:?}");
        assert_eq!(
            report.rolled_forward + report.rolled_back,
            1,
            "recovery must resolve the orphan at {phase:?}"
        );
    })
}

/// Post-run invariants for a controller crash at `phase`: the decision
/// table resolved the right way, the topology is whole, and RED serves.
fn post_checks(phase: CtrlPhase) -> PostCheckFn {
    Box::new(move |cluster: &FlexLogCluster| {
        let mut violations = Vec::new();
        let forward = phase >= CtrlPhase::Copied;
        let shards = cluster.data().topology.shards_of(RED);
        if shards.len() != 1 {
            violations.push(format!("RED must live on exactly one shard, got {shards:?}"));
        } else {
            let expect = if forward { ShardId(1) } else { ShardId(0) };
            if shards[0].id != expect {
                violations.push(format!(
                    "crash at {phase:?}: migration neither completed nor fully \
                     reverted (RED on {:?}, expected {:?})",
                    shards[0].id, expect
                ));
            }
        }
        let snap = cluster.obs().snapshot();
        if snap.counter("ctrl.recovery.scans") < 2 {
            violations.push("successor never ran a recovery scan".into());
        }
        let fwd = snap.counter("ctrl.recovery.rolled_forward");
        let back = snap.counter("ctrl.recovery.rolled_back");
        if fwd + back != 1 {
            violations.push(format!(
                "exactly one resolution expected, got forward={fwd} back={back}"
            ));
        } else if forward != (fwd == 1) {
            violations.push(format!(
                "crash at {phase:?}: resolved the wrong way (forward={fwd} back={back})"
            ));
        }
        if let Err(e) = probe_append(cluster) {
            violations.push(format!("RED must serve after recovery: {e}"));
        }
        violations
    })
}

fn run_phase_scenario(seed: u64, phase: CtrlPhase) {
    let seed = seed_from_env(seed);
    let mut options = ChaosOptions::new(seed);
    options.spec = resilient_spec();
    options.workload = workload();
    // No scripted faults besides the injected crash: the scenario isolates
    // the controller's death at one exact phase.
    options.scripted = Some(FaultPlan::scripted(seed, vec![]));
    options.reconfig = Some((Duration::from_millis(150), crash_at_phase_driver(phase)));
    options.post = Some(post_checks(phase));
    options.duration = Duration::from_millis(1200);
    options.settle = Duration::from_millis(600);

    let report = run_chaos(options);
    assert!(
        report.ok_appends > 0,
        "appends must make progress around the controller crash: {report:?}"
    );
}

#[test]
fn controller_crash_after_begin() {
    run_phase_scenario(0x316_B001, CtrlPhase::Begun);
}

#[test]
fn controller_crash_after_catchup() {
    run_phase_scenario(0x316_B002, CtrlPhase::CatchUp);
}

#[test]
fn controller_crash_after_freeze() {
    run_phase_scenario(0x316_B003, CtrlPhase::Frozen);
}

#[test]
fn controller_crash_after_drain() {
    run_phase_scenario(0x316_B004, CtrlPhase::Drained);
}

#[test]
fn controller_crash_after_epoch_fence() {
    run_phase_scenario(0x316_B005, CtrlPhase::Fenced);
}

#[test]
fn controller_crash_after_copy() {
    run_phase_scenario(0x316_B006, CtrlPhase::Copied);
}

#[test]
fn controller_crash_after_adopt() {
    run_phase_scenario(0x316_B007, CtrlPhase::Adopted);
}

#[test]
fn controller_crash_after_cutover() {
    run_phase_scenario(0x316_B008, CtrlPhase::CutOver);
}

/// The controller dies *inside* a catch-up round (no phase record yet —
/// only the `Begin` intent is durable), exercising the scripted
/// `CrashController`/`RestartController` fault kinds. A source replica is
/// crashed before the driver starts, so every catch-up round pays its
/// probe timeout (200 ms at the driver's settings) and always finds a
/// fresh delta from the live workload — the window provably spans the
/// 450 ms crash. Recovery must roll the migration back: sources unfrozen,
/// the partial cold import discarded at the destination, RED still routed
/// to the seed shard.
#[test]
fn controller_crash_mid_catchup_round() {
    let seed = seed_from_env(0x316_B009);
    let victim = {
        let probe = FlexLogCluster::start(resilient_spec());
        let node = probe.data().shard_replicas(ShardId(0))[1];
        probe.shutdown();
        node
    };

    let mut options = ChaosOptions::new(seed);
    options.spec = resilient_spec();
    options.workload = workload();
    options.scripted = Some(FaultPlan::scripted(
        seed,
        vec![
            // Dead before the driver starts: every catch-up round now
            // stalls ≥ 200 ms ranking the export source, and the 80 ms
            // batching delta guarantees each round ships a fresh delta —
            // with threshold 0 the loop holds until its 3.2 s budget.
            FaultEvent {
                at: Duration::from_millis(100),
                kind: FaultKind::CrashReplica { node: victim },
            },
            FaultEvent {
                at: Duration::from_millis(450),
                kind: FaultKind::CrashController,
            },
            // The replica returns (and syncs) before the successor
            // controller, so the roll-back's unfreeze round acks promptly.
            FaultEvent {
                at: Duration::from_millis(700),
                kind: FaultKind::RestartReplica { node: victim },
            },
            FaultEvent {
                at: Duration::from_millis(900),
                kind: FaultKind::RestartController,
            },
        ],
    ));
    options.reconfig = Some((
        Duration::from_millis(150),
        Box::new(|cluster: &FlexLogCluster| {
            let mut plane = ControlPlane::new(cluster);
            plane.timeout = Duration::from_millis(800);
            plane.catchup_threshold = 0;
            plane.max_catchup_rounds = 10_000;
            let dest = plane.add_shard(RoleId(0));
            // The scripted crash kills this controller's node from the
            // outside; the plane must notice it is dead and return
            // `Crashed` without touching the WAL or the cluster.
            let crashed = plane.migrate_color(RED, dest.id);
            assert_eq!(
                crashed,
                Err(CtrlError::Crashed),
                "a controller crashed mid-catch-up must report Crashed"
            );
        }),
    ));
    options.post = Some(Box::new(|cluster: &FlexLogCluster| {
        let mut violations = Vec::new();
        let shards = cluster.data().topology.shards_of(RED);
        if shards.len() != 1 || shards[0].id != ShardId(0) {
            violations.push(format!(
                "mid-catch-up crash must fully revert: RED on {shards:?}"
            ));
        }
        let snap = cluster.obs().snapshot();
        if snap.counter("ctrl.recovery.rolled_back") < 1 {
            violations.push("recovery must roll the catch-up migration back".into());
        }
        if let Err(e) = probe_append(cluster) {
            violations.push(format!("RED must serve after recovery: {e}"));
        }
        violations
    }));
    options.duration = Duration::from_millis(1500);
    options.settle = Duration::from_millis(700);

    let report = run_chaos(options);
    assert!(
        report.ok_appends > 0,
        "appends must make progress around the mid-catch-up crash: {report:?}"
    );
}
