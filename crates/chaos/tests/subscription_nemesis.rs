//! Nemesis scenarios for the push read path: read replicas crash mid-push
//! and colors migrate live while subscribers watch. The delivery guarantee
//! under test: past each subscriber's acked cursor nothing is lost and
//! nothing is delivered twice — after quiescence every subscriber's
//! concatenated stream equals one authoritative pull of the log.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use flexlog_chaos::{run_chaos, seed_from_env, ChaosOptions, FaultEvent, FaultKind, FaultPlan,
    WorkloadConfig};
use flexlog_core::{ClusterSpec, FlexLogCluster};
use flexlog_ctrl::ControlPlane;
use flexlog_ordering::RoleId;
use flexlog_simnet::NodeId;
use flexlog_types::{ColorId, CommittedRecord, SeqNum};

const RED: ColorId = ColorId(1);

fn rr_spec() -> ClusterSpec {
    ClusterSpec {
        read_replicas_per_shard: 1,
        backups_per_sequencer: 2,
        delta: Duration::from_millis(80),
        client_retry: Duration::from_millis(20),
        client_max_retry: Duration::from_millis(200),
        ..ClusterSpec::single_shard()
    }
}

/// Scenario 0 (harness-checked): the generic append/read/subscribe workload
/// runs against a cluster whose read path is served by a read replica, and
/// the replica power-cycles mid-run. The §7 history checker inside
/// `run_chaos` validates P1–P3 over everything clients observed — stale or
/// lost reads through the follower would trip it.
#[test]
fn read_workload_survives_read_replica_power_cycle() {
    let seed = seed_from_env(0x5B5_C001);
    let rr = NodeId::named(NodeId::CLASS_READ_REPLICA, 0);

    let mut options = ChaosOptions::new(seed);
    options.spec = rr_spec();
    options.workload = WorkloadConfig {
        clients: 3,
        colors: vec![RED],
        seed: 0, // overridden by the harness with the run seed
        multi_appends: false,
        trims: false,
        think_time: Duration::from_millis(5),
    };
    options.scripted = Some(FaultPlan::scripted(
        seed,
        vec![
            FaultEvent {
                at: Duration::from_millis(300),
                kind: FaultKind::CrashReadReplica { node: rr },
            },
            FaultEvent {
                at: Duration::from_millis(700),
                kind: FaultKind::RestartReadReplica { node: rr },
            },
        ],
    ));
    options.duration = Duration::from_millis(1400);
    options.settle = Duration::from_millis(600);

    let report = run_chaos(options);
    assert!(
        report.ok_appends > 0,
        "appends must make progress around the read-replica cycle: {report:?}"
    );
}

/// Drains `sub` on its own handle until `target` total records arrived (the
/// writer publishes the count as it goes) or the deadline passes.
fn subscriber_thread(
    cluster: &FlexLogCluster,
    color: ColorId,
    target: &AtomicUsize,
    deadline: Duration,
) -> Vec<CommittedRecord> {
    let mut h = cluster.handle();
    let sub = h.subscribe_push(color).expect("attach");
    let t0 = std::time::Instant::now();
    let mut got = Vec::new();
    loop {
        got.extend(
            h.poll_subscription(sub, Duration::from_millis(20))
                .expect("live subscription"),
        );
        let want = target.load(Ordering::Acquire);
        if (want != usize::MAX && got.len() >= want) || t0.elapsed() > deadline {
            return got;
        }
    }
}

/// One authoritative pull, compared record-for-record with each stream.
fn assert_streams_match_pull(cluster: &FlexLogCluster, color: ColorId, streams: &[Vec<CommittedRecord>]) {
    let mut h = cluster.handle();
    let pulled = h.subscribe_from(color, SeqNum::ZERO).expect("final pull");
    for (i, s) in streams.iter().enumerate() {
        assert_eq!(
            s.len(),
            pulled.len(),
            "subscriber {i}: pushed {} records, the log holds {}",
            s.len(),
            pulled.len()
        );
        for (a, b) in s.iter().zip(pulled.iter()) {
            assert_eq!(a.sn, b.sn, "subscriber {i}: gap or duplicate at {:?}", b.sn);
            assert_eq!(a.payload.as_ref(), b.payload.as_ref(), "subscriber {i}: payload at {:?}", a.sn);
        }
    }
}

/// Scenario 1: the read replica serving 5 push subscriptions power-fails
/// mid-stream and later restarts. Each subscriber's client must detect the
/// silent stream, re-attach to the quorum from its acked cursor, and end
/// with the exact log — nothing lost, nothing duplicated.
#[test]
fn subscribers_survive_read_replica_crash_mid_push() {
    const SUBS: usize = 5;
    const PHASE: usize = 60;
    let c = FlexLogCluster::start(rr_spec());
    c.add_color(RED).unwrap();
    let target = AtomicUsize::new(usize::MAX);

    let streams: Vec<Vec<CommittedRecord>> = std::thread::scope(|scope| {
        let c = &c;
        let target = &target;
        let readers: Vec<_> = (0..SUBS)
            .map(|_| scope.spawn(move || subscriber_thread(c, RED, target, Duration::from_secs(30))))
            .collect();

        let mut writer = c.handle();
        for i in 0..PHASE {
            writer.append(format!("a{i}").as_bytes(), RED).unwrap();
        }
        // Power-fail the read replica while its pushes are in flight.
        let rr = c.data().read_replicas()[0];
        c.data().crash_replica(c.network(), rr);
        for i in 0..PHASE {
            writer.append(format!("b{i}").as_bytes(), RED).unwrap();
        }
        // Restart: it refills via the sync pull and rejoins the read path.
        c.data().restart_replica(c.network(), c.directory(), rr);
        for i in 0..PHASE {
            writer.append(format!("c{i}").as_bytes(), RED).unwrap();
        }
        target.store(3 * PHASE, Ordering::Release);
        readers.into_iter().map(|r| r.join().expect("subscriber")).collect()
    });

    assert_streams_match_pull(&c, RED, &streams);
    c.shutdown();
}

/// Scenario 2: ten subscribers watch a color through a live migration onto
/// a freshly spawned shard (freeze → copy → cutover, with the acked cursors
/// riding the final span export). Every stream must converge gap-free on
/// the post-migration log.
#[test]
fn ten_subscribers_through_live_migration_converge_gap_free() {
    const SUBS: usize = 10;
    const PHASE: usize = 50;
    let spec = ClusterSpec {
        backups_per_sequencer: 2,
        delta: Duration::from_millis(80),
        client_retry: Duration::from_millis(20),
        client_max_retry: Duration::from_millis(200),
        ..ClusterSpec::single_shard()
    };
    let c = FlexLogCluster::start(spec);
    c.add_color(RED).unwrap();
    let target = AtomicUsize::new(usize::MAX);

    let streams: Vec<Vec<CommittedRecord>> = std::thread::scope(|scope| {
        let c = &c;
        let target = &target;
        let readers: Vec<_> = (0..SUBS)
            .map(|_| scope.spawn(move || subscriber_thread(c, RED, target, Duration::from_secs(30))))
            .collect();

        let mut writer = c.handle();
        for i in 0..PHASE {
            writer.append(format!("pre{i}").as_bytes(), RED).unwrap();
        }
        // Live migration: spawn a destination shard and move RED onto it
        // while the subscribers are mid-stream.
        let mut plane = ControlPlane::new(c);
        plane.timeout = Duration::from_millis(800);
        let dest = plane.add_shard(RoleId(0));
        plane.migrate_color(RED, dest.id).expect("migration completes");
        for i in 0..PHASE {
            writer.append(format!("post{i}").as_bytes(), RED).unwrap();
        }
        target.store(2 * PHASE, Ordering::Release);
        readers.into_iter().map(|r| r.join().expect("subscriber")).collect()
    });

    assert_streams_match_pull(&c, RED, &streams);
    c.shutdown();
}
