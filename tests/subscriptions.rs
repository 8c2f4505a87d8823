//! Integration tests of the push read path: standing subscriptions served
//! by `SubPushBatch` (server push instead of client polling), read-only
//! replicas following the quorum via the §6.3 sync protocol, and the
//! pull-path regressions that must keep holding next to the new machinery
//! (trim semantics, destroyed colors).

use std::time::Duration;

use proptest::prelude::*;

use flexlog::core::{
    ClientError, ClusterSpec, ColorId, CommittedRecord, FlexLog, FlexLogCluster, Subscription,
};
use flexlog::ctrl::ControlPlane;
use flexlog::simnet::NetConfig;
use flexlog::types::SeqNum;

const RED: ColorId = ColorId(1);

/// Polls `sub` until `want` records arrived or `deadline` elapsed.
fn drain(
    h: &mut FlexLog,
    sub: Subscription,
    want: usize,
    deadline: Duration,
) -> Vec<CommittedRecord> {
    let t0 = std::time::Instant::now();
    let mut got = Vec::new();
    while got.len() < want && t0.elapsed() < deadline {
        got.extend(
            h.poll_subscription(sub, Duration::from_millis(50))
                .expect("live subscription"),
        );
    }
    got
}

/// Push and pull must agree exactly: same records, same order, no
/// duplicates, no gaps.
fn assert_matches_pull(h: &mut FlexLog, color: ColorId, pushed: &[CommittedRecord]) {
    let pulled = h.subscribe_from(color, SeqNum::ZERO).expect("pull");
    if pushed.len() != pulled.len() {
        eprintln!("pushed: {:?}", pushed.iter().map(|r| r.sn).collect::<Vec<_>>());
        eprintln!("pulled: {:?}", pulled.iter().map(|r| r.sn).collect::<Vec<_>>());
    }
    assert_eq!(
        pushed.len(),
        pulled.len(),
        "push delivered {} records, pull sees {}",
        pushed.len(),
        pulled.len()
    );
    for (a, b) in pushed.iter().zip(pulled.iter()) {
        assert_eq!(a.sn, b.sn, "push/pull SN order diverged");
        assert_eq!(a.payload.as_ref(), b.payload.as_ref(), "payload mismatch at {:?}", a.sn);
    }
}

#[test]
fn push_subscription_delivers_every_record_in_order() {
    let c = FlexLogCluster::start(ClusterSpec::single_shard());
    c.add_color(RED).unwrap();
    let mut writer = c.handle();
    let mut reader = c.handle();

    let sub = reader.subscribe_push(RED).unwrap();
    const N: usize = 60;
    for i in 0..N {
        writer.append(format!("r{i}").as_bytes(), RED).unwrap();
    }
    let pushed = drain(&mut reader, sub, N, Duration::from_secs(10));
    assert_matches_pull(&mut writer, RED, &pushed);

    // The delivery really went over the push path.
    let snap = c.obs().snapshot();
    assert!(
        snap.counter("sub.push_records") >= N as u64,
        "push counters dark: {:?}",
        snap.counter("sub.push_records")
    );
    reader.unsubscribe(sub);
    c.shutdown();
}

#[test]
fn push_subscription_from_midpoint_resumes_exactly() {
    let c = FlexLogCluster::start(ClusterSpec::single_shard());
    c.add_color(RED).unwrap();
    let mut writer = c.handle();
    let mut reader = c.handle();

    let mut mid = SeqNum::ZERO;
    for i in 0..20 {
        let sn = writer.append(format!("a{i}").as_bytes(), RED).unwrap();
        if i == 9 {
            mid = sn;
        }
    }
    let sub = reader.subscribe_push_from(RED, mid).unwrap();
    for i in 20..40 {
        writer.append(format!("a{i}").as_bytes(), RED).unwrap();
    }
    let pushed = drain(&mut reader, sub, 30, Duration::from_secs(10));
    let pulled = writer.subscribe_from(RED, mid).unwrap();
    assert_eq!(pushed.len(), pulled.len(), "strictly-above-mid span");
    for (a, b) in pushed.iter().zip(pulled.iter()) {
        assert_eq!(a.sn, b.sn);
        assert!(a.sn > mid, "record at or below the subscription start");
    }
    c.shutdown();
}

#[test]
fn many_subscribers_converge_to_identical_streams() {
    let c = FlexLogCluster::start(ClusterSpec::single_shard());
    c.add_color(RED).unwrap();
    let mut writer = c.handle();

    const SUBS: usize = 8;
    const N: usize = 40;
    let mut readers: Vec<(FlexLog, Subscription)> = (0..SUBS)
        .map(|_| {
            let mut h = c.handle();
            let sub = h.subscribe_push(RED).unwrap();
            (h, sub)
        })
        .collect();
    for i in 0..N {
        writer.append(format!("x{i}").as_bytes(), RED).unwrap();
    }
    for (h, sub) in &mut readers {
        let pushed = drain(h, *sub, N, Duration::from_secs(10));
        assert_matches_pull(h, RED, &pushed);
    }
    c.shutdown();
}

#[test]
fn read_replica_serves_reads_and_pushes() {
    let spec = ClusterSpec {
        read_replicas_per_shard: 1,
        ..ClusterSpec::single_shard()
    };
    let c = FlexLogCluster::start(spec);
    c.add_color(RED).unwrap();
    let mut writer = c.handle();
    let mut reader = c.handle();

    let sub = reader.subscribe_push(RED).unwrap();
    const N: usize = 30;
    let mut sns = Vec::new();
    for i in 0..N {
        sns.push(writer.append(format!("rr{i}").as_bytes(), RED).unwrap());
    }
    let pushed = drain(&mut reader, sub, N, Duration::from_secs(10));
    assert_matches_pull(&mut writer, RED, &pushed);

    // Point reads are routed to the read replica first (read-through on
    // misses keeps them correct even just after the append ack).
    let mut point = c.handle();
    for (i, &sn) in sns.iter().enumerate() {
        let got = point.read(sn, RED).unwrap().expect("committed record");
        assert_eq!(got.as_ref(), format!("rr{i}").as_bytes());
    }

    // The read replica actually did the serving: its modelled busy counter
    // and the sync pull both ran.
    let snap = c.obs().snapshot();
    let rreplica_busy: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("node.busy_ns.rreplica."))
        .map(|(_, &v)| v)
        .sum();
    assert!(rreplica_busy > 0, "read replica never billed any work");
    c.shutdown();
}

/// Client trims go to the quorum only, so a follower learns a trim head
/// from its fetch replies — on every color it follows, not just the ones
/// whose fetches happen to line up with a node-wide probe counter.
#[test]
fn read_replica_adopts_trim_on_every_followed_color() {
    let spec = ClusterSpec {
        read_replicas_per_shard: 1,
        ..ClusterSpec::single_shard()
    };
    let c = FlexLogCluster::start(spec);
    let colors = [ColorId(1), ColorId(2), ColorId(3)];
    let mut h = c.handle();
    let mut cuts = Vec::new();
    for color in colors {
        c.add_color(color).unwrap();
        let sns: Vec<SeqNum> = (0..30)
            .map(|i| h.append(format!("t{i}").as_bytes(), color).unwrap())
            .collect();
        h.trim(sns[9], color).unwrap();
        cuts.push((color, sns[9]));
    }

    let rr = c.data().read_replicas()[0];
    let storage = c.data().storage_of(rr).unwrap();
    let t0 = std::time::Instant::now();
    while cuts.iter().any(|&(color, cut)| storage.head(color) != Some(cut)) {
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "read replica never adopted a trim head: {:?}",
            cuts.iter().map(|&(color, _)| (color, storage.head(color))).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Reads are routed to the read replica first: a trimmed SN is gone there.
    for (color, cut) in cuts {
        assert_eq!(h.read(cut, color).unwrap(), None, "trimmed SN of {color:?} still readable");
    }
    c.shutdown();
}

#[test]
fn read_replica_survives_crash_and_subscribers_reattach() {
    let spec = ClusterSpec {
        read_replicas_per_shard: 1,
        ..ClusterSpec::single_shard()
    };
    let c = FlexLogCluster::start(spec);
    c.add_color(RED).unwrap();
    let mut writer = c.handle();
    let mut reader = c.handle();

    let sub = reader.subscribe_push(RED).unwrap();
    for i in 0..10 {
        writer.append(format!("pre{i}").as_bytes(), RED).unwrap();
    }
    let before = drain(&mut reader, sub, 10, Duration::from_secs(10));
    assert_eq!(before.len(), 10);

    // Kill the read replica mid-stream. The client's silence detector must
    // re-attach the stream to the quorum and deliver the rest exactly once.
    let rr = c.data().read_replicas()[0];
    c.data().crash_replica(c.network(), rr);
    for i in 0..10 {
        writer.append(format!("post{i}").as_bytes(), RED).unwrap();
    }
    let after = drain(&mut reader, sub, 10, Duration::from_secs(15));
    let mut all = before;
    all.extend(after);
    assert_matches_pull(&mut writer, RED, &all);

    // And a restarted read replica resumes pulling + serving.
    c.data().restart_replica(c.network(), c.directory(), rr);
    for i in 10..15 {
        writer.append(format!("post{i}").as_bytes(), RED).unwrap();
    }
    let more = drain(&mut reader, sub, 5, Duration::from_secs(15));
    all.extend(more);
    assert_matches_pull(&mut writer, RED, &all);
    c.shutdown();
}

#[test]
fn subscribe_from_below_trim_head_returns_exactly_head_to_tail() {
    let c = FlexLogCluster::start(ClusterSpec::single_shard());
    c.add_color(RED).unwrap();
    let mut h = c.handle();

    let mut sns = Vec::new();
    for i in 0..30 {
        sns.push(h.append(format!("t{i}").as_bytes(), RED).unwrap());
    }
    let (head, tail) = h.trim(sns[9], RED).unwrap();
    let head = head.expect("records remain after trim");
    let tail = tail.expect("records remain after trim");
    assert_eq!(head, sns[9], "trim head is the durable trim mark");
    assert_eq!(tail, sns[29]);

    // A pull from far below the trim head silently clamps: exactly the
    // surviving (head, tail] span, no error, no phantom records.
    let got = h.subscribe_from(RED, SeqNum::ZERO).unwrap();
    assert_eq!(got.len(), 20);
    assert_eq!(got.first().unwrap().sn, sns[10], "starts just above the trim mark");
    assert_eq!(got.last().unwrap().sn, tail);
    for w in got.windows(2) {
        assert!(w[0].sn < w[1].sn, "pull span out of order");
    }

    // A push subscription from below the trim head starts at the head too.
    let mut reader = c.handle();
    let sub = reader.subscribe_push(RED).unwrap();
    let pushed = drain(&mut reader, sub, 20, Duration::from_secs(10));
    assert_eq!(pushed.len(), 20);
    assert_eq!(pushed.first().unwrap().sn, sns[10]);
    assert_eq!(pushed.last().unwrap().sn, tail);
    c.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 32,
    })]

    /// The delivery-equivalence property of the push path: for every
    /// subscriber — no matter when it attached or how the seeded link
    /// jitter interleaves deliveries — the concatenation of its pushed
    /// batches after quiescence equals one `subscribe_from(color, ZERO)`
    /// pull: same records, same order, no duplicates, no gaps.
    #[test]
    fn pushed_batches_concatenate_to_the_pull_snapshot(
        seed in 0u64..1024,
        batches in proptest::collection::vec((0usize..2, 1usize..6), 2..8),
        subscribers in 1usize..4,
    ) {
        let colors = [ColorId(1), ColorId(2)];
        let spec = ClusterSpec {
            net: NetConfig {
                seed: Some(seed),
                ..NetConfig::datacenter()
            },
            ..ClusterSpec::single_shard()
        };
        let c = FlexLogCluster::start(spec);
        for color in colors {
            c.add_color(color).unwrap();
        }
        let mut writer = c.handle();

        // Subscribers attach staggered through the run (always from ZERO):
        // early ones ride the live pushes, late ones start with a backlog.
        let mut readers: Vec<(FlexLog, Subscription, ColorId)> = Vec::new();
        let mut attach_at: Vec<usize> =
            (0..subscribers).map(|i| i * batches.len() / subscribers).collect();
        attach_at.sort_unstable();
        let mut counts = [0usize; 2];
        for (bi, &(ci, n)) in batches.iter().enumerate() {
            while attach_at.first() == Some(&bi) {
                attach_at.remove(0);
                let color = colors[readers.len() % 2];
                let mut h = c.handle();
                let sub = h.subscribe_push(color).unwrap();
                readers.push((h, sub, color));
            }
            for i in 0..n {
                writer.append(format!("b{bi}-{i}").as_bytes(), colors[ci]).unwrap();
            }
            counts[ci] += n;
        }
        while !attach_at.is_empty() {
            attach_at.remove(0);
            let color = colors[readers.len() % 2];
            let mut h = c.handle();
            let sub = h.subscribe_push(color).unwrap();
            readers.push((h, sub, color));
        }

        for (h, sub, color) in &mut readers {
            let want = counts[(color.0 - 1) as usize];
            let pushed = drain(h, *sub, want, Duration::from_secs(15));
            let pulled = h.subscribe_from(*color, SeqNum::ZERO).unwrap();
            prop_assert_eq!(
                pushed.len(), pulled.len(),
                "subscriber on {:?}: push delivered {} records, pull sees {}",
                color, pushed.len(), pulled.len()
            );
            for (a, b) in pushed.iter().zip(pulled.iter()) {
                prop_assert_eq!(a.sn, b.sn, "order/dup/gap divergence on {:?}", color);
                prop_assert_eq!(
                    a.payload.as_ref(), b.payload.as_ref(),
                    "payload mismatch at {:?}", a.sn
                );
            }
        }
        c.shutdown();
    }
}

#[test]
fn dropped_color_terminates_subscriptions_with_a_terminal_error() {
    let c = FlexLogCluster::start(ClusterSpec::single_shard());
    c.add_color(RED).unwrap();
    let mut writer = c.handle();
    let mut reader = c.handle();

    let sub = reader.subscribe_push(RED).unwrap();
    for i in 0..5 {
        writer.append(format!("d{i}").as_bytes(), RED).unwrap();
    }
    let pushed = drain(&mut reader, sub, 5, Duration::from_secs(10));
    assert_eq!(pushed.len(), 5);

    // Destroy the color: every replica fences it and redirects its
    // subscribers with the terminal `Dropped` reason.
    let mut plane = ControlPlane::new(&c);
    plane.destroy_color(RED).unwrap();

    let t0 = std::time::Instant::now();
    let err = loop {
        match reader.poll_subscription(sub, Duration::from_millis(50)) {
            Err(e) => break e,
            Ok(_) if t0.elapsed() > Duration::from_secs(10) => {
                panic!("subscription never observed the drop")
            }
            Ok(_) => {}
        }
    };
    assert_eq!(err, ClientError::UnknownColor(RED), "terminal reason");
    // The error is sticky: polling again keeps reporting it rather than
    // pretending the stream recovered.
    assert_eq!(
        reader.poll_subscription(sub, Duration::from_millis(10)),
        Err(ClientError::UnknownColor(RED))
    );
    c.shutdown();
}
