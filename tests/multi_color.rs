//! Integration tests of the multi-color append protocol (§6.4) and its
//! atomicity proof obligations (§7): all-or-nothing across colors, under
//! client crashes and replica power failures.

use std::time::Duration;

use flexlog::core::{ClusterSpec, ColorId, FlexLogCluster};
use flexlog::replication::{AppendMsg, ClientConfig, FlexLogClient};
use flexlog::simnet::NodeId;
use flexlog::types::{FunctionId, ShardId};

const RED: ColorId = ColorId(1);
const GREEN: ColorId = ColorId(2);

fn cluster() -> FlexLogCluster {
    let c = FlexLogCluster::start(ClusterSpec::single_shard());
    c.add_color(RED).unwrap();
    c.add_color(GREEN).unwrap();
    c
}

#[test]
fn multi_append_is_atomic_and_ordered_within_colors() {
    let c = cluster();
    let mut h = c.handle();
    for i in 0..5u32 {
        h.multi_append(&[
            (RED, vec![format!("r{i}").into_bytes()]),
            (GREEN, vec![format!("g{i}").into_bytes(), format!("g{i}b").into_bytes()]),
        ])
        .unwrap();
    }
    let red = h.subscribe(RED).unwrap();
    let green = h.subscribe(GREEN).unwrap();
    assert_eq!(red.len(), 5);
    assert_eq!(green.len(), 10);
    for w in red.windows(2) {
        assert!(w[0].sn < w[1].sn);
    }
    c.shutdown();
}

#[test]
fn client_crash_before_end_leaves_no_trace() {
    // §7: "Since the replicas never receive the special end message, none
    // of the records are appended to any color."
    let c = cluster();
    {
        let ep = c
            .network()
            .register(NodeId::named(NodeId::CLASS_CLIENT, 777));
        let mut dying = FlexLogClient::new(
            ep,
            c.data().topology.clone(),
            ClientConfig {
                fid: FunctionId(777),
                ..Default::default()
            },
        );
        // Phase 1 only: stage into the special color, then "crash".
        dying
            .append(ColorId::MASTER, &[b"staged-but-never-ended".to_vec().into()])
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut h = c.handle();
    assert_eq!(h.subscribe(RED).unwrap().len(), 0);
    assert_eq!(h.subscribe(GREEN).unwrap().len(), 0);
    c.shutdown();
}

#[test]
fn multi_append_survives_replica_power_cycle() {
    let c = cluster();
    let mut h = c.handle();
    h.multi_append(&[
        (RED, vec![b"red-1".to_vec()]),
        (GREEN, vec![b"green-1".to_vec()]),
    ])
    .unwrap();

    // Power-cycle a replica; both colors' records must survive and a new
    // multi-append must still work.
    let victim = c.data().shard_replicas(ShardId(0))[0];
    c.data().crash_replica(c.network(), victim);
    c.data().restart_replica(c.network(), c.directory(), victim);

    h.multi_append(&[
        (RED, vec![b"red-2".to_vec()]),
        (GREEN, vec![b"green-2".to_vec()]),
    ])
    .unwrap();

    let red = h.subscribe(RED).unwrap();
    let green = h.subscribe(GREEN).unwrap();
    assert_eq!(red.len(), 2);
    assert_eq!(green.len(), 2);
    c.shutdown();
}

#[test]
fn duplicate_end_markers_do_not_double_commit() {
    // The replicas replay staged sets idempotently (token dedup), so a
    // retransmitted `end` must not duplicate records.
    let c = cluster();
    let mut h = c.handle();
    h.multi_append(&[(RED, vec![b"only-once".to_vec()])]).unwrap();

    // Hand-send extra MultiEnd markers for the same fid.
    let broker = c.data().shard_replicas(ShardId(0));
    let ep = c
        .network()
        .register(NodeId::named(NodeId::CLASS_CLIENT, 888));
    for req in 1..=3u64 {
        for &r in &broker {
            ep.send(
                r,
                AppendMsg::MultiEnd {
                    fid: h.fid(),
                    req: (888 << 32) | req,
                    reply_to: ep.id(),
                }
                .into(),
            )
            .unwrap();
        }
    }
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        h.subscribe(RED).unwrap().len(),
        1,
        "replayed end markers must not duplicate the set"
    );
    c.shutdown();
}

#[test]
fn interleaved_multi_appends_from_two_functions() {
    let c = cluster();
    let mut f1 = c.handle();
    let mut f2 = c.handle();
    let t1 = std::thread::spawn(move || {
        for i in 0..4u32 {
            f1.multi_append(&[
                (RED, vec![format!("f1-r{i}").into_bytes()]),
                (GREEN, vec![format!("f1-g{i}").into_bytes()]),
            ])
            .unwrap();
        }
    });
    let t2 = std::thread::spawn(move || {
        for i in 0..4u32 {
            f2.multi_append(&[
                (RED, vec![format!("f2-r{i}").into_bytes()]),
                (GREEN, vec![format!("f2-g{i}").into_bytes()]),
            ])
            .unwrap();
        }
    });
    t1.join().unwrap();
    t2.join().unwrap();

    let mut h = c.handle();
    let red = h.subscribe(RED).unwrap();
    let green = h.subscribe(GREEN).unwrap();
    assert_eq!(red.len(), 8, "every set committed exactly once");
    assert_eq!(green.len(), 8);
    c.shutdown();
}

#[test]
fn multi_append_trace_shows_one_sn_per_color() {
    // Each staged set of an atomic multi-append is replayed as exactly one
    // sub-append into its target color: the flight recorder must show one
    // `SeqAssign` color per set, covering both target colors and nothing
    // else (one SN per color, Algorithm 2).
    use flexlog::core::{Stage, Token};
    use std::collections::BTreeSet;

    let c = cluster();
    let mut h = c.handle();
    h.multi_append(&[
        (RED, vec![b"r".to_vec()]),
        (GREEN, vec![b"g".to_vec()]),
    ])
    .unwrap();

    // Phase 1 staged the two sets under the client's tokens 1 and 2; the
    // replica-driven sub-appends derive their tokens by flipping the top
    // bit (deterministic across replicas, disjoint from client tokens).
    let mut seen_colors: BTreeSet<u64> = BTreeSet::new();
    for i in 1..=2u32 {
        let sub = Token(Token::new(h.fid(), i).0 ^ (1 << 63));
        let assigns: Vec<_> = c
            .obs()
            .tracer()
            .events_for(sub)
            .into_iter()
            .filter(|e| e.stage == Stage::SeqAssign)
            .collect();
        assert!(!assigns.is_empty(), "sub-append of set {i} was never ordered");
        let colors: BTreeSet<u64> = assigns.iter().map(|e| e.detail).collect();
        assert_eq!(
            colors.len(),
            1,
            "set {i} must get exactly one SN color, got {colors:?}"
        );
        seen_colors.extend(colors);
    }
    let expected: BTreeSet<u64> = [RED.0 as u64, GREEN.0 as u64].into_iter().collect();
    assert_eq!(seen_colors, expected, "one SN per target color");
    c.shutdown();
}
