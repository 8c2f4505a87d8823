//! End-to-end tests of the ordering layer: aggregation, tree routing,
//! multi-color independence, fail-over.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use flexlog_simnet::{Network, NodeId};
use flexlog_types::{ColorId, Epoch, FunctionId, SeqNum, ShardId, Token};

use crate::msg::OrderMsg;
use crate::sequencer::{SequencerNode, RESPONDED_CAP};
use crate::service::request_order;
use crate::{Catalog, Change, Directory, OrderingService, RoleId, TreeSpec, Version};

const RED: ColorId = ColorId(1);
const GREEN: ColorId = ColorId(2);

fn client(net: &Network<OrderMsg>, i: u64) -> flexlog_simnet::Endpoint<OrderMsg> {
    net.register(NodeId::named(NodeId::CLASS_CLIENT, i))
}

fn tok(fid: u32, c: u32) -> Token {
    Token::new(FunctionId(fid), c)
}

const RETRY: Duration = Duration::from_millis(500);

#[test]
fn single_sequencer_assigns_monotonic_sns() {
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::single(&[RED]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);

    let mut last = SeqNum::ZERO;
    for i in 0..50 {
        let sn = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, i), 1, RETRY).unwrap();
        assert!(sn > last, "SNs must strictly increase: {sn:?} after {last:?}");
        last = sn;
    }
    assert_eq!(last.epoch(), Epoch(1));
    h.shutdown(&net);
}

#[test]
fn range_requests_reserve_ranges() {
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::single(&[RED]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);

    let a = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 1), 5, RETRY).unwrap();
    let b = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 2), 3, RETRY).unwrap();
    assert_eq!(b.counter() - a.counter(), 3, "second batch starts after the first");
    assert_eq!(a.counter(), 5, "first batch ends at its size");
    h.shutdown(&net);
}

#[test]
fn colors_have_independent_counters() {
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::single(&[RED, GREEN]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);

    let r1 = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 1), 1, RETRY).unwrap();
    let g1 = request_order(&ep, &h.directory, RoleId(0), GREEN, tok(1, 2), 1, RETRY).unwrap();
    let r2 = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 3), 1, RETRY).unwrap();
    assert_eq!(r1.counter(), 1);
    assert_eq!(g1.counter(), 1, "green has its own counter");
    assert_eq!(r2.counter(), 2);
    h.shutdown(&net);
}

#[test]
fn concurrent_clients_get_disjoint_dense_sns() {
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::single(&[RED]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());

    let mut handles = Vec::new();
    for c in 0..8u64 {
        let ep = client(&net, c);
        let dir = h.directory.clone();
        handles.push(std::thread::spawn(move || {
            let mut sns = Vec::new();
            for i in 0..25 {
                let sn = request_order(&ep, &dir, RoleId(0), RED, tok(c as u32, i), 1, RETRY)
                    .unwrap();
                sns.push(sn);
            }
            sns
        }));
    }
    let mut all: Vec<SeqNum> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort();
    // 200 requests of 1 record each: SNs are exactly 1..=200, no overlap,
    // no gap (single sequencer, no failures).
    assert_eq!(all.len(), 200);
    for (i, sn) in all.iter().enumerate() {
        assert_eq!(sn.counter() as usize, i + 1);
        assert_eq!(sn.epoch(), Epoch(1));
    }
    h.shutdown(&net);
}

#[test]
fn two_level_tree_routes_to_root() {
    // Two leaves forwarding to a root that owns the color: global total
    // order across both entry points.
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::root_and_leaves(&[RED], &[vec![], vec![]]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());

    let mut handles = Vec::new();
    for (c, leaf) in [(0u64, RoleId(1)), (1u64, RoleId(2))] {
        let ep = client(&net, c);
        let dir = h.directory.clone();
        handles.push(std::thread::spawn(move || {
            (0..30)
                .map(|i| {
                    request_order(&ep, &dir, leaf, RED, tok(c as u32, i), 1, RETRY).unwrap()
                })
                .collect::<Vec<_>>()
        }));
    }
    let mut all: Vec<SeqNum> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), 60, "all SNs distinct");
    assert_eq!(all.last().unwrap().counter(), 60, "dense range from the root");
    // Root issued everything; leaves issued nothing themselves.
    assert_eq!(h.stats(RoleId(0)).sns_issued.load(Ordering::Relaxed), 60);
    assert_eq!(h.stats(RoleId(1)).sns_issued.load(Ordering::Relaxed), 0);
    h.shutdown(&net);
}

#[test]
fn leaf_owned_color_is_ordered_locally() {
    // FlexLog-P mode: the leaf owns its color, so the root is never
    // consulted (§9.1's partial-ordering configuration).
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::root_and_leaves(&[ColorId(0)], &[vec![RED]]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);

    for i in 0..20 {
        request_order(&ep, &h.directory, RoleId(1), RED, tok(1, i), 1, RETRY).unwrap();
    }
    assert_eq!(h.stats(RoleId(1)).sns_issued.load(Ordering::Relaxed), 20);
    assert_eq!(h.stats(RoleId(0)).sns_issued.load(Ordering::Relaxed), 0);
    assert_eq!(h.stats(RoleId(0)).oreqs.load(Ordering::Relaxed), 0);
    h.shutdown(&net);
}

#[test]
fn three_level_chain_works() {
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::chain(&[RED], 3);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);
    let leaf = spec.leaf_role();
    assert_eq!(leaf, RoleId(2));

    let mut last = SeqNum::ZERO;
    for i in 0..30 {
        let sn = request_order(&ep, &h.directory, leaf, RED, tok(1, i), 1, RETRY).unwrap();
        assert!(sn > last);
        last = sn;
    }
    assert_eq!(last.counter(), 30);
    // Aggregation means the root saw at most as many batches as requests.
    assert!(h.stats(RoleId(2)).forwarded.load(Ordering::Relaxed) <= 30);
    h.shutdown(&net);
}

#[test]
fn aggregation_merges_same_color_oreqs() {
    // With a large batching interval, concurrent OReqs must merge into few
    // upstream batches (the §5.2 aggregation mechanism).
    let net: Network<OrderMsg> = Network::instant();
    let mut spec = TreeSpec::root_and_leaves(&[RED], &[vec![]]);
    spec.batch_interval = Duration::from_millis(30);
    let h = OrderingService::start(&net, &spec, &HashMap::new());

    let mut handles = Vec::new();
    for c in 0..6u64 {
        let ep = client(&net, c);
        let dir = h.directory.clone();
        handles.push(std::thread::spawn(move || {
            request_order(&ep, &dir, RoleId(1), RED, tok(c as u32, 0), 1, RETRY).unwrap()
        }));
    }
    let mut sns: Vec<SeqNum> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    sns.sort();
    sns.dedup();
    assert_eq!(sns.len(), 6, "every client got a distinct SN");
    let forwarded = h.stats(RoleId(1)).forwarded.load(Ordering::Relaxed);
    assert!(
        forwarded < 6,
        "6 concurrent OReqs should merge into fewer upstream batches, got {forwarded}"
    );
    h.shutdown(&net);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing bounds; ci.sh runs it in release")]
fn lone_oreq_waits_the_window_not_a_timer() {
    // One request at a time through leaf + root with the default 1 µs
    // window: each level holds it ≈ the window (polled: p50 1.3 µs here), not
    // the ~74 µs a 1 µs timed park takes, and the round trip is four thread
    // hand-offs (p50 ~75 µs), not those plus two parks (~217 µs). Timing
    // bounds: meaningful in release only.
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::root_and_leaves(&[RED], &[vec![]]);
    assert_eq!(spec.batch_interval, Duration::from_micros(1));
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);

    let mut rtts: Vec<Duration> = (0..200)
        .map(|i| {
            let t = std::time::Instant::now();
            request_order(&ep, &h.directory, RoleId(1), RED, tok(1, i), 1, RETRY).unwrap();
            t.elapsed()
        })
        .collect();
    rtts.sort_unstable();
    let snapshot = spec.obs.snapshot();
    let batch_wait = snapshot.histogram("seq.batch_wait_ns").expect("registered by both levels");
    assert_eq!(batch_wait.count, 400, "one flush per request per level");
    let wait_p50 = Duration::from_nanos(batch_wait.p50);
    assert!(wait_p50 < Duration::from_micros(20), "seq.batch_wait_ns p50 {wait_p50:?}");
    let rtt_p50 = rtts[rtts.len() / 2];
    assert!(rtt_p50 < Duration::from_micros(120), "request_order p50 {rtt_p50:?}");
    h.shutdown(&net);
}

#[test]
fn duplicate_oreq_is_ignored() {
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::single(&[RED]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);
    let leaf = h.node_for(RoleId(0)).unwrap();

    // Send the same token three times; then a fresh request. The counter
    // must only have advanced by 2 (one per unique token).
    for _ in 0..3 {
        ep.send(
            leaf,
            OrderMsg::OReq {
                color: RED,
                token: tok(1, 1),
                nrecords: 1,
                shard: Arc::from([ep.id()]),
            },
        )
        .unwrap();
    }
    // First response.
    let first = loop {
        if let (_, OrderMsg::OResp { resps }) = ep.recv_timeout(Duration::from_secs(2)).unwrap() {
            if let [(token, last_sn)] = resps[..] {
                if token == tok(1, 1) {
                    break last_sn;
                }
            }
        }
    };
    let second =
        request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 2), 1, RETRY).unwrap();
    assert_eq!(first.counter(), 1);
    assert_eq!(second.counter(), 2, "duplicates must not burn SNs");
    h.shutdown(&net);
}

#[test]
fn failover_elects_backup_and_bumps_epoch() {
    let net: Network<OrderMsg> = Network::instant();
    let mut spec = TreeSpec::single(&[RED]);
    spec.backups_per_position = 2;
    spec.heartbeat_interval = Duration::from_millis(10);
    spec.delta = Duration::from_millis(60);
    spec.election_window = Duration::from_millis(30);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);

    let before =
        request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 1), 1, RETRY).unwrap();
    assert_eq!(before.epoch(), Epoch(1));

    let old_leader = h.node_for(RoleId(0)).unwrap();
    h.crash_leader(&net, RoleId(0));

    // The client keeps retrying; a backup must take over.
    let after =
        request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 2), 1, RETRY).unwrap();
    assert!(after.epoch() > Epoch(1), "epoch must bump on fail-over: {after:?}");
    assert!(after > before, "SNs keep increasing across fail-over");
    let new_leader = h.node_for(RoleId(0)).unwrap();
    assert_ne!(new_leader, old_leader);
    assert_eq!(new_leader.class(), NodeId::CLASS_BACKUP);

    // And the new sequencer keeps serving.
    let again =
        request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 3), 1, RETRY).unwrap();
    assert!(again > after);
    h.shutdown(&net);
}

#[test]
fn epoch_bump_resets_per_color_counters_exactly_once() {
    // After a fail-over the promoted sequencer starts a fresh epoch and
    // fresh per-color counters (SN = epoch << 32 | counter, so uniqueness
    // survives the reset). The reset must happen exactly once: the first
    // post-fail-over SN of each color restarts at 1, and subsequent SNs
    // keep counting within the same epoch rather than resetting again.
    let net: Network<OrderMsg> = Network::instant();
    let mut spec = TreeSpec::single(&[RED, GREEN]);
    spec.backups_per_position = 2;
    spec.heartbeat_interval = Duration::from_millis(10);
    spec.delta = Duration::from_millis(60);
    spec.election_window = Duration::from_millis(30);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);

    // Advance both colors past 1 in the first epoch.
    for i in 0..3 {
        request_order(&ep, &h.directory, RoleId(0), RED, tok(1, i), 1, RETRY).unwrap();
    }
    for i in 10..12 {
        request_order(&ep, &h.directory, RoleId(0), GREEN, tok(1, i), 1, RETRY).unwrap();
    }

    h.crash_leader(&net, RoleId(0));

    let red1 = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 20), 1, RETRY).unwrap();
    assert!(red1.epoch() > Epoch(1), "fail-over must bump the epoch");
    assert_eq!(red1.counter(), 1, "RED counter resets with the new epoch");
    let green1 =
        request_order(&ep, &h.directory, RoleId(0), GREEN, tok(1, 21), 1, RETRY).unwrap();
    assert_eq!(green1.epoch(), red1.epoch(), "one epoch bump serves both colors");
    assert_eq!(green1.counter(), 1, "GREEN counter resets too");

    // Exactly once: the next SNs of the same epoch continue, not reset.
    let red2 = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 22), 1, RETRY).unwrap();
    assert_eq!(red2.epoch(), red1.epoch());
    assert_eq!(red2.counter(), 2, "no second reset within the epoch");
    let green2 =
        request_order(&ep, &h.directory, RoleId(0), GREEN, tok(1, 23), 1, RETRY).unwrap();
    assert_eq!(green2.counter(), 2);

    // And the new-epoch SNs still sort after every old-epoch SN.
    assert!(red1 > SeqNum::new(Epoch(1), u32::MAX - 1) || red1.epoch() > Epoch(1));
    h.shutdown(&net);
}

#[test]
fn double_failover_keeps_increasing_epochs() {
    let net: Network<OrderMsg> = Network::instant();
    let mut spec = TreeSpec::single(&[RED]);
    spec.backups_per_position = 2;
    spec.heartbeat_interval = Duration::from_millis(10);
    spec.delta = Duration::from_millis(60);
    spec.election_window = Duration::from_millis(30);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);

    let e1 = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 1), 1, RETRY)
        .unwrap()
        .epoch();
    h.crash_leader(&net, RoleId(0));
    let sn2 = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 2), 1, RETRY).unwrap();
    h.crash_leader(&net, RoleId(0));
    let sn3 = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 3), 1, RETRY).unwrap();
    assert!(sn2.epoch() > e1);
    assert!(sn3.epoch() > sn2.epoch());
    assert!(sn3 > sn2);
    h.shutdown(&net);
}

#[test]
fn partitioned_leader_self_demotes() {
    let net: Network<OrderMsg> = Network::instant();
    let mut spec = TreeSpec::single(&[RED]);
    spec.backups_per_position = 2;
    spec.heartbeat_interval = Duration::from_millis(10);
    spec.delta = Duration::from_millis(50);
    spec.election_window = Duration::from_millis(25);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);

    let old_leader = h.node_for(RoleId(0)).unwrap();
    // Cut the leader off from its backups (but not from clients).
    let backups = h.backup_nodes(RoleId(0)).to_vec();
    let group_b: Vec<NodeId> = backups.clone();
    net.partition(&[&[old_leader], &group_b]);

    // Backups elect a replacement; old leader (losing heartbeat majority)
    // shuts down. Wait for the takeover.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let current = h.node_for(RoleId(0));
        if current.is_some() && current != Some(old_leader) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no backup took over; directory still {current:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    net.heal();
    let sn = request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 9), 1, RETRY).unwrap();
    assert!(sn.epoch() > Epoch(1));
    h.shutdown(&net);
}

#[test]
fn stats_track_oreqs_and_batches() {
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::single(&[RED]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);
    for i in 0..10 {
        request_order(&ep, &h.directory, RoleId(0), RED, tok(1, i), 2, RETRY).unwrap();
    }
    let stats = h.stats(RoleId(0));
    assert_eq!(stats.oreqs.load(Ordering::Relaxed), 10);
    assert_eq!(stats.sns_issued.load(Ordering::Relaxed), 20);
    assert!(stats.batches.load(Ordering::Relaxed) >= 1);
    h.shutdown(&net);
}

#[test]
fn dynamically_registered_color_is_ordered_by_its_owner() {
    // AddColor's ordering-layer half: a color placed in the shared catalog
    // after start-up is immediately orderable, by exactly the sequencer the
    // catalog names.
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::root_and_leaves(&[RED], &[vec![]]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);

    let dynamic = ColorId(42);
    // Not registered yet: an OReq for it entering the leaf climbs to the
    // root, which does not own it either → dropped; the client would spin.
    // Leaf-owned (FlexLog-P style).
    spec.catalog.apply(Change::PlaceColor { color: dynamic, role: RoleId(1) }).unwrap();
    let sn = request_order(&ep, &h.directory, RoleId(1), dynamic, tok(1, 1), 1, RETRY).unwrap();
    assert_eq!(sn.counter(), 1);
    // The leaf (not the root) issued it.
    assert_eq!(
        h.stats(RoleId(1)).sns_issued.load(Ordering::Relaxed),
        1
    );
    assert_eq!(h.stats(RoleId(0)).sns_issued.load(Ordering::Relaxed), 0);

    // Re-homing to the root moves the serialization point but counters are
    // per-(sequencer,color): the root starts its own counter for the color
    // in the same epoch — still unique because tokens dedup and the paper
    // only re-homes colors under a new epoch in practice.
    spec.catalog.apply(Change::PlaceColor { color: ColorId(43), role: RoleId(0) }).unwrap();
    let sn2 = request_order(&ep, &h.directory, RoleId(1), ColorId(43), tok(1, 2), 1, RETRY)
        .unwrap();
    assert_eq!(sn2.counter(), 1);
    assert_eq!(h.stats(RoleId(0)).sns_issued.load(Ordering::Relaxed), 1);
    h.shutdown(&net);
}

#[test]
fn oreq_resend_after_answer_replays_same_sn() {
    // A replica that missed the OResp broadcast re-sends its OReq; the
    // sequencer must replay the *same* SN rather than assigning a new one.
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::single(&[RED]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);
    let leaf = h.node_for(RoleId(0)).unwrap();

    let first =
        request_order(&ep, &h.directory, RoleId(0), RED, tok(1, 1), 2, RETRY).unwrap();
    // Re-send the identical OReq (as a recovered replica would).
    ep.send(
        leaf,
        OrderMsg::OReq {
            color: RED,
            token: tok(1, 1),
            nrecords: 2,
            shard: Arc::from([ep.id()]),
        },
    )
    .unwrap();
    let replay = loop {
        if let (_, OrderMsg::OResp { resps }) = ep.recv_timeout(Duration::from_secs(2)).unwrap() {
            if let [(token, last_sn)] = resps[..] {
                if token == tok(1, 1) {
                    break last_sn;
                }
            }
        }
    };
    assert_eq!(replay, first, "replayed OResp must carry the original SN");
    h.shutdown(&net);
}

#[test]
fn catalog_names_static_owners_after_start() {
    // The positions' `owned` lists are only the seed: once the layer runs,
    // the shared catalog is the one table that says who orders what.
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::root_and_leaves(&[RED], &[vec![GREEN]]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    assert_eq!(spec.catalog.owner(RED), Some(RoleId(0)));
    assert_eq!(spec.catalog.owned_by(RoleId(1)), vec![GREEN]);
    assert_eq!(spec.catalog.entry(GREEN), None, "entered at its shards' own leaf");
    h.shutdown(&net);
}

/// One change is one write: a reader that finds the version unchanged
/// around its reads has seen one state of the catalog, and every state
/// the writer leaves has each moved color wholly on one side of the split
/// (owner and entry together) and every color on some shard.
#[test]
fn a_split_or_a_cutover_is_one_catalog_write() {
    let (a, b) = (ColorId(10), ColorId(11));
    let catalog = Catalog::uniform(2, 1, 0, &[RoleId(1)]);
    for color in [a, b] {
        catalog.apply(Change::PlaceColor { color, role: RoleId(1) }).unwrap();
    }
    let moved = vec![a, b];
    let split = |donor, new_role| Change::Split { donor, new_role, moved: moved.clone() };
    catalog.apply(split(RoleId(1), RoleId(2))).unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut consistent = 0u64;
            while !done.load(Ordering::Acquire) {
                let before = catalog.version();
                let (owner_a, entry_a) = catalog.home(a).expect("never dropped");
                let (owner_b, entry_b) = catalog.home(b).expect("never dropped");
                let shards = catalog.shards_of(a);
                if catalog.version() != before {
                    continue;
                }
                assert_eq!(owner_a, owner_b, "one color moved without the other");
                assert_eq!((entry_a, entry_b), (Some(owner_a), Some(owner_b)));
                assert!(!shards.is_empty(), "an owned color on no shard");
                consistent += 1;
            }
            consistent
        });
        // Checked once the reader has stopped, so a failure cannot leave it
        // spinning.
        let mut steps = Vec::new();
        let mut owner = RoleId(2);
        for i in 0..10_000u32 {
            let change = if i % 3 == 2 {
                Change::MoveColor { color: a, dest: ShardId(i % 2) }
            } else {
                let donor = owner;
                owner = RoleId(3 - donor.0);
                split(donor, owner)
            };
            let before = catalog.version();
            steps.push((before, catalog.apply(change)));
        }
        done.store(true, Ordering::Release);
        let consistent = reader.join().expect("the reader saw a state no change leaves");
        assert!(consistent > 0, "the reader saw no stable state");
        for (before, applied) in steps {
            assert_eq!(applied, Ok(Version(before.0 + 1)), "one version per change");
        }
    });
}

#[test]
fn a_color_the_catalog_dropped_is_no_longer_ordered() {
    // Nothing but the catalog makes a sequencer the root of a color: once
    // a statically listed color is unregistered, its OReqs are dropped as
    // misrouted instead of being assigned from a stale static list.
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::single(&[RED, GREEN]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = client(&net, 1);
    spec.catalog.apply(Change::DropColor { color: RED }).unwrap();
    ep.send(
        h.node_for(RoleId(0)).unwrap(),
        OrderMsg::OReq { color: RED, token: tok(1, 1), nrecords: 1, shard: Arc::from([ep.id()]) },
    )
    .unwrap();
    // GREEN goes through the same inbox afterwards: once it is answered,
    // RED's request has been through a flush.
    request_order(&ep, &h.directory, RoleId(0), GREEN, tok(1, 2), 1, RETRY).unwrap();
    assert_eq!(h.stats(RoleId(0)).sns_issued.load(Ordering::Relaxed), 1, "GREEN's only");
    assert_eq!(spec.obs.snapshot().counter("seq.misrouted_dropped"), 1);
    h.shutdown(&net);
}

#[test]
fn a_sequencer_remembers_a_bounded_number_of_tokens() {
    // Every OReq used to leave its token in a set that was never pruned.
    // Now the one replay cache holds them: the newest RESPONDED_CAP, and a
    // recent token still replays its SN.
    const EXTRA: usize = 1_000;
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::single(&[RED]);
    spec.catalog.apply(Change::PlaceColor { color: RED, role: RoleId(0) }).unwrap();
    let mut node =
        SequencerNode::new(&spec.positions[0], Vec::new(), &spec, Directory::new(), Epoch(1));
    let seq = net.register(NodeId::named(NodeId::CLASS_SEQUENCER, 0));
    let seq_id = seq.id();
    let ep = client(&net, 1);
    let oreq = |c: u32| OrderMsg::OReq {
        color: RED,
        token: tok(1, c),
        nrecords: 1,
        shard: Arc::from([ep.id()]),
    };
    let total = (RESPONDED_CAP + EXTRA) as u32;
    let mut answered: HashMap<Token, SeqNum> = HashMap::new();
    std::thread::scope(|s| {
        s.spawn(|| node.run(seq));
        // In slices, so that the inbox never holds the whole run.
        for start in (0..total).step_by(4096) {
            let end = (start + 4096).min(total);
            for c in start..end {
                ep.send(seq_id, oreq(c)).unwrap();
            }
            while answered.len() < end as usize {
                if let (_, OrderMsg::OResp { resps }) =
                    ep.recv_timeout(Duration::from_secs(10)).unwrap()
                {
                    answered.extend(resps.iter().copied());
                }
            }
        }
        // A recent token replays the SN it was given; the oldest has left
        // the window and is a fresh request (the replicas dedup it).
        for (c, replays) in [(total - 1, true), (0, false)] {
            ep.send(seq_id, oreq(c)).unwrap();
            let (_, OrderMsg::OResp { resps }) = ep.recv_timeout(Duration::from_secs(10)).unwrap()
            else {
                panic!("only OResps reach this endpoint")
            };
            assert_eq!(resps.len(), 1);
            assert_eq!(resps[0].0, tok(1, c));
            assert_eq!(resps[0].1 == answered[&tok(1, c)], replays, "token {c}");
        }
        ep.send(seq_id, OrderMsg::Shutdown).unwrap();
    });
    assert_eq!(answered.len(), total as usize);
    assert!(
        node.remembered_tokens() <= RESPONDED_CAP,
        "remembers {} tokens after {total} OReqs",
        node.remembered_tokens()
    );
}
