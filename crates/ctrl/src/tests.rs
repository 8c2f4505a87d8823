//! Integration tests: reconfigurations against live clusters.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_core::{ClientError, ClusterSpec, FlexLog, FlexLogCluster};
use flexlog_ordering::{Change, RoleId};
use flexlog_pm::{ClockMode, DeviceClock};
use flexlog_replication::{AppendMsg, ClusterMsg, CtrlCmd, CtrlMsg, DataMsg, RejectReason};
use flexlog_simnet::{Endpoint, NodeId};
use flexlog_storage::TierConfig;
use flexlog_tier::SimObjectStore;
use flexlog_types::{ColorId, Payload, SeqNum, Token};

use crate::{
    ControlConfig, ControlLoop, ControlPlane, CtrlError, CtrlPhase, Decision, Outcome, Policy,
};

fn fast_spec() -> ClusterSpec {
    ClusterSpec {
        client_retry: Duration::from_millis(5),
        ..ClusterSpec::single_shard()
    }
}

/// Sends `cmd` under generation `gen` to every node from a throwaway
/// control endpoint and waits for every ack — test-side freeze/unfreeze
/// injection. `tag` must be unique per call (endpoint ids cannot be
/// re-registered).
fn ctrl_blast(cluster: &FlexLogCluster, tag: u64, nodes: &[NodeId], gen: u64, cmd: CtrlCmd) {
    let ep = cluster
        .network()
        .register(NodeId::named(0, (u64::MAX >> 4) - 16 - tag));
    let req = (0xE5u64 << 56) | tag;
    let _ = ep.broadcast(nodes, CtrlMsg::Cmd { gen, req, cmd }.into());
    let mut pending: HashSet<NodeId> = nodes.iter().copied().collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !pending.is_empty() {
        let left = deadline
            .checked_duration_since(Instant::now())
            .expect("ctrl blast timed out");
        match ep.recv_timeout(left) {
            Ok((from, ClusterMsg::Data(DataMsg::Ctrl(CtrlMsg::Ack { req: r, .. })))) if r == req => {
                pending.remove(&from);
            }
            Ok(_) => {}
            Err(e) => panic!("ctrl blast: {e:?}"),
        }
    }
}

/// A raw `Append` sent once — never retransmitted — from a throwaway
/// endpoint. Bypasses the client library so a test can observe the fencing
/// state of specific replicas directly.
struct Probe {
    ep: Endpoint<ClusterMsg>,
    token: Token,
}

/// Sends a probe append for `color` to `nodes`.
fn probe_append(
    cluster: &FlexLogCluster,
    tag: u64,
    nodes: &[NodeId],
    color: ColorId,
    body: &[u8],
) -> Probe {
    let ep = cluster
        .network()
        .register(NodeId::named(0, (u64::MAX >> 4) - 4096 - tag));
    let token = Token((0xBEu64 << 56) | tag);
    let payloads = vec![Payload::from(body)];
    let append = AppendMsg::Append { color, token, payloads: payloads.into(), reply_to: ep.id() };
    let _ = ep.broadcast(nodes, append.into());
    Probe { ep, token }
}

impl Probe {
    /// The first reply addressed to the probe within `wait`: the committed
    /// SN, or the fencing nack reason; `None` if nobody answered.
    fn answer(&self, wait: Duration) -> Option<Result<SeqNum, RejectReason>> {
        use AppendMsg::{AppendAck, Rejected};
        let deadline = Instant::now() + wait;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            let answer = match self.ep.recv_timeout(left).ok()?.1.into_data() {
                Some(DataMsg::Append(AppendAck { acks })) => {
                    let Some(&(token, last_sn)) = acks.iter().find(|a| a.0 == self.token) else {
                        continue;
                    };
                    (token, Ok(last_sn))
                }
                Some(DataMsg::Append(Rejected { token, reason })) => (token, Err(reason)),
                _ => continue,
            };
            if answer.0 == self.token {
                return Some(answer.1);
            }
        }
    }
}

#[test]
fn runtime_color_create_and_destroy() {
    let cluster = FlexLogCluster::start(fast_spec());
    let mut plane = ControlPlane::new(&cluster);
    let red = ColorId(30);

    plane.create_color(red, ColorId::MASTER).unwrap();
    let mut h = cluster.handle();
    let sn = h.append(b"alive", red).unwrap();
    assert_eq!(h.read(sn, red).unwrap().unwrap(), b"alive");

    plane.destroy_color(red).unwrap();
    // The terminal nack: appends fail fast with UnknownColor, not a
    // deadline timeout.
    let err = h.append(b"dead", red).unwrap_err();
    assert!(
        matches!(err, ClientError::UnknownColor(c) if c == red),
        "append to a destroyed color must be terminal, got {err:?}"
    );
    // Destroying again is an error, not a panic.
    assert!(matches!(
        plane.destroy_color(red),
        Err(CtrlError::Color(_))
    ));

    let snap = cluster.obs().snapshot();
    assert_eq!(snap.counter("ctrl.colors_created"), 1);
    assert_eq!(snap.counter("ctrl.colors_destroyed"), 1);
    cluster.shutdown();
}

/// A destroyed color leaves every view at once — the color list, its
/// shard's residents, the control loop's observations — rather than
/// staying listed with no shards.
#[test]
fn a_destroyed_color_is_gone_from_every_view() {
    let cluster = FlexLogCluster::start(fast_spec());
    let red = ColorId(30);
    let now = Instant::now();
    let mut control = ControlLoop::new(ControlPlane::new(&cluster), ControlConfig::default(), now);
    control.plane().create_color(red, ColorId::MASTER).unwrap();
    cluster.handle().append(b"alive", red).unwrap();
    let topology = &cluster.data().topology;
    let shard = topology.shards_of(red)[0].id;
    assert!(control.observe(now).iter().any(|o| o.color == red));

    control.plane().destroy_color(red).unwrap();
    assert!(!cluster.colors().exists(red));
    assert!(!cluster.colors().colors().contains(&red));
    assert!(!topology.colors().contains(&red), "still listed, with no shards");
    assert!(!topology.colors_on(shard).contains(&red));
    assert!(topology.shards_of(red).is_empty());
    assert!(control.observe(now).iter().all(|o| o.color != red), "still observed");
    cluster.shutdown();
}

#[test]
fn migrate_color_under_concurrent_writes() {
    let cluster = FlexLogCluster::start(fast_spec());
    let mut plane = ControlPlane::new(&cluster);
    let red = ColorId(40);
    plane.create_color(red, ColorId::MASTER).unwrap();

    let mut h = cluster.handle();
    let mut pre: Vec<SeqNum> = Vec::new();
    for i in 0..20u32 {
        pre.push(h.append(format!("pre{i}").as_bytes(), red).unwrap());
    }

    let dest = plane.add_shard(RoleId(0));
    assert_ne!(dest.id, cluster.data().topology.shards_of(red)[0].id);

    let stop = AtomicBool::new(false);
    let during = std::thread::scope(|s| {
        let stop = &stop;
        let cluster = &cluster;
        let writer = s.spawn(move || {
            let mut h = cluster.handle();
            let mut sns = Vec::new();
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                sns.push(h.append(format!("mid{i}").as_bytes(), red).unwrap());
                i += 1;
            }
            sns
        });
        std::thread::sleep(Duration::from_millis(20));
        plane.migrate_color(red, dest.id).unwrap();
        // Keep writing a little after the cutover too.
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap()
    });

    // The color now lives exactly on the destination.
    let shards = cluster.data().topology.shards_of(red);
    assert_eq!(shards.len(), 1);
    assert_eq!(shards[0].id, dest.id);

    // Every SN committed under the old shard is readable from the new
    // one, the per-color order is unbroken, and nothing was duplicated.
    let mut reader = cluster.handle();
    let log = reader.subscribe(red).unwrap();
    let log_sns: Vec<SeqNum> = log.iter().map(|r| r.sn).collect();
    for w in log_sns.windows(2) {
        assert!(w[0] < w[1], "per-color total order broken: {:?}", w);
    }
    let mut acked: Vec<SeqNum> = pre.iter().chain(during.iter()).copied().collect();
    acked.sort();
    acked.dedup();
    assert_eq!(
        log_sns, acked,
        "migrated log must hold exactly the acked appends"
    );
    // Old epoch < new epoch: the bump fences the configurations apart.
    let post = reader.append(b"post", red).unwrap();
    assert!(
        post.epoch() > pre[0].epoch(),
        "epoch must bump across migration ({:?} vs {:?})",
        post.epoch(),
        pre[0].epoch()
    );
    assert_eq!(cluster.obs().snapshot().counter("ctrl.migrations"), 1);
    cluster.shutdown();
}

#[test]
fn migration_is_trim_aware() {
    let cluster = FlexLogCluster::start(fast_spec());
    let mut plane = ControlPlane::new(&cluster);
    let red = ColorId(41);
    plane.create_color(red, ColorId::MASTER).unwrap();

    let mut h = cluster.handle();
    let mut sns = Vec::new();
    for i in 0..10u32 {
        sns.push(h.append(format!("r{i}").as_bytes(), red).unwrap());
    }
    h.trim(sns[4], red).unwrap();

    let dest = plane.add_shard(RoleId(0));
    plane.migrate_color(red, dest.id).unwrap();

    let mut reader = cluster.handle();
    // Only the surviving span traveled.
    let log = reader.subscribe(red).unwrap();
    assert_eq!(
        log.iter().map(|r| r.sn).collect::<Vec<_>>(),
        &sns[5..],
        "exactly the untrimmed suffix must survive the migration"
    );
    // The head traveled too: trimmed SNs stay invisible at the dest.
    assert_eq!(reader.read(sns[0], red).unwrap(), None);
    cluster.shutdown();
}

/// A color resident on **two** source shards, its SNs interleaved between
/// them, migrates onto a third. Each destination replica follows each
/// source shard from a cursor of its own — its tail after copying shard A
/// is no cursor for shard B — so the catch-up rounds move every record
/// cold and the freeze window is left nothing to repair.
#[test]
fn migration_from_two_source_shards_copies_each_from_its_own_cursor() {
    let cluster = FlexLogCluster::start(ClusterSpec { shards_per_leaf: 2, ..fast_spec() });
    let mut plane = ControlPlane::new(&cluster);
    let red = ColorId(44);
    plane.create_color(red, ColorId::MASTER).unwrap();
    let mut h = cluster.handle();
    let sources = cluster.data().topology.shards_of(red);
    assert_eq!(sources.len(), 2);
    let on = |node: NodeId| {
        cluster.data().storage_of(node).unwrap().committed_sns(red, SeqNum::ZERO)
    };
    let mut acked: Vec<SeqNum> =
        (0..40u32).map(|i| h.append(format!("r{i}").as_bytes(), red).unwrap()).collect();
    let (a, b) = (on(sources[0].replicas[0]), on(sources[1].replicas[0]));
    assert!(!a.is_empty() && !b.is_empty(), "appends spread over both shards");
    assert!(a[0] < *b.last().unwrap() && b[0] < *a.last().unwrap(), "SNs interleave");

    let dest = plane.add_shard(RoleId(0));
    plane.migrate_color(red, dest.id).unwrap();
    assert_eq!(cluster.data().topology.shards_of(red), std::slice::from_ref(&dest));
    for &node in dest.replicas.iter() {
        assert_eq!(on(node), acked, "{node}: the log is the acked set in SN order");
    }
    let snap = cluster.obs().snapshot();
    assert_eq!(snap.counter("ctrl.catchup_records"), 40, "counted once, not per replica");
    assert_eq!(snap.counter("ctrl.final_sliver_records"), 0);
    // Per destination replica and source shard: one fetch in the catch-up
    // round, one fetch and the digest in the exact round. A replica that
    // skipped records behind a wrong cursor would have had to ask again.
    assert_eq!(snap.counter("replica.sync_fetches"), 3 * 2 * 3, "nothing to repair");

    acked.push(h.append(b"post", red).unwrap());
    let log: Vec<SeqNum> = h.subscribe(red).unwrap().iter().map(|r| r.sn).collect();
    assert_eq!(log, acked);
    cluster.shutdown();
}

#[test]
fn split_leaf_keeps_per_color_sns_monotonic() {
    let mut spec = ClusterSpec::tree(1, 1);
    spec.client_retry = Duration::from_millis(5);
    let cluster = FlexLogCluster::start(spec);
    let leaf = RoleId(1);
    let a = ColorId(50);
    let b = ColorId(51);
    cluster.colors().add_color_at(a, leaf).unwrap();
    cluster.colors().add_color_at(b, leaf).unwrap();

    let mut h = cluster.handle();
    let mut last_a = SeqNum::ZERO;
    let mut last_b = SeqNum::ZERO;
    for i in 0..15u32 {
        last_a = h.append(format!("a{i}").as_bytes(), a).unwrap();
        last_b = h.append(format!("b{i}").as_bytes(), b).unwrap();
    }

    let mut plane = ControlPlane::new(&cluster);
    let (new_role, moved) = plane.split_leaf(leaf).unwrap();
    assert_eq!(moved, vec![b]);
    assert_ne!(new_role, leaf);
    assert!(cluster.leaf_roles().contains(&new_role));
    // Half the colors (the later half in color order) moved.
    // ... owner and entry role together, in the one table.
    assert_eq!(cluster.catalog().home(a), Some((leaf, None)));
    assert_eq!(cluster.catalog().home(b), Some((new_role, Some(new_role))));

    // Appends to both colors keep working and SNs never go backwards,
    // even for the color whose ordering authority moved mid-stream.
    for i in 0..15u32 {
        let sa = h.append(format!("A{i}").as_bytes(), a).unwrap();
        let sb = h.append(format!("B{i}").as_bytes(), b).unwrap();
        assert!(sa > last_a, "a: {sa:?} must exceed {last_a:?}");
        assert!(sb > last_b, "b: {sb:?} must exceed {last_b:?}");
        last_a = sa;
        last_b = sb;
    }
    // The moved color's new SNs come from a strictly later epoch.
    assert!(last_b.epoch().0 >= 2, "split must bump b's epoch");

    // Full-log check: one unbroken total order per color.
    let log_b = h.subscribe(b).unwrap();
    assert_eq!(log_b.len(), 30);
    for w in log_b.windows(2) {
        assert!(w[0].sn < w[1].sn);
    }
    assert_eq!(cluster.obs().snapshot().counter("ctrl.leaf_splits"), 1);

    // A color created under the moved one is ordered *and entered* where
    // its parent is. (With the entry role in a table of its own it went to
    // the donor, climbed to the root and was dropped as misrouted.)
    let child = ColorId(52);
    plane.create_color(child, b).unwrap();
    assert_eq!(cluster.catalog().home(child), cluster.catalog().home(b));
    h.append(b"c0", child).unwrap();
    cluster.shutdown();
}

/// A controller crash inside a leaf split resolves with the same one-write
/// re-home as the split itself: rolled forward (the new leaf is live) or
/// back (it never spawned, even if a color already pointed at it), every
/// moved color's owner and entry role agree and appends keep committing.
#[test]
fn split_recovery_rehomes_owner_and_entry_together() {
    for (phase, forward) in [(CtrlPhase::Begun, false), (CtrlPhase::Fenced, true)] {
        let mut spec = ClusterSpec::tree(1, 1);
        spec.client_retry = Duration::from_millis(5);
        let cluster = FlexLogCluster::start(spec);
        let (leaf, ghost) = (RoleId(1), RoleId(2));
        let b = ColorId(51);
        cluster.colors().add_color_at(b, leaf).unwrap();
        let mut h = cluster.handle();
        let before = h.append(b"before", b).unwrap();

        let mut plane = ControlPlane::new(&cluster);
        plane.crash_after = Some(phase);
        assert_eq!(plane.split_leaf_moving(leaf, &[b]), Err(CtrlError::Crashed), "{phase:?}");
        if !forward {
            // The worst a dead controller can leave behind a split that
            // never spawned its leaf: a color pointing at the ghost role.
            let ghost_split = Change::Split { donor: leaf, new_role: ghost, moved: vec![b] };
            cluster.catalog().apply(ghost_split).unwrap();
        }
        let (_successor, report) = ControlPlane::recover(&cluster);
        assert_eq!(report.rolled_forward, usize::from(forward), "{phase:?}");
        assert_eq!(report.rolled_back, usize::from(!forward), "{phase:?}");
        let home = if forward { ghost } else { leaf };
        assert_eq!(cluster.catalog().home(b), Some((home, Some(home))), "{phase:?}");
        assert_eq!(cluster.directory().get(ghost).is_some(), forward, "{phase:?}");
        assert!(h.append(b"after", b).unwrap() > before, "{phase:?}");
        cluster.shutdown();
    }
}

/// A policy of scaling rules: a color appending at `rate`/s or faster
/// that shares its shard gets one of its own; otherwise any sequencer
/// batching wait (a p99 of 1 µs or more) splits the color's leaf.
fn scaling(rate: u32, max_actions_per_tick: usize) -> ControlConfig {
    let text = format!("when rate >= {rate} then scale_out\nwhen batch_wait_p99_us >= 1 then split");
    ControlConfig {
        policy: Policy::parse(&text).unwrap(),
        min_observation: Duration::from_millis(50),
        max_actions_per_tick,
    }
}

/// The `Ok` decisions whose outcome `matches`.
fn done(history: &[Decision], matches: impl Fn(&Outcome) -> bool) -> Vec<&Outcome> {
    history.iter().filter_map(|d| d.outcome.as_ref().ok()).filter(|o| matches(o)).collect()
}

/// The acceptance scenario: a live cluster under hot-color load; the
/// control loop observes the heat, adds a shard and migrates the color to
/// it, then splits the overloaded leaf — with zero failed client appends
/// and one unbroken per-color order across both epoch bumps.
#[test]
fn autoscaler_observes_heat_and_scales_out() {
    let mut spec = ClusterSpec::tree(1, 1);
    spec.client_retry = Duration::from_millis(5);
    let cluster = FlexLogCluster::start(spec);
    let leaf = RoleId(1);
    let hot = ColorId(60);
    let cold = ColorId(61);
    cluster.colors().add_color_at(hot, leaf).unwrap();
    cluster.colors().add_color_at(cold, leaf).unwrap();

    let before = cluster.obs().snapshot();
    let plane = ControlPlane::new(&cluster);
    let mut control = ControlLoop::new(plane, scaling(50, 2), Instant::now());
    let is_migration = |o: &Outcome| matches!(o, Outcome::ScaledOut { .. });
    let is_split = |o: &Outcome| matches!(o, Outcome::Split { .. });

    let stop = AtomicBool::new(false);
    let (hot_sns, cold_sns) = std::thread::scope(|s| {
        let stop = &stop;
        let cluster = &cluster;
        let writer = s.spawn(move || {
            let mut h = cluster.handle();
            let mut hot_sns = Vec::new();
            let mut cold_sns = Vec::new();
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                // Every append must succeed — reconfigurations may delay
                // but never fail a client.
                hot_sns.push(h.append(format!("h{i}").as_bytes(), hot).unwrap());
                if i.is_multiple_of(64) {
                    cold_sns.push(h.append(format!("c{i}").as_bytes(), cold).unwrap());
                }
                i += 1;
            }
            (hot_sns, cold_sns)
        });

        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            std::thread::sleep(Duration::from_millis(100));
            control.tick(Instant::now()).unwrap();
            let history = control.history();
            let migrated = history.iter().any(|d| {
                d.observation.color == hot && d.outcome.as_ref().is_ok_and(is_migration)
            });
            let split = !done(history, is_split).is_empty();
            if (migrated && split) || Instant::now() > deadline {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap()
    });

    // The loop actually closed: observe → decide → actuate, twice.
    let history = control.history();
    let added = done(history, is_migration);
    let migrated = history
        .iter()
        .any(|d| d.observation.color == hot && d.outcome.as_ref().is_ok_and(is_migration));
    let split = done(history, is_split);
    assert!(!added.is_empty(), "the loop never added a shard: {history:?}");
    assert!(migrated, "the loop never migrated the hot color: {history:?}");
    let Some(Outcome::Split { from, to, .. }) = split.first() else {
        panic!("the loop never split the leaf: {history:?}");
    };
    assert_eq!(*from, leaf);

    // Both reconfigurations bumped an epoch.
    let snap = cluster.obs().snapshot();
    assert!(
        snap.counter("ctrl.epoch_bumps") >= 2,
        "migration and split must each bump an epoch"
    );
    assert!(cluster.leaf_roles().contains(to));

    // The decision log accounts for every reconfiguration the plane counted.
    let delta = |name: &str| snap.counter(name) - before.counter(name);
    assert_eq!(added.len() as u64, delta("ctrl.shards_added"), "{history:?}");
    assert_eq!(added.len() as u64, delta("ctrl.migrations"), "{history:?}");
    assert_eq!(split.len() as u64, delta("ctrl.leaf_splits"), "{history:?}");

    // The hot color sits alone on its new shard.
    let hot_shards = cluster.data().topology.shards_of(hot);
    assert_eq!(hot_shards.len(), 1);

    // Zero failed appends (the writer unwrapped every one), and the
    // quiescent log is exactly the acked history, in one total order.
    let mut reader = cluster.handle();
    for (color, acked) in [(hot, &hot_sns), (cold, &cold_sns)] {
        let log = reader.subscribe(color).unwrap();
        let log_sns: Vec<SeqNum> = log.iter().map(|r| r.sn).collect();
        for w in log_sns.windows(2) {
            assert!(w[0] < w[1], "{color}: total order broken at {w:?}");
        }
        assert_eq!(&log_sns, acked, "{color}: lost or duplicated records");
    }
    // Per-color order survived across the epoch bumps: ack order matches
    // SN order for the single hot writer.
    for w in hot_sns.windows(2) {
        assert!(w[0] < w[1], "hot acks out of order at {w:?}");
    }
    cluster.shutdown();
}

/// The split goes to the leaf with the highest *summed* rate, not to the
/// leaf of the hottest color. Leaf A holds one hot color and one idle one;
/// leaf B holds three colors, each cooler than A's hot one, whose sum is
/// higher. B is split.
#[test]
fn a_split_takes_the_leaf_with_the_highest_summed_rate() {
    let mut spec = ClusterSpec::tree(2, 1);
    spec.client_retry = Duration::from_millis(5);
    let cluster = FlexLogCluster::start(spec);
    let (a, b) = (RoleId(1), RoleId(2));
    let hot = ColorId(80);
    let idle = ColorId(81);
    let b_colors = [ColorId(82), ColorId(83), ColorId(84)];
    for color in [hot, idle] {
        cluster.colors().add_color_at(color, a).unwrap();
    }
    for color in b_colors {
        cluster.colors().add_color_at(color, b).unwrap();
    }

    let t0 = Instant::now();
    let mut control = ControlLoop::new(ControlPlane::new(&cluster), scaling(u32::MAX, 1), t0);
    // Per round: two appends to `hot`, one to each of B's colors — `hot`
    // runs at twice any B color, B's sum at 3/2 of A's.
    let mut h = cluster.handle();
    for i in 0..100u32 {
        h.append(format!("h{i}").as_bytes(), hot).unwrap();
        h.append(format!("h{i}").as_bytes(), hot).unwrap();
        for color in b_colors {
            h.append(format!("b{i}").as_bytes(), color).unwrap();
        }
    }
    let decisions = control.tick(t0 + Duration::from_millis(100)).unwrap();
    assert!(
        matches!(decisions, [Decision { outcome: Ok(Outcome::Split { from, .. }), .. }] if *from == b),
        "the split must take leaf B: {decisions:?}"
    );
    assert_eq!(cluster.catalog().owned_by(a), vec![hot, idle]);
    cluster.shutdown();
}

/// Satellite regression: an aborted migration must retry the unfreeze
/// until every reachable source replica acks. Here one source replica is
/// frozen out-of-band and then isolated: the migration's own freeze round
/// cannot complete (the victim never acks) and every `Unfreeze` sent
/// while the victim is cut off is lost. The old fire-and-forget abort —
/// which on a failed *freeze* round sent nothing at all — left the color
/// frozen forever; the retried abort thaws the partially-frozen replicas
/// immediately and the victim as soon as the partition heals.
#[test]
fn aborted_migration_retries_unfreeze_until_acked() {
    let mut spec = fast_spec();
    spec.client_deadline = Duration::from_secs(2);
    let cluster = FlexLogCluster::start(spec);
    let mut plane = ControlPlane::new(&cluster);
    plane.timeout = Duration::from_millis(300);
    let red = ColorId(42);
    plane.create_color(red, ColorId::MASTER).unwrap();

    let mut h = cluster.handle();
    for i in 0..8u32 {
        h.append(format!("r{i}").as_bytes(), red).unwrap();
    }
    let dest = plane.add_shard(RoleId(0));
    let src = cluster.data().topology.shards_of(red)[0].clone();
    assert_ne!(src.id, dest.id);
    let victim = src.replicas[1];

    // Freeze the victim out-of-band, then cut it off.
    let gen = cluster.ctrl_generation();
    ctrl_blast(&cluster, 1, &[victim], gen, CtrlCmd::Freeze(red));
    cluster.network().isolate(victim);

    let result = std::thread::scope(|s| {
        let t = s.spawn(|| plane.migrate_color(red, dest.id));
        // Heal only after the freeze round has timed out (300ms) and the
        // first abort attempts have fired into the partition and been
        // lost; later attempts must still be pending then.
        std::thread::sleep(Duration::from_millis(500));
        cluster.network().heal();
        t.join().unwrap()
    });
    assert_eq!(result, Err(CtrlError::Timeout("freeze")));

    // The old routing stays in force and every source replica is thawed:
    // the append completes instead of waiting at a still-frozen victim.
    assert_eq!(cluster.data().topology.shards_of(red)[0].id, src.id);
    let sn = h.append(b"thawed", red).unwrap();
    assert!(h.read(sn, red).unwrap().is_some());
    let snap = cluster.obs().snapshot();
    assert_eq!(snap.counter("ctrl.migration_aborts"), 1);
    // The abort observably retried: at least one unfreeze send went out
    // beyond the first attempt while the victim was cut off.
    assert!(
        snap.counter("ctrl.unfreeze_retries") >= 1,
        "retried abort must surface in ctrl.unfreeze_retries"
    );
    assert_eq!(snap.counter("ctrl.migrations"), 0);
    cluster.shutdown();
}

/// The freeze contract: a frozen color's append waits at the replicas like
/// one held by a stalled sync round. A freeze shorter than the client's
/// deadline completes at the thaw; one that outlives it — a controller
/// that died mid-migration — fails loudly instead of holding the op
/// forever. One body for both shapes of the one append op: awaited at
/// once, and pipelined then flushed.
#[test]
fn frozen_appends_complete_at_the_thaw_and_time_out_past_the_deadline() {
    let mut spec = fast_spec();
    spec.client_deadline = Duration::from_millis(250);
    let cluster = FlexLogCluster::start(spec);
    let red = ColorId(43);
    let mut h = cluster.handle();
    h.add_color(red, ColorId::MASTER).unwrap();
    h.append(b"warm", red).unwrap();
    let replicas = cluster.data().topology.shards_of(red)[0].replicas.clone();
    let gen = cluster.ctrl_generation();

    type HeldAppend = fn(&mut FlexLog, ColorId) -> Result<SeqNum, ClientError>;
    let shapes: [(&str, HeldAppend); 2] = [
        ("serial", |h, color| h.append(b"held", color)),
        ("pipelined", |h, color| {
            h.append_pipelined(&[Payload::from(&b"held"[..])], color)?;
            let done = h.flush_appends()?;
            assert_eq!(done.len(), 1);
            Ok(done[0].1)
        }),
    ];
    for (i, (shape, held_append)) in shapes.into_iter().enumerate() {
        let tag = 2 + 4 * i as u64;
        // A freeze of 0.4x the deadline: the append completes at the thaw.
        ctrl_blast(&cluster, tag, &replicas, gen, CtrlCmd::Freeze(red));
        let held = Instant::now();
        let sn = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(100));
                ctrl_blast(&cluster, tag + 1, &replicas, gen, CtrlCmd::Unfreeze(red));
            });
            held_append(&mut h, red)
        })
        .unwrap_or_else(|e| panic!("{shape} append across a short freeze must succeed, got {e}"));
        assert!(
            held.elapsed() >= Duration::from_millis(100),
            "{shape} append returned before the freeze lifted"
        );
        assert!(h.read(sn, red).unwrap().is_some());

        // A freeze that outlives the deadline: loud, not held forever.
        ctrl_blast(&cluster, tag + 2, &replicas, gen, CtrlCmd::Freeze(red));
        let held = Instant::now();
        let err = held_append(&mut h, red).expect_err("a freeze past the deadline fails the op");
        assert_eq!(err, ClientError::Timeout, "{shape}");
        let late = held.elapsed();
        assert!(late < Duration::from_secs(2), "{shape}: failed {late:?} after the freeze");
        ctrl_blast(&cluster, tag + 3, &replicas, gen, CtrlCmd::Unfreeze(red));
    }
    cluster.shutdown();
}

/// Tentpole: a controller crash after EVERY migration phase leaves a WAL
/// trail the successor resolves deterministically — forward once the
/// destination provably holds the span (`Copied` and later), back before
/// that. In both cases the color ends on exactly one shard, no color
/// stays frozen, and the quiescent log holds exactly the acked appends in
/// one total order.
#[test]
fn controller_crash_at_every_phase_rolls_forward_or_back() {
    for phase in [
        CtrlPhase::Begun,
        CtrlPhase::CatchUp,
        CtrlPhase::Frozen,
        CtrlPhase::Drained,
        CtrlPhase::Fenced,
        CtrlPhase::Copied,
        CtrlPhase::Adopted,
        CtrlPhase::CutOver,
    ] {
        let forward = phase >= CtrlPhase::Copied;
        let cluster = FlexLogCluster::start(fast_spec());
        let mut plane = ControlPlane::new(&cluster);
        let red = ColorId(70);
        plane.create_color(red, ColorId::MASTER).unwrap();
        let mut h = cluster.handle();
        let mut acked = Vec::new();
        for i in 0..12u32 {
            acked.push(h.append(format!("r{i}").as_bytes(), red).unwrap());
        }
        let src = cluster.data().topology.shards_of(red)[0].id;
        let dest = plane.add_shard(RoleId(0));

        plane.crash_after = Some(phase);
        assert_eq!(
            plane.migrate_color(red, dest.id),
            Err(CtrlError::Crashed),
            "{phase:?}: injected crash must fire"
        );
        // A dead controller is inert: re-driving it touches nothing.
        assert_eq!(plane.migrate_color(red, dest.id), Err(CtrlError::Crashed));

        let (_successor, report) = ControlPlane::recover(&cluster);
        assert_eq!(report.in_flight, 1, "{phase:?}");
        assert_eq!(report.rolled_forward, usize::from(forward), "{phase:?}");
        assert_eq!(report.rolled_back, usize::from(!forward), "{phase:?}");

        // The migration either completed or fully reverted — never half.
        let shards = cluster.data().topology.shards_of(red);
        assert_eq!(shards.len(), 1, "{phase:?}: split routing after recovery");
        assert_eq!(
            shards[0].id,
            if forward { dest.id } else { src },
            "{phase:?}: wrong resolution"
        );

        // No color left frozen: a fresh append completes immediately, and
        // the log is exactly the acked history in one unbroken order.
        acked.push(h.append(b"post-recovery", red).unwrap());
        let log: Vec<SeqNum> = h.subscribe(red).unwrap().iter().map(|r| r.sn).collect();
        for w in log.windows(2) {
            assert!(w[0] < w[1], "{phase:?}: per-color order broken at {w:?}");
        }
        assert_eq!(log, acked, "{phase:?}: lost or duplicated records");

        let snap = cluster.obs().snapshot();
        assert_eq!(snap.counter("ctrl.recovery.scans"), 2, "{phase:?}");
        assert_eq!(
            snap.counter("ctrl.migrations"),
            u64::from(forward),
            "{phase:?}"
        );
        assert_eq!(
            snap.counter("ctrl.migration_aborts"),
            u64::from(!forward),
            "{phase:?}"
        );
        cluster.shutdown();
    }
}

/// Tentpole: zombie fencing end to end. Once a successor controller has
/// announced itself, the predecessor's rounds die with `Fenced`, its raw
/// commands — every `CtrlCmd` there is — bounce off the replica with `Nack`, and — the part that
/// matters — they provably have NO effect: an append probed straight at
/// the nacking replica commits instead of being parked or nacked
/// `ColorMoved`.
#[test]
fn zombie_controller_commands_are_nacked_end_to_end() {
    let cluster = FlexLogCluster::start(fast_spec());
    let mut zombie = ControlPlane::new(&cluster);
    let red = ColorId(71);
    zombie.create_color(red, ColorId::MASTER).unwrap();
    let mut h = cluster.handle();
    let mut acked = Vec::new();
    for i in 0..8u32 {
        acked.push(h.append(format!("r{i}").as_bytes(), red).unwrap());
    }
    let dest = zombie.add_shard(RoleId(0));
    let src = cluster.data().topology.shards_of(red)[0].clone();

    let (mut successor, report) = ControlPlane::recover(&cluster);
    assert_eq!(report.in_flight, 0);
    assert!(successor.generation() > zombie.generation());

    // The zombie's own migration dies on its first fenced round and must
    // not leave the color frozen (fenced abort skips the unfreeze: the
    // successor owns the cluster now).
    assert_eq!(
        zombie.migrate_color(red, dest.id),
        Err(CtrlError::Fenced),
        "superseded controller must stop, not reconfigure"
    );

    // Raw stale commands bounce with the successor's generation...
    let ep = cluster
        .network()
        .register(NodeId::named(0, (u64::MAX >> 4) - 8_192));
    let stale = zombie.generation();
    let cmds = [
        CtrlCmd::Hello,
        CtrlCmd::Freeze(red),
        CtrlCmd::Unfreeze(red),
        CtrlCmd::Adopt(red),
        CtrlCmd::Cutover(red),
        CtrlCmd::Drop(red),
        CtrlCmd::Discard(red),
        CtrlCmd::Archive { color: red, keep_tail: 0, max_records: u64::MAX, demote: true },
        // Would start a copy nobody ordered (and owe the zombie an ack).
        CtrlCmd::CatchUp { color: red, shard: dest.id, sources: dest.replicas.to_vec(), last: true },
    ];
    for (req, cmd) in (0xA1u64..).zip(cmds) {
        let _ = ep.send(src.replicas[0], CtrlMsg::Cmd { gen: stale, req, cmd }.into());
        match ep.recv_timeout(Duration::from_secs(5)) {
            Ok((_, ClusterMsg::Data(DataMsg::Ctrl(CtrlMsg::Nack { req: r, gen })))) => {
                assert_eq!(r, req);
                assert_eq!(gen, successor.generation(), "nack must name the floor");
            }
            other => panic!("stale command must be nacked, got {other:?}"),
        }
    }
    // ... and had no effect: the probed append commits at the very
    // replica that nacked, instead of waiting out a freeze or bouncing
    // ColorMoved.
    let probe = probe_append(&cluster, 1, &src.replicas, red, b"still-serving");
    match probe.answer(Duration::from_secs(5)) {
        Some(Ok(sn)) => acked.push(sn),
        other => panic!("zombie command took effect: the append got {other:?}"),
    }

    // The successor still owns the cluster: its migration completes and
    // the full history (including the probe) survives the move.
    successor.migrate_color(red, dest.id).unwrap();
    acked.push(h.append(b"post-takeover", red).unwrap());
    let log: Vec<SeqNum> = h.subscribe(red).unwrap().iter().map(|r| r.sn).collect();
    assert_eq!(log, acked, "takeover must not lose or duplicate records");
    cluster.shutdown();
}

/// Satellite: the freeze mark is volatile replica state, so a source
/// replica that power-fails inside the freeze window boots thawed — and
/// would admit appends into the middle of the migration copy. The §6.3
/// sync handshake re-asserts the mark from the surviving peers: a raw
/// append probed at the restarted replica must wait there, unstaged and
/// unanswered, until the unfreeze releases it.
#[test]
fn frozen_source_replica_restart_reasserts_freeze() {
    let cluster = FlexLogCluster::start(fast_spec());
    let _plane = ControlPlane::new(&cluster); // fencing floor at gen 1
    let red = ColorId(72);
    cluster.add_color(red).unwrap();
    let mut h = cluster.handle();
    for i in 0..6u32 {
        h.append(format!("r{i}").as_bytes(), red).unwrap();
    }
    let src = cluster.data().topology.shards_of(red)[0].clone();
    let gen = cluster.ctrl_generation();
    ctrl_blast(&cluster, 6, &src.replicas, gen, CtrlCmd::Freeze(red));

    // Power-fail one frozen replica and bring it back.
    let victim = src.replicas[1];
    let net = cluster.network();
    cluster.data().crash_replica(net, victim);
    cluster.data().restart_replica(net, cluster.directory(), victim);
    std::thread::sleep(Duration::from_millis(500)); // sync round settles

    // The restarted replica re-learned the freeze from its peers: the
    // probe is parked, neither answered nor staged.
    let probe = probe_append(&cluster, 2, &[victim], red, b"inside-freeze");
    assert_eq!(
        probe.answer(Duration::from_millis(200)),
        None,
        "restart must not forget a freeze its shard is under"
    );
    let staged = cluster.data().storage_of(victim).unwrap().staged_tokens();
    assert!(staged.iter().all(|&(t, ..)| t != probe.token), "a parked append is not staged");

    // Thaw everywhere: the unfreeze releases the parked probe, and the
    // color serves again end to end.
    ctrl_blast(&cluster, 7, &src.replicas, gen, CtrlCmd::Unfreeze(red));
    let released = probe.answer(Duration::from_secs(5));
    assert!(matches!(released, Some(Ok(_))), "the thaw commits the parked append: {released:?}");
    let sn = h.append(b"thawed", red).unwrap();
    assert!(h.read(sn, red).unwrap().is_some());
    cluster.shutdown();
}

/// Satellite: a source replica that is already dead when the migration's
/// freeze round fires can never ack the abort's unfreeze either. The
/// abort must thaw the survivors immediately, exhaust its retries against
/// the corpse (observable in `ctrl.unfreeze_retries`), and the victim —
/// whose freeze mark was volatile — must come back thawed because its
/// peers have nothing frozen to re-assert.
#[test]
fn replica_crashed_mid_abort_does_not_leave_color_frozen() {
    let mut spec = fast_spec();
    spec.client_deadline = Duration::from_secs(2);
    let cluster = FlexLogCluster::start(spec);
    let mut plane = ControlPlane::new(&cluster);
    plane.timeout = Duration::from_millis(200);
    let red = ColorId(73);
    plane.create_color(red, ColorId::MASTER).unwrap();
    let mut h = cluster.handle();
    for i in 0..8u32 {
        h.append(format!("r{i}").as_bytes(), red).unwrap();
    }
    let dest = plane.add_shard(RoleId(0));
    let src = cluster.data().topology.shards_of(red)[0].clone();
    let victim = src.replicas[1];

    // Freeze every source out-of-band (a completed freeze round), then
    // power-fail one frozen replica before the migration's own round.
    let gen = cluster.ctrl_generation();
    ctrl_blast(&cluster, 8, &src.replicas, gen, CtrlCmd::Freeze(red));
    let net = cluster.network();
    cluster.data().crash_replica(net, victim);

    // Freeze round cannot complete; the abort thaws the survivors and
    // burns all retry attempts against the dead node.
    assert_eq!(
        plane.migrate_color(red, dest.id),
        Err(CtrlError::Timeout("freeze"))
    );
    let snap = cluster.obs().snapshot();
    assert_eq!(snap.counter("ctrl.migration_aborts"), 1);
    assert!(
        snap.counter("ctrl.unfreeze_retries") >= 7,
        "all retries must have fired at the dead replica, got {}",
        snap.counter("ctrl.unfreeze_retries")
    );
    assert_eq!(snap.counter("ctrl.migrations"), 0);

    // The victim restarts thawed (volatile mark, thawed peers) and the
    // old routing serves appends again.
    cluster.data().restart_replica(net, cluster.directory(), victim);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(cluster.data().topology.shards_of(red)[0].id, src.id);
    let sn = h.append(b"thawed", red).unwrap();
    assert!(h.read(sn, red).unwrap().is_some());
    cluster.shutdown();
}

/// A controller that restarts mid-deployment inherits metric counters
/// holding the entire append history. The control loop primes its
/// baselines from the registry at construction: the history reads neither
/// as one window's rate (a spurious scale-out) nor as an eternity of
/// idleness (a spurious archive), while genuine post-restart load still
/// trips the rule. On the caller's clock, so no window is slept out.
#[test]
fn a_restarted_control_loop_rebuilds_baselines_without_spurious_decisions() {
    let mut spec = ClusterSpec::tree(1, 1);
    spec.client_retry = Duration::from_millis(5);
    let cluster = FlexLogCluster::start(spec);
    let leaf = RoleId(1);
    let hot = ColorId(74);
    let cold = ColorId(75);
    cluster.colors().add_color_at(hot, leaf).unwrap();
    cluster.colors().add_color_at(cold, leaf).unwrap();
    let mut h = cluster.handle();
    for i in 0..400u32 {
        h.append(format!("h{i}").as_bytes(), hot).unwrap();
    }

    // Controller restart: the successor attaches over the full history.
    let (plane, _) = ControlPlane::recover(&cluster);
    let policy = "when rate >= 50 then scale_out\n\
                  when idle_ms >= 250 && age_ms >= 250 then archive keep=8";
    let config = ControlConfig {
        policy: Policy::parse(policy).unwrap(),
        min_observation: Duration::from_millis(50),
        max_actions_per_tick: 2,
    };
    let t0 = Instant::now();
    let mut control = ControlLoop::new(plane, config, t0);
    // Inside the hysteresis window: no observation, no baseline reset.
    assert!(control.tick(t0 + Duration::from_millis(10)).unwrap().is_empty());
    // One window later with zero new writes: the 400 historical appends
    // must not read as rate (empty baselines would make the first delta
    // the whole history), nor the quiet colors as long idle.
    let t1 = t0 + Duration::from_millis(60);
    let decisions = control.tick(t1).unwrap();
    assert!(decisions.is_empty(), "spurious restart decision: {decisions:?}");
    assert!(control.history().is_empty());
    assert_eq!(cluster.obs().snapshot().counter("ctrl.shards_added"), 0);

    // Genuine post-restart load still trips the rule.
    for i in 0..100u32 {
        h.append(format!("x{i}").as_bytes(), hot).unwrap();
    }
    let decisions = control.tick(t1 + Duration::from_millis(100)).unwrap();
    assert!(
        decisions.iter().any(|d| d.observation.color == hot
            && matches!(d.outcome, Ok(Outcome::ScaledOut { .. }))),
        "restarted control loop went blind: {decisions:?}"
    );
    cluster.shutdown();
}

/// A tick that fails part-way keeps the record of what it did before the
/// failure, and of the failure: two colors on two shards match an archive
/// rule, and one replica of the second color's shard is down.
#[test]
fn a_failed_tick_logs_the_decisions_before_its_error() {
    let mut spec = ClusterSpec::tree(2, 1);
    spec.client_retry = Duration::from_millis(5);
    let mut tier = TierConfig::new(Arc::new(SimObjectStore::new(DeviceClock::new(ClockMode::Off))));
    tier.segment_records = 4;
    spec.storage.tier = Some(tier);
    let cluster = FlexLogCluster::start(spec);
    let (first, second) = (ColorId(90), ColorId(91));
    cluster.colors().add_color_at(first, RoleId(1)).unwrap();
    cluster.colors().add_color_at(second, RoleId(2)).unwrap();
    let mut h = cluster.handle();
    for i in 0..8u32 {
        h.append(format!("f{i}").as_bytes(), first).unwrap();
        h.append(format!("s{i}").as_bytes(), second).unwrap();
    }

    let config = ControlConfig {
        policy: Policy::parse("when span >= 4 then archive keep=2").unwrap(),
        min_observation: Duration::from_millis(10),
        max_actions_per_tick: 2,
    };
    let t0 = Instant::now();
    let mut control = ControlLoop::new(ControlPlane::new(&cluster), config, t0);
    control.plane().timeout = Duration::from_millis(200);
    let victim = cluster.catalog().shards_of(second)[0].replicas[0];
    cluster.data().crash_replica(cluster.network(), victim);

    let err = control.tick(t0 + Duration::from_millis(20)).unwrap_err();
    assert_eq!(err, CtrlError::Timeout("archive"));
    let history = control.history();
    assert_eq!(history.len(), 2, "{history:?}");
    assert_eq!(history[0].observation.color, first);
    assert_eq!(history[0].outcome, Ok(Outcome::Moved { records: 6 }));
    assert_eq!(history[1].observation.color, second);
    assert_eq!(history[1].outcome, Err(err));
    assert_eq!(history[1].rule, "when span >= 4 then archive keep=2 max=18446744073709551615");
    cluster.shutdown();
}
