//! The flight-recorder test harness: every committed append leaves a
//! complete client → sequencer → replica → storage span chain in the
//! cluster tracer, stage latencies respect the simnet link model, and the
//! *logical* trace (the canonical `(stage, node, detail)` chain) is
//! byte-identical across same-seed runs.

use std::time::Duration;

use flexlog::core::{ClusterSpec, ColorId, FlexLogCluster, Stage, Token};
use flexlog::simnet::{LinkConfig, NetConfig};

const RED: ColorId = ColorId(1);

/// Serial-append tokens are `Token::new(fid, 1..=n)` by construction; the
/// first handle of a cluster gets fid 1.
fn serial_tokens(fid: u32, n: u32) -> Vec<Token> {
    (1..=n)
        .map(|i| Token::new(flexlog::types::FunctionId(fid), i))
        .collect()
}

#[test]
fn committed_tokens_have_complete_span_chains() {
    let c = FlexLogCluster::start(ClusterSpec::single_shard());
    c.add_color(RED).unwrap();
    let mut h = c.handle();
    const N: u32 = 25;
    for i in 0..N {
        h.append(format!("r{i}").as_bytes(), RED).unwrap();
    }
    let fid = h.fid().0;
    for token in serial_tokens(fid, N) {
        let trace = c.trace(token);
        assert!(
            trace.is_complete_append(),
            "token {token:?} missing a stage:\n{}",
            trace.render()
        );
        // The chain's first timestamps follow the data-path order. Every
        // stage is stamped from one shared monotonic epoch, and each hop
        // is causally ordered, so first-occurrence times never invert.
        // StorageCommit is stamped inside the replica's commit call, so in
        // wall time it precedes the replica's own commit record.
        let anchors = [
            Stage::ClientSend,
            Stage::ReplicaStaged,
            Stage::SeqAssign,
            Stage::StorageCommit,
            Stage::ReplicaCommit,
            Stage::ClientAck,
        ];
        for pair in anchors.windows(2) {
            let a = trace.first_ns(pair[0]).unwrap();
            let b = trace.first_ns(pair[1]).unwrap();
            assert!(
                a <= b,
                "token {token:?}: {} at {a}ns after {} at {b}ns\n{}",
                pair[0].name(),
                pair[1].name(),
                trace.render()
            );
        }
        // Replication factor 3: all three replicas staged and committed.
        let staged: std::collections::HashSet<u64> = c
            .obs()
            .tracer()
            .events_for(token)
            .into_iter()
            .filter(|e| e.stage == Stage::ReplicaStaged)
            .map(|e| e.node)
            .collect();
        assert_eq!(staged.len(), 3, "token {token:?} staged on {staged:?}");
    }
    c.shutdown();
}

#[test]
fn stage_latencies_respect_the_link_delay() {
    // A fixed-delay, zero-jitter link: every hop of Algorithm 1 costs at
    // least `DELAY`, so the per-stage decomposition has hard lower bounds.
    const DELAY: Duration = Duration::from_micros(200);
    let spec = ClusterSpec {
        net: NetConfig {
            link: LinkConfig::slow(DELAY),
            seed: Some(7),
        },
        // Keep retransmits out of the run: the round trip is < 1 ms.
        client_retry: Duration::from_millis(500),
        ..ClusterSpec::single_shard()
    };
    let c = FlexLogCluster::start(spec);
    c.add_color(RED).unwrap();
    let mut h = c.handle();
    const N: u32 = 8;
    for i in 0..N {
        h.append(format!("r{i}").as_bytes(), RED).unwrap();
    }
    let delay_ns = DELAY.as_nanos() as u64;
    let fid = h.fid().0;
    for token in serial_tokens(fid, N) {
        let trace = c.trace(token);
        assert!(trace.is_complete_append(), "{}", trace.render());
        // Each network hop of the append path: client → replica (stage),
        // replica → sequencer → replica (order), replica → client (ack).
        let hops = [
            (Stage::ClientSend, Stage::ReplicaStaged),
            (Stage::ReplicaStaged, Stage::ReplicaCommit), // OReq + OResp
            (Stage::ReplicaCommit, Stage::ClientAck),
        ];
        let mins = [delay_ns, 2 * delay_ns, delay_ns];
        for ((from, to), min_ns) in hops.iter().zip(mins) {
            let got = trace
                .first_ns(*to)
                .unwrap()
                .saturating_sub(trace.first_ns(*from).unwrap());
            assert!(
                got >= min_ns,
                "token {token:?}: {}→{} took {got}ns < scheduled {min_ns}ns\n{}",
                from.name(),
                to.name(),
                trace.render()
            );
        }
        // End to end: at least the 4 one-way hops, and the hop spans must
        // telescope to (i.e. sum within) the full client-observed span.
        let total = trace.span_ns(Stage::ClientSend, Stage::ClientAck).unwrap();
        assert!(total >= 4 * delay_ns, "end-to-end {total}ns < 4 hops");
        let summed: u64 = hops
            .iter()
            .map(|(from, to)| {
                trace
                    .first_ns(*to)
                    .unwrap()
                    .saturating_sub(trace.first_ns(*from).unwrap())
            })
            .sum();
        assert!(
            summed <= total,
            "stage decomposition {summed}ns exceeds the full span {total}ns"
        );
        // And the latency histogram saw this append.
        assert!(total < Duration::from_secs(5).as_nanos() as u64);
    }
    let snap = c.obs().snapshot();
    let hist = snap.histogram("client.append_ns").expect("client histogram");
    assert_eq!(hist.count, N as u64);
    assert!(hist.p50 >= 4 * delay_ns, "p50 {}ns below link floor", hist.p50);
    c.shutdown();
}

/// One fixed-seed run: a tree topology, serial and pipelined appends, and
/// the concatenated canonical traces of every token in token order.
fn canonical_run(seed: u64) -> Vec<u8> {
    let spec = ClusterSpec {
        net: NetConfig {
            link: LinkConfig::instant(),
            seed: Some(seed),
        },
        ..ClusterSpec::tree(2, 2)
    };
    let c = FlexLogCluster::start(spec);
    c.add_color(RED).unwrap();
    c.add_color(ColorId(2)).unwrap();
    let mut h = c.handle();
    for i in 0..10u32 {
        h.append(format!("s{i}").as_bytes(), RED).unwrap();
    }
    let mut tokens = serial_tokens(h.fid().0, 10);
    for i in 0..10u32 {
        let t = h
            .append_pipelined(
                &[flexlog::types::Payload::from(format!("p{i}").into_bytes())],
                ColorId(2),
            )
            .unwrap();
        tokens.push(t);
    }
    h.flush_appends().unwrap();
    tokens.sort_unstable();
    let mut out = Vec::new();
    for token in tokens {
        out.extend_from_slice(&c.trace(token).canonical());
    }
    c.shutdown();
    out
}

/// Like [`canonical_run`], but over delayed, jittered links, so every
/// message goes through the delay scheduler — physical scheduling (jitter
/// draws, batch boundaries, which node thread ran first) must not leak into
/// the logical trace.
fn canonical_run_delayed(seed: u64) -> Vec<u8> {
    let spec = ClusterSpec {
        net: NetConfig {
            link: LinkConfig {
                delay: Duration::from_micros(100),
                jitter: Duration::from_micros(40),
                serialize: Duration::from_micros(2),
            },
            seed: Some(seed),
        },
        // Keep retransmits out of the run: hops are sub-millisecond.
        client_retry: Duration::from_millis(500),
        ..ClusterSpec::tree(2, 2)
    };
    let c = FlexLogCluster::start(spec);
    c.add_color(RED).unwrap();
    c.add_color(ColorId(2)).unwrap();
    let mut h = c.handle();
    for i in 0..8u32 {
        h.append(format!("s{i}").as_bytes(), RED).unwrap();
    }
    let mut tokens = serial_tokens(h.fid().0, 8);
    for i in 0..8u32 {
        let t = h
            .append_pipelined(
                &[flexlog::types::Payload::from(format!("p{i}").into_bytes())],
                ColorId(2),
            )
            .unwrap();
        tokens.push(t);
    }
    h.flush_appends().unwrap();
    tokens.sort_unstable();
    let mut out = Vec::new();
    for token in tokens {
        out.extend_from_slice(&c.trace(token).canonical());
    }
    c.shutdown();
    out
}

#[test]
fn pushed_records_carry_subpush_trace_stages() {
    // A standing push subscription extends every committed append's span
    // chain with a `SubPush` stage on the serving replica — the per-stage
    // decomposition of the push path (satellite of the read-path PR).
    let c = FlexLogCluster::start(ClusterSpec::single_shard());
    c.add_color(RED).unwrap();
    let mut h = c.handle();
    let mut reader = c.handle();
    let sub = reader.subscribe_push(RED).unwrap();
    const N: u32 = 25;
    for i in 0..N {
        h.append(format!("r{i}").as_bytes(), RED).unwrap();
    }
    let t0 = std::time::Instant::now();
    let mut got = 0usize;
    while got < N as usize && t0.elapsed() < Duration::from_secs(10) {
        got += reader
            .poll_subscription(sub, Duration::from_millis(50))
            .unwrap()
            .len();
    }
    assert_eq!(got, N as usize, "push must deliver the full log");
    let fid = h.fid().0;
    for token in serial_tokens(fid, N) {
        let trace = c.trace(token);
        assert!(trace.is_complete_append(), "{}", trace.render());
        assert!(
            trace.has_stage(Stage::SubPush),
            "token {token:?} was never attributed a push:\n{}",
            trace.render()
        );
        // The push is stamped when the committed record leaves the serving
        // replica, so it can never precede the commit itself.
        let commit = trace.first_ns(Stage::ReplicaCommit).unwrap();
        let push = trace.first_ns(Stage::SubPush).unwrap();
        assert!(
            push >= commit,
            "token {token:?}: pushed at {push}ns before commit at {commit}ns\n{}",
            trace.render()
        );
        // And the push-path histogram saw work.
    }
    let snap = c.obs().snapshot();
    assert!(snap.counter("sub.push_records") >= N as u64);
    c.shutdown();
}

/// Like [`canonical_run`], but with a standing push subscriber attached on
/// each color for the whole run.
fn canonical_run_with_subscribers(seed: u64) -> Vec<u8> {
    let spec = ClusterSpec {
        net: NetConfig {
            link: LinkConfig::instant(),
            seed: Some(seed),
        },
        ..ClusterSpec::tree(2, 2)
    };
    let c = FlexLogCluster::start(spec);
    c.add_color(RED).unwrap();
    c.add_color(ColorId(2)).unwrap();
    let mut h = c.handle();
    let mut reader = c.handle();
    let sub_red = reader.subscribe_push(RED).unwrap();
    let sub_blue = reader.subscribe_push(ColorId(2)).unwrap();
    for i in 0..10u32 {
        h.append(format!("s{i}").as_bytes(), RED).unwrap();
    }
    let mut tokens = serial_tokens(h.fid().0, 10);
    for i in 0..10u32 {
        let t = h
            .append_pipelined(
                &[flexlog::types::Payload::from(format!("p{i}").into_bytes())],
                ColorId(2),
            )
            .unwrap();
        tokens.push(t);
    }
    h.flush_appends().unwrap();
    // Drain both streams so the pushes actually flow before the snapshot.
    let t0 = std::time::Instant::now();
    let mut got = 0usize;
    while got < 20 && t0.elapsed() < Duration::from_secs(10) {
        got += reader.poll_subscription(sub_red, Duration::from_millis(20)).unwrap().len();
        got += reader.poll_subscription(sub_blue, Duration::from_millis(20)).unwrap().len();
    }
    assert_eq!(got, 20, "subscribers must observe the whole run");
    tokens.sort_unstable();
    let mut out = Vec::new();
    for token in tokens {
        out.extend_from_slice(&c.trace(token).canonical());
    }
    c.shutdown();
    out
}

#[test]
fn subscribers_leave_no_footprint_in_canonical_traces() {
    // `SubPush` is a non-canonical stage: attaching subscribers must not
    // perturb the logical trace — same-seed runs stay byte-identical with
    // and without them, so the determinism harness keeps working when the
    // push path is live.
    let with_a = canonical_run_with_subscribers(42);
    let with_b = canonical_run_with_subscribers(42);
    assert!(!with_a.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&with_a),
        String::from_utf8_lossy(&with_b),
        "canonical traces differ across same-seed subscribed runs"
    );
    let bare = canonical_run(42);
    assert_eq!(
        String::from_utf8_lossy(&with_a),
        String::from_utf8_lossy(&bare),
        "subscribers leaked into the canonical trace"
    );
}

#[test]
fn same_seed_runs_produce_byte_identical_traces() {
    let a = canonical_run(42);
    let b = canonical_run(42);
    assert!(!a.is_empty());
    if a != b {
        // Byte-compare failed: show the first differing token line.
        let (sa, sb) = (String::from_utf8_lossy(&a), String::from_utf8_lossy(&b));
        for (la, lb) in sa.lines().zip(sb.lines()) {
            assert_eq!(la, lb, "canonical trace line differs across same-seed runs");
        }
        panic!("canonical traces differ in line count");
    }
    // The chain is logical: every token shows all 6 canonical append
    // stages somewhere in its line.
    let text = String::from_utf8(a).unwrap();
    assert_eq!(text.lines().count(), 20);
    for line in text.lines() {
        for stage in ["client_send", "replica_staged", "seq_assign", "replica_commit", "storage_commit", "client_ack"] {
            assert!(line.contains(stage), "{stage} missing from {line}");
        }
    }
}

#[test]
fn same_seed_sharded_scheduler_runs_are_byte_identical() {
    let a = canonical_run_delayed(42);
    let b = canonical_run_delayed(42);
    assert!(!a.is_empty());
    if a != b {
        let (sa, sb) = (String::from_utf8_lossy(&a), String::from_utf8_lossy(&b));
        for (la, lb) in sa.lines().zip(sb.lines()) {
            assert_eq!(
                la, lb,
                "canonical trace line differs across same-seed delayed-link runs"
            );
        }
        panic!("canonical traces differ in line count");
    }
    // And a different seed must actually reach the jitter RNGs — otherwise
    // this test would pass vacuously with the scheduler dark.
    let c = canonical_run_delayed(43);
    assert!(!c.is_empty());
    let text = String::from_utf8(a).unwrap();
    assert_eq!(text.lines().count(), 16);
}
