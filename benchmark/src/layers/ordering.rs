//! flexlog-ordering: an order request through root + leaf, and what a
//! leader crash costs the requests behind it.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use flexlog_ordering::{request_order, OrderMsg, OrderingService, RoleId, TreeSpec};
use flexlog_simnet::{Network, NodeId};
use flexlog_types::{ColorId, FunctionId, SeqNum, Token};

use super::{median_call_us, Drivers, DEADLINE};

const COLOR: ColorId = ColorId(1);
const LEAF: RoleId = RoleId(1);
const REQUESTS: usize = 5_000;
/// OReq resend interval, as the cluster's replicas use (`delta`).
const RETRY: Duration = Duration::from_millis(100);

fn token(fid: u32, i: usize) -> Token {
    Token::new(FunctionId(fid), i as u32 + 1)
}

pub fn run(_seed: u64, out: &mut Drivers) {
    // The root owns the color, so every request climbs leaf → root → leaf.
    let net: Network<OrderMsg> = Network::instant();
    let spec = TreeSpec::root_and_leaves(&[COLOR], &[vec![]]);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let order = |caller: u32, requests: usize| {
        let ep = net.register(NodeId::named(NodeId::CLASS_CLIENT, caller as u64));
        median_call_us(requests, |i| {
            request_order(&ep, &h.directory, LEAF, COLOR, token(caller, i), 1, RETRY)
                .expect("order request");
        })
    };
    out.put("ordering.oreq_rtt_us", order(1, REQUESTS));
    let t = Instant::now();
    std::thread::scope(|s| {
        for caller in [2, 3] {
            s.spawn(move || order(caller, REQUESTS));
        }
    });
    out.put(
        "ordering.oreqs_per_s",
        (2 * REQUESTS) as f64 / t.elapsed().as_secs_f64(),
    );
    h.shutdown(&net);

    // Fail-over: a serial requester keeps issuing; the leaf's leader is
    // crashed between two of its requests, and the next one blocks until a
    // backup has promoted itself. Timings as `FlexLogCluster` sets them.
    let net: Network<OrderMsg> = Network::instant();
    let mut spec = TreeSpec::root_and_leaves(&[COLOR], &[vec![]]);
    spec.backups_per_position = 2;
    spec.delta = Duration::from_millis(100);
    spec.heartbeat_interval = Duration::from_millis(20);
    spec.election_window = Duration::from_millis(50);
    let h = OrderingService::start(&net, &spec, &HashMap::new());
    let ep = net.register(NodeId::named(NodeId::CLASS_CLIENT, 1));
    let mut last = SeqNum::ZERO;
    let mut failed = 0;
    let mut issue = |i: usize| {
        let t = Instant::now();
        let sn = request_order(&ep, &h.directory, LEAF, COLOR, token(1, i), 1, RETRY);
        // No acknowledged order lost or reissued: SNs keep increasing.
        match sn {
            Ok(sn) if sn > last && t.elapsed() < DEADLINE => last = sn,
            _ => failed += 1,
        }
        t.elapsed()
    };
    for i in 0..100 {
        issue(i);
    }
    h.crash_leader(&net, LEAF);
    let blocked = issue(100);
    for i in 101..200 {
        issue(i);
    }
    out.put("ordering.leader_failover_ms", blocked.as_secs_f64() * 1e3);
    out.put("ordering.leader_failover_failed", failed as f64);
    out.attempted_ops += 200;
    out.failed_ops += failed;
    h.shutdown(&net);
}
