//! flexlog-simnet: what one message hop costs the data path.

use std::time::{Duration, Instant};

use flexlog_simnet::{Endpoint, NetConfig, Network, NodeId};

use super::{median_call_us, Drivers};

const PINGS: usize = 20_000;
const DC_PINGS: usize = 2_000;
const BURST: usize = 64;
const BURST_ROUNDS: usize = 400;

fn pair(net: &Network<u64>) -> (Endpoint<u64>, Endpoint<u64>) {
    (
        net.register(NodeId::named(NodeId::CLASS_CLIENT, 1)),
        net.register(NodeId::named(NodeId::CLASS_CLIENT, 2)),
    )
}

/// One thread owns both ends, so a round trip is two sends and two receives
/// with no thread hand-off in it.
fn ping_pong(a: &Endpoint<u64>, b: &Endpoint<u64>, i: usize) {
    a.send(b.id(), i as u64).expect("send ping");
    let (_, ping) = b.recv().expect("ping");
    b.send(a.id(), ping).expect("send pong");
    let (_, pong) = a.recv().expect("pong");
    assert_eq!(pong, i as u64);
}

pub fn run(_seed: u64, out: &mut Drivers) {
    let net: Network<u64> = Network::instant();
    let (a, b) = pair(&net);
    out.put(
        "simnet.instant_rtt_us",
        median_call_us(PINGS, |i| ping_pong(&a, &b, i)),
    );

    // Datacenter links go through the delay scheduler: what its threads add
    // on top of the two configured one-way delays.
    let config = NetConfig::datacenter();
    let configured_us = 2.0 * config.link.delay.as_secs_f64() * 1e6;
    let dc: Network<u64> = Network::new(config);
    let (a, b) = pair(&dc);
    let rtt = median_call_us(DC_PINGS, |i| ping_pong(&a, &b, i));
    out.put("simnet.dc_rtt_overhead_us", rtt - configured_us);

    // Three senders broadcast a burst each; the receiver drains with
    // `recv_batch`, as replicas, sequencers and clients do.
    let dst = net.register(NodeId::named(NodeId::CLASS_REPLICA, 1));
    let senders: Vec<Endpoint<u64>> = (0..3)
        .map(|i| net.register(NodeId::named(NodeId::CLASS_CLIENT, 10 + i)))
        .collect();
    let mut inbox = Vec::with_capacity(256);
    let t = Instant::now();
    for _ in 0..BURST_ROUNDS {
        for s in &senders {
            for m in 0..BURST {
                s.send(dst.id(), m as u64).expect("send burst");
            }
        }
        let mut got = 0;
        while got < senders.len() * BURST {
            inbox.clear();
            got += dst
                .recv_batch(Duration::from_secs(1), 256, &mut inbox)
                .expect("burst arrives");
        }
    }
    let msgs = (BURST_ROUNDS * senders.len() * BURST) as f64;
    out.put(
        "simnet.recv_batch_msgs_per_s",
        msgs / t.elapsed().as_secs_f64(),
    );
}
