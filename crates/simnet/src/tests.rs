//! Integration-style tests of the network substrate: FIFO ordering, delays,
//! crash/partition semantics, broadcast.

use std::time::{Duration, Instant};

use flexlog_obs::ObsHandle;

use crate::{LinkConfig, NetConfig, Network, NodeId, RecvError, SendError};

fn two_nodes<M: Send + 'static>(net: &Network<M>) -> (crate::Endpoint<M>, crate::Endpoint<M>) {
    (net.register(NodeId(1)), net.register(NodeId(2)))
}

#[test]
fn point_to_point_delivery() {
    let net: Network<&'static str> = Network::instant();
    let (a, b) = two_nodes(&net);
    a.send(b.id(), "hello").unwrap();
    let (from, msg) = b.recv_timeout(Duration::from_secs(1)).unwrap();
    assert_eq!(from, a.id());
    assert_eq!(msg, "hello");
}

#[test]
fn per_link_fifo_instant() {
    let net: Network<u32> = Network::instant();
    let (a, b) = two_nodes(&net);
    for i in 0..1000 {
        a.send(b.id(), i).unwrap();
    }
    for i in 0..1000 {
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().1, i);
    }
}

#[test]
fn per_link_fifo_with_jitter() {
    // Jitter must not reorder messages on the same link.
    let net: Network<u32> = Network::new(NetConfig {
        link: LinkConfig {
            delay: Duration::from_micros(50),
            jitter: Duration::from_micros(200),
            serialize: Duration::ZERO,
        },
        seed: Some(42),
    });
    let (a, b) = two_nodes(&net);
    for i in 0..500 {
        a.send(b.id(), i).unwrap();
    }
    for i in 0..500 {
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap().1, i);
    }
}

#[test]
fn delay_is_applied() {
    let net: Network<()> = Network::new(NetConfig {
        link: LinkConfig::slow(Duration::from_millis(20)),
        seed: Some(0),
    });
    let (a, b) = two_nodes(&net);
    let start = Instant::now();
    a.send(b.id(), ()).unwrap();
    b.recv_timeout(Duration::from_secs(1)).unwrap();
    assert!(
        start.elapsed() >= Duration::from_millis(18),
        "message arrived before the link delay: {:?}",
        start.elapsed()
    );
}

#[test]
fn unknown_destination_errors() {
    let net: Network<()> = Network::instant();
    let a = net.register(NodeId(1));
    assert_eq!(a.send(NodeId(99), ()), Err(SendError::UnknownNode(NodeId(99))));
}

#[test]
fn crashed_node_drops_messages_and_recv_disconnects() {
    let net: Network<u32> = Network::instant();
    let obs = ObsHandle::new();
    net.attach_obs(&obs);
    let (a, b) = two_nodes(&net);
    net.crash(b.id());
    // Sends to a crashed node succeed at the API level but are dropped.
    a.send(b.id(), 7).unwrap();
    assert_eq!(b.recv(), Err(RecvError::Disconnected));
    let snap = obs.snapshot();
    assert_eq!(snap.counter("net.sent"), 1);
    assert_eq!(snap.counter("net.dropped"), 1);
}

#[test]
fn crashed_sender_cannot_send() {
    let net: Network<u32> = Network::instant();
    let (a, b) = two_nodes(&net);
    net.crash(a.id());
    assert_eq!(a.send(b.id(), 1), Err(SendError::SelfCrashed));
}

#[test]
fn crash_then_reregister() {
    let net: Network<u32> = Network::instant();
    let (a, b) = two_nodes(&net);
    net.crash(b.id());
    assert!(net.is_crashed(b.id()));
    let b2 = net.register(NodeId(2));
    assert!(!net.is_crashed(b2.id()));
    a.send(b2.id(), 9).unwrap();
    assert_eq!(b2.recv_timeout(Duration::from_secs(1)).unwrap().1, 9);
}

#[test]
fn partition_blocks_cross_traffic_and_heal_restores() {
    let net: Network<u32> = Network::instant();
    let a = net.register(NodeId(1));
    let b = net.register(NodeId(2));
    let c = net.register(NodeId(3));

    net.partition(&[&[NodeId(1)], &[NodeId(2)]]);
    a.send(b.id(), 1).unwrap();
    assert_eq!(b.recv_timeout(Duration::from_millis(20)), Err(RecvError::Timeout));
    // Node 3 is in no group: reachable from both sides.
    a.send(c.id(), 2).unwrap();
    assert_eq!(c.recv_timeout(Duration::from_secs(1)).unwrap().1, 2);

    net.heal();
    a.send(b.id(), 3).unwrap();
    assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().1, 3);
}

#[test]
fn isolation_blocks_both_directions() {
    let net: Network<u32> = Network::instant();
    let (a, b) = two_nodes(&net);
    net.isolate(a.id());
    a.send(b.id(), 1).unwrap();
    b.send(a.id(), 2).unwrap();
    assert_eq!(b.recv_timeout(Duration::from_millis(20)), Err(RecvError::Timeout));
    assert_eq!(a.recv_timeout(Duration::from_millis(20)), Err(RecvError::Timeout));
}

#[test]
fn partition_applies_to_in_flight_messages() {
    // A message already "on the wire" when the partition starts must not leak
    // across it (delivery-time connectivity check).
    let net: Network<u32> = Network::new(NetConfig {
        link: LinkConfig::slow(Duration::from_millis(50)),
        seed: Some(0),
    });
    let (a, b) = two_nodes(&net);
    a.send(b.id(), 1).unwrap();
    net.partition(&[&[NodeId(1)], &[NodeId(2)]]);
    assert_eq!(b.recv_timeout(Duration::from_millis(200)), Err(RecvError::Timeout));
}

#[test]
fn broadcast_reaches_all_peers() {
    let net: Network<u32> = Network::instant();
    let a = net.register(NodeId(1));
    let peers: Vec<_> = (2..=5).map(|i| net.register(NodeId(i))).collect();
    let ids: Vec<_> = peers.iter().map(|p| p.id()).collect();
    a.broadcast(&ids, 42).unwrap();
    for p in &peers {
        assert_eq!(p.recv_timeout(Duration::from_secs(1)).unwrap(), (a.id(), 42));
    }
}

#[test]
fn broadcast_continues_past_unknown_peer() {
    let net: Network<u32> = Network::instant();
    let a = net.register(NodeId(1));
    let b = net.register(NodeId(2));
    let err = a.broadcast(&[NodeId(99), b.id()], 5).unwrap_err();
    assert_eq!(err, SendError::UnknownNode(NodeId(99)));
    // b still received the message.
    assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap().1, 5);
}

#[test]
fn many_senders_one_receiver() {
    let net: Network<(u64, u32)> = Network::instant();
    let sink = net.register(NodeId(0));
    let mut handles = Vec::new();
    for s in 1..=8u64 {
        let ep = net.register(NodeId(s));
        handles.push(std::thread::spawn(move || {
            for i in 0..100u32 {
                ep.send(NodeId(0), (s, i)).unwrap();
            }
        }));
    }
    let mut last_per_sender = std::collections::HashMap::new();
    for _ in 0..800 {
        let (_, (s, i)) = sink.recv_timeout(Duration::from_secs(5)).unwrap();
        // FIFO per sender even under concurrency.
        let last = last_per_sender.entry(s).or_insert(-1i64);
        assert!((i as i64) > *last, "sender {s} reordered: {i} after {last}");
        *last = i as i64;
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn stats_count_sent_and_delivered() {
    let net: Network<u32> = Network::instant();
    let obs = ObsHandle::new();
    net.attach_obs(&obs);
    let (a, b) = two_nodes(&net);
    for i in 0..10 {
        a.send(b.id(), i).unwrap();
    }
    for _ in 0..10 {
        b.recv_timeout(Duration::from_secs(1)).unwrap();
    }
    let snap = obs.snapshot();
    assert_eq!(snap.counter("net.sent"), 10);
    assert_eq!(snap.counter("net.delivered"), 10);
    assert_eq!(snap.counter("net.dropped"), 0);
}

/// Every accepted send is counted delivered or dropped, including the
/// messages a delayed link drops at delivery time: one whose destination
/// crashed while it was in flight, and one whose link a partition cut after
/// the send.
#[test]
fn every_send_is_counted_delivered_or_dropped() {
    let net: Network<u32> = Network::new(NetConfig {
        link: LinkConfig::slow(Duration::from_millis(30)),
        seed: Some(5),
    });
    let obs = ObsHandle::new();
    net.attach_obs(&obs);
    let a = net.register(NodeId(1));
    let b = net.register(NodeId(2));
    let c = net.register(NodeId(3));
    a.send(b.id(), 1).unwrap();
    a.send(c.id(), 2).unwrap();
    c.send(a.id(), 3).unwrap();
    net.crash(b.id());
    net.partition(&[&[NodeId(1)], &[NodeId(3)]]);
    assert_eq!(b.recv(), Err(RecvError::Disconnected));
    assert_eq!(c.recv_timeout(Duration::from_millis(200)), Err(RecvError::Timeout));
    assert_eq!(a.recv_timeout(Duration::from_millis(50)), Err(RecvError::Timeout));
    net.heal();
    a.send(c.id(), 4).unwrap();
    assert_eq!(c.recv_timeout(Duration::from_secs(1)).unwrap(), (a.id(), 4));

    let snap = obs.snapshot();
    let (sent, delivered, dropped) = (
        snap.counter("net.sent"),
        snap.counter("net.delivered"),
        snap.counter("net.dropped"),
    );
    assert_eq!((sent, delivered, dropped), (4, 1, 3));
    assert_eq!(sent, delivered + dropped);
}

#[test]
fn recv_batch_drains_bursts_in_order() {
    let net: Network<u32> = Network::instant();
    let (a, b) = two_nodes(&net);
    for i in 0..100 {
        a.send(b.id(), i).unwrap();
    }
    let mut out = Vec::new();
    // Bounded drain first, then the rest.
    assert_eq!(b.recv_batch(Duration::from_secs(1), 30, &mut out).unwrap(), 30);
    while out.len() < 100 {
        b.recv_batch(Duration::from_secs(1), usize::MAX, &mut out)
            .unwrap();
    }
    let values: Vec<u32> = out.iter().map(|&(_, v)| v).collect();
    assert_eq!(values, (0..100).collect::<Vec<_>>());
    // Empty inbox: times out.
    assert_eq!(
        b.recv_batch(Duration::from_millis(5), 8, &mut out),
        Err(RecvError::Timeout)
    );
}

/// A timeout below the sleep floor is polled, not parked: it costs what it
/// says (a 1 µs timed park takes ~73 µs on this host), still sees a message
/// that arrives while it waits, and a long timeout still sleeps its full
/// length. Bounds are 3x away from both sides' measurements (polled ≈ 1–2 µs).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing bounds; ci.sh runs it in release")]
fn short_timeouts_are_polled_and_long_ones_still_sleep() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let net: Network<u32> = Network::instant();
    let (a, b) = two_nodes(&net);

    let mut took: Vec<Duration> = (0..500)
        .map(|_| {
            let t = Instant::now();
            assert_eq!(b.recv_timeout(Duration::from_micros(1)), Err(RecvError::Timeout));
            t.elapsed()
        })
        .collect();
    took.sort_unstable();
    let median = took[took.len() / 2];
    assert!(median < Duration::from_micros(20), "recv_timeout(1 µs) median {median:?}");

    // A message sent ~20 µs into a 90 µs polled wait comes back from that
    // very call. A round in which either thread was descheduled proves
    // nothing (on a loaded 2-core host that is most rounds), so rounds
    // repeat until one does.
    const ROUNDS: u32 = 2_000;
    let waiting = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let sender = {
        let (waiting, done) = (Arc::clone(&waiting), Arc::clone(&done));
        let to = b.id();
        std::thread::spawn(move || loop {
            while !waiting.swap(false, Ordering::AcqRel) {
                if done.load(Ordering::Acquire) {
                    return;
                }
                std::hint::spin_loop();
            }
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(20) {
                std::hint::spin_loop();
            }
            a.send(to, 7).unwrap();
        })
    };
    let mut seen_while_polling = false;
    for _ in 0..ROUNDS {
        waiting.store(true, Ordering::Release);
        seen_while_polling = b.recv_timeout(Duration::from_micros(90)).is_ok();
        if seen_while_polling {
            break;
        }
        b.recv_timeout(Duration::from_secs(5)).expect("the round's message, late");
    }
    done.store(true, Ordering::Release);
    sender.join().unwrap();
    assert!(seen_while_polling, "no polled wait of {ROUNDS} returned a message sent during it");

    let t = Instant::now();
    assert_eq!(b.recv_timeout(Duration::from_millis(5)), Err(RecvError::Timeout));
    assert!(t.elapsed() >= Duration::from_millis(5));
}

/// Registering nodes while the delay scheduler hands over batches must not
/// deadlock: `register` writes the routing tables that every delivery pass
/// reads (when the two took the tables' locks in opposite orders, they met
/// in the middle for good and `flexlog-bench fig11` in full mode, which
/// registers client handles under load, never finished).
#[test]
fn register_does_not_deadlock_with_batched_delivery() {
    let net: Network<u32> = Network::new(NetConfig::datacenter());
    let sink = net.register(NodeId(1));
    let senders: Vec<_> = (2..4u64).map(|i| net.register(NodeId(i))).collect();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for ep in &senders {
                // Bursts, so the scheduler delivers batches of many
                // envelopes, not one at a time.
                s.spawn(|| {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for i in 0..64 {
                            ep.send(NodeId(1), i).unwrap();
                        }
                        std::thread::yield_now();
                    }
                });
            }
            let mut out = Vec::new();
            for id in 100..2_100u64 {
                drop(net.register(NodeId(id)));
                out.clear();
                let _ = sink.recv_batch(Duration::ZERO, usize::MAX, &mut out);
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("2 000 registrations under batched delivery deadlocked");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

        /// FIFO per link holds for any mix of link delays, jitter, receive
        /// batch sizes and message bursts: receivers always observe each
        /// sender's messages in send order, whether they drain one message
        /// per wake-up or whole batches.
        #[test]
        fn fifo_holds_for_any_delay_and_batch(
            delay_us in 0u64..200,
            jitter_us in 0u64..300,
            recv_batch_max in 1usize..40,
            bursts in proptest::collection::vec(1usize..30, 1..6),
        ) {
            let net: Network<(usize, usize)> = Network::new(NetConfig {
                link: LinkConfig {
                    delay: Duration::from_micros(delay_us),
                    jitter: Duration::from_micros(jitter_us),
                    serialize: Duration::ZERO,
                },
                seed: Some(7),
            });
            let a = net.register(NodeId(1));
            let b = net.register(NodeId(2));
            let c = net.register(NodeId(3));
            let mut sent = 0usize;
            for (burst_no, n) in bursts.iter().enumerate() {
                for i in 0..*n {
                    // Two independent links into b: each must stay FIFO on
                    // its own while the scheduler interleaves them.
                    a.send(b.id(), (burst_no, i)).unwrap();
                    c.send(b.id(), (burst_no, i)).unwrap();
                    sent += 2;
                }
            }
            let mut last_a: Option<(usize, usize)> = None;
            let mut last_c: Option<(usize, usize)> = None;
            let mut got = 0usize;
            let mut out: Vec<(NodeId, (usize, usize))> = Vec::new();
            while got < sent {
                out.clear();
                let n = b
                    .recv_batch(Duration::from_secs(5), recv_batch_max, &mut out)
                    .unwrap();
                prop_assert!(n > 0 && n <= recv_batch_max);
                for &(from, msg) in &out {
                    let last = if from == a.id() { &mut last_a } else { &mut last_c };
                    if let Some(prev) = *last {
                        prop_assert!(msg > prev, "link {from} reordered: {msg:?} after {prev:?}");
                    }
                    *last = Some(msg);
                }
                got += n;
            }
        }
    }
}
