//! Read path and fan-out (`BENCH_fanout.json`).
//!
//! * `mixed` — closed-loop clients interleaving appends with point reads
//!   (1 append : 4 reads), against bare write-quorum shards (`rr0`) and
//!   with one read-only replica per shard (`rr1`). Client read routing
//!   prefers read replicas, so in `rr1` every read leaves the three quorum
//!   replicas for the one follower: the gates check that the follower's
//!   modelled busy time is zero without it and positive with it. Both runs
//!   report wall and modelled ops/s (workload ÷ busiest node's busy time)
//!   and their `rr1 / rr0` ratio per clock.
//! * `fanout` — one writer appends a fixed log while S subscribers consume
//!   it; goodput is records·subscribers delivered per second, counted only
//!   when every subscriber holds the complete log. One subscriber polling
//!   `subscribe_from` in a loop is the baseline, 100 standing push
//!   subscriptions the measurement; their ratio is gated at ≥ 20×.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use flexlog_core::{ClusterSpec, FlexLogCluster, SeqNum};
use flexlog_types::{ColorId, Payload};

use crate::harness::{busiest_node, modelled_spec, Report, MODELLED, WALL};

/// Fixed workload shape: part of the tracked-bench contract; change only
/// together with `BENCH_fanout.json`.
const PAYLOAD_BYTES: usize = 128;
const SHARDS: usize = 2;
const MIXED_CLIENTS: usize = 4;
const READS_PER_APPEND: usize = 4;
const MIXED_OPS_PER_CLIENT: usize = 2000;
const QUICK_MIXED_OPS_PER_CLIENT: usize = 300;
const FANOUT_RECORDS: usize = 1500;
const QUICK_FANOUT_RECORDS: usize = 250;
const FANOUT_SUBS: usize = 100;
const COLOR: ColorId = ColorId(1);

fn cluster(read_replicas_per_shard: usize) -> FlexLogCluster {
    let spec = ClusterSpec {
        read_replicas_per_shard,
        ..modelled_spec(SHARDS)
    };
    let c = FlexLogCluster::start(spec);
    c.add_color(COLOR).unwrap();
    c
}

/// (wall ops/s, modelled ops/s, read replicas' modelled busy ms, bottleneck).
fn run_mixed(read_replicas: usize, ops_per_client: usize) -> (f64, f64, f64, String) {
    let c = cluster(read_replicas);
    let barrier = Barrier::new(MIXED_CLIENTS + 1);
    let t0 = std::thread::scope(|scope| {
        for cl in 0..MIXED_CLIENTS {
            let mut h = c.handle();
            let barrier = &barrier;
            scope.spawn(move || {
                let payload = Payload::from(vec![0x5Au8; PAYLOAD_BYTES]);
                let mut written: Vec<SeqNum> = Vec::new();
                barrier.wait();
                for i in 0..ops_per_client {
                    if i % (READS_PER_APPEND + 1) == 0 {
                        let sn = h.append_payloads(std::slice::from_ref(&payload), COLOR);
                        written.push(sn.expect("append"));
                    } else {
                        let sn = written[(cl + i * 7) % written.len()];
                        let got = h.read(sn, COLOR).expect("read");
                        assert!(got.is_some(), "committed record missing at {sn:?}");
                    }
                }
            });
        }
        barrier.wait();
        Instant::now()
    });
    let elapsed = t0.elapsed();
    let (node, busy_ns) = busiest_node(&c);
    let rreplica_busy_ns: u64 = c
        .obs()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("node.busy_ns.rreplica."))
        .map(|(_, &v)| v)
        .sum();
    c.shutdown();

    let ops = (MIXED_CLIENTS * ops_per_client) as f64;
    (
        ops / elapsed.as_secs_f64(),
        ops / (busy_ns as f64 / 1e9),
        rreplica_busy_ns as f64 / 1e6,
        node,
    )
}

/// One writer appends `records`; `subs` consumers drain them, each via a
/// standing push subscription (`push`) or a `subscribe_from` polling loop.
/// Returns goodput in records·subscribers per second.
fn run_fanout(subs: usize, records: usize, push: bool) -> f64 {
    let c = cluster(1);
    // The writer's last SN, once it has appended everything.
    let (done, tail) = (AtomicUsize::new(0), AtomicU64::new(u64::MAX));
    let barrier = Barrier::new(subs + 1);
    let elapsed = std::thread::scope(|scope| {
        for _ in 0..subs {
            let mut h = c.handle();
            let (done, tail, barrier) = (&done, &tail, &barrier);
            scope.spawn(move || {
                let mut got = 0usize;
                if push {
                    let sub = h.subscribe_push(COLOR).expect("attach");
                    barrier.wait();
                    while got < records {
                        let batch = h.poll_subscription(sub, Duration::from_millis(20));
                        got += batch.expect("live subscription").len();
                    }
                } else {
                    let mut cursor = SeqNum::ZERO;
                    barrier.wait();
                    while got < records {
                        // The color spans both shards and each answers for
                        // itself, so an SN can show up before a lower one
                        // has landed on the other shard, and a cursor that
                        // moved past it never sees it. At the writer's last
                        // SN and still short of the log: start over.
                        if cursor.0 >= tail.load(Ordering::Acquire) {
                            (cursor, got) = (SeqNum::ZERO, 0);
                        }
                        let batch = h.subscribe_from(COLOR, cursor).expect("poll");
                        cursor = batch.last().map_or(cursor, |r| r.sn);
                        got += batch.len();
                    }
                }
                done.fetch_add(1, Ordering::Release);
            });
        }

        let mut writer = c.handle();
        let payload = Payload::from(vec![0xC3u8; PAYLOAD_BYTES]);
        barrier.wait();
        let t0 = Instant::now();
        let mut last = SeqNum::ZERO;
        for _ in 0..records {
            last = writer.append_payloads(std::slice::from_ref(&payload), COLOR).expect("append");
        }
        tail.store(last.0, Ordering::Release);
        // The window closes when the slowest subscriber holds the full log.
        while done.load(Ordering::Acquire) < subs {
            std::thread::sleep(Duration::from_millis(1));
        }
        t0.elapsed()
    });
    if push {
        let snap = c.obs().snapshot();
        assert!(snap.counter("sub.push_batches") > 0, "push subscriptions must push");
        assert!(snap.counter("sub.push_records") >= (subs * records) as u64);
    }
    c.shutdown();
    (subs * records) as f64 / elapsed.as_secs_f64()
}

pub fn run(quick: bool) -> Report {
    let (mixed_ops, records) = if quick {
        (QUICK_MIXED_OPS_PER_CLIENT, QUICK_FANOUT_RECORDS)
    } else {
        (MIXED_OPS_PER_CLIENT, FANOUT_RECORDS)
    };
    let mut report = Report::new("fanout", quick);

    for trial in 0..report.trials {
        // Both pairs alternate which side runs first.
        let flip = trial % 2 == 1;

        let (mut wall, mut modelled) = ([0.0; 2], [0.0; 2]);
        for rr in if flip { [1, 0] } else { [0, 1] } {
            let (w, m, rreplica_busy_ms, node) = run_mixed(rr, mixed_ops);
            eprintln!(
                "fanout trial {trial}: mixed rr{rr} {w:>8.0} ops/s wall, {m:>8.0} modelled \
                 (bottleneck {node}, read replicas busy {rreplica_busy_ms:.2} ms)"
            );
            (wall[rr], modelled[rr]) = (w, m);
            report.record(&format!("mixed_wall_ops_per_s_rr{rr}"), "ops/s", WALL, w);
            report.record(&format!("mixed_modelled_ops_per_s_rr{rr}"), "ops/s", MODELLED, m);
            report.record(&format!("rreplica_busy_ms_rr{rr}"), "ms", MODELLED, rreplica_busy_ms);
        }
        report.record("mixed_wall_rr1_over_rr0", "x", WALL, wall[1] / wall[0]);
        report.record("mixed_modelled_rr1_over_rr0", "x", MODELLED, modelled[1] / modelled[0]);

        let mut goodput = [0.0; 2];
        for push in if flip { [true, false] } else { [false, true] } {
            let subs = if push { FANOUT_SUBS } else { 1 };
            goodput[usize::from(push)] = run_fanout(subs, records, push);
        }
        let [poll, push] = goodput;
        eprintln!(
            "fanout trial {trial}: poll x1 {poll:.0}, push x{FANOUT_SUBS} {push:.0} rec·sub/s ({:.1}x)",
            push / poll
        );
        report.record("poll_goodput_1_sub", "rec*sub/s", WALL, poll);
        report.record("push_goodput_100_subs", "rec*sub/s", WALL, push);
        report.record("goodput_100x_over_poll", "x", WALL, push / poll);
    }
    report
}
