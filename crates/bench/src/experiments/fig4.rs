//! Figure 4 — ordering-layer latency and throughput: FlexLog vs Boki/Paxos.
//!
//! Left panel (paper): mean operation latency of the ordering layers for
//! workloads with 10 %, 15 % and 50 % reads, single client. FlexLog stays
//! under 250 µs and is 2.5–4× faster than Boki. Reads never touch the
//! ordering layer ("reads only do storage accesses"), so the mixed-workload
//! mean is `R·storage_read + (1-R)·order_latency` — exactly how the fastest
//! storage shifts the bottleneck to ordering (§9.1 RQ1.2).
//!
//! Right panel: multi-client throughput. FlexLog (total order through a
//! root–middle–leaf tree) ≈ 2–3× an optimized (Multi-)Paxos counter;
//! FlexLog-P (partial order, leaf-local color) adds ≈ 10 % on top because
//! aggregation already hides the root hop.
//!
//! Boki's ordering layer is Scalog's: a Paxos-replicated counter fed by
//! periodic cuts. The classic-Paxos latency configuration seals cuts every
//! 300 µs (Scalog's cut interval is 100 µs–1 ms); the throughput
//! configuration uses the same 1 µs batching as FlexLog so the comparison
//! isolates protocol cost, not batching policy.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_baselines::paxos::{PaxosCounter, PaxosMsg, ProposerMode};
use flexlog_ordering::TreeSpec;
use flexlog_simnet::{NetConfig, Network, NodeId};

use super::{order_latency, order_throughput, COLOR};
use crate::{fmt_duration, fmt_ops, Series, Table};

/// Modelled storage read latency when the function is co-located with the
/// storage node (the paper measures ≈1 µs).
const STORAGE_READ: Duration = Duration::from_micros(1);
/// Scalog/Boki cut (sealing) interval for the latency experiment.
const BOKI_CUT_INTERVAL: Duration = Duration::from_micros(300);

pub struct Fig4Latency {
    pub reads_pct: u32,
    pub flexlog: Duration,
    pub boki: Duration,
}

pub struct Fig4Throughput {
    pub flexlog: f64,
    pub flexlog_p: f64,
    pub paxos: f64,
}

/// Mean Boki/Scalog order latency: classic Paxos counter with periodic
/// sealing.
fn boki_order_latency(samples: usize) -> Duration {
    let net: Network<PaxosMsg> = Network::new(NetConfig::datacenter());
    let svc = PaxosCounter::start(&net, 1, 3, ProposerMode::Classic, BOKI_CUT_INTERVAL);
    let ep = net.register(NodeId::named(NodeId::CLASS_CLIENT, 1));
    let mut series = Series::new();
    for i in 0..samples as u64 {
        let start = Instant::now();
        PaxosCounter::next(&ep, svc.proposer_nodes[0], i + 1, 1, Duration::from_secs(2))
            .expect("paxos next");
        series.push(start.elapsed().as_secs_f64());
    }
    svc.shutdown();
    Duration::from_secs_f64(series.mean())
}

/// Latency panel: mixed-workload means.
pub fn latency_panel(quick: bool) -> Vec<Fig4Latency> {
    let samples = if quick { 30 } else { 200 };
    // FlexLog: a total order through a root–middle–leaf tree.
    let tree = TreeSpec::chain(&[COLOR], 3);
    let flex = order_latency(&tree, tree.leaf_role(), samples);
    let boki = boki_order_latency(samples);
    [10u32, 15, 50]
        .iter()
        .map(|&reads_pct| {
            let r = reads_pct as f64 / 100.0;
            let mix = |order: Duration| {
                Duration::from_nanos(
                    (r * STORAGE_READ.as_nanos() as f64
                        + (1.0 - r) * order.as_nanos() as f64) as u64,
                )
            };
            Fig4Latency {
                reads_pct,
                flexlog: mix(flex),
                boki: mix(boki),
            }
        })
        .collect()
}

/// Multi-client FlexLog throughput (order requests/s), `leaf_owned` selects
/// FlexLog-P.
fn flexlog_throughput(leaf_owned: bool, clients: usize, duration: Duration) -> f64 {
    let spec = if leaf_owned {
        // FlexLog-P: the leaf is the serialization point.
        TreeSpec::root_and_leaves(&[], &[vec![COLOR]])
    } else {
        TreeSpec::root_and_leaves(&[COLOR], &[vec![]])
    };
    order_throughput(&spec, spec.leaf_role(), clients, duration)
}

/// Multi-client Paxos counter throughput (optimized Multi-Paxos, same 1 µs
/// batching as FlexLog).
fn paxos_throughput(clients: usize, duration: Duration) -> f64 {
    let net: Network<PaxosMsg> = Network::new(NetConfig::datacenter());
    let svc = PaxosCounter::start(
        &net,
        1,
        3,
        ProposerMode::Multi,
        Duration::from_micros(1),
    );
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for c in 0..clients {
        let ep = net.register(NodeId::named(NodeId::CLASS_CLIENT, c as u64 + 1));
        let proposer = svc.proposer_nodes[0];
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut done = 0u64;
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let req = (c as u64) << 32 | i;
                if PaxosCounter::next(&ep, proposer, req, 1, Duration::from_secs(2)).is_ok() {
                    done += 1;
                }
            }
            done
        }));
    }
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = start.elapsed();
    svc.shutdown();
    total as f64 / elapsed.as_secs_f64()
}

/// Throughput panel.
pub fn throughput_panel(quick: bool) -> Fig4Throughput {
    let (clients, duration) = if quick {
        (4, Duration::from_millis(400))
    } else {
        (8, Duration::from_secs(2))
    };
    Fig4Throughput {
        flexlog: flexlog_throughput(false, clients, duration),
        flexlog_p: flexlog_throughput(true, clients, duration),
        paxos: paxos_throughput(clients, duration),
    }
}

pub fn run(quick: bool) -> Vec<Table> {
    let lat = latency_panel(quick);
    let mut t1 = Table::new(
        "Figure 4 (left): ordering-layer latency (paper: FlexLog <250us, 2.5-4x faster than Boki)",
        &["reads %", "FlexLog", "Boki (Paxos)", "speedup"],
    );
    for l in &lat {
        t1.row(vec![
            format!("{}%", l.reads_pct),
            fmt_duration(l.flexlog),
            fmt_duration(l.boki),
            format!(
                "{:.1}x",
                l.boki.as_nanos() as f64 / l.flexlog.as_nanos().max(1) as f64
            ),
        ]);
    }

    let tp = throughput_panel(quick);
    let mut t2 = Table::new(
        "Figure 4 (right): ordering throughput (paper: FlexLog 2-3x Paxos; FlexLog-P +10%)",
        &["system", "throughput", "vs Paxos"],
    );
    for (name, v) in [
        ("FlexLog", tp.flexlog),
        ("FlexLog-P", tp.flexlog_p),
        ("Paxos (Multi)", tp.paxos),
    ] {
        t2.row(vec![
            name.into(),
            fmt_ops(v),
            format!("{:.2}x", v / tp.paxos.max(1.0)),
        ]);
    }
    vec![t1, t2]
}
