//! Ablations of FlexLog's design choices (beyond the paper's figures):
//!
//! 1. **Batching interval** — the 1 µs OReq aggregation window (§5.2) is a
//!    latency/throughput dial: longer windows amortize the root hop over
//!    more requests but delay every response.
//! 2. **DRAM cache size** — the first storage tier (§5.2): read throughput
//!    as the cache shrinks from fits-everything to useless.
//! 3. **Tree depth** — the cost of locality hierarchy: order-request
//!    latency as the request climbs 1–4 sequencers (§9.3 observes latency
//!    grows linearly with height while throughput does not suffer).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexlog_ordering::{RoleId, TreeSpec};
use flexlog_pm::{virtual_time, ClockMode, LatencyModel};
use flexlog_storage::{StorageConfig, StorageServer};
use flexlog_types::{Epoch, FunctionId, Payload, SeqNum, Token};

use super::{order_latency, order_throughput, COLOR};
use crate::{fmt_duration, fmt_ops, Table};


/// Ablation 1: batching interval vs latency (one client) and throughput
/// (concurrent clients), on a root+leaf tree.
pub fn batching_interval(quick: bool) -> Vec<(Duration, Duration, f64)> {
    let samples = if quick { 20 } else { 100 };
    let (clients, load) = if quick { (2, 250) } else { (4, 800) };
    [1u64, 10, 100, 1000]
        .iter()
        .map(|&us| {
            let mut spec = TreeSpec::root_and_leaves(&[COLOR], &[vec![]]);
            spec.batch_interval = Duration::from_micros(us);
            let lat = order_latency(&spec, RoleId(1), samples);
            let tput = order_throughput(&spec, RoleId(1), clients, Duration::from_millis(load));
            (spec.batch_interval, lat, tput)
        })
        .collect()
}

/// Ablation 2: DRAM cache size vs read throughput (90 %R workload, 1 KiB
/// records, 8 MiB working set, virtual-clock accounting).
pub fn cache_size(quick: bool) -> Vec<(usize, f64, f64)> {
    let records = if quick { 2_000u64 } else { 8_000 };
    let ops = if quick { 5_000 } else { 20_000 };
    [0usize, 64 << 10, 1 << 20, 4 << 20, 16 << 20]
        .iter()
        .map(|&cache_bytes| {
            let server = StorageServer::new(StorageConfig {
                pm_capacity: 256 << 20,
                pm_latency: LatencyModel::pm_bypass(),
                cache_capacity: cache_bytes.max(1), // 0 → effectively none
                pm_watermark: 200 << 20,
                clock: ClockMode::Virtual,
                obs: Default::default(),
                tier: None,
            });
            let payload = Payload::from(vec![0xABu8; 1024]);
            for i in 0..records {
                server
                    .import(
                        COLOR,
                        SeqNum::new(Epoch(1), i as u32 + 1),
                        Token::new(FunctionId(1), i as u32),
                        &payload,
                    )
                    .unwrap();
            }
            let mut rng = StdRng::seed_from_u64(77);
            virtual_time::take();
            for i in 0..ops {
                if rng.gen_range(0..100) < 90 {
                    let key = rng.gen_range(0..records) as u32 + 1;
                    let _ = server.get(COLOR, SeqNum::new(Epoch(1), key));
                } else {
                    server
                        .import(
                            COLOR,
                            SeqNum::new(Epoch(2), i as u32 + 1),
                            Token::new(FunctionId(2), i as u32),
                            &payload,
                        )
                        .unwrap();
                }
            }
            let ns = virtual_time::take().max(1);
            let tput = ops as f64 / (ns as f64 / 1e9);
            let snap = server.obs().snapshot();
            let hits = snap.counter("storage.cache_hits") as f64;
            let reads = snap.counter("storage.reads") as f64;
            (cache_bytes, tput, 100.0 * hits / reads.max(1.0))
        })
        .collect()
}

/// Ablation 3: order latency vs sequencer-tree depth (request enters at
/// the deepest leaf, the root owns the color).
pub fn tree_depth(quick: bool) -> Vec<(usize, Duration)> {
    let samples = if quick { 20 } else { 100 };
    (1usize..=4)
        .map(|depth| {
            let spec = TreeSpec::chain(&[COLOR], depth);
            (depth, order_latency(&spec, spec.leaf_role(), samples))
        })
        .collect()
}

pub fn run(quick: bool) -> Vec<Table> {
    let mut t1 = Table::new(
        "Ablation: OReq batching interval (paper default: 1 us)",
        &["interval", "order latency", "throughput"],
    );
    for (interval, lat, tput) in batching_interval(quick) {
        t1.row(vec![
            fmt_duration(interval),
            fmt_duration(lat),
            fmt_ops(tput),
        ]);
    }
    let mut t2 = Table::new(
        "Ablation: DRAM cache size (90%R, 8K x 1KiB working set)",
        &["cache", "read throughput", "hit rate"],
    );
    for (bytes, tput, hit) in cache_size(quick) {
        t2.row(vec![
            if bytes == 0 {
                "none".into()
            } else {
                format!("{} KiB", bytes / 1024)
            },
            fmt_ops(tput),
            format!("{hit:.1}%"),
        ]);
    }
    let mut t3 = Table::new(
        "Ablation: sequencer tree depth (paper: latency grows with height)",
        &["depth", "order latency"],
    );
    for (depth, lat) in tree_depth(quick) {
        t3.row(vec![depth.to_string(), fmt_duration(lat)]);
    }
    vec![t1, t2, t3]
}
