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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexlog_ordering::{request_order, OrderMsg, OrderingService, RoleId, TreeSpec};
use flexlog_pm::{virtual_time, ClockMode, LatencyModel};
use flexlog_simnet::{NetConfig, Network, NodeId};
use flexlog_storage::{StorageConfig, StorageServer};
use flexlog_types::{ColorId, Epoch, FunctionId, Payload, SeqNum, Token};

use crate::{fmt_duration, fmt_ops, Series, Table};

const COLOR: ColorId = ColorId(1);

/// Ablation 1: batching interval vs latency and throughput.
pub fn batching_interval(quick: bool) -> Vec<(Duration, Duration, f64)> {
    let samples = if quick { 20 } else { 100 };
    let load_clients = if quick { 2 } else { 4 };
    let load_time = if quick {
        Duration::from_millis(250)
    } else {
        Duration::from_millis(800)
    };
    [1u64, 10, 100, 1000]
        .iter()
        .map(|&us| {
            let interval = Duration::from_micros(us);
            // Latency: single client, root+leaf tree, datacenter delays.
            let net: Network<OrderMsg> = Network::new(NetConfig::datacenter());
            let mut spec = TreeSpec::root_and_leaves(&[COLOR], &[vec![]]);
            spec.batch_interval = interval;
            let h = OrderingService::start(&net, &spec, &Default::default());
            let ep = net.register(NodeId::named(NodeId::CLASS_CLIENT, 1));
            let mut lat = Series::new();
            for i in 0..samples {
                let start = Instant::now();
                request_order(
                    &ep,
                    &h.directory,
                    RoleId(1),
                    COLOR,
                    Token::new(FunctionId(1), i as u32 + 1),
                    1,
                    Duration::from_secs(2),
                )
                .unwrap();
                lat.push(start.elapsed());
            }
            h.shutdown(&net);

            // Throughput: concurrent clients, same tree.
            let net: Network<OrderMsg> = Network::new(NetConfig::datacenter());
            let mut spec = TreeSpec::root_and_leaves(&[COLOR], &[vec![]]);
            spec.batch_interval = interval;
            let h = OrderingService::start(&net, &spec, &Default::default());
            let stop = Arc::new(AtomicBool::new(false));
            let mut workers = Vec::new();
            for c in 0..load_clients {
                let ep = net.register(NodeId::named(NodeId::CLASS_CLIENT, c as u64 + 1));
                let dir = h.directory.clone();
                let stop = Arc::clone(&stop);
                workers.push(std::thread::spawn(move || {
                    let mut n = 0u64;
                    let mut i = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        i += 1;
                        if request_order(
                            &ep,
                            &dir,
                            RoleId(1),
                            COLOR,
                            Token::new(FunctionId(c as u32 + 1), i),
                            1,
                            Duration::from_secs(2),
                        )
                        .is_ok()
                        {
                            n += 1;
                        }
                    }
                    n
                }));
            }
            let start = Instant::now();
            std::thread::sleep(load_time);
            stop.store(true, Ordering::Relaxed);
            let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
            let tput = total as f64 / start.elapsed().as_secs_f64();
            h.shutdown(&net);
            (interval, lat.mean(), tput)
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
            let net: Network<OrderMsg> = Network::new(NetConfig::datacenter());
            let spec = TreeSpec::chain(&[COLOR], depth);
            let h = OrderingService::start(&net, &spec, &Default::default());
            let ep = net.register(NodeId::named(NodeId::CLASS_CLIENT, 1));
            let leaf = spec.leaf_role();
            let mut lat = Series::new();
            for i in 0..samples {
                let start = Instant::now();
                request_order(
                    &ep,
                    &h.directory,
                    leaf,
                    COLOR,
                    Token::new(FunctionId(1), i as u32 + 1),
                    1,
                    Duration::from_secs(2),
                )
                .unwrap();
                lat.push(start.elapsed());
            }
            h.shutdown(&net);
            (depth, lat.mean())
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
