//! Figure 8 — append/read latency vs replication factor (one shard, all
//! replicas on the root sequencer, 95 %W / 5 %R, 1 KiB records).
//!
//! Expected shape: read latency stays flat (local reads on one replica);
//! append latency is stable up to 3 replicas and roughly doubles towards
//! 4–8, because the append broadcast serializes one copy of the record per
//! replica onto the client NIC and completes only when *all* replicas ack.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexlog_core::{ClusterSpec, FlexLogCluster};
use flexlog_simnet::{LinkConfig, NetConfig};
use flexlog_types::{ColorId, SeqNum};

use crate::{fmt_duration, Series, Table};

const COLOR: ColorId = ColorId(1);

pub struct Fig8Row {
    pub replicas: usize,
    pub append_mean: Duration,
    pub read_mean: Duration,
}

/// Runs the 95 %W / 5 %R workload against one shard with `r` replicas.
fn measure(r: usize, ops: usize) -> Fig8Row {
    let spec = ClusterSpec {
        replication_factor: r,
        net: NetConfig {
            link: LinkConfig {
                delay: Duration::from_micros(25),
                jitter: Duration::from_micros(5),
                // 1 KiB record + framing on a 10 Gbps NIC, per copy.
                serialize: Duration::from_micros(25),
            },
            seed: Some(8),
        },
        ..ClusterSpec::single_shard()
    };
    let cluster = FlexLogCluster::start(spec);
    cluster.add_color(COLOR).unwrap();
    let mut h = cluster.handle();
    let payload = vec![0xB7u8; 1024];

    let mut appends = Series::new();
    let mut reads = Series::new();
    let mut written: Vec<SeqNum> = Vec::new();
    let mut rng = StdRng::seed_from_u64(88);

    // Warm-up.
    written.push(h.append(&payload, COLOR).unwrap());

    for _ in 0..ops {
        if rng.gen_range(0..100) < 5 {
            let sn = written[rng.gen_range(0..written.len())];
            let start = Instant::now();
            let v = h.read(sn, COLOR).unwrap();
            reads.push(start.elapsed().as_secs_f64());
            assert!(v.is_some(), "committed record must be readable");
        } else {
            let start = Instant::now();
            let sn = h.append(&payload, COLOR).unwrap();
            appends.push(start.elapsed().as_secs_f64());
            written.push(sn);
        }
    }
    cluster.shutdown();
    Fig8Row {
        replicas: r,
        append_mean: Duration::from_secs_f64(appends.mean()),
        read_mean: Duration::from_secs_f64(reads.mean()),
    }
}

pub fn measure_all(quick: bool) -> Vec<Fig8Row> {
    let ops = if quick { 40 } else { 250 };
    [2usize, 3, 4, 6, 8]
        .iter()
        .map(|&r| measure(r, ops))
        .collect()
}

pub fn run(quick: bool) -> Vec<Table> {
    let rows = measure_all(quick);
    let base = rows[0].append_mean;
    let mut t = Table::new(
        "Figure 8: latency vs replication factor (paper: reads flat; appends stable to r=3, ~2x at 4-8)",
        &["replicas", "append mean", "read mean", "append vs r=2"],
    );
    for r in &rows {
        t.row(vec![
            r.replicas.to_string(),
            fmt_duration(r.append_mean),
            fmt_duration(r.read_mean),
            format!(
                "{:.2}x",
                r.append_mean.as_nanos() as f64 / base.as_nanos().max(1) as f64
            ),
        ]);
    }
    vec![t]
}
