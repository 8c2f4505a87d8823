//! Shard-scaling curve (`BENCH_datapath.json`): pipelined append throughput
//! at 1, 2 and 4 shards, on both clocks.
//!
//! Wall clock on a small host cannot show shard scaling: total CPU work is
//! shard-independent, so every shard count saturates the same cores.
//! Following the virtual-clock substitution in DESIGN.md, every node accrues
//! a `node.busy_ns.*` counter (per-message / per-record handling costs plus
//! virtual PM device time), and the *modelled* rate is the workload divided
//! by the **busiest node's** busy time — the capacity of the pipeline's
//! bottleneck stage if every node ran on its own core. The gate is the
//! modelled 4-shard over 1-shard ratio; the wall rates and their ratio are
//! reported beside it, never instead of it.

use std::sync::Barrier;
use std::time::Instant;

use flexlog_core::FlexLogCluster;
use flexlog_types::{ColorId, Payload};

use crate::harness::{busiest_node, modelled_spec, Report, MODELLED, WALL};

/// Fixed workload shape: part of the tracked-bench contract; change it only
/// together with `BENCH_datapath.json`.
const PAYLOAD_BYTES: usize = 256;
const CLIENTS: usize = 4;
const COLORS: u32 = 4;
const RECORDS_PER_CLIENT: usize = 1500;
const QUICK_RECORDS_PER_CLIENT: usize = 150;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// (wall rec/s, modelled rec/s, bottleneck node) of one run.
fn run_pipelined(shards: usize, per_client: usize) -> (f64, f64, String) {
    let cluster = FlexLogCluster::start(modelled_spec(shards));
    for c in 1..=COLORS {
        cluster.add_color(ColorId(c)).unwrap();
    }

    let start = Barrier::new(CLIENTS + 1);
    let t0 = std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let mut handle = cluster.handle();
            let start = &start;
            s.spawn(move || {
                // One shared buffer per thread: every append broadcasts a
                // refcount bump of this allocation, never a byte copy.
                let payload = Payload::from(vec![0xA5u8; PAYLOAD_BYTES]);
                start.wait();
                let mut acked = 0;
                for i in 0..per_client {
                    let color = ColorId(1 + ((c as u32 + i as u32) % COLORS));
                    handle
                        .append_pipelined(std::slice::from_ref(&payload), color)
                        .expect("pipelined append");
                    acked += handle.take_completed_appends().len();
                }
                acked += handle.flush_appends().expect("flush pipelined appends").len();
                assert_eq!(acked, per_client, "every append must be acknowledged");
            });
        }
        start.wait();
        Instant::now()
    });
    // The scope joined every client before it returned.
    let elapsed = t0.elapsed();
    let (node, busy_ns) = busiest_node(&cluster);
    cluster.shutdown();

    let records = (CLIENTS * per_client) as f64;
    (records / elapsed.as_secs_f64(), records / (busy_ns as f64 / 1e9), node)
}

pub fn run(quick: bool) -> Report {
    let per_client = if quick { QUICK_RECORDS_PER_CLIENT } else { RECORDS_PER_CLIENT };
    let mut report = Report::new("datapath", quick);

    for trial in 0..report.trials {
        // Alternate which end of the curve runs first, so a host that
        // drifts over the trial does not always favour one shard count.
        let mut order = SHARD_COUNTS;
        if trial % 2 == 1 {
            order.reverse();
        }
        // Indexed by shard count.
        let (mut wall, mut modelled) = ([0.0; 5], [0.0; 5]);
        for shards in order {
            let (w, m, node) = run_pipelined(shards, per_client);
            eprintln!(
                "datapath trial {trial}: {shards} shard(s) {w:>8.0} rec/s wall, {m:>8.0} modelled \
                 (bottleneck {node})"
            );
            (wall[shards], modelled[shards]) = (w, m);
        }
        for shards in SHARD_COUNTS {
            report.record(&format!("wall_rec_per_s_shards_{shards}"), "rec/s", WALL, wall[shards]);
            report.record(
                &format!("modelled_rec_per_s_shards_{shards}"),
                "rec/s",
                MODELLED,
                modelled[shards],
            );
        }
        report.record("scaling_4x_over_1x", "x", MODELLED, modelled[4] / modelled[1]);
        report.record("wall_scaling_4x_over_1x", "x", WALL, wall[4] / wall[1]);
    }
    report
}
