//! Figures 5–7 — storage-layer throughput: FlexLog (PM) vs Boki (RocksDB).
//!
//! Paper setup: db_bench-style KV workloads with uniform keys against (i)
//! FlexLog's PM-backed storage tier and (ii) RocksDB with a 64 MiB memtable
//! and the WAL enabled, on SSD. Expected shapes:
//!
//! * Fig 5 — throughput vs record size (64 B–8 KiB): FlexLog ≈ 10× Boki,
//!   both relatively flat in record size;
//! * Fig 6 — throughput vs threads (1–12): both scale, gap stays > 10×;
//! * Fig 7 — throughput vs read ratio (0–99 %): read-heavy workloads are
//!   faster on both engines (DRAM cache / memtable + page cache).
//!
//! Devices run in **virtual-clock** mode: every operation charges its
//! modelled device time to the calling thread, and throughput is
//! `ops ÷ max(per-thread device time)`. On this single-CPU host that
//! preserves the thread-scaling shape the paper measured on 12-core nodes
//! (see DESIGN.md, substitution table).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexlog_baselines::lsm::{Db, LsmConfig};
use flexlog_pm::{virtual_time, ClockMode, LatencyModel};
use flexlog_storage::{StorageConfig, StorageServer};
use flexlog_types::{ColorId, Epoch, FunctionId, Payload, SeqNum, Token};

use crate::{fmt_ops, Table};

const COLOR: ColorId = ColorId(1);

fn flexlog_server() -> Arc<StorageServer> {
    Arc::new(StorageServer::new(StorageConfig {
        pm_capacity: 512 << 20,
        pm_latency: LatencyModel::pm_bypass(),
        cache_capacity: 64 << 20,
        pm_watermark: 200 << 20, // stay on PM like the paper's 800 GB DIMMs
        clock: ClockMode::Virtual,
        obs: Default::default(),
        tier: None,
    }))
}

fn boki_db() -> Arc<Db> {
    Arc::new(Db::create(LsmConfig {
        clock: ClockMode::Virtual,
        ..LsmConfig::boki()
    }))
}

fn sn(i: u64) -> SeqNum {
    SeqNum::new(Epoch(1), i as u32)
}

/// Runs `ops` operations split over `threads` workers against `work`;
/// returns ops/sec derived from the busiest worker's virtual device time.
fn run_virtual<F>(threads: usize, ops: usize, work: F) -> f64
where
    F: Fn(usize, u64) + Sync,
{
    let per_thread = ops / threads;
    let max_ns = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let work = &work;
            handles.push(s.spawn(move || {
                virtual_time::take();
                for i in 0..per_thread as u64 {
                    work(t, i);
                }
                virtual_time::take()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .max()
            .unwrap_or(1)
    });
    (per_thread * threads) as f64 / (max_ns.max(1) as f64 / 1e9)
}

/// Figure 5: write throughput vs record size, single thread.
fn fig5_rows(quick: bool) -> Vec<(usize, f64, f64)> {
    let sizes = [64usize, 128, 512, 1024, 2048, 4096, 8192];
    let base_ops = if quick { 2_000 } else { 20_000 };
    sizes
        .iter()
        .map(|&size| {
            // Bound total bytes so the biggest sizes stay in budget.
            let ops = (base_ops.min(64 * base_ops / (size / 64 + 1))).max(500);
            let flex = flexlog_server();
            let payload = Payload::from(vec![0xCDu8; size]);
            let f = run_virtual(1, ops, |_, i| {
                flex.import(COLOR, sn(i + 1), Token::new(FunctionId(1), i as u32), &payload)
                    .expect("import");
            });
            let db = boki_db();
            let payload2 = vec![0xCDu8; size];
            let b = run_virtual(1, ops, |_, i| {
                db.put(&i.to_le_bytes(), &payload2).expect("put");
            });
            (size, f, b)
        })
        .collect()
}

/// Figure 6: write throughput vs thread count, 1 KiB records.
fn fig6_rows(quick: bool) -> Vec<(usize, f64, f64)> {
    let threads = [1usize, 2, 4, 6, 8, 10, 12];
    let ops = if quick { 4_000 } else { 24_000 };
    threads
        .iter()
        .map(|&n| {
            let flex = flexlog_server();
            let payload = Payload::from(vec![0xEFu8; 1024]);
            let f = run_virtual(n, ops, |t, i| {
                let key = (t as u64) << 24 | (i + 1);
                flex.import(
                    COLOR,
                    sn(key),
                    Token::new(FunctionId(t as u32 + 1), i as u32),
                    &payload,
                )
                .expect("import");
            });
            let db = boki_db();
            let payload2 = vec![0xEFu8; 1024];
            let b = run_virtual(n, ops, |t, i| {
                let key = ((t as u64) << 24 | i).to_le_bytes();
                db.put(&key, &payload2).expect("put");
            });
            (n, f, b)
        })
        .collect()
}

/// Single-thread throughput of `ops` operations, `reads_pct` % of them a
/// `read` of a random preloaded key and the rest the `i`-th `write`.
fn run_mix<R, W>(reads_pct: u32, preload: u64, ops: usize, read: R, write: W) -> f64
where
    R: Fn(u64) + Sync,
    W: Fn(u64) + Sync,
{
    let rng = std::sync::Mutex::new(StdRng::seed_from_u64(5));
    run_virtual(1, ops, |_, i| {
        let (is_read, key) = {
            let mut r = rng.lock().unwrap();
            (r.gen_range(0..100) < reads_pct, r.gen_range(0..preload))
        };
        if is_read {
            read(key)
        } else {
            write(i)
        }
    })
}

/// Figure 7: throughput vs read percentage, 1 KiB records, single thread.
fn fig7_rows(quick: bool) -> Vec<(u32, f64, f64)> {
    let ratios = [0u32, 25, 50, 75, 90, 95, 99];
    let preload = if quick { 2_000u64 } else { 10_000 };
    let ops = if quick { 4_000 } else { 20_000 };
    ratios
        .iter()
        .map(|&reads_pct| {
            let flex = flexlog_server();
            let payload = Payload::from(vec![0x3Cu8; 1024]);
            let import = |key: u64, function: u32, i: u64| {
                let token = Token::new(FunctionId(function), i as u32);
                flex.import(COLOR, sn(key), token, &payload).expect("import");
            };
            (0..preload).for_each(|i| import(i + 1, 1, i));
            let read = |key| drop(flex.get(COLOR, sn(key + 1)));
            let f = run_mix(reads_pct, preload, ops, read, |i| import(preload + i + 1, 2, i));

            let db = boki_db();
            let payload2 = vec![0x3Cu8; 1024];
            let put = |key: u64| db.put(&key.to_le_bytes(), &payload2).expect("put");
            (0..preload).for_each(put);
            let read = |key: u64| drop(db.get(&key.to_le_bytes()));
            let b = run_mix(reads_pct, preload, ops, read, |i| put(preload + i));
            (reads_pct, f, b)
        })
        .collect()
}

/// One FlexLog-vs-Boki throughput table over the x axis `x`.
fn table<X: ToString>(title: &str, x: &str, rows: Vec<(X, f64, f64)>) -> Vec<Table> {
    let mut t = Table::new(title, &[x, "FlexLog (PM)", "Boki (LSM/SSD)", "gap"]);
    for (x, f, b) in rows {
        t.row(vec![x.to_string(), fmt_ops(f), fmt_ops(b), format!("{:.1}x", f / b.max(1.0))]);
    }
    vec![t]
}

pub fn fig5(quick: bool) -> Vec<Table> {
    let title = "Figure 5: storage throughput vs record size (paper: FlexLog ~10x Boki)";
    table(title, "record(B)", fig5_rows(quick))
}

pub fn fig6(quick: bool) -> Vec<Table> {
    let title = "Figure 6: storage throughput vs threads (paper: both scale, gap >10x)";
    table(title, "threads", fig6_rows(quick))
}

pub fn fig7(quick: bool) -> Vec<Table> {
    let title = "Figure 7: storage throughput vs read ratio (paper: read-heavy faster on both)";
    let rows = fig7_rows(quick).into_iter().map(|(pct, f, b)| (format!("{pct}%"), f, b));
    table(title, "reads %", rows.collect())
}
