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
pub fn fig5(quick: bool) -> Vec<(usize, f64, f64)> {
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
pub fn fig6(quick: bool) -> Vec<(usize, f64, f64)> {
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

/// Figure 7: throughput vs read percentage, 1 KiB records, single thread.
pub fn fig7(quick: bool) -> Vec<(u32, f64, f64)> {
    let ratios = [0u32, 25, 50, 75, 90, 95, 99];
    let preload = if quick { 2_000u64 } else { 10_000 };
    let ops = if quick { 4_000 } else { 20_000 };
    ratios
        .iter()
        .map(|&reads_pct| {
            // FlexLog side.
            let flex = flexlog_server();
            let payload = Payload::from(vec![0x3Cu8; 1024]);
            for i in 0..preload {
                flex.import(COLOR, sn(i + 1), Token::new(FunctionId(1), i as u32), &payload)
                    .expect("preload");
            }
            let rng = std::sync::Mutex::new(StdRng::seed_from_u64(5));
            let f = run_virtual(1, ops, |_, i| {
                let (is_read, key) = {
                    let mut r = rng.lock().unwrap();
                    (r.gen_range(0..100) < reads_pct, r.gen_range(0..preload))
                };
                if is_read {
                    let _ = flex.get(COLOR, sn(key + 1));
                } else {
                    flex.import(
                        COLOR,
                        sn(preload + i + 1),
                        Token::new(FunctionId(2), i as u32),
                        &payload,
                    )
                    .expect("import");
                }
            });
            // Boki side.
            let db = boki_db();
            let payload2 = vec![0x3Cu8; 1024];
            for i in 0..preload {
                db.put(&i.to_le_bytes(), &payload2).expect("preload");
            }
            let rng2 = std::sync::Mutex::new(StdRng::seed_from_u64(5));
            let b = run_virtual(1, ops, |_, i| {
                let (is_read, key) = {
                    let mut r = rng2.lock().unwrap();
                    (r.gen_range(0..100) < reads_pct, r.gen_range(0..preload))
                };
                if is_read {
                    let _ = db.get(&key.to_le_bytes());
                } else {
                    db.put(&(preload + i).to_le_bytes(), &payload2).expect("put");
                }
            });
            (reads_pct, f, b)
        })
        .collect()
}

pub fn run(quick: bool) -> Vec<Table> {
    let mut t5 = Table::new(
        "Figure 5: storage throughput vs record size (paper: FlexLog ~10x Boki)",
        &["record(B)", "FlexLog (PM)", "Boki (LSM/SSD)", "gap"],
    );
    for (size, f, b) in fig5(quick) {
        t5.row(vec![
            size.to_string(),
            fmt_ops(f),
            fmt_ops(b),
            format!("{:.1}x", f / b.max(1.0)),
        ]);
    }
    let mut t6 = Table::new(
        "Figure 6: storage throughput vs threads (paper: both scale, gap >10x)",
        &["threads", "FlexLog (PM)", "Boki (LSM/SSD)", "gap"],
    );
    for (n, f, b) in fig6(quick) {
        t6.row(vec![
            n.to_string(),
            fmt_ops(f),
            fmt_ops(b),
            format!("{:.1}x", f / b.max(1.0)),
        ]);
    }
    let mut t7 = Table::new(
        "Figure 7: storage throughput vs read ratio (paper: read-heavy faster on both)",
        &["reads %", "FlexLog (PM)", "Boki (LSM/SSD)", "gap"],
    );
    for (r, f, b) in fig7(quick) {
        t7.row(vec![
            format!("{r}%"),
            fmt_ops(f),
            fmt_ops(b),
            format!("{:.1}x", f / b.max(1.0)),
        ]);
    }
    vec![t5, t6, t7]
}
