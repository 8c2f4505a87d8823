//! What a committed record costs a replica's storage server once live PM
//! bytes sit at the spill watermark — the regime every `benchmark/`
//! workload runs in, and one the isolated `storage.stage_commit_us` driver
//! never reaches (its 4 000 records stay below the watermark).
//!
//! Default `StorageConfig` under `ClockMode::Spin`, `stage` ×5 +
//! `commit_many`, 140 000 records of 256 B; every 20 000 it prints the wall
//! µs, the PM bytes, device writes and device reads per record, and the
//! records the pool copied forward over that stretch. One color first, then
//! a line for the last stretch of the same run with four colors taking
//! turns by batch, which shows whether the spill order leaves the pool
//! anything to copy. Public API only, so the same file measures any commit:
//!
//! ```sh
//! cargo run --release -p flexlog-storage --example regime_probe
//! ```
//!
//! In steady state on a 2-vCPU VM a record costs 4.8–5.6 µs (median 5.2 over
//! 15 stretches), 744 PM bytes, 2.44 device writes and 1.00 device read (the
//! spill reading it), and nothing is copied, with one color or four. It was
//! 8.7–9.3 µs and 2.00 reads before the commit stopped reading the staged
//! batch back, the CRC went to slicing-by-8 and a spill batch became one SSD
//! write.

use std::sync::atomic::Ordering;
use std::time::Instant;

use flexlog_pm::ClockMode;
use flexlog_storage::{StorageConfig, StorageServer};
use flexlog_types::{ColorId, Epoch, FunctionId, Payload, SeqNum, Token};

const RECORDS: u32 = 140_000;
const REPORT_EVERY: u32 = 20_000;
const BATCH: u32 = 5;

fn main() {
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>11} {:>11}",
        "records", "us/rec", "pm B/rec", "writes/rec", "reads/rec", "copied/rec"
    );
    run(1, |row| println!("{row}"));
    let mut last = String::new();
    run(4, |row| last = row);
    println!("4 colors, last stretch:\n{last}");
}

/// The probe over `colors` colors, taking turns by batch; hands `report`
/// one table row per stretch.
fn run(colors: u32, mut report: impl FnMut(String)) {
    let server = StorageServer::new(StorageConfig {
        clock: ClockMode::Spin,
        ..StorageConfig::default()
    });
    let pm = server.devices().0;
    let counts = || {
        let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        let copied = server.obs().snapshot().counter("storage.pm_reclaim_copied");
        [
            load(&pm.stats.bytes_written),
            load(&pm.stats.writes),
            load(&pm.stats.reads),
            copied,
        ]
    };
    let payload = Payload::from(vec![0xA5u8; 256]);

    let (mut since, mut before) = (Instant::now(), counts());
    for first in (1..=RECORDS).step_by(BATCH as usize) {
        let color = ColorId(1 + first / BATCH % colors);
        let items: Vec<(Token, SeqNum)> = (first..first + BATCH)
            .map(|n| {
                let token = Token::new(FunctionId(1), n);
                server
                    .stage(token, color, std::slice::from_ref(&payload))
                    .expect("stage");
                (token, SeqNum::new(Epoch(1), n))
            })
            .collect();
        for result in server.commit_many(&items) {
            result.expect("commit");
        }
        let done = first + BATCH - 1;
        if done.is_multiple_of(REPORT_EVERY) {
            let per_rec = |v: f64| v / REPORT_EVERY as f64;
            let now = counts();
            report(format!(
                "{:>8} {:>10.2} {:>12.0} {:>12.2} {:>11.2} {:>11.2}",
                done,
                per_rec(since.elapsed().as_secs_f64() * 1e6),
                per_rec((now[0] - before[0]) as f64),
                per_rec((now[1] - before[1]) as f64),
                per_rec((now[2] - before[2]) as f64),
                per_rec((now[3] - before[3]) as f64),
            ));
            (since, before) = (Instant::now(), now);
        }
    }
}
