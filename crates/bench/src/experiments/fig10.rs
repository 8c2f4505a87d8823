//! Figure 10 — replica recovery time vs number of records to recover.
//!
//! Paper setup: an artificial micro-benchmark reads all records from the
//! (crashed) PM log and applies them to a second file in PM; recovery time
//! grows roughly linearly with the record count (sequential replay).
//!
//! Here the replica's log is a [`PmLog`]; "recovery" is `PmLog::open`
//! (post-crash scan + index rebuild) plus replaying every record into a
//! second PM pool — exactly the paper's read-and-apply loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_pm::{PmDevice, PmDeviceConfig, PmLog, PmLogConfig, PmPool};

use crate::{fmt_duration, Table};

const RECORD_BYTES: usize = 128;

/// Builds a log with `n` records, crashes it, and measures open + replay.
fn measure(n: usize) -> Duration {
    // Size the device for the records, with room to spare.
    let capacity = ((n + 16) * (RECORD_BYTES + 64) * 2 + (1 << 20)).next_power_of_two();
    let dev = Arc::new(PmDevice::new(PmDeviceConfig {
        capacity,
        ..Default::default()
    }));
    let log = PmLog::create(Arc::clone(&dev), PmLogConfig::default());
    let payload = vec![0x42u8; RECORD_BYTES];
    for _ in 0..n {
        log.append(&payload).expect("append");
    }
    drop(log);
    dev.crash();

    let target_dev = Arc::new(PmDevice::new(PmDeviceConfig {
        capacity,
        ..Default::default()
    }));

    let start = Instant::now();
    // 1. Post-crash recovery scan of the source log.
    let recovered = PmLog::open(Arc::clone(&dev), PmLogConfig::default());
    // 2. Sequentially read every record and apply it to the second PM file.
    let target = PmPool::create(target_dev);
    for entry in recovered.iter_from(0) {
        target.put(entry.seq as u128, &entry.payload).expect("apply");
    }
    let elapsed = start.elapsed();
    assert_eq!(target.len(), n, "all records must be re-applied");
    elapsed
}

pub fn measure_all(quick: bool) -> Vec<(usize, Duration)> {
    let sizes: &[usize] = if quick {
        &[100, 1_000, 5_000, 10_000]
    } else {
        &[100, 1_000, 5_000, 10_000, 100_000, 1_000_000]
    };
    sizes.iter().map(|&n| (n, measure(n))).collect()
}

pub fn run(quick: bool) -> Vec<Table> {
    let rows = measure_all(quick);
    let mut t = Table::new(
        "Figure 10: recovery time vs records to recover (paper: ~linear growth)",
        &["records", "recovery time", "us/record"],
    );
    for (n, d) in &rows {
        t.row(vec![
            n.to_string(),
            fmt_duration(*d),
            format!("{:.2}", d.as_micros() as f64 / *n as f64),
        ]);
    }
    vec![t]
}
