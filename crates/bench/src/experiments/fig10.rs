//! Figure 10 — replica recovery time vs number of records to recover.
//!
//! Paper setup: an artificial micro-benchmark reads all records from the
//! (crashed) PM log and applies them to a second file in PM; recovery time
//! grows roughly linearly with the record count (sequential replay).
//!
//! Here the log is what a replica really recovers from — records keyed by
//! sequence number in a [`PmPool`]. "Recovery" is `PmPool::open` on the
//! crashed device (the post-crash scan `StorageServer::recover` starts
//! with) plus re-applying every record into a second pool — the paper's
//! read-and-apply loop. Each size is the median of [`TRIALS`] runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_pm::{PmDevice, PmDeviceConfig, PmPool};

use crate::{fmt_duration, Series, Table};

const RECORD_BYTES: usize = 128;
const TRIALS: usize = 3;

/// Fills a pool with `n` records, crashes it, and measures open + replay.
fn measure(n: usize) -> Duration {
    // Size the device for the records, with room to spare.
    let capacity = ((n + 16) * (RECORD_BYTES + 64) * 2 + (1 << 20)).next_power_of_two();
    let device = || {
        Arc::new(PmDevice::new(PmDeviceConfig {
            capacity,
            ..Default::default()
        }))
    };
    let dev = device();
    let log = PmPool::create(Arc::clone(&dev));
    let payload = vec![0x42u8; RECORD_BYTES];
    for seq in 0..n as u128 {
        log.put(seq, &payload).expect("append");
    }
    drop(log);
    dev.crash();
    let target_dev = device();

    let start = Instant::now();
    // 1. Post-crash recovery scan of the source log.
    let recovered = PmPool::open(dev);
    // 2. Read every record in order and apply it to the second PM file.
    let target = PmPool::create(target_dev);
    let mut keys = recovered.keys();
    keys.sort_unstable();
    for key in keys {
        let record = recovered.get(key).expect("recovered key readable");
        target.put(key, &record).expect("apply");
    }
    let elapsed = start.elapsed();
    assert_eq!(target.len(), n, "all records must be re-applied");
    elapsed
}

pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[100, 1_000, 5_000, 10_000]
    } else {
        &[100, 1_000, 5_000, 10_000, 100_000, 1_000_000]
    };
    let mut t = Table::new(
        &format!(
            "Figure 10: recovery time vs records to recover, median of {TRIALS} (paper: ~linear growth)"
        ),
        &["records", "recovery time", "us/record"],
    );
    for &n in sizes {
        let mut secs = Series::new();
        for _ in 0..TRIALS {
            secs.push(measure(n).as_secs_f64());
        }
        let median = secs.median();
        t.row(vec![
            n.to_string(),
            fmt_duration(Duration::from_secs_f64(median)),
            format!("{:.2}", median * 1e6 / n as f64),
        ]);
    }
    vec![t]
}
