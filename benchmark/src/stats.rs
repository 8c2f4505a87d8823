//! Sample arithmetic shared by the workloads and the layer drivers.

use std::time::Instant;

/// One completed operation of a timed window.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Completion time, ns since the window opened.
    pub done_ns: u64,
    /// Call-to-return latency (push: stamp-to-delivery), ns.
    pub lat_ns: u64,
}

/// Latency and goodput of one operation type over a timed window.
#[derive(Clone, Copy, Default)]
pub struct OpStats {
    pub p50_us: f64,
    pub p99_us: f64,
    /// Completed operations per second.
    pub goodput: f64,
    /// Samples inside the window (all slices).
    pub samples: u64,
}

/// Value at quantile `q` (0..=1) of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of ns timings, in µs.
pub fn median_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    quantile(ns, 0.5) / 1e3
}

/// Cuts the window into `slices` equal parts by completion time, takes p50,
/// p99 and goodput of each part and reports the **median part**. One
/// scheduler stall of this shared host lands in one part and leaves the
/// median alone; a real slowdown moves every part.
pub fn slice_stats(op: &str, samples: &[Sample], window_ns: u64, slices: usize) -> OpStats {
    let width = window_ns / slices as u64;
    let mut parts: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for s in samples {
        let i = (s.done_ns / width.max(1)) as usize;
        if i < slices {
            parts[i].push(s.lat_ns);
        }
    }
    let (mut p50, mut p99, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut total = 0u64;
    for part in &mut parts {
        part.sort_unstable();
        total += part.len() as u64;
        p50.push(quantile(part, 0.50) / 1e3);
        p99.push(quantile(part, 0.99) / 1e3);
        rate.push(part.len() as f64 / (width as f64 / 1e9));
    }
    eprintln!("{op} per part: p50 us {p50:.0?}  p99 us {p99:.0?}  ops/s {rate:.0?}");
    OpStats {
        p50_us: median(&p50),
        p99_us: median(&p99),
        goodput: median(&rate),
        samples: total,
    }
}

/// Goodput (ops/s) over the parts of the window for which `is_on` is false
/// and over those for which it is true.
pub fn goodput_split(
    samples: &[Sample],
    window_ns: u64,
    slices: usize,
    is_on: fn(u64) -> bool,
) -> (f64, f64) {
    let width = (window_ns / slices as u64).max(1);
    let mut counts = [0u64; 2];
    for s in samples.iter().filter(|s| s.done_ns < width * slices as u64) {
        counts[usize::from(is_on(s.done_ns / width))] += 1;
    }
    let parts_on = (0..slices as u64).filter(|&i| is_on(i)).count();
    let secs = |parts: usize| parts as f64 * width as f64 / 1e9;
    (
        ratio(counts[0] as f64, secs(slices - parts_on)),
        ratio(counts[1] as f64, secs(parts_on)),
    )
}

/// `VmHWM` of this process in MiB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds from `epoch` to now.
#[inline]
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// `num / den`, or 0 when the denominator is 0 (a ratio with no base).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
