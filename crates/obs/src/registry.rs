//! Lock-cheap metrics: atomic counters, gauges and log-bucketed histograms,
//! collected under string names in a [`Registry`].
//!
//! The registry hands out *fresh* handles on every `counter()` /
//! `histogram()` call and remembers all handles registered under a name.
//! Each subsystem therefore increments its own private atomics on the hot
//! path (no shared cache line between, say, two storage servers), and
//! [`Registry::snapshot`] aggregates across all handles of a name — one
//! cluster-wide surface without hot-path contention.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Bound;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

// -------------------------------------------------------------- counter ----

/// A monotonically increasing `u64`. API-compatible with the `AtomicU64`
/// it replaces in `StorageStats`: call sites using
/// `load(Ordering::Relaxed)` / `fetch_add(n, Ordering::Relaxed)` compile
/// unchanged.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// `AtomicU64`-compatible accessor (the ordering is accepted and
    /// honoured, though every counter use in FlexLog is relaxed).
    #[inline]
    pub fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }

    /// `AtomicU64`-compatible mutator.
    #[inline]
    pub fn fetch_add(&self, n: u64, order: Ordering) -> u64 {
        self.0.fetch_add(n, order)
    }

    /// `AtomicU64`-compatible store (used by recovery paths that rebuild
    /// counters from persistent state).
    #[inline]
    pub fn store(&self, n: u64, order: Ordering) {
        self.0.store(n, order)
    }
}

// ---------------------------------------------------------------- gauge ----

/// A signed instantaneous value (queue depths, live bytes).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ------------------------------------------------------------ histogram ----

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per power of two, i.e. a
/// relative bucket width of at most 12.5%.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Values `< 8` get exact buckets `0..8`; each exponent `3..=63` gets a
/// group of 8 sub-buckets: 8 + 61*8 = indices `0..496`.
pub const NUM_BUCKETS: usize = SUB * 62;

/// Index of the log-scale bucket containing `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        ((exp - SUB_BITS) as usize + 1) * SUB + sub
    }
}

/// Inclusive `[lo, hi]` value range covered by bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        (idx as u64, idx as u64)
    } else {
        let group = (idx / SUB) as u32; // >= 1
        let sub = (idx % SUB) as u64;
        let exp = group - 1 + SUB_BITS;
        let width = 1u64 << (exp - SUB_BITS);
        let lo = (1u64 << exp) + sub * width;
        (lo, lo.saturating_add(width - 1))
    }
}

struct HistogramInner {
    buckets: Vec<AtomicU64>, // NUM_BUCKETS
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Log-bucketed latency histogram. Recording is three relaxed atomic adds
/// plus a `fetch_max`; no locks. Percentiles are accurate to within one
/// bucket width (≤ 12.5% relative error) — see the property test.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={})", self.count())
    }
}

impl Histogram {
    pub fn new() -> Self {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        let i = &self.inner;
        i.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        i.count.fetch_add(1, Ordering::Relaxed);
        i.sum.fetch_add(v, Ordering::Relaxed);
        i.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a `Duration` as nanoseconds.
    #[inline]
    pub fn record_ns(&self, d: std::time::Duration) {
        self.record(d.as_nanos() as u64);
    }

    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Value at percentile `p` (0..=100): the upper bound of the bucket
    /// holding the rank-`ceil(p/100·n)` sample, clamped to the observed
    /// max. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let mut merged = vec![0u64; NUM_BUCKETS];
        self.merge_into(&mut merged);
        percentile_of(&merged, self.count(), self.max(), p)
    }

    /// Add this histogram's bucket counts into `dst` (len `NUM_BUCKETS`).
    pub fn merge_into(&self, dst: &mut [u64]) {
        for (d, b) in dst.iter_mut().zip(self.inner.buckets.iter()) {
            *d += b.load(Ordering::Relaxed);
        }
    }

    pub fn summary(&self) -> HistogramSummary {
        let mut merged = vec![0u64; NUM_BUCKETS];
        self.merge_into(&mut merged);
        summarize(&merged, self.count(), self.sum(), self.max())
    }
}

fn percentile_of(buckets: &[u64], count: u64, max: u64, p: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * count as f64).ceil() as u64;
    let rank = rank.clamp(1, count);
    let mut cum = 0u64;
    for (idx, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            let (_, hi) = bucket_bounds(idx);
            return hi.min(max);
        }
    }
    max
}

fn summarize(buckets: &[u64], count: u64, sum: u64, max: u64) -> HistogramSummary {
    HistogramSummary {
        count,
        sum,
        max,
        p50: percentile_of(buckets, count, max, 50.0),
        p90: percentile_of(buckets, count, max, 90.0),
        p99: percentile_of(buckets, count, max, 99.0),
    }
}

/// Point-in-time percentile digest of one histogram name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistogramSummary {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ------------------------------------------------------------- registry ----

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Vec<Counter>>,
    gauges: BTreeMap<String, Vec<Gauge>>,
    histograms: BTreeMap<String, Vec<Histogram>>,
}

/// Named-metric registry. `Clone` shares the underlying store; the inner
/// mutex is only taken at registration and snapshot time, never on the
/// record path.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry")
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh counter aggregated under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let c = Counter::new();
        self.inner
            .lock()
            .unwrap()
            .counters
            .entry(name.to_string())
            .or_default()
            .push(c.clone());
        c
    }

    /// A fresh gauge aggregated under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let g = Gauge::new();
        self.inner
            .lock()
            .unwrap()
            .gauges
            .entry(name.to_string())
            .or_default()
            .push(g.clone());
        g
    }

    /// A fresh histogram aggregated under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let h = Histogram::new();
        self.inner
            .lock()
            .unwrap()
            .histograms
            .entry(name.to_string())
            .or_default()
            .push(h.clone());
        h
    }

    /// Aggregate every registered handle into one value per name.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        let counters = inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.iter().map(Counter::get).sum()))
            .collect();
        let gauges = inner
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), v.iter().map(Gauge::get).sum()))
            .collect();
        let histograms = inner
            .histograms
            .iter()
            .map(|(k, v)| {
                let mut merged = vec![0u64; NUM_BUCKETS];
                let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
                for h in v {
                    h.merge_into(&mut merged);
                    count += h.count();
                    sum += h.sum();
                    max = max.max(h.max());
                }
                (k.clone(), summarize(&merged, count, sum, max))
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

// ------------------------------------------------------------- snapshot ----

/// Aggregated point-in-time view of every metric in a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Counter value, 0 if the name was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The family of counters registered as `<prefix><id>` — one per color,
    /// say, under `seq.color_sns.` — as `(id, value)` pairs in name order.
    /// Names under the prefix whose suffix is not a decimal id are skipped.
    pub fn counters_by_id<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (u32, u64)> + 'a {
        self.counters
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map_while(move |(name, &value)| Some((name.strip_prefix(prefix)?, value)))
            .filter_map(|(id, value)| Some((id.parse().ok()?, value)))
    }

    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Human-readable report, one metric per line, stable ordering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter   {k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge     {k} = {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {k} count={} p50={}ns p90={}ns p99={}ns max={}ns mean={:.0}ns",
                h.count,
                h.p50,
                h.p90,
                h.p99,
                h.max,
                h.mean()
            );
        }
        out
    }

    /// Machine-readable JSON report, metrics in name order.
    pub fn render_json(&self) -> String {
        let hist = |h: &HistogramSummary| {
            let names = ["count", "p50_ns", "p90_ns", "p99_ns", "max_ns", "sum_ns"];
            let values = [h.count, h.p50, h.p90, h.p99, h.max, h.sum];
            Json::obj(names.into_iter().zip(values.map(Json::from)))
        };
        let report = Json::obj([
            ("counters", Json::obj(self.counters.iter().map(|(k, &v)| (k.as_str(), v.into())))),
            ("gauges", Json::obj(self.gauges.iter().map(|(k, &v)| (k.as_str(), v.into())))),
            ("histograms", Json::obj(self.histograms.iter().map(|(k, h)| (k.as_str(), hist(h))))),
        ]);
        report.render() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in (0..10_000u64)
            .chain((0..54).map(|e| 1u64 << e))
            .chain((0..54).map(|e| (1u64 << e) + 1))
            .chain([u64::MAX, u64::MAX - 1, 1u64 << 63])
        {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "idx {idx} for {v}");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} not in [{lo}, {hi}] (idx {idx})");
        }
    }

    #[test]
    fn bucket_width_is_within_12_5_percent() {
        for idx in SUB..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            let width = hi - lo + 1;
            assert!(
                width as f64 <= lo as f64 / 8.0 + 1.0,
                "bucket {idx} [{lo},{hi}] too wide"
            );
        }
    }

    #[test]
    fn histogram_percentiles_on_uniform_values() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.percentile(50.0);
        // Exact p50 is 500; bucket width there is 64.
        assert!((436..=564).contains(&p50), "p50 = {p50}");
        let p100 = h.percentile(100.0);
        assert_eq!(p100, 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn registry_aggregates_across_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.add(4);
        let g1 = r.gauge("depth");
        let g2 = r.gauge("depth");
        g1.set(5);
        g2.set(-2);
        let h1 = r.histogram("lat");
        let h2 = r.histogram("lat");
        h1.record(10);
        h2.record(20);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x"), 7);
        assert_eq!(snap.gauge("depth"), 3);
        let h = snap.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 20);
        assert_eq!(snap.counter("never-registered"), 0);
    }

    #[test]
    fn counters_by_id_lists_one_family() {
        let r = Registry::new();
        r.counter("seq.color_sns.7").add(70);
        r.counter("seq.color_sns.12").add(120);
        r.counter("seq.color_sns.total").add(1); // not an id: skipped
        r.counter("seq.color_snsX").add(1); // a different name altogether
        r.counter("seq.batches").add(1);
        r.counter("storage.color_reads.7").add(3);
        let snap = r.snapshot();
        let sns: Vec<(u32, u64)> = snap.counters_by_id("seq.color_sns.").collect();
        assert_eq!(sns, vec![(12, 120), (7, 70)], "name order, ids parsed");
        let reads: Vec<(u32, u64)> = snap.counters_by_id("storage.color_reads.").collect();
        assert_eq!(reads, vec![(7, 3)]);
        assert_eq!(snap.counters_by_id("nope.").count(), 0);
    }

    #[test]
    fn counter_is_atomicu64_compatible() {
        let c = Counter::new();
        c.fetch_add(5, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 5);
        c.store(2, Ordering::Relaxed);
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn reports_render_all_metric_kinds() {
        let r = Registry::new();
        r.counter("net.sent").add(9);
        r.gauge("pm.live").set(1024);
        r.histogram("lat").record(100);
        let snap = r.snapshot();
        let text = snap.render_text();
        assert!(text.contains("net.sent = 9"));
        assert!(text.contains("pm.live = 1024"));
        assert!(text.contains("histogram lat count=1"));
        let json = snap.render_json();
        assert!(json.contains("\"net.sent\": 9"));
        assert!(json.contains("\"p99_ns\""));
    }
}
