//! Tiering (`BENCH_tiering.json`): what a cold read costs and what the
//! archiver costs the hot path.
//!
//! 1. **Cold-read cost** — a random point read served by the archive
//!    read-through (a manifest-guided segment fetch from the object store)
//!    against the same read on an SSD-resident log (one NVMe block read).
//!    Both are read on the virtual device clock, where a read costs what
//!    the latency model says and nothing else: each is **one modelled
//!    constant**, measured once, not a distribution with percentiles.
//! 2. **Hot-append interference** — wall-clock append throughput on a hot
//!    color through the full cluster with the tick-paced [`ControlLoop`]
//!    archiving (a trickle keeps feeding a cold color beside the hot one),
//!    against the same workload with the loop idle. A trial is one
//!    cluster in which the two sides interleave in short slices (see
//!    [`hot_append_pair`]) and `hot_append_ratio` is the **median** of the
//!    per-trial on ÷ off ratios — real interference degrades every trial,
//!    one slow stretch of a shared host taints only its own. Gated at
//!    ≥ 0.8 at twice the steady-state archiving load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexlog_core::{ClusterSpec, FlexLogCluster};
use flexlog_ctrl::{ControlConfig, ControlLoop, ControlPlane, Policy};
use flexlog_pm::{virtual_time, ClockMode, DeviceClock, LatencyModel};
use flexlog_storage::{StorageConfig, StorageServer, TierConfig};
use flexlog_tier::{SimObjectStore, StoreLatencyModel};
use flexlog_types::{ColorId, Epoch, FunctionId, Payload, SeqNum, Token};

use crate::harness::{Report, MODELLED, WALL};
use crate::report::Series;

const COLD: ColorId = ColorId(1);
const HOT: ColorId = ColorId(2);
const PAYLOAD_BYTES: usize = 256;
const SEGMENT_RECORDS: usize = 64;
const SEED: u64 = 42;

const ARCHIVE_RECORDS: usize = 16_384;
const READS: usize = 2_000;
const HOT_SLICES: usize = 192;
const PREFILL: usize = 2_048;

/// Hot appends per slice. Short on purpose: the host's throughput drifts
/// over hundreds of milliseconds, and only slices shorter than the drift
/// put it on both sides of a pair (~30 ms here, still several archive
/// rounds). A longer run takes more slices, not longer ones.
const SLICE_APPENDS: usize = 125;

const QUICK_ARCHIVE_RECORDS: usize = 2_048;
const QUICK_READS: usize = 400;
const QUICK_HOT_SLICES: usize = 64;
const QUICK_PREFILL: usize = 512;

/// The median modelled cost, in µs, of `reads` random point reads over the
/// first `span` records of `server`'s cold color.
fn modelled_get_us(server: &StorageServer, span: u64, reads: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut us = Series::new();
    for _ in 0..reads {
        let i = rng.gen_range(0..span);
        virtual_time::take();
        let got = server.get(COLD, SeqNum::new(Epoch(1), i as u32 + 1)).expect("record readable");
        us.push(virtual_time::take() as f64 / 1e3);
        assert_eq!(got.len(), PAYLOAD_BYTES);
    }
    us.median()
}

/// A storage server on the virtual clock with PM in bypass mode, filled
/// with `records` cold records.
fn server(
    records: usize,
    cache_capacity: usize,
    pm_watermark: usize,
    tier: Option<TierConfig>,
) -> StorageServer {
    let server = StorageServer::new(StorageConfig {
        pm_capacity: (records * (PAYLOAD_BYTES + 64)).max(64 << 20),
        pm_latency: LatencyModel::pm_bypass(),
        cache_capacity,
        pm_watermark,
        clock: ClockMode::Virtual,
        obs: Default::default(),
        tier,
    });
    let payload = Payload::from(vec![0xA5u8; PAYLOAD_BYTES]);
    for i in 0..records as u64 {
        let token = Token::new(FunctionId(1), i as u32);
        server.import(COLD, SeqNum::new(Epoch(1), i as u32 + 1), token, &payload).expect("import");
    }
    server
}

/// A fully archived span behind the same-region object-store latency model
/// (~2 ms per request + streaming cost): every read that misses the
/// single-segment buffer pays a segment fetch.
fn cold_get_us(records: usize, reads: usize) -> f64 {
    let clock = DeviceClock::new(ClockMode::Virtual);
    let store = SimObjectStore::with_latency(clock, StoreLatencyModel::object_storage());
    let mut tier = TierConfig::new(Arc::new(store));
    tier.segment_records = SEGMENT_RECORDS;
    // A watermark that never spills: the archiver moves the data.
    let server = server(records, 1 << 20, usize::MAX >> 1, Some(tier));
    let archived = server.archive_prefix(COLD, 0, u64::MAX).expect("archive round");
    assert_eq!(archived, records as u64, "round must seal the whole span");
    modelled_get_us(&server, records as u64, reads)
}

/// The same reads against an SSD-resident log: no cold tier, no DRAM
/// shortcuts, and a low watermark that spills the span.
fn ssd_get_us(records: usize, reads: usize) -> f64 {
    let server = server(records, 4 << 10, 64 << 10, None);
    let spilled = server.ssd_resident(COLD) as u64;
    assert!(spilled > records as u64 / 2, "most of the span must sit on SSD");
    modelled_get_us(&server, spilled, reads)
}

/// One paired trial of wall-clock hot-append throughput through the full
/// cluster: a hot appender beside a cold-color trickle that keeps the
/// archiver's backlog growing, with the tick-paced control loop toggled
/// between `slices` slices of [`SLICE_APPENDS`] appends in an off-on-on-off
/// pattern (`on_first` flips it). Both sides share one cluster and interleave
/// within it, so a slow stretch of the host lands on both and the ratio
/// isolates what *archiving* costs the hot path. The loop archives in
/// half the run what was appended in all of it, so an on slice carries
/// twice the steady-state archiving load: the ratio is a lower bound.
/// Returns (appends/s loop off, appends/s loop on, records archived
/// per replica).
fn hot_append_pair(slices: usize, prefill: usize, on_first: bool) -> (f64, f64, u64) {
    let store = Arc::new(SimObjectStore::new(DeviceClock::new(ClockMode::Off)));
    let mut tier = TierConfig::new(store);
    tier.segment_records = SEGMENT_RECORDS;
    let mut spec = ClusterSpec::single_shard();
    spec.storage.tier = Some(tier);
    let replicas = spec.replication_factor as u64;
    let c = FlexLogCluster::start(spec);
    c.add_color(COLD).unwrap();
    c.add_color(HOT).unwrap();

    let mut h = c.handle();
    let payload = vec![0xC0u8; PAYLOAD_BYTES];
    for _ in 0..prefill {
        h.append(&payload, COLD).unwrap();
    }

    let stop = AtomicBool::new(false);
    // Whether the loop runs; it holds the lock for the length of a tick,
    // so flipping the switch waits out a round in flight — it finishes
    // outside the slice it would taint.
    let archiving = Mutex::new(false);
    let secs = std::thread::scope(|s| {
        let (cluster, stop, archiving) = (&c, &stop, &archiving);
        s.spawn(move || {
            let mut hc = cluster.handle();
            let feed = vec![0x0Du8; PAYLOAD_BYTES];
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..4 {
                    if hc.append(&feed, COLD).is_err() {
                        return;
                    }
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        s.spawn(move || {
            // The real tick-paced control loop, not a busy loop: each tick
            // observes spans and actuates at most one bounded round.
            let policy = format!("when span >= {SEGMENT_RECORDS} then archive keep=0 max=1024");
            let config = ControlConfig {
                policy: Policy::parse(&policy).expect("valid policy"),
                min_observation: Duration::from_millis(2),
                max_actions_per_tick: 1,
            };
            let mut control = ControlLoop::new(ControlPlane::new(cluster), config, Instant::now());
            while !stop.load(Ordering::Relaxed) {
                let on = archiving.lock().unwrap();
                if *on {
                    let _ = control.tick(Instant::now());
                }
                drop(on);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let mut secs = [0.0; 2];
        for i in 0..slices {
            let on = [on_first, !on_first, !on_first, on_first][i % 4];
            *archiving.lock().unwrap() = on;
            let start = Instant::now();
            for _ in 0..SLICE_APPENDS {
                h.append(&payload, HOT).unwrap();
            }
            secs[usize::from(on)] += start.elapsed().as_secs_f64();
        }
        stop.store(true, Ordering::Relaxed);
        secs
    });

    // `storage.archived_records` is cluster-wide: every replica counts its
    // own copy of each archived record.
    let snapshot = c.obs().snapshot();
    let archived = snapshot.counter("storage.archived_records") / replicas;
    // Report only: how long a write (a replica wake, its spill included)
    // and a policy archive round keep the server's lock, over the whole
    // trial (ROADMAP item 12 measures before it changes anything).
    let held = |holder: &str| {
        let h = snapshot.histogram(&format!("storage.lock_hold_ns.{holder}")).cloned().unwrap_or_default();
        format!("{holder} p50 {:.1} / p99 {:.1} us ({} holds)", h.p50 as f64 / 1e3, h.p99 as f64 / 1e3, h.count)
    };
    eprintln!("tiering: storage lock held: {}; {}", held("write"), held("archive"));
    c.shutdown();
    let appends = (slices / 2 * SLICE_APPENDS) as f64;
    (appends / secs[0], appends / secs[1], archived)
}

pub fn run(quick: bool) -> Report {
    let (archive_records, reads, slices, prefill) = if quick {
        (QUICK_ARCHIVE_RECORDS, QUICK_READS, QUICK_HOT_SLICES, QUICK_PREFILL)
    } else {
        (ARCHIVE_RECORDS, READS, HOT_SLICES, PREFILL)
    };
    let mut report = Report::new("tiering", quick);

    // Deterministic on the virtual clock: measured once.
    let cold = cold_get_us(archive_records, reads);
    let ssd = ssd_get_us(archive_records.min(4_096), reads);
    eprintln!("tiering: modelled get {cold:.1} us cold, {ssd:.1} us SSD");
    report.record("cold_get_modelled_us", "us", MODELLED, cold);
    report.record("ssd_get_modelled_us", "us", MODELLED, ssd);
    report.record("cold_over_ssd_get", "x", MODELLED, cold / ssd);

    for trial in 0..report.trials {
        let (off, on, archived) = hot_append_pair(slices, prefill, trial % 2 == 1);
        assert!(archived > 0, "the archiver must run during the hot phase");
        eprintln!(
            "tiering trial {trial}: {off:.0} appends/s archiver-off, {on:.0} archiver-on \
             (ratio {:.3}, {archived} archived per replica)",
            on / off
        );
        report.record("hot_appends_per_s_archiver_off", "ops/s", WALL, off);
        report.record("hot_appends_per_s_archiver_on", "ops/s", WALL, on);
        report.record("hot_append_ratio", "x", WALL, on / off);
        report.record("archived_per_replica_during_hot_phase", "count", WALL, archived as f64);
    }
    report
}
