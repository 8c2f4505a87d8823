//! The four closed-loop workloads and the run that measures one of them.
//!
//! Every workload runs the same cluster shape ([`cluster_spec`]) with exactly
//! [`CALLERS`] load threads — this host has 2 cores and the cluster adds ~15
//! node threads of its own, so more callers would only measure the scheduler.
//! A caller issues its next operation when the previous one returned (serial)
//! or when its window has room (pipelined): FlexLog's `Append`/`Read` are
//! blocking calls made by function instances, so a fixed population of
//! callers is the honest load model, and it is the one that repeats on a
//! shared host (see README.md for the open-loop runs that did not).

mod callers;
mod check;

pub use check::patient_reader;

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flexlog_core::{ClusterSpec, ColorId, FlexLogCluster, SeqNum};
use flexlog_ordering::RoleId;
use flexlog_pm::ClockMode;
use flexlog_simnet::NetConfig;
use flexlog_storage::StorageConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster_layers::{self, Probe};
use crate::report::Metric;
use crate::spans::{self, SpanBuf};
use crate::stats::{self, OpStats, Sample};
use callers::{Appender, Reader, Recording, Subscriber};

/// Load threads. Sizing rule: re-derive from `nproc`, never exceed it.
pub const CALLERS: usize = 2;
/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUP_REPS: usize = 3;
/// Parts of the timed window whose median is reported (see `slice_stats`).
const SLICES: usize = 10;
/// Traced run: four parts, spans off-on-on-off on the same cluster, so that
/// a steady drift (the log grows) weighs on both sides equally.
const TRACED_SLICES: usize = 4;

const APPEND_BYTES: usize = 256;
const PUSH_BYTES: usize = 128;
/// Ballast every set-up loads (pipelined) before anything is timed: 40 000 ×
/// 256 B ≈ 5 MiB per replica, above the 4 MiB PM watermark and 5× the 1 MiB
/// DRAM cache. Without it a run starts in the no-spill regime (about twice
/// as fast) and crosses into the spilling one mid-window; with it every
/// window measures the steady state, and `read-write-mix` reads land on all
/// three tiers.
const PRELOAD_RECORDS: u64 = 40_000;
const SUBS_PER_COLOR: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    AppendSerial,
    AppendPipelined,
    ReadWriteMix,
    FanoutPush,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::AppendSerial,
        Kind::AppendPipelined,
        Kind::ReadWriteMix,
        Kind::FanoutPush,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AppendSerial => "append-serial",
            Kind::AppendPipelined => "append-pipelined",
            Kind::ReadWriteMix => "read-write-mix",
            Kind::FanoutPush => "fanout-push",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Operations each caller issues after the preload and before the window
    /// opens, so its handle, streams and the caches are warm.
    fn warm_up_ops(self) -> u64 {
        match self {
            Kind::AppendSerial | Kind::ReadWriteMix => 1_000,
            Kind::AppendPipelined | Kind::FanoutPush => 4_000,
        }
    }
}

pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// The cluster every workload runs on. `ClockMode::Spin` makes the wall
/// clock include modelled PM/SSD device time; links are instant, so latency
/// is processor time plus device time, not wire time.
pub fn cluster_spec() -> ClusterSpec {
    ClusterSpec {
        leaves: 2,
        shards_per_leaf: 1,
        replication_factor: 3,
        read_replicas_per_shard: 0,
        backups_per_sequencer: 0,
        net: NetConfig::instant(),
        storage: StorageConfig {
            clock: ClockMode::Spin,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Timing of one timed window, shared by its callers.
pub struct Window {
    start: Instant,
    pub len_ns: u64,
    pub slices: usize,
    traced: bool,
}

impl Window {
    #[inline]
    pub fn now_ns(&self) -> u64 {
        stats::ns_since(self.start)
    }

    /// Spans (and flight-recorder sampling) are on for ops that start in a
    /// traced part of a traced run.
    #[inline]
    pub fn spans_on(&self, now_ns: u64) -> bool {
        self.traced && part_is_traced(now_ns / (self.len_ns / self.slices as u64))
    }
}

/// Off, on, on, off, …
fn part_is_traced(part: u64) -> bool {
    part.div_ceil(2) % 2 == 1
}

/// What a caller is asked to do: a fixed op count unrecorded, or run until
/// the window closes, recording samples and spans.
pub enum Phase<'a> {
    WarmUp { ops: u64 },
    Timed(&'a Window),
}

impl Phase<'_> {
    fn window(&self) -> Option<&Window> {
        match self {
            Phase::WarmUp { .. } => None,
            Phase::Timed(w) => Some(w),
        }
    }

    /// Ns since the window opened; 0 while warming up.
    #[inline]
    fn now_ns(&self) -> u64 {
        self.window().map_or(0, Window::now_ns)
    }

    #[inline]
    fn over(&self, ops_done: u64, now_ns: u64) -> bool {
        match self {
            Phase::WarmUp { ops } => ops_done >= *ops,
            Phase::Timed(w) => now_ns >= w.len_ns,
        }
    }

    #[inline]
    fn spans_on(&self, now_ns: u64) -> bool {
        self.window().is_some_and(|w| w.spans_on(now_ns))
    }
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    /// The workload's focus operation (append, read or push delivery).
    pub focus: OpStats,
    /// Appends of all appending callers; the focus op on `append-*`.
    pub writer: OpStats,
    pub peak_rss_mb: f64,
    /// Kind-(a) per-layer metrics and benchmark-side span shares; traced
    /// runs only.
    pub layers: Vec<Metric>,
}

/// One set-up cluster with its callers, warmed up and ready to be timed.
struct Rig {
    cluster: FlexLogCluster,
    colors: Vec<ColorId>,
    appenders: Vec<Appender>,
    reader: Option<Reader>,
    subscriber: Option<Subscriber>,
    /// Loaded the ballast; its acks are verified with the rest of the log.
    preloader: Appender,
}

impl Rig {
    /// Cluster start + colors + handles + preload + warm-up: everything
    /// `setup_s` covers.
    fn set_up(cfg: &RunConfig, epoch: Instant) -> Rig {
        let cluster = FlexLogCluster::start(cluster_spec());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // The seed fixes the color order every caller cycles through.
        let n_colors = if cfg.kind == Kind::FanoutPush { 2 } else { 4 };
        let mut colors: Vec<ColorId> = (1..=n_colors).map(ColorId).collect();
        for i in (1..colors.len()).rev() {
            colors.swap(i, rng.gen_range(0..=i));
        }
        let leaves = cluster.leaf_roles();
        for (i, &c) in colors.iter().enumerate() {
            if cfg.kind == Kind::FanoutPush {
                // One color per leaf, each on that leaf's single shard: a
                // subscription is then one stream, whose SN order is checked.
                let leaf: RoleId = leaves[i % leaves.len()];
                cluster.colors().add_color_at(c, leaf).expect("fresh color");
            } else {
                cluster.add_color(c).expect("fresh color");
            }
        }

        let appender =
            |caller: usize, bytes: usize, pipelined: bool, stamp_epoch: Option<Instant>| {
                Appender::new(
                    &cluster,
                    cfg.seed,
                    caller,
                    &colors,
                    bytes,
                    pipelined,
                    stamp_epoch,
                )
            };
        let mut preloader = appender(CALLERS, APPEND_BYTES, true, None);
        preloader.drive(
            &cluster,
            &Phase::WarmUp {
                ops: PRELOAD_RECORDS,
            },
        );
        let (mut reader, mut subscriber) = (None, None);
        let appenders = match cfg.kind {
            Kind::AppendSerial => (0..CALLERS)
                .map(|c| appender(c, APPEND_BYTES, false, None))
                .collect(),
            Kind::AppendPipelined => (0..CALLERS)
                .map(|c| appender(c, APPEND_BYTES, true, None))
                .collect(),
            Kind::ReadWriteMix => {
                reader = Some(Reader::new(&cluster, cfg.seed, 1, &preloader));
                vec![appender(0, APPEND_BYTES, false, None)]
            }
            Kind::FanoutPush => {
                // Subscriptions start above the preload: the ballast is not
                // part of the fan-out.
                let from: Vec<SeqNum> = colors
                    .iter()
                    .map(|&c| {
                        preloader
                            .acked
                            .iter()
                            .filter(|a| a.color == c)
                            .map(|a| a.sn)
                            .max()
                    })
                    .map(|sn| sn.unwrap_or(SeqNum::ZERO))
                    .collect();
                subscriber = Some(Subscriber::new(
                    &cluster,
                    epoch,
                    1,
                    &colors,
                    &from,
                    SUBS_PER_COLOR,
                ));
                vec![appender(0, PUSH_BYTES, true, Some(epoch))]
            }
        };
        let mut rig = Rig {
            cluster,
            colors,
            appenders,
            reader,
            subscriber,
            preloader,
        };
        rig.drive(&Phase::WarmUp {
            ops: cfg.kind.warm_up_ops(),
        });
        rig
    }

    /// Runs every caller through `phase` on its own thread; returns their
    /// recordings, appenders first.
    fn drive(&mut self, phase: &Phase) -> Vec<Recording> {
        let cluster = &self.cluster;
        // Fan-out: the writer publishes what it got acked, per color, so the
        // subscriber knows when it has seen everything.
        let writer_done = AtomicBool::new(false);
        let acked: Vec<AtomicU64> = self.colors.iter().map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            let writers: Vec<_> = self
                .appenders
                .iter_mut()
                .map(|a| {
                    let (writer_done, acked) = (&writer_done, &acked);
                    scope.spawn(move || {
                        let rec = a.drive(cluster, phase);
                        for (slot, n) in acked.iter().zip(a.acked_per_color()) {
                            slot.store(n, Ordering::Relaxed);
                        }
                        writer_done.store(true, Ordering::Release);
                        rec
                    })
                })
                .collect();
            let reader = self
                .reader
                .as_mut()
                .map(|r| scope.spawn(move || r.drive(phase)));
            let subscriber = self.subscriber.as_mut().map(|s| {
                let (writer_done, acked) = (&writer_done, &acked);
                scope.spawn(move || s.drive(phase, writer_done, acked))
            });
            writers
                .into_iter()
                .chain(reader)
                .chain(subscriber)
                .map(|t| t.join().expect("caller thread"))
                .collect()
        })
    }
}

/// Sets up (several times), times one window, checks every output.
pub fn run(cfg: &RunConfig, out_dir: &Path) -> Outcome {
    let epoch = Instant::now();
    let mut setups = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let rig = Rig::set_up(cfg, epoch);
        setups.push(t.elapsed().as_secs_f64());
        rig
    };
    let mut rig = set_up();
    for _ in 1..SETUP_REPS {
        rig.cluster.shutdown();
        rig = set_up();
    }

    let slices = if cfg.traced { TRACED_SLICES } else { SLICES };
    let before = cfg.traced.then(|| Probe::take(&rig.cluster));
    let window = Window {
        start: Instant::now(),
        len_ns: Duration::from_secs(cfg.seconds).as_nanos() as u64,
        slices,
        traced: cfg.traced,
    };
    let mut recordings = rig.drive(&Phase::Timed(&window));
    let after = cfg.traced.then(|| Probe::take(&rig.cluster));
    let timed_s = epoch.elapsed().as_secs_f64();

    // The append workloads pool both appenders and their focus op is the
    // append; the other two focus on the second caller, the writer beside it.
    let writer_samples: Vec<Sample> = recordings[..rig.appenders.len()]
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let writer = stats::slice_stats("append", &writer_samples, window.len_ns, slices);
    let focus_samples: &[Sample] = match cfg.kind {
        Kind::AppendSerial | Kind::AppendPipelined => &writer_samples,
        Kind::ReadWriteMix | Kind::FanoutPush => &recordings.last().expect("second caller").samples,
    };
    let focus = match cfg.kind {
        Kind::AppendSerial | Kind::AppendPipelined => writer,
        Kind::ReadWriteMix => stats::slice_stats("read", focus_samples, window.len_ns, slices),
        Kind::FanoutPush => stats::slice_stats("push", focus_samples, window.len_ns, slices),
    };

    let mut layers = Vec::new();
    if let (Some(before), Some(after)) = (before, after) {
        let reads = if cfg.kind == Kind::ReadWriteMix {
            focus.samples
        } else {
            0
        };
        let user_bytes = writer.samples * rig.appenders[0].bytes as u64;
        layers = cluster_layers::diff(&before, &after, writer.samples, reads, user_bytes);
        let gaps: Vec<_> = recordings
            .iter()
            .flat_map(|r| r.gaps.iter().copied())
            .collect();
        layers.extend(cluster_layers::gap_metrics(&gaps));

        let (off, on) = stats::goodput_split(focus_samples, window.len_ns, slices, part_is_traced);
        let overhead = stats::ratio(100.0 * (off - on), off);
        layers.push(Metric::new("bench.trace_overhead_pct", overhead));
        let bufs: Vec<SpanBuf> = recordings.iter_mut().map(Recording::take_spans).collect();
        let shares = spans::self_time_shares(&bufs);
        for name in callers::SPAN_NAMES {
            let key = format!("bench.span_self_pct.{}", name.replace('.', "_"));
            layers.push(Metric::new(key, shares.get(name).copied().unwrap_or(0.0)));
        }
        let path = out_dir.join(format!("trace-{}.jsonl", cfg.kind.name()));
        match spans::write_jsonl(&path, cfg.kind.name(), &bufs) {
            Ok(lines) => eprintln!("wrote {lines} spans to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        // Reported, not gated: on this host a p99 does not repeat within any
        // bound the driver accepts, and focus-op goodput is the append
        // goodput again (× 4 streams on the fan-out) or the reader's pace.
        layers.push(Metric::new("bench.op_p99_us", focus.p99_us));
        layers.push(Metric::new("bench.op_goodput_ops", focus.goodput));
        layers.push(Metric::new("bench.writer_p50_us", writer.p50_us));
        layers.push(Metric::new("bench.writer_p99_us", writer.p99_us));
    }

    // Output checks: every op that failed and every violation is a failed op.
    let logged: Vec<&Appender> = rig.appenders.iter().chain([&rig.preloader]).collect();
    let mut attempted: u64 = logged.iter().map(|a| a.attempted).sum();
    let mut failed: u64 = logged.iter().map(|a| a.failed).sum();
    failed += check::log_holds_every_ack(&rig.cluster, &rig.colors, &logged);
    if let Some(r) = &rig.reader {
        attempted += r.attempted;
        failed += r.failed;
    }
    if let Some(s) = &rig.subscriber {
        attempted += s.delivered();
        failed += s.failed + s.missing(&rig.appenders[0].acked_per_color());
    }
    rig.cluster.shutdown();
    eprintln!(
        "set-ups {setups:.1?} s, window closed at {timed_s:.1} s, checked and shut down at {:.1} s",
        epoch.elapsed().as_secs_f64()
    );

    Outcome {
        attempted,
        failed,
        setup_s: stats::median(&setups),
        focus,
        writer,
        peak_rss_mb: stats::peak_rss_mb(),
        layers,
    }
}
