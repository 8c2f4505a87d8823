//! The three kinds of closed-loop caller: appender (serial or pipelined),
//! point reader and push subscriber. Each owns one `FlexLog` handle, checks
//! what it gets back, and records a sample and spans per operation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use flexlog_core::{ColorId, FlexLog, FlexLogCluster, SeqNum, Subscription, Token};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Phase;
use crate::cluster_layers::{self, Gaps};
use crate::record::{self, RecordGen};
use crate::spans::{SpanBuf, SpanRef, NO_SPAN};
use crate::stats::{ns_since, Sample};

/// Every n-th acked append of a traced slice has its flight-recorder chain
/// read back — at once, because the recorder ring holds only ~5 000 appends.
const TRACE_SAMPLE_EVERY: u64 = 64;
/// How long a blocking poll waits before the subscriber sweeps again.
const POLL_WAIT: Duration = Duration::from_micros(200);
/// The reader's pace: one read every 250 µs (4 000 reads/s), or as fast as
/// replies allow if that is slower. Unpaced, the reader ran at whatever the
/// host allowed that minute (10.9k–16.5k reads/s over ten runs), and the
/// writer beside it saw a different load every run; paced, read latency is
/// measured at a stated load and the writer's share of the replicas is fixed.
const READ_INTERVAL: Duration = Duration::from_micros(250);
/// Grace for deliveries still in flight when the writer stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Every span name the callers record: a root `op` per operation and one
/// child per public call made for it.
pub const SPAN_NAMES: [&str; 5] = [
    "op",
    "client.append",
    "client.issue",
    "client.poll",
    "client.read",
];

/// What one caller recorded during one phase.
pub struct Recording {
    pub samples: Vec<Sample>,
    pub gaps: Vec<Gaps>,
    spans: SpanBuf,
}

impl Recording {
    fn new(caller: usize, phase: &Phase) -> Self {
        let traced = phase.window().is_some_and(|w| w.traced);
        Recording {
            samples: Vec::with_capacity(if phase.window().is_some() { 1 << 18 } else { 0 }),
            gaps: Vec::new(),
            spans: SpanBuf::new(caller, traced),
        }
    }

    pub fn take_spans(&mut self) -> SpanBuf {
        std::mem::replace(&mut self.spans, SpanBuf::new(0, false))
    }
}

/// An append the log acknowledged.
#[derive(Clone, Copy)]
pub struct Acked {
    pub color: ColorId,
    pub sn: SeqNum,
    pub op: u64,
}

struct Pending {
    issued_ns: u64,
    color: ColorId,
    op: u64,
    root: SpanRef,
    sample_gaps: bool,
}

pub struct Appender {
    handle: FlexLog,
    pub caller: usize,
    gen: RecordGen,
    colors: Vec<ColorId>,
    pub bytes: usize,
    pipelined: bool,
    /// Push workloads stamp each record with its issue time, in ns since
    /// this epoch.
    stamp_epoch: Option<Instant>,
    inflight: HashMap<Token, Pending>,
    pub acked: Vec<Acked>,
    pub attempted: u64,
    pub failed: u64,
}

impl Appender {
    pub fn new(
        cluster: &FlexLogCluster,
        seed: u64,
        caller: usize,
        colors: &[ColorId],
        bytes: usize,
        pipelined: bool,
        stamp_epoch: Option<Instant>,
    ) -> Self {
        Appender {
            handle: cluster.handle(),
            caller,
            gen: RecordGen::new(seed, caller),
            colors: colors.to_vec(),
            bytes,
            pipelined,
            stamp_epoch,
            inflight: HashMap::new(),
            acked: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Acked appends per color, in the order of the color list.
    pub fn acked_per_color(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.colors.len()];
        for a in &self.acked {
            let i = self
                .colors
                .iter()
                .position(|&c| c == a.color)
                .expect("own color");
            counts[i] += 1;
        }
        counts
    }

    pub fn drive(&mut self, cluster: &FlexLogCluster, phase: &Phase) -> Recording {
        let mut rec = Recording::new(self.caller, phase);
        let timed = phase.window().is_some();
        let mut done = 0u64;
        loop {
            let t0 = phase.now_ns();
            if phase.over(done, t0) {
                break;
            }
            let on = phase.spans_on(t0);
            let index = self.attempted;
            self.attempted += 1;
            let op = record::op_id(self.caller, index);
            let color = self.colors[(self.caller + index as usize) % self.colors.len()];
            let stamp = self.stamp_epoch.map_or(0, ns_since);
            let payload = self.gen.make(self.bytes, op, stamp);
            let sample_gaps = on && index.is_multiple_of(TRACE_SAMPLE_EVERY);
            // The root span covers building the record; latency runs from the
            // call into FlexLog to its return (pipelined: to the ack).
            let root = rec.spans.open(on, "op", NO_SPAN, op, t0);
            let t_call = phase.now_ns();
            if self.pipelined {
                let call = rec.spans.open(on, "client.issue", root, op, t_call);
                let res = self
                    .handle
                    .append_pipelined(std::slice::from_ref(&payload), color);
                let t1 = phase.now_ns();
                rec.spans.close(call, t1);
                match res {
                    Ok(token) => {
                        let p = Pending {
                            issued_ns: t_call,
                            color,
                            op,
                            root,
                            sample_gaps,
                        };
                        self.inflight.insert(token, p);
                    }
                    Err(_) => {
                        self.failed += 1;
                        rec.spans.close(root, t1);
                    }
                }
                let call = rec.spans.open(on, "client.poll", root, op, t1);
                let completed = self.handle.take_completed_appends();
                let t2 = phase.now_ns();
                rec.spans.close(call, t2);
                self.complete(cluster, completed, t2, timed, &mut rec);
            } else {
                let call = rec.spans.open(on, "client.append", root, op, t_call);
                let res = self
                    .handle
                    .append_payloads(std::slice::from_ref(&payload), color);
                let t1 = phase.now_ns();
                rec.spans.close(call, t1);
                rec.spans.close(root, t1);
                match res {
                    Ok(sn) => {
                        self.acked.push(Acked { color, sn, op });
                        if timed {
                            rec.samples.push(Sample {
                                done_ns: t1,
                                lat_ns: t1 - t_call,
                            });
                        }
                        if sample_gaps {
                            // Serial tokens are `Token::new(fid, 1..=n)` by
                            // construction (see tests/latency_decomposition.rs).
                            let token = Token::new(self.handle.fid(), self.attempted as u32);
                            rec.gaps
                                .extend(cluster_layers::gaps_of(cluster, token, t1 - t_call));
                        }
                    }
                    Err(_) => self.failed += 1,
                }
            }
            done += 1;
        }
        // Drain the pipeline. A failing op is dropped by `flush_appends` and
        // reported once; the rest stay queued for the next call.
        for _ in 0..=self.inflight.len() {
            match self.handle.flush_appends() {
                Ok(completed) => {
                    let now = phase.now_ns();
                    self.complete(cluster, completed, now, timed, &mut rec);
                    break;
                }
                Err(_) => self.failed += 1,
            }
        }
        self.inflight.clear();
        rec
    }

    fn complete(
        &mut self,
        cluster: &FlexLogCluster,
        completed: Vec<(Token, SeqNum)>,
        now_ns: u64,
        timed: bool,
        rec: &mut Recording,
    ) {
        for (token, sn) in completed {
            let Some(p) = self.inflight.remove(&token) else {
                self.failed += 1; // an ack for nothing we issued
                continue;
            };
            rec.spans.close(p.root, now_ns);
            self.acked.push(Acked {
                color: p.color,
                sn,
                op: p.op,
            });
            if timed {
                rec.samples.push(Sample {
                    done_ns: now_ns,
                    lat_ns: now_ns - p.issued_ns,
                });
            }
            if p.sample_gaps {
                rec.gaps.extend(cluster_layers::gaps_of(
                    cluster,
                    token,
                    now_ns - p.issued_ns,
                ));
            }
        }
    }
}

/// Blocking point reads, uniform over the preloaded keys, paced while timed.
pub struct Reader {
    handle: FlexLog,
    caller: usize,
    keys: Vec<Acked>,
    /// The preloader's generator: re-derives the bytes every key must hold.
    gen: RecordGen,
    bytes: usize,
    rng: StdRng,
    pub attempted: u64,
    pub failed: u64,
}

impl Reader {
    pub fn new(cluster: &FlexLogCluster, seed: u64, caller: usize, preload: &Appender) -> Self {
        Reader {
            handle: cluster.handle(),
            caller,
            keys: preload.acked.clone(),
            gen: RecordGen::new(seed, preload.caller),
            bytes: preload.bytes,
            rng: StdRng::seed_from_u64(seed ^ 0x5EAD),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn drive(&mut self, phase: &Phase) -> Recording {
        let mut rec = Recording::new(self.caller, phase);
        let timed = phase.window().is_some();
        let mut done = 0u64;
        let mut due = Instant::now();
        loop {
            if timed {
                // Sleeping, not spinning: a spinning reader would take a core
                // from the cluster. Due times are absolute, so a late wake-up
                // shortens the next wait instead of lowering the rate.
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                due = (due + READ_INTERVAL).max(Instant::now());
            }
            let t0 = phase.now_ns();
            if phase.over(done, t0) || self.keys.is_empty() {
                break;
            }
            let on = phase.spans_on(t0);
            let key = self.keys[self.rng.gen_range(0..self.keys.len())];
            self.attempted += 1;
            let root = rec.spans.open(on, "op", NO_SPAN, self.attempted, t0);
            let call = rec.spans.open(on, "client.read", root, self.attempted, t0);
            let res = self.handle.read(key.sn, key.color);
            let t1 = phase.now_ns();
            rec.spans.close(call, t1);
            let intact =
                matches!(&res, Ok(Some(got)) if *got == self.gen.make(self.bytes, key.op, 0));
            rec.spans.close(root, phase.now_ns());
            if !intact {
                self.failed += 1;
            } else if timed {
                rec.samples.push(Sample {
                    done_ns: t1,
                    lat_ns: t1 - t0,
                });
            }
            done += 1;
        }
        rec
    }
}

struct Stream {
    sub: Subscription,
    color_index: usize,
    last_sn: SeqNum,
    delivered: u64,
}

/// Holds every push subscription on one handle and drains them in turn.
pub struct Subscriber {
    handle: FlexLog,
    epoch: Instant,
    caller: usize,
    streams: Vec<Stream>,
    pub failed: u64,
}

impl Subscriber {
    pub fn new(
        cluster: &FlexLogCluster,
        epoch: Instant,
        caller: usize,
        colors: &[ColorId],
        from: &[SeqNum],
        subs_per_color: usize,
    ) -> Self {
        let mut handle = cluster.handle();
        let mut failed = 0;
        let mut streams = Vec::new();
        for _ in 0..subs_per_color {
            for (color_index, &color) in colors.iter().enumerate() {
                match handle.subscribe_push_from(color, from[color_index]) {
                    Ok(sub) => streams.push(Stream {
                        sub,
                        color_index,
                        last_sn: from[color_index],
                        delivered: 0,
                    }),
                    Err(_) => failed += 1,
                }
            }
        }
        Subscriber {
            handle,
            epoch,
            caller,
            streams,
            failed,
        }
    }

    pub fn delivered(&self) -> u64 {
        self.streams.iter().map(|s| s.delivered).sum()
    }

    /// Deliveries short of "every acked record of its color, on every stream".
    pub fn missing(&self, acked_per_color: &[u64]) -> u64 {
        self.streams
            .iter()
            .map(|s| acked_per_color[s.color_index].abs_diff(s.delivered))
            .sum()
    }

    /// Polls until the writer is done and every stream holds every acked
    /// record (or [`DRAIN_TIMEOUT`] passed since the writer stopped).
    pub fn drive(
        &mut self,
        phase: &Phase,
        writer_done: &AtomicBool,
        acked: &[AtomicU64],
    ) -> Recording {
        let mut rec = Recording::new(self.caller, phase);
        let mut turn = 0;
        let mut iteration = 0u64;
        let mut drain_deadline = None;
        loop {
            let t0 = phase.now_ns();
            let on = phase.spans_on(t0);
            iteration += 1;
            let root = rec.spans.open(on, "op", NO_SPAN, iteration, t0);
            // Sweep what already arrived; if nothing had, block on one
            // stream — its wait pumps the endpoint for all of them.
            let mut got = 0;
            for i in 0..self.streams.len() {
                got += self.poll(i, Duration::ZERO, phase, root, iteration, &mut rec);
            }
            if got == 0 {
                got = self.poll(turn, POLL_WAIT, phase, root, iteration, &mut rec);
                turn = (turn + 1) % self.streams.len().max(1);
            }
            rec.spans.close(root, phase.now_ns());
            if got == 0 && writer_done.load(Ordering::Acquire) {
                let caught_up = self
                    .streams
                    .iter()
                    .all(|s| s.delivered >= acked[s.color_index].load(Ordering::Relaxed));
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
                if caught_up || self.streams.is_empty() || Instant::now() >= deadline {
                    break;
                }
            }
        }
        rec
    }

    /// One `poll_subscription` on stream `i`: checks and samples whatever it
    /// returns; a span is kept only when it blocked or delivered.
    fn poll(
        &mut self,
        i: usize,
        wait: Duration,
        phase: &Phase,
        root: SpanRef,
        iteration: u64,
        rec: &mut Recording,
    ) -> usize {
        let Some(stream) = self.streams.get_mut(i) else {
            return 0;
        };
        let t0 = phase.now_ns();
        let res = self.handle.poll_subscription(stream.sub, wait);
        let t1 = phase.now_ns();
        let records = match res {
            Ok(records) => records,
            Err(_) => {
                self.failed += 1;
                return 0;
            }
        };
        if !wait.is_zero() || !records.is_empty() {
            let on = root != NO_SPAN;
            let call = rec.spans.open(on, "client.poll", root, iteration, t0);
            rec.spans.close(call, t1);
        }
        let now_epoch = ns_since(self.epoch);
        for r in &records {
            // Exactly once, in SN order, bytes intact.
            let parsed = record::parse(r.payload.as_slice());
            if r.sn <= stream.last_sn || parsed.is_none() {
                self.failed += 1;
            }
            stream.last_sn = stream.last_sn.max(r.sn);
            stream.delivered += 1;
            if let (Some((stamp, _)), Some(_)) = (parsed, phase.window()) {
                rec.samples.push(Sample {
                    done_ns: t1,
                    lat_ns: now_epoch.saturating_sub(stamp),
                });
            }
        }
        records.len()
    }
}
