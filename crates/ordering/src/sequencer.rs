//! The sequencer node: leader logic of one position in the ordering tree.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_obs::{Counter, Histogram, ObsHandle, Stage};
use flexlog_simnet::{Endpoint, NodeId, RecvError};
use flexlog_types::{ColorId, Epoch, SeqNum, Token};

use crate::msg::{OrderMsg, OrderWire};
use crate::{ColorRegistry, Directory, RoleId};

/// Static configuration of a sequencer position (shared with its backups,
/// which assume it on promotion).
#[derive(Clone, Debug)]
pub struct SequencerConfig {
    /// Logical role in the tree.
    pub role: RoleId,
    /// Colors this sequencer is the ordering root for.
    pub owned: HashSet<ColorId>,
    /// Parent role (None at the tree root).
    pub parent: Option<RoleId>,
    /// Backup nodes replicating this sequencer's epoch.
    pub backups: Vec<NodeId>,
    /// OReq aggregation window (paper default: 1 µs): how long a color's
    /// buffer stays open, counted from its first request, before it is
    /// assigned or forwarded as one batch. Kept to the microsecond — the run
    /// loop waits until the oldest buffer's `opened_at + batch_interval`, and
    /// simnet polls a wait that short instead of parking on it (a timed park
    /// costs ~74 µs here whatever it is asked for) — so `seq.batch_wait_ns`
    /// reads ≈ this value when one request is waiting.
    pub batch_interval: Duration,
    /// Heartbeat period towards the backups.
    pub heartbeat_interval: Duration,
    /// Failure-detection bound Δ.
    pub delta: Duration,
    /// Resend window for unanswered upstream requests.
    pub resend_timeout: Duration,
    /// Dynamic color ownership (AddColor); consulted in addition to
    /// `owned`.
    pub registry: ColorRegistry,
    /// Shared observability surface (SeqAssign trace events, batch-wait
    /// histogram).
    pub obs: ObsHandle,
}

impl Default for SequencerConfig {
    fn default() -> Self {
        SequencerConfig {
            role: RoleId(0),
            owned: HashSet::new(),
            parent: None,
            backups: Vec::new(),
            batch_interval: Duration::from_micros(1),
            heartbeat_interval: Duration::from_millis(20),
            delta: Duration::from_millis(150),
            resend_timeout: Duration::from_millis(300),
            registry: ColorRegistry::new(),
            obs: ObsHandle::default(),
        }
    }
}

/// Modelled per-message handling costs (ns) on the paper's testbed — a Go
/// gRPC server spends ~0.5–1.5 µs of CPU per message, plus per-record work
/// distributing assigned ranges. These feed the `busy_ns` capacity metric
/// used by the scalability experiments (Fig 9/11) where a single-CPU host
/// cannot express multi-node parallelism in wall time.
const HANDLE_OREQ_NS: u64 = 500;
const HANDLE_PER_RECORD_NS: u64 = 800;
const HANDLE_AGG_NS: u64 = 1_500;

/// Max messages drained from the inbox per run-loop pass. A whole burst is
/// processed before the aggregation buffers are flushed, so OReqs that
/// arrive together are assigned SNs with one counter bump and answered with
/// per-shard [`OrderMsg::ORespBatch`]es — the sequencer batch fast path.
const RECV_BURST: usize = 128;

/// Counters exposed to benchmarks (shared, updated by the node thread).
#[derive(Debug, Default)]
pub struct SequencerStats {
    /// Modelled busy time of this node (see the constants above).
    pub busy_ns: AtomicU64,
    /// Total sequence numbers issued by this node (only counts colors it
    /// owns).
    pub sns_issued: AtomicU64,
    /// OReqs received from replicas/clients.
    pub oreqs: AtomicU64,
    /// Aggregated batches flushed (locally assigned or forwarded).
    pub batches: AtomicU64,
    /// Requests forwarded to the parent.
    pub forwarded: AtomicU64,
}

/// A member of a pending batch, in arrival order.
enum Constituent {
    /// Direct OReq origin: reply goes to the shard's replicas.
    Origin {
        token: Token,
        nrecords: u32,
        shard: Vec<NodeId>,
    },
    /// A child sequencer's aggregated request.
    Child { from: NodeId, batch: u64, total: u32 },
}

impl Constituent {
    fn total(&self) -> u32 {
        match self {
            Constituent::Origin { nrecords, .. } => *nrecords,
            Constituent::Child { total, .. } => *total,
        }
    }
}

struct ColorBuffer {
    constituents: Vec<Constituent>,
    total: u32,
    opened_at: Instant,
    /// When the run loop flushes it: `opened_at + batch_interval`, pushed
    /// out by [`PARENT_RETRY`] while the parent is unknown.
    due_at: Instant,
}

/// How long a batch whose parent role has no node (fail-over window) waits
/// before the directory is asked again.
const PARENT_RETRY: Duration = Duration::from_millis(1);

struct PendingUp {
    color: ColorId,
    constituents: Vec<Constituent>,
    total: u32,
    sent_at: Instant,
}

/// Bounded memory for replayed child responses.
const RESPONDED_CAP: usize = 100_000;

/// Run-loop control flow after handling one message.
enum Flow {
    Continue,
    Stop,
}

/// See module docs.
pub struct SequencerNode {
    config: SequencerConfig,
    directory: Directory,
    epoch: Epoch,
    counters: HashMap<ColorId, u32>,
    seen_tokens: HashSet<Token>,
    /// Replay cache: tokens already answered → their SN, so OReq resends
    /// (e.g. from a replica that was partitioned during the OResp
    /// broadcast) get the same answer re-broadcast instead of being
    /// silently dropped.
    answered_tokens: HashMap<Token, SeqNum>,
    answered_order: VecDeque<Token>,
    buffers: HashMap<ColorId, ColorBuffer>,
    pending_up: HashMap<u64, PendingUp>,
    next_batch: u64,
    /// Replay cache: child batches already answered → their SN, so child
    /// resends get the same answer instead of a new range.
    responded: HashMap<(NodeId, u64), SeqNum>,
    responded_order: VecDeque<(NodeId, u64)>,
    stats: Arc<SequencerStats>,
    /// Time each color batch spent open in the aggregation window before
    /// it was flushed (assigned or forwarded).
    batch_wait_hist: Histogram,
    /// OReqs dropped because no one above this node owns the color (stale
    /// routing during a reconfiguration; the replica's resend tick retries
    /// against the new route).
    misrouted_dropped: Counter,
    /// Per-node modelled busy time (`node.busy_ns.seq.<role>`): the obs
    /// mirror of [`SequencerStats::busy_ns`], so capacity benchmarks can
    /// read every node's modelled load from one snapshot.
    busy_counter: Counter,
    /// Per-color SNs issued (`seq.color_sns.<id>`), the autoscaler's
    /// per-color append-rate signal. Cached so a flush does not re-register
    /// the counter.
    color_sn_counters: HashMap<ColorId, Counter>,
    /// Highest controller generation seen on a `BumpEpoch` — the zombie
    /// fence. Volatile (NOT replicated to backups): a promoted backup
    /// starts at 0, so a zombie could in principle bump a freshly promoted
    /// leaf once — harmless, as a stray epoch bump only fences harder (SNs
    /// stay monotonic) and cannot cut a color over. Documented in DESIGN.md.
    ctrl_gen: u64,
}

impl SequencerNode {
    /// Creates the initial sequencer of a role at epoch 1.
    pub fn new(config: SequencerConfig, directory: Directory) -> Self {
        Self::with_epoch(config, directory, Epoch(1))
    }

    /// Creates a sequencer resuming at a given epoch (promotion path).
    pub fn with_epoch(config: SequencerConfig, directory: Directory, epoch: Epoch) -> Self {
        let batch_wait_hist = config.obs.histogram("seq.batch_wait_ns");
        let misrouted_dropped = config.obs.counter("seq.misrouted_dropped");
        let busy_counter = config
            .obs
            .counter(&format!("node.busy_ns.seq.{}", config.role.0));
        SequencerNode {
            config,
            directory,
            epoch,
            counters: HashMap::new(),
            seen_tokens: HashSet::new(),
            answered_tokens: HashMap::new(),
            answered_order: VecDeque::new(),
            buffers: HashMap::new(),
            pending_up: HashMap::new(),
            next_batch: 1,
            responded: HashMap::new(),
            responded_order: VecDeque::new(),
            stats: Arc::new(SequencerStats::default()),
            batch_wait_hist,
            misrouted_dropped,
            busy_counter,
            color_sn_counters: HashMap::new(),
            ctrl_gen: 0,
        }
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<SequencerStats> {
        Arc::clone(&self.stats)
    }

    /// The epoch this node issues SNs in.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Runs the sequencer loop until shutdown, crash, or self-demotion.
    /// Installs itself in the directory on entry.
    pub fn run<W: OrderWire>(mut self, ep: Endpoint<W>) {
        self.directory.set(self.config.role, ep.id());
        let mut hb_last_sent = Instant::now() - self.config.heartbeat_interval;
        let mut hb_acks: HashSet<NodeId> = HashSet::new();
        let mut hb_last_majority = Instant::now();
        let mut burst: Vec<(NodeId, W)> = Vec::new();

        loop {
            // Wait for the oldest open buffer to come due — its age counts, so
            // a request that arrived mid-burst is not held a whole window
            // more, and a wait this short is polled by simnet, not slept.
            // With nothing buffered, block for a coarse tick so an idle
            // sequencer does not busy-spin a core. (pending_up progress is
            // driven by incoming AggResps, which wake the recv — no need to
            // poll for it.)
            let wait = match self.buffers.values().map(|b| b.due_at).min() {
                Some(due) => due.saturating_duration_since(Instant::now()),
                None if self.config.backups.is_empty() => Duration::from_millis(50),
                None => (self.config.heartbeat_interval / 2).max(Duration::from_millis(1)),
            };
            // Drain a whole burst, handle every message, and only then run
            // the flush: co-arriving OReqs land in the same color buffers
            // and are answered by a single assignment pass.
            burst.clear();
            match ep.recv_batch(wait, RECV_BURST, &mut burst) {
                Ok(_) => {
                    for (from, wire) in burst.drain(..) {
                        let Some(msg) = wire.into_order() else { continue };
                        match self.handle(&ep, from, msg, &mut hb_acks, &mut hb_last_majority) {
                            Flow::Continue => {}
                            Flow::Stop => return,
                        }
                    }
                }
                Err(RecvError::Timeout) => {}
                Err(RecvError::Disconnected) => return,
            }

            self.flush_due(&ep);
            self.resend_stale(&ep);

            // Heartbeats + split-brain self-demotion (only with backups).
            if !self.config.backups.is_empty() {
                let now = Instant::now();
                if now - hb_last_sent >= self.config.heartbeat_interval {
                    let _ = ep.broadcast(
                        &self.config.backups,
                        W::from_order(OrderMsg::Heartbeat { epoch: self.epoch }),
                    );
                    hb_last_sent = now;
                }
                if now - hb_last_majority > self.config.delta * 3 {
                    // Lost contact with a majority of backups: shut down so
                    // two sequencers can never both serve (§5.2).
                    self.directory.clear_if(self.config.role, ep.id());
                    return;
                }
            }
        }
    }

    /// Handles one inbound message; [`Flow::Stop`] terminates the run loop.
    fn handle<W: OrderWire>(
        &mut self,
        ep: &Endpoint<W>,
        from: NodeId,
        msg: OrderMsg,
        hb_acks: &mut HashSet<NodeId>,
        hb_last_majority: &mut Instant,
    ) -> Flow {
        match msg {
            OrderMsg::Shutdown => return Flow::Stop,
            OrderMsg::OReq {
                color,
                token,
                nrecords,
                shard,
            } => {
                self.stats.oreqs.fetch_add(1, Ordering::Relaxed);
                let cost = HANDLE_OREQ_NS + HANDLE_PER_RECORD_NS * nrecords as u64;
                self.stats.busy_ns.fetch_add(cost, Ordering::Relaxed);
                self.busy_counter.add(cost);
                if !self.seen_tokens.insert(token) {
                    // Idempotence (Alg 1 line 31) — but if this token was
                    // already assigned, replay the response so
                    // late/partitioned replicas can still commit.
                    if let Some(&sn) = self.answered_tokens.get(&token) {
                        let _ = ep.broadcast(
                            &shard,
                            W::from_order(OrderMsg::OResp {
                                token,
                                last_sn: sn,
                            }),
                        );
                    }
                    return Flow::Continue;
                }
                self.buffer(
                    color,
                    Constituent::Origin {
                        token,
                        nrecords,
                        shard,
                    },
                );
            }
            OrderMsg::AggReq { color, batch, total } => {
                self.stats.busy_ns.fetch_add(HANDLE_AGG_NS, Ordering::Relaxed);
                self.busy_counter.add(HANDLE_AGG_NS);
                if let Some(&sn) = self.responded.get(&(from, batch)) {
                    // Child resend of an answered batch.
                    let _ = ep.send(from, W::from_order(OrderMsg::AggResp { batch, last_sn: sn }));
                    return Flow::Continue;
                }
                self.buffer(color, Constituent::Child { from, batch, total });
            }
            OrderMsg::AggResp { batch, last_sn } => {
                self.stats.busy_ns.fetch_add(HANDLE_AGG_NS, Ordering::Relaxed);
                self.busy_counter.add(HANDLE_AGG_NS);
                if let Some(p) = self.pending_up.remove(&batch) {
                    self.distribute(ep, p.color, p.constituents, last_sn, p.total);
                }
            }
            OrderMsg::HeartbeatAck { epoch } if epoch == self.epoch => {
                hb_acks.insert(from);
                if hb_acks.len() >= majority(self.config.backups.len()) {
                    *hb_last_majority = Instant::now();
                    hb_acks.clear();
                }
            }
            OrderMsg::BumpEpoch { role, gen } if role == self.config.role => {
                // Zombie-controller fence: refuse bumps from a generation
                // lower than any we have obeyed.
                if gen < self.ctrl_gen {
                    let _ = ep.send(
                        from,
                        W::from_order(OrderMsg::BumpFenced {
                            role: self.config.role,
                            gen: self.ctrl_gen,
                        }),
                    );
                    return Flow::Continue;
                }
                self.ctrl_gen = gen;
                // Reconfiguration fence: everything ordered so far belongs
                // to the old epoch; the counters restart so every SN issued
                // from here on compares greater (epoch is the high half of
                // the SN). Replicate before answering so a later backup
                // promotion resumes past us.
                self.epoch = self.epoch.next();
                self.counters.clear();
                if !self.config.backups.is_empty() {
                    let _ = ep.broadcast(
                        &self.config.backups,
                        W::from_order(OrderMsg::ReplicateEpoch { epoch: self.epoch }),
                    );
                }
                let _ = ep.send(
                    from,
                    W::from_order(OrderMsg::EpochIs {
                        role: self.config.role,
                        epoch: self.epoch,
                    }),
                );
            }
            // A backup (or old peer) probing with other control traffic — a
            // live leader ignores it; demotion only ever happens through
            // lost heartbeat majorities.
            _ => {}
        }
        Flow::Continue
    }

    fn buffer(&mut self, color: ColorId, c: Constituent) {
        let total = c.total();
        let batch_interval = self.config.batch_interval;
        let buf = self.buffers.entry(color).or_insert_with(|| {
            let opened_at = Instant::now();
            ColorBuffer {
                constituents: Vec::new(),
                total: 0,
                opened_at,
                due_at: opened_at + batch_interval,
            }
        });
        buf.constituents.push(c);
        buf.total += total;
    }

    fn flush_due<W: OrderWire>(&mut self, ep: &Endpoint<W>) {
        let now = Instant::now();
        let due: Vec<ColorId> = self
            .buffers
            .iter()
            .filter(|(_, b)| now >= b.due_at)
            .map(|(&c, _)| c)
            .collect();
        for color in due {
            let Some(mut buf) = self.buffers.remove(&color) else { continue };
            self.stats.batches.fetch_add(1, Ordering::Relaxed);
            self.batch_wait_hist
                .record_ns(now.saturating_duration_since(buf.opened_at));
            // The registry is authoritative when it knows the color: after a
            // leaf split re-homes a color, the old leaf must stop assigning
            // for it even though its static `owned` set still lists it. The
            // static set only decides for colors the registry never saw.
            let owned = match self.config.registry.owner(color) {
                Some(r) => r == self.config.role,
                None => self.config.owned.contains(&color),
            };
            if owned {
                // This node is the ordering root for the color: assign the
                // whole range with one counter bump.
                let counter = self.counters.entry(color).or_insert(0);
                *counter += buf.total;
                let last_sn = SeqNum::new(self.epoch, *counter);
                self.stats
                    .sns_issued
                    .fetch_add(buf.total as u64, Ordering::Relaxed);
                let obs = &self.config.obs;
                self.color_sn_counters
                    .entry(color)
                    .or_insert_with(|| obs.counter(&format!("seq.color_sns.{}", color.0)))
                    .add(buf.total as u64);
                self.distribute(ep, color, buf.constituents, last_sn, buf.total);
            } else {
                // Forward one merged request to the parent.
                let Some(parent_role) = self.config.parent else {
                    // Misrouted OReq for a color nobody above owns (stale
                    // routing during a reconfiguration): drop; the replica's
                    // staged-token resend retries against the new route.
                    self.misrouted_dropped.add(1);
                    continue;
                };
                let Some(parent) = self.directory.get(parent_role) else {
                    // Parent currently unknown (fail-over window): re-buffer.
                    buf.due_at = now + PARENT_RETRY;
                    self.buffers.insert(color, buf);
                    continue;
                };
                let batch = self.next_batch;
                self.next_batch += 1;
                let _ = ep.send(
                    parent,
                    W::from_order(OrderMsg::AggReq {
                        color,
                        batch,
                        total: buf.total,
                    }),
                );
                self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                self.pending_up.insert(
                    batch,
                    PendingUp {
                        color,
                        constituents: buf.constituents,
                        total: buf.total,
                        sent_at: now,
                    },
                );
            }
        }
    }

    /// Splits an assigned range `[last_sn - total + 1, last_sn]` across the
    /// batch constituents in arrival order.
    ///
    /// Origin replies bound for the same shard are coalesced into one
    /// [`OrderMsg::ORespBatch`] broadcast (singletons stay plain OResp), so
    /// a flush costs one message per destination shard instead of one per
    /// token — the emission half of the batch fast path.
    fn distribute<W: OrderWire>(
        &mut self,
        ep: &Endpoint<W>,
        color: ColorId,
        constituents: Vec<Constituent>,
        last_sn: SeqNum,
        total: u32,
    ) {
        // Order-preserving per-shard groups (shard sets are tiny and few per
        // flush; linear search beats hashing a Vec<NodeId> key).
        type ShardGroup = (Vec<NodeId>, Vec<(Token, SeqNum)>);
        let epoch = last_sn.epoch();
        let mut cursor = last_sn.counter() - total + 1;
        let mut groups: Vec<ShardGroup> = Vec::new();
        let mut spans: Vec<(Token, Stage, u64, u64)> = Vec::new();
        for c in constituents {
            match c {
                Constituent::Origin {
                    token,
                    nrecords,
                    shard,
                } => {
                    let sub_last = SeqNum::new(epoch, cursor + nrecords - 1);
                    // The SN now exists for this record: one SeqAssign per
                    // (token, color), stamped with the answering sequencer.
                    spans.push((token, Stage::SeqAssign, ep.id().0, color.0 as u64));
                    match groups.iter_mut().find(|(s, _)| *s == shard) {
                        Some((_, resps)) => resps.push((token, sub_last)),
                        None => groups.push((shard, vec![(token, sub_last)])),
                    }
                    self.remember_token(token, sub_last);
                    cursor += nrecords;
                }
                Constituent::Child { from, batch, total } => {
                    let sub_last = SeqNum::new(epoch, cursor + total - 1);
                    let _ = ep.send(
                        from,
                        W::from_order(OrderMsg::AggResp {
                            batch,
                            last_sn: sub_last,
                        }),
                    );
                    self.remember_response(from, batch, sub_last);
                    cursor += total;
                }
            }
        }
        self.config.obs.tracer().record_many(&spans);
        for (shard, resps) in groups {
            let msg = if resps.len() == 1 {
                let (token, last_sn) = resps[0];
                OrderMsg::OResp { token, last_sn }
            } else {
                OrderMsg::ORespBatch { resps }
            };
            let _ = ep.broadcast(&shard, W::from_order(msg));
        }
        debug_assert_eq!(cursor, last_sn.counter() + 1, "range fully distributed");
    }

    fn remember_token(&mut self, token: Token, sn: SeqNum) {
        self.answered_tokens.insert(token, sn);
        self.answered_order.push_back(token);
        while self.answered_order.len() > RESPONDED_CAP {
            if let Some(t) = self.answered_order.pop_front() {
                self.answered_tokens.remove(&t);
            }
        }
    }

    fn remember_response(&mut self, from: NodeId, batch: u64, sn: SeqNum) {
        self.responded.insert((from, batch), sn);
        self.responded_order.push_back((from, batch));
        while self.responded_order.len() > RESPONDED_CAP {
            if let Some(k) = self.responded_order.pop_front() {
                self.responded.remove(&k);
            }
        }
    }

    fn resend_stale<W: OrderWire>(&mut self, ep: &Endpoint<W>) {
        if self.pending_up.is_empty() {
            return;
        }
        let now = Instant::now();
        let Some(parent_role) = self.config.parent else { return };
        let Some(parent) = self.directory.get(parent_role) else { return };
        for (&batch, p) in self.pending_up.iter_mut() {
            if now - p.sent_at >= self.config.resend_timeout {
                let _ = ep.send(
                    parent,
                    W::from_order(OrderMsg::AggReq {
                        color: p.color,
                        batch,
                        total: p.total,
                    }),
                );
                p.sent_at = now;
            }
        }
    }
}

/// Majority of a backup set of size `n` (e.g. 2 backups → 2? no: 2 → 2/2+... ).
/// We require acknowledgements from ⌈n/2⌉ backups, which together with the
/// leader itself forms a strict majority of the (leader + backups) group.
fn majority(n: usize) -> usize {
    n.div_ceil(2)
}

impl Directory {
    /// Removes `role` only if `node` still holds it (demotion must not kick
    /// out a successor that already took over).
    pub fn clear_if(&self, role: RoleId, node: NodeId) {
        // Fine-grained compare-and-clear via the underlying map.
        if self.get(role) == Some(node) {
            self.clear(role);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_thresholds() {
        assert_eq!(majority(0), 0);
        assert_eq!(majority(1), 1);
        assert_eq!(majority(2), 1);
        assert_eq!(majority(3), 2);
        assert_eq!(majority(4), 2);
    }
}
