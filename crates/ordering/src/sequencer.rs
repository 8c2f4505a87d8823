//! The sequencer node: leader logic of one position in the ordering tree.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_obs::{Counter, Histogram, ObsHandle, Stage};
use flexlog_simnet::{Endpoint, NodeId, RecvError};
use flexlog_types::{BoundedMap, ColorId, Epoch, FastMap, SeqNum, Token};

use crate::msg::{OrderMsg, OrderWire};
use crate::{Directory, PositionSpec, RoleId, TreeSpec};

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
/// one [`OrderMsg::OResp`] per shard — the sequencer batch fast path.
const RECV_BURST: usize = 128;

/// Counters exposed to benchmarks: handles into the tree's registry,
/// updated by the node thread.
#[derive(Clone, Debug)]
pub struct SequencerStats {
    /// Modelled busy time of this node (see the constants above), registered
    /// as `node.busy_ns.seq.<role>` so capacity benchmarks read every node's
    /// modelled load from one snapshot.
    pub busy_ns: Counter,
    /// Total sequence numbers issued by this node (only counts colors it
    /// is the ordering root for).
    pub sns_issued: Counter,
    /// OReqs received from replicas/clients.
    pub oreqs: Counter,
    /// Aggregated batches flushed (locally assigned or forwarded).
    pub batches: Counter,
    /// Requests forwarded to the parent.
    pub forwarded: Counter,
}

impl SequencerStats {
    fn new(obs: &ObsHandle, role: RoleId) -> Self {
        SequencerStats {
            busy_ns: obs.counter(&format!("node.busy_ns.seq.{}", role.0)),
            sns_issued: obs.counter("seq.sns_issued"),
            oreqs: obs.counter("seq.oreqs"),
            batches: obs.counter("seq.batches"),
            forwarded: obs.counter("seq.forwarded"),
        }
    }
}

/// A member of a pending batch, in arrival order.
enum Constituent {
    /// Direct OReq origin: reply goes to the shard's replicas.
    Origin {
        token: Token,
        nrecords: u32,
        shard: Arc<[NodeId]>,
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

/// How many tokens, and how many child batches, a sequencer remembers for
/// idempotence and replay. Beyond it a resend is a fresh request, which the
/// replicas' storage `write` dedups by token.
pub(crate) const RESPONDED_CAP: usize = 100_000;

/// One flush's answers bound for one shard: the shard, then per append its
/// token and last SN.
type ShardGroup = (Arc<[NodeId]>, Vec<(Token, SeqNum)>);

/// Shards a sequencer keeps an answer list for across flushes.
const MAX_KEPT_GROUPS: usize = 64;

/// Resend window for unanswered upstream requests.
const RESEND_TIMEOUT: Duration = Duration::from_millis(300);

/// Run-loop control flow after handling one message.
enum Flow {
    Continue,
    Stop,
}

/// See module docs.
pub struct SequencerNode {
    role: RoleId,
    parent: Option<RoleId>,
    /// Backup nodes replicating this sequencer's epoch.
    backups: Vec<NodeId>,
    /// The tree this node is a position of: its timing, catalog and obs.
    spec: TreeSpec,
    directory: Directory,
    epoch: Epoch,
    counters: FastMap<ColorId, u32>,
    /// Every token this node knows, and the replay cache: `None` while its
    /// OReq is buffered or pending upstream (a duplicate is dropped, Alg 1
    /// line 31), then its SN, so an OReq resend (e.g. from a replica that
    /// was partitioned during the OResp broadcast) gets the same answer
    /// re-broadcast instead of a new range.
    tokens: BoundedMap<Token, Option<SeqNum>>,
    buffers: FastMap<ColorId, ColorBuffer>,
    pending_up: FastMap<u64, PendingUp>,
    next_batch: u64,
    /// Replay cache: child batches already answered → their SN, so child
    /// resends get the same answer instead of a new range.
    responded: BoundedMap<(NodeId, u64), SeqNum>,
    stats: SequencerStats,
    /// Time each color batch spent open in the aggregation window before
    /// it was flushed (assigned or forwarded).
    batch_wait_hist: Histogram,
    /// OReqs dropped because no one above this node orders the color (stale
    /// routing during a reconfiguration; the replica's resend tick retries
    /// against the new entry role).
    misrouted_dropped: Counter,
    /// Per-color SNs issued (`seq.color_sns.<id>`), the autoscaler's
    /// per-color append-rate signal. Cached so a flush does not re-register
    /// the counter.
    color_sn_counters: FastMap<ColorId, Counter>,
    /// What one flush builds, kept for the next: a drained constituent
    /// list for the next color buffer to open, the per-shard answer groups
    /// (shard, answers) and the trace spans.
    spare: Vec<Constituent>,
    groups: Vec<ShardGroup>,
    spans: Vec<(Token, Stage, u64, u64)>,
    /// Highest controller generation seen on a `BumpEpoch` — the zombie
    /// fence. Volatile (NOT replicated to backups): a promoted backup
    /// starts at 0, so a zombie could in principle bump a freshly promoted
    /// leaf once — harmless, as a stray epoch bump only fences harder (SNs
    /// stay monotonic) and cannot cut a color over. Documented in DESIGN.md.
    ctrl_gen: u64,
}

impl SequencerNode {
    /// The sequencer of position `pos` in the tree `spec`, issuing SNs in
    /// `epoch` (1 at start; a promoted backup or a split-off leaf resumes
    /// above what its colors were ordered under).
    pub(crate) fn new(
        pos: &PositionSpec,
        backups: Vec<NodeId>,
        spec: &TreeSpec,
        directory: Directory,
        epoch: Epoch,
    ) -> Self {
        SequencerNode {
            role: pos.role,
            parent: pos.parent,
            backups,
            spec: spec.clone(),
            directory,
            epoch,
            counters: FastMap::default(),
            tokens: BoundedMap::new(RESPONDED_CAP),
            buffers: FastMap::default(),
            pending_up: FastMap::default(),
            next_batch: 1,
            responded: BoundedMap::new(RESPONDED_CAP),
            stats: SequencerStats::new(&spec.obs, pos.role),
            batch_wait_hist: spec.obs.histogram("seq.batch_wait_ns"),
            misrouted_dropped: spec.obs.counter("seq.misrouted_dropped"),
            color_sn_counters: FastMap::default(),
            spare: Vec::new(),
            groups: Vec::new(),
            spans: Vec::new(),
            ctrl_gen: 0,
        }
    }

    /// Shared statistics handles.
    pub(crate) fn stats(&self) -> SequencerStats {
        self.stats.clone()
    }

    /// Tokens this node would recognise a resend of.
    #[cfg(test)]
    pub(crate) fn remembered_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Runs the sequencer loop until shutdown, crash, or self-demotion.
    /// Installs itself in the directory on entry.
    pub(crate) fn run<W: OrderWire>(&mut self, ep: Endpoint<W>) {
        self.directory.set(self.role, ep.id());
        let mut hb_last_sent = Instant::now() - self.spec.heartbeat_interval;
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
                None if self.backups.is_empty() => Duration::from_millis(50),
                None => (self.spec.heartbeat_interval / 2).max(Duration::from_millis(1)),
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
            if !self.backups.is_empty() {
                let now = Instant::now();
                if now - hb_last_sent >= self.spec.heartbeat_interval {
                    let _ = ep.broadcast(
                        &self.backups,
                        W::from_order(OrderMsg::Heartbeat { epoch: self.epoch }),
                    );
                    hb_last_sent = now;
                }
                if now - hb_last_majority > self.spec.delta * 3 {
                    // Lost contact with a majority of backups: shut down so
                    // two sequencers can never both serve (§5.2).
                    self.directory.clear_if(self.role, ep.id());
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
                self.stats.oreqs.inc();
                self.stats
                    .busy_ns
                    .add(HANDLE_OREQ_NS + HANDLE_PER_RECORD_NS * nrecords as u64);
                match self.tokens.get(&token) {
                    // Idempotence (Alg 1 line 31): its answer is on the way.
                    Some(None) => {}
                    // Already assigned: replay the response so late or
                    // partitioned replicas can still commit.
                    Some(&Some(sn)) => {
                        let resps = Arc::from([(token, sn)]);
                        let _ = ep.broadcast(&shard, W::from_order(OrderMsg::OResp { resps }));
                    }
                    None => {
                        self.tokens.insert(token, None);
                        self.buffer(
                            color,
                            Constituent::Origin {
                                token,
                                nrecords,
                                shard,
                            },
                        );
                    }
                }
            }
            OrderMsg::AggReq { color, batch, total } => {
                self.stats.busy_ns.add(HANDLE_AGG_NS);
                if let Some(&sn) = self.responded.get(&(from, batch)) {
                    // Child resend of an answered batch.
                    let _ = ep.send(from, W::from_order(OrderMsg::AggResp { batch, last_sn: sn }));
                    return Flow::Continue;
                }
                self.buffer(color, Constituent::Child { from, batch, total });
            }
            OrderMsg::AggResp { batch, last_sn } => {
                self.stats.busy_ns.add(HANDLE_AGG_NS);
                if let Some(p) = self.pending_up.remove(&batch) {
                    self.distribute(ep, p.color, p.constituents, last_sn, p.total);
                }
            }
            OrderMsg::HeartbeatAck { epoch } if epoch == self.epoch => {
                hb_acks.insert(from);
                if hb_acks.len() >= majority(self.backups.len()) {
                    *hb_last_majority = Instant::now();
                    hb_acks.clear();
                }
            }
            OrderMsg::BumpEpoch { role, gen } if role == self.role => {
                // Zombie-controller fence: refuse bumps from a generation
                // lower than any we have obeyed.
                if gen < self.ctrl_gen {
                    let _ = ep.send(
                        from,
                        W::from_order(OrderMsg::BumpFenced {
                            role: self.role,
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
                if !self.backups.is_empty() {
                    let _ = ep.broadcast(
                        &self.backups,
                        W::from_order(OrderMsg::ReplicateEpoch { epoch: self.epoch }),
                    );
                }
                let _ = ep.send(
                    from,
                    W::from_order(OrderMsg::EpochIs {
                        role: self.role,
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
        let batch_interval = self.spec.batch_interval;
        let spare = &mut self.spare;
        let buf = self.buffers.entry(color).or_insert_with(|| {
            let opened_at = Instant::now();
            ColorBuffer {
                constituents: std::mem::take(spare),
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
        // Oldest first: a batch that waited longer is answered first. A
        // color re-buffered below is due again only after `now`.
        let next_due = |buffers: &FastMap<ColorId, ColorBuffer>| {
            let due = buffers.iter().filter(|(_, b)| now >= b.due_at);
            due.min_by_key(|(_, b)| b.due_at).map(|(&c, _)| c)
        };
        while let Some(color) = next_due(&self.buffers) {
            let Some(mut buf) = self.buffers.remove(&color) else { continue };
            self.stats.batches.inc();
            self.batch_wait_hist
                .record_ns(now.saturating_duration_since(buf.opened_at));
            // The catalog alone says who orders a color: once a leaf split
            // has re-homed it, the old leaf stops assigning with that write.
            if self.spec.catalog.owner(color) == Some(self.role) {
                // This node is the ordering root for the color: assign the
                // whole range with one counter bump.
                let counter = self.counters.entry(color).or_insert(0);
                *counter += buf.total;
                let last_sn = SeqNum::new(self.epoch, *counter);
                self.stats.sns_issued.add(buf.total as u64);
                let obs = &self.spec.obs;
                self.color_sn_counters
                    .entry(color)
                    .or_insert_with(|| obs.counter(&format!("seq.color_sns.{}", color.0)))
                    .add(buf.total as u64);
                self.distribute(ep, color, buf.constituents, last_sn, buf.total);
            } else {
                // Forward one merged request to the parent.
                let Some(parent_role) = self.parent else {
                    // Misrouted OReq for a color nobody above orders (stale
                    // routing during a reconfiguration): drop; the replica's
                    // staged-token resend retries against the new entry role.
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
                self.stats.forwarded.inc();
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
    /// Origin replies bound for the same shard travel in one
    /// [`OrderMsg::OResp`] broadcast, so a flush costs one message per
    /// destination shard instead of one per token — the emission half of
    /// the batch fast path.
    fn distribute<W: OrderWire>(
        &mut self,
        ep: &Endpoint<W>,
        color: ColorId,
        mut constituents: Vec<Constituent>,
        last_sn: SeqNum,
        total: u32,
    ) {
        // Order-preserving per-shard groups (shard sets are tiny and few per
        // flush; linear search beats hashing a shard list key). The groups
        // and their lists are the last flush's, emptied.
        let epoch = last_sn.epoch();
        let mut cursor = last_sn.counter() - total + 1;
        let (mut groups, mut spans) = (std::mem::take(&mut self.groups), std::mem::take(&mut self.spans));
        for c in constituents.drain(..) {
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
                    self.tokens.insert(token, Some(sub_last));
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
                    self.responded.insert((from, batch), sub_last);
                    cursor += total;
                }
            }
        }
        self.spec.obs.tracer().record_many(&spans);
        for (shard, resps) in &mut groups {
            if !resps.is_empty() {
                let answers = Arc::from(&resps[..]);
                resps.clear();
                let _ = ep.broadcast(shard, W::from_order(OrderMsg::OResp { resps: answers }));
            }
        }
        debug_assert_eq!(cursor, last_sn.counter() + 1, "range fully distributed");
        // Keep the lists for the next flush, unless shards came and went.
        if groups.len() > MAX_KEPT_GROUPS {
            groups.clear();
        }
        spans.clear();
        (self.groups, self.spans) = (groups, spans);
        if self.spare.capacity() < constituents.capacity() {
            self.spare = constituents;
        }
    }

    fn resend_stale<W: OrderWire>(&mut self, ep: &Endpoint<W>) {
        if self.pending_up.is_empty() {
            return;
        }
        let now = Instant::now();
        let Some(parent_role) = self.parent else { return };
        let Some(parent) = self.directory.get(parent_role) else { return };
        for (&batch, p) in self.pending_up.iter_mut() {
            if now - p.sent_at >= RESEND_TIMEOUT {
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

/// How many of `n` backups must acknowledge a leader (or a backup promoting
/// itself among `n` peers): ⌈n/2⌉, which with that node itself is a strict
/// majority of the group.
pub(crate) fn majority(n: usize) -> usize {
    n.div_ceil(2)
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
