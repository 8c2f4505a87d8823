//! Bounded in-memory event tracer: a ring buffer of typed spans keyed by
//! record token, covering an append's whole journey
//! client → sequencer → replica → storage.
//!
//! ## Determinism contract
//!
//! The simnet runs real threads against the wall clock, so event
//! *timestamps* and *interleavings* vary run to run even under a fixed
//! seed. What IS deterministic under a fixed seed is the **logical chain**:
//! which stages executed at which nodes (shard choice, OReq delegate,
//! sequencer ownership and the replica set are all seed- or
//! topology-determined). [`Trace::canonical`] therefore renders exactly
//! that — the sorted, deduplicated set of `(stage, node, detail)` triples
//! over the timing-independent stages — and excludes timestamps, sequence
//! stamps, and the retry/recovery stages (`ClientRetransmit`, `SyncStart`,
//! `SyncDone`) whose occurrence depends on timing. Two same-seed runs
//! produce byte-identical canonical traces; wall-clock latency lives in
//! the registry histograms and in [`TraceEvent::at_ns`] for bound checks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flexlog_types::Token;

/// Sentinel token for events not tied to a single record (replica sync
/// phases): all-ones, never produced by `Token::new`.
pub const SYNC_TOKEN: Token = Token(u64::MAX);

/// Sentinel token for control-plane events (color migration, leaf splits):
/// all-ones minus one, never produced by `Token::new` (which would require
/// fid == u32::MAX and counter == u32::MAX - 1, but the all-ones fid is
/// reserved for sentinels by convention).
pub const CTRL_TOKEN: Token = Token(u64::MAX - 1);

/// Sentinel token for subscription-push events not attributable to a
/// single record (backlog catch-up batches whose per-record tokens have
/// aged out of the replica's recent-token window).
pub const SUB_TOKEN: Token = Token(u64::MAX - 2);

/// Pipeline stage of a traced event. The discriminant is the canonical
/// ordering rank (the order stages appear along the append data path).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Client broadcast the append to its shard.
    ClientSend = 0,
    /// Client re-sent an append that had not been acked in time.
    ClientRetransmit = 1,
    /// A replica staged the record (Algorithm 1 step 2).
    ReplicaStaged = 2,
    /// The delegate replica sent the order request upstream.
    OReqSent = 3,
    /// The owning sequencer assigned an SN (detail = color id).
    SeqAssign = 4,
    /// A replica learned the SN and committed the record.
    ReplicaCommit = 5,
    /// The storage engine durably admitted the record (detail = color id).
    StorageCommit = 6,
    /// The client received the commit ack.
    ClientAck = 7,
    /// A recovering replica entered the §6.3 sync phase.
    SyncStart = 8,
    /// The sync phase finished; the replica serves again.
    SyncDone = 9,
    /// The control plane froze a color on its source shard(s) before a
    /// migration (detail = color id).
    MigrateFreeze = 10,
    /// A committed span was exported from the source and imported at the
    /// destination (detail = color id).
    MigrateCopy = 11,
    /// The color→shard mapping was cut over to the destination and the
    /// epoch was bumped (detail = color id).
    MigrateCutover = 12,
    /// One pre-freeze catch-up round of an incremental migration shipped
    /// a delta span to the destination (detail = color id). Emitted once
    /// per round, while the source keeps serving appends.
    MigrateCatchup = 13,
    /// A restarting controller rolled one in-flight reconfiguration
    /// forward or back from its intent WAL (detail = the WAL op id).
    CtrlRecover = 14,
    /// A replica pushed a committed record to a registered subscriber
    /// (detail = color id). Which replica serves a subscription and how
    /// records fold into push batches both depend on timing, so the stage
    /// is excluded from the canonical chain.
    SubPush = 15,
    /// An archive round sealed records of a color into object-store
    /// segments (detail = color id). When a round runs — and on which
    /// replica — depends on trim timing and tiering-policy ticks, so the
    /// stage is excluded from the canonical chain.
    Archive = 16,
}

impl Stage {
    pub const fn rank(self) -> u8 {
        self as u8
    }

    pub const fn name(self) -> &'static str {
        match self {
            Stage::ClientSend => "client_send",
            Stage::ClientRetransmit => "client_retransmit",
            Stage::ReplicaStaged => "replica_staged",
            Stage::OReqSent => "oreq_sent",
            Stage::SeqAssign => "seq_assign",
            Stage::ReplicaCommit => "replica_commit",
            Stage::StorageCommit => "storage_commit",
            Stage::ClientAck => "client_ack",
            Stage::SyncStart => "sync_start",
            Stage::SyncDone => "sync_done",
            Stage::MigrateFreeze => "migrate_freeze",
            Stage::MigrateCopy => "migrate_copy",
            Stage::MigrateCutover => "migrate_cutover",
            Stage::MigrateCatchup => "migrate_catchup",
            Stage::CtrlRecover => "ctrl_recover",
            Stage::SubPush => "sub_push",
            Stage::Archive => "archive",
        }
    }

    /// Stages whose occurrence and placement are determined by the seed
    /// and topology alone (see the module-level determinism contract).
    /// `OReqSent` is excluded alongside the retry/recovery stages: which
    /// replica relays the order request (and how many do) depends on the
    /// race between the delegate's eager send and the periodic
    /// staged-token resend tick.
    pub const fn is_canonical(self) -> bool {
        !matches!(
            self,
            Stage::ClientRetransmit
                | Stage::OReqSent
                | Stage::SyncStart
                | Stage::SyncDone
                | Stage::MigrateFreeze
                | Stage::MigrateCopy
                | Stage::MigrateCutover
                | Stage::MigrateCatchup
                | Stage::CtrlRecover
                | Stage::SubPush
                | Stage::Archive
        )
    }
}

/// One recorded span point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub token: Token,
    pub stage: Stage,
    /// Raw `NodeId` bits of the node that recorded the event.
    pub node: u64,
    /// Stage-specific payload: the color id for `SeqAssign` /
    /// `StorageCommit`, 0 otherwise.
    pub detail: u64,
    /// Global record order stamp (total order over all traced events).
    pub seq: u64,
    /// Nanoseconds since the tracer was created (wall clock; NOT part of
    /// the canonical trace).
    pub at_ns: u64,
}

pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

struct Ring {
    buf: std::collections::VecDeque<TraceEvent>,
}

struct TracerInner {
    ring: Mutex<Ring>,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
}

/// Bounded event recorder. `Clone` shares the ring; recording takes one
/// short mutex section (a `VecDeque` push plus possible pop-front).
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tracer(len={}, cap={})", self.len(), self.capacity())
    }
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                ring: Mutex::new(Ring {
                    buf: std::collections::VecDeque::with_capacity(capacity.min(4096)),
                }),
                capacity: capacity.max(1),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                epoch: Instant::now(),
            }),
        }
    }

    /// The tracer's clock: what [`TraceEvent::at_ns`] would read now.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Record one event.
    pub fn record(&self, token: Token, stage: Stage, node: u64, detail: u64) {
        let ev = TraceEvent {
            token,
            stage,
            node,
            detail,
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            at_ns: self.now_ns(),
        };
        let mut ring = self.inner.ring.lock().unwrap();
        if ring.buf.len() == self.inner.capacity {
            ring.buf.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.buf.push_back(ev);
    }

    /// Record a burst under one lock acquisition and one clock read
    /// (used by batch commit paths).
    pub fn record_many(&self, events: &[(Token, Stage, u64, u64)]) {
        if events.is_empty() {
            return;
        }
        let at_ns = self.now_ns();
        let base = self
            .inner
            .seq
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        let mut ring = self.inner.ring.lock().unwrap();
        for (i, &(token, stage, node, detail)) in events.iter().enumerate() {
            if ring.buf.len() == self.inner.capacity {
                ring.buf.pop_front();
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.buf.push_back(TraceEvent {
                token,
                stage,
                node,
                detail,
                seq: base + i as u64,
                at_ns,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.inner.ring.lock().unwrap().buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// All currently buffered events in record order.
    pub fn all_events(&self) -> Vec<TraceEvent> {
        let ring = self.inner.ring.lock().unwrap();
        ring.buf.iter().copied().collect()
    }

    /// Buffered events for `token`, in record order.
    pub fn events_for(&self, token: Token) -> Vec<TraceEvent> {
        let ring = self.inner.ring.lock().unwrap();
        ring.buf.iter().filter(|e| e.token == token).copied().collect()
    }

    /// Reconstruct the journey of one record.
    pub fn trace(&self, token: Token) -> Trace {
        Trace {
            token,
            events: self.events_for(token),
        }
    }
}

// ---------------------------------------------------------------- trace ----

/// One record's reconstructed journey through the system.
#[derive(Clone, Debug)]
pub struct Trace {
    pub token: Token,
    /// Events in record (seq) order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    pub fn has_stage(&self, stage: Stage) -> bool {
        self.events.iter().any(|e| e.stage == stage)
    }

    /// Earliest timestamp at which `stage` was recorded.
    pub fn first_ns(&self, stage: Stage) -> Option<u64> {
        self.events
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.at_ns)
            .min()
    }

    /// Latest timestamp at which `stage` was recorded.
    pub fn last_ns(&self, stage: Stage) -> Option<u64> {
        self.events
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.at_ns)
            .max()
    }

    /// A committed append's full span chain: sent, staged, ordered,
    /// committed (replica + storage), acked.
    pub fn is_complete_append(&self) -> bool {
        self.has_stage(Stage::ClientSend)
            && self.has_stage(Stage::ReplicaStaged)
            && self.has_stage(Stage::SeqAssign)
            && self.has_stage(Stage::ReplicaCommit)
            && self.has_stage(Stage::StorageCommit)
            && self.has_stage(Stage::ClientAck)
    }

    /// The deterministic logical chain (see the module-level contract):
    /// sorted, deduplicated `(stage, node, detail)` triples of the
    /// canonical stages, rendered as bytes. Byte-identical across
    /// same-seed runs.
    pub fn canonical(&self) -> Vec<u8> {
        let mut chain: Vec<(u8, u64, u64)> = self
            .events
            .iter()
            .filter(|e| e.stage.is_canonical())
            .map(|e| (e.stage.rank(), e.node, e.detail))
            .collect();
        chain.sort_unstable();
        chain.dedup();
        let mut out = Vec::new();
        use std::io::Write as _;
        let _ = write!(out, "token={:#018x}", self.token.0);
        for (rank, node, detail) in chain {
            let stage = STAGE_BY_RANK[rank as usize];
            let _ = write!(out, ";{}@{:#x}#{}", stage.name(), node, detail);
        }
        out.push(b'\n');
        out
    }

    /// Human-readable rendering with per-stage timestamps and deltas from
    /// the first event.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace token={:#018x} ({} events)",
            self.token.0,
            self.events.len()
        );
        let t0 = self.events.iter().map(|e| e.at_ns).min().unwrap_or(0);
        for e in &self.events {
            let _ = writeln!(
                out,
                "  +{:>9}ns {:<17} node={:#x} detail={}",
                e.at_ns.saturating_sub(t0),
                e.stage.name(),
                e.node,
                e.detail
            );
        }
        out
    }

    /// Nanoseconds between the first occurrences of two stages, if both
    /// are present and ordered.
    pub fn span_ns(&self, from: Stage, to: Stage) -> Option<u64> {
        let a = self.first_ns(from)?;
        let b = self.last_ns(to)?;
        b.checked_sub(a)
    }
}

const STAGE_BY_RANK: [Stage; 17] = [
    Stage::ClientSend,
    Stage::ClientRetransmit,
    Stage::ReplicaStaged,
    Stage::OReqSent,
    Stage::SeqAssign,
    Stage::ReplicaCommit,
    Stage::StorageCommit,
    Stage::ClientAck,
    Stage::SyncStart,
    Stage::SyncDone,
    Stage::MigrateFreeze,
    Stage::MigrateCopy,
    Stage::MigrateCutover,
    Stage::MigrateCatchup,
    Stage::CtrlRecover,
    Stage::SubPush,
    Stage::Archive,
];

#[cfg(test)]
mod tests {
    use super::*;
    use flexlog_types::FunctionId;

    fn tok(c: u32) -> Token {
        Token::new(FunctionId(7), c)
    }

    #[test]
    fn ring_stays_bounded_and_counts_drops() {
        let t = Tracer::with_capacity(8);
        for i in 0..20u32 {
            t.record(tok(i), Stage::ClientSend, 1, 0);
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.dropped(), 12);
        // Oldest events were evicted; newest survive.
        assert!(t.events_for(tok(19)).len() == 1);
        assert!(t.events_for(tok(0)).is_empty());
    }

    #[test]
    fn record_many_is_equivalent_to_singles() {
        let t = Tracer::with_capacity(16);
        t.record_many(&[
            (tok(1), Stage::ReplicaCommit, 5, 0),
            (tok(2), Stage::ReplicaCommit, 5, 0),
        ]);
        assert_eq!(t.len(), 2);
        let evs = t.all_events();
        assert_eq!(evs[0].seq + 1, evs[1].seq);
        assert_eq!(evs[0].at_ns, evs[1].at_ns, "one clock read per burst");
    }

    #[test]
    fn canonical_excludes_timing_dependent_stages_and_dedups() {
        let t = Tracer::default();
        t.record(tok(1), Stage::ClientSend, 0x40, 0);
        t.record(tok(1), Stage::ClientRetransmit, 0x40, 0);
        t.record(tok(1), Stage::ReplicaStaged, 0x11, 0);
        t.record(tok(1), Stage::ReplicaStaged, 0x11, 0); // dup from retransmit
        t.record(tok(1), Stage::SyncStart, 0x11, 0);
        let c = t.trace(tok(1)).canonical();
        let s = String::from_utf8(c).unwrap();
        assert!(s.contains("client_send"));
        assert!(s.contains("replica_staged"));
        assert!(!s.contains("retransmit"));
        assert!(!s.contains("sync"));
        assert_eq!(s.matches("replica_staged").count(), 1, "deduped");
    }

    #[test]
    fn canonical_is_order_insensitive() {
        let a = Tracer::default();
        a.record(tok(3), Stage::ClientSend, 1, 0);
        a.record(tok(3), Stage::ReplicaStaged, 2, 0);
        let b = Tracer::default();
        b.record(tok(3), Stage::ReplicaStaged, 2, 0);
        b.record(tok(3), Stage::ClientSend, 1, 0);
        assert_eq!(a.trace(tok(3)).canonical(), b.trace(tok(3)).canonical());
    }

    #[test]
    fn complete_append_detection() {
        let t = Tracer::default();
        let k = tok(9);
        for (stage, node) in [
            (Stage::ClientSend, 0x40u64),
            (Stage::ReplicaStaged, 0x10),
            (Stage::OReqSent, 0x10),
            (Stage::SeqAssign, 0x20),
            (Stage::ReplicaCommit, 0x10),
            (Stage::StorageCommit, 0x10),
        ] {
            t.record(k, stage, node, 0);
        }
        assert!(!t.trace(k).is_complete_append(), "no ack yet");
        t.record(k, Stage::ClientAck, 0x40, 0);
        let tr = t.trace(k);
        assert!(tr.is_complete_append());
        assert!(tr.render().contains("client_ack"));
        assert!(tr.span_ns(Stage::ClientSend, Stage::ClientAck).is_some());
    }

    #[test]
    fn sync_sentinel_token_is_reserved() {
        // Token::new packs fid << 32 | counter: it can never be all-ones
        // with a real fid because the sentinel requires fid == u32::MAX
        // AND counter == u32::MAX; assert the constant is what we expect.
        assert_eq!(SYNC_TOKEN.0, u64::MAX);
    }
}
