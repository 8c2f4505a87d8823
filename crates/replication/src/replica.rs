//! The replica node: one member of a data-layer shard.
//!
//! A replica is a single-threaded event loop owning a
//! [`StorageServer`]. In normal operation it:
//!
//! * stages appends and requests SNs from its leaf sequencer (Algorithm 1);
//! * commits on OResp and acks every client that asked for the token —
//!   each wake's appends and order responses as one storage transaction,
//!   and one ack message per client per wake;
//! * serves linearizable local reads, holding requests above its max-seen
//!   SN for a bounded time (the hole rule, §6.3);
//! * answers subscribes/trims, and replays multi-color append sets on the
//!   client's `end` marker (Algorithm 2).
//!
//! When it restarts after a crash, or a newly elected sequencer sends
//! `InitSequencer`, it runs the **sync-phase** (§6.3): pause appends and
//! sequencer messages, exchange per-color state with all shard peers, run an
//! exact catch-up ([`Follower`]) against every peer whose state differs, and
//! pass an all-to-all `SyncDone` barrier before resuming — past it the
//! replicas whose states differed hold the union. Staged-but-uncommitted
//! tokens re-issue their order requests afterwards.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexlog_obs::{Histogram, Stage, CTRL_TOKEN, SYNC_TOKEN};
use flexlog_ordering::{Catalog, Directory, OrderMsg};
use flexlog_simnet::{Endpoint, NodeId, RecvError};
use flexlog_storage::{FetchSelect, StorageConfig, StorageServer, Written};
use flexlog_types::{Batch, ColorId, Epoch, FastMap, FunctionId, Payload, SeqNum, ShardId, Token};

use crate::follower::{self, Follower, Level};
use crate::msg::{
    AppendMsg, ClusterMsg, CtrlCmd, CtrlMsg, DataMsg, Fence, ReadMsg, RejectReason, SubMsg, SyncMsg,
};
use crate::serving::Serving;
use crate::ShardInfo;

/// Magic prefix of a multi-color-append set staged in the special color.
pub(crate) const MULTI_MAGIC: &[u8; 4] = b"MCA1";

/// An `Append` as the write path takes it: color, token, records, and
/// where its ack goes.
type Append = (ColorId, Token, Batch, NodeId);

/// The appends and order responses of one run of a wake, in arrival order:
/// one [`StorageServer::write`] call. Emptied by the call and kept for the
/// next run, like every list below.
#[derive(Default)]
struct Writes {
    appends: Vec<Append>,
    resps: Vec<(Token, SeqNum)>,
}

impl Writes {
    /// Takes `msg` into the run if it is an `Append` or an `OResp`, and
    /// hands anything else back.
    fn take(&mut self, msg: ClusterMsg) -> Option<ClusterMsg> {
        match msg {
            ClusterMsg::Data(DataMsg::Append(AppendMsg::Append {
                color,
                token,
                payloads,
                reply_to,
            })) => {
                self.appends.push((color, token, payloads, reply_to));
                None
            }
            ClusterMsg::Order(OrderMsg::OResp { resps }) => {
                self.resps.extend_from_slice(&resps);
                None
            }
            other => Some(other),
        }
    }

    fn is_empty(&self) -> bool {
        self.appends.is_empty() && self.resps.is_empty()
    }
}

/// What one run of a wake lists on its way through [`ReplicaNode::write`],
/// kept empty between runs so a wake allocates none of it.
#[derive(Default)]
struct WriteLists {
    /// The batches the run stages, as [`StorageServer::write`] takes them.
    stage: Vec<(Token, ColorId, Batch)>,
    /// Beside each: its record count and where its ack goes.
    staging: Vec<(u32, NodeId)>,
    spans: Vec<(Token, Stage, u64, u64)>,
    oreqs: Vec<(ColorId, Token, u32)>,
    committed: Vec<(Token, SeqNum)>,
    fills: Vec<(ColorId, SeqNum, Token)>,
}

impl WriteLists {
    fn clear(&mut self) {
        self.stage.clear();
        self.staging.clear();
        self.spans.clear();
        self.oreqs.clear();
        self.committed.clear();
        self.fills.clear();
    }
}

/// Who awaits the ack of one staged token: the client that sent it, and in
/// the rare case — a retransmit from another node, a multi-color replay —
/// more, each once.
#[derive(Debug)]
struct ReplyTo {
    first: NodeId,
    more: Vec<NodeId>,
}

impl ReplyTo {
    fn add(&mut self, node: NodeId) {
        if node != self.first && !self.more.contains(&node) {
            self.more.push(node);
        }
    }

    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.first).chain(self.more.iter().copied())
    }
}

/// Configuration of every data-layer node, quorum and read replica alike.
/// Which shard a node serves, its peers and its leaf sequencer are not
/// configured: the node reads them from the topology.
#[derive(Clone)]
pub struct ReplicaConfig {
    pub storage: StorageConfig,
    /// The failure-detection bound Δ (§4), the one clock every timer of
    /// the layer derives from: a read above the max-seen SN is held Δ/10
    /// before ⊥ (§6.3; [`ReplicaConfig::hold`]), an unanswered OReq is resent
    /// after Δ, and a stalled sync-phase restarts after 5Δ.
    pub delta: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            storage: StorageConfig::default(),
            delta: Duration::from_millis(100),
        }
    }
}

impl ReplicaConfig {
    /// How long a read above the max-seen SN waits before ⊥ (the hole
    /// rule, §6.3), and how young an early OResp must be to hold pushes
    /// back: Δ/10.
    pub(crate) fn hold(&self) -> Duration {
        self.delta / 10
    }
}

/// One trim round (§6.2) as seen from this replica, keyed by request id.
#[derive(Default)]
struct TrimPending {
    /// Our own `Trim` — its color and caller — once it has arrived; peers'
    /// acks may overtake it.
    local: Option<(ColorId, NodeId)>,
    peer_acks: HashSet<NodeId>,
}

/// In-flight multi-color append this replica is driving (acting as client).
struct MultiPending {
    req: u64,
    reply_to: NodeId,
    /// sub-token → replicas still owing an AppendAck.
    waiting: HashMap<Token, HashSet<NodeId>>,
}

struct SyncRound {
    round: u64,
    /// Who initiated init (to InitAck after the barrier), with the epoch.
    init: Option<(NodeId, Epoch)>,
    /// The peers whose state for this round is in.
    reported: HashSet<NodeId>,
    /// Their reported (color, tail, count), still to be compared with ours
    /// and, where they differ, caught up with — one catch-up at a time.
    todo: Vec<(NodeId, (ColorId, SeqNum, u64))>,
    done: HashSet<NodeId>,
    self_done: bool,
    started: Instant,
}

enum Mode {
    Operational,
    Syncing(Box<SyncRound>),
}

/// See module docs.
pub struct ReplicaNode {
    config: ReplicaConfig,
    /// This node's shard as the topology listed it at start: its id, its
    /// replicas — sorted, the list every OReq shares — and its leaf, none
    /// of which changes for the shard's life. (Its read replicas can; a quorum
    /// replica never reads them.)
    shard: ShardInfo,
    /// The shard's other replicas.
    peers: Vec<NodeId>,
    directory: Directory,
    topology: Catalog,
    /// Storage, push subscriptions, held reads and the busy-time counter.
    serving: Serving,
    /// Every catch-up this node runs: §6.3 sync against its own shard's
    /// peers, migration copies against other shards.
    follower: Follower,
    /// The deferred ack of each `CtrlCmd::CatchUp` in flight, by (color,
    /// source shard): where it goes — the controller and its request — and
    /// whether it is the `last` round.
    catchups: HashMap<(ColorId, ShardId), ((NodeId, u64), bool)>,
    known_epoch: Epoch,
    mode: Mode,
    /// What sync catch-ups installed, whichever round ran them; reaches the
    /// serving half — and, as fills, the subscribers — at the next barrier.
    sync_fresh: Vec<(ColorId, SeqNum, Token)>,
    /// Clients (and peer replicas acting as clients) awaiting acks per token.
    reply_tos: FastMap<Token, ReplyTo>,
    /// OResps that arrived before the matching Append, with arrival time —
    /// young entries act as a push barrier so subscription pushes never
    /// skip past a commit-order hole the replica knows will fill.
    pending_oresp: FastMap<Token, (SeqNum, Instant)>,
    /// Last OReq send time per staged token (resend on silence).
    oreq_sent: FastMap<Token, Instant>,
    /// The current run of a wake's appends and OResps, and the lists
    /// [`Self::write`] fills for it.
    writes: Writes,
    lists: WriteLists,
    /// Last staged-token resend scan (see [`Self::tick`]): the scan
    /// copies every entry of the storage server's staged map out under its
    /// lock, so running it every wake would make a busy replica (~50 k
    /// appends/s) pay one pass over the staged map per burst for a path
    /// that only matters on sequencer fail-over. Rate-limited instead.
    last_oreq_scan: Instant,
    trims: HashMap<u64, TrimPending>,
    multi: Vec<MultiPending>,
    /// The staged multi-color sets already replayed, so a repeated
    /// `MultiEnd` replays none twice. A trim of the special color forgets
    /// the sets it removed.
    processed_multi: HashSet<Token>,
    /// Appends, registrations and OResps deferred while syncing, and the
    /// appends of frozen colors (re-handled by [`Self::release`]).
    deferred: VecDeque<(NodeId, ClusterMsg)>,
    round_counter: u64,
    /// Highest sync round seen (restart rounds must exceed it).
    last_round: u64,
    rng: StdRng,
    /// If a recovery sync must start immediately on boot.
    start_with_sync: bool,
    /// Wall time of one wake's storage transaction that committed
    /// something, stage half included (`replica.commit_batch_ns`).
    commit_hist: Histogram,
    /// The wake's acks, per client, in the order the clients came up: sent
    /// as one `AppendAck` each when the wake ends ([`Self::send_acks`]).
    acks: Vec<(NodeId, Vec<(Token, SeqNum)>)>,
    /// The reconfiguration fence of every fenced color.
    fences: HashMap<ColorId, Fence>,
    /// Highest controller generation seen — the zombie fence. Mutating
    /// ctrl messages carrying a lower generation are nacked.
    ctrl_gen: u64,
}

impl ReplicaNode {
    /// Replica `node` of the shard the topology lists it in, fresh with
    /// empty storage.
    pub fn new(
        node: NodeId,
        config: ReplicaConfig,
        directory: Directory,
        topology: Catalog,
    ) -> Self {
        let storage = Arc::new(StorageServer::new(config.storage.clone()));
        Self::with_storage(node, config, directory, topology, storage, false)
    }

    /// A replica recovering from crashed devices: replays storage and runs
    /// the sync-phase before serving (§6.3 "Recovery").
    pub fn recovered(
        node: NodeId,
        config: ReplicaConfig,
        directory: Directory,
        topology: Catalog,
        storage: Arc<StorageServer>,
    ) -> Self {
        Self::with_storage(node, config, directory, topology, storage, true)
    }

    fn with_storage(
        node: NodeId,
        config: ReplicaConfig,
        directory: Directory,
        topology: Catalog,
        storage: Arc<StorageServer>,
        start_with_sync: bool,
    ) -> Self {
        let mut shard = topology.shard_of(node).expect("a replica the topology lists");
        let mut replicas = shard.replicas.to_vec();
        replicas.sort_unstable();
        shard.replicas = replicas.into();
        let peers = shard.replicas.iter().copied().filter(|&p| p != node).collect();
        let commit_hist = config.storage.obs.histogram("replica.commit_batch_ns");
        let follower = Follower::new(Arc::clone(&storage), shard.id, "replica");
        let serving = Serving::new(storage, config.hold());
        ReplicaNode {
            config,
            shard,
            peers,
            directory,
            topology,
            serving,
            follower,
            catchups: HashMap::new(),
            known_epoch: Epoch(1),
            mode: Mode::Operational,
            sync_fresh: Vec::new(),
            reply_tos: FastMap::default(),
            pending_oresp: FastMap::default(),
            oreq_sent: FastMap::default(),
            writes: Writes::default(),
            lists: WriteLists::default(),
            last_oreq_scan: Instant::now(),
            trims: HashMap::new(),
            multi: Vec::new(),
            processed_multi: HashSet::new(),
            deferred: VecDeque::new(),
            round_counter: 0,
            last_round: 0,
            rng: StdRng::seed_from_u64(0xF1E7),
            start_with_sync,
            commit_hist,
            acks: Vec::new(),
            fences: HashMap::new(),
            ctrl_gen: 0,
        }
    }

    /// Multi-color sets remembered as replayed.
    #[cfg(test)]
    pub(crate) fn replayed_sets(&self) -> usize {
        self.processed_multi.len()
    }

    /// Shared storage handle (benchmarks read tier stats through it).
    pub fn storage(&self) -> Arc<StorageServer> {
        Arc::clone(&self.serving.storage)
    }

    /// Runs the replica loop until shutdown or crash.
    ///
    /// Messages are drained in bounded bursts, and a wake is one unit of
    /// work: each run of consecutive `Append`s and `OResp`s in a burst (the
    /// common shape under pipelined clients) goes to storage as **one** PM
    /// transaction ([`StorageServer::write`]) that stages the new batches
    /// and commits the ordered ones — mirroring the sequencer's aggregation
    /// window at the data layer — and the OReqs for what it staged go out
    /// after it. Every client gets one `AppendAck` per wake. Per-message
    /// semantics are unchanged: the burst is processed in arrival order.
    pub fn run(mut self, ep: Endpoint<ClusterMsg>) {
        /// Upper bound of one opportunistic drain (keeps ticks timely).
        const MAX_DRAIN: usize = 128;

        self.serving.enter(&ep, "replica");
        if self.start_with_sync && !self.peers.is_empty() {
            self.begin_sync(&ep, None);
        } else if self.start_with_sync {
            // Single-replica shard: nothing to sync with; just re-issue
            // order requests for staged tokens.
            self.reissue_staged_oreqs(&ep);
        }
        let mut burst: Vec<(NodeId, ClusterMsg)> = Vec::new();
        loop {
            // Adaptive idle tick: with no held reads, no subscriber
            // catching up and no sync in flight nothing in `tick()` is
            // deadline-sensitive below the resend scan granularity, so
            // sleep longer and cut idle wakeups.
            let tick = if self.serving.idle() && !self.syncing() {
                self.config.delta / 8
            } else {
                self.config.hold().clamp(Duration::from_millis(1), Duration::from_millis(5))
            };
            burst.clear();
            match ep.recv_batch(tick, MAX_DRAIN, &mut burst) {
                Ok(_) => {}
                Err(RecvError::Timeout) => {}
                Err(RecvError::Disconnected) => return,
            }
            if !self.wake(&ep, &mut burst) {
                return;
            }
        }
    }

    /// One wake over `burst`, in arrival order; false on shutdown. Each run
    /// of consecutive `Append`s and `OResp`s is one [`Self::write`], every
    /// other message goes to its handler, and the wake ends with its acks
    /// and a tick.
    pub(crate) fn wake(&mut self, ep: &Endpoint<ClusterMsg>, burst: &mut Vec<(NodeId, ClusterMsg)>) -> bool {
        let n_msgs = burst.len() as u64;
        for (from, msg) in burst.drain(..) {
            // While syncing, every message goes to its own handler,
            // which parks appends and OResps for the barrier.
            let Some(msg) = (if self.syncing() { Some(msg) } else { self.writes.take(msg) }) else {
                continue;
            };
            self.write(ep);
            let open = match msg {
                ClusterMsg::Data(m) => self.handle_data(ep, from, m),
                ClusterMsg::Order(m) => {
                    self.handle_order(ep, from, m);
                    true
                }
            };
            if !open {
                self.send_acks(ep);
                return false;
            }
        }
        self.write(ep);
        self.send_acks(ep);
        self.tick(ep);
        self.serving.charge_pass(n_msgs);
        true
    }

    // ----- normal-path handlers ------------------------------------------

    fn syncing(&self) -> bool {
        matches!(self.mode, Mode::Syncing(_))
    }

    /// Dispatches by plane. Returns false on shutdown.
    fn handle_data(&mut self, ep: &Endpoint<ClusterMsg>, from: NodeId, msg: DataMsg) -> bool {
        match msg {
            DataMsg::Append(m) => self.handle_append_plane(ep, from, m),
            DataMsg::Read(m) => self.handle_read_plane(ep, from, m),
            DataMsg::Sub(m) => self.handle_sub_plane(ep, from, m),
            DataMsg::Sync(m) => self.handle_sync_plane(ep, from, m),
            DataMsg::Ctrl(m) => self.handle_ctrl_plane(ep, from, m),
            DataMsg::Shutdown => return false,
        }
        true
    }

    fn handle_append_plane(&mut self, ep: &Endpoint<ClusterMsg>, from: NodeId, msg: AppendMsg) {
        match msg {
            AppendMsg::Append { color, token, payloads, reply_to } => {
                self.writes.appends.push((color, token, payloads, reply_to));
                self.write(ep);
            }
            // We are a client here: multi-color sub-appends got acked.
            AppendMsg::AppendAck { acks } => {
                for (token, _) in acks {
                    self.note_multi_ack(ep, from, token);
                }
            }
            AppendMsg::MultiEnd { fid, req, reply_to } => {
                self.handle_multi_end(ep, fid, req, reply_to);
            }
            // Client-bound. A replica sees `Rejected` only for a fenced
            // multi-color sub-append it drives, and does not re-route those.
            AppendMsg::Rejected { .. } | AppendMsg::MultiAck { .. } => {}
        }
    }

    fn handle_read_plane(&mut self, ep: &Endpoint<ClusterMsg>, from: NodeId, msg: ReadMsg) {
        match msg {
            ReadMsg::Read { color, sn, req } => {
                self.serving.read(ep, from, color, sn, req);
            }
            ReadMsg::Subscribe { color, from: from_sn, req } => {
                self.serving.scan(ep, from, color, from_sn, req);
            }
            ReadMsg::Trim { color, up_to, req } => {
                let storage = &self.serving.storage;
                let _ = storage.trim(color, up_to);
                if color == ColorId::MASTER {
                    // The sets the trim removed can never be replayed again.
                    let staged_here = |t: &Token| storage.committed_sn(ColorId::MASTER, *t).is_some();
                    self.processed_multi.retain(staged_here);
                }
                // Second round: tell every peer we applied it; collect
                // theirs before answering the caller (§6.2).
                let ack = ReadMsg::TrimPeerAck { color, up_to, req };
                let _ = ep.broadcast(&self.peers, ack.into());
                self.trims.entry(req).or_default().local = Some((color, from));
                self.maybe_finish_trim(ep, req);
            }
            ReadMsg::TrimPeerAck { req, .. } => {
                // Register the ack even if our own Trim has not arrived yet.
                self.trims.entry(req).or_default().peer_acks.insert(from);
                self.maybe_finish_trim(ep, req);
            }
            // Client-bound replies.
            ReadMsg::ReadResp { .. } | ReadMsg::SubscribeResp { .. } | ReadMsg::TrimAck { .. } => {}
        }
    }

    fn handle_sub_plane(&mut self, ep: &Endpoint<ClusterMsg>, from: NodeId, msg: SubMsg) {
        let mut gone = None;
        if let SubMsg::SubscribeFrom { color, .. } = msg {
            if self.syncing() {
                // The log may be mid-fetch; register once it is whole.
                return self.deferred.push_back((from, msg.into()));
            }
            // A frozen color still serves subscriptions; one that left
            // redirects them.
            if let Some(&Fence::Gone(reason)) = self.fences.get(&color) {
                gone = Some(reason);
            }
        }
        self.serving.sub_plane(ep, msg, gone, self.sub_barrier());
    }

    fn handle_sync_plane(&mut self, ep: &Endpoint<ClusterMsg>, from: NodeId, msg: SyncMsg) {
        match msg {
            SyncMsg::SyncRequest { round } => self.join_sync(ep, round, None),
            SyncMsg::SyncState { round, epoch, tails, ctrl_gen, marks } => {
                self.known_epoch = self.known_epoch.max(epoch);
                self.merge_ctrl_marks(ctrl_gen, &marks);
                // A peer entered a round we are not in yet (or we are
                // operational): join it. No-op for our own or a stale round.
                self.join_sync(ep, round, None);
                if let Some(s) = self.sync_round(round) {
                    // A peer reports once per round: a repeat changes
                    // nothing, and must not step on a catch-up in flight.
                    if s.reported.insert(from) {
                        s.todo.extend(tails.into_iter().map(|t| (from, t)));
                        self.advance_sync(ep);
                    }
                }
            }
            SyncMsg::Fetch { req, color, mut select } => {
                // Serve regardless of our own mode: the requester decided
                // we are the source. Trim-aware: an `Above` scan never
                // starts below the head, and the head itself ships so a
                // destination hides the trimmed prefix.
                let head = self.serving.storage.head(color);
                if let FetchSelect::Above { sn, .. } = &mut select {
                    *sn = (*sn).max(head.unwrap_or(SeqNum::ZERO));
                }
                let records = self.serving.storage.fetch(color, &select);
                let count = self.serving.storage.record_count(color) as u64;
                let cursors = self.serving.subs.export_cursors(color);
                let _ = ep.send(
                    from,
                    SyncMsg::Records { req, color, head, count, records, cursors }.into(),
                );
            }
            // Answers to this node's own catch-ups, whoever started them.
            m @ (SyncMsg::Records { .. } | SyncMsg::SpanDigestResp { .. }) => {
                if let Some(level) = self.follower.on_reply(ep, Instant::now(), from, m) {
                    self.on_level(ep, level);
                }
            }
            SyncMsg::SyncDone { round } => {
                if let Some(s) = self.sync_round(round) {
                    s.done.insert(from);
                    self.maybe_finish_sync(ep);
                }
            }
            SyncMsg::ColorStatus { color, req } => {
                let storage = &self.serving.storage;
                let staged = storage
                    .staged_tokens()
                    .into_iter()
                    .filter(|&(_, c, _)| c == color)
                    .count() as u64;
                let count = storage.record_count(color) as u64;
                let _ = ep.send(from, SyncMsg::ColorInfo { req, staged, count }.into());
            }
            SyncMsg::SpanDigest { color, req } => {
                let above = self.serving.storage.head(color).unwrap_or(SeqNum::ZERO);
                let sns = self.serving.storage.committed_sns(color, above);
                let _ = ep.send(from, SyncMsg::SpanDigestResp { req, color, sns }.into());
            }
            // Controller-bound.
            SyncMsg::ColorInfo { .. } => {}
        }
    }

    /// The sync round in progress, if it is `round`.
    fn sync_round(&mut self, round: u64) -> Option<&mut SyncRound> {
        match &mut self.mode {
            Mode::Syncing(s) if s.round == round => Some(s),
            _ => None,
        }
    }

    /// The one gen-fenced entry point of the control plane: a command from
    /// a generation we have already seen superseded is nacked and dropped
    /// on the floor (zombie fencing); anything else raises the floor, is
    /// applied, and is acked.
    fn handle_ctrl_plane(&mut self, ep: &Endpoint<ClusterMsg>, from: NodeId, msg: CtrlMsg) {
        match msg {
            CtrlMsg::Cmd { gen, req, .. } if gen < self.ctrl_gen => {
                let _ = ep.send(from, CtrlMsg::Nack { req, gen: self.ctrl_gen }.into());
            }
            CtrlMsg::Cmd { gen, req, cmd } => {
                self.ctrl_gen = gen;
                if let Some(moved) = self.apply_ctrl(ep, (from, req), cmd) {
                    let _ = ep.send(from, CtrlMsg::Ack { req, moved }.into());
                }
            }
            // Controller-bound replies.
            CtrlMsg::Ack { .. } | CtrlMsg::Nack { .. } => {}
        }
    }

    /// Applies one (already fence-checked) control command whose ack goes
    /// to `ack` (the controller, its request); returns the records it moved
    /// if it is done and to be acked now. `CatchUp` is the one that is not:
    /// [`Self::on_level`] acks it.
    fn apply_ctrl(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        ack: (NodeId, u64),
        cmd: CtrlCmd,
    ) -> Option<u64> {
        let (obs, node) = (self.config.storage.obs.clone(), ep.id().0);
        let trace = |stage: Stage, color: ColorId| {
            obs.trace_event(CTRL_TOKEN, stage, node, color.0 as u64);
        };
        match cmd {
            CtrlCmd::Hello => {}
            CtrlCmd::CatchUp { color, shard, sources, last } => {
                // A repeated command re-targets the pending ack and starts
                // over from the cursor already reached.
                self.follower.cancel(|c, s| (c, s) == (color, shard));
                self.catchups.insert((color, shard), (ack, last));
                let copy = if last { follower::Mode::Exact } else { follower::Mode::Cold };
                self.follower.start(ep, Instant::now(), (color, shard), &sources, copy);
                return None;
            }
            CtrlCmd::Freeze(color) => {
                self.raise(color, Fence::Frozen);
                trace(Stage::MigrateFreeze, color);
            }
            // Every other command that moves a color's fence re-handles
            // the appends parked on it.
            CtrlCmd::Unfreeze(color) => {
                self.thaw(color);
                self.release(ep, color);
            }
            CtrlCmd::Adopt(color) => {
                self.forget_catchups(color);
                self.fences.remove(&color);
                self.release(ep, color);
            }
            CtrlCmd::Cutover(color) => {
                self.raise(color, Fence::Gone(RejectReason::ColorMoved));
                // Never strand a subscriber on the old shard: its cursor
                // already rode the last catch-up round to the destination;
                // the redirect tells it to re-resolve the topology too.
                self.serving.subs.redirect_color(ep, color, RejectReason::ColorMoved);
                trace(Stage::MigrateCutover, color);
                self.release(ep, color);
            }
            CtrlCmd::Drop(color) => {
                self.raise(color, Fence::Gone(RejectReason::Dropped));
                // Terminal for subscribers: the color will never commit
                // another record anywhere.
                self.serving.subs.redirect_color(ep, color, RejectReason::Dropped);
                self.release(ep, color);
            }
            CtrlCmd::Discard(color) => {
                // Roll-back of a partial copy: stop copying, then wipe the
                // color's committed records (idempotent — a repeat discard
                // finds nothing).
                self.forget_catchups(color);
                let _ = self.serving.storage.discard_color(color);
                self.thaw(color);
                self.release(ep, color);
                // Cursors adopted from an aborted migration go back through
                // topology re-resolution (the source was unfrozen).
                self.serving.subs.redirect_color(ep, color, RejectReason::ColorMoved);
            }
            // A fenced color is off limits: mid-migration its span is being
            // exported or discarded (the tiering tick retries after
            // cutover), and a color that left is no longer ours to archive.
            // Ack without acting so the round completes.
            CtrlCmd::Archive { color, .. } if self.fences.contains_key(&color) => {}
            CtrlCmd::Archive { color, max_records, demote: true, .. } => {
                return Some(self.serving.storage.demote_color(color, max_records).unwrap_or(0));
            }
            CtrlCmd::Archive { color, keep_tail, max_records, demote: false } => {
                let archived = self.serving.storage.archive_prefix(color, keep_tail, max_records);
                let archived = archived.unwrap_or(0);
                if archived > 0 {
                    trace(Stage::Archive, color);
                }
                return Some(archived);
            }
        }
        Some(0)
    }

    /// Raises `color`'s fence to at least `fence`: short of a thaw or an
    /// adopt, a fence only ever strengthens (see [`Fence`]'s order).
    fn raise(&mut self, color: ColorId, fence: Fence) {
        let f = self.fences.entry(color).or_insert(fence);
        *f = (*f).max(fence);
    }

    /// Lifts a freeze of `color`, and nothing stronger.
    fn thaw(&mut self, color: ColorId) {
        self.fences.retain(|&c, &mut f| (c, f) != (color, Fence::Frozen));
    }

    /// Re-handles the appends parked on `color` through the normal append
    /// path, in arrival order, after a command moved its fence: a thawed
    /// color stages them (mid-sync it parks them again, for the barrier),
    /// a moved or dropped one nacks them.
    fn release(&mut self, ep: &Endpoint<ClusterMsg>, color: ColorId) {
        let deferred = std::mem::take(&mut self.deferred);
        let (parked, rest) = deferred.into_iter().partition(|(_, m)| match m {
            ClusterMsg::Data(DataMsg::Append(AppendMsg::Append { color: c, .. })) => *c == color,
            _ => false,
        });
        self.deferred = rest;
        self.redeliver(ep, parked);
    }

    /// Hands messages taken off `deferred` back to their handlers, in order.
    fn redeliver(&mut self, ep: &Endpoint<ClusterMsg>, msgs: VecDeque<(NodeId, ClusterMsg)>) {
        for (from, m) in msgs {
            match m {
                ClusterMsg::Data(m) => {
                    let _ = self.handle_data(ep, from, m);
                }
                ClusterMsg::Order(m) => self.handle_order(ep, from, m),
            }
        }
    }

    /// `color` is adopted or discarded here: no catch-up of it is wanted
    /// any more, and no ack of one.
    fn forget_catchups(&mut self, color: ColorId) {
        self.follower.forget(color);
        self.catchups.retain(|&(c, _), _| c != color);
    }

    /// One of this node's catch-ups is level. What started it says whose it
    /// is: a `CatchUp` command owes the controller its ack; anything else
    /// against our own shard belongs to the sync round in progress.
    fn on_level(&mut self, ep: &Endpoint<ClusterMsg>, level: Level) {
        if let Some(((ctrl, req), last)) = self.catchups.remove(&(level.color, level.source)) {
            let obs = &self.config.storage.obs;
            obs.trace_event(CTRL_TOKEN, Stage::MigrateCopy, ep.id().0, level.color.0 as u64);
            // Subscription cursors ride the last round. Only the shard's
            // delegate adopts them — every destination replica pulls the
            // same copy, and N replicas each pushing to the same subscriber
            // would multiply every record by N.
            if last && !level.cursors.is_empty() && self.is_oreq_delegate(ep) {
                self.serving.subs.adopt_cursors(ep, level.color, &level.cursors);
            }
            let _ = ep.send(ctrl, CtrlMsg::Ack { req, moved: level.imported }.into());
        } else {
            self.sync_fresh.extend(level.fresh);
            self.advance_sync(ep);
        }
    }

    fn handle_order(&mut self, ep: &Endpoint<ClusterMsg>, from: NodeId, msg: OrderMsg) {
        match msg {
            // Sequencer messages pause during the sync-phase.
            m @ OrderMsg::OResp { .. } if self.syncing() => {
                self.deferred.push_back((from, ClusterMsg::Order(m)));
            }
            OrderMsg::OResp { resps } => {
                self.writes.resps.extend_from_slice(&resps);
                self.write(ep);
            }
            OrderMsg::InitSequencer { role, epoch } => {
                if role != self.shard.leaf {
                    return;
                }
                if epoch > self.known_epoch {
                    self.known_epoch = epoch;
                }
                // The new sequencer waits for *all* replicas to sync and
                // ack before serving (§6.3).
                if self.peers.is_empty() {
                    let _ = ep.send(from, ClusterMsg::Order(OrderMsg::InitAck { epoch }));
                    self.reissue_staged_oreqs(ep);
                } else {
                    self.begin_sync(ep, Some((from, epoch)));
                }
            }
            _ => {}
        }
    }

    /// One run of a wake's appends and order responses (`self.writes`), as
    /// one storage transaction ([`StorageServer::write`]): stages the
    /// appends this replica takes, commits every answered token — an append
    /// whose OResp is in the same run or came earlier is staged and
    /// committed at once — and queues the acks. Then, and only then, the
    /// OReqs of what stayed staged go out. Tokens whose `Append` has not
    /// landed yet are parked in `pending_oresp` and commit on arrival.
    fn write(&mut self, ep: &Endpoint<ClusterMsg>) {
        if self.writes.is_empty() {
            return;
        }
        let (mut writes, mut lists) = (std::mem::take(&mut self.writes), std::mem::take(&mut self.lists));
        self.write_run(ep, &mut writes, &mut lists);
        writes.resps.clear();
        lists.clear();
        (self.writes, self.lists) = (writes, lists);
    }

    fn write_run(&mut self, ep: &Endpoint<ClusterMsg>, writes: &mut Writes, lists: &mut WriteLists) {
        let Writes { appends, resps } = writes;
        let WriteLists { stage, staging, spans, oreqs, committed, fills } = lists;
        for (color, token, payloads, reply_to) in appends.drain(..) {
            if self.admit(ep, color, token, &payloads, reply_to) {
                if let Some((sn, _)) = self.pending_oresp.remove(&token) {
                    // Its OResp came first, unless the batch committed
                    // here since (a sync installed it).
                    if self.re_ack(color, token, reply_to) {
                        continue;
                    }
                    resps.push((token, sn));
                }
                staging.push((payloads.len() as u32, reply_to));
                stage.push((token, color, payloads));
            }
        }
        if stage.is_empty() && resps.is_empty() {
            return;
        }

        let start = Instant::now();
        self.serving.charge_records(resps.len());
        let Written { staged, committed: commits } = self.serving.storage.write(stage, resps);
        let node = ep.id().0;
        let delegate = self.is_oreq_delegate(ep);
        for ((&(token, color, _), &(n, reply_to)), result) in stage.iter().zip(&*staging).zip(staged) {
            let newly = match result {
                Ok(newly) => newly,
                Err(e) => {
                    // Storage full: drop; the client will time out. (The
                    // paper assumes trims keep the log bounded.)
                    eprintln!("replica {}: stage failed: {e}", ep.id());
                    continue;
                }
            };
            // Not new: a retransmit. If its batch committed before this
            // call, it is a duplicate of a completed append (one that
            // commits in this call is acked with it below).
            let commits_now = || resps.iter().zip(&commits).any(|(r, c)| r.0 == token && matches!(c, Ok(Some(_))));
            if !newly && !commits_now() && self.re_ack(color, token, reply_to) {
                continue;
            }
            self.reply_tos
                .entry(token)
                .and_modify(|r| r.add(reply_to))
                .or_insert(ReplyTo { first: reply_to, more: Vec::new() });
            if newly {
                spans.push((token, Stage::ReplicaStaged, node, 0));
            }
            // All replicas of a shard would send byte-identical OReqs and
            // the sequencer discards all but the first, so in steady state
            // only the delegate (lowest node id of the shard) relays it. If
            // the delegate is down the append still completes: a client
            // retransmit re-stages (`!newly`) and then *every* replica sends
            // the OReq, as does the periodic staged-token resend tick.
            if !newly || delegate {
                oreqs.push((color, token, n));
            }
        }
        for (&(token, last_sn), result) in resps.iter().zip(commits) {
            match result {
                Ok(newly) => {
                    self.oreq_sent.remove(&token);
                    spans.push((token, Stage::ReplicaCommit, node, 0));
                    committed.push((token, last_sn));
                    if let Some(color) = newly {
                        fills.push((color, last_sn, token));
                    }
                }
                Err(_) => {
                    // Append not here yet (client broadcast still in
                    // flight): remember the SN.
                    self.pending_oresp.insert(token, (last_sn, Instant::now()));
                }
            }
        }
        if !committed.is_empty() {
            self.commit_hist.record_ns(start.elapsed());
        }
        // Record before acking: once an ack reaches the client the append
        // counts as completed, and its trace must already be whole. Each
        // token's `ReplicaStaged` precedes its `ReplicaCommit`.
        self.config.storage.obs.tracer().record_many(spans);
        for &(token, last_sn) in committed.iter() {
            if let Some(reply) = self.reply_tos.remove(&token) {
                for r in reply.iter() {
                    self.ack(r, token, last_sn, committed.len());
                }
            }
        }
        // The wake's OReqs, none for a token it already committed (which
        // has no ack target left).
        for &(color, token, n) in oreqs.iter() {
            if self.reply_tos.contains_key(&token) {
                self.send_oreq(ep, color, token, n);
            }
        }
        if !committed.is_empty() {
            // A commit below some subscriber's push frontier is a hole that
            // just filled (its OResp outlived the barrier window).
            self.serving.landed(ep, fills, self.sub_barrier());
        }
    }

    /// Whether this replica stages the append now. If not, it is answered
    /// or parked here: a color that left is refused, and a frozen color —
    /// or any, mid-sync — parks it. A batch committed already is re-acked:
    /// here when a fence or the sync-phase stands, else in `write_run` once
    /// the storage write has reported it not new (or before that, when an
    /// OResp waits for it), so that a fresh append costs one look-up of its
    /// token.
    fn admit(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        color: ColorId,
        token: Token,
        payloads: &Batch,
        reply_to: NodeId,
    ) -> bool {
        let fence = self.fences.get(&color).copied();
        if fence.is_some() || self.syncing() {
            // Duplicate of a completed append: re-ack (client retry or the
            // multi-color replay path). This must run BEFORE any
            // reconfiguration fence — a late retransmit of a pre-migration
            // append still deserves its ack (post-cutover, the imported
            // token map answers the same way at the destination).
            if self.re_ack(color, token, reply_to) {
                return false;
            }
        }
        if let Some(Fence::Gone(reason)) = fence {
            let _ = ep.send(reply_to, AppendMsg::Rejected { token, reason }.into());
            return false;
        }
        if fence == Some(Fence::Frozen) || self.syncing() {
            // Parked, neither staged nor answered, until the sync barrier
            // or the command that moves the fence ([`Self::release`])
            // re-handles it. A retransmit of a batch staged before the
            // freeze parks too: its drain commit acks the `reply_to`
            // registered when it was staged.
            let payloads = Arc::clone(payloads);
            let m = AppendMsg::Append { color, token, payloads, reply_to };
            self.deferred.push_back((reply_to, m.into()));
            return false;
        }
        true
    }

    /// Re-acks `token` to `reply_to` if its batch committed here already.
    fn re_ack(&mut self, color: ColorId, token: Token, reply_to: NodeId) -> bool {
        let Some(sn) = self.serving.storage.committed_sn(color, token) else {
            return false;
        };
        self.ack(reply_to, token, sn, 1);
        true
    }

    /// Queues an ack of `token`'s batch, ending at `last_sn`, for `to`; a
    /// client's first ack of the wake sizes its message for `expect`.
    fn ack(&mut self, to: NodeId, token: Token, last_sn: SeqNum, expect: usize) {
        match self.acks.iter_mut().find(|(client, _)| *client == to) {
            Some((_, acks)) => acks.push((token, last_sn)),
            None => {
                let mut acks = Vec::with_capacity(expect);
                acks.push((token, last_sn));
                self.acks.push((to, acks));
            }
        }
    }

    /// Sends the wake's acks: one `AppendAck` per client.
    fn send_acks(&mut self, ep: &Endpoint<ClusterMsg>) {
        for (to, acks) in self.acks.drain(..) {
            let _ = ep.send(to, AppendMsg::AppendAck { acks }.into());
        }
    }

    /// Whether this replica is its shard's designated eager-OReq sender.
    fn is_oreq_delegate(&self, ep: &Endpoint<ClusterMsg>) -> bool {
        self.shard.replicas.first() == Some(&ep.id())
    }

    fn send_oreq(&mut self, ep: &Endpoint<ClusterMsg>, color: ColorId, token: Token, n: u32) {
        // An entry role (written by a leaf split) beats the shard's static
        // leaf role; either way the directory resolves the node.
        let role = self.topology.entry(color).unwrap_or(self.shard.leaf);
        let Some(leaf) = self.directory.get(role) else {
            return; // sequencer fail-over window; the resend tick retries
        };
        let shard = Arc::clone(&self.shard.replicas);
        let oreq = OrderMsg::OReq { color, token, nrecords: n, shard };
        let _ = ep.send(leaf, ClusterMsg::Order(oreq));
        self.config
            .storage
            .obs
            .trace_event(token, Stage::OReqSent, ep.id().0, 0);
        self.oreq_sent.insert(token, Instant::now());
    }

    /// The lowest SN of a commit this replica knows is still in flight (an
    /// OResp whose append broadcast has not arrived yet, observed less than
    /// a hold window ago): subscription pushes stop short of it so the late
    /// record is not skipped past. Entries older than the window stop
    /// blocking pushes (the append may never arrive — client crash or
    /// partition) and are delivered by `push_fill` if they do commit.
    /// During the sync-phase nothing may be pushed at all.
    fn sub_barrier(&self) -> Option<SeqNum> {
        if self.syncing() {
            // The log may be mid-fetch: push nothing until it is whole.
            return Some(SeqNum::ZERO);
        }
        if self.pending_oresp.is_empty() {
            return None;
        }
        let (now, hold) = (Instant::now(), self.config.hold());
        self.pending_oresp
            .values()
            .filter(|&&(_, at)| now.saturating_duration_since(at) < hold)
            .map(|&(sn, _)| sn)
            .min()
    }

    /// Answers the caller once our own `Trim` has arrived and every peer
    /// has acked (third round of §6.2).
    fn maybe_finish_trim(&mut self, ep: &Endpoint<ClusterMsg>, req: u64) {
        let Some(t) = self.trims.get(&req) else { return };
        let Some((color, caller)) = t.local else { return };
        if t.peer_acks.len() >= self.peers.len() {
            self.trims.remove(&req);
            let storage = &self.serving.storage;
            let (head, tail) = (storage.head(color), storage.tail(color));
            let _ = ep.send(caller, ReadMsg::TrimAck { req, head, tail }.into());
        }
    }

    // ----- multi-color append (Algorithm 2) -------------------------------

    fn handle_multi_end(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        fid: FunctionId,
        req: u64,
        reply_to: NodeId,
    ) {
        // read_records(FID): this function's multi-append sets staged in the
        // special color (Algorithm 2, line 12).
        let sets: Vec<(Token, Payload)> = self
            .serving
            .storage
            .fetch(ColorId::MASTER, &FetchSelect::Above { sn: SeqNum::ZERO, limit: u64::MAX })
            .into_iter()
            .filter(|(token, _, payload)| {
                token.fid() == fid
                    && payload.len() >= 4
                    && &payload[..4] == MULTI_MAGIC
                    && !self.processed_multi.contains(token)
            })
            .map(|(token, _, payload)| (token, payload))
            .collect();
        let mut pending = MultiPending {
            req,
            reply_to,
            waiting: HashMap::new(),
        };
        for (token, payload) in sets {
            self.processed_multi.insert(token);
            let Some((target_color, payloads)) = decode_multi_set(&payload) else {
                continue;
            };
            // Derive the sub-append token from the staged set's token: the
            // flipped top bit keeps it disjoint from client tokens while
            // staying deterministic across replicas (idempotence).
            let sub_token = Token(token.0 ^ (1 << 63));
            let draw = |n| self.rng.gen_range(0..n);
            let Some(shard) = self.topology.random_shard_of(target_color, draw) else {
                continue;
            };
            let _ = ep.broadcast(
                &shard.replicas,
                AppendMsg::Append {
                    color: target_color,
                    token: sub_token,
                    payloads: payloads.into(),
                    reply_to: ep.id(),
                }
                .into(),
            );
            pending
                .waiting
                .insert(sub_token, shard.replicas.iter().copied().collect());
        }
        if pending.waiting.is_empty() {
            let _ = ep.send(reply_to, AppendMsg::MultiAck { req }.into());
        } else {
            self.multi.push(pending);
        }
    }

    fn note_multi_ack(&mut self, ep: &Endpoint<ClusterMsg>, from: NodeId, token: Token) {
        let mut finished = Vec::new();
        for (i, m) in self.multi.iter_mut().enumerate() {
            if let Some(waiting) = m.waiting.get_mut(&token) {
                waiting.remove(&from);
                if waiting.is_empty() {
                    m.waiting.remove(&token);
                }
                if m.waiting.is_empty() {
                    finished.push(i);
                }
                break;
            }
        }
        for i in finished.into_iter().rev() {
            let m = self.multi.remove(i);
            let _ = ep.send(m.reply_to, AppendMsg::MultiAck { req: m.req }.into());
        }
    }

    // ----- sync-phase (§6.3) ----------------------------------------------

    fn new_round(&mut self, ep: &Endpoint<ClusterMsg>) -> u64 {
        self.round_counter += 1;
        // Unique across nodes (node id in the low bits) and strictly above
        // any round seen so far (so restarts supersede stalled rounds).
        let base = (self.round_counter << 20) | (ep.id().index() & 0xFFFFF);
        let round = base.max(((self.last_round >> 20 << 20) + (1 << 20)) | (ep.id().index() & 0xFFFFF));
        self.last_round = self.last_round.max(round);
        round
    }

    fn begin_sync(&mut self, ep: &Endpoint<ClusterMsg>, init: Option<(NodeId, Epoch)>) {
        let round = match &self.mode {
            Mode::Syncing(s) => s.round.max(self.new_round(ep)),
            Mode::Operational => self.new_round(ep),
        };
        let _ = ep.broadcast(&self.peers, SyncMsg::SyncRequest { round }.into());
        self.join_sync(ep, round, init);
    }

    fn join_sync(&mut self, ep: &Endpoint<ClusterMsg>, round: u64, init: Option<(NodeId, Epoch)>) {
        if let Mode::Syncing(ref s) = self.mode {
            if s.round >= round {
                return; // already in this (or a newer) round
            }
        }
        let carried_init = match &self.mode {
            Mode::Syncing(s) => s.init.or(init),
            Mode::Operational => init,
        };
        self.last_round = self.last_round.max(round);
        self.config
            .storage
            .obs
            .trace_event(SYNC_TOKEN, Stage::SyncStart, ep.id().0, round);
        // A superseded round's catch-ups are abandoned with it; what they
        // installed is still owed to the serving half.
        let home = self.shard.id;
        self.sync_fresh.extend(self.follower.cancel(|_, shard| shard == home));
        self.mode = Mode::Syncing(Box::new(SyncRound {
            round,
            init: carried_init,
            reported: HashSet::new(),
            todo: Vec::new(),
            done: HashSet::new(),
            self_done: false,
            started: Instant::now(),
        }));
        let _ = ep.broadcast(
            &self.peers,
            SyncMsg::SyncState {
                round,
                epoch: self.known_epoch,
                tails: self.my_tails(),
                ctrl_gen: self.ctrl_gen,
                marks: self.fences.iter().map(|(&c, &f)| (c, f)).collect(),
            }
            .into(),
        );
        self.advance_sync(ep);
    }

    /// Re-learn reconfiguration marks from a sync peer. The marks are
    /// volatile, so a replica that crashed mid-migration boots with them
    /// cleared and would otherwise accept appends inside the copy window;
    /// peers that stayed up re-assert them through the §6.3 handshake.
    /// A merge only raises a fence, never weakens it; clears arrive
    /// exclusively as acked controller commands, which the controller
    /// retries until every live replica has applied them. Appends parked
    /// meanwhile are re-handled at the barrier, under the merged fence. The
    /// one unprotected configuration is a single-replica shard (no peer
    /// remembers the mark) — documented in DESIGN.md.
    fn merge_ctrl_marks(&mut self, ctrl_gen: u64, marks: &[(ColorId, Fence)]) {
        if ctrl_gen < self.ctrl_gen {
            return; // stale peer: its marks may predate an unfreeze
        }
        self.ctrl_gen = ctrl_gen;
        for &(color, fence) in marks {
            self.raise(color, fence);
        }
    }

    fn my_tails(&self) -> Vec<(ColorId, SeqNum, u64)> {
        self.topology
            .colors()
            .into_iter()
            .filter_map(|c| {
                let tail = self.serving.storage.tail(c)?;
                Some((c, tail, self.serving.storage.record_count(c) as u64))
            })
            .collect()
    }

    /// Once states from the whole shard are in, catch up — exactly — with
    /// every peer whose reported (tail, count) differs from ours: not only
    /// the fullest one and not only a longer one, since equal tails can hide
    /// a hole and a shorter peer can hold what we lack. One catch-up at a
    /// time — called when the last state comes in and then at every `Level`
    /// — and a peer we became level with meanwhile is skipped. With none
    /// left, tell the shard.
    fn advance_sync(&mut self, ep: &Endpoint<ClusterMsg>) {
        let Mode::Syncing(ref mut s) = self.mode else { return };
        if s.self_done || s.reported.len() < self.peers.len() {
            return; // done already, or waiting for more states
        }
        let storage = &self.serving.storage;
        while let Some((peer, (color, tail, count))) = s.todo.pop() {
            if storage.tail(color) != Some(tail) || storage.record_count(color) as u64 != count {
                let (pair, exact) = ((color, self.shard.id), follower::Mode::Exact);
                return self.follower.start(ep, Instant::now(), pair, &[peer], exact);
            }
        }
        s.self_done = true;
        let _ = ep.broadcast(&self.peers, SyncMsg::SyncDone { round: s.round }.into());
        self.maybe_finish_sync(ep);
    }

    fn maybe_finish_sync(&mut self, ep: &Endpoint<ClusterMsg>) {
        let Mode::Syncing(ref s) = self.mode else { return };
        if !s.self_done || s.done.len() < self.peers.len() {
            return;
        }
        let Mode::Syncing(s) = std::mem::replace(&mut self.mode, Mode::Operational) else {
            return;
        };
        self.config
            .storage
            .obs
            .trace_event(SYNC_TOKEN, Stage::SyncDone, ep.id().0, s.round);
        // Barrier passed: acknowledge the new sequencer if this sync was an
        // initialization (§6.3 "Sequencer failures").
        if let Some((seq, epoch)) = s.init {
            let _ = ep.send(seq, ClusterMsg::Order(OrderMsg::InitAck { epoch }));
        }
        // Re-issue order requests for staged-but-uncommitted tokens.
        self.reissue_staged_oreqs(ep);
        // Drain deferred appends/OResps in arrival order (a frozen color's
        // appends park again).
        let deferred = std::mem::take(&mut self.deferred);
        self.redeliver(ep, deferred);
        // What the catch-ups installed: a record below some push frontier
        // goes out as a fill, then the frontier advances over the rest.
        let fresh = std::mem::take(&mut self.sync_fresh);
        self.serving.landed(ep, &fresh, self.sub_barrier());
    }

    fn reissue_staged_oreqs(&mut self, ep: &Endpoint<ClusterMsg>) {
        for (token, color, n) in self.serving.storage.staged_tokens() {
            self.send_oreq(ep, color, token, n as u32);
        }
    }

    // ----- periodic work ---------------------------------------------------

    fn tick(&mut self, ep: &Endpoint<ClusterMsg>) {
        let now = Instant::now();
        self.serving.tick(ep, now, self.sub_barrier());
        self.follower.tick(ep, now);

        match &self.mode {
            Mode::Operational => {
                // Resend OReqs unanswered for Δ (covers sequencer
                // fail-over). The scan walks the whole staged map, so
                // throttle it to Δ/4 — a resend fires at most 1.25Δ after
                // the OReq was lost, and the normal path (OResp arrives well
                // within Δ) never pays the scan at all.
                let delta = self.config.delta;
                if now.saturating_duration_since(self.last_oreq_scan) >= delta / 4 {
                    self.last_oreq_scan = now;
                    let stale: Vec<(Token, ColorId, usize)> = self
                        .serving
                        .storage
                        .staged_tokens()
                        .into_iter()
                        .filter(|(t, _, _)| {
                            self.oreq_sent.get(t).is_none_or(|&at| now - at >= delta)
                        })
                        .collect();
                    for (token, color, n) in stale {
                        self.send_oreq(ep, color, token, n as u32);
                    }
                }
            }
            Mode::Syncing(s) => {
                if now - s.started > 5 * self.config.delta {
                    // Stalled (peer died mid-sync): restart with a new round.
                    let init = s.init;
                    self.begin_sync(ep, init);
                }
            }
        }
    }
}

/// Encodes a multi-color-append set for staging in the special color
/// (client side of Algorithm 2, line 4: `records[i]:colors[i]:ID`).
pub(crate) fn encode_multi_set(target: ColorId, payloads: &[Payload]) -> Vec<u8> {
    let mut v = Vec::with_capacity(12 + payloads.iter().map(|p| p.len() + 4).sum::<usize>());
    v.extend_from_slice(MULTI_MAGIC);
    v.extend_from_slice(&target.0.to_le_bytes());
    v.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for p in payloads {
        v.extend_from_slice(&(p.len() as u32).to_le_bytes());
        v.extend_from_slice(p);
    }
    v
}

/// Decodes a staged multi-color set; `None` if malformed.
pub(crate) fn decode_multi_set(v: &[u8]) -> Option<(ColorId, Vec<Payload>)> {
    if v.len() < 12 || &v[..4] != MULTI_MAGIC {
        return None;
    }
    let target = ColorId(u32::from_le_bytes(v[4..8].try_into().ok()?));
    let count = u32::from_le_bytes(v[8..12].try_into().ok()?) as usize;
    let mut payloads = Vec::with_capacity(count);
    let mut off = 12;
    for _ in 0..count {
        let len = u32::from_le_bytes(v.get(off..off + 4)?.try_into().ok()?) as usize;
        off += 4;
        payloads.push(Payload::from(v.get(off..off + len)?));
        off += len;
    }
    Some((target, payloads))
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn multi_set_roundtrip() {
        let payloads = vec![
            Payload::from(&b"a"[..]),
            Payload::from(vec![0u8; 100]),
            Payload::empty(),
        ];
        let enc = encode_multi_set(ColorId(7), &payloads);
        let (color, dec) = decode_multi_set(&enc).unwrap();
        assert_eq!(color, ColorId(7));
        assert_eq!(dec, payloads);
    }

    #[test]
    fn an_append_the_pool_cannot_take_fails_alone() {
        let net: flexlog_simnet::Network<ClusterMsg> = flexlog_simnet::Network::instant();
        let topology = Catalog::uniform(1, 1, 0, &[flexlog_ordering::RoleId(0)]);
        let ep = net.register(NodeId::named(NodeId::CLASS_REPLICA, 0));
        let storage = StorageConfig { pm_capacity: 64 << 10, ..StorageConfig::default() };
        let config = ReplicaConfig { storage, ..ReplicaConfig::default() };
        let mut node = ReplicaNode::new(ep.id(), config, Directory::new(), topology);
        let client = NodeId::named(NodeId::CLASS_CLIENT, 1);
        let token = |c| Token::new(FunctionId(1), c);
        let sn = |c| SeqNum::new(Epoch(1), c);
        let append = |c, bytes| (ColorId(1), token(c), Batch::from([Payload::from(vec![0u8; bytes])]), client);
        node.writes.appends.push(append(1, 16));
        node.write(&ep);
        // One wake commits token 1, stages and commits token 2, and stages
        // token 3, larger than the whole PM pool. The pool refuses the
        // wake's transaction; token 3 fails alone, and nothing may remember
        // the client for a batch that will never commit here.
        node.writes.appends.extend([append(2, 16), append(3, 1 << 20)]);
        node.writes.resps.extend([(token(1), sn(1)), (token(2), sn(2))]);
        node.write(&ep);
        assert_eq!(node.acks, [(client, vec![(token(1), sn(1)), (token(2), sn(2))])]);
        assert!(node.reply_tos.is_empty(), "{:?}", node.reply_tos);
        assert!(node.pending_oresp.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_multi_set(b""), None);
        assert_eq!(decode_multi_set(b"nope-not-multi"), None);
        // Truncated payload.
        let mut enc = encode_multi_set(ColorId(1), &[Payload::from(vec![9u8; 50])]);
        enc.truncate(20);
        assert_eq!(decode_multi_set(&enc), None);
    }
}
