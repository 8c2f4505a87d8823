//! Read-only replica: a follower that serves the read path without ever
//! joining the write quorum.
//!
//! A read replica attaches to one shard and **follows** its quorum
//! replicas through the §6.3 sync machinery: it periodically issues
//! [`SyncMsg::Fetch`] for every color resident on the shard (above its
//! own tail) and imports the [`SyncMsg::Records`] replies — the exact
//! protocol a recovering quorum replica uses to catch up, run as a
//! steady-state pull loop. It serves:
//!
//! * `Read` — with the same bounded hold rule as a quorum replica, plus a
//!   **read-through**: a read above the local tail triggers an immediate
//!   sync fetch, so the answer is ⊥ only if the record is still absent
//!   upstream after the hold window (the freshness guarantee: staleness is
//!   bounded by one sync round-trip, not by the pull cadence).
//! * `Subscribe` (one-shot pull) and `SubscribeFrom` (standing push
//!   subscriptions via the shared [`SubTable`]).
//!
//! It never sees appends, order requests, or OResps; the write quorum
//! stays exactly the paper's write-all set. Reconfiguration is observed
//! through the shared topology: when a subscribed color stops being
//! resident on this shard the subscribers are redirected (`ColorMoved`
//! when the color lives elsewhere, `Dropped` when it is gone).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_obs::Counter;
use flexlog_pm::virtual_time;
use flexlog_simnet::{Endpoint, NodeId, RecvError};
use flexlog_storage::{FetchSelect, StorageConfig, StorageServer};
use flexlog_types::{ColorId, SeqNum, ShardId, Token};

use crate::msg::{ClusterMsg, DataMsg, ReadMsg, RejectReason, SubMsg, SyncMsg};
use crate::replica::HeldReads;
use crate::subs::{RecentTokens, SubTable};
use crate::TopologyView;

/// Modelled per-message handling cost (ns); same calibration as
/// [`crate::ReplicaNode`].
const HANDLE_MSG_NS: u64 = 500;
/// Modelled per-imported-record cost (ns).
const HANDLE_PER_RECORD_NS: u64 = 800;

/// Configuration of one read-only replica.
#[derive(Clone)]
pub struct ReadReplicaConfig {
    /// The shard this read replica follows.
    pub shard: ShardId,
    /// The shard's quorum replicas (sync sources, rotated round-robin).
    pub quorum: Vec<NodeId>,
    pub storage: StorageConfig,
    /// Bounded hold for reads above the local tail (mirrors the quorum
    /// replicas' hole rule).
    pub read_hold: Duration,
    /// Sync-pull cadence while readers or subscribers are active.
    pub sync_interval: Duration,
    /// Sync-pull cadence when idle.
    pub idle_interval: Duration,
    /// Liveness heartbeat interval for idle push subscriptions.
    pub sub_heartbeat: Duration,
}

impl Default for ReadReplicaConfig {
    fn default() -> Self {
        ReadReplicaConfig {
            shard: ShardId(0),
            quorum: Vec::new(),
            storage: StorageConfig::default(),
            read_hold: Duration::from_millis(20),
            sync_interval: Duration::from_millis(1),
            idle_interval: Duration::from_millis(10),
            sub_heartbeat: Duration::from_millis(150),
        }
    }
}

/// A one-shot pull (`Subscribe`) parked behind a sync round: serving it
/// straight from local storage could miss records the quorum already
/// committed (worst case: a just-restarted replica still refilling).
struct HeldScan {
    from: NodeId,
    req: u64,
    color: ColorId,
    from_sn: SeqNum,
    deadline: Instant,
    /// Only a sync round numbered at or above this (i.e. *started* after
    /// the scan arrived) may release it — an already-in-flight fetch could
    /// predate records the client has seen acked.
    min_round: u64,
}

/// See module docs.
pub struct ReadReplicaNode {
    config: ReadReplicaConfig,
    topology: TopologyView,
    storage: Arc<StorageServer>,
    subs: SubTable,
    recent_tokens: RecentTokens,
    held_reads: HeldReads,
    held_scans: Vec<HeldScan>,
    /// Monotonic fetch round / request id source.
    round: u64,
    /// Per-color fetch in flight (round, sent-at) — avoids duplicate
    /// fetches while a reply is pending.
    inflight: HashMap<ColorId, (u64, Instant)>,
    /// Outstanding head/count probes: req → color.
    probes: HashMap<u64, ColorId>,
    /// Round-robin index over the quorum sources.
    rr: usize,
    last_sync: Instant,
    busy_ns: Option<Counter>,
    sync_fetches: Counter,
    imported: Counter,
}

impl ReadReplicaNode {
    pub fn new(config: ReadReplicaConfig, topology: TopologyView) -> Self {
        let storage = Arc::new(StorageServer::new(config.storage.clone()));
        Self::with_storage(config, topology, storage)
    }

    /// A read replica recovering its storage from crashed devices. No sync
    /// barrier is needed — it was never part of the write quorum; the
    /// steady-state pull loop refills whatever was lost.
    pub fn recovered(
        config: ReadReplicaConfig,
        topology: TopologyView,
        storage: Arc<StorageServer>,
    ) -> Self {
        Self::with_storage(config, topology, storage)
    }

    fn with_storage(
        config: ReadReplicaConfig,
        topology: TopologyView,
        storage: Arc<StorageServer>,
    ) -> Self {
        let obs = &config.storage.obs;
        let subs = SubTable::new(obs, config.sub_heartbeat);
        let sync_fetches = obs.counter("rreplica.sync_fetches");
        let imported = obs.counter("rreplica.imported_records");
        ReadReplicaNode {
            config,
            topology,
            storage,
            subs,
            recent_tokens: RecentTokens::new(),
            held_reads: HeldReads::default(),
            held_scans: Vec::new(),
            round: 0,
            inflight: HashMap::new(),
            probes: HashMap::new(),
            rr: 0,
            last_sync: Instant::now(),
            busy_ns: None,
            sync_fetches,
            imported,
        }
    }

    /// Shared storage handle (benchmarks read tier stats through it).
    pub fn storage(&self) -> Arc<StorageServer> {
        Arc::clone(&self.storage)
    }

    fn active(&self) -> bool {
        !self.subs.is_empty() || !self.held_reads.is_empty() || !self.held_scans.is_empty()
    }

    /// Runs the read-replica loop until shutdown or crash.
    pub fn run(mut self, ep: Endpoint<ClusterMsg>) {
        const MAX_DRAIN: usize = 128;
        self.storage.set_node(ep.id().0);
        self.busy_ns = Some(
            self.config
                .storage
                .obs
                .counter(&format!("node.busy_ns.rreplica.{}", ep.id().index())),
        );
        virtual_time::take();
        let mut burst: Vec<(NodeId, ClusterMsg)> = Vec::new();
        loop {
            let tick = if self.active() {
                self.config.sync_interval.max(Duration::from_millis(1))
            } else {
                self.config.idle_interval.max(Duration::from_millis(1))
            };
            burst.clear();
            match ep.recv_batch(tick, MAX_DRAIN, &mut burst) {
                Ok(_) => {}
                Err(RecvError::Timeout) => {}
                Err(RecvError::Disconnected) => return,
            }
            let n_msgs = burst.len() as u64;
            for (from, msg) in burst.drain(..) {
                match msg {
                    ClusterMsg::Data(DataMsg::Shutdown) => return,
                    ClusterMsg::Data(DataMsg::Read(m)) => self.handle_read_plane(&ep, from, m),
                    ClusterMsg::Data(DataMsg::Sub(m)) => self.handle_sub_plane(&ep, m),
                    ClusterMsg::Data(DataMsg::Sync(m)) => self.handle_sync_plane(&ep, m),
                    // Never part of the write quorum, the ordering layer or
                    // a reconfiguration: those planes are not spoken here
                    // (cutovers and drops are observed through the topology).
                    ClusterMsg::Data(DataMsg::Append(_) | DataMsg::Ctrl(_))
                    | ClusterMsg::Order(_) => {}
                }
            }
            self.tick(&ep);
            let dev_ns = virtual_time::take();
            if n_msgs > 0 || dev_ns > 0 {
                if let Some(c) = &self.busy_ns {
                    c.add(HANDLE_MSG_NS * n_msgs + dev_ns);
                }
            }
        }
    }

    fn handle_read_plane(&mut self, ep: &Endpoint<ClusterMsg>, from: NodeId, msg: ReadMsg) {
        match msg {
            ReadMsg::Read { color, sn, req } => {
                let hold = self.config.read_hold;
                if self.held_reads.read(ep, &self.storage, from, color, sn, req, hold) {
                    // Possibly not replicated here yet: fetch eagerly
                    // (read-through) instead of answering a stale ⊥.
                    self.fetch_color(ep, color);
                }
            }
            ReadMsg::Subscribe { color, from: from_sn, req } => {
                // Park the scan behind a sync round so the reply is as
                // fresh as the quorum at request time; the hold deadline
                // degrades to a best-effort local scan if the quorum is
                // unreachable.
                self.held_scans.push(HeldScan {
                    from,
                    req,
                    color,
                    from_sn,
                    deadline: Instant::now() + self.config.read_hold,
                    min_round: self.round + 1,
                });
                self.fetch_color(ep, color);
            }
            ReadMsg::Trim { color, up_to, req } => {
                // Quorum replicas run the two-round trim protocol; a read
                // replica just applies and acks (it holds no authority).
                let _ = self.storage.trim(color, up_to);
                let (head, tail) = (self.storage.head(color), self.storage.tail(color));
                let _ = ep.send(from, ReadMsg::TrimAck { req, head, tail }.into());
            }
            // The quorum's second trim round, and client-bound replies.
            ReadMsg::TrimPeerAck { .. }
            | ReadMsg::ReadResp { .. }
            | ReadMsg::SubscribeResp { .. }
            | ReadMsg::TrimAck { .. } => {}
        }
    }

    fn handle_sub_plane(&mut self, ep: &Endpoint<ClusterMsg>, msg: SubMsg) {
        match msg {
            SubMsg::SubscribeFrom { color, from: from_sn, sub, reply_to } => {
                if !self.topology.colors_on(self.config.shard).contains(&color) {
                    let reason = self.departed(color);
                    let _ = ep.send(reply_to, SubMsg::SubRedirect { sub, color, reason }.into());
                    return;
                }
                self.subs.register(
                    ep,
                    &self.storage,
                    &self.recent_tokens,
                    sub,
                    color,
                    from_sn,
                    reply_to,
                    None,
                );
                // Pull the color promptly so the backlog starts flowing.
                self.fetch_color(ep, color);
            }
            SubMsg::SubAck { sub, upto } => self.subs.ack(sub, upto),
            SubMsg::SubCancel { sub } => self.subs.cancel(sub),
            // Subscriber-bound.
            SubMsg::SubPushBatch { .. } | SubMsg::SubRedirect { .. } => {}
        }
    }

    /// Why a color not resident on this shard left it: `ColorMoved` when
    /// it lives elsewhere, `Dropped` when it is gone.
    fn departed(&self, color: ColorId) -> RejectReason {
        if self.topology.knows_color(color) {
            RejectReason::ColorMoved
        } else {
            RejectReason::Dropped
        }
    }

    fn handle_sync_plane(&mut self, ep: &Endpoint<ClusterMsg>, msg: SyncMsg) {
        match msg {
            SyncMsg::Records { req: round, color, records, .. } => {
                let mut fresh: Vec<(SeqNum, Token)> = Vec::new();
                for (token, sn, payload) in records {
                    if self.storage.import(color, sn, token, &payload).unwrap_or(false) {
                        self.recent_tokens.insert(color, sn, token);
                        fresh.push((sn, token));
                    }
                }
                self.inflight.remove(&color);
                self.release_held_scans(ep, color, round);
                if !fresh.is_empty() {
                    self.imported.add(fresh.len() as u64);
                    if let Some(c) = &self.busy_ns {
                        c.add(HANDLE_PER_RECORD_NS * fresh.len() as u64);
                    }
                    // Late fills (below a push frontier) go out of band;
                    // everything else rides the in-order pump.
                    for &(sn, token) in &fresh {
                        self.subs.push_fill(ep, &self.storage, color, sn, token);
                    }
                    self.subs.pump(ep, &self.storage, &self.recent_tokens, None);
                    self.held_reads.release(ep, &self.storage);
                }
            }
            SyncMsg::ColorInfo { req, head, tail, count, .. } => {
                // Reply to a head/count probe: adopt the trim head, and if
                // the quorum holds more records under the same tail a hole
                // filled late upstream — refetch the retained span.
                let Some(color) = self.probes.remove(&req) else {
                    return;
                };
                if let Some(h) = head {
                    let _ = self.storage.install_head(color, h);
                }
                if tail == self.storage.tail(color)
                    && count > self.storage.record_count(color) as u64
                {
                    let above = self.storage.head(color).unwrap_or(SeqNum::ZERO);
                    self.send_fetch(ep, color, above);
                }
            }
            // The quorum's own sync-phase and the probes/fetches a read
            // replica only ever issues, never serves.
            SyncMsg::SyncRequest { .. }
            | SyncMsg::SyncState { .. }
            | SyncMsg::SyncDone { .. }
            | SyncMsg::Fetch { .. }
            | SyncMsg::ColorStatus { .. }
            | SyncMsg::SpanDigest { .. }
            | SyncMsg::SpanDigestResp { .. } => {}
        }
    }

    /// Sends one fetch for `color`'s records above `above` to the next
    /// quorum source; returns the round it is numbered with and the source.
    fn send_fetch(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        color: ColorId,
        above: SeqNum,
    ) -> Option<(u64, NodeId)> {
        let src = *self.config.quorum.get(self.rr % self.config.quorum.len().max(1))?;
        self.rr += 1;
        self.round += 1;
        self.sync_fetches.inc();
        let select = FetchSelect::Above { sn: above, limit: u64::MAX };
        let _ = ep.send(src, SyncMsg::Fetch { req: self.round, color, select }.into());
        Some((self.round, src))
    }

    /// Issues a sync fetch for one color unless one is already pending
    /// (younger than a redelivery window).
    fn fetch_color(&mut self, ep: &Endpoint<ClusterMsg>, color: ColorId) {
        let now = Instant::now();
        if let Some(&(_, at)) = self.inflight.get(&color) {
            if now.saturating_duration_since(at) < self.config.read_hold {
                return; // reply still expected
            }
        }
        let tail = self.storage.tail(color).unwrap_or(SeqNum::ZERO);
        let Some((round, src)) = self.send_fetch(ep, color, tail) else { return };
        self.inflight.insert(color, (round, now));
        // Every 32nd fetch of a color doubles as a head/count probe so the
        // replica adopts trims and notices late hole fills upstream.
        if round.is_multiple_of(32) {
            self.probes.insert(round, color);
            let _ = ep.send(src, SyncMsg::ColorStatus { color, req: round }.into());
        }
    }

    /// Serves every parked `Subscribe` of `color` waiting on a round that
    /// `round` satisfies — local storage now reflects the quorum as of the
    /// fetch.
    fn release_held_scans(&mut self, ep: &Endpoint<ClusterMsg>, color: ColorId, round: u64) {
        let storage = &self.storage;
        let mut still = Vec::new();
        for s in self.held_scans.drain(..) {
            if s.color == color && round >= s.min_round {
                // An unreachable archive withholds the reply (never a log
                // with a silent hole); the client retries elsewhere.
                if let Ok(records) = storage.scan(s.color, s.from_sn) {
                    let _ =
                        ep.send(s.from, ReadMsg::SubscribeResp { req: s.req, records }.into());
                }
            } else {
                still.push(s);
            }
        }
        self.held_scans = still;
    }

    fn tick(&mut self, ep: &Endpoint<ClusterMsg>) {
        let now = Instant::now();
        self.held_reads.expire(ep, now);

        // Expired scans degrade to a best-effort local answer (quorum
        // unreachable): stale beats unavailable for a follower.
        let mut still_scans = Vec::new();
        for s in self.held_scans.drain(..) {
            if now >= s.deadline {
                // Stale beats unavailable, but a hole beats neither: if the
                // archive cannot serve the prefix, stay silent instead.
                if let Ok(records) = self.storage.scan(s.color, s.from_sn) {
                    let _ =
                        ep.send(s.from, ReadMsg::SubscribeResp { req: s.req, records }.into());
                }
            } else {
                still_scans.push(s);
            }
        }
        self.held_scans = still_scans;

        // Redirect subscriptions of colors that left this shard (cutover
        // or drop observed through the shared topology).
        let resident = self.topology.colors_on(self.config.shard);
        for color in self.subs.colors() {
            if !resident.contains(&color) {
                self.subs.redirect_color(ep, color, self.departed(color));
            }
        }

        // The steady-state pull loop.
        let cadence = if self.active() {
            self.config.sync_interval
        } else {
            self.config.idle_interval
        };
        if now.saturating_duration_since(self.last_sync) >= cadence {
            self.last_sync = now;
            for color in resident {
                self.fetch_color(ep, color);
            }
        }

        // Catch-up continuation + heartbeats.
        self.subs.pump(ep, &self.storage, &self.recent_tokens, None);
    }
}
