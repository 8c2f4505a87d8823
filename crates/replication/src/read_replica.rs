//! Read-only replica: a follower that serves the read path without ever
//! joining the write quorum.
//!
//! A read replica attaches to one shard and **follows** its quorum
//! replicas: at its cadence it starts, for every color resident on the
//! shard, the catch-up a recovering quorum replica and a migration
//! destination run too ([`Follower`] — chunked fetches above a cursor, the
//! source's trim head adopted from every reply since client trims go to the
//! quorum only, holes that filled late upstream repaired by digest diff).
//! What stays here is policy: when to pull, and what waits for a pull. It
//! serves, through the shared [`Serving`] half:
//!
//! * `Read` — with the same bounded hold rule as a quorum replica, plus a
//!   **read-through**: a read above the local tail starts a catch-up at
//!   once, so the answer is ⊥ only if the record is still absent upstream
//!   after the hold window (the freshness guarantee: staleness is bounded
//!   by one sync round-trip, not by the pull cadence).
//! * `Subscribe` (one-shot pull, parked behind a sync round) and
//!   `SubscribeFrom` (standing push subscriptions).
//!
//! It never sees appends, order requests, or OResps; the write quorum
//! stays exactly the paper's write-all set. Reconfiguration is observed
//! through the shared catalog: when a subscribed color stops being
//! resident on this shard the subscribers are redirected (`ColorMoved`
//! when the color lives elsewhere, `Dropped` when it is gone).

use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_ordering::Catalog;
use flexlog_simnet::{Endpoint, NodeId, RecvError};
use flexlog_storage::StorageServer;
use flexlog_types::{ColorId, SeqNum, ShardId};

use crate::follower::{Follower, Mode};
use crate::msg::{ClusterMsg, DataMsg, ReadMsg, RejectReason, SubMsg, SyncMsg};
use crate::serving::Serving;
use crate::ReplicaConfig;

/// Sync-pull cadence while readers or subscribers are active.
const SYNC_INTERVAL: Duration = Duration::from_millis(1);
/// Sync-pull cadence when idle.
const IDLE_INTERVAL: Duration = Duration::from_millis(10);

/// A one-shot pull (`Subscribe`) parked behind a sync round: serving it
/// straight from local storage could miss records the quorum already
/// committed (worst case: a just-restarted replica still refilling).
struct HeldScan {
    from: NodeId,
    req: u64,
    color: ColorId,
    from_sn: SeqNum,
    deadline: Instant,
    /// Only a catch-up numbered at or above this (i.e. *started* after the
    /// scan arrived) may release it — one already in flight could predate
    /// records the client has seen acked.
    min_round: u64,
}

/// See module docs.
pub struct ReadReplicaNode {
    /// The shard this node follows, as the topology lists it.
    shard: ShardId,
    /// The shard's quorum replicas (catch-up sources, rotated per round).
    quorum: Vec<NodeId>,
    topology: Catalog,
    /// Storage, push subscriptions, held reads and the busy-time counter.
    serving: Serving,
    /// How records arrive: one catch-up per resident color.
    follower: Follower,
    held_scans: Vec<HeldScan>,
    /// The clock, read once per loop pass.
    now: Instant,
    last_sync: Instant,
}

impl ReadReplicaNode {
    /// Read replica `node` of the shard the topology lists it in, fresh
    /// with empty storage.
    pub fn new(node: NodeId, config: &ReplicaConfig, topology: Catalog) -> Self {
        let storage = Arc::new(StorageServer::new(config.storage.clone()));
        Self::recovered(node, config, topology, storage)
    }

    /// A read replica recovering its storage from crashed devices. No sync
    /// barrier is needed — it was never part of the write quorum; the
    /// steady-state pull loop refills whatever was lost.
    pub fn recovered(
        node: NodeId,
        config: &ReplicaConfig,
        topology: Catalog,
        storage: Arc<StorageServer>,
    ) -> Self {
        let shard = topology.shard_of(node).expect("a read replica the topology lists");
        ReadReplicaNode {
            follower: Follower::new(Arc::clone(&storage), shard.id, "rreplica"),
            serving: Serving::new(storage, config.hold()),
            shard: shard.id,
            quorum: shard.replicas.to_vec(),
            topology,
            held_scans: Vec::new(),
            now: Instant::now(),
            last_sync: Instant::now(),
        }
    }

    /// Shared storage handle (benchmarks read tier stats through it).
    pub fn storage(&self) -> Arc<StorageServer> {
        Arc::clone(&self.serving.storage)
    }

    /// The pull (and loop tick) cadence: fast while anyone is waiting on
    /// this follower's freshness — a subscriber, a parked read or scan.
    fn cadence(&self) -> Duration {
        if self.serving.subs.is_empty() && self.serving.idle() && self.held_scans.is_empty() {
            IDLE_INTERVAL
        } else {
            SYNC_INTERVAL
        }
    }

    /// Runs the read-replica loop until shutdown or crash.
    pub fn run(mut self, ep: Endpoint<ClusterMsg>) {
        const MAX_DRAIN: usize = 128;
        self.serving.enter(&ep, "rreplica");
        let mut burst: Vec<(NodeId, ClusterMsg)> = Vec::new();
        loop {
            burst.clear();
            match ep.recv_batch(self.cadence(), MAX_DRAIN, &mut burst) {
                Ok(_) => {}
                Err(RecvError::Timeout) => {}
                Err(RecvError::Disconnected) => return,
            }
            let n_msgs = burst.len() as u64;
            self.now = Instant::now();
            for (from, msg) in burst.drain(..) {
                match msg {
                    ClusterMsg::Data(DataMsg::Shutdown) => return,
                    ClusterMsg::Data(DataMsg::Read(m)) => self.handle_read_plane(&ep, from, m),
                    ClusterMsg::Data(DataMsg::Sub(m)) => self.handle_sub_plane(&ep, m),
                    ClusterMsg::Data(DataMsg::Sync(m)) => self.handle_sync_plane(&ep, from, m),
                    // Never part of the write quorum, the ordering layer or
                    // a reconfiguration: those planes are not spoken here
                    // (cutovers and drops are observed through the topology).
                    ClusterMsg::Data(DataMsg::Append(_) | DataMsg::Ctrl(_))
                    | ClusterMsg::Order(_) => {}
                }
            }
            self.tick(&ep);
            self.serving.charge_pass(n_msgs);
        }
    }

    fn handle_read_plane(&mut self, ep: &Endpoint<ClusterMsg>, from: NodeId, msg: ReadMsg) {
        match msg {
            ReadMsg::Read { color, sn, req } => {
                if self.serving.read(ep, from, color, sn, req) {
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
                    deadline: self.now + self.serving.hold,
                    min_round: self.follower.next_round(),
                });
                self.fetch_color(ep, color);
            }
            // The quorum's trim rounds (clients trim the quorum only; the
            // head reaches a follower with its next reply), and client-bound
            // replies.
            ReadMsg::Trim { .. }
            | ReadMsg::TrimPeerAck { .. }
            | ReadMsg::ReadResp { .. }
            | ReadMsg::SubscribeResp { .. }
            | ReadMsg::TrimAck { .. } => {}
        }
    }

    fn handle_sub_plane(&mut self, ep: &Endpoint<ClusterMsg>, msg: SubMsg) {
        let mut gone = None;
        if let SubMsg::SubscribeFrom { color, .. } = msg {
            gone = self.departed(&self.topology.colors_on(self.shard), color);
            if gone.is_none() {
                // Pull the color promptly so the backlog starts flowing.
                self.fetch_color(ep, color);
            }
        }
        self.serving.sub_plane(ep, msg, gone, None);
    }

    /// Why `color` is not served here, `None` while it is `resident` on
    /// this shard: `ColorMoved` when it lives elsewhere, `Dropped` when it
    /// is gone.
    fn departed(&self, resident: &[ColorId], color: ColorId) -> Option<RejectReason> {
        if resident.contains(&color) {
            None
        } else if self.topology.knows_color(color) {
            Some(RejectReason::ColorMoved)
        } else {
            Some(RejectReason::Dropped)
        }
    }

    /// Of the sync plane a follower hears only the replies to its own
    /// catch-ups; the quorum's sync-phase and the controller's queries are
    /// not spoken here.
    fn handle_sync_plane(&mut self, ep: &Endpoint<ClusterMsg>, src: NodeId, msg: SyncMsg) {
        let Some(level) = self.follower.on_reply(ep, self.now, src, msg) else { return };
        // Local storage now reflects the quorum as of the catch-up.
        self.answer_scans(ep, |s| s.color == level.color && level.round >= s.min_round);
        if !level.fresh.is_empty() {
            self.serving.charge_records(level.fresh.len());
            self.serving.landed(ep, &level.fresh, None);
        }
    }

    /// Starts a catch-up of `color` unless one is in flight. Rounds rotate
    /// the first source asked, spreading the pulls over the quorum.
    fn fetch_color(&mut self, ep: &Endpoint<ClusterMsg>, color: ColorId) {
        let mut sources = self.quorum.clone();
        let first = self.follower.next_round() as usize % sources.len().max(1);
        sources.rotate_left(first);
        self.follower.start(ep, self.now, (color, self.shard), &sources, Mode::Follow);
    }

    /// Answers every parked `Subscribe` that `ready` selects from local
    /// storage. An unreachable archive withholds the reply (never a log
    /// with a silent hole); the client retries elsewhere.
    fn answer_scans(&mut self, ep: &Endpoint<ClusterMsg>, ready: impl Fn(&HeldScan) -> bool) {
        let serving = &self.serving;
        self.held_scans.retain(|s| {
            let answer = ready(s);
            if answer {
                serving.scan(ep, s.from, s.color, s.from_sn, s.req);
            }
            !answer
        });
    }

    fn tick(&mut self, ep: &Endpoint<ClusterMsg>) {
        let now = self.now;
        // Expired scans degrade to a best-effort local answer (quorum
        // unreachable): stale beats unavailable for a follower.
        self.answer_scans(ep, |s| now >= s.deadline);

        // Redirect subscriptions of colors that left this shard (cutover
        // or drop observed through the shared topology).
        let resident = self.topology.colors_on(self.shard);
        for color in self.serving.subs.colors() {
            if let Some(reason) = self.departed(&resident, color) {
                self.serving.subs.redirect_color(ep, color, reason);
            }
        }

        // The steady-state pull loop, and the silence rule for what it
        // has in flight.
        if now.saturating_duration_since(self.last_sync) >= self.cadence() {
            self.last_sync = now;
            for color in resident {
                self.fetch_color(ep, color);
            }
        }
        self.follower.tick(ep, now);

        // Held-read expiry, catch-up continuation + heartbeats.
        self.serving.tick(ep, now, None);
    }
}
