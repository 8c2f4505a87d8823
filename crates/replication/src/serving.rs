//! The serving half of a data-layer node: what a quorum replica and a
//! read-only replica do identically once a record is in local storage.
//!
//! [`Serving`] owns the storage handle, the push-subscription table, the
//! reads parked by the hole rule and the node's modelled busy-time counter.
//! [`crate::ReplicaNode`] and [`crate::ReadReplicaNode`] each hold one and
//! keep only how records *arrive* (append / order / sync / ctrl planes
//! there, the pull loop here); they tell it what differs between them — why
//! a color is gone, and the push barrier.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_obs::Counter;
use flexlog_pm::virtual_time;
use flexlog_simnet::{Endpoint, NodeId};
use flexlog_storage::StorageServer;
use flexlog_types::{ColorId, SeqNum, Token};

use crate::msg::{ClusterMsg, ReadMsg, RejectReason, SubMsg};
use crate::subs::SubTable;

/// Modelled per-message handling cost (ns) on the paper's testbed — same
/// calibration as the sequencer's constants (a Go gRPC server spends
/// ~0.5–1.5 µs of CPU per message). Together with the storage device's
/// virtual clock this feeds the per-node `node.busy_ns.*` capacity
/// counters: on this single-CPU host, wall time cannot express multi-node
/// parallelism, so scaling experiments divide work by the **busiest node's
/// modelled busy time** instead (see the substitution table in DESIGN.md).
const HANDLE_MSG_NS: u64 = 500;
/// Modelled per-record commit / import cost (ns) beyond the raw device
/// time (index bookkeeping, ack fan-out — the paper's per-record server CPU).
const HANDLE_PER_RECORD_NS: u64 = 800;

struct HeldRead {
    from: NodeId,
    req: u64,
    color: ColorId,
    sn: SeqNum,
    deadline: Instant,
}

/// See module docs.
pub(crate) struct Serving {
    pub(crate) storage: Arc<StorageServer>,
    /// Standing push subscriptions served by this node.
    pub(crate) subs: SubTable,
    /// Reads parked above the local tail (the hole rule, §6.3 "Safety",
    /// problem 2): the SN may belong to an in-flight append, so the answer
    /// waits — for the record, for a larger SN proving a hole, or for the
    /// hold deadline (⊥).
    held_reads: Vec<HeldRead>,
    /// How long a read parked here waits ([`crate::ReplicaConfig::hold`]).
    pub(crate) hold: Duration,
    /// Per-node modelled busy time; registered on loop entry, when the
    /// node id is known.
    busy_ns: Option<Counter>,
}

impl Serving {
    pub(crate) fn new(storage: Arc<StorageServer>, hold: Duration) -> Self {
        let subs = SubTable::new(Arc::clone(&storage));
        Serving { storage, subs, held_reads: Vec::new(), hold, busy_ns: None }
    }

    /// Loop entry: storage work runs inside this node's process, so its
    /// trace events carry our node id, and the capacity counter starts
    /// clean of whatever virtual device time a previous occupant of this
    /// thread accumulated. `kind` names the node in
    /// `node.busy_ns.<kind>.<idx>`.
    pub(crate) fn enter(&mut self, ep: &Endpoint<ClusterMsg>, kind: &str) {
        self.storage.set_node(ep.id().0);
        let name = format!("node.busy_ns.{kind}.{}", ep.id().index());
        self.busy_ns = Some(self.storage.config().obs.counter(&name));
        virtual_time::take();
    }

    /// Charges one loop pass to the capacity counter: the modelled
    /// per-message cost plus whatever virtual device time storage accrued
    /// (per-record costs are added where the records are counted).
    pub(crate) fn charge_pass(&self, n_msgs: u64) {
        let dev_ns = virtual_time::take();
        if n_msgs > 0 || dev_ns > 0 {
            self.charge(HANDLE_MSG_NS * n_msgs + dev_ns);
        }
    }

    pub(crate) fn charge_records(&self, n: usize) {
        self.charge(HANDLE_PER_RECORD_NS * n as u64);
    }

    fn charge(&self, ns: u64) {
        if let Some(c) = &self.busy_ns {
            c.add(ns);
        }
    }

    /// Nothing here is deadline-sensitive: no parked read, and no
    /// subscriber still catching up (its push frontier trails the tail —
    /// each pump ships one capped chunk, and the next must not wait a full
    /// idle period).
    pub(crate) fn idle(&self) -> bool {
        self.held_reads.is_empty() && (self.subs.is_empty() || self.subs.all_caught_up())
    }

    /// Answers a point read from local storage, or parks it for at most
    /// the hold window when `sn` is above everything seen here. Returns
    /// whether it parked.
    pub(crate) fn read(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        from: NodeId,
        color: ColorId,
        sn: SeqNum,
        req: u64,
    ) -> bool {
        let value = self.storage.get(color, sn);
        let parked = value.is_none() && sn > self.storage.tail(color).unwrap_or(SeqNum::ZERO);
        if parked {
            let deadline = Instant::now() + self.hold;
            self.held_reads.push(HeldRead { from, req, color, sn, deadline });
        } else {
            // The record, or ⊥ at once: a hole, trimmed, or not on this shard.
            let _ = ep.send(from, ReadMsg::ReadResp { req, value }.into());
        }
        parked
    }

    /// Answers a one-shot pull with everything local above `from_sn`.
    /// Archive read-through can fail while the object store is down;
    /// withholding the reply makes the client retry (or time out) instead
    /// of replaying a log with a silent hole where the archived prefix
    /// belongs.
    pub(crate) fn scan(
        &self,
        ep: &Endpoint<ClusterMsg>,
        to: NodeId,
        color: ColorId,
        from_sn: SeqNum,
        req: u64,
    ) {
        if let Ok(records) = self.storage.scan(color, from_sn) {
            let _ = ep.send(to, ReadMsg::SubscribeResp { req, records }.into());
        }
    }

    /// The subscription plane. `gone` is why the node no longer serves the
    /// color a `SubscribeFrom` names (the subscriber is redirected), `None`
    /// while it does; `barrier` as in [`SubTable::pump`].
    pub(crate) fn sub_plane(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        msg: SubMsg,
        gone: Option<RejectReason>,
        barrier: Option<SeqNum>,
    ) {
        match msg {
            SubMsg::SubscribeFrom { color, from, sub, reply_to } => match gone {
                Some(reason) => {
                    let _ = ep.send(reply_to, SubMsg::SubRedirect { sub, color, reason }.into());
                }
                None => self.subs.register(ep, sub, color, from, reply_to, barrier),
            },
            SubMsg::SubAck { sub, upto } => self.subs.ack(sub, upto),
            SubMsg::SubCancel { sub } => self.subs.cancel(sub),
            // Subscriber-bound.
            SubMsg::SubPushBatch { .. } | SubMsg::SubRedirect { .. } => {}
        }
    }

    /// Records just landed in local storage (`fresh`: a commit or an
    /// import): a record below some subscriber's push frontier is a hole
    /// that just filled and goes out of band, then the in-order frontier
    /// pumps forward and parked reads are re-examined.
    pub(crate) fn landed(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        fresh: &[(ColorId, SeqNum, Token)],
        barrier: Option<SeqNum>,
    ) {
        for &(color, sn, token) in fresh {
            self.subs.push_fill(ep, color, sn, token);
        }
        self.subs.pump(ep, barrier);
        self.held_reads.retain(|h| {
            let value = self.storage.get(h.color, h.sn);
            // A bigger SN arrived: the requested SN is a hole here.
            let decided =
                value.is_some() || self.storage.tail(h.color).unwrap_or(SeqNum::ZERO) >= h.sn;
            if decided {
                let _ = ep.send(h.from, ReadMsg::ReadResp { req: h.req, value }.into());
            }
            !decided
        });
    }

    /// Periodic work: ⊥ for every parked read whose hold window ran out,
    /// then keep pushes flowing between arrivals — catch-up chunks for
    /// subscribers behind the tail, heartbeats for idle ones, and barrier
    /// lifts.
    pub(crate) fn tick(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        now: Instant,
        barrier: Option<SeqNum>,
    ) {
        self.held_reads.retain(|h| {
            let expired = now >= h.deadline;
            if expired {
                let _ = ep.send(h.from, ReadMsg::ReadResp { req: h.req, value: None }.into());
            }
            !expired
        });
        self.subs.pump(ep, barrier);
    }
}
