//! Data-layer messages and the cluster-wide wire enum.

use flexlog_ordering::{OrderMsg, OrderWire};
use flexlog_simnet::NodeId;
use flexlog_storage::FetchSelect;
use flexlog_types::{
    Batch, ColorId, CommittedRecord, Epoch, FunctionId, Payload, SeqNum, ShardId, Token,
};

/// A committed record with the append token it was staged under — the unit
/// every state transfer ships, so idempotence survives the copy.
pub type TokenRecord = (Token, SeqNum, Payload);

/// Messages of the data layer, split by plane: a node matches exhaustively
/// over the planes it speaks and drops the rest as one unit.
#[derive(Clone, Debug, PartialEq)]
pub enum DataMsg {
    Append(AppendMsg),
    Read(ReadMsg),
    Sub(SubMsg),
    Sync(SyncMsg),
    Ctrl(CtrlMsg),
    /// Orderly shutdown (test harness).
    Shutdown,
}

/// Append plane (Algorithms 1–2): client ↔ write-quorum replica, and
/// replica ↔ replica when a replica replays a multi-color set as a client.
#[derive(Clone, Debug, PartialEq)]
pub enum AppendMsg {
    /// Client → every replica of one shard: append `payloads` to `color`
    /// under `token` (Algorithm 1, line 7). Acks go to `reply_to`.
    /// The records are one shared [`Batch`]: a shard-wide broadcast and a
    /// retransmit clone one reference count, never a list or a byte.
    Append {
        color: ColorId,
        token: Token,
        payloads: Batch,
        reply_to: NodeId,
    },
    /// Replica → client: these batches are committed, each `(token, last
    /// SN)` naming a batch and the SN its last record holds (Algorithm 1,
    /// line 24). A replica sends one per client per wake, with every batch
    /// of that client the wake committed; a lone ack and a re-ack of a
    /// retransmitted append are batches of one.
    AppendAck { acks: Vec<(Token, SeqNum)> },
    /// Replica → client: this replica refuses the append; the reason tells
    /// the client whether to re-resolve the shard (`ColorMoved`) or fail
    /// (`Dropped`). A frozen color's append gets no reply until the freeze
    /// ends ([`Fence::Frozen`]).
    Rejected { token: Token, reason: RejectReason },
    /// Client → all replicas of the special-color shard: end of a
    /// multi-color append (Algorithm 2, line 5).
    MultiEnd { fid: FunctionId, req: u64, reply_to: NodeId },
    /// Replica → client: every set of the multi-color append is committed
    /// in its target color (Algorithm 2, line 18).
    MultiAck { req: u64 },
}

/// Read plane (§6.1–6.2): what any read target — quorum or read-only
/// replica — serves about one colored log: point reads, one-shot scans and
/// trims.
#[derive(Clone, Debug, PartialEq)]
pub enum ReadMsg {
    /// Client → one replica per shard of the color: read `sn`.
    Read { color: ColorId, sn: SeqNum, req: u64 },
    /// Replica → client: the record, or ⊥ if this shard does not hold it.
    ReadResp {
        req: u64,
        value: Option<Payload>,
    },
    /// Client → one replica per shard: all records of `color` above `from`.
    Subscribe { color: ColorId, from: SeqNum, req: u64 },
    /// Replica → client: this shard's slice of the colored log.
    SubscribeResp {
        req: u64,
        records: Vec<CommittedRecord>,
    },
    /// Client → all replicas of all shards of the color: delete ≤ `up_to`.
    Trim { color: ColorId, up_to: SeqNum, req: u64 },
    /// Replica → replica: I applied this trim (second round of §6.2).
    TrimPeerAck { color: ColorId, up_to: SeqNum, req: u64 },
    /// Replica → client: trim complete here; the color now spans
    /// `[head, tail]` (third round of §6.2).
    TrimAck {
        req: u64,
        head: Option<SeqNum>,
        tail: Option<SeqNum>,
    },
}

/// Subscription plane: standing push subscriptions (subscription groups).
#[derive(Clone, Debug, PartialEq)]
pub enum SubMsg {
    /// Client → one replica of one shard: register a standing tail cursor
    /// for `color` at `from`. The replica answers immediately with a
    /// (possibly empty) [`SubMsg::SubPushBatch`] and from then on pushes
    /// committed spans as they land. Registration is idempotent per `sub`:
    /// re-registering moves the cursor to `from`.
    SubscribeFrom {
        color: ColorId,
        from: SeqNum,
        sub: u64,
        reply_to: NodeId,
    },
    /// Replica → subscriber: committed records of `color` above the
    /// subscriber's cursor, in SN order. An empty batch is a liveness
    /// heartbeat (the subscriber re-attaches elsewhere when these stop).
    SubPushBatch {
        sub: u64,
        color: ColorId,
        records: Vec<CommittedRecord>,
    },
    /// Subscriber → replica: delivered everything up to `upto`; the acked
    /// cursor is what survives crash re-attach and migration handoff.
    SubAck { sub: u64, upto: SeqNum },
    /// Subscriber → replica: tear the subscription down.
    SubCancel { sub: u64 },
    /// Replica → subscriber: this replica stopped serving the color
    /// (`ColorMoved` after a cutover — re-resolve the topology and
    /// re-register; `Dropped` — terminal, the color was destroyed).
    SubRedirect {
        sub: u64,
        color: ColorId,
        reason: RejectReason,
    },
}

/// Sync plane: state exchange between nodes that hold (or are acquiring) a
/// copy of a color — the §6.3 sync-phase between shard peers, and the
/// catch-up every copy runs against its source (`follower.rs`: read
/// replicas, recovering quorum replicas, migration destinations). Nothing
/// here mutates the serving replica, so nothing is generation-fenced.
#[derive(Clone, Debug, PartialEq)]
pub enum SyncMsg {
    /// Recovering replica → shard peers: begin a sync-phase round (§6.3).
    SyncRequest { round: u64 },
    /// Replica → all shard peers: my state for this round — known sequencer
    /// epoch and per-color (tail, record count), plus the reconfiguration
    /// marks (controller generation and every fenced color) so a restarted
    /// peer re-learns a freeze it lost with its volatile state.
    SyncState {
        round: u64,
        epoch: Epoch,
        tails: Vec<(ColorId, SeqNum, u64)>,
        /// Highest controller generation this peer has obeyed.
        ctrl_gen: u64,
        /// This peer's fence on every color it has one on.
        marks: Vec<(ColorId, Fence)>,
    },
    /// Replica → all shard peers: I am synchronized for this round (the
    /// all-to-all barrier of §6.3).
    SyncDone { round: u64 },
    /// Follower → one replica: ship me `color`'s committed records picked by
    /// `select`, with their tokens. Built by the one catch-up state machine
    /// (`follower.rs`) only: `Above` its cursor, at most `FOLLOW_CHUNK`
    /// records, until a reply comes back short; `Exact` for the SNs a
    /// digest diff found missing. `req` names the question — a re-send to
    /// the next source carries the same one. The scan is trim-aware (never
    /// starts below the head) and runs inside the replica's event loop,
    /// which is why every copy chunks.
    Fetch {
        req: u64,
        color: ColorId,
        select: FetchSelect,
    },
    /// Reply to [`SyncMsg::Fetch`], in SN order.
    Records {
        req: u64,
        color: ColorId,
        /// The serving replica's trim head, so a destination hides the
        /// trimmed prefix too.
        head: Option<SeqNum>,
        /// Live committed records of the color on the serving replica, read
        /// in the same event-loop pass as `records`. A follower that holds
        /// everything above its cursor yet fewer records than this (under
        /// the same head) missed a hole that filled late upstream: it asks
        /// for the `SpanDigest` next and pulls exactly what it lacks.
        count: u64,
        records: Vec<TokenRecord>,
        /// Subscription cursors registered on the serving replica for this
        /// color: like freeze marks, they ride the migration so the
        /// destination resumes pushing where the source stopped.
        cursors: Vec<SubCursor>,
    },
    /// Control plane → one replica: report `color`'s local state (drain
    /// polling, catch-up source ranking).
    ColorStatus { color: ColorId, req: u64 },
    /// Reply to [`SyncMsg::ColorStatus`].
    ColorInfo {
        req: u64,
        /// Batches of the color staged here but not yet committed.
        staged: u64,
        /// Committed records of the color on this replica.
        count: u64,
    },
    /// Follower → one replica: list the SNs of `color`'s committed records
    /// above the head — the one hole-repair rule's first half. A cursor can
    /// step over a commit-order hole that fills later, so the follower
    /// diffs this against its own SNs and names the missing ones in a
    /// `Fetch { Exact }`: when `Records.count` says it is behind, and
    /// always where the copy must be exact (§6.3 sync, a migration's
    /// freeze-window round).
    SpanDigest { color: ColorId, req: u64 },
    /// Reply to [`SyncMsg::SpanDigest`].
    SpanDigestResp {
        req: u64,
        color: ColorId,
        sns: Vec<SeqNum>,
    },
}

/// Control plane (reconfiguration, §elasticity): one generation-fenced
/// envelope, one reply.
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlMsg {
    /// Controller → replica: obey `cmd` if `gen` is not superseded. A
    /// replica that has seen a higher generation answers
    /// [`CtrlMsg::Nack`] and does nothing (zombie fencing); otherwise it
    /// raises its floor to `gen`, applies the command and answers
    /// [`CtrlMsg::Ack`].
    Cmd { gen: u64, req: u64, cmd: CtrlCmd },
    /// Replica → controller: command applied. `moved` counts the records
    /// a [`CtrlCmd::CatchUp`] newly installed or a [`CtrlCmd::Archive`]
    /// archived or demoted (0 for every other command).
    /// `CatchUp`'s is the one deferred ack: it is sent when the copy is
    /// level, not when the command arrives.
    Ack { req: u64, moved: u64 },
    /// Replica → controller: command refused — the sender's generation is
    /// stale (`gen` is the highest this replica has seen).
    Nack { req: u64, gen: u64 },
}

/// What a [`CtrlMsg::Cmd`] asks a replica to do. Every command is
/// idempotent: the controller retries rounds until all replicas ack. No
/// command carries records — a destination pulls its own copy.
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlCmd {
    /// Generation announcement of a new controller: raise the fencing
    /// floor, nothing else.
    Hello,
    /// Stop admitting NEW appends of the color. Already-staged records
    /// keep flowing (their OReq resends and OResp commits proceed), which
    /// is what drains the staged set; fresh appends are parked unanswered
    /// at the replica ([`Fence::Frozen`]) until the command that ends the
    /// freeze re-handles them.
    Freeze(ColorId),
    /// Migration aborted: admit appends again, the parked ones first.
    Unfreeze(ColorId),
    /// Begin serving the color (clears any fence from an earlier
    /// residency).
    Adopt(ColorId),
    /// The color now lives elsewhere: nack its appends, parked ones
    /// included, with `ColorMoved` so clients re-resolve the shard.
    Cutover(ColorId),
    /// The color was destroyed: nack its appends with `Dropped`.
    Drop(ColorId),
    /// Discard every committed record of the color (roll-back of a
    /// partially copied migration). The trim head is kept — heads only
    /// ever advance.
    Discard(ColorId),
    /// Run one tiering round: archive the color's cold prefix (all but the
    /// newest `keep_tail` records, at most `max_records`) to the object
    /// store, or, when `demote` is set, move records from PM down to the
    /// SSD instead. Each replica archives its own storage (segments are
    /// deterministic, re-uploads are byte-identical).
    Archive {
        color: ColorId,
        keep_tail: u64,
        max_records: u64,
        demote: bool,
    },
    /// Migration destination: bring your copy of `color` level with source
    /// shard `shard`, pulling from `sources` (its replicas, best first), and
    /// ack — with `Ack.moved` — once level. Tokens travel with the
    /// records, so post-cutover client retries of pre-migration appends
    /// re-ack. A catch-up round (`last` unset) lands **cold**, straight on
    /// the SSD tier: bulk history must not evict the destination's PM
    /// headroom (the hot append path runs there) nor pollute its DRAM
    /// cache. The `last` round runs inside the freeze window: it lands hot
    /// (the records a client is about to re-read stay warm), proves the
    /// copy exact against the source's digest, and the shard's delegate
    /// adopts the source's subscription cursors, resuming each push from
    /// the subscriber's acked SN. A repeated command re-targets the pending
    /// ack; [`CtrlCmd::Adopt`] and [`CtrlCmd::Discard`] cancel it. A crashed
    /// destination simply never acks.
    CatchUp {
        color: ColorId,
        shard: ShardId,
        sources: Vec<NodeId>,
        last: bool,
    },
}

/// A subscription cursor in flight between replicas (migration handoff):
/// enough to resume pushing — the subscriber's address and the SN it has
/// acknowledged. Resuming from `acked` (not the optimistic push cursor)
/// means a handoff can re-push in-flight records; subscribers dedup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubCursor {
    pub sub: u64,
    pub target: NodeId,
    pub acked: SeqNum,
}

/// Why a replica nacked an append (epoch-fencing during reconfiguration).
/// Declared weakest first: [`Fence`]'s order rests on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// Color was cut over to another shard; re-resolve from the topology.
    ColorMoved,
    /// Color was destroyed; the append can never succeed.
    Dropped,
}

/// A replica's reconfiguration fence on one color. Ordered by strength,
/// `Frozen` < `Gone(ColorMoved)` < `Gone(Dropped)`: a mark a sync peer
/// re-asserts only ever raises a fence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fence {
    /// Frozen for migration: staged appends drain, new ones wait at the
    /// replica — neither staged nor answered — until the fence changes.
    /// Reads and subscriptions are served as usual.
    Frozen,
    /// The color left this shard: appends and subscriptions are refused
    /// with the reason.
    Gone(RejectReason),
}

/// The cluster-wide message type: everything that can travel on a FlexLog
/// deployment's network.
#[derive(Clone, Debug)]
pub enum ClusterMsg {
    Order(OrderMsg),
    Data(DataMsg),
}

impl OrderWire for ClusterMsg {
    fn from_order(m: OrderMsg) -> Self {
        ClusterMsg::Order(m)
    }
    fn into_order(self) -> Option<OrderMsg> {
        match self {
            ClusterMsg::Order(m) => Some(m),
            ClusterMsg::Data(_) => None,
        }
    }
}

impl From<DataMsg> for ClusterMsg {
    fn from(m: DataMsg) -> Self {
        ClusterMsg::Data(m)
    }
}

// `PlaneMsg::X { .. }.into()` builds the wire message directly.

impl From<AppendMsg> for ClusterMsg {
    fn from(m: AppendMsg) -> Self {
        ClusterMsg::Data(DataMsg::Append(m))
    }
}

impl From<ReadMsg> for ClusterMsg {
    fn from(m: ReadMsg) -> Self {
        ClusterMsg::Data(DataMsg::Read(m))
    }
}

impl From<SubMsg> for ClusterMsg {
    fn from(m: SubMsg) -> Self {
        ClusterMsg::Data(DataMsg::Sub(m))
    }
}

impl From<SyncMsg> for ClusterMsg {
    fn from(m: SyncMsg) -> Self {
        ClusterMsg::Data(DataMsg::Sync(m))
    }
}

impl From<CtrlMsg> for ClusterMsg {
    fn from(m: CtrlMsg) -> Self {
        ClusterMsg::Data(DataMsg::Ctrl(m))
    }
}

impl ClusterMsg {
    /// Extracts the data-layer message, if any.
    pub fn into_data(self) -> Option<DataMsg> {
        match self {
            ClusterMsg::Data(m) => Some(m),
            ClusterMsg::Order(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_wire_roundtrips_order() {
        let m = OrderMsg::Shutdown;
        let w = ClusterMsg::from_order(m.clone());
        assert_eq!(w.into_order(), Some(m));
    }

    #[test]
    fn cluster_wire_separates_layers() {
        let d: ClusterMsg = DataMsg::Shutdown.into();
        assert!(d.clone().into_order().is_none());
        assert_eq!(d.into_data(), Some(DataMsg::Shutdown));
        let o = ClusterMsg::Order(OrderMsg::Shutdown);
        assert!(o.into_data().is_none());
    }
}
