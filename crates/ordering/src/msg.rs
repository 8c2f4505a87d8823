//! Ordering-layer messages and the wire-embedding trait.

use std::sync::Arc;

use flexlog_simnet::NodeId;
use flexlog_types::{ColorId, Epoch, SeqNum, Token};

use crate::RoleId;

/// Messages exchanged by sequencers, their backups, and the data layer.
#[derive(Clone, Debug, PartialEq)]
pub enum OrderMsg {
    /// Order request from a replica (or measuring client) to a leaf
    /// sequencer: assign `nrecords` consecutive SNs in `color` for the
    /// append identified by `token`; broadcast the reply to `shard`
    /// (Algorithm 1, line 19). A replica names its shard with one shared
    /// list for all its OReqs.
    OReq {
        color: ColorId,
        token: Token,
        nrecords: u32,
        shard: Arc<[NodeId]>,
    },
    /// Aggregated request a sequencer forwards to its parent: `total` SNs
    /// for `color`, identified by the child's `batch` id (§5.2).
    AggReq {
        color: ColorId,
        batch: u64,
        total: u32,
    },
    /// Reply to an [`OrderMsg::AggReq`]: the *last* SN of the assigned
    /// range; the child distributes sub-ranges to its constituents.
    AggResp { batch: u64, last_sn: SeqNum },
    /// Ordering response broadcast by the leaf to all replicas of the
    /// requesting shard: per append, its token and the SN of its final
    /// record, in assignment order. One aggregation flush answers every
    /// append bound for the same shard with one message; a lone answer or a
    /// replay is a batch of one. Shared by every replica the broadcast
    /// reaches.
    OResp { resps: Arc<[(Token, SeqNum)]> },

    /// Leader → backups: replicate the epoch before serving (§5.2 Safety).
    ReplicateEpoch { epoch: Epoch },
    /// Backup → leader: epoch durably noted.
    EpochAck { epoch: Epoch },
    /// Leader → backups: liveness heartbeat.
    Heartbeat { epoch: Epoch },
    /// Backup → leader: heartbeat ack (the leader self-demotes without a
    /// majority of these within Δ).
    HeartbeatAck { epoch: Epoch },
    /// Backup → peer backups: candidacy in an election. The highest
    /// (epoch, node-id) wins (§5.2 "Sequencer replication").
    Candidacy { epoch: Epoch, id: NodeId },

    /// New leader → data-layer replicas: initialize against epoch `epoch`
    /// before the leader serves (§6.3 "Sequencer failures").
    InitSequencer { role: RoleId, epoch: Epoch },
    /// Replica → new leader: initialization complete.
    InitAck { epoch: Epoch },

    /// Control plane → sequencer: fence the current configuration. The
    /// sequencer advances its epoch, clears its per-color counters (fresh
    /// epoch ⇒ counters restart at 0, so every post-fence SN compares
    /// greater than every pre-fence SN), replicates the new epoch to its
    /// backups, and answers with [`OrderMsg::EpochIs`].
    /// Carries the controller generation `gen`: a sequencer that has seen
    /// a higher generation refuses with [`OrderMsg::BumpFenced`] instead
    /// of bumping (zombie-controller fencing).
    BumpEpoch { role: RoleId, gen: u64 },
    /// Sequencer → control plane: the epoch now in force at `role`.
    EpochIs { role: RoleId, epoch: Epoch },
    /// Sequencer → control plane: the bump was refused — the sender's
    /// controller generation is stale (`gen` is the highest seen here).
    BumpFenced { role: RoleId, gen: u64 },

    /// Orderly shutdown (test harness).
    Shutdown,
}

/// Embeds [`OrderMsg`] into an arbitrary network wire type, letting
/// sequencer nodes run on a cluster-wide message enum they do not know.
pub trait OrderWire: Send + Clone + 'static {
    fn from_order(m: OrderMsg) -> Self;
    fn into_order(self) -> Option<OrderMsg>;
}

impl OrderWire for OrderMsg {
    fn from_order(m: OrderMsg) -> Self {
        m
    }
    fn into_order(self) -> Option<OrderMsg> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_wire_roundtrips() {
        let m = OrderMsg::OResp { resps: Arc::from([(Token(7), SeqNum(9))]) };
        let w = OrderMsg::from_order(m.clone());
        assert_eq!(w.into_order(), Some(m));
    }
}
