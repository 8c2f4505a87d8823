//! # flexlog-replication
//!
//! FlexLog's data layer (paper §5.2 "Data layer", §6 "System protocols"):
//! shards of replicas that store the colored logs and drive the
//! append/read/subscribe/trim protocols against the ordering layer.
//!
//! * A **shard** is a set of `r` replicas (the replication factor), all
//!   connected to the same leaf sequencer. The replication protocol is a
//!   read-one/write-all atomic broadcast: an append is broadcast to every
//!   replica of one shard, each replica persists the records and requests an
//!   SN, the leaf sequencer broadcasts the SN back, every replica commits,
//!   and the append completes when the client holds an ack from **all**
//!   replicas — which is what makes local reads on any single replica
//!   linearizable (§5.2).
//! * **Sync-phase recovery** (§6.3): a recovering replica (or one told about
//!   a new sequencer epoch) pauses appends, exchanges per-color tails with
//!   its shard peers, fetches what it is missing from the most up-to-date
//!   replica, and passes an all-to-all barrier before going operational.
//!   Staged-but-uncommitted tokens re-issue their order requests.
//! * **Holes** are legal: the log is not necessarily consecutive after a
//!   sequencer fail-over. Replicas hold a read above their max-seen SN for a
//!   bounded time before answering ⊥ (§6.3 "Safety").
//! * The **multi-color append** (Algorithm 2) stages record sets in the
//!   special color with their target colors, then replays each set through
//!   the normal (idempotent) append path when the client's `end` marker
//!   arrives — all-or-nothing across colors.

mod client;
mod follower;
mod msg;
mod read_replica;
mod replica;
mod service;
mod serving;
mod subs;

pub use client::{ClientConfig, ClientError, FlexLogClient, Subscription};
pub use msg::{
    AppendMsg, ClusterMsg, CtrlCmd, CtrlMsg, DataMsg, Fence, ReadMsg, RejectReason, SubCursor,
    SubMsg, SyncMsg, TokenRecord,
};
pub use read_replica::ReadReplicaNode;
pub use replica::{ReplicaConfig, ReplicaNode};
pub use service::{DataLayerHandle, DataLayerService};
pub use flexlog_ordering::ShardInfo;

#[cfg(test)]
mod tests;
