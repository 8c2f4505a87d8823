//! # flexlog-core
//!
//! The top of the FlexLog stack: everything an application touches.
//!
//! * [`FlexLogCluster`] assembles a whole deployment — simulated network,
//!   sequencer tree with backups, shards of PM-backed replicas — from a
//!   declarative [`ClusterSpec`], and exposes fault injection.
//! * [`FlexLog`] is the per-function client handle implementing the
//!   FlexLog-API of Table 2: `Append`, `Read`, `Subscribe`, `Trim`,
//!   `AddColor`, plus the atomic [`FlexLog::multi_append`] of §6.4.
//! * [`ColorAdmin`] is Table 2's `AddColor` over the cluster's [`Catalog`],
//!   which holds the color hierarchy (region tree): a new color is ordered
//!   by the sequencer owning its parent and stored on the shards of that
//!   region.
//! * [`MessageQueue`] is the paper's Listing-1 example — a durable queue
//!   between serverless functions built from one color.
//! * [`Barrier`] and [`DistributedLock`] are the §5.1 coordination recipes
//!   (causality via synchronization primitives on the log).
//!
//! ## Consistency menu (§5.1)
//!
//! * **Linearizability / sequential consistency** — put all appends on one
//!   color; its owning sequencer is the serialization point.
//! * **Causality** — chain phases with [`Barrier`] or [`DistributedLock`]
//!   on a dedicated color (the map-reduce pattern of §5.1).
//! * **Eventual consistency / multi-tenancy** — give every tenant or task
//!   its own color; FlexLog imposes no order between colors.

mod cluster;
mod durable;
mod colors;
mod handle;
mod primitives;
mod queue;

pub use cluster::{ClusterSpec, FlexLogCluster};
pub use colors::ColorAdmin;
pub use durable::DurableMap;
pub use handle::FlexLog;
pub use primitives::{Barrier, DistributedLock, LockError};
pub use queue::MessageQueue;

// Re-export the vocabulary so applications depend on one crate.
pub use flexlog_obs::{
    HistogramSummary, ObsHandle, Snapshot, Stage, Trace, TraceEvent, CTRL_TOKEN, SUB_TOKEN,
    SYNC_TOKEN,
};
pub use flexlog_ordering::{Catalog, ColorError};
pub use flexlog_replication::{ClientError, ClusterMsg, Subscription};
pub use flexlog_types::{ColorId, CommittedRecord, Epoch, FunctionId, SeqNum, Token};

#[cfg(test)]
mod tests;
