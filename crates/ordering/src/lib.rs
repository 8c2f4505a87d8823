//! # flexlog-ordering
//!
//! FlexLog's ordering layer (paper §5.2, §6.3): a scalable, fault-tolerant
//! **tree of sequencers** that assigns 64-bit sequence numbers to order
//! requests per *color* (log region).
//!
//! * Each sequencer owns a set of colors: it is the source of total order
//!   for those regions ("is_root(SID, c)", Algorithm 1). An order request
//!   (OReq) enters at a leaf and climbs the tree until it reaches the owning
//!   sequencer, whose reply descends the same path.
//! * Sequencers **aggregate**: OReqs of the same color arriving within the
//!   batching interval (default 1 µs) merge into a single ranged request;
//!   the owner assigns the whole range `[s, s+n)` with one counter bump and
//!   the range is split back across the constituents on the way down —
//!   this is why root throughput depends on the branching factor, not the
//!   tree height (§9.3).
//! * SNs are `epoch << 32 | counter`. Fault tolerance comes from 2f
//!   **backup nodes** per sequencer that replicate only the epoch:
//!   heartbeats detect a dead leader, the backup with the highest
//!   (epoch, node-id) promotes itself, replicates the bumped epoch to a
//!   majority of backups, initializes the data-layer replicas (§6.3), and
//!   only then serves requests. The old leader self-demotes when it loses a
//!   majority of heartbeat acks (split-brain avoidance).
//!
//! The crate is generic over the network wire type through [`OrderWire`], so
//! the replication layer can carry these messages inside its own envelope.

mod backup;
mod catalog;
mod directory;
mod msg;
mod sequencer;
mod service;

pub use catalog::{Catalog, Change, ColorError, Home, ShardInfo, Version};
pub use directory::{Directory, RoleId};
pub use msg::{OrderMsg, OrderWire};
pub use sequencer::SequencerStats;
pub use service::{request_order, OrderingHandle, OrderingService, PositionSpec, TreeSpec};

#[cfg(test)]
mod tests;
