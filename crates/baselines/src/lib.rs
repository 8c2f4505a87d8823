//! # flexlog-baselines
//!
//! From-scratch implementations of the systems FlexLog is compared against
//! in the paper's evaluation (§9.1), built on the same simulated substrates
//! so the comparison is apples-to-apples:
//!
//! * [`paxos`] — a Paxos-replicated **counter service**: the ordering-layer
//!   abstraction of Scalog [62], adopted by Boki [83]. Supports classic
//!   two-phase Paxos, the Multi-Paxos stable-leader optimization, and a
//!   multi-proposer contention mode that exhibits the livelock behaviour
//!   §3.3 reports.
//! * [`lsm`] — a miniature **LSM storage engine** (WAL with group commit on
//!   the simulated SSD, memtable, block-structured SSTs, size-tiered
//!   compaction): the "Boki (RocksDB)" storage baseline of Figures 5–7.

pub mod lsm;
pub mod paxos;
