//! # flexlog-simnet
//!
//! An in-process simulated network substrate used by every distributed
//! component of FlexLog (replicas, sequencers, clients, baselines).
//!
//! The FlexLog paper (§4) assumes a *partially synchronous* message-passing
//! system with reliable FIFO channels (realized over TCP in the original Go
//! implementation) and a reliable broadcast primitive. This crate implements
//! exactly that model in-process so the full distributed protocols can run on
//! a single machine:
//!
//! * every node owns an [`Endpoint`] identified by a [`NodeId`];
//! * links deliver messages **reliably and in FIFO order per (src, dst)
//!   pair**, after a configurable one-way delay (+ jitter) that models the
//!   10 Gbps interconnect of the paper's testbed;
//! * fault injection: nodes can **crash** (their inbox closes; messages to
//!   them vanish, like a TCP reset) and the network can be **partitioned**
//!   into groups that cannot exchange messages until healed — the failure
//!   modes §6.3's recovery protocols are designed for;
//! * [`Endpoint::broadcast`] sends the same message to a set of peers over
//!   the reliable FIFO links; combined with the recovery protocols this
//!   realizes the paper's reliable-broadcast assumption.
//!
//! The network is generic over the message type `M`, so each protocol crate
//! defines its own strongly-typed message enum and never serializes anything.

mod config;
mod endpoint;
mod error;
mod network;
mod node;
mod scheduler;

pub use config::{LinkConfig, NetConfig};
pub use endpoint::Endpoint;
pub use error::{RecvError, SendError};
pub use network::Network;
pub use node::NodeId;

/// The *sleep floor* (defined beside the channel's poll window, whose
/// wait it bounds): a wait shorter than this is kept by polling until the
/// deadline instead of parking the thread — an endpoint's receive (in the
/// channel shim every inbox is) and the delivery scheduler's wait for the
/// next link delay to elapse (`scheduler.rs`) alike. At and above it a
/// receive polls only for the channel's short poll window, then parks, so
/// idle nodes still sleep.
pub(crate) use crossbeam::channel::SLEEP_FLOOR;

#[cfg(test)]
mod tests;
