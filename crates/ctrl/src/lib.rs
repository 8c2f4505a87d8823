//! # flexlog-ctrl
//!
//! The elasticity control plane: the first component that *closes the
//! loop* over a running FlexLog deployment — it observes the shared
//! metrics registry, decides, and actuates reconfigurations.
//!
//! Three epoch-fenced operations (every one bumps the owning sequencer's
//! epoch so in-flight ordering requests and appends from the old
//! configuration are rejected and retried against the new one):
//!
//! * **Runtime color create / destroy** — [`ControlPlane::create_color`]
//!   and [`ControlPlane::destroy_color`]. Creation is one catalog change;
//!   destruction drops the color from the catalog — its sequencer stops
//!   ordering it and clients stop routing to it in that one write — then
//!   fences every replica that hosted it with a `Drop` command, so a client
//!   holding a stale route gets a terminal `Dropped` nack instead of silence.
//! * **Shard scale-out with color migration** —
//!   [`ControlPlane::add_shard`] plus [`ControlPlane::migrate_color`]:
//!   freeze → drain-staged → epoch bump → copy (trim-aware span transfer
//!   with idempotence tokens) → adopt → cutover. Every SN committed under
//!   the old shard is readable from the new one and the per-color total
//!   order is unbroken.
//! * **Sequencer-tree split** — [`ControlPlane::split_leaf`]: a new leaf
//!   joins under the root at a *higher* epoch than the donor's bumped
//!   epoch, and half the donor's colors are re-routed to it, so per-color
//!   SNs stay strictly monotonic across the move.
//!
//! [`ControlLoop`] closes the loop on top: each tick it observes every
//! color (append rate from `seq.color_sns.*`, read and append recency,
//! span and SSD residency, PM pressure, the sequencers' `seq.batch_wait_ns`
//! p99), evaluates one declarative [`Policy`] (`when … then` rules, see
//! the grammar in [`Policy::parse`]) and actuates its matches — shard
//! scale-out, leaf splits, archive and demote rounds — through the
//! [`ControlPlane`], logging each as a [`Decision`].
//!
//! Every reconfiguration is **crash-recoverable**: the plane logs its
//! intent and per-phase progress into a durable [`IntentWal`] (a
//! `flexlog-pm` pool — the same transactional PM API the data path runs
//! on), and [`ControlPlane::recover`] rolls any operation that was
//! in flight at the crash forward past its point of no return or back to
//! a clean revert. A durable **controller generation** fences zombies:
//! every mutating ctrl message carries the generation, and replicas and
//! sequencers nack anything stale.

mod control;
mod plane;
mod policy;
mod wal;

pub use control::{ControlConfig, ControlLoop, Decision, Outcome};
pub use plane::{ControlPlane, CtrlError, RecoveryReport};
pub use policy::{Action, Condition, Observation, Policy, PolicyParseError, Rule};
pub use wal::{CtrlPhase, InFlightOp, IntentRecord, IntentWal, OpKind};

#[cfg(test)]
mod tests;
