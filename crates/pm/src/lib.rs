//! # flexlog-pm
//!
//! A simulated persistent-memory substrate standing in for the Intel Optane
//! DC PM + PMDK stack the FlexLog paper builds on (§2, §5.2, §8). The paper's
//! hardware is unavailable (and discontinued), so this crate reproduces the
//! three properties the FlexLog protocols actually depend on:
//!
//! 1. **Latency** — a calibrated [`LatencyModel`] per device class
//!    (kernel-bypass PM, PM behind OS syscalls, SSD file I/O), with the
//!    orderings and ratios of the paper's Figure 1 (PM ≈ 10× faster than
//!    SSD; kernel-bypass ≈ 100× faster than file I/O).
//! 2. **Persistence semantics** — writes to a [`PmDevice`] land in a
//!    *volatile* overlay (modelling CPU caches) until explicitly flushed and
//!    drained; [`PmDevice::crash`] discards everything unflushed, exactly the
//!    failure PMDK's transactional API exists to survive.
//! 3. **Crash-consistent abstractions** — [`PmPool`] offers the
//!    PMDK-libpmemobj-style transactional API (`begin`/`put`/`get`/`commit`/
//!    `rollback`) used by the paper's storage layer; each replica's log is
//!    records keyed by sequence number in one pool.
//!
//! Devices account their modelled latency through a [`DeviceClock`]:
//! `Spin` busy-waits (latency experiments), `Virtual` accrues nanoseconds on
//! a per-thread virtual clock (throughput/scaling experiments on a small
//! host), `Off` disables accounting (unit tests).

mod clock;
mod crc;
mod device;
mod hash;
mod image;
mod latency;
mod pool;
mod ssd;

pub use clock::{virtual_time, ClockMode, DeviceClock};
pub use crc::crc32;
pub use device::{DeviceError, PmDevice, PmDeviceConfig};
pub use latency::LatencyModel;
pub use pool::{PmPool, PoolError, PoolStats, Tx};
pub use ssd::{SsdDevice, SsdError};
