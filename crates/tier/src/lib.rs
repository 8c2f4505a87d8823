//! # flexlog-tier
//!
//! The cold storage tier below the SSD: a simulated **object store** holding
//! immutable, checksummed archive segments. What moves down, and when, is
//! the control loop's policy in `flexlog-ctrl`.
//!
//! The storage hierarchy this completes (coldest last):
//!
//! ```text
//! DRAM cache  →  PM log  →  SSD spill  →  object store (this crate)
//! ```
//!
//! Two pieces:
//!
//! * [`ObjectStore`] — put/get/list/delete of immutable blobs, modelled on a
//!   cloud object store: durable on `put` return, no partial writes, no
//!   rename. [`SimObjectStore`] is the in-memory implementation with a
//!   [`DeviceClock`]-driven latency model and chaos-harness fault injection
//!   (full outage, fail-next-N-puts).
//! * [`Segment`] — the archive unit: one color, an SN range, the record
//!   payloads, a CRC32 over the whole blob. Keys are self-describing
//!   (`seg/<color>/<base>-<last>`, hex-padded so lexicographic order is SN
//!   order), so the per-color [`Manifest`] can always be rebuilt from
//!   `list()` alone; the persisted manifest object is just a fast path.
//!
//! The archiver itself (sealing spans into segments, the read-through probe)
//! lives in `flexlog-storage`: it owns the bytes. This crate owns the store
//! and the wire format.

mod segment;
mod store;

pub use segment::{
    color_prefix, fetch_segment, manifest_key, parse_segment_key, segment_key, Manifest,
    Segment, SegmentMeta,
};
pub use store::{ObjectStore, SimObjectStore, StoreError, StoreLatencyModel, StoreStats};
