//! # flexlog-storage
//!
//! The storage stack of a FlexLog replica (paper §5.2, "Storage layer"):
//! a three-tier server combining
//!
//! 1. an in-memory volatile **DRAM cache** for recently accessed records;
//! 2. the **stateful log in PM**, kept crash-consistent through the
//!    transactional [`flexlog_pm::PmPool`];
//! 3. a **secondary SSD tier** that old contiguous portions of the log are
//!    flushed to when the PM high-watermark is reached.
//!
//! Appends go to PM (and the cache); reads probe cache → PM → SSD. The
//! server also implements the *staging area* of the append protocol
//! (Algorithm 1): a record arrives with a client token, is persisted
//! immediately, and is only moved to the committed index — discoverable by
//! sequence number — once the ordering layer assigns its SN.
//!
//! An optional fourth tier — the cold **object-store archive** from
//! `flexlog-tier` — hangs below the SSD (see [`TierConfig`]). With it
//! configured, `trim` becomes archive-then-drop and reads probe
//! cache → PM → SSD → archive, so trimmed history stays readable.

mod cache;
mod codec;
mod color_log;
mod server;
mod tokens;

pub use cache::LruCache;
pub use server::{FetchSelect, StorageConfig, StorageServer, TierConfig, TierHit, Written};
