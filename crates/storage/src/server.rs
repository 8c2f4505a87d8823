//! The tiered storage server of a FlexLog replica.
//!
//! Implements §5.2's storage stack plus the staging half of Algorithm 1:
//!
//! * [`StorageServer::stage`] durably stores an append batch under its
//!   client token before any SN exists ("persist(records[], t)");
//! * [`StorageServer::commit`] moves a staged batch into the committed,
//!   SN-indexed log once the ordering layer replies — atomically, via a pool
//!   transaction, so a crash never leaves a batch half-committed;
//!   [`StorageServer::commit_many`] coalesces several batches into **one**
//!   PM transaction (a single redo-log append + persist), mirroring the
//!   sequencer's aggregation window at the data layer;
//! * reads probe **DRAM cache → PM → SSD → archive**; appended records are
//!   inserted into the cache, archive read-throughs deliberately are NOT
//!   (a replay-from-genesis scan must not evict the hot working set — the
//!   archive keeps a one-segment read buffer per color instead);
//! * when live PM bytes exceed the configured watermark, the oldest
//!   committed prefix is spilled to the SSD tier (fsync before the PM
//!   delete, so a crash can duplicate a record across tiers but never lose
//!   it);
//! * with a [`TierConfig`] attached, [`StorageServer::trim`] becomes
//!   **archive-then-drop**: the to-be-trimmed span is sealed into immutable
//!   checksummed segments and uploaded to the shared object store *before*
//!   any PM/SSD byte is released, so history survives the trim and stays
//!   readable read-through. Only the durably acknowledged prefix is ever
//!   dropped — a mid-round store outage trims less, never loses data.
//!   Without a tier, `trim` deletes as before. Both paths durably record
//!   the new head and prune the idempotence map of tokens whose batches
//!   fell behind the head (so it cannot grow without bound);
//! * [`StorageServer::archive_prefix`] and [`StorageServer::demote_color`]
//!   are the policy engine's actuators: the control plane's declarative
//!   tiering policy (see `flexlog-tier`) compiles into per-color
//!   archive/demote moves executed here.
//!
//! # Locking
//!
//! The server is sharded for concurrency — there is no global mutex:
//!
//! * the SN index and trim heads live in [`STRIPES`] **color stripes**
//!   (`color.0 % STRIPES`), so appends/reads/trims on different colors never
//!   contend;
//! * the DRAM cache is striped by a `(color, sn)` hash — a single hot color
//!   still spreads over all cache stripes and can use the whole DRAM budget;
//! * the token maps (staged + committed idempotence) are a separate small
//!   lock touched only at stage/commit boundaries;
//! * `pm_live_bytes` is a lock-free atomic;
//! * the `archive_gate` serializes archive rounds against trims (an
//!   upload-then-drop two-step must never interleave with a concurrent
//!   trim's drop) and is always the outermost lock — nothing is held when
//!   it is taken, and the archive manifest/buffer mutex below it is a leaf
//!   like the cache stripes.
//!
//! Invariants that keep this deadlock-free: a thread never holds two stripe
//! locks at once, never takes a stripe lock while holding the token lock
//! (token → stripe order is forbidden, stripe → token never happens), and
//! cache locks are leaves (nothing else is acquired under them). The PM
//! pool has its own internal lock below all of these.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use flexlog_obs::{Counter, Histogram, ObsHandle, Stage};
use flexlog_pm::{ClockMode, DeviceClock, LatencyModel, PmDevice, PmDeviceConfig, PmPool, PoolError, SsdDevice};
use flexlog_tier::{fetch_segment, Manifest, ObjectStore, Segment};
use flexlog_types::{ColorId, CommittedRecord, Payload, SeqNum, Token};

use crate::{CacheStats, LruCache};

/// DRAM access cost charged on a cache hit, in nanoseconds.
const DRAM_NS: u64 = 80;

/// Number of color stripes (index/heads) and cache stripes. A small power
/// of two: enough to de-contend a many-color workload without fragmenting
/// the DRAM budget across too many LRU instances.
pub const STRIPES: usize = 8;

const TAG_COMMITTED: u128 = 1 << 120;
const TAG_STAGED: u128 = 2 << 120;
const TAG_HEAD: u128 = 3 << 120;

fn committed_key(color: ColorId, sn: SeqNum) -> u128 {
    TAG_COMMITTED | ((color.0 as u128) << 64) | sn.0 as u128
}

fn staged_key(token: Token) -> u128 {
    TAG_STAGED | token.0 as u128
}

fn head_key(color: ColorId) -> u128 {
    TAG_HEAD | color.0 as u128
}

fn ssd_block_id(color: ColorId, sn: SeqNum) -> u128 {
    ((color.0 as u128) << 64) | sn.0 as u128
}

/// Records moved per watermark spill round.
const SPILL_BATCH: usize = 64;

/// Which committed records of a color [`StorageServer::fetch`] returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FetchSelect {
    /// Records strictly above `sn`, oldest first, at most `limit`
    /// (`u64::MAX` = unbounded) — the caller resumes above the last one.
    Above { sn: SeqNum, limit: u64 },
    /// Exactly these SNs; ones not held here are skipped.
    Exact(Vec<SeqNum>),
}

/// Which tier served a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierHit {
    Cache,
    Pm,
    Ssd,
    /// Read-through from the cold object-storage tier.
    Archive,
}

/// The cold tier attached below the SSD: a shared object store plus the
/// archiver's knobs. One store instance is shared by a whole cluster (it
/// models the remote object service, not a per-node device), so archived
/// history survives any replica crash and is readable from every replica —
/// including read-only ones and migration destinations.
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// The object store segments are uploaded to.
    pub store: Arc<dyn ObjectStore>,
    /// Records per sealed segment (the upload/fetch unit).
    pub segment_records: usize,
}

impl TierConfig {
    pub fn new(store: Arc<dyn ObjectStore>) -> Self {
        TierConfig {
            store,
            segment_records: 256,
        }
    }
}

/// Configuration of a storage server.
#[derive(Clone, Debug)]
pub struct StorageConfig {
    /// PM device capacity in bytes.
    pub pm_capacity: usize,
    /// PM latency model.
    pub pm_latency: LatencyModel,
    /// DRAM cache budget in bytes (split evenly across cache stripes).
    pub cache_capacity: usize,
    /// Live PM bytes beyond which the oldest records spill to SSD.
    pub pm_watermark: usize,
    /// Latency accounting mode for all devices of this server.
    pub clock: ClockMode,
    /// Observability surface: the cluster shares one handle across all
    /// layers; a standalone server gets its own private default.
    pub obs: ObsHandle,
    /// Cold object-storage tier. `None` (the default) keeps the classic
    /// PM+SSD stack: `trim` deletes history and reads never probe below
    /// the SSD.
    pub tier: Option<TierConfig>,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            pm_capacity: 16 << 20,
            pm_latency: LatencyModel::pm_bypass(),
            cache_capacity: 1 << 20,
            pm_watermark: 4 << 20,
            clock: ClockMode::Off,
            obs: ObsHandle::default(),
            tier: None,
        }
    }
}

impl StorageConfig {
    /// A small configuration that spills quickly — used by tier tests.
    pub fn tiny() -> Self {
        StorageConfig {
            pm_capacity: 256 << 10,
            cache_capacity: 4 << 10,
            pm_watermark: 32 << 10,
            ..Default::default()
        }
    }
}

/// Operation counters. Fields are registry-backed [`Counter`]s (same
/// `load` / `fetch_add` surface as the `AtomicU64`s they replaced): each
/// server increments its own private atomics, and the shared registry
/// aggregates across servers under the `storage.*` names.
#[derive(Debug, Default)]
pub struct StorageStats {
    pub stages: Counter,
    pub commits: Counter,
    pub reads: Counter,
    pub cache_hits: Counter,
    pub cache_misses: Counter,
    pub pm_hits: Counter,
    pub ssd_hits: Counter,
    pub spilled_records: Counter,
    /// Payload bytes accepted by `stage` (the append ingress volume).
    pub bytes_appended: Counter,
    /// Payload bytes served by reads, from any tier.
    pub bytes_read: Counter,
    /// Reads served from the archive tier. Archive probes do **not** count
    /// as cache hits or misses: historical scans must not skew
    /// `cache_hit_rate`, which tracks the hot working set only.
    pub archive_hits: Counter,
    /// Records sealed into archive segments and durably uploaded.
    pub archived_records: Counter,
    /// Segments durably uploaded to the object store.
    pub archived_segments: Counter,
    /// Segment downloads from the object store (read-through misses).
    pub archive_fetches: Counter,
    /// Object-store operations that failed (outage, injected fault).
    pub archive_failures: Counter,
}

impl StorageStats {
    /// Counters registered under the cluster-wide `storage.*` names.
    pub fn registered(obs: &ObsHandle) -> Self {
        StorageStats {
            stages: obs.counter("storage.stages"),
            commits: obs.counter("storage.commits"),
            reads: obs.counter("storage.reads"),
            cache_hits: obs.counter("storage.cache_hits"),
            cache_misses: obs.counter("storage.cache_misses"),
            pm_hits: obs.counter("storage.pm_hits"),
            ssd_hits: obs.counter("storage.ssd_hits"),
            spilled_records: obs.counter("storage.spilled_records"),
            bytes_appended: obs.counter("storage.bytes_appended"),
            bytes_read: obs.counter("storage.bytes_read"),
            archive_hits: obs.counter("storage.archive_hits"),
            archived_records: obs.counter("storage.archived_records"),
            archived_segments: obs.counter("storage.archived_segments"),
            archive_fetches: obs.counter("storage.archive_fetches"),
            archive_failures: obs.counter("storage.archive_failures"),
        }
    }

    /// Cache hit rate over all reads that probed the cache. 0.0 (not NaN)
    /// when no read has happened yet.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// Errors from storage operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// PM pool error (e.g. full).
    Pool(PoolError),
    /// Commit for a token that was never staged (and not yet committed).
    UnknownToken(Token),
    /// A scan needed archived history but the object store could not
    /// serve it. Callers must fail the operation loudly — returning the
    /// live suffix alone would hand a subscriber a log with a silent
    /// hole where the archived prefix belongs.
    ArchiveUnavailable,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Pool(e) => write!(f, "pool: {e}"),
            StorageError::UnknownToken(t) => write!(f, "unknown token {t:?}"),
            StorageError::ArchiveUnavailable => write!(f, "archived history unavailable"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<PoolError> for StorageError {
    fn from(e: PoolError) -> Self {
        StorageError::Pool(e)
    }
}

struct StagedBatch {
    color: ColorId,
    payloads: Vec<Payload>,
}

/// One color stripe: SN index and trim heads of the colors mapping here.
#[derive(Default)]
struct Stripe {
    /// Per color: committed SNs resident in PM or SSD (true = on SSD).
    committed: HashMap<ColorId, BTreeMap<SeqNum, bool>>,
    /// Highest trimmed SN per color (inclusive).
    heads: HashMap<ColorId, SeqNum>,
    /// Per-color read counters (`storage.color_reads.<id>` in the registry):
    /// the access-recency signal the tiering policy's `idle_ms` condition
    /// observes.
    reads: HashMap<ColorId, Counter>,
}

/// Token maps: small, hot at stage/commit boundaries only.
#[derive(Default)]
struct TokenIndex {
    /// Tokens staged but not yet committed.
    staged: HashMap<Token, ColorId>,
    /// Tokens whose commit transaction is currently being written. Guards
    /// the window in which a token is neither `staged` nor committed, so a
    /// concurrent re-stage or duplicate commit cannot slip in.
    committing: HashSet<Token>,
    /// Tokens already committed → (color, last SN of their batch). The color
    /// lets `trim` prune entries once the whole batch falls behind the head.
    committed_tokens: HashMap<Token, (ColorId, SeqNum)>,
}

/// One DRAM-cache stripe: an LRU over `(color, SN)` keys.
type CacheStripe = Mutex<LruCache<(ColorId, SeqNum)>>;

/// Archive-tier state: manifest cache plus the one-segment read buffer.
///
/// The buffer is deliberately tiny (one segment per color) and entirely
/// separate from the DRAM cache stripes: a cold historical scan streams
/// through it segment by segment without admitting a single record into
/// the LRU, so the hot working set stays resident (low-priority admission
/// taken to its limit — no admission at all).
#[derive(Default)]
struct ArchiveState {
    manifests: HashMap<ColorId, Manifest>,
    buffer: HashMap<ColorId, Segment>,
}

/// Result of one archive round (see `StorageServer::archive_records`).
enum ArchiveOutcome {
    /// Every candidate record is covered by a durably acked segment;
    /// carries the count newly uploaded this round.
    Complete(u64),
    /// The round stopped early on a store failure. `durable` is the
    /// highest SN covered by durably acked segments — the only prefix a
    /// trim may drop — or `None` when even the manifest was unreadable
    /// (boundary unknown, drop nothing).
    Partial { archived: u64, durable: Option<SeqNum> },
}

/// See module docs.
pub struct StorageServer {
    pool: PmPool,
    ssd: Arc<SsdDevice>,
    caches: Box<[CacheStripe]>,
    stripes: Box<[Mutex<Stripe>]>,
    tokens: Mutex<TokenIndex>,
    /// Approximate live payload bytes resident in PM.
    pm_live_bytes: AtomicUsize,
    /// Serializes spill rounds (the SSD-copy/PM-delete two-step must not
    /// interleave with itself); stripe/cache locks are taken inside.
    spill_gate: Mutex<()>,
    /// Serializes archive rounds against trims: a trim must never drop
    /// records an in-flight segment upload has not durably acked. Always
    /// the outermost lock — nothing else is held when it is taken.
    archive_gate: Mutex<()>,
    /// Cached per-color manifests and the single-segment read buffer the
    /// archive read-through path uses instead of the DRAM cache stripes
    /// (so replay-from-genesis cannot evict the hot working set). Leaf
    /// lock: no other lock is acquired while it is held.
    archive: Mutex<ArchiveState>,
    clock: DeviceClock,
    config: StorageConfig,
    pub stats: StorageStats,
    /// Raw `NodeId` bits of the replica owning this server (0 until the
    /// replica attaches itself); stamps `StorageCommit` trace events.
    node: AtomicU64,
    /// Wall-clock duration of each `commit_many` PM transaction.
    commit_hist: Histogram,
}

fn cache_stripe_of(color: ColorId, sn: SeqNum) -> usize {
    let mut h = DefaultHasher::new();
    (color.0, sn.0).hash(&mut h);
    (h.finish() as usize) % STRIPES
}

impl StorageServer {
    fn stripe_of(&self, color: ColorId) -> &Mutex<Stripe> {
        &self.stripes[color.0 as usize % STRIPES]
    }

    fn cache_of(&self, color: ColorId, sn: SeqNum) -> &CacheStripe {
        &self.caches[cache_stripe_of(color, sn)]
    }

    fn empty_shards(config: &StorageConfig) -> (Box<[CacheStripe]>, Box<[Mutex<Stripe>]>) {
        let per_stripe = config.cache_capacity / STRIPES;
        let caches = (0..STRIPES)
            .map(|_| {
                let mut cache = LruCache::new(per_stripe);
                cache.set_eviction_counter(config.obs.counter("storage.cache_evictions"));
                Mutex::new(cache)
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let stripes = (0..STRIPES)
            .map(|_| Mutex::new(Stripe::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        (caches, stripes)
    }

    /// Creates a fresh server on new devices.
    pub fn new(config: StorageConfig) -> Self {
        let clock = DeviceClock::new(config.clock);
        let pm = Arc::new(PmDevice::new(PmDeviceConfig {
            capacity: config.pm_capacity,
            latency: config.pm_latency,
            clock,
        }));
        let ssd = Arc::new(SsdDevice::new(clock));
        let (caches, stripes) = Self::empty_shards(&config);
        let stats = StorageStats::registered(&config.obs);
        let commit_hist = config.obs.histogram("storage.commit_ns");
        StorageServer {
            pool: PmPool::create(pm),
            ssd,
            caches,
            stripes,
            tokens: Mutex::new(TokenIndex::default()),
            pm_live_bytes: AtomicUsize::new(0),
            spill_gate: Mutex::new(()),
            archive_gate: Mutex::new(()),
            archive: Mutex::new(ArchiveState::default()),
            clock,
            config,
            stats,
            node: AtomicU64::new(0),
            commit_hist,
        }
    }

    /// Recovers a server from crashed devices: replays the PM pool, rebuilds
    /// all in-memory indexes, and re-discovers SSD-resident records. The
    /// DRAM cache starts cold.
    pub fn recover(pm: Arc<PmDevice>, ssd: Arc<SsdDevice>, config: StorageConfig) -> Self {
        let clock = DeviceClock::new(config.clock);
        let pool = PmPool::open(pm);
        let mut committed: HashMap<ColorId, BTreeMap<SeqNum, bool>> = HashMap::new();
        let mut tokens = TokenIndex::default();
        let mut heads: HashMap<ColorId, SeqNum> = HashMap::new();
        let mut pm_live_bytes = 0usize;
        for key in pool.keys() {
            let tag = key & (0xFF << 120);
            if tag == TAG_COMMITTED {
                let color = ColorId((key >> 64) as u32);
                let sn = SeqNum(key as u64);
                let value = pool.get(key).expect("indexed key readable");
                pm_live_bytes += value.len();
                let token = Token(u64::from_le_bytes(value[..8].try_into().unwrap()));
                committed.entry(color).or_default().insert(sn, false);
                // The token maps to the *last* SN of its batch; keep max.
                let e = tokens.committed_tokens.entry(token).or_insert((color, sn));
                if sn > e.1 {
                    *e = (color, sn);
                }
            } else if tag == TAG_STAGED {
                let token = Token(key as u64);
                let value = pool.get(key).expect("indexed key readable");
                pm_live_bytes += value.len();
                let color = ColorId(u32::from_le_bytes(value[..4].try_into().unwrap()));
                tokens.staged.insert(token, color);
            } else if tag == TAG_HEAD {
                let color = ColorId(key as u32);
                let value = pool.get(key).expect("indexed key readable");
                heads.insert(
                    color,
                    SeqNum(u64::from_le_bytes(value[..8].try_into().unwrap())),
                );
            }
        }
        // SSD-resident records.
        for block in ssd.block_ids() {
            let color = ColorId((block >> 64) as u32);
            let sn = SeqNum(block as u64);
            if heads.get(&color).is_some_and(|&h| sn <= h) {
                continue; // trimmed while on SSD; lazily ignored
            }
            committed.entry(color).or_default().insert(sn, true);
        }
        let (caches, stripes) = Self::empty_shards(&config);
        let stats = StorageStats::registered(&config.obs);
        let commit_hist = config.obs.histogram("storage.commit_ns");
        let server = StorageServer {
            pool,
            ssd,
            caches,
            stripes,
            tokens: Mutex::new(tokens),
            pm_live_bytes: AtomicUsize::new(pm_live_bytes),
            spill_gate: Mutex::new(()),
            archive_gate: Mutex::new(()),
            // Manifests reload lazily from the store on first archive probe;
            // recovery needs no extra work here.
            archive: Mutex::new(ArchiveState::default()),
            clock,
            config,
            stats,
            node: AtomicU64::new(0),
            commit_hist,
        };
        for (color, map) in committed {
            server.stripe_of(color).lock().committed.insert(color, map);
        }
        for (color, head) in heads {
            server.stripe_of(color).lock().heads.insert(color, head);
        }
        server
    }

    /// Durably stages an append batch under its token (Alg 1 line 17).
    /// Idempotent: re-staging a token that is staged or already committed is
    /// a no-op returning `Ok(false)`.
    pub fn stage(
        &self,
        token: Token,
        color: ColorId,
        payloads: &[Payload],
    ) -> Result<bool, StorageError> {
        {
            let idx = self.tokens.lock();
            if idx.staged.contains_key(&token)
                || idx.committing.contains(&token)
                || idx.committed_tokens.contains_key(&token)
            {
                return Ok(false);
            }
        }
        let value = encode_staged(color, payloads);
        let vlen = value.len();
        self.pool.put(staged_key(token), &value)?;
        self.tokens.lock().staged.insert(token, color);
        self.pm_live_bytes.fetch_add(vlen, Ordering::Relaxed);
        self.stats.stages.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_appended.fetch_add(
            payloads.iter().map(|p| p.len() as u64).sum(),
            Ordering::Relaxed,
        );
        Ok(true)
    }

    /// Commits a staged batch: `sn_last` is the SN of the batch's final
    /// record (the value the sequencer broadcast); earlier records of the
    /// batch get the preceding counters of the same epoch. Atomic and
    /// durable. Idempotent by token.
    pub fn commit(&self, token: Token, sn_last: SeqNum) -> Result<bool, StorageError> {
        self.commit_many(&[(token, sn_last)]).pop().expect("one item in, one out")
    }

    /// Commits several staged batches through **one** PM transaction — one
    /// redo-log append and one persist for the whole group, instead of one
    /// per batch. This is the data-layer analogue of the sequencer's
    /// aggregation window: a replica draining a burst of OResps pays the PM
    /// commit cost once. Results are per item, index-aligned with `items`;
    /// a failing item (unknown token) never blocks its neighbours.
    pub fn commit_many(&self, items: &[(Token, SeqNum)]) -> Vec<Result<bool, StorageError>> {
        let commit_start = std::time::Instant::now();
        let mut results: Vec<Result<bool, StorageError>> = Vec::with_capacity(items.len());
        // Classify under the token lock and claim valid tokens (move them
        // into `committing` so re-stages and duplicate commits wait out the
        // transaction window).
        let mut valid: Vec<(usize, Token, SeqNum)> = Vec::new();
        {
            let mut idx = self.tokens.lock();
            for (i, &(token, sn_last)) in items.iter().enumerate() {
                if idx.committed_tokens.contains_key(&token) || idx.committing.contains(&token) {
                    results.push(Ok(false));
                } else if !idx.staged.contains_key(&token) {
                    results.push(Err(StorageError::UnknownToken(token)));
                } else if valid.iter().any(|&(_, t, _)| t == token) {
                    // Duplicate token inside one call: first occurrence wins.
                    results.push(Ok(false));
                } else {
                    idx.committing.insert(token);
                    results.push(Ok(true)); // provisional; rolled back on tx error
                    valid.push((i, token, sn_last));
                }
            }
        }
        if valid.is_empty() {
            return results;
        }

        // Build ONE transaction across all claimed batches.
        type CommittedBatch = (Token, ColorId, SeqNum, Vec<(SeqNum, Payload)>);
        let mut tx = self.pool.begin();
        let mut committed: Vec<CommittedBatch> = Vec::new();
        let mut live_delta = 0isize;
        for &(_, token, sn_last) in &valid {
            let staged = self
                .pool
                .get(staged_key(token))
                .expect("staged index implies staged record");
            let batch = decode_staged(&staged);
            let n = batch.payloads.len() as u32;
            debug_assert!(n > 0, "staged batches are non-empty");
            debug_assert!(
                sn_last.counter() + 1 >= n,
                "SN range must not underflow the epoch counter"
            );
            tx.delete(staged_key(token));
            live_delta -= staged.len() as isize;
            let mut sns = Vec::with_capacity(batch.payloads.len());
            for (i, payload) in batch.payloads.iter().enumerate() {
                let sn = SeqNum::new(sn_last.epoch(), sn_last.counter() - (n - 1 - i as u32));
                let mut value = Vec::with_capacity(8 + payload.len());
                value.extend_from_slice(&token.0.to_le_bytes());
                value.extend_from_slice(payload);
                live_delta += value.len() as isize;
                tx.put(committed_key(batch.color, sn), &value);
                sns.push((sn, payload.clone()));
            }
            committed.push((token, batch.color, sn_last, sns));
        }
        if let Err(e) = tx.commit() {
            // Roll the claims back; none of the batches committed.
            let mut idx = self.tokens.lock();
            for &(i, token, _) in &valid {
                idx.committing.remove(&token);
                results[i] = Err(e.into());
            }
            return results;
        }

        // Publish: token maps, per-color SN indexes, cache fills.
        {
            let mut idx = self.tokens.lock();
            for (token, color, sn_last, _) in &committed {
                idx.staged.remove(token);
                idx.committing.remove(token);
                idx.committed_tokens.insert(*token, (*color, *sn_last));
            }
        }
        for (_, color, _, sns) in &committed {
            let mut stripe = self.stripe_of(*color).lock();
            let per_color = stripe.committed.entry(*color).or_default();
            for (sn, _) in sns {
                per_color.insert(*sn, false);
            }
        }
        for (_, color, _, sns) in &committed {
            for (sn, payload) in sns {
                // Zero-copy fill: the cache shares the staged batch's buffer.
                self.cache_of(*color, *sn)
                    .lock()
                    .put((*color, *sn), payload.clone());
            }
        }
        let new_live = (self.pm_live_bytes.load(Ordering::Relaxed) as isize + live_delta).max(0);
        self.pm_live_bytes.store(new_live as usize, Ordering::Relaxed);
        self.stats
            .commits
            .fetch_add(committed.len() as u64, Ordering::Relaxed);
        self.commit_hist.record_ns(commit_start.elapsed());
        let node = self.node.load(Ordering::Relaxed);
        let span_batch: Vec<_> = committed
            .iter()
            .map(|(token, color, _, _)| (*token, Stage::StorageCommit, node, color.0 as u64))
            .collect();
        self.config.obs.tracer().record_many(&span_batch);
        if let Err(e) = self.maybe_spill() {
            // Spill failure does not undo the durable commits; surface it on
            // the first successful item so callers notice.
            if let Some(&(i, _, _)) = valid.first() {
                results[i] = Err(e);
            }
        }
        results
    }

    /// Reads the record `(color, sn)` through the tier hierarchy.
    pub fn get(&self, color: ColorId, sn: SeqNum) -> Option<Payload> {
        self.get_traced(color, sn).map(|(v, _)| v)
    }

    /// Like [`StorageServer::get`] but also reports which tier hit.
    pub fn get_traced(&self, color: ColorId, sn: SeqNum) -> Option<(Payload, TierHit)> {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let archived_candidate = {
            let mut stripe = self.stripe_of(color).lock();
            let obs = &self.config.obs;
            stripe
                .reads
                .entry(color)
                .or_insert_with(|| obs.counter(&format!("storage.color_reads.{}", color.0)))
                .fetch_add(1, Ordering::Relaxed);
            if stripe.heads.get(&color).is_some_and(|&h| sn <= h) {
                // At or below the trim head: only the archive may serve it
                // (the head filters live reads even when the bytes still
                // sit in PM — the `install_head` migration contract).
                self.config.tier.as_ref()?;
                true
            } else if stripe.committed.get(&color).is_some_and(|m| m.contains_key(&sn)) {
                false // live in PM or SSD
            } else {
                return None;
            }
        };
        if archived_candidate {
            let payload = self.archive_get(color, sn)?;
            self.stats.archive_hits.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_read
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            return Some((payload, TierHit::Archive));
        }
        // Tier 1: DRAM cache (a hit returns the shared buffer, no copy).
        if let Some(v) = self.cache_of(color, sn).lock().get(&(color, sn)) {
            self.clock.consume(DRAM_NS);
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_read.fetch_add(v.len() as u64, Ordering::Relaxed);
            return Some((v, TierHit::Cache));
        }
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        // Tier 2: PM.
        if let Some(v) = self.pool.get(committed_key(color, sn)) {
            let payload = Payload::from(v[8..].to_vec());
            self.cache_of(color, sn).lock().put((color, sn), payload.clone());
            self.stats.pm_hits.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_read
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            return Some((payload, TierHit::Pm));
        }
        // Tier 3: SSD.
        if let Ok(v) = self.ssd.read_block(ssd_block_id(color, sn)) {
            let payload = Payload::from(v[8..].to_vec());
            self.cache_of(color, sn).lock().put((color, sn), payload.clone());
            self.stats.ssd_hits.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_read
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            return Some((payload, TierHit::Ssd));
        }
        None
    }

    /// Tier 4: the archive read-through. Serves `(color, sn)` from the
    /// buffered segment if it covers the SN, else fetches the covering
    /// segment from the object store into the buffer. Never touches the
    /// DRAM cache stripes. Returns `None` on a genuine hole (the SN was
    /// never archived) and on store failure (counted).
    fn archive_get(&self, color: ColorId, sn: SeqNum) -> Option<Payload> {
        let tier = self.config.tier.as_ref()?;
        {
            let archive = self.archive.lock();
            if let Some(seg) = archive.buffer.get(&color) {
                if seg.base <= sn && sn <= seg.last {
                    // Covered by the buffered segment: either it has the
                    // record or the SN is a hole — no point refetching.
                    return match seg.records.binary_search_by_key(&sn, |r| r.sn) {
                        Ok(i) => Some(seg.records[i].payload.clone()),
                        Err(_) => None,
                    };
                }
            }
        }
        let manifest = self.archive_manifest(tier, color)?;
        let meta = manifest.segment_for(sn)?;
        match fetch_segment(tier.store.as_ref(), color, meta) {
            Ok(Some(seg)) => {
                self.stats.archive_fetches.fetch_add(1, Ordering::Relaxed);
                let hit = match seg.records.binary_search_by_key(&sn, |r| r.sn) {
                    Ok(i) => Some(seg.records[i].payload.clone()),
                    Err(_) => None,
                };
                self.archive.lock().buffer.insert(color, seg);
                hit
            }
            Ok(None) => None,
            Err(_) => {
                self.stats.archive_failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Returns this color's manifest, loading it from the store on first
    /// use. Each replica archives and trims its own storage under the
    /// `archive_gate`, so its cached manifest always covers its own trim
    /// head — no staleness re-check is needed on a miss.
    fn archive_manifest(&self, tier: &TierConfig, color: ColorId) -> Option<Manifest> {
        if let Some(m) = self.archive.lock().manifests.get(&color) {
            return Some(m.clone());
        }
        match Manifest::load(tier.store.as_ref(), color) {
            Ok(m) => {
                self.archive.lock().manifests.insert(color, m.clone());
                Some(m)
            }
            Err(_) => {
                self.stats.archive_failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Archived records of `color` with `sn > from`, oldest first, at most
    /// `cap`. Streams through the archive buffer (never the DRAM cache).
    /// Errors when the store cannot serve a needed segment or manifest —
    /// the caller must fail the whole scan rather than serve a log with a
    /// hole where the archived prefix belongs.
    fn archived_scan(
        &self,
        color: ColorId,
        from: SeqNum,
        cap: usize,
    ) -> Result<Vec<CommittedRecord>, StorageError> {
        let Some(tier) = self.config.tier.as_ref() else {
            return Ok(Vec::new());
        };
        let Some(manifest) = self.archive_manifest(tier, color) else {
            return Err(StorageError::ArchiveUnavailable);
        };
        let mut out = Vec::new();
        for meta in manifest.segments.iter().filter(|m| m.last > from) {
            if out.len() >= cap {
                break;
            }
            let buffered = {
                let archive = self.archive.lock();
                archive
                    .buffer
                    .get(&color)
                    .filter(|seg| seg.base == meta.base && seg.last == meta.last)
                    .cloned()
            };
            let seg = match buffered {
                Some(seg) => seg,
                None => match fetch_segment(tier.store.as_ref(), color, meta) {
                    Ok(Some(seg)) => {
                        self.stats.archive_fetches.fetch_add(1, Ordering::Relaxed);
                        self.archive.lock().buffer.insert(color, seg.clone());
                        seg
                    }
                    Ok(None) | Err(_) => {
                        self.stats.archive_failures.fetch_add(1, Ordering::Relaxed);
                        return Err(StorageError::ArchiveUnavailable);
                    }
                },
            };
            for rec in seg.records.iter().filter(|r| r.sn > from) {
                if out.len() >= cap {
                    break;
                }
                self.stats.archive_hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_read
                    .fetch_add(rec.payload.len() as u64, Ordering::Relaxed);
                out.push(rec.clone());
            }
        }
        Ok(out)
    }

    /// All committed records of `color` with `sn > from`, in SN order
    /// (serves Subscribe and recovery syncs). With a cold tier configured
    /// this includes archived history below the trim head, merged in front
    /// of the live span — replay-from-genesis sees every record. Errors
    /// with [`StorageError::ArchiveUnavailable`] when the scan needs the
    /// archive and the object store cannot serve it: a partial log would
    /// silently drop acked records from a subscriber's replay.
    pub fn scan(
        &self,
        color: ColorId,
        from: SeqNum,
    ) -> Result<Vec<CommittedRecord>, StorageError> {
        self.scan_capped(color, from, usize::MAX)
    }

    /// Like [`StorageServer::scan`] but returns at most `cap` records (in
    /// SN order, so the caller can resume above the last one). Subscription
    /// push pumps run inside the replica's event loop; the cap bounds the
    /// work one pump steals from the append path, and the `get` path keeps
    /// a fan-out of subscribers on the same color hitting the DRAM cache.
    pub fn scan_capped(
        &self,
        color: ColorId,
        from: SeqNum,
        cap: usize,
    ) -> Result<Vec<CommittedRecord>, StorageError> {
        let (sns, head): (Vec<SeqNum>, Option<SeqNum>) = {
            let stripe = self.stripe_of(color).lock();
            let head = stripe.heads.get(&color).copied();
            let sns = match stripe.committed.get(&color) {
                Some(m) => m
                    .range((
                        std::ops::Bound::Excluded(from),
                        std::ops::Bound::Unbounded,
                    ))
                    .take(cap)
                    .map(|(&sn, _)| sn)
                    .collect(),
                None => Vec::new(),
            };
            (sns, head)
        };
        let live: Vec<CommittedRecord> = sns
            .into_iter()
            .filter_map(|sn| {
                self.get(color, sn)
                    .map(|payload| CommittedRecord { sn, payload })
            })
            .collect();
        // The archive only holds records at or below the trim head, so a
        // scan starting at or above it is served entirely by the live span.
        if self.config.tier.is_none() || head.is_none_or(|h| from >= h) {
            return Ok(live);
        }
        let archived = self.archived_scan(color, from, cap)?;
        if archived.is_empty() {
            return Ok(live);
        }
        // Merge the two SN-sorted runs. An SN present in both (archived
        // before the trim dropped it) yields one record; the bytes are
        // identical by construction, live wins arbitrarily.
        let mut out = Vec::new();
        let mut a = archived.into_iter().peekable();
        let mut l = live.into_iter().peekable();
        while out.len() < cap {
            match (a.peek(), l.peek()) {
                (Some(x), Some(y)) if x.sn < y.sn => out.push(a.next().unwrap()),
                (Some(x), Some(y)) if x.sn > y.sn => out.push(l.next().unwrap()),
                (Some(_), Some(_)) => {
                    a.next();
                    out.push(l.next().unwrap());
                }
                (Some(_), None) => out.push(a.next().unwrap()),
                (None, Some(_)) => out.push(l.next().unwrap()),
                (None, None) => break,
            }
        }
        Ok(out)
    }

    /// The committed records of `color` picked by `select`, in SN order,
    /// each with its append token — the one token-carrying reader behind
    /// every state transfer (§6.3 sync, read-replica follow, migration
    /// copy) and the multi-color append's search for a function's staged
    /// sets. Reads PM/SSD directly: bulk copies must not churn the DRAM
    /// cache. An `Above` scan runs inside the replica's single-threaded
    /// event loop and blocks appends for its duration, hence the `limit`.
    pub fn fetch(&self, color: ColorId, select: &FetchSelect) -> Vec<(Token, SeqNum, Payload)> {
        let placed: Vec<(SeqNum, bool)> = {
            let stripe = self.stripe_of(color).lock();
            let Some(m) = stripe.committed.get(&color) else {
                return Vec::new();
            };
            match select {
                FetchSelect::Above { sn, limit } => m
                    .range((std::ops::Bound::Excluded(*sn), std::ops::Bound::Unbounded))
                    .take(usize::try_from(*limit).unwrap_or(usize::MAX))
                    .map(|(&sn, &on_ssd)| (sn, on_ssd))
                    .collect(),
                FetchSelect::Exact(sns) => sns
                    .iter()
                    .filter_map(|sn| m.get(sn).map(|&on_ssd| (*sn, on_ssd)))
                    .collect(),
            }
        };
        placed
            .into_iter()
            .filter_map(|(sn, on_ssd)| {
                let raw = self.raw_record(color, sn, on_ssd)?;
                let token = Token(u64::from_le_bytes(raw[..8].try_into().unwrap()));
                Some((token, sn, Payload::from(raw[8..].to_vec())))
            })
            .collect()
    }

    /// The stored bytes (token ‖ payload) of a committed record. Probes the
    /// tier the index named first but falls back to the other: a
    /// concurrent spill may move the record between the index lookup and
    /// this read.
    fn raw_record(&self, color: ColorId, sn: SeqNum, on_ssd: bool) -> Option<Vec<u8>> {
        let pm = || self.pool.get(committed_key(color, sn));
        let ssd = || self.ssd.read_block(ssd_block_id(color, sn)).ok();
        if on_ssd {
            ssd().or_else(pm)
        } else {
            pm().or_else(ssd)
        }
    }

    /// Directly installs a committed record fetched from a peer during the
    /// sync-phase (§6.3), bypassing the staging path. Durable on return;
    /// idempotent per (color, sn).
    pub fn import(
        &self,
        color: ColorId,
        sn: SeqNum,
        token: Token,
        payload: &Payload,
    ) -> Result<bool, StorageError> {
        {
            let stripe = self.stripe_of(color).lock();
            if stripe.heads.get(&color).is_some_and(|&h| sn <= h) {
                return Ok(false); // already trimmed here
            }
            if stripe.committed.get(&color).is_some_and(|m| m.contains_key(&sn)) {
                return Ok(false);
            }
        }
        let mut value = Vec::with_capacity(8 + payload.len());
        value.extend_from_slice(&token.0.to_le_bytes());
        value.extend_from_slice(payload);
        self.pool.put(committed_key(color, sn), &value)?;
        self.stripe_of(color)
            .lock()
            .committed
            .entry(color)
            .or_default()
            .insert(sn, false);
        {
            let mut idx = self.tokens.lock();
            let e = idx.committed_tokens.entry(token).or_insert((color, sn));
            if sn > e.1 {
                *e = (color, sn);
            }
        }
        self.pm_live_bytes.fetch_add(value.len(), Ordering::Relaxed);
        self.cache_of(color, sn).lock().put((color, sn), payload.clone());
        self.maybe_spill()?;
        Ok(true)
    }

    /// Bulk-installs migration catch-up records directly on the SSD tier.
    /// Cold history shipped by pre-freeze catch-up rounds must not evict
    /// the destination's PM headroom (its hot append path lives there) nor
    /// pollute its DRAM cache — importing a whole span through
    /// [`StorageServer::import`] pins the destination at the spill
    /// watermark and puts synchronous SSD spills on the commit path of
    /// every subsequent append. Durable after a single fsync; idempotent
    /// per (color, sn). Returns how many records were newly installed.
    pub fn import_cold(
        &self,
        color: ColorId,
        records: &[(Token, SeqNum, Payload)],
    ) -> Result<u64, StorageError> {
        let fresh: Vec<&(Token, SeqNum, Payload)> = {
            let stripe = self.stripe_of(color).lock();
            let head = stripe.heads.get(&color).copied();
            let committed = stripe.committed.get(&color);
            records
                .iter()
                .filter(|(_, sn, _)| {
                    head.is_none_or(|h| *sn > h)
                        && !committed.is_some_and(|m| m.contains_key(sn))
                })
                .collect()
        };
        if fresh.is_empty() {
            return Ok(0);
        }
        for (token, sn, payload) in &fresh {
            let mut value = Vec::with_capacity(8 + payload.len());
            value.extend_from_slice(&token.0.to_le_bytes());
            value.extend_from_slice(payload);
            self.ssd.write_block(ssd_block_id(color, *sn), &value);
        }
        self.ssd.fsync();
        {
            let mut stripe = self.stripe_of(color).lock();
            let m = stripe.committed.entry(color).or_default();
            for (_, sn, _) in &fresh {
                m.insert(*sn, true);
            }
        }
        {
            let mut idx = self.tokens.lock();
            for (token, sn, _) in &fresh {
                let e = idx.committed_tokens.entry(*token).or_insert((color, *sn));
                if *sn > e.1 {
                    *e = (color, *sn);
                }
            }
        }
        Ok(fresh.len() as u64)
    }

    /// The SNs of every committed record of `color` above `from`, cheapest
    /// possible form (no payload reads). Serves the freeze-window digest
    /// check of a migration: the catch-up watermark can step over a
    /// commit-order hole that fills later, so the control plane diffs
    /// source and destination SN sets instead of trusting counts.
    pub fn committed_sns(&self, color: ColorId, from: SeqNum) -> Vec<SeqNum> {
        let stripe = self.stripe_of(color).lock();
        match stripe.committed.get(&color) {
            Some(m) => m
                .range((std::ops::Bound::Excluded(from), std::ops::Bound::Unbounded))
                .map(|(&sn, _)| sn)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Trims every record of `color` with `sn <= up_to` and durably
    /// advances the head; returns the new `[head, tail]` pair (the Trim
    /// protocol's reply, §6.2).
    ///
    /// Without a cold tier this deletes the records outright. With one,
    /// trim is **archive-then-drop**: the prefix is first sealed into
    /// segments and uploaded, and only records covered by a durably acked
    /// segment are released from PM/SSD. If an upload fails mid-round the
    /// un-acked suffix stays live (and readable) until a later trim
    /// retries — history is never lost to a store outage. The round runs
    /// under the `archive_gate` so concurrent trims and policy-driven
    /// archive rounds cannot interleave their upload/drop two-steps.
    pub fn trim(
        &self,
        color: ColorId,
        up_to: SeqNum,
    ) -> Result<(Option<SeqNum>, Option<SeqNum>), StorageError> {
        {
            // A color never appended to (no committed records, no prior
            // trim) has nothing to trim: do NOT fabricate a head entry, or
            // the stripe map gains a phantom color that shows up in scans
            // of per-color state forever after.
            let stripe = self.stripe_of(color).lock();
            let no_records = stripe.committed.get(&color).is_none_or(|m| m.is_empty());
            if no_records && !stripe.heads.contains_key(&color) {
                return Ok((None, None));
            }
        }
        let Some(tier) = self.config.tier.clone() else {
            return self.drop_prefix(color, up_to);
        };
        let _gate = self.archive_gate.lock();
        match self.archive_records(&tier, color, Some(up_to), 0, u64::MAX) {
            ArchiveOutcome::Complete(_) => self.drop_prefix(color, up_to),
            ArchiveOutcome::Partial { durable: Some(boundary), .. } => {
                // The store stopped acking mid-round: drop only the prefix
                // it durably holds. The head therefore lands below `up_to`;
                // the protocol reply reflects that and a later trim retries
                // the rest.
                if boundary == SeqNum::ZERO {
                    Ok((self.head(color), self.tail(color)))
                } else {
                    self.drop_prefix(color, boundary.min(up_to))
                }
            }
            ArchiveOutcome::Partial { durable: None, .. } => {
                // Even the manifest was unreadable — the durable boundary
                // is unknown, so nothing may be dropped.
                Ok((self.head(color), self.tail(color)))
            }
        }
    }

    /// Deletes every record of `color` with `sn <= up_to` and durably
    /// advances the head — the tier-less trim, and the drop half of
    /// archive-then-drop. Also prunes the token-idempotence map of
    /// entries whose whole batch is now behind the head, so the map's size
    /// tracks the live log rather than its entire history.
    fn drop_prefix(
        &self,
        color: ColorId,
        up_to: SeqNum,
    ) -> Result<(Option<SeqNum>, Option<SeqNum>), StorageError> {
        let victims: Vec<(SeqNum, bool)> = {
            let stripe = self.stripe_of(color).lock();
            match stripe.committed.get(&color) {
                Some(m) => m
                    .range(..=up_to)
                    .map(|(&sn, &on_ssd)| (sn, on_ssd))
                    .collect(),
                None => Vec::new(),
            }
        };
        let mut tx = self.pool.begin();
        let mut freed = 0usize;
        for &(sn, on_ssd) in &victims {
            if on_ssd {
                self.ssd.delete_block(ssd_block_id(color, sn));
            } else {
                if let Some(v) = self.pool.get(committed_key(color, sn)) {
                    freed += v.len();
                }
                tx.delete(committed_key(color, sn));
            }
        }
        tx.put(head_key(color), &up_to.0.to_le_bytes());
        tx.commit()?;
        self.ssd.fsync();
        for &(sn, _) in &victims {
            self.cache_of(color, sn).lock().remove(&(color, sn));
        }
        let (head, tail) = {
            let mut stripe = self.stripe_of(color).lock();
            if let Some(m) = stripe.committed.get_mut(&color) {
                for &(sn, _) in &victims {
                    m.remove(&sn);
                }
            }
            let prev = stripe.heads.get(&color).copied().unwrap_or(SeqNum::ZERO);
            let new_head = up_to.max(prev);
            stripe.heads.insert(color, new_head);
            let head = stripe.heads.get(&color).copied();
            let tail = stripe.committed.get(&color).and_then(|m| m.keys().last().copied());
            (head, tail)
        };
        // Prune the idempotence map: a token whose batch ended at or below
        // the new head can never be re-acked with a live SN again — a late
        // duplicate of it would target trimmed records, which `stage`
        // re-admits harmlessly and `get` filters via the head. Without this
        // the map grows with every append ever made (unbounded memory).
        if let Some(new_head) = head {
            let mut idx = self.tokens.lock();
            idx.committed_tokens
                .retain(|_, &mut (c, sn)| c != color || sn > new_head);
        }
        self.pm_live_bytes
            .fetch_sub(freed.min(self.pm_live_bytes.load(Ordering::Relaxed)), Ordering::Relaxed);
        Ok((head, tail))
    }

    /// One archive round: seals committed records of `color` above the
    /// manifest's durable boundary (and `<= limit`, when given) into
    /// segments and uploads them. For policy rounds (`limit == None`) the
    /// newest `keep_tail` candidates stay hot and at most `max_records`
    /// move. The caller holds the `archive_gate`.
    ///
    /// Idempotent across replicas and crashes: every replica derives the
    /// same chunk boundaries from the same shared manifest state, so
    /// re-uploads write byte-identical objects under the same keys.
    fn archive_records(
        &self,
        tier: &TierConfig,
        color: ColorId,
        limit: Option<SeqNum>,
        keep_tail: u64,
        max_records: u64,
    ) -> ArchiveOutcome {
        let cached = self.archive.lock().manifests.get(&color).cloned();
        let mut manifest = match cached {
            Some(m) => m,
            None => match Manifest::load(tier.store.as_ref(), color) {
                Ok(m) => m,
                Err(_) => {
                    self.stats.archive_failures.fetch_add(1, Ordering::Relaxed);
                    return ArchiveOutcome::Partial { archived: 0, durable: None };
                }
            },
        };
        let boundary = manifest.archived_up_to().unwrap_or(SeqNum::ZERO);
        // A policy round may already have archived past this trim's cut:
        // everything at or below `limit` is durable in the store, so the
        // round has nothing to seal (and the range below would invert).
        if limit.is_some_and(|l| l <= boundary) {
            self.archive.lock().manifests.insert(color, manifest);
            return ArchiveOutcome::Complete(0);
        }
        let mut candidates: Vec<(SeqNum, bool)> = {
            let stripe = self.stripe_of(color).lock();
            match stripe.committed.get(&color) {
                Some(m) => {
                    let upper = match limit {
                        Some(l) => std::ops::Bound::Included(l),
                        None => std::ops::Bound::Unbounded,
                    };
                    m.range((std::ops::Bound::Excluded(boundary), upper))
                        .map(|(&sn, &on_ssd)| (sn, on_ssd))
                        .collect()
                }
                None => Vec::new(),
            }
        };
        if limit.is_none() {
            let keep = keep_tail.min(candidates.len() as u64) as usize;
            candidates.truncate(candidates.len() - keep);
            if candidates.len() as u64 > max_records {
                candidates.truncate(max_records as usize);
            }
        }
        let mut archived = 0u64;
        for group in candidates.chunks(tier.segment_records.max(1)) {
            let mut records = Vec::with_capacity(group.len());
            for &(sn, on_ssd) in group {
                let Some(raw) = self.raw_record(color, sn, on_ssd) else { continue };
                records.push(CommittedRecord {
                    sn,
                    payload: Payload::from(raw[8..].to_vec()),
                });
            }
            if records.is_empty() {
                continue;
            }
            let seg = Segment::seal(color, records);
            if tier.store.put(&seg.key(), &seg.encode()).is_err() {
                self.stats.archive_failures.fetch_add(1, Ordering::Relaxed);
                let durable = manifest.archived_up_to();
                self.archive.lock().manifests.insert(color, manifest);
                return ArchiveOutcome::Partial { archived, durable };
            }
            let n = seg.records.len() as u64;
            self.stats.archived_segments.fetch_add(1, Ordering::Relaxed);
            self.stats.archived_records.fetch_add(n, Ordering::Relaxed);
            archived += n;
            manifest.push(seg.meta());
        }
        if archived > 0 {
            // The manifest object is a fast path only — on failure the next
            // load rebuilds it from the listing, which the segment puts
            // above already made authoritative.
            if manifest.store(tier.store.as_ref(), color).is_err() {
                self.stats.archive_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.archive.lock().manifests.insert(color, manifest);
        ArchiveOutcome::Complete(archived)
    }

    /// Policy actuator: archives the cold prefix of `color` (all but the
    /// newest `keep_tail` records, at most `max_records` this round), then
    /// releases the durably covered prefix from PM/SSD. Returns how many
    /// records this round newly archived. A no-op without a cold tier.
    pub fn archive_prefix(
        &self,
        color: ColorId,
        keep_tail: u64,
        max_records: u64,
    ) -> Result<u64, StorageError> {
        let Some(tier) = self.config.tier.clone() else {
            return Ok(0);
        };
        let _gate = self.archive_gate.lock();
        let (archived, durable) =
            match self.archive_records(&tier, color, None, keep_tail, max_records) {
                ArchiveOutcome::Complete(n) => {
                    let durable = self
                        .archive
                        .lock()
                        .manifests
                        .get(&color)
                        .and_then(|m| m.archived_up_to());
                    (n, durable)
                }
                ArchiveOutcome::Partial { archived, durable } => (archived, durable),
            };
        if let Some(boundary) = durable {
            // Skip the PM transaction when the head already covers the
            // boundary (steady-state policy ticks with nothing new).
            if self.head(color).is_none_or(|h| h < boundary) {
                self.drop_prefix(color, boundary)?;
            }
        }
        Ok(archived)
    }

    /// Deletes every committed record of `color` across all tiers — the
    /// roll-back of a partially imported migration on its destination.
    /// Unlike [`StorageServer::trim`] the head is KEPT (heads only ever
    /// advance; a later re-migration re-installs the source's head anyway
    /// and an orphaned head is harmless). Idempotent: a repeat discard
    /// finds nothing and returns 0. Returns the record count removed.
    pub fn discard_color(&self, color: ColorId) -> Result<u64, StorageError> {
        let victims: Vec<(SeqNum, bool)> = {
            let stripe = self.stripe_of(color).lock();
            match stripe.committed.get(&color) {
                Some(m) => m.iter().map(|(&sn, &on_ssd)| (sn, on_ssd)).collect(),
                None => Vec::new(),
            }
        };
        if victims.is_empty() {
            return Ok(0);
        }
        let mut tx = self.pool.begin();
        let mut freed = 0usize;
        for &(sn, on_ssd) in &victims {
            if on_ssd {
                self.ssd.delete_block(ssd_block_id(color, sn));
            } else {
                if let Some(v) = self.pool.get(committed_key(color, sn)) {
                    freed += v.len();
                }
                tx.delete(committed_key(color, sn));
            }
        }
        tx.commit()?;
        self.ssd.fsync();
        for &(sn, _) in &victims {
            self.cache_of(color, sn).lock().remove(&(color, sn));
        }
        self.stripe_of(color).lock().committed.remove(&color);
        // The discarded records' tokens must not re-ack as committed: the
        // append never happened as far as the log is concerned, and the
        // client's retry must go through the real (source) shard.
        self.tokens
            .lock()
            .committed_tokens
            .retain(|_, &mut (c, _)| c != color);
        self.pm_live_bytes
            .fetch_sub(freed.min(self.pm_live_bytes.load(Ordering::Relaxed)), Ordering::Relaxed);
        Ok(victims.len() as u64)
    }

    /// Highest committed SN of `color` on this replica.
    pub fn tail(&self, color: ColorId) -> Option<SeqNum> {
        self.stripe_of(color)
            .lock()
            .committed
            .get(&color)
            .and_then(|m| m.keys().last().copied())
    }

    /// Highest trimmed SN of `color` (inclusive), if any trim happened.
    pub fn head(&self, color: ColorId) -> Option<SeqNum> {
        self.stripe_of(color).lock().heads.get(&color).copied()
    }

    /// Durably installs a trim head without deleting anything (migration
    /// span transfer: the destination must not serve records the source
    /// had already trimmed). Never moves an existing head backwards.
    pub fn install_head(&self, color: ColorId, head: SeqNum) -> Result<(), StorageError> {
        {
            let stripe = self.stripe_of(color).lock();
            if stripe.heads.get(&color).is_some_and(|&h| head <= h) {
                return Ok(());
            }
        }
        let mut tx = self.pool.begin();
        tx.put(head_key(color), &head.0.to_le_bytes());
        tx.commit()?;
        self.stripe_of(color).lock().heads.insert(color, head);
        Ok(())
    }

    /// Bytes of committed payload currently resident in PM (the
    /// autoscaler's per-shard memory-pressure signal).
    pub fn pm_live_bytes(&self) -> usize {
        self.pm_live_bytes.load(Ordering::Relaxed)
    }

    /// Highest committed SN across *all* colors (failure-recovery sync
    /// state, §6.3).
    pub fn max_committed_sn(&self) -> Option<SeqNum> {
        self.stripes
            .iter()
            .flat_map(|s| {
                s.lock()
                    .committed
                    .values()
                    .filter_map(|m| m.keys().last().copied())
                    .collect::<Vec<_>>()
            })
            .max()
    }

    /// Tokens staged but not yet committed (re-issued as OReqs after
    /// recovery, §6.3) together with their color and batch size.
    pub fn staged_tokens(&self) -> Vec<(Token, ColorId, usize)> {
        let staged: Vec<(Token, ColorId)> = {
            let idx = self.tokens.lock();
            idx.staged.iter().map(|(&t, &c)| (t, c)).collect()
        };
        staged
            .into_iter()
            .map(|(t, c)| {
                let batch = self
                    .pool
                    .get(staged_key(t))
                    .map(|v| decode_staged(&v).payloads.len())
                    .unwrap_or(0);
                (t, c, batch)
            })
            .collect()
    }

    /// The SN a committed token's batch ended at, if committed.
    pub fn committed_sn(&self, token: Token) -> Option<SeqNum> {
        self.tokens.lock().committed_tokens.get(&token).map(|&(_, sn)| sn)
    }

    /// True if `token` is staged (or mid-commit) but not yet committed.
    pub fn is_staged(&self, token: Token) -> bool {
        let idx = self.tokens.lock();
        idx.staged.contains_key(&token) || idx.committing.contains(&token)
    }

    /// Number of entries in the token-idempotence map (bounded-memory
    /// check: trims must shrink this).
    pub fn committed_token_count(&self) -> usize {
        self.tokens.lock().committed_tokens.len()
    }

    /// Number of committed records of `color` on this replica.
    pub fn record_count(&self, color: ColorId) -> usize {
        self.stripe_of(color)
            .lock()
            .committed
            .get(&color)
            .map_or(0, |m| m.len())
    }

    /// Number of committed records currently resident on the SSD tier.
    pub fn ssd_resident(&self, color: ColorId) -> usize {
        self.stripe_of(color)
            .lock()
            .committed
            .get(&color)
            .map_or(0, |m| m.values().filter(|&&s| s).count())
    }

    /// Drops every DRAM-cache entry (tier tests force cold reads with it).
    pub fn clear_cache(&self) {
        for c in self.caches.iter() {
            c.lock().clear();
        }
    }

    /// Aggregated DRAM-cache counters across all cache stripes.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in self.caches.iter() {
            let s = c.lock().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// The underlying devices (crash injection).
    pub fn devices(&self) -> (Arc<PmDevice>, Arc<SsdDevice>) {
        (Arc::clone(self.pool.device()), Arc::clone(&self.ssd))
    }

    /// The server's configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Attaches the owning replica's identity so `StorageCommit` trace
    /// events carry the right node (called once at replica start-up).
    pub fn set_node(&self, node: u64) {
        self.node.store(node, Ordering::Relaxed);
    }

    /// The shared observability handle this server reports into.
    pub fn obs(&self) -> &ObsHandle {
        &self.config.obs
    }

    /// Spills the oldest committed PM-resident records to SSD when live PM
    /// bytes exceed the watermark ("a contiguous portion from the start of
    /// the log is flushed to SSD and removed from PM", §5.2). The safety
    /// back-stop under the tiering policy's `demote` action: it walks the
    /// colors and demotes their oldest PM-resident records, a batch at a
    /// time.
    fn maybe_spill(&self) -> Result<(), StorageError> {
        if self.pm_live_bytes.load(Ordering::Relaxed) <= self.config.pm_watermark {
            return Ok(());
        }
        let _gate = self.spill_gate.lock();
        while self.pm_live_bytes.load(Ordering::Relaxed) > self.config.pm_watermark {
            // One stripe lock at a time (never two).
            let colors: Vec<ColorId> = self
                .stripes
                .iter()
                .flat_map(|stripe| stripe.lock().committed.keys().copied().collect::<Vec<_>>())
                .collect();
            // One batch may span colors: a pass over an all-spilled color
            // costs O(its records), so it must not end the round empty.
            let mut victims = Vec::with_capacity(SPILL_BATCH);
            for color in colors {
                victims.extend(self.oldest_pm_resident(color, SPILL_BATCH - victims.len()));
                if victims.len() == SPILL_BATCH {
                    break;
                }
            }
            if victims.is_empty() {
                return Ok(());
            }
            self.spill_victims(&victims)?;
        }
        Ok(())
    }

    /// The placement victim selector: up to `max` of `color`'s oldest
    /// PM-resident records.
    fn oldest_pm_resident(&self, color: ColorId, max: usize) -> Vec<(ColorId, SeqNum)> {
        let stripe = self.stripe_of(color).lock();
        stripe.committed.get(&color).map_or_else(Vec::new, |m| {
            m.iter()
                .filter(|&(_, &on_ssd)| !on_ssd)
                .take(max)
                .map(|(&sn, _)| (color, sn))
                .collect()
        })
    }

    /// The SSD-copy → fsync → PM-delete two-step moving the given
    /// PM-resident records down a tier. Callers hold the spill gate.
    fn spill_victims(&self, victims: &[(ColorId, SeqNum)]) -> Result<(), StorageError> {
        // 1. Copy to SSD and fsync...
        for &(color, sn) in victims {
            if let Some(v) = self.pool.get(committed_key(color, sn)) {
                self.ssd.write_block(ssd_block_id(color, sn), &v);
            }
        }
        self.ssd.fsync();
        // 2. ...only then remove from PM (crash between the two steps
        // duplicates records across tiers; never loses them).
        let mut freed = 0usize;
        let mut tx = self.pool.begin();
        for &(color, sn) in victims {
            if let Some(v) = self.pool.get(committed_key(color, sn)) {
                freed += v.len();
            }
            tx.delete(committed_key(color, sn));
        }
        tx.commit()?;
        for &(color, sn) in victims {
            let mut stripe = self.stripe_of(color).lock();
            if let Some(m) = stripe.committed.get_mut(&color) {
                if let Some(slot) = m.get_mut(&sn) {
                    *slot = true;
                }
            }
        }
        self.pm_live_bytes
            .fetch_sub(freed.min(self.pm_live_bytes.load(Ordering::Relaxed)), Ordering::Relaxed);
        self.stats
            .spilled_records
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Policy actuator: demotes up to `max_records` of `color`'s oldest
    /// PM-resident records to the SSD, regardless of the global
    /// `pm_watermark` — the declarative `demote` action's landing point,
    /// replacing per-workload tuning of the spill heuristics. Returns how
    /// many records moved.
    pub fn demote_color(&self, color: ColorId, max_records: u64) -> Result<u64, StorageError> {
        let _gate = self.spill_gate.lock();
        let victims =
            self.oldest_pm_resident(color, usize::try_from(max_records).unwrap_or(usize::MAX));
        if victims.is_empty() {
            return Ok(0);
        }
        self.spill_victims(&victims)?;
        Ok(victims.len() as u64)
    }
}

fn encode_staged(color: ColorId, payloads: &[Payload]) -> Vec<u8> {
    let total: usize = payloads.iter().map(|p| p.len() + 4).sum();
    let mut v = Vec::with_capacity(8 + total);
    v.extend_from_slice(&color.0.to_le_bytes());
    v.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for p in payloads {
        v.extend_from_slice(&(p.len() as u32).to_le_bytes());
        v.extend_from_slice(p);
    }
    v
}

fn decode_staged(v: &[u8]) -> StagedBatch {
    let color = ColorId(u32::from_le_bytes(v[0..4].try_into().unwrap()));
    let count = u32::from_le_bytes(v[4..8].try_into().unwrap()) as usize;
    let mut payloads = Vec::with_capacity(count);
    let mut off = 8;
    for _ in 0..count {
        let len = u32::from_le_bytes(v[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        payloads.push(Payload::from(v[off..off + len].to_vec()));
        off += len;
    }
    StagedBatch { color, payloads }
}

#[cfg(test)]
mod tests;
