//! The tiered storage server of a FlexLog replica.
//!
//! Implements §5.2's storage stack plus the staging half of Algorithm 1:
//!
//! * [`StorageServer::write`] is a replica wake's one PM transaction: it
//!   durably stages the wake's new append batches under their client tokens
//!   before any SN exists ("persist(records[], t)") and moves the batches
//!   the ordering layer has answered into the committed, SN-indexed log —
//!   atomically, so a crash never leaves a batch half-committed or a wake
//!   half-applied. A batch staged and ordered in the same call is written
//!   once, as its committed records. This mirrors the sequencer's
//!   aggregation window at the data layer. [`StorageServer::stage`],
//!   [`StorageServer::commit`] and [`StorageServer::commit_many`] are the
//!   call with one side empty;
//! * reads probe **DRAM cache → PM → SSD → archive**; appended records are
//!   inserted into the cache, archive read-throughs deliberately are NOT
//!   (a replay-from-genesis scan must not evict the hot working set — the
//!   archive keeps a one-segment read buffer per color instead);
//! * when live PM bytes exceed the configured watermark, the PM-resident
//!   records that landed first — across colors, in the order they were
//!   committed or imported — are spilled to the SSD tier (fsync before the
//!   PM delete, so a crash can duplicate a record across tiers but never
//!   lose it; recovery finishes the interrupted move). That is the order the
//!   PM pool wrote them in, so its oldest segment dies whole;
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
//! The per-color bookkeeping lives in `color_log.rs` and the device layout
//! (keys, block ids, value formats) in `codec.rs`; this file moves the
//! bytes.
//!
//! # Locking
//!
//! A server has exactly one mutating thread — its replica's (or read
//! replica's) run loop — and every other holder of the handle reads a
//! gauge. So all mutable state is one [`State`] behind one mutex: each
//! public method locks once at entry and hands `&mut State` to private
//! helpers, none of which locks. A stage, commit, spill, trim or archive
//! round is therefore atomic with respect to every other call, and no
//! lock-order rule exists to break. The PM pool and the SSD have internal
//! locks of their own, below this one.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

use flexlog_obs::{Counter, Histogram, ObsHandle, Stage};
use flexlog_pm::{ClockMode, DeviceClock, LatencyModel, PmDevice, PmDeviceConfig, PmPool, PoolError, SsdDevice, Tx};
use flexlog_tier::{fetch_segment, Manifest, ObjectStore, Segment, SegmentMeta};
use flexlog_types::{Batch, ColorId, CommittedRecord, FastMap, FastState, Payload, SeqNum, Token};

use crate::codec::{self, StagedBatch};
use crate::color_log::{above, ColorLog, Placement};
use crate::LruCache;

/// DRAM access cost charged on a cache hit, in nanoseconds.
const DRAM_NS: u64 = 80;

/// Records moved per watermark spill round.
const SPILL_BATCH: usize = 64;

/// Entries the spill order may hold before its first compaction.
const MIN_COMPACT_AT: usize = 1024;

/// The SNs of an `n`-record batch whose last record got `sn_last`: the
/// preceding counters of the same epoch, oldest first.
fn batch_sns(sn_last: SeqNum, n: usize) -> impl Iterator<Item = SeqNum> {
    let n = n as u32;
    (0..n).map(move |i| SeqNum::new(sn_last.epoch(), sn_last.counter() - (n - 1 - i)))
}

/// Which committed records of a color [`StorageServer::fetch`] returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FetchSelect {
    /// Records strictly above `sn`, oldest first, at most `limit`
    /// (`u64::MAX` = unbounded) — the caller resumes above the last one.
    Above { sn: SeqNum, limit: u64 },
    /// Exactly these SNs; ones not held here are skipped.
    Exact(Vec<SeqNum>),
}

/// What one [`StorageServer::write`] did with each of its items,
/// index-aligned with its two inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Written {
    /// Per batch to stage: `Ok(true)` if this call staged it (or committed
    /// it outright), `Ok(false)` if it was staged or committed already or
    /// repeats an earlier item of the call.
    pub staged: Vec<Result<bool, StorageError>>,
    /// Per `(token, last SN)` to commit: `Ok(Some(color))` for a batch this
    /// call committed, `Ok(None)` for a token already committed (or
    /// repeated within the call), `Err(UnknownToken)` for one staged
    /// neither before nor by this call. A failing item never blocks its
    /// neighbours.
    pub committed: Vec<Result<Option<ColorId>, StorageError>>,
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
    /// DRAM cache budget in bytes (one LRU over every color).
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

/// Operation counters. Fields are registry-backed [`Counter`]s: each
/// server increments its own private atomics, and the shared registry
/// aggregates across servers under the `storage.*` names — which is where
/// readers outside this crate take them from.
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

/// Everything a server mutates, behind its one lock (see module docs).
struct State {
    /// The committed log of each color. Each also holds its committed
    /// tokens, so a trim prunes one color's map.
    logs: BTreeMap<ColorId, ColorLog>,
    /// Every record that landed in PM, in the order it landed: the
    /// watermark spill's victims, oldest first. Entries whose record has
    /// left PM since (demoted, trimmed, discarded) are skipped when they
    /// come up, and dropped when the queue outgrows `compact_at`.
    landed: VecDeque<(ColorId, SeqNum)>,
    /// Length of `landed` beyond which it is compacted: twice what it held
    /// after the last compaction, so each entry is looked at O(1) times.
    compact_at: usize,
    /// The DRAM tier: one LRU over `(color, SN)` keys.
    cache: LruCache<(ColorId, SeqNum)>,
    /// Batches staged but not yet committed, payloads in DRAM beside the
    /// PM copy, so a commit never reads the staged value back.
    staged: FastMap<Token, StagedBatch>,
    /// The lists one `write` call fills, kept for the next.
    scratch: WriteScratch,
    /// The spill's read buffer and its blocks' extents, kept for the next
    /// round.
    spill_buf: (Vec<u8>, Vec<(u128, usize)>),
    /// The records of the spill batch being gathered, so that one queued
    /// twice is taken once; empty between batches.
    spill_taken: HashSet<(ColorId, SeqNum), FastState>,
    /// Archive manifests, loaded from the store on a color's first archive
    /// probe.
    manifests: HashMap<ColorId, Arc<Manifest>>,
    /// One archived segment per color: the read buffer archive reads stream
    /// through instead of the DRAM cache, so a cold historical scan admits
    /// no record into the LRU and the hot working set stays resident.
    segments: HashMap<ColorId, Segment>,
    /// Bytes of staged and committed values resident in PM; every change
    /// goes through [`State::adjust_live`].
    pm_live_bytes: usize,
    /// Raw `NodeId` bits of the replica owning this server (0 until the
    /// replica attaches itself); stamps `StorageCommit` trace events.
    node: u64,
}

impl State {
    /// Nothing stored yet; the DRAM cache gets the full budget.
    fn new(config: &StorageConfig) -> Self {
        let evictions = config.obs.counter("storage.cache_evictions");
        State {
            logs: BTreeMap::new(),
            landed: VecDeque::new(),
            compact_at: MIN_COMPACT_AT,
            cache: LruCache::new(config.cache_capacity, evictions),
            staged: FastMap::default(),
            scratch: WriteScratch::default(),
            spill_buf: (Vec::new(), Vec::new()),
            spill_taken: HashSet::default(),
            manifests: HashMap::new(),
            segments: HashMap::new(),
            pm_live_bytes: 0,
            node: 0,
        }
    }

    /// `color`'s log, created on first use.
    fn log_mut(&mut self, color: ColorId) -> &mut ColorLog {
        self.logs.entry(color).or_default()
    }

    fn head(&self, color: ColorId) -> Option<SeqNum> {
        self.logs.get(&color).and_then(ColorLog::head)
    }

    /// True when `token`'s batch committed here, in `color` or — without
    /// one — in any color.
    fn committed(&self, token: Token, color: Option<ColorId>) -> bool {
        match color {
            Some(color) => self.logs.get(&color).is_some_and(|log| log.committed(token).is_some()),
            None => self.logs.values().any(|log| log.committed(token).is_some()),
        }
    }

    /// The one signed adjustment of `pm_live_bytes`. Saturating: a drifted
    /// counter must not wrap into a permanent spill.
    fn adjust_live(&mut self, delta: isize) {
        self.pm_live_bytes = self.pm_live_bytes.saturating_add_signed(delta);
    }

    fn in_pm(&self, color: ColorId, sn: SeqNum) -> bool {
        self.logs.get(&color).is_some_and(|log| log.in_pm(sn))
    }

    /// Notes records that just landed in PM — after the log indexed them —
    /// at the back of the spill order.
    fn note_landed(&mut self, records: impl IntoIterator<Item = (ColorId, SeqNum)>) {
        self.landed.extend(records);
        if self.landed.len() > self.compact_at {
            let mut landed = std::mem::take(&mut self.landed);
            landed.retain(|&(color, sn)| self.in_pm(color, sn));
            self.compact_at = (2 * landed.len()).max(MIN_COMPACT_AT);
            self.landed = landed;
        }
    }
}

/// What one `write` call lists as it goes, index-aligned with its inputs
/// where an index is named; empty between calls.
#[derive(Default)]
struct WriteScratch {
    /// Batches of the call admitted to the staged set: (stage index, token).
    admitted: Vec<(usize, Token)>,
    /// Stage items repeating an earlier admitted one.
    repeats: Vec<(usize, Token)>,
    /// Batches the call commits: (commit index, token, last SN, batch).
    taken: Vec<(usize, Token, SeqNum, StagedBatch)>,
    /// Records the call committed, for the spill order.
    landed: Vec<(ColorId, SeqNum)>,
    spans: Vec<(Token, Stage, u64, u64)>,
}

impl WriteScratch {
    fn clear(&mut self) {
        self.admitted.clear();
        self.repeats.clear();
        self.taken.clear();
        self.landed.clear();
        self.spans.clear();
    }
}

/// Result of one archive round (see `StorageServer::archive_records`).
struct ArchiveRound {
    /// Records newly uploaded this round.
    archived: u64,
    /// The highest SN covered by durably acked segments — the only prefix
    /// a trim may drop after an incomplete round — or `None` when nothing
    /// is archived or even the manifest was unreadable (drop nothing).
    durable: Option<SeqNum>,
    /// Every candidate record is covered; `false` when the round stopped
    /// early on a store failure.
    complete: bool,
}

/// Who holds a server's lock, for the `storage.lock_hold_ns.<holder>`
/// histograms: how long each kind of call keeps the replica's appends out.
#[derive(Clone, Copy)]
enum Holder {
    /// `write` (a replica wake), its spill included.
    Write,
    /// `archive_prefix`: one policy archive round.
    Archive,
    Trim,
    /// `scan` and `fetch`.
    Scan,
    /// `demote_color`.
    Demote,
}

impl Holder {
    const NAMES: [&'static str; 5] = ["write", "archive", "trim", "scan", "demote"];
}

/// The server's state, locked by a [`Holder`] whose hold time is recorded
/// when it lets go.
struct Held<'a> {
    state: MutexGuard<'a, State>,
    since: Instant,
    hold_ns: &'a Histogram,
}

impl Deref for Held<'_> {
    type Target = State;

    fn deref(&self) -> &State {
        &self.state
    }
}

impl DerefMut for Held<'_> {
    fn deref_mut(&mut self) -> &mut State {
        &mut self.state
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.hold_ns.record_ns(self.since.elapsed());
    }
}

/// See module docs.
pub struct StorageServer {
    pool: PmPool,
    ssd: Arc<SsdDevice>,
    state: Mutex<State>,
    clock: DeviceClock,
    config: StorageConfig,
    /// Public only for `bench/src/experiments/fig11.rs`, which models the
    /// busiest *single* replica of a multi-shard cluster — narrower than
    /// the registry's cluster-wide `storage.*` sums every other reader uses.
    pub stats: StorageStats,
    /// Wall-clock duration of each `write` call that commits a batch, from
    /// entry to its transaction published — the stage half of the same
    /// transaction included (a replica wake's one transaction stages and
    /// commits together). Calls that only stage are not recorded.
    commit_hist: Histogram,
    /// Wall-clock duration of each watermark spill round. `commit_ns` stops
    /// before the spill that the same `write` call goes on to make, so a
    /// commit's storage time is the sum of the two.
    spill_hist: Histogram,
    /// The pool's redo-log cost counters (`PoolStats`), in its field order,
    /// as `storage.pm_log_bytes` / `pm_reclaim_copied` / `pm_segments_freed`.
    pool_cost: [Counter; 3],
    /// Wall-clock time each [`Holder`] kept the lock, indexed by it.
    lock_hold: [Histogram; 5],
}

impl StorageServer {
    /// Builds a server over opened devices and the state found on them.
    fn assemble(pool: PmPool, ssd: Arc<SsdDevice>, config: StorageConfig, state: State) -> Self {
        StorageServer {
            pool,
            ssd,
            state: Mutex::new(state),
            clock: DeviceClock::new(config.clock),
            stats: StorageStats::registered(&config.obs),
            commit_hist: config.obs.histogram("storage.commit_ns"),
            spill_hist: config.obs.histogram("storage.spill_ns"),
            pool_cost: ["log_bytes", "reclaim_copied", "segments_freed"]
                .map(|name| config.obs.counter(&format!("storage.pm_{name}"))),
            lock_hold: Holder::NAMES.map(|name| config.obs.histogram(&format!("storage.lock_hold_ns.{name}"))),
            config,
        }
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
        let state = State::new(&config);
        Self::assemble(PmPool::create(pm), ssd, config, state)
    }

    /// Locks the state for `holder`.
    fn hold(&self, holder: Holder) -> Held<'_> {
        let state = self.state.lock();
        Held { state, since: Instant::now(), hold_ns: &self.lock_hold[holder as usize] }
    }

    /// Recovers a server from crashed devices: replays the PM pool, rebuilds
    /// the PM set, the staged batches and the tokens of every color, and
    /// counts the SSD-resident records (the SSD's own block index lists
    /// them). The DRAM cache starts cold. The order the PM records landed
    /// in is not on the devices: they queue for the spill in SN order.
    pub fn recover(pm: Arc<PmDevice>, ssd: Arc<SsdDevice>, config: StorageConfig) -> Self {
        let pool = PmPool::open(pm);
        let mut st = State::new(&config);
        let mut in_pm = Vec::new();
        for key in pool.keys() {
            let value = pool.get(key).expect("indexed key readable");
            match key & codec::TAG_MASK {
                codec::TAG_COMMITTED => {
                    let (color, sn) = codec::color_sn_of(key);
                    st.pm_live_bytes += value.len();
                    let log = st.log_mut(color);
                    log.insert(sn, Placement::Pm);
                    log.note_token(codec::record_token(&value), sn);
                    in_pm.push((sn, color));
                }
                codec::TAG_STAGED => {
                    st.pm_live_bytes += value.len();
                    st.staged.insert(codec::staged_token_of(key), codec::decode_staged(&value));
                }
                codec::TAG_HEAD => st
                    .log_mut(codec::head_color_of(key))
                    .advance_head(codec::decode_head(&value)),
                _ => {}
            }
        }
        // SSD-resident records. A crash between a spill's SSD fsync and its
        // PM delete leaves a record in both tiers: finish the move, so each
        // record has one placement and the PM copy is not leaked. A block at
        // or below the head (a crash between a trim's PM commit and its SSD
        // fsync brings those back) is held like any record an installed
        // head hides: reads refuse it and the next trim frees it.
        let mut tx = pool.begin();
        let mut moved: Vec<(ColorId, SeqNum, usize)> = Vec::new();
        for block in ssd.block_ids(.., usize::MAX) {
            let (color, sn) = codec::color_sn_of(block);
            let log = st.log_mut(color);
            if log.in_pm(sn) {
                let key = codec::committed_key(color, sn);
                moved.push((color, sn, pool.get(key).map_or(0, |v| v.len())));
                tx.delete(key);
            } else {
                log.insert(sn, Placement::Ssd);
            }
        }
        if tx.commit().is_ok() {
            for (color, sn, len) in moved {
                st.log_mut(color).mark_spilled(sn);
                st.pm_live_bytes -= len;
            }
        } else {
            // PM cannot take the deletes: the records stay PM-resident, and
            // the SSD copies go, so that each record has one placement.
            for (color, sn, _) in moved {
                ssd.delete_block(codec::ssd_block_id(color, sn));
            }
            ssd.fsync();
        }
        in_pm.sort_unstable();
        st.note_landed(in_pm.into_iter().map(|(sn, color)| (color, sn)));
        Self::assemble(pool, ssd, config, st)
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
        let mut written = self.write(&[(token, color, Batch::from(payloads))], &[]);
        written.staged.pop().expect("one item in, one out")
    }

    /// Commits a staged batch: `sn_last` is the SN of the batch's final
    /// record (the value the sequencer broadcast); earlier records of the
    /// batch get the preceding counters of the same epoch. Atomic and
    /// durable. Idempotent by token: `Ok(false)` for a repeat.
    pub fn commit(&self, token: Token, sn_last: SeqNum) -> Result<bool, StorageError> {
        let result = self.commit_many(&[(token, sn_last)]).pop().expect("one item in, one out");
        result.map(|color| color.is_some())
    }

    /// Commits several staged batches through **one** PM transaction; see
    /// [`Written::committed`] for the per-item results.
    pub fn commit_many(
        &self,
        items: &[(Token, SeqNum)],
    ) -> Vec<Result<Option<ColorId>, StorageError>> {
        self.write(&[], items).committed
    }

    /// A replica wake's storage work as **one** PM transaction — one
    /// redo-log append and one persist for all of it: stages the batches of
    /// `stage` (token, color, records) and commits the `(token, last SN)`
    /// pairs of `commit`, whose batches may have been staged by an earlier
    /// call or by this one. A batch this call stages and commits is written
    /// once, as committed records, and never as a staged value. Commits
    /// write from the staged payloads in DRAM, which are the batches of
    /// `stage` themselves, shared.
    ///
    /// Either every write of the call is durable or none is. Should the
    /// pool refuse the transaction — one batch longer than it takes any
    /// value, or too little room for all of them — the call falls back to
    /// one transaction per item, stages first, so that each item fails or
    /// lands on its own; the batches staged before stay staged, and a
    /// repeat of an item that failed reports the same error.
    pub fn write(&self, stage: &[(Token, ColorId, Batch)], commit: &[(Token, SeqNum)]) -> Written {
        let start = Instant::now();
        let st = &mut *self.hold(Holder::Write);
        let mut scratch = std::mem::take(&mut st.scratch);
        let written = self.write_locked(st, &mut scratch, start, stage, commit);
        scratch.clear();
        st.scratch = scratch;
        written
    }

    /// [`StorageServer::write`] with the lock held, its lists in `scratch`.
    fn write_locked(
        &self,
        st: &mut State,
        scratch: &mut WriteScratch,
        start: Instant,
        stage: &[(Token, ColorId, Batch)],
        commit: &[(Token, SeqNum)],
    ) -> Written {
        let WriteScratch { admitted, repeats, taken, landed, spans } = scratch;
        // Admit the new batches beside the staged ones, not yet in PM.
        let mut admitted_bytes = 0u64;
        let staged = stage
            .iter()
            .enumerate()
            .map(|(i, (token, color, payloads))| {
                let (token, color) = (*token, *color);
                if st.staged.contains_key(&token) || st.committed(token, Some(color)) {
                    if admitted.iter().any(|&(_, t)| t == token) {
                        repeats.push((i, token));
                    }
                    return Ok(false);
                }
                debug_assert!(!payloads.is_empty(), "staged batches are non-empty");
                admitted_bytes += payloads.iter().map(|p| p.len() as u64).sum::<u64>();
                st.staged.insert(token, StagedBatch { color, payloads: Arc::clone(payloads) });
                admitted.push((i, token));
                Ok(true)
            })
            .collect();
        // Take every batch this call commits out of the staged set.
        let committed = commit
            .iter()
            .enumerate()
            .map(|(i, &(token, sn_last))| match st.staged.remove(&token) {
                Some(batch) => {
                    debug_assert!(
                        sn_last.counter() as usize + 1 >= batch.payloads.len(),
                        "SN range must not underflow the epoch counter"
                    );
                    let color = batch.color;
                    taken.push((i, token, sn_last, batch));
                    Ok(Some(color))
                }
                // Committed before, or earlier in this call: first one wins.
                // A token not staged here has no known color, so every color
                // is asked.
                None if st.committed(token, None) || taken.iter().any(|t| t.1 == token) => {
                    Ok(None)
                }
                None => Err(StorageError::UnknownToken(token)),
            })
            .collect();
        let mut written = Written { staged, committed };
        if admitted.is_empty() && taken.is_empty() {
            return written;
        }

        // Every value goes into the transaction's buffer in place, and the
        // buffer is sized for all of them first.
        let is_admitted = |token: Token| admitted.iter().any(|&(_, t)| t == token);
        let record = Tx::RECORD_OVERHEAD;
        let mut tx = self.pool.begin();
        let mut bytes = 0;
        for (_, token, _, batch) in taken.iter() {
            bytes += if is_admitted(*token) { 0 } else { record };
            bytes += batch.payloads.iter().map(|p| record + codec::record_len(p)).sum::<usize>();
        }
        for (_, token) in admitted.iter() {
            bytes += st.staged.get(token).map_or(0, |b| record + codec::staged_len(&b.payloads));
        }
        tx.reserve(bytes);
        let mut live_delta = 0isize;
        for (_, token, sn_last, batch) in taken.iter() {
            // A batch this call admitted has no staged value in PM.
            if !is_admitted(*token) {
                tx.delete(codec::staged_key(*token));
                live_delta -= codec::staged_len(&batch.payloads) as isize;
            }
            for (sn, payload) in batch_sns(*sn_last, batch.payloads.len()).zip(&batch.payloads[..]) {
                live_delta += codec::record_len(payload) as isize;
                let key = codec::committed_key(batch.color, sn);
                tx.put_with(key, |buf| codec::write_record(buf, *token, payload));
            }
        }
        // What is admitted and not committed is what stays staged.
        for (_, token) in admitted.iter() {
            if let Some(batch) = st.staged.get(token) {
                live_delta += codec::staged_len(&batch.payloads) as isize;
                let key = codec::staged_key(*token);
                tx.put_with(key, |buf| codec::write_staged(buf, batch.color, &batch.payloads));
            }
        }
        if let Err(e) = tx.commit() {
            // Nothing of the call is durable: the batches staged before go
            // back, and the admitted ones come out again, to be retried.
            let mut retry_commit = Vec::new();
            for (i, token, sn_last, batch) in taken.drain(..) {
                st.staged.insert(token, batch);
                retry_commit.push((i, (token, sn_last)));
            }
            let retry_stage: Vec<_> = admitted
                .iter()
                .map(|&(i, token)| {
                    let StagedBatch { color, payloads } = st.staged.remove(&token).expect("admitted");
                    (i, (token, color, payloads))
                })
                .collect();
            // More than one item: retry each alone, so that one the pool
            // cannot take fails by itself.
            let split = retry_stage.len() + retry_commit.len() > 1;
            let alone = |st: &mut State, stage: &[(Token, ColorId, Batch)], commit: &[(Token, SeqNum)]| {
                let mut scratch = WriteScratch::default();
                self.write_locked(st, &mut scratch, Instant::now(), stage, commit)
            };
            let mut failed: Vec<(Token, StorageError)> = Vec::new();
            for (i, item) in retry_stage {
                let token = item.0;
                written.staged[i] = if split {
                    alone(st, &[item], &[]).staged.remove(0)
                } else {
                    Err(e.into())
                };
                if let Err(e) = written.staged[i] {
                    failed.push((token, e));
                }
            }
            for (i, item) in retry_commit {
                written.committed[i] = match failed.iter().find(|f| f.0 == item.0) {
                    // Its batch could not be staged: nothing to commit.
                    Some(&(_, e)) => Err(e),
                    None if split => alone(st, &[], &[item]).committed.remove(0),
                    None => Err(e.into()),
                };
                if let Err(e) = written.committed[i] {
                    failed.push((item.0, e));
                }
            }
            // A repeat within the call reports what its first item got.
            let failure = |token: Token| failed.iter().find(|f| f.0 == token).map(|f| f.1);
            for &(i, token) in repeats.iter() {
                if let Some(e) = failure(token) {
                    written.staged[i] = Err(e);
                }
            }
            for (result, &(token, _)) in written.committed.iter_mut().zip(commit) {
                if let (Ok(None), Some(e)) = (&*result, failure(token)) {
                    *result = Err(e);
                }
            }
            return written;
        }

        self.stats.stages.add(admitted.len() as u64);
        self.stats.bytes_appended.add(admitted_bytes);
        st.adjust_live(live_delta);
        if taken.is_empty() {
            return written;
        }

        // Publish: per-color logs and tokens, cache fills, the spill order.
        let (first, batches) = (taken[0].0, taken.len());
        for (_, token, sn_last, StagedBatch { color, payloads }) in taken.drain(..) {
            let log = st.logs.entry(color).or_default();
            log.note_token(token, sn_last);
            for (sn, payload) in batch_sns(sn_last, payloads.len()).zip(&payloads[..]) {
                log.insert(sn, Placement::Pm);
                // Zero-copy fill: the cache shares the staged batch's buffer.
                st.cache.put((color, sn), payload.clone());
                landed.push((color, sn));
            }
            spans.push((token, Stage::StorageCommit, st.node, color.0 as u64));
        }
        st.note_landed(landed.drain(..));
        self.stats.commits.add(batches as u64);
        self.commit_hist.record_ns(start.elapsed());
        self.config.obs.tracer().record_many(spans);
        if let Err(e) = self.maybe_spill(st) {
            // Spill failure does not undo the durable commits; surface it on
            // the first successful item so callers notice.
            written.committed[first] = Err(e);
        }
        written
    }

    /// Reads the record `(color, sn)` through the tier hierarchy.
    pub fn get(&self, color: ColorId, sn: SeqNum) -> Option<Payload> {
        self.get_traced(color, sn).map(|(v, _)| v)
    }

    /// Like [`StorageServer::get`] but also reports which tier hit.
    pub fn get_traced(&self, color: ColorId, sn: SeqNum) -> Option<(Payload, TierHit)> {
        self.read(&mut self.state.lock(), color, sn)
    }

    /// The tier walk behind `get_traced` and every record of a live scan.
    fn read(&self, st: &mut State, color: ColorId, sn: SeqNum) -> Option<(Payload, TierHit)> {
        self.stats.reads.inc();
        let served = |payload: Payload, hits: &Counter, hit: TierHit| {
            hits.inc();
            self.stats.bytes_read.add(payload.len() as u64);
            Some((payload, hit))
        };
        let live_at = {
            let log = st.logs.get_mut(&color)?;
            log.count_read(|| self.config.obs.counter(&format!("storage.color_reads.{}", color.0)));
            if log.trimmed(sn) {
                // At or below the trim head: only the archive may serve it
                // (the head filters live reads even when the bytes still
                // sit in PM — the `install_head` migration contract).
                None
            } else {
                Some(self.placement(log, color, sn)?)
            }
        };
        let Some(at) = live_at else {
            let payload = self.archive_get(st, color, sn)?;
            return served(payload, &self.stats.archive_hits, TierHit::Archive);
        };
        // Tier 1: DRAM cache (a hit returns the shared buffer, no copy).
        if let Some(v) = st.cache.get(&(color, sn)) {
            self.clock.consume(DRAM_NS);
            return served(v, &self.stats.cache_hits, TierHit::Cache);
        }
        self.stats.cache_misses.inc();
        // Tiers 2 and 3: PM, SSD.
        let (_, payload) = codec::decode_record(&self.raw_record(color, sn, at)?);
        st.cache.put((color, sn), payload.clone());
        match at {
            Placement::Pm => served(payload, &self.stats.pm_hits, TierHit::Pm),
            Placement::Ssd => served(payload, &self.stats.ssd_hits, TierHit::Ssd),
        }
    }

    /// Tier 4: the archive read-through. Serves `(color, sn)` from the
    /// segment covering it. Never touches the DRAM cache. Returns `None`
    /// without a cold tier, on a genuine hole (the SN was never archived)
    /// and on store failure (counted).
    fn archive_get(&self, st: &mut State, color: ColorId, sn: SeqNum) -> Option<Payload> {
        let tier = self.config.tier.as_ref()?;
        let manifest = self.archive_manifest(st, tier, color)?;
        let meta = manifest.segment_for(sn)?;
        self.with_segment(st, tier, color, meta, |seg| {
            let i = seg.records.binary_search_by_key(&sn, |r| r.sn).ok()?;
            Some(seg.records[i].payload.clone())
        })
        .ok()?
    }

    /// Runs `f` on the archived segment `meta` of `color`: the buffered
    /// copy when the buffer holds this segment, else fetched from the
    /// object store (counted) into the buffer first.
    fn with_segment<R>(
        &self,
        st: &mut State,
        tier: &TierConfig,
        color: ColorId,
        meta: &SegmentMeta,
        f: impl FnOnce(&Segment) -> R,
    ) -> Result<R, StorageError> {
        let buffered = st
            .segments
            .get(&color)
            .is_some_and(|seg| seg.base == meta.base && seg.last == meta.last);
        if !buffered {
            let Ok(Some(seg)) = fetch_segment(tier.store.as_ref(), color, meta) else {
                self.stats.archive_failures.inc();
                return Err(StorageError::ArchiveUnavailable);
            };
            self.stats.archive_fetches.inc();
            st.segments.insert(color, seg);
        }
        Ok(f(&st.segments[&color]))
    }

    /// Returns this color's manifest, loading it from the store on first
    /// use. Each replica archives and trims its own storage, and only under
    /// the server's lock, so its cached manifest always covers its own trim
    /// head — no staleness re-check is needed on a miss.
    fn archive_manifest(
        &self,
        st: &mut State,
        tier: &TierConfig,
        color: ColorId,
    ) -> Option<Arc<Manifest>> {
        if let Some(manifest) = st.manifests.get(&color) {
            return Some(Arc::clone(manifest));
        }
        let Ok(manifest) = Manifest::load(tier.store.as_ref(), color) else {
            self.stats.archive_failures.inc();
            return None;
        };
        Some(Arc::clone(st.manifests.entry(color).or_insert(Arc::new(manifest))))
    }

    /// Archived records of `color` with `from < sn <= head`, oldest first,
    /// at most `cap`. Streams through the archive buffer (never the DRAM
    /// cache). Errors when the store cannot serve a needed segment or
    /// manifest — the caller must fail the whole scan rather than serve a
    /// log with a hole where the archived prefix belongs.
    fn archived_scan(
        &self,
        st: &mut State,
        tier: &TierConfig,
        color: ColorId,
        from: SeqNum,
        head: SeqNum,
        cap: usize,
    ) -> Result<Vec<CommittedRecord>, StorageError> {
        let Some(manifest) = self.archive_manifest(st, tier, color) else {
            return Err(StorageError::ArchiveUnavailable);
        };
        let mut out: Vec<CommittedRecord> = Vec::new();
        for meta in manifest.segments.iter().filter(|m| m.last > from && m.base <= head) {
            if out.len() >= cap {
                break;
            }
            self.with_segment(st, tier, color, meta, |seg| {
                let wanted = seg.records.iter().filter(|r| r.sn > from && r.sn <= head);
                out.extend(wanted.take(cap - out.len()).cloned());
            })?;
        }
        self.stats.archive_hits.add(out.len() as u64);
        self.stats.bytes_read.add(out.iter().map(|r| r.payload.len() as u64).sum());
        Ok(out)
    }

    /// All committed records of `color` with `sn > from`, in SN order
    /// (serves Subscribe and recovery syncs). With a cold tier configured
    /// this includes archived history below the trim head, in front of the
    /// live span — replay-from-genesis sees every record. Errors with
    /// [`StorageError::ArchiveUnavailable`] when the scan needs the archive
    /// and the object store cannot serve it: a partial log would silently
    /// drop acked records from a subscriber's replay.
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
        let st = &mut *self.hold(Holder::Scan);
        // The trim head splits the scan the way it splits `get`: at or
        // below it only the archive serves, above it only the live tiers —
        // so the two runs never overlap and simply concatenate.
        let head = st.head(color).unwrap_or(SeqNum::ZERO);
        let mut out = match &self.config.tier {
            Some(tier) if from < head => self.archived_scan(st, tier, color, from, head, cap)?,
            _ => Vec::new(),
        };
        let live = self.placed(st, color, above(from.max(head)), cap - out.len());
        out.extend(live.into_iter().filter_map(|(sn, _)| {
            let (payload, _) = self.read(st, color, sn)?;
            Some(CommittedRecord { sn, payload })
        }));
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
        let st = self.hold(Holder::Scan);
        let placed = match select {
            FetchSelect::Above { sn, limit } => {
                self.placed(&st, color, above(*sn), usize::try_from(*limit).unwrap_or(usize::MAX))
            }
            FetchSelect::Exact(sns) => st
                .logs
                .get(&color)
                .map(|log| {
                    sns.iter()
                        .filter_map(|&sn| Some((sn, self.placement(log, color, sn)?)))
                        .collect()
                })
                .unwrap_or_default(),
        };
        placed
            .into_iter()
            .filter_map(|(sn, at)| {
                let (token, payload) = codec::decode_record(&self.raw_record(color, sn, at)?);
                Some((token, sn, payload))
            })
            .collect()
    }

    /// The stored bytes of a committed record, from the tier the index
    /// names.
    fn raw_record(&self, color: ColorId, sn: SeqNum, at: Placement) -> Option<Vec<u8>> {
        match at {
            Placement::Pm => self.pool.get(codec::committed_key(color, sn)),
            Placement::Ssd => self.ssd.read_block(codec::ssd_block_id(color, sn)).ok(),
        }
    }

    /// The one index walk: `color`'s records inside `range`, oldest first,
    /// at most `max`, each with its placement — the log's PM set merged
    /// with the SSD's block index over the color's span. (A record in both
    /// is the PM one; spill and recovery never leave one behind.)
    fn placed(
        &self,
        st: &State,
        color: ColorId,
        range: impl RangeBounds<SeqNum>,
        max: usize,
    ) -> Vec<(SeqNum, Placement)> {
        let Some(log) = st.logs.get(&color) else {
            return Vec::new();
        };
        let range = (range.start_bound().cloned(), range.end_bound().cloned());
        let on_ssd = match log.ssd_resident() {
            0 => Vec::new(),
            _ => self.ssd.block_ids(codec::ssd_block_range(color, range), max),
        };
        let on_ssd = on_ssd.into_iter().map(|id| (codec::color_sn_of(id).1, Placement::Ssd));
        let on_pm = log.pm_range(range).take(max).map(|sn| (sn, Placement::Pm));
        let mut placed: Vec<_> = on_pm.chain(on_ssd).collect();
        // Two ascending runs, so the stable sort is a merge, and a record in
        // both keeps its PM entry, the first.
        placed.sort_by_key(|&(sn, _)| sn);
        placed.dedup_by_key(|&mut (sn, _)| sn);
        placed.truncate(max);
        placed
    }

    /// Where `color`'s record `sn` is held, if it is.
    fn placement(&self, log: &ColorLog, color: ColorId, sn: SeqNum) -> Option<Placement> {
        if log.in_pm(sn) {
            Some(Placement::Pm)
        } else if log.ssd_resident() > 0
            && log.tail().is_some_and(|tail| sn <= tail)
            && self.ssd.contains(codec::ssd_block_id(color, sn))
        {
            Some(Placement::Ssd)
        } else {
            None
        }
    }

    /// Installs committed records fetched from a peer on the tier `at`,
    /// bypassing the staging path: drops the ones already trimmed or held
    /// here, writes the rest durably, then indexes them and notes their
    /// tokens. Returns how many were newly installed.
    fn install(
        &self,
        st: &mut State,
        color: ColorId,
        records: &[(Token, SeqNum, Payload)],
        at: Placement,
    ) -> Result<u64, StorageError> {
        // News here: not trimmed and not held in either tier.
        let log = st.logs.get(&color);
        let fresh: Vec<&(Token, SeqNum, Payload)> = records
            .iter()
            .filter(|(_, sn, _)| {
                log.is_none_or(|log| !log.trimmed(*sn) && self.placement(log, color, *sn).is_none())
            })
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        let bytes: usize = fresh.iter().map(|(_, _, payload)| codec::record_len(payload)).sum();
        match at {
            Placement::Pm => {
                let mut tx = self.pool.begin();
                tx.reserve(bytes + fresh.len() * Tx::RECORD_OVERHEAD);
                for (token, sn, payload) in &fresh {
                    let key = codec::committed_key(color, *sn);
                    tx.put_with(key, |buf| codec::write_record(buf, *token, payload));
                }
                tx.commit()?;
                st.adjust_live(bytes as isize);
                for (_, sn, payload) in &fresh {
                    st.cache.put((color, *sn), payload.clone());
                }
            }
            Placement::Ssd => {
                let (mut data, mut blocks) = (Vec::with_capacity(bytes), Vec::new());
                for (token, sn, payload) in &fresh {
                    codec::write_record(&mut data, *token, payload);
                    blocks.push((codec::ssd_block_id(color, *sn), codec::record_len(payload)));
                }
                self.ssd.write_synced(&data, &blocks);
            }
        }
        let log = st.log_mut(color);
        for (token, sn, _) in &fresh {
            log.insert(*sn, at);
            log.note_token(*token, *sn);
        }
        if at == Placement::Pm {
            st.note_landed(fresh.iter().map(|(_, sn, _)| (color, *sn)));
        }
        Ok(fresh.len() as u64)
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
        let mut st = self.state.lock();
        let installed = self.install(&mut st, color, &[(token, sn, payload.clone())], Placement::Pm)?;
        if installed > 0 {
            self.maybe_spill(&mut st)?;
        }
        Ok(installed > 0)
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
        self.install(&mut self.state.lock(), color, records, Placement::Ssd)
    }

    /// The SNs of every committed record of `color` above `from`, oldest
    /// first, cheapest possible form (no payload reads). Serves the digest
    /// diff that repairs a copy: a follower's cursor can step over a
    /// commit-order hole that fills later, so it diffs the source's SN set
    /// against its own instead of trusting counts.
    pub fn committed_sns(&self, color: ColorId, from: SeqNum) -> Vec<SeqNum> {
        let placed = self.placed(&self.state.lock(), color, above(from), usize::MAX);
        placed.into_iter().map(|(sn, _)| sn).collect()
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
    /// retries — history is never lost to a store outage. The round holds
    /// the server's lock throughout, so no other trim or archive round can
    /// interleave with its upload/drop two-step.
    pub fn trim(
        &self,
        color: ColorId,
        up_to: SeqNum,
    ) -> Result<(Option<SeqNum>, Option<SeqNum>), StorageError> {
        let st = &mut *self.hold(Holder::Trim);
        // A color never appended to (no committed records, no prior trim)
        // has nothing to trim: do NOT fabricate a head for it, or the
        // server gains a phantom color that shows up in every walk of
        // per-color state forever after.
        if st.logs.get(&color).is_none_or(|log| log.len() == 0 && log.head().is_none()) {
            return Ok((None, None));
        }
        let Some(tier) = &self.config.tier else {
            return self.drop_prefix(st, color, up_to);
        };
        let round = self.archive_records(st, tier, color, Some(up_to), 0, u64::MAX);
        // When the store stopped acking mid-round, drop only the prefix it
        // durably holds (nothing, if that is unknown). The head then lands
        // below `up_to`; the protocol reply reflects that and a later trim
        // retries the rest.
        let cut = if round.complete {
            Some(up_to)
        } else {
            round.durable.map(|boundary| boundary.min(up_to))
        };
        match cut {
            Some(cut) => self.drop_prefix(st, color, cut),
            None => {
                let log = &st.logs[&color];
                Ok((log.head(), log.tail()))
            }
        }
    }

    /// Deletes every record of `color` with `sn <= up_to` and durably
    /// advances the head — the tier-less trim, and the drop half of
    /// archive-then-drop.
    fn drop_prefix(
        &self,
        st: &mut State,
        color: ColorId,
        up_to: SeqNum,
    ) -> Result<(Option<SeqNum>, Option<SeqNum>), StorageError> {
        self.remove(st, color, Some(up_to))?;
        let log = &st.logs[&color];
        Ok((log.head(), log.tail()))
    }

    /// Deletes every record of `color` at or below `through` from whichever
    /// tier holds it and durably advances the trim head to `through` in the
    /// same PM transaction — or, with `None`, deletes every record and
    /// keeps the head (a discard). Returns how many records went.
    ///
    /// Also prunes the color's token-idempotence map. After a trim, a token
    /// whose batch ended at or below the head can never be re-acked with a
    /// live SN again — a late duplicate of it would target trimmed records,
    /// which `stage` re-admits harmlessly and `get` filters via the head —
    /// and without the prune the map grows with every append ever made.
    /// After a discard no token of the color may re-ack as committed: the
    /// append never happened as far as the log is concerned, and the
    /// client's retry must go through the real shard.
    fn remove(
        &self,
        st: &mut State,
        color: ColorId,
        through: Option<SeqNum>,
    ) -> Result<usize, StorageError> {
        let victims = match through {
            Some(up_to) => self.placed(st, color, ..=up_to, usize::MAX),
            None => self.placed(st, color, .., usize::MAX),
        };
        // Heads only ever advance, durably too.
        let new_head = through.map(|h| h.max(st.head(color).unwrap_or(SeqNum::ZERO)));
        let mut tx = self.pool.begin();
        let mut freed = 0usize;
        let mut on_ssd = Vec::new();
        for &(sn, at) in &victims {
            match at {
                Placement::Ssd => on_ssd.push(codec::ssd_block_id(color, sn)),
                Placement::Pm => {
                    let key = codec::committed_key(color, sn);
                    freed += self.pool.get(key).map_or(0, |v| v.len());
                    tx.delete(key);
                }
            }
        }
        if let Some(head) = new_head {
            tx.put(codec::head_key(color), &codec::encode_head(head));
        }
        tx.commit()?;
        // The SSD copies go after the PM commit, so a failed commit leaves
        // both tiers as they were. A crash before the fsync brings them
        // back under the durable head (see `recover`).
        for &id in &on_ssd {
            self.ssd.delete_block(id);
        }
        self.ssd.fsync();
        for &(sn, _) in &victims {
            st.cache.remove(&(color, sn));
        }
        let log = st.log_mut(color);
        log.drop_records(through, on_ssd.len());
        if let Some(head) = new_head {
            log.advance_head(head);
        }
        log.drop_tokens(new_head);
        st.adjust_live(-(freed as isize));
        Ok(victims.len())
    }

    /// One archive round: seals committed records of `color` above the
    /// manifest's durable boundary (and `<= limit`, when given) into
    /// segments and uploads them. For policy rounds (`limit == None`) the
    /// newest `keep_tail` candidates stay hot and at most `max_records`
    /// move.
    ///
    /// Idempotent across replicas and crashes: every replica derives the
    /// same chunk boundaries from the same shared manifest state, so
    /// re-uploads write byte-identical objects under the same keys.
    fn archive_records(
        &self,
        st: &mut State,
        tier: &TierConfig,
        color: ColorId,
        limit: Option<SeqNum>,
        keep_tail: u64,
        max_records: u64,
    ) -> ArchiveRound {
        let Some(mut manifest) = self.archive_manifest(st, tier, color) else {
            return ArchiveRound { archived: 0, durable: None, complete: false };
        };
        let boundary = manifest.archived_up_to().unwrap_or(SeqNum::ZERO);
        // A policy round may already have archived past this trim's cut:
        // everything at or below `limit` is durable in the store, so the
        // round has nothing to seal (and the range below would invert).
        if limit.is_some_and(|l| l <= boundary) {
            return ArchiveRound { archived: 0, durable: manifest.archived_up_to(), complete: true };
        }
        let upper = limit.map_or(Bound::Unbounded, Bound::Included);
        let mut candidates = self.placed(st, color, (Bound::Excluded(boundary), upper), usize::MAX);
        if limit.is_none() {
            let keep = keep_tail.min(candidates.len() as u64) as usize;
            candidates.truncate(candidates.len() - keep);
            candidates.truncate(usize::try_from(max_records).unwrap_or(usize::MAX));
        }
        let mut archived = 0u64;
        let mut complete = true;
        for group in candidates.chunks(tier.segment_records.max(1)) {
            let records: Vec<CommittedRecord> = group
                .iter()
                .filter_map(|&(sn, at)| {
                    let raw = self.raw_record(color, sn, at)?;
                    Some(CommittedRecord { sn, payload: codec::decode_record(&raw).1 })
                })
                .collect();
            if records.is_empty() {
                continue;
            }
            let seg = Segment::seal(color, records);
            if tier.store.put(&seg.key(), &seg.encode()).is_err() {
                self.stats.archive_failures.inc();
                complete = false;
                break;
            }
            let n = seg.records.len() as u64;
            self.stats.archived_segments.inc();
            self.stats.archived_records.add(n);
            archived += n;
            // (copies the cached manifest on the round's first segment)
            Arc::make_mut(&mut manifest).push(seg.meta());
        }
        let durable = manifest.archived_up_to();
        if archived > 0 {
            // The manifest object is a fast path only — on failure the next
            // load rebuilds it from the listing, which the segment puts
            // above already made authoritative.
            if complete && manifest.store(tier.store.as_ref(), color).is_err() {
                self.stats.archive_failures.inc();
            }
            st.manifests.insert(color, manifest);
        }
        ArchiveRound { archived, durable, complete }
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
        let Some(tier) = &self.config.tier else {
            return Ok(0);
        };
        let st = &mut *self.hold(Holder::Archive);
        let round = self.archive_records(st, tier, color, None, keep_tail, max_records);
        if let Some(boundary) = round.durable {
            // Skip the PM transaction when the head already covers the
            // boundary (steady-state policy ticks with nothing new).
            if st.head(color).is_none_or(|h| h < boundary) {
                self.drop_prefix(st, color, boundary)?;
            }
        }
        Ok(round.archived)
    }

    /// Deletes every committed record of `color` across all tiers — the
    /// roll-back of a partially imported migration on its destination.
    /// Unlike [`StorageServer::trim`] the head is KEPT (heads only ever
    /// advance; a later re-migration re-installs the source's head anyway
    /// and an orphaned head is harmless). Idempotent: a repeat discard
    /// finds nothing and returns 0. Returns the record count removed.
    pub fn discard_color(&self, color: ColorId) -> Result<u64, StorageError> {
        let st = &mut *self.state.lock();
        if st.logs.get(&color).is_none_or(|log| log.len() == 0) {
            return Ok(0);
        }
        Ok(self.remove(st, color, None)? as u64)
    }

    /// Runs `f` on `color`'s log; `None` when the color has no log here.
    fn log<R>(&self, color: ColorId, f: impl FnOnce(&ColorLog) -> R) -> Option<R> {
        self.state.lock().logs.get(&color).map(f)
    }

    /// Highest committed SN of `color` on this replica.
    pub fn tail(&self, color: ColorId) -> Option<SeqNum> {
        self.log(color, ColorLog::tail).flatten()
    }

    /// Highest trimmed SN of `color` (inclusive), if any trim happened.
    pub fn head(&self, color: ColorId) -> Option<SeqNum> {
        self.log(color, ColorLog::head).flatten()
    }

    /// Durably installs a trim head without deleting anything (migration
    /// span transfer: the destination must not serve records the source
    /// had already trimmed). Never moves an existing head backwards.
    pub fn install_head(&self, color: ColorId, head: SeqNum) -> Result<(), StorageError> {
        let mut st = self.state.lock();
        if st.head(color).is_some_and(|h| head <= h) {
            return Ok(());
        }
        self.pool.put(codec::head_key(color), &codec::encode_head(head))?;
        st.log_mut(color).advance_head(head);
        Ok(())
    }

    /// Bytes of staged and committed values currently resident in PM (the
    /// autoscaler's per-shard memory-pressure signal).
    pub fn pm_live_bytes(&self) -> usize {
        self.state.lock().pm_live_bytes
    }

    /// Tokens staged but not yet committed (re-issued as OReqs after
    /// recovery, §6.3) together with their color and batch size.
    pub fn staged_tokens(&self) -> Vec<(Token, ColorId, usize)> {
        let st = self.state.lock();
        st.staged.iter().map(|(&t, batch)| (t, batch.color, batch.payloads.len())).collect()
    }

    /// The SN `token`'s batch of `color` ended at, if committed.
    pub fn committed_sn(&self, color: ColorId, token: Token) -> Option<SeqNum> {
        self.log(color, |log| log.committed(token)).flatten()
    }

    /// Number of entries in the token-idempotence map (bounded-memory
    /// check: trims must shrink this).
    pub fn committed_token_count(&self) -> usize {
        self.state.lock().logs.values().map(ColorLog::token_count).sum()
    }

    /// Number of committed records of `color` on this replica.
    pub fn record_count(&self, color: ColorId) -> usize {
        self.log(color, ColorLog::len).unwrap_or(0)
    }

    /// Number of committed records currently resident on the SSD tier.
    pub fn ssd_resident(&self, color: ColorId) -> usize {
        self.log(color, ColorLog::ssd_resident).unwrap_or(0)
    }

    /// Drops every DRAM-cache entry (tier tests force cold reads with it).
    pub fn clear_cache(&self) {
        self.state.lock().cache.clear();
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
        self.state.lock().node = node;
    }

    /// The shared observability handle this server reports into.
    pub fn obs(&self) -> &ObsHandle {
        &self.config.obs
    }

    /// Spills the PM-resident records that landed first to SSD when live PM
    /// bytes exceed the watermark ("a contiguous portion from the start of
    /// the log is flushed to SSD and removed from PM", §5.2), a batch at a
    /// time. The safety back-stop under the tiering policy's `demote`
    /// action. It goes by landing order across colors, not color by color:
    /// that is the order the PM pool's redo log holds the records in, so
    /// the log's oldest segment empties whole and nothing has to be copied
    /// forward to free it.
    fn maybe_spill(&self, st: &mut State) -> Result<(), StorageError> {
        self.publish_pool_cost();
        if st.pm_live_bytes <= self.config.pm_watermark {
            return Ok(());
        }
        let start = Instant::now();
        let spilled = self.spill_to_watermark(st);
        self.spill_hist.record_ns(start.elapsed());
        spilled
    }

    /// The batches of a spill round, until PM is back under the watermark
    /// or nothing is left to spill.
    fn spill_to_watermark(&self, st: &mut State) -> Result<(), StorageError> {
        while st.pm_live_bytes > self.config.pm_watermark {
            let mut victims = Vec::with_capacity(SPILL_BATCH);
            while victims.len() < SPILL_BATCH {
                let Some(record) = st.landed.pop_front() else { break };
                // A record imported again after it left PM is queued twice.
                if st.in_pm(record.0, record.1) && st.spill_taken.insert(record) {
                    victims.push(record);
                }
            }
            st.spill_taken.clear();
            if victims.is_empty() {
                return Ok(());
            }
            if let Err(e) = self.spill_victims(st, &victims) {
                // Still in PM: still first in line.
                for &record in victims.iter().rev() {
                    st.landed.push_front(record);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Copies the pool's cost counters into the registry; runs where every
    /// commit and import ends (so the registry lags by that call's spill).
    fn publish_pool_cost(&self) {
        let stats = &self.pool.stats;
        let cost = [&stats.log_bytes, &stats.reclaim_copied_records, &stats.segments_freed];
        for (counter, value) in self.pool_cost.iter().zip(cost) {
            counter.store(value.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// The SSD-copy → fsync → PM-delete two-step moving the given
    /// PM-resident records down a tier.
    fn spill_victims(&self, st: &mut State, victims: &[(ColorId, SeqNum)]) -> Result<(), StorageError> {
        // 1. Copy to SSD in one synced write...
        let (mut data, mut blocks) = std::mem::take(&mut st.spill_buf);
        let mut tx = self.pool.begin();
        tx.reserve(victims.len() * Tx::RECORD_OVERHEAD);
        for &(color, sn) in victims {
            let key = codec::committed_key(color, sn);
            if let Some(len) = self.pool.read_into(key, &mut data) {
                blocks.push((codec::ssd_block_id(color, sn), len));
            }
            tx.delete(key);
        }
        let freed = data.len();
        self.ssd.write_synced(&data, &blocks);
        data.clear();
        blocks.clear();
        st.spill_buf = (data, blocks);
        // 2. ...only then remove from PM (a crash between the two steps
        // duplicates records across tiers, which `recover` resolves; it
        // never loses them).
        if let Err(e) = tx.commit() {
            // The PM copies stay, so the SSD ones go: one placement each.
            for &(color, sn) in victims {
                self.ssd.delete_block(codec::ssd_block_id(color, sn));
            }
            self.ssd.fsync();
            return Err(e.into());
        }
        for &(color, sn) in victims {
            st.log_mut(color).mark_spilled(sn);
        }
        st.adjust_live(-(freed as isize));
        self.stats.spilled_records.add(victims.len() as u64);
        Ok(())
    }

    /// Policy actuator: demotes up to `max_records` of `color`'s oldest
    /// PM-resident records to the SSD, regardless of the global
    /// `pm_watermark` — the declarative `demote` action's landing point,
    /// replacing per-workload tuning of the spill heuristics. Returns how
    /// many records moved.
    pub fn demote_color(&self, color: ColorId, max_records: u64) -> Result<u64, StorageError> {
        let st = &mut *self.hold(Holder::Demote);
        let max = usize::try_from(max_records).unwrap_or(usize::MAX);
        let victims: Vec<(ColorId, SeqNum)> = st
            .logs
            .get(&color)
            .map(|log| log.pm_range(..).take(max).map(|sn| (color, sn)).collect())
            .unwrap_or_default();
        if !victims.is_empty() {
            self.spill_victims(st, &victims)?;
        }
        Ok(victims.len() as u64)
    }
}

#[cfg(test)]
mod tests;
