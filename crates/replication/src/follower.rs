//! The one catch-up state machine: "bring my copy of color *c* level with
//! source shard *S*" (§6.3's "fetch missing records from the most
//! up-to-date replica", generalised to every copy of a color).
//!
//! Three owners drive it — the read replica's pull loop, the §6.3
//! sync-phase and a migration destination obeying `CtrlCmd::CatchUp` — and
//! it is the only code that builds a [`SyncMsg::Fetch`] or a
//! [`SyncMsg::SpanDigest`], or that hands records off the wire to storage.
//! The contract, per (color, source shard):
//!
//! * **One request outstanding.** Ask `Above { cursor, FOLLOW_CHUNK }` until
//!   a reply comes back short; the source's trim head is installed from
//!   every reply. The cursor is kept per (color, source shard): two source
//!   shards' SNs interleave, so the local tail is a cursor only for the
//!   shard this node belongs to.
//! * **Silence rule.** A request unanswered for [`SILENCE`] is re-sent to
//!   the *next* source of the list, never stacked beside the first. A
//!   question keeps its request id across re-sends, so a slow source's late
//!   answer still counts and only one answer per question is used.
//! * **Repair rule.** When the short reply's `count` exceeds the local
//!   count under the same head (a hole below the cursor filled late
//!   upstream), or the owner asked for an exact copy, fetch that source's
//!   `SpanDigest`, diff it against the local SNs and pull exactly the
//!   missing ones with chunked `Fetch { Exact }`.
//! * Then tell the owner [`Level`].
//!
//! Like the serving half it takes the endpoint and the time as arguments:
//! it reads no clock, and it has no settable value.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_obs::Counter;
use flexlog_simnet::{Endpoint, NodeId};
use flexlog_storage::{FetchSelect, StorageServer};
use flexlog_types::{ColorId, SeqNum, ShardId, Token};

use crate::msg::{ClusterMsg, SubCursor, SyncMsg, TokenRecord};

/// Records per request. The scan runs inside the serving replica's
/// single-threaded event loop, stalling its appends for the duration: a
/// chunk this size reads in ~22 ms from the SSD tier under the benchmark's
/// device clock, where the whole 40 000-record span takes ~530 ms.
pub(crate) const FOLLOW_CHUNK: u64 = 1024;

/// How long a request may stay unanswered before it goes to the next
/// source: some nine chunk reads, so a source that is merely serving other
/// followers' chunks first is not mistaken for a dead one. Too short costs
/// a duplicate chunk read per window; too long is how stale the follower
/// of a dead source gets before it moves on.
const SILENCE: Duration = Duration::from_millis(200);

/// What the owner wants beyond following the cursor.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Repair only when the source's record count says a hole filled.
    Follow,
    /// As `Follow`, landing the records on the SSD tier: bulk history of a
    /// color not served here yet must not evict the PM headroom or the
    /// DRAM cache the hot append path runs on.
    Cold,
    /// Prove the copy against the source's digest whatever the counts say.
    Exact,
}

/// A catch-up reached its source: everything the answering replica held
/// when it served the last request is here.
pub(crate) struct Level {
    pub(crate) color: ColorId,
    /// The round [`Follower::start`] gave this catch-up: the id of its
    /// first question.
    pub(crate) round: u64,
    pub(crate) source: ShardId,
    /// Records newly installed hot, for [`crate::serving::Serving::landed`]
    /// (empty for `Mode::Cold`: nobody is served from a cold copy).
    pub(crate) fresh: Vec<(ColorId, SeqNum, Token)>,
    /// The answering replica's subscription cursors for the color.
    pub(crate) cursors: Vec<SubCursor>,
    /// Records newly installed, hot or cold.
    pub(crate) imported: u64,
}

/// The question a catch-up has outstanding.
enum Step {
    Above,
    Digest,
    /// SNs still to pull, asked `FOLLOW_CHUNK` at a time.
    Exact(Vec<SeqNum>),
}

struct CatchUp {
    mode: Mode,
    sources: Vec<NodeId>,
    /// Index of the source last asked (or last heard from).
    src: usize,
    step: Step,
    /// Names the outstanding question; kept across its re-sends.
    req: u64,
    sent: Instant,
    /// What the owner is told in the end, filled in as replies land.
    level: Level,
}

/// See module docs.
pub(crate) struct Follower {
    storage: Arc<StorageServer>,
    /// The shard this node belongs to.
    home: ShardId,
    cursors: HashMap<(ColorId, ShardId), SeqNum>,
    active: HashMap<(ColorId, ShardId), CatchUp>,
    /// The id of the question asked last; ids only grow.
    req: u64,
    fetches: Counter,
    imported: Counter,
}

impl Follower {
    /// `kind` names the owner in `<kind>.sync_fetches` (requests sent) and
    /// `<kind>.imported_records`.
    pub(crate) fn new(storage: Arc<StorageServer>, home: ShardId, kind: &str) -> Self {
        let obs = storage.config().obs.clone();
        Follower {
            storage,
            home,
            cursors: HashMap::new(),
            active: HashMap::new(),
            req: 0,
            fetches: obs.counter(&format!("{kind}.sync_fetches")),
            imported: obs.counter(&format!("{kind}.imported_records")),
        }
    }

    /// A lower bound on the round of any catch-up started from now on, and
    /// more than the round of every one started so far.
    pub(crate) fn next_round(&self) -> u64 {
        self.req + 1
    }

    /// Starts bringing `color` level with shard `source`, asking `sources`
    /// (its replicas, best first). A no-op while one is in flight for the
    /// pair: the owner asks again at its own cadence, or cancels first.
    pub(crate) fn start(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        now: Instant,
        (color, source): (ColorId, ShardId),
        sources: &[NodeId],
        mode: Mode,
    ) {
        if sources.is_empty() || self.active.contains_key(&(color, source)) {
            return;
        }
        let level = Level {
            color,
            round: self.next_round(),
            source,
            fresh: Vec::new(),
            cursors: Vec::new(),
            imported: 0,
        };
        let (sources, step) = (sources.to_vec(), Step::Above);
        let catch_up = CatchUp { mode, sources, src: 0, step, req: 0, sent: now, level };
        self.active.insert((color, source), catch_up);
        self.ask(ep, now, (color, source), true);
    }

    /// Sends the outstanding question of `key` to its current source, under
    /// a new request id if the question is `new`.
    fn ask(&mut self, ep: &Endpoint<ClusterMsg>, now: Instant, key: (ColorId, ShardId), new: bool) {
        let Some(c) = self.active.get_mut(&key) else { return };
        if new {
            self.req += 1;
            c.req = self.req;
        }
        let (color, source) = key;
        let msg = match &c.step {
            Step::Above => {
                // Every record of the home shard's colors came from that
                // shard, whichever path brought it: its tail is a cursor.
                let tail = self.storage.tail(color).filter(|_| source == self.home);
                let sn = self.cursors.get(&key).copied().max(tail).unwrap_or(SeqNum::ZERO);
                let select = FetchSelect::Above { sn, limit: FOLLOW_CHUNK };
                SyncMsg::Fetch { req: c.req, color, select }
            }
            Step::Digest => SyncMsg::SpanDigest { color, req: c.req },
            Step::Exact(missing) => {
                let chunk = &missing[..missing.len().min(FOLLOW_CHUNK as usize)];
                SyncMsg::Fetch { req: c.req, color, select: FetchSelect::Exact(chunk.to_vec()) }
            }
        };
        c.sent = now;
        self.fetches.inc();
        let _ = ep.send(c.sources[c.src], msg.into());
    }

    /// Feeds one sync-plane message to the catch-up that asked for it (any
    /// other is dropped). Returns `Level` when that catch-up is done.
    pub(crate) fn on_reply(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        now: Instant,
        from: NodeId,
        msg: SyncMsg,
    ) -> Option<Level> {
        let (SyncMsg::Records { req, .. } | SyncMsg::SpanDigestResp { req, .. }) = &msg else {
            return None;
        };
        // Request ids are this follower's own: one names one question.
        let (&key, c) = self.active.iter_mut().find(|(_, c)| c.req == *req)?;
        let color = key.0;
        c.src = c.sources.iter().position(|&s| s == from).unwrap_or(c.src);
        let storage = &self.storage;
        // The next question, `None` once there is none left to ask.
        let next = match (msg, &mut c.step) {
            (SyncMsg::Records { head, count, records, cursors, .. }, Step::Above) => {
                self.imported.add(install(storage, c.mode, &mut c.level, head, &records));
                c.level.cursors = cursors;
                let reached = records.last().map(|r| r.1).max(head).unwrap_or(SeqNum::ZERO);
                let cursor = self.cursors.entry(key).or_insert(SeqNum::ZERO);
                *cursor = reached.max(*cursor);
                // Level above the cursor once a reply comes back short.
                // Counts compare only under one head; more records upstream
                // then means a hole below the cursor filled late.
                let behind = head == storage.head(color)
                    && count > storage.record_count(color) as u64;
                if records.len() as u64 >= FOLLOW_CHUNK {
                    Some(Step::Above)
                } else {
                    (c.mode == Mode::Exact || behind).then_some(Step::Digest)
                }
            }
            (SyncMsg::Records { head, records, .. }, Step::Exact(missing)) => {
                self.imported.add(install(storage, c.mode, &mut c.level, head, &records));
                // Asked and answered: an SN the source no longer holds
                // (trimmed meanwhile) is not asked for again.
                missing.drain(..missing.len().min(FOLLOW_CHUNK as usize));
                (!missing.is_empty()).then(|| Step::Exact(std::mem::take(missing)))
            }
            (SyncMsg::SpanDigestResp { sns, .. }, Step::Digest) => {
                // Ours come oldest first, whatever order the source's are in.
                let have = storage.committed_sns(color, SeqNum::ZERO);
                let missing: Vec<SeqNum> =
                    sns.into_iter().filter(|sn| have.binary_search(sn).is_err()).collect();
                (!missing.is_empty()).then_some(Step::Exact(missing))
            }
            _ => return None,
        };
        let Some(step) = next else {
            return self.active.remove(&key).map(|c| c.level);
        };
        c.step = step;
        self.ask(ep, now, key, true);
        None
    }

    /// The silence rule: every question unanswered for a window goes, as
    /// it stands, to the next source.
    pub(crate) fn tick(&mut self, ep: &Endpoint<ClusterMsg>, now: Instant) {
        let silent = |c: &CatchUp| now.saturating_duration_since(c.sent) >= SILENCE;
        let keys: Vec<_> = self.active.iter().filter(|(_, c)| silent(c)).map(|(k, _)| *k).collect();
        for key in keys {
            if let Some(c) = self.active.get_mut(&key) {
                c.src = (c.src + 1) % c.sources.len();
            }
            self.ask(ep, now, key, false);
        }
    }

    /// Abandons every catch-up `which` selects. What they installed stays,
    /// and what they installed hot is returned: no `Level` will report it.
    pub(crate) fn cancel(
        &mut self,
        which: impl Fn(ColorId, ShardId) -> bool,
    ) -> Vec<(ColorId, SeqNum, Token)> {
        let abandoned = self.active.extract_if(|&(color, source), _| which(color, source));
        abandoned.flat_map(|(_, c)| c.level.fresh).collect()
    }

    /// Abandons `color`'s catch-ups and forgets its cursors: its copy here
    /// was discarded, or it is served here now.
    pub(crate) fn forget(&mut self, color: ColorId) {
        self.cancel(|c, _| c == color);
        self.cursors.retain(|&(c, _), _| c != color);
    }
}

/// Installs one reply — the source's head first, so what it trimmed is
/// dropped, not resurrected — and returns how many records were new.
fn install(
    storage: &StorageServer,
    mode: Mode,
    level: &mut Level,
    head: Option<SeqNum>,
    records: &[TokenRecord],
) -> u64 {
    let color = level.color;
    if let Some(h) = head {
        let _ = storage.install_head(color, h);
    }
    let n = if mode == Mode::Cold {
        storage.import_cold(color, records).unwrap_or(0)
    } else {
        let before = level.fresh.len();
        for (token, sn, payload) in records {
            if storage.import(color, *sn, *token, payload).unwrap_or(false) {
                level.fresh.push((color, *sn, *token));
            }
        }
        (level.fresh.len() - before) as u64
    };
    level.imported += n;
    n
}
