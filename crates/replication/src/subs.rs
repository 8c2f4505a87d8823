//! Server-side subscription groups: standing per-color tail cursors.
//!
//! A subscriber registers once ([`SubMsg::SubscribeFrom`]) and the serving
//! replica — quorum or read-only — pushes committed spans to it in batched
//! [`SubMsg::SubPushBatch`] messages as they land, instead of the
//! subscriber polling. The table is the subscription half of
//! [`crate::serving::Serving`], which both node kinds hold:
//!
//! * **One scan, N subscribers.** Each pump scans a color once from the
//!   *lowest* cursor (bounded by [`SUB_PUSH_MAX`]) and slices the result
//!   per subscriber — fan-out costs one DRAM-cache-friendly sequential
//!   scan plus N refcount bumps, not N scans.
//! * **Ordering.** Within one serving replica, records are pushed in SN
//!   order. A commit-order hole the replica *knows* about (an OResp that
//!   outran its append broadcast) acts as a push barrier so the late
//!   record is not skipped; a hole that fills through recovery paths is
//!   delivered late as a single-record fill. Subscribers deduplicate.
//! * **Cursors.** `cursor` is the optimistic push frontier; `acked` is
//!   what the subscriber confirmed. Only `acked` travels in a migration
//!   handoff ([`crate::msg::SubCursor`]) — re-pushing the in-flight window
//!   is safe, losing it is not.
//! * **Liveness.** An idle subscription gets an empty heartbeat batch
//!   every [`SUB_HEARTBEAT`]; subscribers re-attach elsewhere when
//!   heartbeats stop (crash) or a [`SubMsg::SubRedirect`] arrives (cutover
//!   / drop).

use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_obs::{Counter, Histogram, Stage, SUB_TOKEN};
use flexlog_simnet::{Endpoint, NodeId};
use flexlog_storage::StorageServer;
use flexlog_types::{BoundedMap, ColorId, CommittedRecord, FastMap, SeqNum, Token};

use crate::msg::{ClusterMsg, RejectReason, SubCursor, SubMsg};

/// Cap on records per push pump per color: bounds the time one pump steals
/// from the serving replica's event loop. A subscriber further behind
/// catches up across consecutive pumps.
pub(crate) const SUB_PUSH_MAX: usize = 512;

/// Liveness heartbeat interval for idle push subscriptions (an empty
/// `SubPushBatch`). The client's silence window is a few multiples of it.
const SUB_HEARTBEAT: Duration = Duration::from_millis(150);

/// How many committed (color, sn) → token pairs a server remembers for
/// per-record `SubPush` tracing. Older pushes fall back to one batch-level
/// event under [`SUB_TOKEN`].
const RECENT_TOKEN_WINDOW: usize = 8192;

struct Sub {
    color: ColorId,
    target: NodeId,
    /// Optimistic push frontier: highest SN sent to the subscriber.
    cursor: SeqNum,
    /// Highest SN the subscriber acknowledged.
    acked: SeqNum,
    last_sent: Instant,
}

/// The subscription table of one serving replica. All methods run inside
/// the owner's single-threaded event loop.
pub(crate) struct SubTable {
    storage: Arc<StorageServer>,
    subs: FastMap<u64, Sub>,
    by_color: FastMap<ColorId, Vec<u64>>,
    /// Recently landed (color, sn) → token of the colors with a
    /// subscriber, for `SubPush` tracing.
    tokens: BoundedMap<(ColorId, SeqNum), Token>,
    push_batches: Counter,
    push_records: Counter,
    registered: Counter,
    redirects: Counter,
    push_hist: Histogram,
}

impl SubTable {
    pub(crate) fn new(storage: Arc<StorageServer>) -> Self {
        let obs = &storage.config().obs;
        SubTable {
            subs: FastMap::default(),
            by_color: FastMap::default(),
            tokens: BoundedMap::new(RECENT_TOKEN_WINDOW),
            push_batches: obs.counter("sub.push_batches"),
            push_records: obs.counter("sub.push_records"),
            registered: obs.counter("sub.registered"),
            redirects: obs.counter("sub.redirects"),
            push_hist: obs.histogram("sub.push_ns"),
            storage,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Colors with at least one live subscription.
    pub(crate) fn colors(&self) -> Vec<ColorId> {
        self.by_color.keys().copied().collect()
    }

    /// Registers (or re-registers — idempotent per `sub`, the cursor moves
    /// to `from`) and immediately answers with a first batch so the
    /// subscriber learns the registration took even on an idle color.
    pub(crate) fn register(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        sub: u64,
        color: ColorId,
        from: SeqNum,
        target: NodeId,
        barrier: Option<SeqNum>,
    ) {
        self.remove(sub);
        self.subs.insert(
            sub,
            Sub {
                color,
                target,
                cursor: from,
                acked: from,
                // Force an immediate (possibly empty) first batch below.
                last_sent: Instant::now() - SUB_HEARTBEAT,
            },
        );
        self.by_color.entry(color).or_default().push(sub);
        self.registered.inc();
        self.pump_color(ep, color, barrier);
        // Idle color (or everything below the barrier): confirm with an
        // empty batch so the client can tell registration from loss.
        if let Some(s) = self.subs.get_mut(&sub) {
            if s.last_sent + SUB_HEARTBEAT <= Instant::now() {
                s.last_sent = Instant::now();
                let _ = ep.send(
                    target,
                    SubMsg::SubPushBatch {
                        sub,
                        color,
                        records: Vec::new(),
                    }
                    .into(),
                );
            }
        }
    }

    /// Adopts cursors handed over by a migrating source replica. Resumes
    /// from each subscriber's **acked** SN: anything the source pushed but
    /// the subscriber never confirmed is re-pushed here and deduplicated
    /// client-side.
    pub(crate) fn adopt_cursors(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        color: ColorId,
        cursors: &[SubCursor],
    ) {
        for c in cursors {
            self.register(ep, c.sub, color, c.acked, c.target, None);
        }
    }

    /// The cursors to ship in a migration handoff for `color`.
    pub(crate) fn export_cursors(&self, color: ColorId) -> Vec<SubCursor> {
        self.by_color
            .get(&color)
            .map(|ids| {
                ids.iter()
                    .filter_map(|id| {
                        self.subs.get(id).map(|s| SubCursor {
                            sub: *id,
                            target: s.target,
                            acked: s.acked,
                        })
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    pub(crate) fn ack(&mut self, sub: u64, upto: SeqNum) {
        if let Some(s) = self.subs.get_mut(&sub) {
            s.acked = s.acked.max(upto);
            // The push frontier can never trail the acked frontier (a
            // re-attached subscriber may ack records another replica sent).
            s.cursor = s.cursor.max(s.acked);
        }
    }

    pub(crate) fn cancel(&mut self, sub: u64) {
        self.remove(sub);
    }

    fn remove(&mut self, sub: u64) {
        if let Some(s) = self.subs.remove(&sub) {
            if let Some(ids) = self.by_color.get_mut(&s.color) {
                ids.retain(|&id| id != sub);
                if ids.is_empty() {
                    self.by_color.remove(&s.color);
                }
            }
        }
    }

    /// Tears down every subscription of `color` with a redirect: the
    /// subscriber re-resolves the topology (`ColorMoved`) or terminates
    /// (`Dropped`).
    pub(crate) fn redirect_color(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        color: ColorId,
        reason: RejectReason,
    ) {
        let Some(ids) = self.by_color.remove(&color) else {
            return;
        };
        for id in ids {
            if let Some(s) = self.subs.remove(&id) {
                self.redirects.inc();
                let _ = ep.send(
                    s.target,
                    SubMsg::SubRedirect {
                        sub: id,
                        color,
                        reason,
                    }
                    .into(),
                );
            }
        }
    }

    /// Whether every subscriber has been pushed everything committed —
    /// when false the owner should tick fast to keep catch-up moving.
    pub(crate) fn all_caught_up(&self) -> bool {
        self.by_color.iter().all(|(&color, ids)| {
            let tail = self.storage.tail(color).unwrap_or(SeqNum::ZERO);
            ids.iter()
                .all(|id| self.subs.get(id).is_none_or(|s| s.cursor >= tail))
        })
    }

    /// One push pass over every subscribed color. `barrier` is the lowest
    /// SN of a commit the owner knows is still in flight (pending OResp):
    /// nothing at or above it is pushed, so the late record cannot be
    /// skipped past.
    pub(crate) fn pump(&mut self, ep: &Endpoint<ClusterMsg>, barrier: Option<SeqNum>) {
        if self.subs.is_empty() {
            return;
        }
        let colors: Vec<ColorId> = self.by_color.keys().copied().collect();
        for color in colors {
            self.pump_color(ep, color, barrier);
        }
        // Liveness heartbeats for idle subscriptions.
        let now = Instant::now();
        let mut beats: Vec<(NodeId, u64, ColorId)> = Vec::new();
        for (&id, s) in self.subs.iter_mut() {
            if now.saturating_duration_since(s.last_sent) >= SUB_HEARTBEAT {
                s.last_sent = now;
                beats.push((s.target, id, s.color));
            }
        }
        for (target, sub, color) in beats {
            let _ = ep.send(
                target,
                SubMsg::SubPushBatch {
                    sub,
                    color,
                    records: Vec::new(),
                }
                .into(),
            );
        }
    }

    fn pump_color(&mut self, ep: &Endpoint<ClusterMsg>, color: ColorId, barrier: Option<SeqNum>) {
        let Some(ids) = self.by_color.get(&color) else {
            return;
        };
        let Some(tail) = self.storage.tail(color) else {
            return;
        };
        let min_cursor = ids
            .iter()
            .filter_map(|id| self.subs.get(id))
            .map(|s| s.cursor)
            .filter(|&c| c < tail)
            .min();
        let Some(min_cursor) = min_cursor else {
            return;
        };
        if barrier.is_some_and(|b| b <= min_cursor) {
            return; // everything still owed sits behind the barrier
        }
        let start = Instant::now();
        // A failed archive read-through skips this pump round entirely —
        // pushing the live suffix would skip the stream's cursor past the
        // archived records it still owes. The next round retries.
        let Ok(mut records) = self.storage.scan_capped(color, min_cursor, SUB_PUSH_MAX) else {
            return;
        };
        if let Some(b) = barrier {
            records.retain(|r| r.sn < b);
        }
        if records.is_empty() {
            return;
        }
        let ids: Vec<u64> = ids.clone();
        let mut pushed = false;
        let mut spans: Vec<(Token, Stage, u64, u64)> = Vec::new();
        for id in ids {
            let Some(s) = self.subs.get_mut(&id) else {
                continue;
            };
            let slice: Vec<CommittedRecord> = records
                .iter()
                .filter(|r| r.sn > s.cursor)
                .cloned()
                .collect();
            let Some(last) = slice.last() else {
                continue;
            };
            s.cursor = last.sn;
            s.last_sent = Instant::now();
            let mut traced = 0usize;
            spans.clear();
            for r in &slice {
                if let Some(&t) = self.tokens.get(&(color, r.sn)) {
                    spans.push((t, Stage::SubPush, ep.id().0, color.0 as u64));
                    traced += 1;
                }
            }
            if traced < slice.len() {
                // Backlog records whose tokens aged out: one batch event.
                spans.push((SUB_TOKEN, Stage::SubPush, ep.id().0, color.0 as u64));
            }
            self.push_batches.inc();
            self.push_records.add(slice.len() as u64);
            // Stamp before the batch leaves: once the subscriber holds the
            // records their traces must already be whole (the same rule the
            // commit path applies to acks).
            self.storage.config().obs.tracer().record_many(&spans);
            pushed = true;
            let _ = ep.send(
                s.target,
                SubMsg::SubPushBatch {
                    sub: id,
                    color,
                    records: slice,
                }
                .into(),
            );
        }
        if pushed {
            self.push_hist.record_ns(start.elapsed());
        }
    }

    /// Notes one record that just landed here (commit or import) for push
    /// tracing — if its color has a subscriber, as only a push reads the
    /// note — and delivers it as a late fill if it landed below some push
    /// frontier (e.g. an OResp that outran its append past the barrier
    /// window, or a hole the quorum filled after the follower moved on):
    /// pushed out of band to every subscriber whose frontier already moved
    /// past it. Rare; subscribers reorder/dedup.
    pub(crate) fn push_fill(
        &mut self,
        ep: &Endpoint<ClusterMsg>,
        color: ColorId,
        sn: SeqNum,
        token: Token,
    ) {
        let Some(ids) = self.by_color.get(&color) else {
            return;
        };
        self.tokens.insert((color, sn), token);
        let targets: Vec<u64> = ids
            .iter()
            .filter(|id| {
                self.subs
                    .get(id)
                    .is_some_and(|s| s.acked < sn && s.cursor > sn)
            })
            .copied()
            .collect();
        if targets.is_empty() {
            return;
        }
        let Some(payload) = self.storage.get(color, sn) else {
            return;
        };
        let record = CommittedRecord { sn, payload };
        for id in targets {
            let Some(s) = self.subs.get_mut(&id) else {
                continue;
            };
            s.last_sent = Instant::now();
            self.push_batches.inc();
            self.push_records.inc();
            let tracer = self.storage.config().obs.tracer();
            tracer.record(token, Stage::SubPush, ep.id().0, color.0 as u64);
            let _ = ep.send(
                s.target,
                SubMsg::SubPushBatch {
                    sub: id,
                    color,
                    records: vec![record.clone()],
                }
                .into(),
            );
        }
    }
}
