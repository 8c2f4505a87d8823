//! Client-side implementation of the FlexLog-API protocols (Table 2).
//!
//! A client is typically a serverless function. It talks directly to the
//! replicas of shards (§5.1): appends broadcast to every replica of one
//! random shard of the color and complete when **all** replicas ack
//! (Algorithm 1); reads contact one random replica of each shard and take
//! the first non-⊥ answer; trims touch every replica of every shard. All
//! operations are idempotent (token/request ids), so timeouts simply
//! retransmit.
//!
//! There is one append operation — an [`InflightAppend`] tracked by token
//! and driven by one pump (retransmit, fence handling, fail-fast, deadline)
//! — and two ways to wait for it:
//!
//! * [`FlexLogClient::append`] starts one and pumps until *it* completes
//!   (the classic Algorithm 1 interaction: a window of one);
//! * [`FlexLogClient::append_pipelined`] + [`FlexLogClient::flush`] keep a
//!   bounded window of them in flight, acks tracked out of order per
//!   token. The token protocol already makes every append idempotent and
//!   self-identifying, so pipelining needs no new wire messages — only
//!   client-side bookkeeping. Payloads travel as refcounted [`Payload`]s:
//!   retransmits and shard-wide broadcasts never copy record bytes.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flexlog_obs::{Histogram, ObsHandle, Stage};
use flexlog_ordering::{Catalog, ShardInfo};
use flexlog_simnet::{Endpoint, NodeId, RecvError};
use flexlog_types::{
    Batch, ColorId, CommittedRecord, FastMap, FunctionId, Payload, SeqNum, ShardId, Token,
};

use crate::msg::{AppendMsg, ClusterMsg, DataMsg, ReadMsg, RejectReason, SubMsg};
use crate::replica::encode_multi_set;

/// Jitter fraction applied to every backoff interval: the actual wait is
/// uniform in `[interval, interval * (1 + jitter)]`. Desynchronizes
/// retransmit storms from many clients hammering a recovering shard.
const RETRY_JITTER: f64 = 0.25;
/// Retransmission rounds of an append with **zero** acks from the target
/// shard before the op fails fast with [`ClientError::ShardUnreachable`].
/// Partial acks never trip this — a shard mid-recovery keeps the op
/// blocking until the deadline (the §4 CAP choice).
const UNREACHABLE_AFTER: u32 = 8;
/// Push-subscription liveness: after this long without any batch or
/// heartbeat from a stream's server, the client re-resolves a read target
/// and re-registers from its acked cursor. A few multiples of the servers'
/// heartbeat interval.
const SUB_SILENCE: Duration = Duration::from_millis(600);
/// Push-subscription ack cadence: an [`SubMsg::SubAck`] goes out when this
/// much time passed since the last one (or the record budget below is
/// hit). Lazy acks keep the server-side fill window open for late hole
/// fills.
const SUB_ACK_INTERVAL: Duration = Duration::from_millis(50);
/// Records delivered since the last ack that force one immediately.
const SUB_ACK_EVERY: usize = 64;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Distinct id of this function/client (token namespace).
    pub fid: FunctionId,
    /// Initial retransmit backoff for in-flight operations; doubles per
    /// retransmission up to [`ClientConfig::max_retry`].
    pub retry: Duration,
    /// Cap of the exponential retransmit backoff.
    pub max_retry: Duration,
    /// Overall per-operation deadline.
    pub deadline: Duration,
    /// Maximum appends in flight at once through
    /// [`FlexLogClient::append_pipelined`]; the blocking
    /// [`FlexLogClient::append`] rides on top of it.
    pub pipeline_window: usize,
    /// Observability surface: append latency histograms plus the
    /// `ClientSend`/`ClientRetransmit`/`ClientAck` trace stages.
    pub obs: ObsHandle,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            fid: FunctionId(1),
            retry: Duration::from_millis(100),
            max_retry: Duration::from_secs(2),
            deadline: Duration::from_secs(30),
            pipeline_window: 32,
            obs: ObsHandle::default(),
        }
    }
}

/// Errors surfaced to applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The color has no shards (never added).
    UnknownColor(ColorId),
    /// The operation did not complete within the deadline even though the
    /// target shard was (partially) responsive — e.g. appends blocked on a
    /// crashed replica that is expected to recover (§4, §6.3).
    Timeout,
    /// No replica of the target shard acked within the retry budget: the
    /// whole shard is crashed or partitioned away from this client. Unlike
    /// [`ClientError::Timeout`] this fires *before* the global deadline.
    ShardUnreachable(ShardId),
    /// The client's endpoint is gone.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::UnknownColor(c) => write!(f, "color {c} has no shards"),
            ClientError::Timeout => write!(f, "operation timed out"),
            ClientError::ShardUnreachable(s) => {
                write!(f, "no replica of shard {s:?} reachable within retry budget")
            }
            ClientError::Disconnected => write!(f, "client endpoint disconnected"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Capped exponential backoff with multiplicative jitter.
///
/// Deterministic given the caller's RNG: the chaos harness replays client
/// schedules from a seed, so the backoff sequence must be a pure function
/// of (config, rng stream).
#[derive(Clone, Debug)]
pub(crate) struct Backoff {
    current: Duration,
    max: Duration,
    jitter: f64,
}

impl Backoff {
    pub(crate) fn new(initial: Duration, max: Duration, jitter: f64) -> Self {
        Backoff {
            current: initial.max(Duration::from_micros(1)),
            max: max.max(initial),
            jitter: jitter.clamp(0.0, 4.0),
        }
    }

    fn from_config(config: &ClientConfig) -> Self {
        Backoff::new(config.retry, config.max_retry, RETRY_JITTER)
    }

    /// The next wait interval: current backoff plus jitter, then doubles the
    /// base (capped).
    pub(crate) fn next_wait(&mut self, rng: &mut StdRng) -> Duration {
        let base = self.current;
        self.current = (base * 2).min(self.max);
        if self.jitter <= 0.0 {
            return base;
        }
        base.mul_f64(1.0 + rng.gen_range(0.0..self.jitter))
    }
}

/// Merges one replica's post-trim `[head, tail]` report into the running
/// span. The remaining head across replicas is the **minimum** present head
/// (a replica that still holds an older record defines where the log now
/// starts); the tail is the maximum. `None` means "this replica holds no
/// records", which must not mask another replica's surviving records.
pub(crate) fn merge_span(
    span: &mut (Option<SeqNum>, Option<SeqNum>),
    head: Option<SeqNum>,
    tail: Option<SeqNum>,
) {
    span.0 = match (span.0, head) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    span.1 = span.1.max(tail);
}

/// Handle of a standing push subscription opened with
/// [`FlexLogClient::subscribe_push`]: drain it with
/// [`FlexLogClient::poll_subscription`], close it with
/// [`FlexLogClient::unsubscribe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Subscription(u64);

/// One per-shard stream of a push subscription. The wire id (`sub` in the
/// protocol messages) identifies the stream cluster-wide; the serving
/// replica may change under it (migration handoff, crash re-attach).
struct SubStream {
    shard: ShardId,
    /// Last known server of this stream. Updated to whoever pushes —
    /// a migration destination that adopted the cursor takes over silently.
    target: NodeId,
    /// Highest SN acknowledged to the server. Everything at or below is
    /// delivered and will never legitimately arrive again.
    sent_ack: SeqNum,
    /// SNs delivered but not yet acked (> `sent_ack`): the dedup window
    /// for handoff/re-attach re-pushes. Pruned on every ack.
    delivered: BTreeSet<SeqNum>,
    /// Records delivered since the last ack (lazy-ack budget).
    unacked: usize,
    last_ack: Instant,
    last_heard: Instant,
}

/// Client-side state of one push subscription (one color, one stream per
/// shard of the color).
struct SubState {
    color: ColorId,
    /// Wire id → stream.
    streams: HashMap<u64, SubStream>,
    /// Records received and not yet handed to the application, in arrival
    /// order (per-stream SN order).
    ready: Vec<CommittedRecord>,
    /// Terminal error (color dropped): surfaced on the next poll.
    dead: Option<ClientError>,
}

/// One append in flight: the only append state machine of the client.
struct InflightAppend {
    color: ColorId,
    shard: ShardId,
    replicas: Arc<[NodeId]>,
    /// The retransmittable message (its batch is shared — a retransmit
    /// clones a reference count, not a list or a byte).
    msg: ClusterMsg,
    /// Bit `i` set: `replicas[i]` acked.
    acked: u64,
    backoff: Backoff,
    retry_at: Instant,
    silent_rounds: u32,
    deadline: Instant,
    /// When the op entered the pipeline (per-op append latency).
    started: Instant,
}

/// See module docs.
pub struct FlexLogClient {
    ep: Endpoint<ClusterMsg>,
    topology: Catalog,
    config: ClientConfig,
    token_counter: u32,
    req_counter: u64,
    rng: StdRng,
    /// Appends awaiting their full replica ack set, by token.
    inflight: FastMap<Token, InflightAppend>,
    /// Appends that completed but were not yet handed out.
    completed: Vec<(Token, SeqNum)>,
    /// Appends that failed, each with its own error: a blocking `append`
    /// takes its own token's, the rest surface one per call from the next
    /// `append_pipelined` / `flush`.
    failed: Vec<(Token, ClientError)>,
    /// The pump's receive buffer, kept across passes.
    burst: Vec<(NodeId, ClusterMsg)>,
    /// End-to-end append latency, serial and pipelined alike
    /// (`client.append_ns`).
    append_hist: Histogram,
    /// Push subscriptions by handle.
    subscriptions: HashMap<u64, SubState>,
    /// Stream wire id → owning subscription handle.
    sub_index: HashMap<u64, u64>,
    sub_counter: u64,
}

impl FlexLogClient {
    pub fn new(ep: Endpoint<ClusterMsg>, topology: Catalog, config: ClientConfig) -> Self {
        let seed = ep.id().0 ^ 0x5EED;
        let append_hist = config.obs.histogram("client.append_ns");
        FlexLogClient {
            ep,
            topology,
            config,
            token_counter: 0,
            req_counter: 0,
            rng: StdRng::seed_from_u64(seed),
            inflight: FastMap::default(),
            completed: Vec::new(),
            failed: Vec::new(),
            burst: Vec::new(),
            append_hist,
            subscriptions: HashMap::new(),
            sub_index: HashMap::new(),
            sub_counter: 0,
        }
    }

    /// This client's function id.
    pub fn fid(&self) -> FunctionId {
        self.config.fid
    }

    /// The underlying endpoint id.
    pub fn node_id(&self) -> NodeId {
        self.ep.id()
    }

    fn next_token(&mut self) -> Token {
        self.token_counter += 1;
        Token::new(self.config.fid, self.token_counter)
    }

    fn next_req(&mut self) -> u64 {
        self.req_counter += 1;
        // Namespace by fid so concurrent clients never collide.
        ((self.config.fid.0 as u64) << 32) | self.req_counter
    }

    /// Appends `payloads` to the log of color `color`; returns the SN of the
    /// last record (Table 2 `Append(r[], c)`). Blocks until every replica of
    /// the shard acked — a pipelined append awaited at once; appends already
    /// in the pipeline keep progressing meanwhile, and a failure of one of
    /// them is not this call's (it surfaces from the next
    /// [`FlexLogClient::append_pipelined`] / [`FlexLogClient::flush`]).
    pub fn append(&mut self, color: ColorId, payloads: &[Payload]) -> Result<SeqNum, ClientError> {
        let shard = self
            .topology
            .random_shard_of(color, |n| self.rng.gen_range(0..n))
            .ok_or(ClientError::UnknownColor(color))?;
        let token = self.start_append(color, shard, payloads);
        self.await_append(token)
    }

    /// Puts one append in flight against `shard` (multi-append must keep
    /// all its sets on one shard; everyone else picks a random one).
    fn start_append(&mut self, color: ColorId, shard: ShardInfo, payloads: &[Payload]) -> Token {
        let started = Instant::now();
        let token = self.next_token();
        let msg: ClusterMsg = AppendMsg::Append {
            color,
            token,
            payloads: Batch::from(payloads), // refcount bumps, not byte copies
            reply_to: self.ep.id(),
        }
        .into();
        assert!(shard.replicas.len() <= 64, "one ack bit per replica");
        self.config
            .obs
            .trace_event(token, Stage::ClientSend, self.ep.id().0, 0);
        let _ = self.ep.broadcast(&shard.replicas, msg.clone());
        let mut backoff = Backoff::from_config(&self.config);
        let retry_at = started + backoff.next_wait(&mut self.rng);
        self.inflight.insert(
            token,
            InflightAppend {
                color,
                shard: shard.id,
                replicas: shard.replicas,
                msg,
                acked: 0,
                backoff,
                retry_at,
                silent_rounds: 0,
                deadline: started + self.config.deadline,
                started,
            },
        );
        token
    }

    /// Pumps until the append `token` is out of flight and returns its —
    /// and only its — outcome.
    fn await_append(&mut self, token: Token) -> Result<SeqNum, ClientError> {
        while self.inflight.contains_key(&token) {
            self.pump_inflight()?;
        }
        if let Some(i) = self.failed.iter().position(|&(t, _)| t == token) {
            return Err(self.failed.remove(i).1);
        }
        let i = self.completed.iter().rposition(|&(t, _)| t == token);
        Ok(self.completed.remove(i.expect("an append leaves flight completed or failed")).1)
    }

    /// Takes an append out of flight with its outcome.
    fn finish_append(&mut self, token: Token, outcome: Result<SeqNum, ClientError>) {
        let Some(op) = self.inflight.remove(&token) else {
            return;
        };
        match outcome {
            Ok(sn) => {
                self.append_hist.record_ns(op.started.elapsed());
                self.config
                    .obs
                    .trace_event(token, Stage::ClientAck, self.ep.id().0, 0);
                self.completed.push((token, sn));
            }
            Err(e) => self.failed.push((token, e)),
        }
    }

    /// Reports the oldest failure of a pipelined append not yet reported.
    fn take_failure(&mut self) -> Result<(), ClientError> {
        if self.failed.is_empty() {
            return Ok(());
        }
        Err(self.failed.remove(0).1)
    }

    // ----- request/response rounds ----------------------------------------

    /// One scatter-gather round, the only blocking reply loop of the
    /// client: broadcasts `msg` to `targets`, then feeds arriving data
    /// messages to `on_reply` until it completes the round (`Ok(Some)`) or
    /// the next backoff interval elapses (`Ok(None)` — the caller
    /// retransmits; every operation is idempotent). `on_reply` hands back
    /// (`Err`) whatever is not the reply it awaits, and that goes to
    /// [`FlexLogClient::note_stray`].
    fn round<T>(
        &mut self,
        targets: &[NodeId],
        msg: ClusterMsg,
        backoff: &mut Backoff,
        mut on_reply: impl FnMut(NodeId, DataMsg) -> Result<Option<T>, DataMsg>,
    ) -> Result<Option<T>, ClientError> {
        let _ = self.ep.broadcast(targets, msg);
        let retry_at = Instant::now() + backoff.next_wait(&mut self.rng);
        loop {
            let left = retry_at.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            match self.ep.recv_timeout(left) {
                Ok((from, ClusterMsg::Data(m))) => match on_reply(from, m) {
                    Ok(Some(done)) => return Ok(Some(done)),
                    Ok(None) => {}
                    Err(stray) => self.note_stray(from, stray.into()),
                },
                Ok((_, ClusterMsg::Order(_))) => {}
                Err(RecvError::Timeout) => return Ok(None),
                Err(RecvError::Disconnected) => return Err(ClientError::Disconnected),
            }
        }
    }

    /// Repeats `attempt_round(self, attempt, backoff)` — one
    /// [`FlexLogClient::round`] against freshly resolved targets — with
    /// capped exponential backoff until a round completes or the
    /// per-operation deadline passes.
    fn retry_rounds<T>(
        &mut self,
        mut attempt_round: impl FnMut(&mut Self, u32, &mut Backoff) -> Result<Option<T>, ClientError>,
    ) -> Result<T, ClientError> {
        let deadline = Instant::now() + self.config.deadline;
        let mut backoff = Backoff::from_config(&self.config);
        let mut attempt = 0u32;
        loop {
            if let Some(done) = attempt_round(self, attempt, &mut backoff)? {
                return Ok(done);
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
            attempt += 1;
        }
    }

    /// The one place a message that is not the awaited reply is handled,
    /// whichever loop received it: acks and nacks of appends in flight are
    /// credited, pushes and redirects of standing subscriptions routed.
    /// Everything else is a stale reply to an earlier round of a blocking
    /// operation (or server-bound traffic a client never acts on).
    fn note_stray(&mut self, from: NodeId, msg: ClusterMsg) {
        match msg {
            ClusterMsg::Data(DataMsg::Append(m)) => match m {
                AppendMsg::AppendAck { acks } => {
                    for (token, last_sn) in acks {
                        self.note_ack(from, token, last_sn);
                    }
                }
                AppendMsg::Rejected { token, reason } => self.note_reject(from, token, reason),
                AppendMsg::MultiAck { .. }
                | AppendMsg::Append { .. }
                | AppendMsg::MultiEnd { .. } => {}
            },
            ClusterMsg::Data(DataMsg::Sub(m)) => match m {
                SubMsg::SubPushBatch { sub, records, .. } => self.note_push(from, sub, records),
                SubMsg::SubRedirect { sub, color, reason } => {
                    self.note_redirect(from, sub, color, reason)
                }
                SubMsg::SubscribeFrom { .. } | SubMsg::SubAck { .. } | SubMsg::SubCancel { .. } => {}
            },
            ClusterMsg::Data(
                DataMsg::Read(_) | DataMsg::Sync(_) | DataMsg::Ctrl(_) | DataMsg::Shutdown,
            )
            | ClusterMsg::Order(_) => {}
        }
    }

    // ----- pipelined appends ----------------------------------------------

    /// Starts an append without waiting for its acks; returns its completion
    /// token. Up to [`ClientConfig::pipeline_window`] appends ride in flight
    /// at once — when the window is full, this blocks until one completes.
    /// Collect results (token → last SN, unordered) with
    /// [`FlexLogClient::flush`].
    ///
    /// Ordering note: records still serialize through the sequencer, but
    /// SNs of concurrently in-flight appends may interleave with other
    /// clients arbitrarily — same semantics as issuing the appends from
    /// `pipeline_window` independent serial clients.
    pub fn append_pipelined(
        &mut self,
        color: ColorId,
        payloads: &[Payload],
    ) -> Result<Token, ClientError> {
        let window = self.config.pipeline_window.max(1);
        loop {
            self.take_failure()?;
            if self.inflight.len() < window {
                break;
            }
            self.pump_inflight()?;
        }
        let shard = self
            .topology
            .random_shard_of(color, |n| self.rng.gen_range(0..n))
            .ok_or(ClientError::UnknownColor(color))?;
        Ok(self.start_append(color, shard, payloads))
    }

    /// Drives every in-flight pipelined append to completion and returns
    /// the accumulated `(token, last SN)` results, in completion order.
    ///
    /// On error (a shard unreachable or an op past its deadline) the failed
    /// op is dropped and the error returned; other in-flight ops stay
    /// queued and a later `flush` can still complete them.
    pub fn flush(&mut self) -> Result<Vec<(Token, SeqNum)>, ClientError> {
        // The per-op deadlines were stamped when each append *entered* the
        // pipeline, which may be long before this call — a deep window
        // could expire ops the moment flush starts even though the cluster
        // is healthy. The configured deadline bounds the *flush*, so give
        // every in-flight op the full budget from flush entry (never
        // shortening a later deadline).
        let flush_deadline = Instant::now() + self.config.deadline;
        for op in self.inflight.values_mut() {
            op.deadline = op.deadline.max(flush_deadline);
        }
        loop {
            self.take_failure()?;
            if self.inflight.is_empty() {
                return Ok(std::mem::take(&mut self.completed));
            }
            self.pump_inflight()?;
        }
    }

    /// Number of pipelined appends currently in flight.
    pub fn pending_appends(&self) -> usize {
        self.inflight.len()
    }

    /// Adjusts the pipelined-append window at runtime (clamped to ≥ 1).
    /// Shrinking it does not cancel ops already in flight.
    pub fn set_pipeline_window(&mut self, window: usize) {
        self.config.pipeline_window = window.max(1);
    }

    /// Takes the pipelined appends that have completed so far without
    /// blocking (completion-order `(token, last SN)` pairs). Useful for
    /// latency tracking while the window keeps pumping; [`FlexLogClient::flush`]
    /// returns anything not collected here.
    pub fn take_completed(&mut self) -> Vec<(Token, SeqNum)> {
        std::mem::take(&mut self.completed)
    }

    /// One bounded scheduling step of the appends in flight: wait for acks
    /// until the earliest retransmit is due, credit arrivals, then
    /// retransmit/expire whatever is overdue. Fails only with the endpoint;
    /// an op's own failure goes through [`FlexLogClient::finish_append`].
    fn pump_inflight(&mut self) -> Result<(), ClientError> {
        let next_due = self
            .inflight
            .values()
            .map(|op| op.retry_at)
            .min()
            .expect("pumped with appends in flight");
        let mut wait = next_due.saturating_duration_since(Instant::now());
        // Acks arrive in bursts (each replica of the shard acks a wake's
        // tokens in one message, and the replicas wake together): drain
        // each burst under one inbox lock.
        let mut burst = std::mem::take(&mut self.burst);
        loop {
            match self.ep.recv_batch(wait, 256, &mut burst) {
                Ok(_) => {
                    for (from, msg) in burst.drain(..) {
                        self.note_stray(from, msg);
                    }
                    // Keep draining whatever already queued, without waiting.
                    wait = Duration::ZERO;
                }
                Err(RecvError::Timeout) => break,
                Err(RecvError::Disconnected) => return Err(ClientError::Disconnected),
            }
            if Instant::now() >= next_due {
                break;
            }
        }
        self.burst = burst;
        // Retransmit overdue ops; fail the expired ones.
        let now = Instant::now();
        let overdue: Vec<Token> = self
            .inflight
            .iter()
            .filter(|(_, op)| now >= op.retry_at)
            .map(|(&t, _)| t)
            .collect();
        for token in overdue {
            let op = self.inflight.get_mut(&token).expect("collected above");
            if op.acked == 0 {
                // Not a single replica has ever acked: the whole shard looks
                // crashed or partitioned away. Fail fast instead of burning
                // the full deadline (recovery of a *partially* acked append
                // still waits — that path is expected to complete).
                op.silent_rounds += 1;
                if op.silent_rounds >= UNREACHABLE_AFTER {
                    let unreachable = ClientError::ShardUnreachable(op.shard);
                    self.finish_append(token, Err(unreachable));
                    continue;
                }
            }
            if now >= op.deadline {
                self.finish_append(token, Err(ClientError::Timeout));
                continue;
            }
            self.config
                .obs
                .trace_event(token, Stage::ClientRetransmit, self.ep.id().0, 0);
            let _ = self.ep.broadcast(&op.replicas, op.msg.clone());
            op.retry_at = now + op.backoff.next_wait(&mut self.rng);
        }
        Ok(())
    }

    /// Credits one entry of an [`AppendMsg::AppendAck`] against the
    /// matching append, completing it when *every* replica has committed
    /// (Algorithm 1, line 8) — the basis of linearizable local reads.
    fn note_ack(&mut self, from: NodeId, token: Token, last_sn: SeqNum) {
        let Some(op) = self.inflight.get_mut(&token) else {
            return; // duplicate ack of an already-completed op
        };
        // Only the shard's own replicas count towards completion — a stray
        // ack from a node outside the replica set (misrouted or stale
        // topology) must not let the append return before all true
        // replicas committed.
        let Some(i) = op.replicas.iter().position(|&r| r == from) else {
            return;
        };
        op.acked |= 1 << i;
        if op.acked.count_ones() as usize == op.replicas.len() {
            self.finish_append(token, Ok(last_sn));
        }
    }

    /// Applies an [`AppendMsg::Rejected`] nack to the matching append
    /// (reconfiguration fencing: re-route or fail). A frozen color sends
    /// none: the replicas hold the append and answer it when the freeze
    /// ends, like a stalled sync round.
    fn note_reject(&mut self, from: NodeId, token: Token, reason: RejectReason) {
        let Some(op) = self.inflight.get_mut(&token) else {
            return;
        };
        if !op.replicas.contains(&from) {
            return;
        }
        // A nack proves the shard is alive: never count it towards the
        // unreachable fail-fast.
        op.silent_rounds = 0;
        match reason {
            RejectReason::ColorMoved => {
                // Cutover happened: re-resolve the shard and retransmit
                // there on the next pump. The token makes the retry
                // idempotent even if some old replica already committed.
                let draw = |n| self.rng.gen_range(0..n);
                if let Some(s) = self.topology.random_shard_of(op.color, draw) {
                    if s.id != op.shard {
                        op.shard = s.id;
                        op.replicas = s.replicas;
                        op.acked = 0;
                    }
                }
                op.retry_at = Instant::now();
            }
            RejectReason::Dropped => {
                let gone = ClientError::UnknownColor(op.color);
                self.finish_append(token, Err(gone));
            }
        }
    }

    /// One read target of every shard of `color` (§6.1 read protocol),
    /// re-resolved every round: a crashed read replica or a mid-op cutover
    /// changes the target set. The first attempt prefers read replicas; a
    /// silent round falls back to the write quorum, which is always correct.
    fn read_targets(&mut self, color: ColorId, attempt: u32) -> Result<Vec<NodeId>, ClientError> {
        let shards = self.topology.shards_of(color);
        if shards.is_empty() {
            return Err(ClientError::UnknownColor(color));
        }
        Ok(shards
            .iter()
            .map(|s| {
                if attempt == 0 {
                    s.random_read_target(|n| self.rng.gen_range(0..n))
                } else {
                    s.replicas[self.rng.gen_range(0..s.replicas.len())]
                }
            })
            .collect())
    }

    /// Reads the record with sequence number `sn` from the `color` log
    /// (Table 2 `Read(SN, c)`); `None` means no record holds that SN.
    pub fn read(&mut self, color: ColorId, sn: SeqNum) -> Result<Option<Payload>, ClientError> {
        self.retry_rounds(|c, attempt, backoff| {
            let targets = c.read_targets(color, attempt)?;
            let req = c.next_req();
            let mut answers = 0usize;
            c.round(&targets, ReadMsg::Read { color, sn, req }.into(), backoff, |_, m| match m {
                DataMsg::Read(ReadMsg::ReadResp { req: r, value }) if r == req => {
                    answers += 1;
                    // Only one shard stores any given record; ⊥ needs
                    // every shard's word.
                    let decided = value.is_some() || answers == targets.len();
                    Ok(decided.then_some(value))
                }
                m => Err(m),
            })
        })
    }

    /// Returns all records of the `color` log with SN > `from`, merged
    /// across shards in SN order (Table 2 `Subscribe(c)` with an offset for
    /// incremental consumption).
    pub fn subscribe_from(
        &mut self,
        color: ColorId,
        from: SeqNum,
    ) -> Result<Vec<CommittedRecord>, ClientError> {
        self.retry_rounds(|c, attempt, backoff| {
            let targets = c.read_targets(color, attempt)?;
            let req = c.next_req();
            let (mut slices, mut all) = (0usize, Vec::new());
            c.round(&targets, ReadMsg::Subscribe { color, from, req }.into(), backoff, |_, m| {
                match m {
                    DataMsg::Read(ReadMsg::SubscribeResp { req: r, records }) if r == req => {
                        slices += 1;
                        all.extend(records);
                        if slices < targets.len() {
                            return Ok(None);
                        }
                        // Reconstruct the colored log by sorting on SN
                        // (§6.2 subscribe protocol).
                        all.sort_by_key(|r| r.sn);
                        all.dedup_by_key(|r| r.sn);
                        Ok(Some(std::mem::take(&mut all)))
                    }
                    m => Err(m),
                }
            })
        })
    }

    /// `Subscribe(c)`: the full current contents of the colored log.
    pub fn subscribe(&mut self, color: ColorId) -> Result<Vec<CommittedRecord>, ClientError> {
        self.subscribe_from(color, SeqNum::ZERO)
    }

    // ----- push subscriptions ---------------------------------------------

    /// Opens a standing push subscription on `color` starting above `from`:
    /// one stream per shard of the color, each registered on a read target
    /// (read replicas when the shard has them). The servers push committed
    /// spans from then on; drain them with
    /// [`FlexLogClient::poll_subscription`].
    ///
    /// Delivery: per stream in SN order while its serving replica lives
    /// (exactly the pull [`FlexLogClient::subscribe_from`] sequence); under
    /// crashes and migrations at-least-once past the acked cursor, with
    /// duplicates suppressed client-side. A rare commit that lands *below*
    /// an already-pushed SN (a commit-order hole filling late, §6.3) is
    /// delivered out of band and therefore out of order.
    pub fn subscribe_push_from(
        &mut self,
        color: ColorId,
        from: SeqNum,
    ) -> Result<Subscription, ClientError> {
        let shards = self.topology.shards_of(color);
        if shards.is_empty() {
            return Err(ClientError::UnknownColor(color));
        }
        self.sub_counter += 1;
        let key = self.sub_counter;
        let now = Instant::now();
        let streams: Vec<(u64, SubStream)> = shards
            .iter()
            .map(|shard| {
                let stream = SubStream {
                    shard: shard.id,
                    target: shard.replicas[0], // until `attach_stream` picks one
                    sent_ack: from,
                    delivered: BTreeSet::new(),
                    unacked: 0,
                    last_ack: now,
                    last_heard: now,
                };
                (self.next_req(), stream)
            })
            .collect();
        let wires: Vec<u64> = streams.iter().map(|&(wire, _)| wire).collect();
        self.subscriptions.insert(
            key,
            SubState {
                color,
                streams: streams.into_iter().collect(),
                ready: Vec::new(),
                dead: None,
            },
        );
        for wire in wires {
            self.sub_index.insert(wire, key);
            self.attach_stream(key, wire);
        }
        Ok(Subscription(key))
    }

    /// [`FlexLogClient::subscribe_push_from`] from the beginning of the log.
    pub fn subscribe_push(&mut self, color: ColorId) -> Result<Subscription, ClientError> {
        self.subscribe_push_from(color, SeqNum::ZERO)
    }

    /// Waits up to `wait` for pushed records on `sub` and returns whatever
    /// arrived (possibly empty). Records are in per-stream SN order; acks
    /// flow back automatically. Returns [`ClientError::UnknownColor`] once
    /// the color is dropped — the subscription is then closed.
    pub fn poll_subscription(
        &mut self,
        sub: Subscription,
        wait: Duration,
    ) -> Result<Vec<CommittedRecord>, ClientError> {
        let deadline = Instant::now() + wait;
        loop {
            {
                let Some(state) = self.subscriptions.get_mut(&sub.0) else {
                    return Err(ClientError::Disconnected); // unknown handle
                };
                if let Some(e) = state.dead {
                    return Err(e); // terminal; unsubscribe() cleans up
                }
                if !state.ready.is_empty() {
                    return Ok(std::mem::take(&mut state.ready));
                }
            }
            self.reattach_silent_streams(sub.0);
            let now = Instant::now();
            if now >= deadline {
                return Ok(Vec::new());
            }
            let mut burst: Vec<(NodeId, ClusterMsg)> = Vec::new();
            match self.ep.recv_batch(deadline - now, 256, &mut burst) {
                Ok(_) => {
                    for (from, msg) in burst.drain(..) {
                        self.note_stray(from, msg);
                    }
                }
                Err(RecvError::Timeout) => return Ok(Vec::new()),
                Err(RecvError::Disconnected) => return Err(ClientError::Disconnected),
            }
        }
    }

    /// Closes a push subscription: cancels every stream server-side.
    pub fn unsubscribe(&mut self, sub: Subscription) {
        self.close_subscription(sub.0, true);
    }

    fn close_subscription(&mut self, key: u64, cancel: bool) {
        let Some(state) = self.subscriptions.remove(&key) else {
            return;
        };
        for (wire, stream) in state.streams {
            self.sub_index.remove(&wire);
            if cancel {
                let _ = self
                    .ep
                    .send(stream.target, SubMsg::SubCancel { sub: wire }.into());
            }
        }
    }

    /// (Re-)registers stream `wire` of subscription `key` from its acked
    /// cursor — the one way a stream gets a server, at open, after silence
    /// and after a redirect. The stream keeps its shard while that still
    /// serves the color; otherwise it takes the first shard of the color no
    /// sibling stream covers. Re-pushed records dedup.
    fn attach_stream(&mut self, key: u64, wire: u64) {
        let Some(state) = self.subscriptions.get_mut(&key) else {
            return;
        };
        let Some(own) = state.streams.get(&wire).map(|s| s.shard) else {
            return;
        };
        let shards = self.topology.shards_of(state.color);
        let covered =
            |id: ShardId| state.streams.iter().any(|(&w, s)| w != wire && s.shard == id);
        let Some(info) = shards
            .iter()
            .find(|s| s.id == own)
            .or_else(|| shards.iter().find(|s| !covered(s.id)))
            .or(shards.first())
        else {
            state.dead = Some(ClientError::UnknownColor(state.color));
            return;
        };
        let stream = state.streams.get_mut(&wire).expect("looked up above");
        stream.shard = info.id;
        stream.target = info.random_read_target(|n| self.rng.gen_range(0..n));
        stream.last_heard = Instant::now(); // backs off one silence window
        let register = SubMsg::SubscribeFrom {
            color: state.color,
            from: stream.sent_ack,
            sub: wire,
            reply_to: self.ep.id(),
        };
        let _ = self.ep.send(stream.target, register.into());
    }

    /// Re-attaches every stream of `key` whose server went silent past
    /// [`SUB_SILENCE`] (crashed, partitioned, or the original registration
    /// was lost).
    fn reattach_silent_streams(&mut self, key: u64) {
        let Some(state) = self.subscriptions.get(&key) else {
            return;
        };
        let silent: Vec<u64> = state
            .streams
            .iter()
            .filter(|(_, stream)| stream.last_heard.elapsed() >= SUB_SILENCE)
            .map(|(&wire, _)| wire)
            .collect();
        for wire in silent {
            self.attach_stream(key, wire);
        }
    }

    /// Routes one pushed batch to its stream: dedup against the acked
    /// floor and the delivered window, queue the fresh records, lazily ack.
    /// The sender becomes the stream's server of record — that is how a
    /// migration destination that adopted the cursor takes over.
    fn note_push(&mut self, from: NodeId, wire: u64, records: Vec<CommittedRecord>) {
        let Some(&key) = self.sub_index.get(&wire) else {
            // Unknown stream (unsubscribed, or state lost): stop the flow.
            let _ = self.ep.send(from, SubMsg::SubCancel { sub: wire }.into());
            return;
        };
        let Some(state) = self.subscriptions.get_mut(&key) else {
            return;
        };
        let Some(stream) = state.streams.get_mut(&wire) else {
            return;
        };
        stream.last_heard = Instant::now();
        stream.target = from;
        for r in records {
            if r.sn <= stream.sent_ack || !stream.delivered.insert(r.sn) {
                continue; // duplicate (handoff/re-attach re-push)
            }
            stream.unacked += 1;
            state.ready.push(r);
        }
        // Lazy ack: the acked cursor is what survives crash re-attach and
        // migration handoff; trailing it slightly keeps the server-side
        // late-fill window open.
        let due = stream.unacked >= SUB_ACK_EVERY
            || (stream.unacked > 0 && stream.last_ack.elapsed() >= SUB_ACK_INTERVAL);
        if due {
            if let Some(&upto) = stream.delivered.iter().next_back() {
                stream.sent_ack = upto;
                stream.delivered.clear();
                stream.unacked = 0;
                stream.last_ack = Instant::now();
                let _ = self
                    .ep
                    .send(stream.target, SubMsg::SubAck { sub: wire, upto }.into());
            }
        }
    }

    /// Handles a server-initiated redirect: `Dropped` kills the
    /// subscription terminally; `ColorMoved` re-resolves the topology and
    /// re-registers from the acked cursor — unless a new server (the
    /// migration destination) already took the stream over.
    fn note_redirect(&mut self, from: NodeId, wire: u64, color: ColorId, reason: RejectReason) {
        let Some(&key) = self.sub_index.get(&wire) else {
            return;
        };
        let Some(state) = self.subscriptions.get_mut(&key) else {
            return;
        };
        if reason == RejectReason::Dropped {
            state.dead = Some(ClientError::UnknownColor(color));
            return;
        }
        if state.streams.get(&wire).is_none_or(|stream| stream.target != from) {
            // The cursor handoff already re-homed this stream; the old
            // server's redirect is stale.
            return;
        }
        self.attach_stream(key, wire);
    }

    /// Deletes all records of `color` with SN ≤ `up_to`; returns the
    /// remaining `[head, tail]` span (Table 2 `Trim(SN, c)`).
    pub fn trim(
        &mut self,
        color: ColorId,
        up_to: SeqNum,
    ) -> Result<(Option<SeqNum>, Option<SeqNum>), ClientError> {
        let all_replicas: Vec<NodeId> = self
            .topology
            .shards_of(color)
            .iter()
            .flat_map(|s| s.replicas.iter().copied())
            .collect();
        if all_replicas.is_empty() {
            return Err(ClientError::UnknownColor(color));
        }
        self.retry_rounds(|c, _, backoff| {
            let req = c.next_req();
            let mut acked: HashSet<NodeId> = HashSet::new();
            let mut span = (None, None);
            let msg = ReadMsg::Trim { color, up_to, req }.into();
            c.round(&all_replicas, msg, backoff, |from, m| match m {
                DataMsg::Read(ReadMsg::TrimAck { req: r, head, tail }) if r == req => {
                    acked.insert(from);
                    merge_span(&mut span, head, tail);
                    Ok((acked.len() == all_replicas.len()).then_some(span))
                }
                m => Err(m),
            })
        })
    }

    /// Atomically appends multiple record sets to multiple colors
    /// (Algorithm 2): either every set eventually commits in its target
    /// color, or none does.
    pub fn multi_append(
        &mut self,
        sets: &[(ColorId, Vec<Payload>)],
    ) -> Result<(), ClientError> {
        // Validate targets first so a typo'd color cannot half-commit.
        for (color, _) in sets {
            if !self.topology.knows_color(*color) {
                return Err(ClientError::UnknownColor(*color));
            }
        }
        let broker = self
            .topology
            .random_shard_of(ColorId::MASTER, |n| self.rng.gen_range(0..n))
            .ok_or(ClientError::UnknownColor(ColorId::MASTER))?;
        // Phase 1: stage every set in the special color on ONE shard
        // (Algorithm 2, lines 3–4). These are ordinary appends carrying the
        // target color inside the payload.
        for (color, payloads) in sets {
            let staged = Payload::from(encode_multi_set(*color, payloads));
            let token = self.start_append(ColorId::MASTER, broker.clone(), &[staged]);
            self.await_append(token)?;
        }
        // Phase 2: broadcast the end marker; any single ack completes the
        // operation (Algorithm 2, lines 5–6) — the replicas drive the rest.
        let (fid, reply_to) = (self.config.fid, self.ep.id());
        self.retry_rounds(|c, _, backoff| {
            let req = c.next_req();
            let msg = AppendMsg::MultiEnd { fid, req, reply_to }.into();
            c.round(&broker.replicas, msg, backoff, |_, m| match m {
                DataMsg::Append(AppendMsg::MultiAck { req: r }) if r == req => Ok(Some(())),
                m => Err(m),
            })
        })
    }

    /// The catalog this client routes by.
    pub fn topology(&self) -> &Catalog {
        &self.topology
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use flexlog_types::Epoch;

    fn sn(c: u32) -> SeqNum {
        SeqNum::new(Epoch(1), c)
    }

    #[test]
    fn merge_span_takes_min_head_max_tail() {
        let mut span = (None, None);
        merge_span(&mut span, Some(sn(5)), Some(sn(9)));
        assert_eq!(span, (Some(sn(5)), Some(sn(9))));
        // A replica that still holds an older record lowers the head.
        merge_span(&mut span, Some(sn(3)), Some(sn(7)));
        assert_eq!(span, (Some(sn(3)), Some(sn(9))));
        // A newer tail raises the tail but never the head.
        merge_span(&mut span, Some(sn(6)), Some(sn(12)));
        assert_eq!(span, (Some(sn(3)), Some(sn(12))));
    }

    #[test]
    fn merge_span_empty_replica_does_not_mask_survivors() {
        // First replica reports empty, second holds records: the span is
        // the second's. (The old `max(head)` merge got this wrong — `None`
        // from an empty replica must not win, and neither must a larger
        // head from a replica that trimmed more.)
        let mut span = (None, None);
        merge_span(&mut span, None, None);
        merge_span(&mut span, Some(sn(4)), Some(sn(8)));
        assert_eq!(span, (Some(sn(4)), Some(sn(8))));
        // And the reverse order behaves identically.
        let mut span = (None, None);
        merge_span(&mut span, Some(sn(4)), Some(sn(8)));
        merge_span(&mut span, None, None);
        assert_eq!(span, (Some(sn(4)), Some(sn(8))));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = Backoff::new(Duration::from_millis(100), Duration::from_millis(350), 0.0);
        assert_eq!(b.next_wait(&mut rng), Duration::from_millis(100));
        assert_eq!(b.next_wait(&mut rng), Duration::from_millis(200));
        assert_eq!(b.next_wait(&mut rng), Duration::from_millis(350));
        assert_eq!(b.next_wait(&mut rng), Duration::from_millis(350));
    }

    #[test]
    fn backoff_jitter_bounded_and_deterministic() {
        let base = Duration::from_millis(100);
        let mut a = Backoff::new(base, Duration::from_secs(2), 0.25);
        let mut b = Backoff::new(base, Duration::from_secs(2), 0.25);
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut expected_base = base;
        for _ in 0..6 {
            let wa = a.next_wait(&mut rng_a);
            let wb = b.next_wait(&mut rng_b);
            assert_eq!(wa, wb, "same seed, same backoff schedule");
            assert!(wa >= expected_base, "jitter only lengthens: {wa:?}");
            assert!(
                wa <= expected_base.mul_f64(1.25),
                "jitter bounded by fraction: {wa:?} vs {expected_base:?}"
            );
            expected_base = (expected_base * 2).min(Duration::from_secs(2));
        }
    }
}
