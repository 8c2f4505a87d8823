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
//! Two append shapes exist:
//!
//! * [`FlexLogClient::append`] — one in flight, blocks until the batch's SN
//!   returns (the classic Algorithm 1 interaction);
//! * [`FlexLogClient::append_pipelined`] + [`FlexLogClient::flush`] — a
//!   bounded window of appends in flight at once, acks tracked out of
//!   order per token. The token protocol already makes every append
//!   idempotent and self-identifying, so pipelining needs no new wire
//!   messages — only client-side bookkeeping. Payloads travel as
//!   refcounted [`Payload`]s: retransmits and shard-wide broadcasts never
//!   copy record bytes.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use flexlog_obs::{Histogram, ObsHandle, Stage};
use flexlog_simnet::{Endpoint, NodeId, RecvError};
use flexlog_types::{ColorId, CommittedRecord, FunctionId, Payload, SeqNum, ShardId, Token};

use crate::msg::{AppendMsg, ClusterMsg, DataMsg, ReadMsg, RejectReason, SubMsg};
use crate::replica::encode_multi_set;
use crate::TopologyView;

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
    /// Jitter fraction applied to every backoff interval: the actual wait is
    /// uniform in `[interval, interval * (1 + jitter)]`. Desynchronizes
    /// retransmit storms from many clients hammering a recovering shard.
    pub jitter: f64,
    /// Retransmission rounds of an append with **zero** acks from the target
    /// shard before the op fails fast with [`ClientError::ShardUnreachable`].
    /// Partial acks never trip this — a shard mid-recovery keeps the op
    /// blocking until `deadline` (the §4 CAP choice).
    pub unreachable_after: u32,
    /// Overall per-operation deadline.
    pub deadline: Duration,
    /// Maximum appends in flight at once through
    /// [`FlexLogClient::append_pipelined`]; the serial
    /// [`FlexLogClient::append`] ignores it.
    pub pipeline_window: usize,
    /// Push-subscription liveness: after this long without any batch or
    /// heartbeat from a stream's server, the client re-resolves a read
    /// target and re-registers from its acked cursor. Should be a few
    /// multiples of the servers' heartbeat interval.
    pub sub_silence: Duration,
    /// Push-subscription ack cadence: an [`SubMsg::SubAck`] goes out when
    /// this much time passed since the last one (or the record budget
    /// below is hit). Lazy acks keep the server-side fill window open for
    /// late hole fills.
    pub sub_ack_interval: Duration,
    /// Records delivered since the last ack that force one immediately.
    pub sub_ack_every: usize,
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
            jitter: 0.25,
            unreachable_after: 8,
            deadline: Duration::from_secs(30),
            pipeline_window: 32,
            sub_silence: Duration::from_millis(600),
            sub_ack_interval: Duration::from_millis(50),
            sub_ack_every: 64,
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
        Backoff::new(config.retry, config.max_retry, config.jitter)
    }

    /// The next wait interval: current backoff plus jitter, then doubles the
    /// base (capped).
    pub(crate) fn next_wait(&mut self, rng: &mut StdRng) -> Duration {
        let base = self.current;
        self.current = (base * 2).min(self.max);
        if self.jitter <= 0.0 {
            return base;
        }
        use rand::Rng;
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

/// One append in flight through the pipelined path.
struct InflightAppend {
    color: ColorId,
    shard: ShardId,
    replicas: Vec<NodeId>,
    /// The retransmittable message (payloads inside are refcounted — a
    /// retransmit clones pointers, not bytes).
    msg: ClusterMsg,
    acked: HashSet<NodeId>,
    last_sn: Option<SeqNum>,
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
    topology: TopologyView,
    config: ClientConfig,
    token_counter: u32,
    req_counter: u64,
    rng: StdRng,
    /// Pipelined appends awaiting their full replica ack set, by token.
    inflight: HashMap<Token, InflightAppend>,
    /// Pipelined appends that completed but were not yet handed out.
    completed: Vec<(Token, SeqNum)>,
    /// End-to-end append latency, serial and pipelined alike
    /// (`client.append_ns`).
    append_hist: Histogram,
    /// Terminal failure (e.g. a `Dropped` reject) discovered while pumping
    /// pipelined appends; surfaced on the next pump.
    pending_error: Option<ClientError>,
    /// Push subscriptions by handle.
    subscriptions: HashMap<u64, SubState>,
    /// Stream wire id → owning subscription handle.
    sub_index: HashMap<u64, u64>,
    sub_counter: u64,
}

impl FlexLogClient {
    pub fn new(ep: Endpoint<ClusterMsg>, topology: TopologyView, config: ClientConfig) -> Self {
        let seed = ep.id().0 ^ 0x5EED;
        let append_hist = config.obs.histogram("client.append_ns");
        FlexLogClient {
            ep,
            topology,
            config,
            token_counter: 0,
            req_counter: 0,
            rng: StdRng::seed_from_u64(seed),
            inflight: HashMap::new(),
            completed: Vec::new(),
            append_hist,
            pending_error: None,
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
    /// last record (Table 2 `Append(r[], c)`).
    pub fn append(&mut self, color: ColorId, payloads: &[Payload]) -> Result<SeqNum, ClientError> {
        let shard = self
            .topology
            .random_shard_of(color, &mut self.rng)
            .ok_or(ClientError::UnknownColor(color))?;
        let token = self.next_token();
        self.append_to_shard(color, token, shard.id, &shard.replicas, payloads)
    }

    /// The append protocol against a fixed replica set (used by
    /// multi-append, which must keep all sets on one shard).
    fn append_to_shard(
        &mut self,
        color: ColorId,
        token: Token,
        shard: ShardId,
        replicas: &[NodeId],
        payloads: &[Payload],
    ) -> Result<SeqNum, ClientError> {
        let msg: ClusterMsg = AppendMsg::Append {
            color,
            token,
            payloads: payloads.to_vec(), // refcount bumps, not byte copies
            reply_to: self.ep.id(),
        }
        .into();
        let started = Instant::now();
        let op_budget = self.config.deadline;
        let mut deadline = started + op_budget;
        let mut backoff = Backoff::from_config(&self.config);
        let mut silent_rounds: u32 = 0;
        let mut acked: HashSet<NodeId> = HashSet::new();
        // A migration cutover may re-home the color mid-op; the replica set
        // is then re-resolved from the topology (the token keeps the retry
        // idempotent across the move).
        let mut shard = shard;
        let mut replicas: Vec<NodeId> = replicas.to_vec();
        let mut stage = Stage::ClientSend;
        loop {
            self.config.obs.trace_event(token, stage, self.ep.id().0, 0);
            stage = Stage::ClientRetransmit;
            let mut frozen = false;
            let outcome = self.round(&replicas, msg.clone(), &mut backoff, |from, m| match m {
                DataMsg::Append(AppendMsg::AppendAck { token: t, last_sn }) if t == token => {
                    // Only the shard's own replicas count towards
                    // completion — a stray ack from a node outside the
                    // replica set (misrouted or stale topology) must not
                    // let the append return before all true replicas
                    // committed.
                    if replicas.contains(&from) {
                        acked.insert(from);
                    }
                    // Complete when *every* replica has committed
                    // (Algorithm 1, line 8) — the basis of linearizable
                    // local reads.
                    Ok((acked.len() == replicas.len()).then_some(Ok(last_sn)))
                }
                DataMsg::Append(AppendMsg::Rejected { token: t, reason }) if t == token => {
                    // Any nack proves the shard is alive — don't let a
                    // fence trip the unreachable fail-fast.
                    silent_rounds = 0;
                    if reason != RejectReason::Frozen {
                        return Ok(Some(Err(reason)));
                    }
                    // Migration in progress: the pre-cutover shard still
                    // answers. Re-base the deadline — time spent frozen is
                    // the migration's fault, not the shard being slow, and
                    // must not surface as Timeout once the freeze lifts
                    // (same rule as `flush()` re-basing queued ops).
                    deadline = deadline.max(Instant::now() + op_budget);
                    frozen = true;
                    Ok(None)
                }
                m => Err(m),
            })?;
            match outcome {
                Some(Ok(last_sn)) => {
                    self.append_hist.record_ns(started.elapsed());
                    self.config
                        .obs
                        .trace_event(token, Stage::ClientAck, self.ep.id().0, 0);
                    return Ok(last_sn);
                }
                Some(Err(RejectReason::Dropped)) => return Err(ClientError::UnknownColor(color)),
                Some(Err(_moved)) => {
                    // Cutover happened: re-resolve the shard and retransmit
                    // there at once. The token makes the retry idempotent
                    // even if some old replica already committed.
                    if let Some(s) = self.topology.random_shard_of(color, &mut self.rng) {
                        if s.id != shard {
                            shard = s.id;
                            replicas = s.replicas;
                            acked.clear();
                        }
                    }
                }
                None => {}
            }
            if frozen {
                // Freeze windows are millisecond-scale by design, and an
                // exponentially grown retransmit gap would both stretch the
                // cutover stall and outlive the re-based deadline.
                backoff = Backoff::from_config(&self.config);
            }
            if acked.is_empty() {
                // Not a single replica has ever acked: the whole shard looks
                // crashed or partitioned away. Fail fast instead of burning
                // the full deadline (recovery of a *partially* acked append
                // still waits — that path is expected to complete).
                silent_rounds += 1;
                if silent_rounds >= self.config.unreachable_after {
                    return Err(ClientError::ShardUnreachable(shard));
                }
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout);
            }
        }
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
    /// whichever loop received it: acks and nacks of pipelined appends are
    /// credited, pushes and redirects of standing subscriptions routed.
    /// Everything else is a stale reply to an earlier round of a blocking
    /// operation (or server-bound traffic a client never acts on).
    fn note_stray(&mut self, from: NodeId, msg: ClusterMsg) {
        match msg {
            ClusterMsg::Data(DataMsg::Append(m)) => match m {
                AppendMsg::AppendAck { token, last_sn } => {
                    self.note_stray_ack(from, token, last_sn)
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
        while self.inflight.len() >= window {
            self.pump_inflight()?;
        }
        let shard = self
            .topology
            .random_shard_of(color, &mut self.rng)
            .ok_or(ClientError::UnknownColor(color))?;
        let token = self.next_token();
        let msg: ClusterMsg = AppendMsg::Append {
            color,
            token,
            payloads: payloads.to_vec(),
            reply_to: self.ep.id(),
        }
        .into();
        self.config
            .obs
            .trace_event(token, Stage::ClientSend, self.ep.id().0, 0);
        let _ = self.ep.broadcast(&shard.replicas, msg.clone());
        let started = Instant::now();
        let mut backoff = Backoff::from_config(&self.config);
        let retry_at = started + backoff.next_wait(&mut self.rng);
        self.inflight.insert(
            token,
            InflightAppend {
                color,
                shard: shard.id,
                replicas: shard.replicas.clone(),
                msg,
                acked: HashSet::new(),
                last_sn: None,
                backoff,
                retry_at,
                silent_rounds: 0,
                deadline: started + self.config.deadline,
                started,
            },
        );
        Ok(token)
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
        while !self.inflight.is_empty() {
            self.pump_inflight()?;
        }
        Ok(std::mem::take(&mut self.completed))
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

    /// One bounded scheduling step of the pipelined appends: wait for acks
    /// until the earliest retransmit is due, credit arrivals, then
    /// retransmit/expire whatever is overdue.
    fn pump_inflight(&mut self) -> Result<(), ClientError> {
        debug_assert!(!self.inflight.is_empty());
        if let Some(e) = self.pending_error.take() {
            return Err(e);
        }
        let now = Instant::now();
        let next_due = self
            .inflight
            .values()
            .map(|op| op.retry_at)
            .min()
            .expect("non-empty inflight");
        let mut wait = next_due.saturating_duration_since(now);
        // Acks arrive in bursts (a replica's batched commit acks every token
        // of the burst back to back): drain each burst under one inbox lock.
        let mut burst: Vec<(NodeId, ClusterMsg)> = Vec::new();
        loop {
            burst.clear();
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
        if let Some(e) = self.pending_error.take() {
            return Err(e);
        }
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
            if op.acked.is_empty() {
                op.silent_rounds += 1;
                if op.silent_rounds >= self.config.unreachable_after {
                    let shard = op.shard;
                    self.inflight.remove(&token);
                    return Err(ClientError::ShardUnreachable(shard));
                }
            }
            if now >= op.deadline {
                self.inflight.remove(&token);
                return Err(ClientError::Timeout);
            }
            self.config
                .obs
                .trace_event(token, Stage::ClientRetransmit, self.ep.id().0, 0);
            let _ = self.ep.broadcast(&op.replicas, op.msg.clone());
            op.retry_at = now + op.backoff.next_wait(&mut self.rng);
        }
        Ok(())
    }

    /// Credits an [`AppendMsg::AppendAck`] against the matching pipelined
    /// append, completing it when every replica has acked.
    fn note_stray_ack(&mut self, from: NodeId, token: Token, last_sn: SeqNum) {
        let Some(op) = self.inflight.get_mut(&token) else {
            return; // duplicate ack of an already-completed op
        };
        if !op.replicas.contains(&from) {
            return; // see append_to_shard: outsiders must not complete an op
        }
        op.acked.insert(from);
        op.last_sn = Some(last_sn);
        if op.acked.len() == op.replicas.len() {
            let sn = op.last_sn.expect("at least one ack");
            let op = self.inflight.remove(&token).expect("present above");
            self.append_hist.record_ns(op.started.elapsed());
            self.config
                .obs
                .trace_event(token, Stage::ClientAck, self.ep.id().0, 0);
            self.completed.push((token, sn));
        }
    }

    /// Applies an [`AppendMsg::Rejected`] nack to the matching pipelined
    /// append (reconfiguration fencing: retry, re-route, or fail).
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
            RejectReason::Frozen => {
                // Pre-cutover freeze window: keep the op queued and keep
                // retransmitting. Time spent frozen must not surface as
                // Timeout once the color thaws — re-base the deadline
                // exactly like `flush()` does for ops queued at its entry
                // (a freeze can outlast the original per-op deadline) and
                // reset the backoff, whose exponentially grown gap would
                // otherwise outlive the re-based deadline and stretch the
                // cutover stall.
                op.deadline = op.deadline.max(Instant::now() + self.config.deadline);
                op.backoff = Backoff::from_config(&self.config);
            }
            RejectReason::ColorMoved => {
                let color = op.color;
                let old_shard = op.shard;
                if let Some(s) = self.topology.random_shard_of(color, &mut self.rng) {
                    if s.id != old_shard {
                        op.shard = s.id;
                        op.replicas = s.replicas;
                        op.acked.clear();
                        op.last_sn = None;
                    }
                }
                // Retransmit (to the possibly new shard) on the next pump.
                op.retry_at = Instant::now();
            }
            RejectReason::Dropped => {
                let color = op.color;
                self.inflight.remove(&token);
                self.pending_error = Some(ClientError::UnknownColor(color));
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
                    s.random_read_target(&mut self.rng)
                } else {
                    use rand::Rng;
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
        let mut streams = HashMap::new();
        let now = Instant::now();
        for shard in shards {
            let wire = self.next_req();
            let target = shard.random_read_target(&mut self.rng);
            let _ = self.ep.send(
                target,
                SubMsg::SubscribeFrom {
                    color,
                    from,
                    sub: wire,
                    reply_to: self.ep.id(),
                }
                .into(),
            );
            streams.insert(
                wire,
                SubStream {
                    shard: shard.id,
                    target,
                    sent_ack: from,
                    delivered: BTreeSet::new(),
                    unacked: 0,
                    last_ack: now,
                    last_heard: now,
                },
            );
            self.sub_index.insert(wire, key);
        }
        self.subscriptions.insert(
            key,
            SubState {
                color,
                streams,
                ready: Vec::new(),
                dead: None,
            },
        );
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

    /// Re-registers every stream of `key` whose server went silent past
    /// [`ClientConfig::sub_silence`] (crashed, partitioned, or the original
    /// registration was lost): resolve a fresh read target for the color
    /// and resume from the acked cursor. Re-pushed records dedup.
    fn reattach_silent_streams(&mut self, key: u64) {
        let Some(state) = self.subscriptions.get_mut(&key) else {
            return;
        };
        let color = state.color;
        let now = Instant::now();
        let mut attach: Vec<(u64, NodeId, SeqNum)> = Vec::new();
        for (&wire, stream) in state.streams.iter_mut() {
            if now.saturating_duration_since(stream.last_heard) < self.config.sub_silence {
                continue;
            }
            let shard_info = self
                .topology
                .shard(stream.shard)
                .filter(|s| {
                    self.topology
                        .shards_of(color)
                        .iter()
                        .any(|cs| cs.id == s.id)
                })
                .or_else(|| self.topology.random_shard_of(color, &mut self.rng));
            let Some(info) = shard_info else {
                state.dead = Some(ClientError::UnknownColor(color));
                return;
            };
            stream.shard = info.id;
            stream.target = info.random_read_target(&mut self.rng);
            stream.last_heard = now; // back off one silence window
            attach.push((wire, stream.target, stream.sent_ack));
        }
        for (wire, target, from) in attach {
            let _ = self.ep.send(
                target,
                SubMsg::SubscribeFrom {
                    color,
                    from,
                    sub: wire,
                    reply_to: self.ep.id(),
                }
                .into(),
            );
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
        let due = stream.unacked >= self.config.sub_ack_every
            || (stream.unacked > 0
                && stream.last_ack.elapsed() >= self.config.sub_ack_interval);
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
    /// subscription terminally; `ColorMoved`/`Frozen` re-resolves the
    /// topology and re-registers from the acked cursor — unless a new
    /// server (the migration destination) already took the stream over.
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
        let Some(stream) = state.streams.get_mut(&wire) else {
            return;
        };
        if stream.target != from {
            // The cursor handoff already re-homed this stream; the old
            // server's redirect is stale.
            return;
        }
        let covered: HashSet<ShardId> = state
            .streams
            .iter()
            .filter(|(&w, _)| w != wire)
            .map(|(_, s)| s.shard)
            .collect();
        let shards = self.topology.shards_of(color);
        let Some(info) = shards
            .iter()
            .find(|s| !covered.contains(&s.id))
            .or(shards.first())
        else {
            state.dead = Some(ClientError::UnknownColor(color));
            return;
        };
        let Some(stream) = state.streams.get_mut(&wire) else {
            return;
        };
        stream.shard = info.id;
        stream.target = info.random_read_target(&mut self.rng);
        stream.last_heard = Instant::now();
        let target = stream.target;
        let sent_ack = stream.sent_ack;
        let _ = self.ep.send(
            target,
            SubMsg::SubscribeFrom {
                color,
                from: sent_ack,
                sub: wire,
                reply_to: self.ep.id(),
            }
            .into(),
        );
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
            .random_shard_of(ColorId::MASTER, &mut self.rng)
            .ok_or(ClientError::UnknownColor(ColorId::MASTER))?;
        // Phase 1: stage every set in the special color on ONE shard
        // (Algorithm 2, lines 3–4). These are ordinary appends carrying the
        // target color inside the payload.
        for (color, payloads) in sets {
            let token = self.next_token();
            let staged = Payload::from(encode_multi_set(*color, payloads));
            self.append_to_shard(ColorId::MASTER, token, broker.id, &broker.replicas, &[staged])?;
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

    /// The topology view (for `AddColor` flows owned by the core crate).
    pub fn topology(&self) -> &TopologyView {
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
