use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use flexlog_obs::{Counter, Histogram, ObsHandle};
use parking_lot::{Mutex, RwLock};

use crate::endpoint::Endpoint;
use crate::node::link_shard;
use crate::scheduler::DelayQueue;
use crate::{LinkConfig, NetConfig, NodeId, SendError};

/// A message in flight: sender, destination and payload.
pub(crate) struct Envelope<M> {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: M,
}

/// Delivery counters, useful in tests and for debugging protocol runs.
#[derive(Debug, Default)]
pub struct NetStats {
    pub sent: AtomicU64,
    pub delivered: AtomicU64,
    pub dropped_crashed: AtomicU64,
    pub dropped_partitioned: AtomicU64,
}

/// Registry handles mirroring [`NetStats`] plus the scheduled link latency
/// of every send, installed by [`Network::attach_obs`].
struct NetObs {
    sent: Counter,
    delivered: Counter,
    dropped: Counter,
    /// Scheduled one-way latency (delay + jitter + serialization) per
    /// message. This is the link model's intent, not a measured wall-clock
    /// difference — the delivery thread adds scheduling noise we do not
    /// want in the metric.
    delay_hist: Histogram,
}

pub(crate) struct Inner<M> {
    pub link: LinkConfig,
    nodes: RwLock<HashMap<NodeId, Sender<(NodeId, M)>>>,
    crashed: RwLock<HashSet<NodeId>>,
    /// Partition group per node. Two nodes can communicate unless both have
    /// a group assigned and the groups differ.
    groups: RwLock<HashMap<NodeId, u32>>,
    /// Fully isolated nodes (no traffic in or out).
    isolated: RwLock<HashSet<NodeId>>,
    /// Scheduler shards; empty on an instant network. Each (src, dst) link
    /// hashes to exactly one shard, which owns that link's FIFO clamp and
    /// jitter RNG — see [`DelayQueue`].
    queues: Vec<Arc<DelayQueue<Envelope<M>>>>,
    pub stats: NetStats,
    /// Metrics mirrors. `OnceLock` so the hot send/deliver path pays one
    /// atomic load and ZERO lock acquisitions per message.
    obs: OnceLock<NetObs>,
}

/// True if traffic from `a` to `b` is allowed under the given partition
/// state (isolation set + group map).
fn connected_locked(
    isolated: &HashSet<NodeId>,
    groups: &HashMap<NodeId, u32>,
    a: NodeId,
    b: NodeId,
) -> bool {
    if a == b {
        return true;
    }
    if isolated.contains(&a) || isolated.contains(&b) {
        return false;
    }
    match (groups.get(&a), groups.get(&b)) {
        (Some(ga), Some(gb)) => ga == gb,
        _ => true,
    }
}

impl<M: Send + 'static> Inner<M> {
    /// True if traffic from `a` to `b` is currently allowed.
    fn connected(&self, a: NodeId, b: NodeId) -> bool {
        connected_locked(&self.isolated.read(), &self.groups.read(), a, b)
    }

    fn deliver(&self, env: Envelope<M>) {
        // Connectivity is re-checked at delivery time so a partition that
        // started while the message was "on the wire" still blocks it.
        if self.crashed.read().contains(&env.to) {
            self.stats.dropped_crashed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if !self.connected(env.from, env.to) {
            self.stats
                .dropped_partitioned
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        let nodes = self.nodes.read();
        if let Some(tx) = nodes.get(&env.to) {
            if tx.send((env.from, env.msg)).is_ok() {
                self.stats.delivered.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = self.obs.get() {
                    o.delivered.inc();
                }
            } else {
                self.stats.dropped_crashed.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.stats.dropped_crashed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Delivers a whole scheduler-pass worth of due envelopes: the crash /
    /// partition / node tables are read **once** for the batch, envelopes
    /// are grouped per destination (preserving arrival order, so per-link
    /// FIFO survives), and each destination inbox is filled with one
    /// batched push — one channel lock + one wake-up per destination
    /// instead of one per message.
    fn deliver_batch(&self, envs: &mut Vec<Envelope<M>>) {
        if envs.len() == 1 {
            let env = envs.pop().expect("len checked");
            self.deliver(env);
            return;
        }
        let crashed = self.crashed.read();
        let isolated = self.isolated.read();
        let groups = self.groups.read();
        let nodes = self.nodes.read();
        let mut by_dest: Vec<(NodeId, Vec<(NodeId, M)>)> = Vec::new();
        let mut dropped_crashed = 0u64;
        let mut dropped_partitioned = 0u64;
        for env in envs.drain(..) {
            if crashed.contains(&env.to) || !nodes.contains_key(&env.to) {
                dropped_crashed += 1;
                continue;
            }
            if !connected_locked(&isolated, &groups, env.from, env.to) {
                dropped_partitioned += 1;
                continue;
            }
            match by_dest.iter_mut().find(|(d, _)| *d == env.to) {
                Some((_, batch)) => batch.push((env.from, env.msg)),
                None => by_dest.push((env.to, vec![(env.from, env.msg)])),
            }
        }
        let mut delivered = 0u64;
        for (to, batch) in by_dest {
            let n = batch.len() as u64;
            match nodes.get(&to) {
                Some(tx) if tx.send_batch(batch).is_ok() => delivered += n,
                _ => dropped_crashed += n,
            }
        }
        if delivered > 0 {
            self.stats.delivered.fetch_add(delivered, Ordering::Relaxed);
            if let Some(o) = self.obs.get() {
                o.delivered.add(delivered);
            }
        }
        if dropped_crashed > 0 {
            self.stats
                .dropped_crashed
                .fetch_add(dropped_crashed, Ordering::Relaxed);
        }
        if dropped_partitioned > 0 {
            self.stats
                .dropped_partitioned
                .fetch_add(dropped_partitioned, Ordering::Relaxed);
        }
    }

    pub(crate) fn send(&self, from: NodeId, to: NodeId, msg: M) -> Result<(), SendError> {
        self.send_with_extra(from, to, msg, std::time::Duration::ZERO)
    }

    /// Send with an additional sender-side delay (broadcast serialization).
    pub(crate) fn send_with_extra(
        &self,
        from: NodeId,
        to: NodeId,
        msg: M,
        extra: std::time::Duration,
    ) -> Result<(), SendError> {
        if self.crashed.read().contains(&from) {
            return Err(SendError::SelfCrashed);
        }
        // One table at a time: a guard in the condition would live across
        // the second lookup, in the opposite order to `deliver_batch`.
        let registered = self.nodes.read().contains_key(&to);
        if !registered && !self.crashed.read().contains(&to) {
            return Err(SendError::UnknownNode(to));
        }
        self.stats.sent.fetch_add(1, Ordering::Relaxed);
        let obs = self.obs.get();
        if let Some(o) = obs {
            o.sent.inc();
        }
        if !self.connected(from, to) {
            // Silently dropped, like a packet into a partition. The sender
            // only learns via its own protocol-level timeouts.
            self.stats
                .dropped_partitioned
                .fetch_add(1, Ordering::Relaxed);
            if let Some(o) = obs {
                o.dropped.inc();
            }
            return Ok(());
        }
        if self.queues.is_empty() {
            if let Some(o) = obs {
                o.delay_hist.record(extra.as_nanos() as u64);
            }
            self.deliver(Envelope { from, to, msg });
        } else {
            let shard = &self.queues[link_shard(from, to, self.queues.len())];
            let scheduled = shard.schedule(
                (from, to),
                extra + self.link.delay,
                self.link.jitter,
                Envelope { from, to, msg },
            );
            if let Some(o) = obs {
                o.delay_hist.record(scheduled.as_nanos() as u64);
            }
        }
        Ok(())
    }
}

/// Handle to a simulated network. Cloning is cheap; all clones control the
/// same network. Dropping the last [`Network`] handle shuts down the delay
/// scheduler threads (endpoints may outlive them but delayed messages stop
/// flowing — tests keep the handle alive for the duration of the run).
pub struct Network<M: Send + 'static> {
    inner: Arc<Inner<M>>,
    /// Owned by the *first* handle only.
    scheduler: Option<Arc<SchedulerGuard<M>>>,
}

struct SchedulerGuard<M: Send + 'static> {
    queues: Vec<Arc<DelayQueue<Envelope<M>>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: Send + 'static> Drop for SchedulerGuard<M> {
    fn drop(&mut self) {
        for q in &self.queues {
            q.shutdown();
        }
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl<M: Send + 'static> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            inner: Arc::clone(&self.inner),
            scheduler: self.scheduler.clone(),
        }
    }
}

impl<M: Send + 'static> Network<M> {
    /// Creates a network with the given configuration.
    pub fn new(config: NetConfig) -> Self {
        let seed = config.seed.unwrap_or_else(rand::random);
        let queues: Vec<Arc<DelayQueue<Envelope<M>>>> = if config.link.is_instant() {
            Vec::new()
        } else {
            (0..config.shards())
                .map(|i| {
                    // Distinct deterministic jitter stream per shard.
                    DelayQueue::with_seed(
                        seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    )
                })
                .collect()
        };
        let inner = Arc::new(Inner {
            link: config.link,
            nodes: RwLock::new(HashMap::new()),
            crashed: RwLock::new(HashSet::new()),
            groups: RwLock::new(HashMap::new()),
            isolated: RwLock::new(HashSet::new()),
            queues: queues.clone(),
            stats: NetStats::default(),
            obs: OnceLock::new(),
        });
        let scheduler = if queues.is_empty() {
            None
        } else {
            let handles = queues
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let inner2 = Arc::clone(&inner);
                    let q2 = Arc::clone(q);
                    std::thread::Builder::new()
                        .name(format!("simnet-scheduler-{i}"))
                        .spawn(move || q2.run(move |batch| inner2.deliver_batch(batch)))
                        .expect("spawn simnet scheduler shard")
                })
                .collect();
            Some(Arc::new(SchedulerGuard {
                queues,
                handles: Mutex::new(handles),
            }))
        };
        Network { inner, scheduler }
    }

    /// Zero-latency deterministic network.
    pub fn instant() -> Self {
        Network::new(NetConfig::instant())
    }

    /// Registers a node and returns its endpoint. Panics if the id is
    /// already registered and alive.
    pub fn register(&self, id: NodeId) -> Endpoint<M> {
        let (tx, rx) = unbounded();
        // Lock order, here as in `deliver_batch`: `crashed` before `nodes`.
        let mut crashed = self.inner.crashed.write();
        let prev = self.inner.nodes.write().insert(id, tx);
        assert!(
            prev.is_none() || crashed.contains(&id),
            "node {id} registered twice"
        );
        crashed.remove(&id);
        drop(crashed);
        Endpoint::new(id, rx, Arc::clone(&self.inner))
    }

    /// Crashes a node: its inbox closes, in-flight and future messages to it
    /// are dropped, and its sends fail. The id can later be re-registered
    /// (crash-recovery model of §4).
    pub fn crash(&self, id: NodeId) {
        self.inner.crashed.write().insert(id);
        self.inner.nodes.write().remove(&id);
    }

    /// True if the node is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.inner.crashed.read().contains(&id)
    }

    /// Splits the listed nodes into partition groups: traffic between nodes
    /// of *different* groups is dropped. Nodes not listed keep full
    /// connectivity. Overwrites any previous partition.
    pub fn partition(&self, partition_groups: &[&[NodeId]]) {
        let mut groups = self.inner.groups.write();
        groups.clear();
        for (gi, members) in partition_groups.iter().enumerate() {
            for &m in *members {
                groups.insert(m, gi as u32);
            }
        }
    }

    /// Cuts a single node off from everyone else.
    pub fn isolate(&self, id: NodeId) {
        self.inner.isolated.write().insert(id);
    }

    /// Restores full connectivity (clears partitions and isolation).
    pub fn heal(&self) {
        self.inner.groups.write().clear();
        self.inner.isolated.write().clear();
    }

    /// Number of scheduler shards servicing delayed links (0 on an instant
    /// network).
    pub fn scheduler_shards(&self) -> usize {
        self.inner.queues.len()
    }

    /// Mirrors delivery counters and the scheduled link latency into the
    /// given observability registry (`net.sent`, `net.delivered`,
    /// `net.dropped`, `net.delay_ns`). Call once per cluster; the first
    /// call wins — the mirrors are install-once so the per-message hot
    /// path never takes a lock to reach them.
    pub fn attach_obs(&self, obs: &ObsHandle) {
        let _ = self.inner.obs.set(NetObs {
            sent: obs.counter("net.sent"),
            delivered: obs.counter("net.delivered"),
            dropped: obs.counter("net.dropped"),
            delay_hist: obs.histogram("net.delay_ns"),
        });
    }

    /// Delivery statistics snapshot.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        let s = &self.inner.stats;
        (
            s.sent.load(Ordering::Relaxed),
            s.delivered.load(Ordering::Relaxed),
            s.dropped_crashed.load(Ordering::Relaxed),
            s.dropped_partitioned.load(Ordering::Relaxed),
        )
    }
}
