use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use flexlog_obs::{Counter, Histogram, ObsHandle};
use parking_lot::RwLock;

use crate::endpoint::Endpoint;
use crate::scheduler::DelayQueue;
use crate::{LinkConfig, NetConfig, NodeId, SendError};

/// A message in flight: sender, destination and payload.
pub(crate) struct Envelope<M> {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: M,
}

/// The network's counters (`net.sent`, `net.delivered`, `net.dropped`) and
/// the scheduled link latency of every send, installed by
/// [`Network::attach_obs`]. Every accepted send ends up in exactly one of
/// `delivered` or `dropped`, so after quiescence
/// `sent == delivered + dropped`.
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

/// Who can reach whom: every routing decision reads these tables under one
/// read lock, and every fault injection changes them under one write lock.
struct Routes<M> {
    nodes: HashMap<NodeId, Sender<(NodeId, M)>>,
    crashed: HashSet<NodeId>,
    /// Partition group per node. Two nodes can communicate unless both have
    /// a group assigned and the groups differ.
    groups: HashMap<NodeId, u32>,
    /// Fully isolated nodes (no traffic in or out).
    isolated: HashSet<NodeId>,
}

impl<M> Routes<M> {
    /// True if traffic from `a` to `b` is allowed under the partition state.
    fn connected(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        if self.isolated.contains(&a) || self.isolated.contains(&b) {
            return false;
        }
        match (self.groups.get(&a), self.groups.get(&b)) {
            (Some(ga), Some(gb)) => ga == gb,
            _ => true,
        }
    }

    /// The inbox a message from `from` to `to` lands in right now, or `None`
    /// if it is dropped: `to` crashed, is not registered, or is partitioned
    /// away from `from`.
    fn inbox(&self, from: NodeId, to: NodeId) -> Option<&Sender<(NodeId, M)>> {
        if self.crashed.contains(&to) || !self.connected(from, to) {
            return None;
        }
        self.nodes.get(&to)
    }
}

pub(crate) struct Inner<M> {
    pub link: LinkConfig,
    routes: RwLock<Routes<M>>,
    /// The delay scheduler; `None` on an instant network, whose sends are
    /// delivered on the sender's thread.
    queue: Option<Arc<DelayQueue<Envelope<M>>>>,
    /// Install-once, so the hot send/deliver path pays one atomic load and
    /// no lock to reach the counters.
    obs: OnceLock<NetObs>,
}

impl<M: Send + 'static> Inner<M> {
    fn count(&self, delivered: u64, dropped: u64) {
        if let Some(o) = self.obs.get() {
            if delivered > 0 {
                o.delivered.add(delivered);
            }
            if dropped > 0 {
                o.dropped.add(dropped);
            }
        }
    }

    /// Hands one message to its destination's inbox if `routes` allow it.
    fn deliver(&self, routes: &Routes<M>, from: NodeId, to: NodeId, msg: M) {
        let ok = routes
            .inbox(from, to)
            .is_some_and(|tx| tx.send((from, msg)).is_ok());
        self.count(ok as u64, !ok as u64);
    }

    /// Delivers a whole scheduler pass of due envelopes under one read of
    /// the routes. Connectivity is checked again here, so a crash or a
    /// partition that started while a message was "on the wire" still
    /// drops it. Envelopes are grouped per destination (preserving arrival
    /// order, so per-link FIFO survives), and each inbox is filled with one
    /// batched push — one channel lock and one wake-up per destination
    /// instead of one per message.
    fn deliver_batch(&self, envs: &mut Vec<Envelope<M>>) {
        let routes = self.routes.read();
        if envs.len() == 1 {
            let env = envs.pop().expect("len checked");
            self.deliver(&routes, env.from, env.to, env.msg);
            return;
        }
        let mut by_dest: Vec<(NodeId, Vec<(NodeId, M)>)> = Vec::new();
        let mut dropped = 0u64;
        for env in envs.drain(..) {
            if routes.inbox(env.from, env.to).is_none() {
                dropped += 1;
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
            match routes.nodes.get(&to) {
                Some(tx) if tx.send_batch(batch).is_ok() => delivered += n,
                _ => dropped += n,
            }
        }
        self.count(delivered, dropped);
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
        let routes = self.routes.read();
        if routes.crashed.contains(&from) {
            return Err(SendError::SelfCrashed);
        }
        if !routes.nodes.contains_key(&to) && !routes.crashed.contains(&to) {
            return Err(SendError::UnknownNode(to));
        }
        let obs = self.obs.get();
        if let Some(o) = obs {
            o.sent.inc();
        }
        let Some(queue) = &self.queue else {
            if let Some(o) = obs {
                o.delay_hist.record(extra.as_nanos() as u64);
            }
            self.deliver(&routes, from, to, msg);
            return Ok(());
        };
        if !routes.connected(from, to) {
            // Silently dropped, like a packet into a partition. The sender
            // only learns via its own protocol-level timeouts.
            self.count(0, 1);
            return Ok(());
        }
        drop(routes);
        let scheduled = queue.schedule(
            (from, to),
            extra + self.link.delay,
            self.link.jitter,
            Envelope { from, to, msg },
        );
        if let Some(o) = obs {
            o.delay_hist.record(scheduled.as_nanos() as u64);
        }
        Ok(())
    }
}

/// Handle to a simulated network. Cloning is cheap; all clones control the
/// same network. Dropping the last [`Network`] handle shuts down the delay
/// scheduler thread (endpoints may outlive it but delayed messages stop
/// flowing — tests keep the handle alive for the duration of the run).
pub struct Network<M: Send + 'static> {
    inner: Arc<Inner<M>>,
    /// Owned by the *first* handle only.
    scheduler: Option<Arc<SchedulerGuard<M>>>,
}

struct SchedulerGuard<M: Send + 'static> {
    queue: Arc<DelayQueue<Envelope<M>>>,
    thread: Option<JoinHandle<()>>,
}

impl<M: Send + 'static> Drop for SchedulerGuard<M> {
    fn drop(&mut self) {
        self.queue.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
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
    /// Creates a network with the given configuration. Delayed links get
    /// one scheduler thread, whose jitter RNG is seeded with
    /// [`NetConfig::seed`].
    pub fn new(config: NetConfig) -> Self {
        let queue = (!config.link.is_instant())
            .then(|| DelayQueue::with_seed(config.seed.unwrap_or_else(rand::random)));
        let inner = Arc::new(Inner {
            link: config.link,
            routes: RwLock::new(Routes {
                nodes: HashMap::new(),
                crashed: HashSet::new(),
                groups: HashMap::new(),
                isolated: HashSet::new(),
            }),
            queue: queue.clone(),
            obs: OnceLock::new(),
        });
        let scheduler = queue.map(|queue| {
            let inner2 = Arc::clone(&inner);
            let queue2 = Arc::clone(&queue);
            let thread = std::thread::Builder::new()
                .name("simnet-scheduler".into())
                .spawn(move || queue2.run(move |batch| inner2.deliver_batch(batch)))
                .expect("spawn simnet scheduler");
            Arc::new(SchedulerGuard {
                queue,
                thread: Some(thread),
            })
        });
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
        let mut routes = self.inner.routes.write();
        let prev = routes.nodes.insert(id, tx);
        assert!(
            prev.is_none() || routes.crashed.contains(&id),
            "node {id} registered twice"
        );
        routes.crashed.remove(&id);
        drop(routes);
        Endpoint::new(id, rx, Arc::clone(&self.inner))
    }

    /// Crashes a node: its inbox closes, in-flight and future messages to it
    /// are dropped, and its sends fail. The id can later be re-registered
    /// (crash-recovery model of §4).
    pub fn crash(&self, id: NodeId) {
        let mut routes = self.inner.routes.write();
        routes.crashed.insert(id);
        routes.nodes.remove(&id);
    }

    /// True if the node is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.inner.routes.read().crashed.contains(&id)
    }

    /// Splits the listed nodes into partition groups: traffic between nodes
    /// of *different* groups is dropped. Nodes not listed keep full
    /// connectivity. Overwrites any previous partition.
    pub fn partition(&self, partition_groups: &[&[NodeId]]) {
        let mut routes = self.inner.routes.write();
        routes.groups.clear();
        for (gi, members) in partition_groups.iter().enumerate() {
            for &m in *members {
                routes.groups.insert(m, gi as u32);
            }
        }
    }

    /// Cuts a single node off from everyone else.
    pub fn isolate(&self, id: NodeId) {
        self.inner.routes.write().isolated.insert(id);
    }

    /// Restores full connectivity (clears partitions and isolation).
    pub fn heal(&self) {
        let mut routes = self.inner.routes.write();
        routes.groups.clear();
        routes.isolated.clear();
    }

    /// Counts traffic into the given observability registry (`net.sent`,
    /// `net.delivered`, `net.dropped`, `net.delay_ns`). Call once per
    /// cluster; the first call wins — the counters are install-once so the
    /// per-message hot path never takes a lock to reach them.
    pub fn attach_obs(&self, obs: &ObsHandle) {
        let _ = self.inner.obs.set(NetObs {
            sent: obs.counter("net.sent"),
            delivered: obs.counter("net.delivered"),
            dropped: obs.counter("net.dropped"),
            delay_hist: obs.histogram("net.delay_ns"),
        });
    }
}
