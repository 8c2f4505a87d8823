//! Assembly of the data layer: spawns shards of replica threads and exposes
//! crash / recover fault injection.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use flexlog_ordering::{Directory, RoleId};
use flexlog_simnet::{Network, NodeId};
use flexlog_storage::StorageServer;
use flexlog_types::{ColorId, ShardId};

use crate::msg::{ClusterMsg, DataMsg};
use crate::{
    ReadReplicaConfig, ReadReplicaNode, ReplicaConfig, ReplicaNode, ShardInfo, TopologyView,
};

/// One shard to spawn.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    pub id: ShardId,
    /// Replication factor r (paper default 3).
    pub replicas: usize,
    /// Leaf sequencer role this shard attaches to.
    pub leaf_role: RoleId,
}

/// Data-layer specification.
#[derive(Clone)]
pub struct DataLayerSpec {
    pub shards: Vec<ShardSpec>,
    /// Per-replica template (shard/peers/leaf_role are filled in).
    pub replica: ReplicaConfig,
    /// Initial color → shards mapping.
    pub colors: Vec<(ColorId, Vec<ShardId>)>,
    /// Read-only replicas to attach to every shard (0 = reads are served
    /// by the write quorum, the pre-PR9 behavior).
    pub read_replicas_per_shard: usize,
}

impl DataLayerSpec {
    /// `n_shards` shards of `r` replicas each, all attached to leaf roles
    /// round-robin from `leaf_roles`, and every listed color served by all
    /// shards of its leaf's region.
    pub fn uniform(n_shards: usize, r: usize, leaf_roles: &[RoleId]) -> Self {
        let shards = (0..n_shards)
            .map(|i| ShardSpec {
                id: ShardId(i as u32),
                replicas: r,
                leaf_role: leaf_roles[i % leaf_roles.len()],
            })
            .collect();
        DataLayerSpec {
            shards,
            replica: ReplicaConfig::default(),
            colors: Vec::new(),
            read_replicas_per_shard: 0,
        }
    }
}

/// What a restart needs of one spawned node: its configuration and its
/// current storage (whose devices outlive a crash).
struct Slot<C> {
    config: C,
    storage: Arc<StorageServer>,
}

impl<C> Slot<C> {
    /// Power-cycles the node's devices (their volatile state is lost) and
    /// recovers storage from the media.
    fn power_cycle(&mut self) -> Arc<StorageServer> {
        let (pm, ssd) = self.storage.devices();
        pm.crash();
        ssd.crash();
        self.storage = Arc::new(StorageServer::recover(pm, ssd, self.storage.config().clone()));
        Arc::clone(&self.storage)
    }
}

/// Running data layer.
pub struct DataLayerHandle {
    pub topology: TopologyView,
    threads: Mutex<Vec<JoinHandle<()>>>,
    slots: Mutex<HashMap<NodeId, Slot<ReplicaConfig>>>,
    read_slots: Mutex<HashMap<NodeId, Slot<ReadReplicaConfig>>>,
    control: flexlog_simnet::Endpoint<ClusterMsg>,
    /// Per-replica template for shards added at runtime (scale-out).
    template: ReplicaConfig,
}

/// Spawner for data layers.
pub struct DataLayerService;

impl DataLayerService {
    /// Spawns every replica of `spec` on `net`. The returned topology view
    /// is shared with the replicas (multi-append routing) and with clients.
    pub fn start(
        net: &Network<ClusterMsg>,
        directory: &Directory,
        spec: &DataLayerSpec,
    ) -> DataLayerHandle {
        let handle = DataLayerHandle {
            topology: TopologyView::new(),
            threads: Mutex::new(Vec::new()),
            slots: Mutex::new(HashMap::new()),
            read_slots: Mutex::new(HashMap::new()),
            control: net.register(NodeId::named(0, (u64::MAX >> 4) - 1)),
            template: spec.replica.clone(),
        };
        // Register every shard and color before the first replica runs.
        let mut next = 0u64;
        for shard in &spec.shards {
            handle.topology.add_shard(ShardInfo {
                id: shard.id,
                replicas: (next..next + shard.replicas as u64)
                    .map(|i| NodeId::named(NodeId::CLASS_REPLICA, i))
                    .collect(),
                leaf: shard.leaf_role,
                read_replicas: Vec::new(),
            });
            next += shard.replicas as u64;
        }
        for (color, shards) in &spec.colors {
            handle.topology.set_color_shards(*color, shards.clone());
        }
        for info in handle.topology.all_shards() {
            handle.spawn_shard(net, directory, &mut handle.slots.lock(), &info);
        }
        for shard in &spec.shards {
            for _ in 0..spec.read_replicas_per_shard {
                handle.add_read_replica(net, shard.id);
            }
        }
        handle
    }
}

impl DataLayerHandle {
    /// Replica node ids of a shard.
    pub fn shard_replicas(&self, shard: ShardId) -> Vec<NodeId> {
        self.topology
            .shard(shard)
            .map(|s| s.replicas)
            .unwrap_or_default()
    }

    /// All replica node ids (for ordering-layer init lists).
    pub fn all_replicas(&self) -> Vec<NodeId> {
        self.topology
            .all_shards()
            .into_iter()
            .flat_map(|s| s.replicas)
            .collect()
    }

    /// Replica node ids grouped by the leaf role their shard attaches to
    /// (input for `OrderingService::start`'s `replicas_by_role`).
    pub fn replicas_by_leaf_role(&self) -> HashMap<RoleId, Vec<NodeId>> {
        let mut m: HashMap<RoleId, Vec<NodeId>> = HashMap::new();
        for s in self.topology.all_shards() {
            m.entry(s.leaf).or_default().extend(s.replicas);
        }
        m
    }

    /// The storage server of a replica (tier stats in benchmarks/tests).
    pub fn storage_of(&self, node: NodeId) -> Option<Arc<StorageServer>> {
        self.slots.lock().get(&node).map(|s| Arc::clone(&s.storage))
    }

    /// Runs a node's loop on its own named thread, joined by `shutdown`.
    fn spawn_thread(&self, name: String, run: impl FnOnce() + Send + 'static) {
        let thread = std::thread::Builder::new().name(name).spawn(run);
        self.threads.lock().push(thread.expect("spawn node thread"));
    }

    /// The one way a quorum replica starts: fresh with `config`, or — with
    /// `None` — power-cycled from its slot, in which case it runs the
    /// sync-phase before serving (§6.3). The caller holds the `slots` lock
    /// (a scale-out allocates its node ids under it).
    fn spawn_replica(
        &self,
        net: &Network<ClusterMsg>,
        directory: &Directory,
        slots: &mut HashMap<NodeId, Slot<ReplicaConfig>>,
        node: NodeId,
        fresh: Option<ReplicaConfig>,
    ) {
        let (directory, topology) = (directory.clone(), self.topology.clone());
        let name = if fresh.is_some() { format!("{node}") } else { format!("{node}-r") };
        let replica = match fresh {
            Some(config) => {
                let replica = ReplicaNode::new(config.clone(), directory, topology);
                slots.insert(node, Slot { config, storage: replica.storage() });
                replica
            }
            None => {
                let slot = slots.get_mut(&node).expect("unknown replica");
                ReplicaNode::recovered(slot.config.clone(), directory, topology, slot.power_cycle())
            }
        };
        let ep = net.register(node);
        self.spawn_thread(name, move || replica.run(ep));
    }

    /// Spawns every replica of a shard the topology already lists.
    fn spawn_shard(
        &self,
        net: &Network<ClusterMsg>,
        directory: &Directory,
        slots: &mut HashMap<NodeId, Slot<ReplicaConfig>>,
        info: &ShardInfo,
    ) {
        for &node in &info.replicas {
            let config = ReplicaConfig {
                shard: info.id,
                peers: info.replicas.iter().copied().filter(|&p| p != node).collect(),
                leaf_role: info.leaf,
                ..self.template.clone()
            };
            self.spawn_replica(net, directory, slots, node, Some(config));
        }
    }

    /// Crashes a replica process. Its devices retain their durable state.
    pub fn crash_replica(&self, net: &Network<ClusterMsg>, node: NodeId) {
        net.crash(node);
    }

    /// Restarts a crashed replica: devices lose their volatile state
    /// (power-fail semantics), storage recovers from the media, and the
    /// replica runs the sync-phase before serving (§6.3).
    pub fn restart_replica(&self, net: &Network<ClusterMsg>, directory: &Directory, node: NodeId) {
        self.spawn_replica(net, directory, &mut self.slots.lock(), node, None);
    }

    /// Spawns a brand-new shard of `r` replicas attached to `leaf_role`
    /// (elastic scale-out). The shard starts empty and serves no colors
    /// until the control plane migrates or creates one there.
    pub fn add_shard(
        &self,
        net: &Network<ClusterMsg>,
        directory: &Directory,
        leaf_role: RoleId,
        r: usize,
    ) -> ShardInfo {
        let mut slots = self.slots.lock();
        let shards = self.topology.all_shards();
        let next = slots.keys().map(|n| n.index() + 1).max().unwrap_or(0);
        let info = ShardInfo {
            id: ShardId(shards.iter().map(|s| s.id.0 + 1).max().unwrap_or(0)),
            replicas: (next..next + r as u64)
                .map(|i| NodeId::named(NodeId::CLASS_REPLICA, i))
                .collect(),
            leaf: leaf_role,
            read_replicas: Vec::new(),
        };
        self.topology.add_shard(info.clone());
        self.spawn_shard(net, directory, &mut slots, &info);
        info
    }

    /// The one way a read replica starts: fresh with `config`, or — with
    /// `None` — power-cycled from its slot (the steady-state sync pull
    /// refills the rest; a follower needs no quorum barrier). Either way
    /// the topology registers it as a read target, so client read traffic
    /// shifts onto it from the next resolution. The caller holds the
    /// `read_slots` lock (a new replica's id is allocated under it).
    fn spawn_read_replica(
        &self,
        net: &Network<ClusterMsg>,
        slots: &mut HashMap<NodeId, Slot<ReadReplicaConfig>>,
        node: NodeId,
        fresh: Option<ReadReplicaConfig>,
    ) {
        let topology = self.topology.clone();
        let name = if fresh.is_some() { format!("{node}") } else { format!("{node}-r") };
        let rr = match fresh {
            Some(config) => {
                let rr = ReadReplicaNode::new(config.clone(), topology);
                slots.insert(node, Slot { config, storage: rr.storage() });
                rr
            }
            None => {
                let slot = slots.get_mut(&node).expect("unknown read replica");
                ReadReplicaNode::recovered(slot.config.clone(), topology, slot.power_cycle())
            }
        };
        let shard = slots[&node].config.shard;
        let ep = net.register(node);
        self.spawn_thread(name, move || rr.run(ep));
        self.topology.add_read_replica(shard, node);
    }

    /// Attaches one new read-only replica to `shard` and spawns it.
    pub fn add_read_replica(&self, net: &Network<ClusterMsg>, shard: ShardId) -> NodeId {
        let quorum = self.shard_replicas(shard);
        assert!(!quorum.is_empty(), "unknown shard {shard:?}");
        let mut slots = self.read_slots.lock();
        let next = slots.keys().map(|n| n.index() + 1).max().unwrap_or(0);
        let node = NodeId::named(NodeId::CLASS_READ_REPLICA, next);
        let config = ReadReplicaConfig {
            shard,
            quorum,
            storage: self.template.storage.clone(),
            read_hold: self.template.read_hold,
        };
        self.spawn_read_replica(net, &mut slots, node, Some(config));
        node
    }

    /// All read-replica node ids, sorted.
    pub fn read_replicas(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.read_slots.lock().keys().copied().collect();
        v.sort();
        v
    }

    /// The storage server of a read replica.
    pub fn read_storage_of(&self, node: NodeId) -> Option<Arc<StorageServer>> {
        self.read_slots
            .lock()
            .get(&node)
            .map(|s| Arc::clone(&s.storage))
    }

    /// Crashes a read replica and deregisters it as a read target so
    /// clients re-route (its durable devices keep their state).
    pub fn crash_read_replica(&self, net: &Network<ClusterMsg>, node: NodeId) {
        let shard = self.read_slots.lock().get(&node).map(|s| s.config.shard);
        net.crash(node);
        if let Some(shard) = shard {
            self.topology.remove_read_replica(shard, node);
        }
    }

    /// Restarts a crashed read replica. Devices power-fail, storage
    /// recovers from media, and the steady-state sync pull refills the
    /// rest — no quorum barrier is needed for a follower.
    pub fn restart_read_replica(&self, net: &Network<ClusterMsg>, node: NodeId) {
        self.spawn_read_replica(net, &mut self.read_slots.lock(), node, None);
    }

    /// Sends shutdown to every replica and joins the threads.
    pub fn shutdown(self) {
        let replicas: Vec<NodeId> = self.slots.lock().keys().copied().collect();
        for node in replicas.into_iter().chain(self.read_replicas()) {
            let _ = self.control.send(node, DataMsg::Shutdown.into());
        }
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}
