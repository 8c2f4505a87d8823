//! Assembly of the data layer: spawns every node the catalog lists, and
//! exposes crash / recover fault injection.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use flexlog_ordering::{Catalog, Change, Directory, RoleId};
use flexlog_simnet::{Network, NodeId};
use flexlog_storage::StorageServer;
use flexlog_types::ShardId;

use crate::msg::{ClusterMsg, DataMsg};
use crate::{ReadReplicaNode, ReplicaConfig, ReplicaNode, ShardInfo};

/// What a restart needs of one spawned node: its shard and its current
/// storage (whose devices outlive a crash).
struct Slot {
    shard: ShardId,
    storage: Arc<StorageServer>,
}

impl Slot {
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
    /// The cluster's catalog: the nodes read their shard from it and the
    /// handle lists the nodes it adds or crashes there.
    pub topology: Catalog,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Every node ever spawned, quorum and read replicas alike (a node's
    /// id class says which).
    slots: Mutex<HashMap<NodeId, Slot>>,
    control: flexlog_simnet::Endpoint<ClusterMsg>,
    /// The configuration of every node, including those added at runtime.
    template: ReplicaConfig,
}

/// Spawner for data layers.
pub struct DataLayerService;

impl DataLayerService {
    /// Spawns every replica and read replica the catalog `topology` lists on
    /// `net`, each configured by `template`. The catalog stays shared with
    /// the nodes (which read their shard, peers and leaf from it) and with
    /// clients, and the returned handle lists the nodes it adds there.
    pub fn start(
        net: &Network<ClusterMsg>,
        directory: &Directory,
        topology: Catalog,
        template: ReplicaConfig,
    ) -> DataLayerHandle {
        let handle = DataLayerHandle {
            topology,
            threads: Mutex::new(Vec::new()),
            slots: Mutex::new(HashMap::new()),
            control: net.register(NodeId::named(0, (u64::MAX >> 4) - 1)),
            template,
        };
        let mut slots = handle.slots.lock();
        for info in handle.topology.all_shards() {
            for &node in info.replicas.iter().chain(&info.read_replicas) {
                handle.spawn(net, directory, &mut slots, node, info.id, false);
            }
        }
        drop(slots);
        handle
    }
}

impl DataLayerHandle {
    /// Replica node ids of a shard.
    pub fn shard_replicas(&self, shard: ShardId) -> Vec<NodeId> {
        self.topology
            .shard(shard)
            .map(|s| s.replicas.to_vec())
            .unwrap_or_default()
    }

    /// All replica node ids (for ordering-layer init lists).
    pub fn all_replicas(&self) -> Vec<NodeId> {
        self.topology
            .all_shards()
            .into_iter()
            .flat_map(|s| s.replicas.to_vec())
            .collect()
    }

    /// Replica node ids grouped by the leaf role their shard attaches to
    /// (input for `OrderingService::start`'s `replicas_by_role`).
    pub fn replicas_by_leaf_role(&self) -> HashMap<RoleId, Vec<NodeId>> {
        let mut m: HashMap<RoleId, Vec<NodeId>> = HashMap::new();
        for s in self.topology.all_shards() {
            m.entry(s.leaf).or_default().extend(s.replicas.iter());
        }
        m
    }

    /// The storage server of a replica or read replica (tier stats in
    /// benchmarks/tests).
    pub fn storage_of(&self, node: NodeId) -> Option<Arc<StorageServer>> {
        self.slots.lock().get(&node).map(|s| Arc::clone(&s.storage))
    }

    /// The one way a data-layer node starts: fresh, or — `restart` —
    /// power-cycled from its slot. A restarted quorum replica runs the
    /// sync-phase before serving (§6.3); a read replica needs no barrier,
    /// its pull loop refills the rest. Either way the node reads its shard
    /// from the topology, so a read replica is listed there first — which
    /// also shifts client read traffic onto it from the next resolution.
    /// The caller holds the `slots` lock (new node ids are allocated under
    /// it).
    fn spawn(
        &self,
        net: &Network<ClusterMsg>,
        directory: &Directory,
        slots: &mut HashMap<NodeId, Slot>,
        node: NodeId,
        shard: ShardId,
        restart: bool,
    ) {
        let recovered = restart.then(|| slots.get_mut(&node).expect("unknown node").power_cycle());
        let (config, topology) = (self.template.clone(), self.topology.clone());
        let ep = net.register(node);
        let (storage, run): (_, Box<dyn FnOnce() + Send>) =
            if node.class() == NodeId::CLASS_READ_REPLICA {
                let listed = self.topology.apply(Change::AddReadReplica { shard, node });
                listed.expect("a read replica of a listed shard");
                let rr = match recovered {
                    Some(storage) => ReadReplicaNode::recovered(node, &config, topology, storage),
                    None => ReadReplicaNode::new(node, &config, topology),
                };
                (rr.storage(), Box::new(move || rr.run(ep)))
            } else {
                let directory = directory.clone();
                let replica = match recovered {
                    Some(storage) => {
                        ReplicaNode::recovered(node, config, directory, topology, storage)
                    }
                    None => ReplicaNode::new(node, config, directory, topology),
                };
                (replica.storage(), Box::new(move || replica.run(ep)))
            };
        slots.insert(node, Slot { shard, storage });
        let name = if restart { format!("{node}-r") } else { format!("{node}") };
        let thread = std::thread::Builder::new().name(name).spawn(run);
        self.threads.lock().push(thread.expect("spawn node thread"));
    }

    /// Crashes a replica or read replica process. Its devices retain their
    /// durable state; a read replica also stops being a read target, so
    /// clients re-route.
    pub fn crash_replica(&self, net: &Network<ClusterMsg>, node: NodeId) {
        let shard = self.slots.lock().get(&node).map(|s| s.shard);
        net.crash(node);
        if let Some(shard) = shard.filter(|_| node.class() == NodeId::CLASS_READ_REPLICA) {
            let _ = self.topology.apply(Change::RemoveReadReplica { shard, node });
        }
    }

    /// Restarts a crashed replica or read replica: devices lose their
    /// volatile state (power-fail semantics) and storage recovers from the
    /// media. A quorum replica then runs the sync-phase before serving
    /// (§6.3); a read replica's pull loop refills the rest.
    pub fn restart_replica(&self, net: &Network<ClusterMsg>, directory: &Directory, node: NodeId) {
        let mut slots = self.slots.lock();
        let shard = slots.get(&node).expect("unknown replica").shard;
        self.spawn(net, directory, &mut slots, node, shard, true);
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
        let info = self.topology.add_shard(r, leaf_role);
        for &node in info.replicas.iter() {
            self.spawn(net, directory, &mut slots, node, info.id, false);
        }
        info
    }

    /// Attaches one new read-only replica to `shard` and spawns it.
    pub fn add_read_replica(
        &self,
        net: &Network<ClusterMsg>,
        directory: &Directory,
        shard: ShardId,
    ) -> NodeId {
        assert!(self.topology.shard(shard).is_some(), "unknown shard {shard:?}");
        let mut slots = self.slots.lock();
        let next = read_replicas_in(&slots).last().map_or(0, |n| n.index() + 1);
        let node = NodeId::named(NodeId::CLASS_READ_REPLICA, next);
        self.spawn(net, directory, &mut slots, node, shard, false);
        node
    }

    /// All read-replica node ids, sorted.
    pub fn read_replicas(&self) -> Vec<NodeId> {
        read_replicas_in(&self.slots.lock())
    }

    /// Sends shutdown to every replica and joins the threads.
    pub fn shutdown(self) {
        for &node in self.slots.lock().keys() {
            let _ = self.control.send(node, DataMsg::Shutdown.into());
        }
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

/// The read replicas among `slots`, sorted.
fn read_replicas_in(slots: &HashMap<NodeId, Slot>) -> Vec<NodeId> {
    let mut v: Vec<NodeId> =
        slots.keys().copied().filter(|n| n.class() == NodeId::CLASS_READ_REPLICA).collect();
    v.sort();
    v
}
