//! Whole-deployment assembly and fault injection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use flexlog_obs::{ObsHandle, Trace};
use flexlog_ordering::{
    Catalog, Change, Directory, OrderingHandle, OrderingService, RoleId, TreeSpec,
};
use flexlog_replication::{
    ClientConfig, ClusterMsg, DataLayerHandle, DataLayerService, FlexLogClient, ReplicaConfig,
    ShardInfo,
};
use flexlog_pm::{PmDevice, PmDeviceConfig, PmPool};
use flexlog_simnet::{NetConfig, Network, NodeId};
use flexlog_storage::StorageConfig;
use flexlog_types::{ColorId, Epoch, FunctionId, ShardId, Token};

use crate::{ColorAdmin, FlexLog};

/// Declarative description of a FlexLog deployment.
#[derive(Clone)]
pub struct ClusterSpec {
    /// Leaf sequencers under the root (0 = a single root sequencer orders
    /// everything and shards attach to it directly).
    pub leaves: usize,
    /// Shards attached to each leaf (or to the root when `leaves == 0`).
    pub shards_per_leaf: usize,
    /// Replicas per shard (paper default 3).
    pub replication_factor: usize,
    /// Read-only replicas attached to each shard (0 = the write quorum
    /// serves reads). Read replicas follow the quorum via the sync path
    /// and absorb the read/subscription fan-out.
    pub read_replicas_per_shard: usize,
    /// Backups per sequencer position (the paper's 2f; 0 disables
    /// fail-over machinery for benchmarks).
    pub backups_per_sequencer: usize,
    /// Network characteristics.
    pub net: NetConfig,
    /// Per-replica storage stack configuration.
    pub storage: StorageConfig,
    /// Sequencer batching interval (paper default 1 µs).
    pub batch_interval: Duration,
    /// Failure-detection bound Δ: the sequencers' heartbeat and election
    /// timers and every data-layer timer derive from it
    /// (`ReplicaConfig::delta`).
    pub delta: Duration,
    /// Client initial retransmit backoff / backoff cap / overall deadline.
    pub client_retry: Duration,
    pub client_max_retry: Duration,
    pub client_deadline: Duration,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            leaves: 0,
            shards_per_leaf: 1,
            replication_factor: 3,
            read_replicas_per_shard: 0,
            backups_per_sequencer: 0,
            net: NetConfig::instant(),
            storage: StorageConfig::default(),
            batch_interval: Duration::from_micros(1),
            delta: Duration::from_millis(100),
            client_retry: Duration::from_millis(150),
            client_max_retry: Duration::from_secs(2),
            client_deadline: Duration::from_secs(30),
        }
    }
}

impl ClusterSpec {
    /// The paper's minimal linearizable setup: one root sequencer, one
    /// shard of 3 replicas (§9.2).
    pub fn single_shard() -> Self {
        ClusterSpec::default()
    }

    /// Root + `leaves` leaf sequencers, `shards_per_leaf` shards each —
    /// the standard scalable topology (§9.3).
    pub fn tree(leaves: usize, shards_per_leaf: usize) -> Self {
        ClusterSpec {
            leaves,
            shards_per_leaf,
            ..Default::default()
        }
    }
}

/// A running FlexLog deployment.
pub struct FlexLogCluster {
    net: Network<ClusterMsg>,
    directory: Directory,
    admin: ColorAdmin,
    data: DataLayerHandle,
    ordering: OrderingHandle<ClusterMsg>,
    spec: ClusterSpec,
    next_client: AtomicU64,
    obs: ObsHandle,
    /// The controller's durable PM device, surfaced as a shared pool. It
    /// models hardware that outlives any one controller process: a
    /// controller crash kills the controller's *node* (and its volatile
    /// state), never this pool.
    ctrl_wal: Arc<PmPool>,
    /// Highest controller generation that has attached to this cluster.
    ctrl_gen: AtomicU64,
    /// Highest controller generation whose node has been crashed.
    ctrl_killed: AtomicU64,
}

/// Puts every thread of the process on one malloc arena (glibc), once.
///
/// A deployment here is one process: every node is a thread, and a record
/// crosses threads at every hop — a client builds a batch, three replicas
/// free it, a scan's payloads are freed by whoever reads them. glibc gives
/// each thread an arena of its own (up to 8 per core) and a freed block
/// goes back to the arena that made it, so memory one node let go of
/// cannot serve another: at the end of a 10 s `append-pipelined` run a
/// third of the peak RSS was free blocks stranded that way. One arena
/// serves them all; the per-thread caches in front of it still take most
/// allocations without its lock.
fn share_one_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
        }
        const M_ARENA_MAX: std::ffi::c_int = -8;
        static ONCE: std::sync::Once = std::sync::Once::new();
        // SAFETY: `mallopt` only sets an allocator parameter; glibc takes
        // its own lock to do so.
        ONCE.call_once(|| unsafe {
            mallopt(M_ARENA_MAX, 1);
        });
    }
}

impl FlexLogCluster {
    /// Builds and starts every component of `spec`.
    pub fn start(spec: ClusterSpec) -> Self {
        share_one_heap();
        // One observability surface for the whole deployment: every layer
        // (clients, sequencers, replicas, storage, network) reports into it.
        let obs = ObsHandle::new();
        let mut spec = spec;
        spec.storage.obs = obs.clone();
        let net: Network<ClusterMsg> = Network::new(spec.net.clone());
        net.attach_obs(&obs);
        let directory = Directory::new();

        // --- catalog ------------------------------------------------------
        // The one description of the deployment: sequencers order by it,
        // replicas find their shard and route OReqs by it, clients route
        // by it. A leaf's region is its own shards, the root's every shard;
        // the master region is owned by the root and stored anywhere.
        let leaf_roles: Vec<RoleId> = if spec.leaves == 0 {
            vec![RoleId(0)]
        } else {
            (1..=spec.leaves as u32).map(RoleId).collect()
        };
        let catalog = Catalog::uniform(
            spec.shards_per_leaf * leaf_roles.len(),
            spec.replication_factor,
            spec.read_replicas_per_shard,
            &leaf_roles,
        );
        let master = Change::PlaceColor { color: ColorId::MASTER, role: RoleId(0) };
        catalog.apply(master).expect("the master region of a fresh catalog");

        // --- data layer -------------------------------------------------
        let replica = ReplicaConfig { storage: spec.storage.clone(), delta: spec.delta };
        let data = DataLayerService::start(&net, &directory, catalog.clone(), replica);

        // --- ordering layer ----------------------------------------------
        let mut tree = if spec.leaves == 0 {
            TreeSpec::single(&[])
        } else {
            TreeSpec::root_and_leaves(&[], &vec![Vec::new(); spec.leaves])
        };
        tree.catalog = catalog.clone();
        tree.obs = obs.clone();
        tree.backups_per_position = spec.backups_per_sequencer;
        tree.batch_interval = spec.batch_interval;
        tree.delta = spec.delta;
        tree.heartbeat_interval = (spec.delta / 5).max(Duration::from_millis(5));
        tree.election_window = spec.delta / 2;
        let ordering = OrderingService::start_with_directory(
            &net,
            &tree,
            &data.replicas_by_leaf_role(),
            directory.clone(),
        );

        let ctrl_wal = Arc::new(PmPool::create(Arc::new(PmDevice::new(PmDeviceConfig {
            capacity: 256 * 1024,
            ..Default::default()
        }))));
        FlexLogCluster {
            net,
            directory,
            admin: ColorAdmin::new(catalog),
            data,
            ordering,
            spec,
            next_client: AtomicU64::new(1),
            obs,
            ctrl_wal,
            ctrl_gen: AtomicU64::new(0),
            ctrl_killed: AtomicU64::new(0),
        }
    }

    /// A new client handle (a "serverless function" talking to the log).
    pub fn handle(&self) -> FlexLog {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let ep = self.net.register(NodeId::named(NodeId::CLASS_CLIENT, id));
        let client = FlexLogClient::new(
            ep,
            self.data.topology.clone(),
            ClientConfig {
                fid: FunctionId(id as u32),
                retry: self.spec.client_retry,
                max_retry: self.spec.client_max_retry,
                deadline: self.spec.client_deadline,
                obs: self.obs.clone(),
                ..Default::default()
            },
        );
        FlexLog::new(client, self.admin.clone())
    }

    /// Color administration (shared with every handle).
    pub fn colors(&self) -> &ColorAdmin {
        &self.admin
    }

    /// The cluster's network (latency/partition injection).
    pub fn network(&self) -> &Network<ClusterMsg> {
        &self.net
    }

    /// The role directory (who currently leads each sequencer position).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Data-layer handle (replica crash/restart, storage stats).
    pub fn data(&self) -> &DataLayerHandle {
        &self.data
    }

    /// Ordering-layer handle (sequencer crash, stats).
    pub fn ordering(&self) -> &OrderingHandle<ClusterMsg> {
        &self.ordering
    }

    /// The cluster-wide observability surface (shared by every layer).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Human-readable snapshot of every metric across all layers.
    pub fn metrics_report(&self) -> String {
        self.obs.report_text()
    }

    /// The same snapshot as a JSON object (one key per metric).
    pub fn metrics_report_json(&self) -> String {
        self.obs.report_json()
    }

    /// The recorded event chain of one append token, across every layer it
    /// touched (client → sequencer → replicas → storage).
    pub fn trace(&self, token: Token) -> Trace {
        self.obs.trace(token)
    }

    /// Leaf sequencer roles in this deployment, including leaves spawned
    /// at runtime by the control plane. A root-only deployment reports the
    /// root as its sole "leaf".
    pub fn leaf_roles(&self) -> Vec<RoleId> {
        let roles = self.ordering.roles();
        let leaves: Vec<RoleId> = roles.iter().copied().filter(|r| r.0 != 0).collect();
        if leaves.is_empty() {
            vec![RoleId(0)]
        } else {
            leaves
        }
    }

    /// The cluster's catalog: every color's parent, owner, entry role and
    /// shards, and every shard's nodes. [`Catalog::apply`] is its one
    /// writer.
    pub fn catalog(&self) -> &Catalog {
        &self.data.topology
    }

    /// Elastic scale-out: spawns a brand-new shard of
    /// `replication_factor` replicas attached to `leaf` (it joins the
    /// leaf's and the root's region) and returns it. The shard serves no
    /// colors until one is created there or migrated in.
    pub fn add_shard(&self, leaf: RoleId) -> ShardInfo {
        self.data.add_shard(&self.net, &self.directory, leaf, self.spec.replication_factor)
    }

    /// Attaches one more read-only replica to `shard` at runtime and
    /// registers it as a read target.
    pub fn add_read_replica(&self, shard: ShardId) -> NodeId {
        self.data.add_read_replica(&self.net, &self.directory, shard)
    }

    /// Spawns a brand-new leaf sequencer under `parent` at `epoch`
    /// (sequencer-tree split). The caller (control plane) is responsible
    /// for re-homing colors to it in the catalog.
    pub fn spawn_leaf_sequencer(&self, role: RoleId, parent: RoleId, epoch: Epoch) -> NodeId {
        self.ordering.spawn_leaf(&self.net, role, parent, epoch)
    }

    /// The controller's durable intent-WAL pool. Shared: it models the
    /// controller's PM device, which survives controller crashes.
    pub fn ctrl_wal(&self) -> Arc<PmPool> {
        Arc::clone(&self.ctrl_wal)
    }

    /// Records that a controller of `gen` attached (monotonic max).
    pub fn note_ctrl_generation(&self, gen: u64) {
        self.ctrl_gen.fetch_max(gen, Ordering::SeqCst);
    }

    /// Highest controller generation that has attached to this cluster.
    pub fn ctrl_generation(&self) -> u64 {
        self.ctrl_gen.load(Ordering::SeqCst)
    }

    /// Highest controller generation whose node has been crashed.
    pub fn ctrl_killed_generation(&self) -> u64 {
        self.ctrl_killed.load(Ordering::SeqCst)
    }

    /// The network identity of the controller of `gen`. Each generation
    /// gets its own node so a successor's endpoint never receives acks
    /// addressed to a crashed predecessor.
    pub fn ctrl_node(gen: u64) -> NodeId {
        NodeId::named(0, (u64::MAX >> 4) - 1024 - gen)
    }

    /// Kills every controller generation attached so far: their network
    /// nodes are crashed (in-flight messages dropped, endpoints
    /// disconnected). The WAL device is NOT touched — PM survives a
    /// process crash. Returns the highest generation killed.
    pub fn crash_controller(&self) -> u64 {
        let cur = self.ctrl_generation();
        let prev = self.ctrl_killed.fetch_max(cur, Ordering::SeqCst);
        for gen in (prev + 1)..=cur {
            self.net.crash(Self::ctrl_node(gen));
        }
        cur
    }

    /// Convenience: create a color under the master region.
    pub fn add_color(&self, color: ColorId) -> Result<(), crate::ColorError> {
        self.admin.add_color(color, ColorId::MASTER)
    }

    /// Stops every node and joins all threads.
    pub fn shutdown(self) {
        self.data.shutdown();
        self.ordering.shutdown(&self.net);
    }
}
