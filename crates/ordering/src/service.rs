//! Assembly of a whole ordering layer: spawns the sequencer tree plus its
//! backups as threads on a simulated network and hands back a control
//! handle. Also provides the client-side helper used by benchmarks and the
//! replication layer to obtain sequence numbers.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use flexlog_simnet::{Endpoint, Network, NodeId, RecvError};
use flexlog_types::{ColorId, Epoch, SeqNum, Token};

use crate::msg::{OrderMsg, OrderWire};
use crate::{BackupConfig, BackupNode, ColorRegistry, Directory, RoleId, SequencerConfig, SequencerNode, SequencerStats};

/// One sequencer position in the tree.
#[derive(Clone, Debug)]
pub struct PositionSpec {
    pub role: RoleId,
    /// Colors this position is the ordering root for.
    pub owned: Vec<ColorId>,
    pub parent: Option<RoleId>,
}

/// Specification of an ordering layer.
#[derive(Clone, Debug)]
pub struct TreeSpec {
    pub positions: Vec<PositionSpec>,
    /// Shared dynamic color registry (seeded from the positions' `owned`
    /// lists at start; extended by AddColor afterwards).
    pub registry: ColorRegistry,
    /// Backups per sequencer position (the paper's 2f).
    pub backups_per_position: usize,
    pub batch_interval: Duration,
    pub heartbeat_interval: Duration,
    pub delta: Duration,
    pub resend_timeout: Duration,
    pub election_window: Duration,
    /// Shared observability surface handed to every sequencer (and its
    /// promoted backups, via the cloned `SequencerConfig`).
    pub obs: flexlog_obs::ObsHandle,
}

impl Default for TreeSpec {
    fn default() -> Self {
        TreeSpec {
            positions: Vec::new(),
            registry: ColorRegistry::new(),
            backups_per_position: 0,
            batch_interval: Duration::from_micros(1),
            heartbeat_interval: Duration::from_millis(20),
            delta: Duration::from_millis(150),
            resend_timeout: Duration::from_millis(300),
            election_window: Duration::from_millis(60),
            obs: flexlog_obs::ObsHandle::default(),
        }
    }
}

impl TreeSpec {
    /// A single root sequencer owning all `colors`.
    pub fn single(colors: &[ColorId]) -> Self {
        TreeSpec {
            positions: vec![PositionSpec {
                role: RoleId(0),
                owned: colors.to_vec(),
                parent: None,
            }],
            ..Default::default()
        }
    }

    /// A root (owning `root_colors`, typically the master region) plus one
    /// leaf per entry of `leaf_colors`; each leaf owns its own colors and
    /// forwards the rest to the root. This is the paper's standard
    /// root + leaf-aggregator topology (Fig 2, §9.3).
    pub fn root_and_leaves(root_colors: &[ColorId], leaf_colors: &[Vec<ColorId>]) -> Self {
        let mut positions = vec![PositionSpec {
            role: RoleId(0),
            owned: root_colors.to_vec(),
            parent: None,
        }];
        for (i, owned) in leaf_colors.iter().enumerate() {
            positions.push(PositionSpec {
                role: RoleId(1 + i as u32),
                owned: owned.clone(),
                parent: Some(RoleId(0)),
            });
        }
        TreeSpec {
            positions,
            ..Default::default()
        }
    }

    /// A root–middle–…–leaf chain of `depth` sequencers where only the root
    /// owns `colors` (the "tree of 3 sequencers (root-middle-leaf)" setup of
    /// §9.1). Requests enter at the leaf (highest role id).
    pub fn chain(colors: &[ColorId], depth: usize) -> Self {
        assert!(depth >= 1);
        let positions = (0..depth)
            .map(|i| PositionSpec {
                role: RoleId(i as u32),
                owned: if i == 0 { colors.to_vec() } else { Vec::new() },
                parent: if i == 0 { None } else { Some(RoleId(i as u32 - 1)) },
            })
            .collect();
        TreeSpec {
            positions,
            ..Default::default()
        }
    }

    /// Role of the deepest position (entry point of [`TreeSpec::chain`]).
    pub fn leaf_role(&self) -> RoleId {
        self.positions
            .iter()
            .map(|p| p.role)
            .max()
            .expect("non-empty tree")
    }

    fn sequencer_config(&self, pos: &PositionSpec, backups: Vec<NodeId>) -> SequencerConfig {
        SequencerConfig {
            role: pos.role,
            owned: pos.owned.iter().copied().collect(),
            parent: pos.parent,
            backups,
            batch_interval: self.batch_interval,
            heartbeat_interval: self.heartbeat_interval,
            delta: self.delta,
            resend_timeout: self.resend_timeout,
            registry: self.registry.clone(),
            obs: self.obs.clone(),
        }
    }
}

/// Running ordering layer. Interior mutability on the role maps lets the
/// control plane spawn new leaf sequencers into a live tree
/// ([`OrderingHandle::spawn_leaf`]).
pub struct OrderingHandle<W: OrderWire> {
    pub directory: Directory,
    /// The spec the layer was started from; dynamic leaves inherit its
    /// timing parameters, registry, and obs surface.
    spec: TreeSpec,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Initial leader node per role.
    leaders: Mutex<HashMap<RoleId, NodeId>>,
    backups: Mutex<HashMap<RoleId, Vec<NodeId>>>,
    stats: Mutex<HashMap<RoleId, Arc<SequencerStats>>>,
    control: Endpoint<W>,
}

/// Spawner for ordering layers.
pub struct OrderingService;

impl OrderingService {
    /// Spawns every sequencer and backup of `spec` on `net`. Replicas to be
    /// initialized by promoted sequencers are given per role in
    /// `replicas_by_role` (empty for ordering-only deployments).
    pub fn start<W: OrderWire>(
        net: &Network<W>,
        spec: &TreeSpec,
        replicas_by_role: &HashMap<RoleId, Vec<NodeId>>,
    ) -> OrderingHandle<W> {
        Self::start_with_directory(net, spec, replicas_by_role, Directory::new())
    }

    /// Like [`OrderingService::start`] but using an externally created
    /// directory — required when the data layer (which also resolves leaf
    /// sequencers through the directory) is spawned first.
    pub fn start_with_directory<W: OrderWire>(
        net: &Network<W>,
        spec: &TreeSpec,
        replicas_by_role: &HashMap<RoleId, Vec<NodeId>>,
        directory: Directory,
    ) -> OrderingHandle<W> {
        let mut threads = Vec::new();
        let mut leaders = HashMap::new();
        let mut backups_map = HashMap::new();
        let mut stats = HashMap::new();

        for pos in &spec.positions {
            let leader_id = NodeId::named(NodeId::CLASS_SEQUENCER, pos.role.0 as u64);
            let backup_ids: Vec<NodeId> = (0..spec.backups_per_position)
                .map(|i| {
                    NodeId::named(
                        NodeId::CLASS_BACKUP,
                        (pos.role.0 as u64) * 64 + i as u64,
                    )
                })
                .collect();

            let seq_cfg = spec.sequencer_config(pos, backup_ids.clone());
            let node = SequencerNode::new(seq_cfg.clone(), directory.clone());
            stats.insert(pos.role, node.stats());
            directory.set(pos.role, leader_id);
            let ep = net.register(leader_id);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("seq-{}", pos.role.0))
                    .spawn(move || node.run(ep))
                    .expect("spawn sequencer"),
            );

            let replicas = replicas_by_role.get(&pos.role).cloned().unwrap_or_default();
            for (i, &bid) in backup_ids.iter().enumerate() {
                let peers: Vec<NodeId> = backup_ids
                    .iter()
                    .copied()
                    .filter(|&p| p != bid)
                    .collect();
                let cfg = BackupConfig {
                    sequencer: seq_cfg.clone(),
                    peers,
                    replicas_to_init: replicas.clone(),
                    election_window: spec.election_window,
                };
                let node = BackupNode::new(cfg, directory.clone());
                let ep = net.register(bid);
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("backup-{}-{}", pos.role.0, i))
                        .spawn(move || node.run(ep))
                        .expect("spawn backup"),
                );
            }
            leaders.insert(pos.role, leader_id);
            backups_map.insert(pos.role, backup_ids);
        }

        let control = net.register(NodeId::named(0, u64::MAX >> 4));
        OrderingHandle {
            directory,
            spec: spec.clone(),
            threads: Mutex::new(threads),
            leaders: Mutex::new(leaders),
            backups: Mutex::new(backups_map),
            stats: Mutex::new(stats),
            control,
        }
    }
}

impl<W: OrderWire> OrderingHandle<W> {
    /// Current node serving `role` (follows fail-overs).
    pub fn node_for(&self, role: RoleId) -> Option<NodeId> {
        self.directory.get(role)
    }

    /// The backup nodes of `role`.
    pub fn backup_nodes(&self, role: RoleId) -> Vec<NodeId> {
        self.backups
            .lock()
            .unwrap()
            .get(&role)
            .cloned()
            .unwrap_or_default()
    }

    /// Stats of the *initial* sequencer of `role`.
    pub fn stats(&self, role: RoleId) -> Arc<SequencerStats> {
        Arc::clone(&self.stats.lock().unwrap()[&role])
    }

    /// All roles currently known to the layer, sorted.
    pub fn roles(&self) -> Vec<RoleId> {
        let mut v: Vec<RoleId> = self.leaders.lock().unwrap().keys().copied().collect();
        v.sort();
        v
    }

    /// Spawns a brand-new leaf sequencer into the live tree (no backups —
    /// a dynamically added leaf can be re-spawned by the control plane).
    /// `epoch` must exceed every epoch its colors were previously ordered
    /// under, so re-homed colors keep SN monotonicity. The leaf owns
    /// nothing statically; ownership arrives via the shared registry.
    pub fn spawn_leaf(&self, net: &Network<W>, role: RoleId, parent: RoleId, epoch: Epoch) -> NodeId {
        let node_id = NodeId::named(NodeId::CLASS_SEQUENCER, role.0 as u64);
        let cfg = SequencerConfig {
            role,
            owned: std::collections::HashSet::new(),
            parent: Some(parent),
            backups: Vec::new(),
            batch_interval: self.spec.batch_interval,
            heartbeat_interval: self.spec.heartbeat_interval,
            delta: self.spec.delta,
            resend_timeout: self.spec.resend_timeout,
            registry: self.spec.registry.clone(),
            obs: self.spec.obs.clone(),
        };
        let node = SequencerNode::with_epoch(cfg, self.directory.clone(), epoch);
        self.stats.lock().unwrap().insert(role, node.stats());
        self.directory.set(role, node_id);
        let ep = net.register(node_id);
        self.threads.lock().unwrap().push(
            std::thread::Builder::new()
                .name(format!("seq-{}", role.0))
                .spawn(move || node.run(ep))
                .expect("spawn sequencer"),
        );
        self.leaders.lock().unwrap().insert(role, node_id);
        self.backups.lock().unwrap().insert(role, Vec::new());
        node_id
    }

    /// Crashes the node currently serving `role`.
    pub fn crash_leader(&self, net: &Network<W>, role: RoleId) {
        if let Some(node) = self.directory.get(role) {
            net.crash(node);
        }
    }

    /// Sends shutdown to every ordering node and joins the threads.
    pub fn shutdown(self, net: &Network<W>) {
        let leaders = self.leaders.into_inner().unwrap();
        let backups = self.backups.into_inner().unwrap();
        for (&role, &leader) in &leaders {
            // The current leader might be a promoted backup.
            if let Some(current) = self.directory.get(role) {
                let _ = self.control.send(current, W::from_order(OrderMsg::Shutdown));
            }
            let _ = self.control.send(leader, W::from_order(OrderMsg::Shutdown));
            for &b in &backups[&role] {
                let _ = self.control.send(b, W::from_order(OrderMsg::Shutdown));
            }
        }
        for t in self.threads.into_inner().unwrap() {
            // Crashed nodes' threads exit via Disconnected.
            let _ = t.join();
        }
        let _ = net;
    }
}

/// Client-side helper: requests `nrecords` SNs in `color` from the leaf
/// currently serving `leaf_role`, blocking until the OResp arrives.
/// Re-sends after `retry` (fail-over handling); `token` must be fresh.
pub fn request_order<W: OrderWire>(
    ep: &Endpoint<W>,
    directory: &Directory,
    leaf_role: RoleId,
    color: ColorId,
    token: Token,
    nrecords: u32,
    retry: Duration,
) -> Result<SeqNum, RecvError> {
    loop {
        if let Some(leaf) = directory.get(leaf_role) {
            let _ = ep.send(
                leaf,
                W::from_order(OrderMsg::OReq {
                    color,
                    token,
                    nrecords,
                    shard: vec![ep.id()],
                }),
            );
        }
        let deadline = std::time::Instant::now() + retry;
        while std::time::Instant::now() < deadline {
            match ep.recv_timeout(retry) {
                Ok((_, wire)) => match wire.into_order() {
                    Some(OrderMsg::OResp { token: t, last_sn }) if t == token => {
                        return Ok(last_sn);
                    }
                    Some(OrderMsg::ORespBatch { resps }) => {
                        if let Some(&(_, last_sn)) =
                            resps.iter().find(|&&(t, _)| t == token)
                        {
                            return Ok(last_sn);
                        }
                    }
                    _ => {}
                },
                Err(RecvError::Timeout) => break,
                Err(e @ RecvError::Disconnected) => return Err(e),
            }
        }
    }
}
