//! Assembly of a whole ordering layer: spawns the sequencer tree plus its
//! backups as threads on a simulated network and hands back a control
//! handle. Also provides the client-side helper used by benchmarks and the
//! replication layer to obtain sequence numbers.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flexlog_simnet::{Endpoint, Network, NodeId, RecvError};
use flexlog_types::{ColorId, Epoch, SeqNum, Token};
use parking_lot::Mutex;

use crate::backup::BackupNode;
use crate::msg::{OrderMsg, OrderWire};
use crate::sequencer::SequencerNode;
use crate::{Catalog, Change, Directory, RoleId, SequencerStats};

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
    /// The cluster's catalog: [`OrderingService::start`] places the
    /// positions' `owned` colors in it, AddColor and leaf splits change it
    /// afterwards, and the sequencers ask nothing else who orders a color.
    pub catalog: Catalog,
    /// Backups per sequencer position (the paper's 2f).
    pub backups_per_position: usize,
    pub batch_interval: Duration,
    pub heartbeat_interval: Duration,
    pub delta: Duration,
    pub election_window: Duration,
    /// Shared observability surface handed to every sequencer (and its
    /// promoted backups).
    pub obs: flexlog_obs::ObsHandle,
}

impl Default for TreeSpec {
    fn default() -> Self {
        TreeSpec {
            positions: Vec::new(),
            catalog: Catalog::new(),
            backups_per_position: 0,
            batch_interval: Duration::from_micros(1),
            heartbeat_interval: Duration::from_millis(20),
            delta: Duration::from_millis(150),
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
}

/// One position of a running layer.
struct Position {
    /// The node the position started on (a promoted backup may lead it now).
    leader: NodeId,
    backups: Vec<NodeId>,
    /// Counters of the sequencer on `leader`.
    stats: SequencerStats,
    threads: Vec<JoinHandle<()>>,
}

/// Running ordering layer. Interior mutability on the positions lets the
/// control plane spawn new leaf sequencers into a live tree
/// ([`OrderingHandle::spawn_leaf`]).
pub struct OrderingHandle<W: OrderWire> {
    pub directory: Directory,
    /// The spec the layer was started from; dynamic leaves inherit its
    /// timing parameters, catalog, and obs surface.
    spec: TreeSpec,
    positions: Mutex<BTreeMap<RoleId, Position>>,
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
        let handle = OrderingHandle {
            directory,
            spec: spec.clone(),
            positions: Mutex::new(BTreeMap::new()),
            control: net.register(NodeId::named(0, u64::MAX >> 4)),
        };
        for pos in &spec.positions {
            for &color in &pos.owned {
                // A spec started twice is placed once.
                let _ = spec.catalog.apply(Change::PlaceColor { color, role: pos.role });
            }
            let replicas = replicas_by_role.get(&pos.role).cloned().unwrap_or_default();
            handle.spawn(net, pos, spec.backups_per_position, replicas, Epoch(1));
        }
        handle
    }
}

impl<W: OrderWire> OrderingHandle<W> {
    /// Spawns the sequencer of `pos` at `epoch` beside `n_backups` backups,
    /// each on a thread of its own, and records the position.
    fn spawn(
        &self,
        net: &Network<W>,
        pos: &PositionSpec,
        n_backups: usize,
        replicas: Vec<NodeId>,
        epoch: Epoch,
    ) -> NodeId {
        let role = pos.role.0 as u64;
        let leader = NodeId::named(NodeId::CLASS_SEQUENCER, role);
        let backups: Vec<NodeId> = (0..n_backups as u64)
            .map(|i| NodeId::named(NodeId::CLASS_BACKUP, role * 64 + i))
            .collect();
        let mut node =
            SequencerNode::new(pos, backups.clone(), &self.spec, self.directory.clone(), epoch);
        let stats = node.stats();
        self.directory.set(pos.role, leader);
        let ep = net.register(leader);
        let mut threads = vec![spawn_named(format!("seq-{role}"), move || node.run(ep))];
        for (i, &bid) in backups.iter().enumerate() {
            let peers = backups.iter().copied().filter(|&p| p != bid).collect();
            let node =
                BackupNode::new(pos, peers, replicas.clone(), &self.spec, self.directory.clone());
            let ep = net.register(bid);
            threads.push(spawn_named(format!("backup-{role}-{i}"), move || node.run(ep)));
        }
        let position = Position { leader, backups, stats, threads };
        self.positions.lock().insert(pos.role, position);
        leader
    }

    /// Current node serving `role` (follows fail-overs).
    pub fn node_for(&self, role: RoleId) -> Option<NodeId> {
        self.directory.get(role)
    }

    /// The backup nodes of `role`.
    pub fn backup_nodes(&self, role: RoleId) -> Vec<NodeId> {
        self.positions.lock().get(&role).map(|p| p.backups.clone()).unwrap_or_default()
    }

    /// Stats of the *initial* sequencer of `role`.
    pub fn stats(&self, role: RoleId) -> SequencerStats {
        self.positions.lock()[&role].stats.clone()
    }

    /// All roles currently known to the layer, sorted.
    pub fn roles(&self) -> Vec<RoleId> {
        self.positions.lock().keys().copied().collect()
    }

    /// Spawns a brand-new leaf sequencer into the live tree (no backups —
    /// a dynamically added leaf can be re-spawned by the control plane).
    /// `epoch` must exceed every epoch its colors were previously ordered
    /// under, so re-homed colors keep SN monotonicity. The leaf orders
    /// nothing until the catalog says so.
    pub fn spawn_leaf(&self, net: &Network<W>, role: RoleId, parent: RoleId, epoch: Epoch) -> NodeId {
        let pos = PositionSpec { role, owned: Vec::new(), parent: Some(parent) };
        self.spawn(net, &pos, 0, Vec::new(), epoch)
    }

    /// Crashes the node currently serving `role`.
    pub fn crash_leader(&self, net: &Network<W>, role: RoleId) {
        if let Some(node) = self.directory.get(role) {
            net.crash(node);
        }
    }

    /// Sends shutdown to every ordering node and joins the threads.
    pub fn shutdown(self, net: &Network<W>) {
        let positions = self.positions.into_inner();
        for (&role, p) in &positions {
            // The current leader might be a promoted backup.
            let current = self.directory.get(role);
            for node in current.into_iter().chain([p.leader]).chain(p.backups.iter().copied()) {
                let _ = self.control.send(node, W::from_order(OrderMsg::Shutdown));
            }
        }
        for t in positions.into_values().flat_map(|p| p.threads) {
            // Crashed nodes' threads exit via Disconnected.
            let _ = t.join();
        }
        let _ = net;
    }
}

fn spawn_named(name: String, run: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new().name(name).spawn(run).expect("spawn ordering node")
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
                    shard: Arc::from([ep.id()]),
                }),
            );
        }
        // Wait for what is left of the window, whatever else arrives in it.
        let deadline = Instant::now() + retry;
        loop {
            match ep.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((_, wire)) => {
                    if let Some(OrderMsg::OResp { resps }) = wire.into_order() {
                        if let Some(&(_, last_sn)) = resps.iter().find(|&&(t, _)| t == token) {
                            return Ok(last_sn);
                        }
                    }
                }
                Err(RecvError::Timeout) => break,
                Err(e @ RecvError::Disconnected) => return Err(e),
            }
        }
    }
}
