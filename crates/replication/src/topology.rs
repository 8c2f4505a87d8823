//! Shared topology view: shards, their replicas and leaf sequencers, and
//! the color → shards mapping — the one description of the data layer.
//!
//! Clients need to know which shards serve a color (appends pick a random
//! one, reads contact one replica of each, §5.1); replicas executing
//! multi-color appends act as clients themselves (Algorithm 2). Both resolve
//! through this shared view. A node reads its own shard, its peers and its
//! leaf from it ([`TopologyView::shard_of`]); the data layer spawns every
//! node it lists. `AddColor` and scale-out update it at runtime.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use rand::Rng;

use flexlog_ordering::RoleId;
use flexlog_simnet::NodeId;
use flexlog_types::{ColorId, ShardId};

/// One shard of the data layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    pub id: ShardId,
    /// All replicas (write-all set).
    pub replicas: Vec<NodeId>,
    /// The leaf sequencer role this shard is attached to.
    pub leaf: RoleId,
    /// Read-only replicas attached to this shard: they follow the quorum
    /// via the §6.3 sync path and serve reads/subscriptions, but never
    /// join the write-all set. May be empty.
    pub read_replicas: Vec<NodeId>,
}

impl ShardInfo {
    /// The nodes client read traffic (reads, pulls, push subscriptions)
    /// should land on: read replicas when the shard has them, otherwise
    /// the quorum replicas.
    pub fn read_targets(&self) -> &[NodeId] {
        if self.read_replicas.is_empty() {
            &self.replicas
        } else {
            &self.read_replicas
        }
    }

    /// A uniformly random read target (see [`ShardInfo::read_targets`]).
    pub fn random_read_target<R: Rng>(&self, rng: &mut R) -> NodeId {
        let t = self.read_targets();
        t[rng.gen_range(0..t.len())]
    }
}

#[derive(Default)]
struct Inner {
    shards: HashMap<ShardId, ShardInfo>,
    /// Shards serving each color (the shards of the color's region).
    colors: HashMap<ColorId, Vec<ShardId>>,
}

/// Cheap-to-clone shared topology.
#[derive(Clone, Default)]
pub struct TopologyView {
    inner: Arc<RwLock<Inner>>,
}

impl TopologyView {
    pub fn new() -> Self {
        TopologyView::default()
    }

    /// `n_shards` shards of `r` replicas and `read_replicas` read-only
    /// replicas each, attached to `leaves` round-robin. Serves no color yet.
    pub fn uniform(n_shards: usize, r: usize, read_replicas: usize, leaves: &[RoleId]) -> Self {
        let t = TopologyView::new();
        let mut next = 0..;
        for i in 0..n_shards {
            let shard = t.new_shard(r, leaves[i % leaves.len()]).id;
            for index in next.by_ref().take(read_replicas) {
                t.add_read_replica(shard, NodeId::named(NodeId::CLASS_READ_REPLICA, index));
            }
        }
        t
    }

    /// Registers a shard.
    pub fn add_shard(&self, info: ShardInfo) {
        self.inner.write().shards.insert(info.id, info);
    }

    /// Registers a new shard of `r` replicas under `leaf`, with the next
    /// free shard id and the next free replica node ids, and returns it.
    pub fn new_shard(&self, r: usize, leaf: RoleId) -> ShardInfo {
        let mut inner = self.inner.write();
        let shards = inner.shards.values();
        let id = ShardId(shards.clone().map(|s| s.id.0 + 1).max().unwrap_or(0));
        let next = shards.flat_map(|s| &s.replicas).map(|n| n.index() + 1).max().unwrap_or(0);
        let replicas = (next..next + r as u64)
            .map(|i| NodeId::named(NodeId::CLASS_REPLICA, i))
            .collect();
        let info = ShardInfo { id, replicas, leaf, read_replicas: Vec::new() };
        inner.shards.insert(id, info.clone());
        info
    }

    /// The shard `node` is a replica or a read replica of.
    pub fn shard_of(&self, node: NodeId) -> Option<ShardInfo> {
        let inner = self.inner.read();
        let mut shards = inner.shards.values();
        shards.find(|s| s.replicas.contains(&node) || s.read_replicas.contains(&node)).cloned()
    }

    /// Attaches a read-only replica to an existing shard.
    pub fn add_read_replica(&self, shard: ShardId, node: NodeId) {
        if let Some(s) = self.inner.write().shards.get_mut(&shard) {
            if !s.read_replicas.contains(&node) {
                s.read_replicas.push(node);
            }
        }
    }

    /// Detaches a read-only replica (crash handling: clients stop routing
    /// reads to it).
    pub fn remove_read_replica(&self, shard: ShardId, node: NodeId) {
        if let Some(s) = self.inner.write().shards.get_mut(&shard) {
            s.read_replicas.retain(|&n| n != node);
        }
    }

    /// The colors currently mapped to `shard` (what a read replica of the
    /// shard must follow).
    pub fn colors_on(&self, shard: ShardId) -> Vec<ColorId> {
        let inner = self.inner.read();
        let mut v: Vec<ColorId> = inner
            .colors
            .iter()
            .filter(|(_, shards)| shards.contains(&shard))
            .map(|(&c, _)| c)
            .collect();
        v.sort();
        v
    }

    /// Maps `color` to the shards that may store it (replacing any previous
    /// mapping).
    pub fn set_color_shards(&self, color: ColorId, shards: Vec<ShardId>) {
        self.inner.write().colors.insert(color, shards);
    }

    /// The shards serving `color`.
    pub fn shards_of(&self, color: ColorId) -> Vec<ShardInfo> {
        let inner = self.inner.read();
        inner
            .colors
            .get(&color)
            .map(|ids| {
                ids.iter()
                    .filter_map(|id| inner.shards.get(id).cloned())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// A uniformly random shard of `color` (append target selection).
    pub fn random_shard_of<R: Rng>(&self, color: ColorId, rng: &mut R) -> Option<ShardInfo> {
        let shards = self.shards_of(color);
        if shards.is_empty() {
            return None;
        }
        let i = rng.gen_range(0..shards.len());
        Some(shards[i].clone())
    }

    /// Shard lookup by id.
    pub fn shard(&self, id: ShardId) -> Option<ShardInfo> {
        self.inner.read().shards.get(&id).cloned()
    }

    /// All registered shards.
    pub fn all_shards(&self) -> Vec<ShardInfo> {
        let mut v: Vec<ShardInfo> = self.inner.read().shards.values().cloned().collect();
        v.sort_by_key(|s| s.id);
        v
    }

    /// All colors with a shard mapping.
    pub fn colors(&self) -> Vec<ColorId> {
        let mut v: Vec<ColorId> = self.inner.read().colors.keys().copied().collect();
        v.sort();
        v
    }

    /// True if the color has at least one shard.
    pub fn knows_color(&self, color: ColorId) -> bool {
        self.inner
            .read()
            .colors
            .get(&color)
            .is_some_and(|s| !s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shard(i: u32, leaf: u32) -> ShardInfo {
        ShardInfo {
            id: ShardId(i),
            replicas: vec![NodeId(100 + i as u64), NodeId(200 + i as u64)],
            leaf: RoleId(leaf),
            read_replicas: Vec::new(),
        }
    }

    #[test]
    fn read_targets_prefer_read_replicas() {
        let t = TopologyView::new();
        t.add_shard(shard(1, 0));
        let s = t.shard(ShardId(1)).unwrap();
        assert_eq!(s.read_targets(), &s.replicas[..]);
        t.add_read_replica(ShardId(1), NodeId(900));
        t.add_read_replica(ShardId(1), NodeId(900)); // idempotent
        let s = t.shard(ShardId(1)).unwrap();
        assert_eq!(s.read_targets(), &[NodeId(900)]);
        t.remove_read_replica(ShardId(1), NodeId(900));
        let s = t.shard(ShardId(1)).unwrap();
        assert_eq!(s.read_targets(), &s.replicas[..]);
    }

    /// Shards and their nodes take consecutive ids, whether laid out at
    /// start or added at runtime, and every node finds its shard.
    #[test]
    fn a_layout_numbers_its_nodes_and_each_node_finds_its_shard() {
        let t = TopologyView::uniform(2, 3, 1, &[RoleId(1), RoleId(2)]);
        let added = t.new_shard(2, RoleId(1));
        let replica = |i| NodeId::named(NodeId::CLASS_REPLICA, i);
        let read_replica = |i| NodeId::named(NodeId::CLASS_READ_REPLICA, i);
        let shards = t.all_shards();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[1].replicas, [replica(3), replica(4), replica(5)]);
        assert_eq!(shards[1].leaf, RoleId(2));
        assert_eq!(shards[1].read_replicas, [read_replica(1)]);
        assert_eq!(added, shards[2]);
        assert_eq!(added.id, ShardId(2));
        assert_eq!(added.replicas, [replica(6), replica(7)]);
        assert_eq!(t.shard_of(replica(4)).map(|s| s.id), Some(ShardId(1)));
        assert_eq!(t.shard_of(read_replica(0)).map(|s| s.id), Some(ShardId(0)));
        assert_eq!(t.shard_of(replica(8)), None);
    }

    #[test]
    fn colors_on_reports_shard_residency() {
        let t = TopologyView::new();
        t.add_shard(shard(1, 0));
        t.add_shard(shard(2, 0));
        t.set_color_shards(ColorId(1), vec![ShardId(1)]);
        t.set_color_shards(ColorId(2), vec![ShardId(1), ShardId(2)]);
        assert_eq!(t.colors_on(ShardId(1)), vec![ColorId(1), ColorId(2)]);
        assert_eq!(t.colors_on(ShardId(2)), vec![ColorId(2)]);
    }

    #[test]
    fn color_to_shard_resolution() {
        let t = TopologyView::new();
        t.add_shard(shard(1, 0));
        t.add_shard(shard(2, 0));
        t.set_color_shards(ColorId(5), vec![ShardId(1), ShardId(2)]);
        let shards = t.shards_of(ColorId(5));
        assert_eq!(shards.len(), 2);
        assert!(t.knows_color(ColorId(5)));
        assert!(!t.knows_color(ColorId(6)));
    }

    #[test]
    fn random_shard_is_member() {
        let t = TopologyView::new();
        t.add_shard(shard(1, 0));
        t.add_shard(shard(2, 1));
        t.set_color_shards(ColorId(1), vec![ShardId(1), ShardId(2)]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let s = t.random_shard_of(ColorId(1), &mut rng).unwrap();
            seen.insert(s.id);
        }
        assert_eq!(seen.len(), 2, "both shards should be picked eventually");
        assert!(t.random_shard_of(ColorId(9), &mut rng).is_none());
    }

    #[test]
    fn remapping_a_color_replaces_shards() {
        let t = TopologyView::new();
        t.add_shard(shard(1, 0));
        t.add_shard(shard(2, 0));
        t.set_color_shards(ColorId(1), vec![ShardId(1)]);
        t.set_color_shards(ColorId(1), vec![ShardId(2)]);
        let shards = t.shards_of(ColorId(1));
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].id, ShardId(2));
    }
}
