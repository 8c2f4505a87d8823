//! The color hierarchy (region tree) and `AddColor` (Table 2).
//!
//! Colors form a tree rooted at the master region (§4): a new color is a
//! sub-region of its parent, ordered by the sequencer that owns the parent
//! and stored on the shards of that sequencer's region. `AddColor` is a
//! metadata operation — it updates the shared [`ColorRegistry`] (consulted
//! by sequencers on every flush) and the shared [`TopologyView`] (consulted
//! by clients when routing), so new colors are usable immediately without
//! any protocol round.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use flexlog_ordering::{ColorRegistry, RoleId};
use flexlog_replication::TopologyView;
use flexlog_types::{ColorId, ShardId};

/// Errors from color administration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColorError {
    /// The color already exists.
    AlreadyExists(ColorId),
    /// The parent color does not exist.
    UnknownParent(ColorId),
    /// The owning sequencer's region has no shards.
    EmptyRegion(RoleId),
}

impl fmt::Display for ColorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColorError::AlreadyExists(c) => write!(f, "{c} already exists"),
            ColorError::UnknownParent(c) => write!(f, "parent {c} does not exist"),
            ColorError::EmptyRegion(r) => write!(f, "region of {r:?} has no shards"),
        }
    }
}

impl std::error::Error for ColorError {}

struct Inner {
    /// color → parent color (master has no parent).
    parents: HashMap<ColorId, Option<ColorId>>,
}

/// Shared color administration. Cheap to clone.
#[derive(Clone)]
pub struct ColorAdmin {
    registry: ColorRegistry,
    topology: TopologyView,
    /// Shards of each sequencer's region (the shards of every leaf in its
    /// subtree). Mutable at runtime: elastic scale-out grows a region and
    /// leaf splits introduce new regions.
    region_shards: Arc<RwLock<HashMap<RoleId, Vec<ShardId>>>>,
    inner: Arc<RwLock<Inner>>,
}

impl ColorAdmin {
    /// Builds the admin over a running cluster's shared state. The master
    /// color must already be registered (the cluster spec does this).
    pub fn new(
        registry: ColorRegistry,
        topology: TopologyView,
        region_shards: HashMap<RoleId, Vec<ShardId>>,
    ) -> Self {
        let mut parents = HashMap::new();
        parents.insert(ColorId::MASTER, None);
        ColorAdmin {
            registry,
            topology,
            region_shards: Arc::new(RwLock::new(region_shards)),
            inner: Arc::new(RwLock::new(Inner { parents })),
        }
    }

    /// `AddColor(c, c_p)`: creates the `color` log as a sub-region of
    /// `parent`. The new color inherits the parent's ordering root and is
    /// stored on that region's shards.
    pub fn add_color(&self, color: ColorId, parent: ColorId) -> Result<(), ColorError> {
        let mut inner = self.inner.write();
        if inner.parents.contains_key(&color) || self.registry.contains(color) {
            return Err(ColorError::AlreadyExists(color));
        }
        if !inner.parents.contains_key(&parent) {
            return Err(ColorError::UnknownParent(parent));
        }
        let owner = self
            .registry
            .owner(parent)
            .ok_or(ColorError::UnknownParent(parent))?;
        let shards = self
            .region_shards
            .read()
            .get(&owner)
            .filter(|s| !s.is_empty())
            .cloned()
            .ok_or(ColorError::EmptyRegion(owner))?;
        self.registry.set_like(color, parent);
        self.topology.set_color_shards(color, shards);
        inner.parents.insert(color, Some(parent));
        Ok(())
    }

    /// Creates `color` as a *locally ordered* region owned directly by
    /// `role` (the FlexLog-P configuration: the leaf is the serialization
    /// point and the root is never consulted, §9.1).
    pub fn add_color_at(&self, color: ColorId, role: RoleId) -> Result<(), ColorError> {
        let mut inner = self.inner.write();
        if inner.parents.contains_key(&color) || self.registry.contains(color) {
            return Err(ColorError::AlreadyExists(color));
        }
        let shards = self
            .region_shards
            .read()
            .get(&role)
            .filter(|s| !s.is_empty())
            .cloned()
            .ok_or(ColorError::EmptyRegion(role))?;
        self.registry.set(color, role);
        self.topology.set_color_shards(color, shards);
        inner.parents.insert(color, Some(ColorId::MASTER));
        Ok(())
    }

    /// The parent of `color` (None for the master region or unknown colors).
    pub fn parent(&self, color: ColorId) -> Option<ColorId> {
        self.inner.read().parents.get(&color).copied().flatten()
    }

    /// True if the color exists.
    pub fn exists(&self, color: ColorId) -> bool {
        self.inner.read().parents.contains_key(&color)
    }

    /// All known colors, sorted.
    pub fn colors(&self) -> Vec<ColorId> {
        let mut v: Vec<ColorId> = self.inner.read().parents.keys().copied().collect();
        v.sort();
        v
    }

    /// The sequencer role ordering `color`.
    pub fn owner(&self, color: ColorId) -> Option<RoleId> {
        self.registry.owner(color)
    }

    pub(crate) fn register_master(&self, owner: RoleId, shards: Vec<ShardId>) {
        self.registry.set(ColorId::MASTER, owner);
        self.topology.set_color_shards(ColorId::MASTER, shards);
    }

    /// Records a newly spawned shard as part of `role`'s region, so
    /// colors created there afterwards land on it.
    pub fn add_region_shard(&self, role: RoleId, shard: ShardId) {
        let mut regions = self.region_shards.write();
        let shards = regions.entry(role).or_default();
        if !shards.contains(&shard) {
            shards.push(shard);
        }
    }

    /// Replaces (or introduces) the full shard list of `role`'s region —
    /// used when a leaf split carves out a new region.
    pub fn set_region(&self, role: RoleId, shards: Vec<ShardId>) {
        self.region_shards.write().insert(role, shards);
    }

    /// The shards of `role`'s region.
    pub fn region_of(&self, role: RoleId) -> Vec<ShardId> {
        self.region_shards
            .read()
            .get(&role)
            .cloned()
            .unwrap_or_default()
    }

    /// Forgets `color` entirely (destroy): removes it from the registry,
    /// the topology is left to the control plane (which must fence the
    /// replicas first). Children of the color are re-parented to its
    /// parent so the tree stays connected.
    pub fn remove_color(&self, color: ColorId) -> Result<(), ColorError> {
        if color == ColorId::MASTER {
            return Err(ColorError::UnknownParent(color));
        }
        let mut inner = self.inner.write();
        let Some(parent) = inner.parents.remove(&color) else {
            return Err(ColorError::UnknownParent(color));
        };
        for p in inner.parents.values_mut() {
            if *p == Some(color) {
                *p = parent;
            }
        }
        self.registry.remove(color);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admin() -> ColorAdmin {
        let registry = ColorRegistry::new();
        let topology = TopologyView::new();
        topology.add_shard(flexlog_replication::ShardInfo {
            id: ShardId(0),
            replicas: vec![flexlog_simnet::NodeId(1)],
            leaf: RoleId(1),
            read_replicas: Vec::new(),
        });
        let mut regions = HashMap::new();
        regions.insert(RoleId(0), vec![ShardId(0)]);
        regions.insert(RoleId(1), vec![ShardId(0)]);
        let a = ColorAdmin::new(registry, topology, regions);
        a.register_master(RoleId(0), vec![ShardId(0)]);
        a
    }

    #[test]
    fn add_color_inherits_parent_owner() {
        let a = admin();
        a.add_color(ColorId(1), ColorId::MASTER).unwrap();
        assert_eq!(a.owner(ColorId(1)), Some(RoleId(0)));
        assert_eq!(a.parent(ColorId(1)), Some(ColorId::MASTER));
        // Grandchild inherits transitively.
        a.add_color(ColorId(2), ColorId(1)).unwrap();
        assert_eq!(a.owner(ColorId(2)), Some(RoleId(0)));
    }

    #[test]
    fn duplicate_color_rejected() {
        let a = admin();
        a.add_color(ColorId(1), ColorId::MASTER).unwrap();
        assert_eq!(
            a.add_color(ColorId(1), ColorId::MASTER),
            Err(ColorError::AlreadyExists(ColorId(1)))
        );
    }

    #[test]
    fn unknown_parent_rejected() {
        let a = admin();
        assert_eq!(
            a.add_color(ColorId(5), ColorId(99)),
            Err(ColorError::UnknownParent(ColorId(99)))
        );
    }

    #[test]
    fn leaf_local_color() {
        let a = admin();
        a.add_color_at(ColorId(7), RoleId(1)).unwrap();
        assert_eq!(a.owner(ColorId(7)), Some(RoleId(1)));
        assert!(a.exists(ColorId(7)));
    }

    #[test]
    fn colors_listing() {
        let a = admin();
        a.add_color(ColorId(3), ColorId::MASTER).unwrap();
        a.add_color(ColorId(1), ColorId::MASTER).unwrap();
        assert_eq!(a.colors(), vec![ColorId::MASTER, ColorId(1), ColorId(3)]);
    }
}
