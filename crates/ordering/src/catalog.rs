//! The catalog: the cluster's placement metadata, one versioned table with
//! one writer.
//!
//! Colors form a region tree (§4). A color is ordered by the sequencer that
//! is its ordering root (`is_root(SID, c)`, §5.2), its OReqs enter at the
//! leaf its shards hang under — or, once a leaf split re-homed it, at the
//! role that took it over — and its records live on the shards of its
//! owner's region. One row per color holds those facts, `{parent, owner,
//! entry, shards}`; beside the rows sit the shards (replicas, read replicas,
//! leaf) and each role's region. Every node reads this one table:
//! sequencers ask it who owns a color on every flush, replicas where an
//! OReq enters and which shard they serve, clients where to route, the
//! control plane what lives where.
//!
//! [`Catalog::apply`] is the only writer. It checks and writes one
//! [`Change`] in one critical section and advances the [`Version`] by one,
//! so no reader sees half a reconfiguration: a leaf split moves owners,
//! entries and the region in one write, a cutover re-routes a color in one,
//! and a destroy stops its ordering and its routing in one.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use flexlog_simnet::NodeId;
use flexlog_types::{ColorId, FastMap, ShardId};

use crate::RoleId;

/// The root of the sequencer tree: its region is every shard.
const ROOT: RoleId = RoleId(0);

/// How many changes the catalog has taken; each [`Catalog::apply`] that
/// succeeds advances it by exactly one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Version(pub u64);

/// One shard of the data layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    pub id: ShardId,
    /// All replicas (write-all set), in node-id order. Shared: every copy
    /// of the shard's description — a client's append target, an OReq's
    /// reply list — is a reference-count bump.
    pub replicas: Arc<[NodeId]>,
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

    /// A uniformly random read target (see [`ShardInfo::read_targets`]);
    /// `draw(n)` is a uniform draw from `0..n`.
    pub fn random_read_target(&self, draw: impl FnOnce(usize) -> usize) -> NodeId {
        let t = self.read_targets();
        t[draw(t.len())]
    }
}

/// `(owner, entry)` of a color; `entry` is `None` while its OReqs enter at
/// the leaf its shard hangs under.
pub type Home = (RoleId, Option<RoleId>);

/// One change to the catalog.
#[derive(Clone, Debug)]
pub enum Change {
    /// `AddColor(color, parent)` (Table 2): a sub-region of `parent`,
    /// ordered and entered where `parent` is and stored on the shards of
    /// its owner's region.
    AddColor { color: ColorId, parent: ColorId },
    /// `color` ordered by `role` itself and stored on `role`'s region: the
    /// master region, a FlexLog-P locally ordered color (§9.1), and the
    /// seed of a tree's `PositionSpec::owned`. In a catalog without shards
    /// (an ordering-only tree) the color gets none.
    PlaceColor { color: ColorId, role: RoleId },
    /// Forgets `color` (destroy): its sequencer stops ordering it and
    /// clients stop routing to it. Its children move up to its parent.
    DropColor { color: ColorId },
    /// A new shard of `r` replicas under `leaf`, with the next free shard
    /// and replica ids. It joins `leaf`'s region and the root's.
    AddShard { r: usize, leaf: RoleId },
    /// Lists a read replica of `shard` (idempotent).
    AddReadReplica { shard: ShardId, node: NodeId },
    /// Stops listing a read replica, so clients stop reading from it.
    RemoveReadReplica { shard: ShardId, node: NodeId },
    /// Migration cutover: `dest` alone serves `color`.
    MoveColor { color: ColorId, dest: ShardId },
    /// Leaf split: `new_role` orders over `donor`'s region, and every color
    /// of `moved` that `donor` owns is re-homed there — ordered there and
    /// entered there. Idempotent; the same split with the roles swapped
    /// rolls it back.
    Split { donor: RoleId, new_role: RoleId, moved: Vec<ColorId> },
}

/// A change the catalog refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColorError {
    /// The color already exists.
    AlreadyExists(ColorId),
    /// The parent color does not exist.
    UnknownParent(ColorId),
    /// The color does not exist (or is the master region, which cannot be
    /// dropped).
    UnknownColor(ColorId),
    /// The shard does not exist.
    UnknownShard(ShardId),
    /// The owning sequencer's region has no shards.
    EmptyRegion(RoleId),
}

impl fmt::Display for ColorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColorError::AlreadyExists(c) => write!(f, "{c} already exists"),
            ColorError::UnknownParent(c) => write!(f, "parent {c} does not exist"),
            ColorError::UnknownColor(c) => write!(f, "{c} does not exist"),
            ColorError::UnknownShard(s) => write!(f, "{s:?} does not exist"),
            ColorError::EmptyRegion(r) => write!(f, "region of {r:?} has no shards"),
        }
    }
}

impl std::error::Error for ColorError {}

/// One color's row.
#[derive(Debug)]
struct Row {
    /// `None` for the master region.
    parent: Option<ColorId>,
    owner: RoleId,
    entry: Option<RoleId>,
    shards: Vec<ShardId>,
}

#[derive(Default)]
struct Table {
    version: Version,
    shards: BTreeMap<ShardId, ShardInfo>,
    /// The shards a color placed at each role is stored on.
    regions: FastMap<RoleId, Vec<ShardId>>,
    colors: FastMap<ColorId, Row>,
}

/// The shared catalog. Cheap to clone (Arc inside).
#[derive(Clone, Default)]
pub struct Catalog {
    table: Arc<RwLock<Table>>,
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.table.read();
        f.debug_struct("Catalog").field("version", &t.version).field("colors", &t.colors).finish()
    }
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// `n_shards` shards of `r` replicas and `read_replicas` read-only
    /// replicas each, attached to `leaves` round-robin. Holds no color yet.
    pub fn uniform(n_shards: usize, r: usize, read_replicas: usize, leaves: &[RoleId]) -> Self {
        let catalog = Catalog::new();
        let mut next = 0..;
        for i in 0..n_shards {
            let shard = catalog.add_shard(r, leaves[i % leaves.len()]).id;
            for index in next.by_ref().take(read_replicas) {
                let node = NodeId::named(NodeId::CLASS_READ_REPLICA, index);
                catalog.apply(Change::AddReadReplica { shard, node }).expect("a listed shard");
            }
        }
        catalog
    }

    /// The one writer: checks `change` against the table and writes it, in
    /// one critical section. Returns the version it produced.
    pub fn apply(&self, change: Change) -> Result<Version, ColorError> {
        self.write(change).map(|(version, _)| version)
    }

    /// [`Change::AddShard`], returning the shard it created.
    pub fn add_shard(&self, r: usize, leaf: RoleId) -> ShardInfo {
        let (_, shard) = self.write(Change::AddShard { r, leaf }).expect("never refused");
        shard.expect("AddShard creates a shard")
    }

    fn write(&self, change: Change) -> Result<(Version, Option<ShardInfo>), ColorError> {
        let mut t = self.table.write();
        let shard = t.apply(change)?;
        t.version.0 += 1;
        Ok((t.version, shard))
    }

    /// The version of the table as it is now.
    pub fn version(&self) -> Version {
        self.table.read().version
    }

    // ----- colors ---------------------------------------------------------

    /// Owner and entry role of `color`, read together.
    pub fn home(&self, color: ColorId) -> Option<Home> {
        self.table.read().colors.get(&color).map(|row| (row.owner, row.entry))
    }

    /// The role that is the ordering root for `color`.
    pub fn owner(&self, color: ColorId) -> Option<RoleId> {
        self.table.read().colors.get(&color).map(|row| row.owner)
    }

    /// The role OReqs for `color` must enter at, if not the shard's own leaf.
    pub fn entry(&self, color: ColorId) -> Option<RoleId> {
        self.table.read().colors.get(&color).and_then(|row| row.entry)
    }

    /// The parent of `color` (`None` for the master region or an unknown
    /// color).
    pub fn parent(&self, color: ColorId) -> Option<ColorId> {
        self.table.read().colors.get(&color).and_then(|row| row.parent)
    }

    /// True if the color exists.
    pub fn contains(&self, color: ColorId) -> bool {
        self.table.read().colors.contains_key(&color)
    }

    /// Every color, sorted.
    pub fn colors(&self) -> Vec<ColorId> {
        self.sorted_colors(|_| true)
    }

    /// The colors `role` orders, sorted.
    pub fn owned_by(&self, role: RoleId) -> Vec<ColorId> {
        self.sorted_colors(|row| row.owner == role)
    }

    /// The colors `shard` serves, sorted (what a read replica of the shard
    /// must follow).
    pub fn colors_on(&self, shard: ShardId) -> Vec<ColorId> {
        self.sorted_colors(|row| row.shards.contains(&shard))
    }

    fn sorted_colors(&self, keep: impl Fn(&Row) -> bool) -> Vec<ColorId> {
        let t = self.table.read();
        let rows = t.colors.iter().filter(|(_, row)| keep(row));
        let mut v: Vec<ColorId> = rows.map(|(&c, _)| c).collect();
        v.sort();
        v
    }

    /// The shards serving `color`.
    pub fn shards_of(&self, color: ColorId) -> Vec<ShardInfo> {
        let t = self.table.read();
        let ids = t.colors.get(&color).map_or(&[][..], |row| &row.shards);
        ids.iter().filter_map(|id| t.shards.get(id).cloned()).collect()
    }

    /// A uniformly random shard of `color` (append target selection);
    /// `draw(n)` is a uniform draw from `0..n`. The index is drawn under the
    /// read lock and only that shard is cloned.
    pub fn random_shard_of(
        &self,
        color: ColorId,
        draw: impl FnOnce(usize) -> usize,
    ) -> Option<ShardInfo> {
        let t = self.table.read();
        let ids = &t.colors.get(&color)?.shards;
        if ids.is_empty() {
            return None;
        }
        t.shards.get(&ids[draw(ids.len())]).cloned()
    }

    /// True if the color has at least one shard.
    pub fn knows_color(&self, color: ColorId) -> bool {
        self.table.read().colors.get(&color).is_some_and(|row| !row.shards.is_empty())
    }

    // ----- shards ---------------------------------------------------------

    /// Shard lookup by id.
    pub fn shard(&self, id: ShardId) -> Option<ShardInfo> {
        self.table.read().shards.get(&id).cloned()
    }

    /// Every shard, by id.
    pub fn all_shards(&self) -> Vec<ShardInfo> {
        self.table.read().shards.values().cloned().collect()
    }

    /// The shard `node` is a replica or a read replica of.
    pub fn shard_of(&self, node: NodeId) -> Option<ShardInfo> {
        let t = self.table.read();
        let mut shards = t.shards.values();
        shards.find(|s| s.replicas.contains(&node) || s.read_replicas.contains(&node)).cloned()
    }
}

impl Table {
    /// Checks `change` and writes it; nothing is written if it is refused.
    fn apply(&mut self, change: Change) -> Result<Option<ShardInfo>, ColorError> {
        match change {
            Change::AddColor { color, parent } => {
                self.vacant(color)?;
                let row = self.colors.get(&parent).ok_or(ColorError::UnknownParent(parent))?;
                let (owner, entry) = (row.owner, row.entry);
                let shards = self.region(owner)?;
                self.colors.insert(color, Row { parent: Some(parent), owner, entry, shards });
            }
            Change::PlaceColor { color, role } => {
                self.vacant(color)?;
                let shards = self.region(role)?;
                let parent = (color != ColorId::MASTER).then_some(ColorId::MASTER);
                self.colors.insert(color, Row { parent, owner: role, entry: None, shards });
            }
            Change::DropColor { color } => {
                if color == ColorId::MASTER {
                    return Err(ColorError::UnknownColor(color));
                }
                let row = self.colors.remove(&color).ok_or(ColorError::UnknownColor(color))?;
                for child in self.colors.values_mut().filter(|r| r.parent == Some(color)) {
                    child.parent = row.parent;
                }
            }
            Change::AddShard { r, leaf } => {
                let id = ShardId(self.shards.keys().next_back().map_or(0, |s| s.0 + 1));
                let all = self.shards.values().flat_map(|s| s.replicas.iter());
                let next = all.map(|n| n.index() + 1).max().unwrap_or(0);
                let replicas = (next..next + r as u64)
                    .map(|i| NodeId::named(NodeId::CLASS_REPLICA, i))
                    .collect();
                let info = ShardInfo { id, replicas, leaf, read_replicas: Vec::new() };
                self.shards.insert(id, info.clone());
                for role in [leaf, ROOT] {
                    let region = self.regions.entry(role).or_default();
                    if !region.contains(&id) {
                        region.push(id);
                    }
                }
                return Ok(Some(info));
            }
            Change::AddReadReplica { shard, node } => {
                let s = self.shards.get_mut(&shard).ok_or(ColorError::UnknownShard(shard))?;
                if !s.read_replicas.contains(&node) {
                    s.read_replicas.push(node);
                }
            }
            Change::RemoveReadReplica { shard, node } => {
                let s = self.shards.get_mut(&shard).ok_or(ColorError::UnknownShard(shard))?;
                s.read_replicas.retain(|&n| n != node);
            }
            Change::MoveColor { color, dest } => {
                if !self.shards.contains_key(&dest) {
                    return Err(ColorError::UnknownShard(dest));
                }
                let row = self.colors.get_mut(&color).ok_or(ColorError::UnknownColor(color))?;
                row.shards = vec![dest];
            }
            Change::Split { donor, new_role, moved } => {
                if let Some(region) = self.regions.get(&donor).cloned() {
                    self.regions.insert(new_role, region);
                }
                for color in moved {
                    if let Some(row) = self.colors.get_mut(&color).filter(|r| r.owner == donor) {
                        row.owner = new_role;
                        row.entry = Some(new_role);
                    }
                }
            }
        }
        Ok(None)
    }

    fn vacant(&self, color: ColorId) -> Result<(), ColorError> {
        match self.colors.contains_key(&color) {
            true => Err(ColorError::AlreadyExists(color)),
            false => Ok(()),
        }
    }

    /// The shards of `role`'s region. Empty is an error unless the catalog
    /// has no shards at all (an ordering-only tree).
    fn region(&self, role: RoleId) -> Result<Vec<ShardId>, ColorError> {
        let shards = self.regions.get(&role).cloned().unwrap_or_default();
        if shards.is_empty() && !self.shards.is_empty() {
            return Err(ColorError::EmptyRegion(role));
        }
        Ok(shards)
    }
}

#[cfg(test)]
mod tests;
