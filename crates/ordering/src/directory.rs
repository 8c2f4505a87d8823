//! Logical-role directory: which physical node currently plays each
//! sequencer role.
//!
//! The paper's nodes hold peer-to-peer TCP connections that are
//! re-established when a backup takes over a failed sequencer (§6.3). In the
//! simulation that connection management is modelled by this directory:
//! messages are addressed to a *role* (e.g. "leaf sequencer of color 2") and
//! resolved to the current physical [`NodeId`] at send time. A promoted
//! backup installs itself here, which is exactly the moment the rest of the
//! cluster can reach it.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use flexlog_simnet::NodeId;
use flexlog_types::ColorId;

/// Logical identity of a sequencer position in the tree (stable across
/// fail-overs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoleId(pub u32);

impl fmt::Debug for RoleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "role[{}]", self.0)
    }
}

/// Shared role → node mapping. Cheap to clone (Arc inside).
#[derive(Clone, Default)]
pub struct Directory {
    map: Arc<RwLock<HashMap<RoleId, NodeId>>>,
}

impl Directory {
    pub fn new() -> Self {
        Directory::default()
    }

    /// Current holder of `role`, if any.
    pub fn get(&self, role: RoleId) -> Option<NodeId> {
        self.map.read().get(&role).copied()
    }

    /// Installs `node` as the holder of `role` (promotion / initial wiring).
    pub fn set(&self, role: RoleId, node: NodeId) {
        self.map.write().insert(role, node);
    }

    /// Removes the holder of `role` (used in tests to simulate a window
    /// with no elected sequencer).
    pub fn clear(&self, role: RoleId) {
        self.map.write().remove(&role);
    }

    /// Removes `role` only if `node` still holds it — compared and removed
    /// under one write lock, so a demoting leader can never kick out the
    /// successor that installed itself in the meantime.
    pub fn clear_if(&self, role: RoleId, node: NodeId) {
        let mut map = self.map.write();
        if map.get(&role) == Some(&node) {
            map.remove(&role);
        }
    }
}

/// The one ownership table of the ordering layer (shared across the
/// cluster): per color, the role that is its ordering root (`is_root(SID,
/// c)`, §5.2) and, if a leaf split re-homed it, the role its OReqs enter at.
///
/// [`crate::OrderingService`] seeds it from the positions' `owned` lists;
/// `AddColor` (Table 2) extends it at runtime and the control plane's leaf
/// split rewrites it. Sequencers ask it on every flush and replicas on
/// every OReq, so a change is in force the moment it is written — and
/// because owner and entry live in one entry under one lock, nobody ever
/// sees one without the other.
#[derive(Clone, Default)]
pub struct ColorRegistry {
    map: Arc<RwLock<HashMap<ColorId, Home>>>,
}

/// `(owner, entry)` of a color; `entry` is `None` while its OReqs enter at
/// the leaf its shard hangs under.
pub type Home = (RoleId, Option<RoleId>);

impl fmt::Debug for ColorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let map = self.map.read();
        f.debug_map().entries(map.iter()).finish()
    }
}

impl ColorRegistry {
    pub fn new() -> Self {
        ColorRegistry::default()
    }

    /// Owner and entry role of `color`, read together.
    pub fn home(&self, color: ColorId) -> Option<Home> {
        self.map.read().get(&color).copied()
    }

    /// The role that is the ordering root for `color`.
    pub fn owner(&self, color: ColorId) -> Option<RoleId> {
        self.home(color).map(|(owner, _)| owner)
    }

    /// The role OReqs for `color` must enter at, if not the shard's own leaf.
    pub fn entry(&self, color: ColorId) -> Option<RoleId> {
        self.home(color).and_then(|(_, entry)| entry)
    }

    /// Registers a color under `role`, entered at its shards' own leaf.
    pub fn set(&self, color: ColorId, role: RoleId) {
        self.map.write().insert(color, (role, None));
    }

    /// Registers `color` where `parent` is ordered and entered (AddColor: a
    /// sub-region shares its parent's ordering root, Table 2). Nothing is
    /// registered under an unknown parent.
    pub fn set_like(&self, color: ColorId, parent: ColorId) {
        let mut map = self.map.write();
        if let Some(&home) = map.get(&parent) {
            map.insert(color, home);
        }
    }

    /// Re-homes a color (leaf split, its roll-forward and roll-back): `role`
    /// orders it *and* its OReqs enter there, in one write.
    pub fn rehome(&self, color: ColorId, role: RoleId) {
        self.map.write().insert(color, (role, Some(role)));
    }

    /// All colors owned by `role`, sorted.
    pub fn owned_by(&self, role: RoleId) -> Vec<ColorId> {
        let mut v: Vec<_> = self
            .map
            .read()
            .iter()
            .filter(|&(_, &(owner, _))| owner == role)
            .map(|(&c, _)| c)
            .collect();
        v.sort();
        v
    }

    /// True if the color is registered anywhere.
    pub fn contains(&self, color: ColorId) -> bool {
        self.map.read().contains_key(&color)
    }

    /// Unregisters a color (runtime color destroy). Returns the previous
    /// owner, if any.
    pub fn remove(&self, color: ColorId) -> Option<RoleId> {
        self.map.write().remove(&color).map(|(owner, _)| owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_owner_lookup() {
        let r = ColorRegistry::new();
        assert_eq!(r.owner(ColorId(1)), None);
        r.set(ColorId(1), RoleId(2));
        assert_eq!(r.owner(ColorId(1)), Some(RoleId(2)));
        r.set(ColorId(3), RoleId(2));
        assert_eq!(r.owned_by(RoleId(2)), vec![ColorId(1), ColorId(3)]);
        assert!(r.contains(ColorId(3)));
    }

    #[test]
    fn set_get_clear() {
        let d = Directory::new();
        assert_eq!(d.get(RoleId(1)), None);
        d.set(RoleId(1), NodeId(42));
        assert_eq!(d.get(RoleId(1)), Some(NodeId(42)));
        d.set(RoleId(1), NodeId(43)); // takeover
        assert_eq!(d.get(RoleId(1)), Some(NodeId(43)));
        d.clear(RoleId(1));
        assert_eq!(d.get(RoleId(1)), None);
    }

    #[test]
    fn rehome_moves_owner_and_entry_together() {
        let r = ColorRegistry::new();
        r.set(ColorId(1), RoleId(1));
        assert_eq!(r.home(ColorId(1)), Some((RoleId(1), None)));
        r.rehome(ColorId(1), RoleId(2));
        assert_eq!((r.owner(ColorId(1)), r.entry(ColorId(1))), (Some(RoleId(2)), Some(RoleId(2))));
        assert_eq!(r.remove(ColorId(1)), Some(RoleId(2)));
        assert_eq!(r.home(ColorId(1)), None);
    }

    #[test]
    fn clear_if_spares_a_successor() {
        let d = Directory::new();
        d.set(RoleId(1), NodeId(42));
        d.set(RoleId(1), NodeId(43)); // the successor installed itself
        d.clear_if(RoleId(1), NodeId(42));
        assert_eq!(d.get(RoleId(1)), Some(NodeId(43)), "42 no longer holds the role");
        d.clear_if(RoleId(1), NodeId(43));
        assert_eq!(d.get(RoleId(1)), None);
    }

    #[test]
    fn clones_share_state() {
        let d = Directory::new();
        let d2 = d.clone();
        d.set(RoleId(7), NodeId(1));
        assert_eq!(d2.get(RoleId(7)), Some(NodeId(1)));
    }
}
