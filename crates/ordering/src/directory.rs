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
}

/// Dynamic color → owning-role registry (shared across the cluster).
///
/// The tree spec's static `owned` sets seed it; `AddColor` (Table 2)
/// extends it at runtime: the new color is ordered by the sequencer that
/// owns its parent color. Sequencers consult the registry on every flush,
/// so new colors are orderable immediately.
#[derive(Clone, Default)]
pub struct ColorRegistry {
    map: Arc<RwLock<HashMap<flexlog_types::ColorId, RoleId>>>,
}

impl std::fmt::Debug for ColorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.map.read();
        f.debug_map().entries(map.iter()).finish()
    }
}

impl ColorRegistry {
    pub fn new() -> Self {
        ColorRegistry::default()
    }

    /// The role that is the ordering root for `color`.
    pub fn owner(&self, color: flexlog_types::ColorId) -> Option<RoleId> {
        self.map.read().get(&color).copied()
    }

    /// Registers (or re-homes) a color.
    pub fn set(&self, color: flexlog_types::ColorId, role: RoleId) {
        self.map.write().insert(color, role);
    }

    /// All colors owned by `role`.
    pub fn owned_by(&self, role: RoleId) -> Vec<flexlog_types::ColorId> {
        let mut v: Vec<_> = self
            .map
            .read()
            .iter()
            .filter(|&(_, &r)| r == role)
            .map(|(&c, _)| c)
            .collect();
        v.sort();
        v
    }

    /// True if the color is registered anywhere.
    pub fn contains(&self, color: flexlog_types::ColorId) -> bool {
        self.map.read().contains_key(&color)
    }

    /// Unregisters a color (runtime color destroy). Returns the previous
    /// owner, if any.
    pub fn remove(&self, color: flexlog_types::ColorId) -> Option<RoleId> {
        self.map.write().remove(&color)
    }
}

/// Per-color OReq routing overrides, layered over the shard's static
/// `leaf_role`. After a leaf-sequencer split re-homes a color, replicas
/// must send that color's order requests to the *new* leaf even though
/// their shard still hangs under the old one; the control plane installs
/// the override here and every delegate consults it at send time.
#[derive(Clone, Default)]
pub struct RouteTable {
    map: Arc<RwLock<HashMap<flexlog_types::ColorId, RoleId>>>,
}

impl RouteTable {
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// The role OReqs for `color` should go to, if overridden.
    pub fn route(&self, color: flexlog_types::ColorId) -> Option<RoleId> {
        self.map.read().get(&color).copied()
    }

    /// Installs (or replaces) an override.
    pub fn set_route(&self, color: flexlog_types::ColorId, role: RoleId) {
        self.map.write().insert(color, role);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexlog_types::ColorId;

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
    fn clones_share_state() {
        let d = Directory::new();
        let d2 = d.clone();
        d.set(RoleId(7), NodeId(1));
        assert_eq!(d2.get(RoleId(7)), Some(NodeId(1)));
    }
}
