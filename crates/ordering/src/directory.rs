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

#[cfg(test)]
mod tests {
    use super::*;

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
