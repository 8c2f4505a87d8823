use std::fmt;

/// Identity of a node (replica, sequencer, backup, client, …) on the
/// simulated network.
///
/// Node ids are plain integers; the protocol crates layer meaning on top
/// (e.g. the ordering layer breaks election ties by the *highest node-id*,
/// §5.2). The [`NodeId::named`] constructor packs a small class tag into the
/// upper bits so debug output stays readable in multi-role clusters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Class tag for replica nodes.
    pub const CLASS_REPLICA: u64 = 1;
    /// Class tag for sequencer nodes.
    pub const CLASS_SEQUENCER: u64 = 2;
    /// Class tag for sequencer backup nodes.
    pub const CLASS_BACKUP: u64 = 3;
    /// Class tag for client (serverless function) nodes.
    pub const CLASS_CLIENT: u64 = 4;
    /// Class tag for read-only replica nodes (serve reads and
    /// subscriptions, never join the write quorum).
    pub const CLASS_READ_REPLICA: u64 = 5;

    /// Builds a node id from a class tag and an index within the class.
    pub fn named(class: u64, index: u64) -> Self {
        debug_assert!(class < 16, "class tag must fit in 4 bits");
        debug_assert!(index < (1 << 60), "index must fit in 60 bits");
        NodeId((class << 60) | index)
    }

    /// The class tag this id was built with (0 for raw ids).
    pub fn class(self) -> u64 {
        self.0 >> 60
    }

    /// The index within the class.
    pub fn index(self) -> u64 {
        self.0 & ((1 << 60) - 1)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let idx = self.index();
        match self.class() {
            Self::CLASS_REPLICA => write!(f, "replica#{idx}"),
            Self::CLASS_SEQUENCER => write!(f, "seq#{idx}"),
            Self::CLASS_BACKUP => write!(f, "backup#{idx}"),
            Self::CLASS_CLIENT => write!(f, "client#{idx}"),
            Self::CLASS_READ_REPLICA => write!(f, "rreplica#{idx}"),
            _ => write!(f, "node#{}", self.0),
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_roundtrip() {
        let id = NodeId::named(NodeId::CLASS_REPLICA, 42);
        assert_eq!(id.class(), NodeId::CLASS_REPLICA);
        assert_eq!(id.index(), 42);
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(
            format!("{:?}", NodeId::named(NodeId::CLASS_SEQUENCER, 3)),
            "seq#3"
        );
        assert_eq!(format!("{:?}", NodeId(7)), "node#7");
    }

    #[test]
    fn ordering_by_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        let a = NodeId::named(NodeId::CLASS_BACKUP, 1);
        let b = NodeId::named(NodeId::CLASS_BACKUP, 2);
        assert!(a < b);
    }
}
