//! Node managers: per-node capacity bookkeeping.

use crate::resource::Resource;
use std::fmt;

/// Identifier of a cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Point-in-time view of a node, as reported by
/// [`ResourceManager::node_info`](crate::ResourceManager::node_info).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// Node identifier.
    pub id: NodeId,
    /// Total capacity.
    pub capacity: Resource,
    /// Resources currently allocated to containers.
    pub used: Resource,
}

impl NodeInfo {
    /// A node with nothing allocated yet.
    pub(crate) fn new(id: NodeId, capacity: Resource) -> Self {
        NodeInfo {
            id,
            capacity,
            used: Resource::zero(),
        }
    }

    /// Resources still available for allocation.
    pub fn available(&self) -> Resource {
        self.capacity.saturating_sub(self.used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_state_tracks_usage() {
        let mut n = NodeInfo::new(NodeId(1), Resource::new(1000, 4));
        assert_eq!(n.available(), Resource::new(1000, 4));
        n.used += Resource::new(600, 3);
        assert_eq!(n.available(), Resource::new(400, 1));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "node-7");
    }
}
