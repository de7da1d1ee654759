//! Container placement.

use crate::node::NodeInfo;
use crate::resource::Resource;

/// Picks a node for one container request: the index into `nodes` (the
/// cluster's nodes with their current usage) of the fitting node with the
/// smallest dominant share of used resources, or `None` when nothing
/// fits — the balancing effect of YARN's capacity scheduler on a single
/// queue.
pub(crate) fn place_least_loaded(nodes: &[NodeInfo], request: Resource) -> Option<usize> {
    nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.available().fits(&request))
        .min_by(|(_, a), (_, b)| {
            let sa = a.used.dominant_share(&a.capacity);
            let sb = b.used.dominant_share(&b.capacity);
            sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn node(id: u32, cap: Resource, used: Resource) -> NodeInfo {
        NodeInfo {
            id: NodeId(id),
            capacity: cap,
            used,
        }
    }

    #[test]
    fn capacity_balances() {
        let a = node(0, Resource::new(100, 4), Resource::new(80, 1));
        let b = node(1, Resource::new(100, 4), Resource::new(10, 1));
        let nodes = vec![a, b];
        assert_eq!(place_least_loaded(&nodes, Resource::new(10, 1)), Some(1));
    }

    #[test]
    fn nothing_fits() {
        let a = node(0, Resource::new(10, 1), Resource::zero());
        let nodes = vec![a];
        assert_eq!(place_least_loaded(&nodes, Resource::new(20, 1)), None);
    }

    #[test]
    fn empty_cluster() {
        let nodes: Vec<NodeInfo> = Vec::new();
        assert_eq!(place_least_loaded(&nodes, Resource::new(1, 1)), None);
    }
}
