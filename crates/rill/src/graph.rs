//! The stream graph: the logical dataflow DAG built by the
//! [`DataStream`](crate::DataStream) API.
//!
//! The graph serves two purposes: validation (every branch must end in a
//! sink) and plan extraction ([`ExecutionPlan`](crate::ExecutionPlan),
//! which renders the Fig. 12/13-style views of the paper).

use std::fmt;

/// Identifier of a node in the stream graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Emits elements into the job.
    Source,
    /// Transforms elements.
    Operator,
    /// Consumes elements out of the job.
    Sink,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Source => f.write_str("Data Source"),
            NodeKind::Operator => f.write_str("Operator"),
            NodeKind::Sink => f.write_str("Data Sink"),
        }
    }
}

/// A node of the stream graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamNode {
    /// Node identifier.
    pub id: NodeId,
    /// Node kind.
    pub kind: NodeKind,
    /// Display name, e.g. `Filter` or `Source: Custom Source`.
    pub name: String,
    /// Parallelism the node runs with.
    pub parallelism: usize,
}

/// A directed edge of the stream graph: a forward (subtask-preserving)
/// connection, the only one rill builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEdge {
    /// Upstream node.
    pub from: NodeId,
    /// Downstream node.
    pub to: NodeId,
}

/// The logical dataflow DAG.
#[derive(Debug, Clone, Default)]
pub struct StreamGraph {
    nodes: Vec<StreamNode>,
    edges: Vec<StreamEdge>,
}

impl StreamGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(
        &mut self,
        kind: NodeKind,
        name: impl Into<String>,
        parallelism: usize,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(StreamNode {
            id,
            kind,
            name: name.into(),
            parallelism,
        });
        id
    }

    /// Adds an edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist or the edge goes backwards
    /// (the builder API only creates forward edges, so a violation is a
    /// bug).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(
            from.0 < self.nodes.len() && to.0 < self.nodes.len(),
            "unknown node"
        );
        assert!(from.0 < to.0, "stream graph edges must go forward");
        self.edges.push(StreamEdge { from, to });
    }

    /// All nodes in insertion (topological) order.
    pub fn nodes(&self) -> &[StreamNode] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[StreamEdge] {
        &self.edges
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> Option<&StreamNode> {
        self.nodes.get(id.0)
    }

    /// Outgoing edges of `id`.
    pub fn outputs(&self, id: NodeId) -> Vec<StreamEdge> {
        self.edges
            .iter()
            .filter(|e| e.from == id)
            .copied()
            .collect()
    }

    /// Incoming edges of `id`.
    pub fn inputs(&self, id: NodeId) -> Vec<StreamEdge> {
        self.edges.iter().filter(|e| e.to == id).copied().collect()
    }

    /// Nodes with no outgoing edges that are not sinks — a constructed but
    /// unterminated stream, which [`execute`](crate::StreamExecutionEnvironment::execute)
    /// rejects.
    pub fn dangling(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind != NodeKind::Sink && self.outputs(n.id).is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// Groups nodes into chains: maximal runs connected by edges between
    /// nodes of equal parallelism. This mirrors what the runtime fuses
    /// into single tasks while chaining is enabled.
    pub fn chains(&self) -> Vec<Vec<NodeId>> {
        let mut chains: Vec<Vec<NodeId>> = Vec::new();
        let mut chain_of: Vec<Option<usize>> = vec![None; self.nodes.len()];
        for node in &self.nodes {
            let inputs = self.inputs(node.id);
            let chained_parent = if inputs.len() == 1 {
                let e = inputs[0];
                let parent = &self.nodes[e.from.0];
                // A parent with multiple consumers cannot chain.
                let parent_fan_out = self.outputs(parent.id).len();
                (parent.parallelism == node.parallelism && parent_fan_out == 1).then_some(e.from)
            } else {
                None
            };
            match chained_parent.and_then(|p| chain_of[p.0]) {
                Some(chain) => {
                    chains[chain].push(node.id);
                    chain_of[node.id.0] = Some(chain);
                }
                None => {
                    chain_of[node.id.0] = Some(chains.len());
                    chains.push(vec![node.id]);
                }
            }
        }
        chains
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_graph() -> (StreamGraph, NodeId, NodeId, NodeId) {
        let mut g = StreamGraph::new();
        let s = g.add_node(NodeKind::Source, "Source: Custom Source", 1);
        let f = g.add_node(NodeKind::Operator, "Filter", 1);
        let k = g.add_node(NodeKind::Sink, "Sink: Unnamed", 1);
        g.add_edge(s, f);
        g.add_edge(f, k);
        (g, s, f, k)
    }

    #[test]
    fn linear_chain_is_single() {
        let (g, s, f, k) = linear_graph();
        assert_eq!(g.chains(), vec![vec![s, f, k]]);
        assert!(g.dangling().is_empty());
    }

    #[test]
    fn parallelism_mismatch_breaks_chain() {
        let mut g = StreamGraph::new();
        let s = g.add_node(NodeKind::Source, "src", 1);
        let m = g.add_node(NodeKind::Operator, "Map", 2);
        g.add_edge(s, m);
        assert_eq!(g.chains().len(), 2);
    }

    #[test]
    fn fan_out_breaks_chain() {
        let mut g = StreamGraph::new();
        let s = g.add_node(NodeKind::Source, "src", 1);
        let a = g.add_node(NodeKind::Sink, "a", 1);
        let b = g.add_node(NodeKind::Sink, "b", 1);
        g.add_edge(s, a);
        g.add_edge(s, b);
        let chains = g.chains();
        assert_eq!(chains.len(), 3, "fan-out children start their own chains");
    }

    #[test]
    fn dangling_detection() {
        let mut g = StreamGraph::new();
        let s = g.add_node(NodeKind::Source, "src", 1);
        let m = g.add_node(NodeKind::Operator, "Map", 1);
        g.add_edge(s, m);
        assert_eq!(g.dangling(), vec![m]);
    }

    #[test]
    fn inputs_outputs() {
        let (g, s, f, k) = linear_graph();
        assert_eq!(g.outputs(s).len(), 1);
        assert_eq!(g.inputs(f).len(), 1);
        assert_eq!(g.inputs(k)[0].from, f);
        assert!(g.inputs(s).is_empty());
        assert!(g.outputs(k).is_empty());
        assert_eq!(g.node(f).unwrap().name, "Filter");
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn backward_edge_panics() {
        let mut g = StreamGraph::new();
        let s = g.add_node(NodeKind::Source, "src", 1);
        let m = g.add_node(NodeKind::Operator, "Map", 1);
        g.add_edge(m, s);
    }
}
