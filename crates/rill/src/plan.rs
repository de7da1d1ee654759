//! Execution-plan extraction and rendering.
//!
//! The paper inspects Apache Flink's execution plans to explain the
//! abstraction layer's overhead: the native grep plan has three elements
//! (Fig. 12) while the Beam-built plan has seven (Fig. 13). This module
//! provides the same view for rill jobs.

use crate::graph::{NodeId, NodeKind, StreamGraph};
use std::fmt;

/// A node of the rendered plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// Graph node id.
    pub id: NodeId,
    /// Node kind.
    pub kind: NodeKind,
    /// Display name.
    pub name: String,
    /// Parallelism.
    pub parallelism: usize,
}

/// A forward connection between plan nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEdge {
    /// Upstream node.
    pub from: NodeId,
    /// Downstream node.
    pub to: NodeId,
}

/// A point-in-time execution plan for a job graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionPlan {
    nodes: Vec<PlanNode>,
    edges: Vec<PlanEdge>,
    chains: Vec<Vec<NodeId>>,
}

impl ExecutionPlan {
    /// Extracts the plan from a stream graph.
    pub fn from_graph(graph: &StreamGraph) -> Self {
        let nodes = graph
            .nodes()
            .iter()
            .map(|n| PlanNode {
                id: n.id,
                kind: n.kind,
                name: n.name.clone(),
                parallelism: n.parallelism,
            })
            .collect();
        let edges = graph
            .edges()
            .iter()
            .map(|e| PlanEdge {
                from: e.from,
                to: e.to,
            })
            .collect();
        ExecutionPlan {
            nodes,
            edges,
            chains: graph.chains(),
        }
    }

    /// Plan nodes in topological order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Plan edges.
    pub fn edges(&self) -> &[PlanEdge] {
        &self.edges
    }

    /// Chain grouping: which nodes execute fused in one task.
    pub fn chains(&self) -> &[Vec<NodeId>] {
        &self.chains
    }

    /// Total number of plan elements — the quantity compared between
    /// Fig. 12 (three) and Fig. 13 (seven).
    pub fn element_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of `Operator` nodes.
    pub fn operator_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Operator)
            .count()
    }

    /// Nodes whose name contains `needle`.
    pub fn nodes_named_like(&self, needle: &str) -> Vec<&PlanNode> {
        self.nodes
            .iter()
            .filter(|n| n.name.contains(needle))
            .collect()
    }
}

impl fmt::Display for ExecutionPlan {
    /// Renders the plan in the boxed style of the paper's figures:
    ///
    /// ```text
    /// [Data Source] Source: Custom Source (parallelism: 1)
    ///   --FORWARD--> [Operator] Filter (parallelism: 1)
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for node in &self.nodes {
            writeln!(
                f,
                "[{}] {} (parallelism: {})",
                node.kind, node.name, node.parallelism
            )?;
            for edge in self.edges.iter().filter(|e| e.from == node.id) {
                let target = &self.nodes[edge.to.0];
                writeln!(f, "  --FORWARD--> [{}] {}", target.kind, target.name)?;
            }
        }
        writeln!(f, "chains: {:?}", self.chains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grep_like_graph() -> StreamGraph {
        let mut g = StreamGraph::new();
        let s = g.add_node(NodeKind::Source, "Source: Custom Source", 1);
        let f = g.add_node(NodeKind::Operator, "Filter", 1);
        let k = g.add_node(NodeKind::Sink, "Sink: Unnamed", 1);
        g.add_edge(s, f);
        g.add_edge(f, k);
        g
    }

    #[test]
    fn native_grep_plan_has_three_elements() {
        let plan = ExecutionPlan::from_graph(&grep_like_graph());
        assert_eq!(plan.element_count(), 3);
        assert_eq!(plan.operator_count(), 1);
        assert_eq!(plan.chains().len(), 1, "fully chained");
    }

    #[test]
    fn render_mentions_everything() {
        let plan = ExecutionPlan::from_graph(&grep_like_graph());
        let text = plan.to_string();
        assert!(text.contains("[Data Source] Source: Custom Source (parallelism: 1)"));
        assert!(text.contains("--FORWARD--> [Operator] Filter"));
        assert!(text.contains("[Data Sink] Sink: Unnamed"));
        assert!(text.contains("chains:"));
    }

    #[test]
    fn name_search() {
        let plan = ExecutionPlan::from_graph(&grep_like_graph());
        assert_eq!(plan.nodes_named_like("Filter").len(), 1);
        assert!(plan.nodes_named_like("RawParDo").is_empty());
    }

    #[test]
    fn edges_and_nodes_exposed() {
        let plan = ExecutionPlan::from_graph(&grep_like_graph());
        assert_eq!(plan.nodes().len(), 3);
        assert_eq!(plan.edges().len(), 2);
        assert_eq!(plan.edges()[0].to, plan.nodes()[1].id);
    }
}
