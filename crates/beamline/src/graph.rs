//! The pipeline graph: type-erased stages that runners translate.
//!
//! The typed `PCollection` API erases each applied transform into a
//! [`StageNode`] whose payload operates on **raw elements** —
//! [`WindowedValue`]`<Bytes>`, i.e. coded payloads with windowing
//! metadata, each payload a view of its writer's arena (`crate::arena`).
//! Runners translate stages onto their engine and move raw elements
//! between them; every stage decodes its input and encodes its output
//! through the `PCollection` coders. That uniform, coder-mediated data
//! plane is the abstraction layer's structural overhead.

use crate::element::WindowedValue;
use bytes::Bytes;
use std::sync::Arc;

/// A coded element with windowing metadata — the runner-level currency.
pub type RawElement = WindowedValue<Bytes>;

/// Output callback handed to raw stages.
pub type RawEmit<'a> = &'a mut dyn FnMut(RawElement);

/// Type-erased `DoFn`: what a `ParDo` stage executes.
///
/// Runners instantiate one `RawDoFn` per *bundle* and call
/// `start_bundle` / `process`* / `finish_bundle`. Bundle sizes are a
/// runner choice (whole stream, micro-batch, or single element) — a real
/// and measured difference between runners.
pub trait RawDoFn: Send {
    /// Called once per bundle before any element.
    fn start_bundle(&mut self) {}

    /// Processes one element.
    fn process(&mut self, element: RawElement, emit: RawEmit<'_>);

    /// Called once per bundle after the last element; may emit (e.g.
    /// flush buffered writes).
    fn finish_bundle(&mut self, _emit: RawEmit<'_>) {}
}

/// Creates fresh [`RawDoFn`] bundles.
pub type DoFnFactory = Arc<dyn Fn() -> Box<dyn RawDoFn> + Send + Sync>;

/// Type-erased bounded source.
pub trait RawSource: Send {
    /// Reads the entire bounded input, pushing raw elements.
    fn read(&mut self, emit: RawEmit<'_>);
}

/// Creates fresh [`RawSource`] instances.
pub type SourceFactory = Arc<dyn Fn() -> Box<dyn RawSource> + Send + Sync>;

/// Identifier of a pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What a stage does, in runner terms.
#[derive(Clone)]
pub enum StagePayload {
    /// A bounded read.
    Read(SourceFactory),
    /// A `ParDo` over raw elements.
    ParDo(DoFnFactory),
    /// Merge this stage's primary input with the listed extra inputs.
    Flatten(Vec<NodeId>),
}

impl std::fmt::Debug for StagePayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StagePayload::Read(_) => f.write_str("Read"),
            StagePayload::ParDo(_) => f.write_str("ParDo"),
            StagePayload::Flatten(extra) => write!(f, "Flatten(+{})", extra.len()),
        }
    }
}

/// One stage of the erased pipeline.
#[derive(Debug, Clone)]
pub struct StageNode {
    /// Stage id.
    pub id: NodeId,
    /// The user-facing transform name (e.g. `BrokerIO.Read`, `Grep`).
    pub name: String,
    /// The name runners display in engine execution plans — e.g.
    /// `ParDoTranslation.RawParDo`, matching the paper's Fig. 13.
    pub translated_name: String,
    /// The executable payload.
    pub payload: StagePayload,
    /// Primary input stage (`None` for reads).
    pub input: Option<NodeId>,
}

/// The erased pipeline DAG.
#[derive(Debug, Default)]
pub struct PipelineGraph {
    nodes: Vec<StageNode>,
}

impl PipelineGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a stage, returning its id.
    pub fn add_stage(
        &mut self,
        name: impl Into<String>,
        translated_name: impl Into<String>,
        payload: StagePayload,
        input: Option<NodeId>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(StageNode {
            id,
            name: name.into(),
            translated_name: translated_name.into(),
            payload,
            input,
        });
        id
    }

    /// Overrides the engine-plan display name of a stage.
    pub fn set_translated_name(&mut self, id: NodeId, name: &str) {
        if let Some(node) = self.nodes.get_mut(id.0) {
            node.translated_name = name.to_string();
        }
    }

    /// All stages in topological (insertion) order.
    pub fn nodes(&self) -> &[StageNode] {
        &self.nodes
    }

    /// Looks up a stage.
    pub fn node(&self, id: NodeId) -> Option<&StageNode> {
        self.nodes.get(id.0)
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Stages consuming `id` as any input.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| {
                n.input == Some(id)
                    || matches!(&n.payload, StagePayload::Flatten(extra) if extra.contains(&id))
            })
            .map(|n| n.id)
            .collect()
    }

    /// Stages with no consumers (pipeline leaves).
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| self.consumers(n.id).is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// If the graph is one linear chain (single read, every stage having
    /// exactly one consumer except the leaf), returns the chain in order.
    /// Engine runners only translate linear pipelines; the direct runner
    /// handles general DAGs.
    pub fn linear_chain(&self) -> Option<Vec<NodeId>> {
        let roots: Vec<&StageNode> = self.nodes.iter().filter(|n| n.input.is_none()).collect();
        if roots.len() != 1 {
            return None;
        }
        if self
            .nodes
            .iter()
            .any(|n| matches!(n.payload, StagePayload::Flatten(_)))
        {
            return None;
        }
        let mut chain = vec![roots[0].id];
        loop {
            let consumers = self.consumers(*chain.last().expect("non-empty"));
            match consumers.len() {
                0 => return Some(chain),
                1 => chain.push(consumers[0]),
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop_pardo() -> StagePayload {
        StagePayload::ParDo(Arc::new(|| {
            struct Noop;
            impl RawDoFn for Noop {
                fn process(&mut self, element: RawElement, emit: RawEmit<'_>) {
                    emit(element);
                }
            }
            Box::new(Noop)
        }))
    }

    fn empty_read() -> StagePayload {
        StagePayload::Read(Arc::new(|| {
            struct Empty;
            impl RawSource for Empty {
                fn read(&mut self, _emit: RawEmit<'_>) {}
            }
            Box::new(Empty)
        }))
    }

    #[test]
    fn linear_chain_detected() {
        let mut g = PipelineGraph::new();
        let r = g.add_stage("read", "Source", empty_read(), None);
        let a = g.add_stage("a", "ParDo", noop_pardo(), Some(r));
        let b = g.add_stage("b", "ParDo", noop_pardo(), Some(a));
        assert_eq!(g.linear_chain(), Some(vec![r, a, b]));
        assert_eq!(g.leaves(), vec![b]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn fan_out_is_not_linear() {
        let mut g = PipelineGraph::new();
        let r = g.add_stage("read", "Source", empty_read(), None);
        let _a = g.add_stage("a", "ParDo", noop_pardo(), Some(r));
        let _b = g.add_stage("b", "ParDo", noop_pardo(), Some(r));
        assert!(g.linear_chain().is_none());
        assert_eq!(g.leaves().len(), 2);
    }

    #[test]
    fn two_reads_are_not_linear() {
        let mut g = PipelineGraph::new();
        let _r1 = g.add_stage("r1", "Source", empty_read(), None);
        let _r2 = g.add_stage("r2", "Source", empty_read(), None);
        assert!(g.linear_chain().is_none());
    }

    #[test]
    fn flatten_consumers_counted() {
        let mut g = PipelineGraph::new();
        let r1 = g.add_stage("r1", "Source", empty_read(), None);
        let r2 = g.add_stage("r2", "Source", empty_read(), None);
        let f = g.add_stage("f", "Flatten", StagePayload::Flatten(vec![r2]), Some(r1));
        assert_eq!(g.consumers(r2), vec![f]);
        assert!(g.linear_chain().is_none());
        assert_eq!(format!("{:?}", g.node(f).unwrap().payload), "Flatten(+1)");
    }
}
