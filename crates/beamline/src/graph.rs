//! The pipeline graph: type-erased stages that runners translate.
//!
//! The typed `PCollection` API erases each applied transform into a
//! [`StageNode`] whose payload operates on **raw elements** —
//! [`WindowedValue`]`<Bytes>`, i.e. coded payloads with windowing
//! metadata, each payload a view of its writer's arena (`bytes::arena`).
//! Runners translate stages onto their engine and move raw elements
//! between them; every stage decodes its input and encodes its output
//! through the `PCollection` coders. That uniform, coder-mediated data
//! plane is the abstraction layer's structural overhead.
//!
//! A runner translates one shape, the one every query of the paper has
//! (Table II, Fig. 13): a read, then `ParDo`s, each stage reading the one
//! before it. [`PipelineGraph::chain`] is the one place that checks it.

use crate::element::WindowedValue;
use crate::error::{Error, Result};
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
}

impl std::fmt::Debug for StagePayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StagePayload::Read(_) => f.write_str("Read"),
            StagePayload::ParDo(_) => f.write_str("ParDo"),
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

/// The erased pipeline: its stages in the order they were applied.
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

    /// The pipeline as the one shape runners translate: the read, and
    /// the `ParDo`s after it in order, each with its factory.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidPipeline`], naming the reason, when the pipeline
    /// is empty, its first stage is not a read, it reads a second time,
    /// or a stage does not read the stage before it (fan-out).
    pub fn chain(&self) -> Result<Chain<'_>> {
        let (read, rest) = self
            .nodes
            .split_first()
            .ok_or_else(|| Error::InvalidPipeline("the pipeline is empty".into()))?;
        let StagePayload::Read(source) = &read.payload else {
            return Err(Error::InvalidPipeline(format!(
                "the first stage `{}` is not a Read",
                read.name
            )));
        };
        let mut pardos = Vec::with_capacity(rest.len());
        for (before, node) in self.nodes.iter().zip(rest) {
            let StagePayload::ParDo(dofn) = &node.payload else {
                return Err(Error::InvalidPipeline(format!(
                    "`{}` is a second Read",
                    node.name
                )));
            };
            if node.input != Some(before.id) {
                return Err(Error::InvalidPipeline(format!(
                    "`{}` does not read `{}`, the stage before it (fan-out)",
                    node.name, before.name
                )));
            }
            pardos.push((node, dofn));
        }
        Ok(Chain {
            read,
            source,
            pardos,
        })
    }
}

/// A pipeline in the one shape runners translate (see
/// [`PipelineGraph::chain`]).
pub struct Chain<'g> {
    /// The read stage.
    pub read: &'g StageNode,
    /// The read's source.
    pub source: &'g SourceFactory,
    /// The `ParDo` stages after the read, in order, with their factories.
    pub pardos: Vec<(&'g StageNode, &'g DoFnFactory)>,
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
        let chain = g.chain().unwrap();
        assert_eq!(chain.read.id, r);
        let ids: Vec<NodeId> = chain.pardos.iter().map(|(node, _)| node.id).collect();
        assert_eq!(ids, vec![a, b]);
        assert_eq!(g.len(), 3);
    }
}
