//! Pipelines and `PCollection`s: the typed user-facing layer.

use crate::coder::Coder;
use crate::graph::{NodeId, PipelineGraph, StagePayload};
use parking_lot::Mutex;
use std::sync::Arc;

/// A data processing pipeline: the entire application definition,
/// including input, transformation, and output (paper §II-A).
///
/// # Example
///
/// ```
/// use beamline::{Pipeline, Create, MapElements, runners::DirectRunner, PipelineRunner};
///
/// # fn main() -> beamline::Result<()> {
/// let pipeline = Pipeline::new();
/// let lengths = pipeline
///     .apply(Create::strings(vec!["a".to_string(), "bcd".to_string()]))
///     .apply(MapElements::into_i64("len", |s: String| s.len() as i64));
/// let result = DirectRunner::new().run(&pipeline)?;
/// assert_eq!(result.collect_of(&lengths)?, vec![1, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    graph: Arc<Mutex<PipelineGraph>>,
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Pipeline {
            graph: Arc::new(Mutex::new(PipelineGraph::new())),
        }
    }

    /// Applies a root transform (a source).
    pub fn apply<O, T>(&self, transform: T) -> PCollection<O>
    where
        T: RootTransform<O>,
    {
        transform.expand(self)
    }

    /// Runs `f` with the erased graph.
    pub fn with_graph<R>(&self, f: impl FnOnce(&PipelineGraph) -> R) -> R {
        f(&self.graph.lock())
    }

    pub(crate) fn add_stage(
        &self,
        name: impl Into<String>,
        translated: impl Into<String>,
        payload: StagePayload,
        input: Option<NodeId>,
    ) -> NodeId {
        self.graph
            .lock()
            .add_stage(name, translated, payload, input)
    }

    pub(crate) fn set_translated_name(&self, node: NodeId, name: &str) {
        self.graph.lock().set_translated_name(node, name);
    }

    /// Number of erased stages — the quantity behind the paper's Fig. 13
    /// plan-size comparison.
    pub fn stage_count(&self) -> usize {
        self.graph.lock().len()
    }
}

/// A distributed, bounded data set of `T` flowing through the pipeline.
///
/// Carries the coder used whenever elements cross a stage boundary.
pub struct PCollection<T> {
    pipeline: Pipeline,
    node: NodeId,
    coder: Arc<dyn Coder<T>>,
}

impl<T> Clone for PCollection<T> {
    fn clone(&self) -> Self {
        PCollection {
            pipeline: self.pipeline.clone(),
            node: self.node,
            coder: self.coder.clone(),
        }
    }
}

impl<T> std::fmt::Debug for PCollection<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PCollection")
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> PCollection<T> {
    pub(crate) fn new(pipeline: Pipeline, node: NodeId, coder: Arc<dyn Coder<T>>) -> Self {
        PCollection {
            pipeline,
            node,
            coder,
        }
    }

    /// The stage producing this collection.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The pipeline this collection belongs to.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The element coder.
    pub fn coder(&self) -> Arc<dyn Coder<T>> {
        self.coder.clone()
    }

    /// Applies a transform to this collection.
    pub fn apply<O, TR>(&self, transform: TR) -> PCollection<O>
    where
        TR: PTransform<T, O>,
    {
        transform.expand(self)
    }
}

/// A transform rooted at the pipeline (a source).
pub trait RootTransform<O> {
    /// Expands into stages, returning the output collection.
    fn expand(self, pipeline: &Pipeline) -> PCollection<O>;
}

/// A transform from `PCollection<I>` to `PCollection<O>`.
pub trait PTransform<I, O> {
    /// Expands into stages, returning the output collection.
    fn expand(self, input: &PCollection<I>) -> PCollection<O>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coder::StrUtf8Coder;
    use crate::graph::{RawElement, RawSource, StagePayload};

    struct EmptySource;
    impl RawSource for EmptySource {
        fn next_batch(&mut self, _max: usize) -> Option<Vec<RawElement>> {
            None
        }
    }

    #[test]
    fn stages_accumulate() {
        let p = Pipeline::new();
        assert_eq!(p.stage_count(), 0);
        let read = p.add_stage(
            "read",
            "Source",
            StagePayload::Read(Arc::new(|| Box::new(EmptySource))),
            None,
        );
        let pc: PCollection<String> = PCollection::new(p.clone(), read, Arc::new(StrUtf8Coder));
        assert_eq!(pc.node(), read);
        assert_eq!(p.stage_count(), 1);
        p.with_graph(|g| {
            assert_eq!(g.nodes()[0].name, "read");
            assert!(g.node(read).is_some());
        });
    }
}
