//! Pipeline runners: engine-specific translators and the in-memory
//! direct runner.
//!
//! A data stream processing system supports the abstraction layer by
//! providing a *runner* that translates the pipeline graph onto its own
//! programming model (paper §II-A). The translations differ in maturity
//! and in how well the engine's model matches the Dataflow model — the
//! paper's central finding is that those differences make the layer's
//! overhead engine-specific and unpredictable.
//!
//! Every runner translates the one shape [`PipelineGraph::chain`]
//! checks: a read, then `ParDo`s. An engine runner's translation is its
//! engine mapping plus its bundle policy; the leaf `ParDo` (the write)
//! becomes the engine job's sink, so an engine runner rejects a pipeline
//! without one.
//!
//! | Runner | Engine | Bundles | Notes |
//! |---|---|---|---|
//! | [`DirectRunner`] | none (in-memory) | whole input | reference semantics, materializes every stage |
//! | [`RillRunner`] | `rill` (Flink analog) | whole stream | one engine operator per stage |
//! | [`DStreamRunner`] | `dstream` (Spark analog) | micro-batch partition | repartitions every batch to honour parallelism |
//! | [`ApxRunner`] | `apx` (Apex analog) | **single element** | one container per stage, envelope serialization per hop |
//!
//! [`PipelineGraph::chain`]: crate::graph::PipelineGraph::chain

mod apx_runner;
mod direct;
mod dstream_runner;
mod feed;
mod rill_runner;

pub use apx_runner::ApxRunner;
pub use direct::DirectRunner;
pub use dstream_runner::DStreamRunner;
pub use rill_runner::RillRunner;

use crate::coder::Coder;
use crate::error::{Error, Result};
use crate::graph::{DoFnFactory, NodeId, RawElement, SourceFactory, StageNode};
use crate::pipeline::{PCollection, Pipeline};
use std::collections::HashMap;
use std::time::Duration;

/// Engine-specific execution details attached to a [`PipelineResult`].
#[derive(Debug)]
pub enum EngineReport {
    /// Direct (in-memory) execution.
    Direct,
    /// rill job result.
    Rill(rill::JobResult),
    /// dstream streaming report.
    DStream(dstream::StreamingReport),
    /// apx application result.
    Apx(apx::AppResult),
}

/// Outcome of a pipeline run.
#[derive(Debug)]
pub struct PipelineResult {
    /// Wall-clock execution time.
    pub duration: Duration,
    /// Engine-specific details.
    pub engine: EngineReport,
    /// Collections materialized by the runner (direct runner only).
    materialized: HashMap<NodeId, Vec<RawElement>>,
}

impl PipelineResult {
    pub(crate) fn new(
        duration: Duration,
        engine: EngineReport,
        materialized: HashMap<NodeId, Vec<RawElement>>,
    ) -> Self {
        PipelineResult {
            duration,
            engine,
            materialized,
        }
    }

    /// Raw materialized elements of a collection.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotMaterialized`] when the runner did not keep
    /// this collection (engine runners materialize nothing).
    pub fn raw_of<T>(&self, pc: &PCollection<T>) -> Result<&[RawElement]>
    where
        T: Send + 'static,
    {
        self.materialized
            .get(&pc.node())
            .map(Vec::as_slice)
            .ok_or(Error::NotMaterialized)
    }

    /// Decodes the materialized elements of a collection.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotMaterialized`] or a [`Error::Coder`] failure.
    pub fn collect_of<T>(&self, pc: &PCollection<T>) -> Result<Vec<T>>
    where
        T: Send + 'static,
    {
        let coder: std::sync::Arc<dyn Coder<T>> = pc.coder();
        self.raw_of(pc)?
            .iter()
            .map(|e| coder.decode_all(&e.value).map_err(Error::from))
            .collect()
    }
}

/// Executes pipelines.
pub trait PipelineRunner {
    /// Runs the pipeline to completion (all inputs are bounded).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPipeline`] when the pipeline is not the one
    /// shape runners translate (see [`PipelineGraph::chain`]) or, on an
    /// engine runner, has no `ParDo`; and [`Error::Engine`] for execution
    /// failures.
    ///
    /// [`PipelineGraph::chain`]: crate::graph::PipelineGraph::chain
    fn run(&self, pipeline: &Pipeline) -> Result<PipelineResult>;

    /// The runner's display name.
    fn name(&self) -> &'static str;
}

/// What an engine runner translates: the read, the `ParDo`s before the
/// leaf, and the leaf `ParDo`, each `ParDo` under its translated name.
struct EngineChain {
    source_name: String,
    source: SourceFactory,
    middle: Vec<(String, DoFnFactory)>,
    leaf: (String, DoFnFactory),
}

impl EngineChain {
    /// Checks the chain and takes the leaf off it.
    fn of(pipeline: &Pipeline) -> Result<Self> {
        pipeline.with_graph(|graph| {
            let chain = graph.chain()?;
            let translated = |(node, dofn): &(&StageNode, &DoFnFactory)| {
                (node.translated_name.clone(), (*dofn).clone())
            };
            let Some((leaf, middle)) = chain.pardos.split_last() else {
                return Err(Error::InvalidPipeline(
                    "an engine job ends in a ParDo (e.g. a write), and this pipeline has none"
                        .into(),
                ));
            };
            Ok(EngineChain {
                source_name: chain.read.translated_name.clone(),
                source: chain.source.clone(),
                middle: middle.iter().map(translated).collect(),
                leaf: translated(leaf),
            })
        })
    }
}
