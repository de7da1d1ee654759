//! The `dstream` (Spark-Streaming-analog) runner.
//!
//! Translates the pipeline onto micro-batches: the bounded source is
//! discretized into batches, **every batch is repartitioned to
//! `spark.default.parallelism`** (the runner honours the engine's
//! parallelism setting with a per-batch shuffle — the mechanical cause of
//! the paper's observation that Beam-on-Spark gets *slower* with
//! parallelism 2 on trivial queries), and each `ParDo` runs once per batch
//! partition with one bundle per partition.

use crate::error::{Error, Result};
use crate::graph::{DoFnFactory, RawElement, SourceFactory, StagePayload};
use crate::pipeline::Pipeline;
use crate::runners::feed::SourceFeed;
use crate::runners::{EngineReport, PipelineResult, PipelineRunner};
use dstream::{BatchSource, Context, ContextConfig, StreamingContext};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Runs pipelines on a [`dstream`] application.
#[derive(Debug, Clone)]
pub struct DStreamRunner {
    parallelism: usize,
    max_batch_records: usize,
}

impl Default for DStreamRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl DStreamRunner {
    /// Creates a runner with parallelism 1 and 10k-record micro-batches.
    pub fn new() -> Self {
        DStreamRunner {
            parallelism: 1,
            max_batch_records: 10_000,
        }
    }

    /// Sets `spark.default.parallelism` (paper §III-A2).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Sets the micro-batch size.
    pub fn with_batch_records(mut self, records: usize) -> Self {
        self.max_batch_records = records.max(1);
        self
    }
}

impl PipelineRunner for DStreamRunner {
    fn run(&self, pipeline: &Pipeline) -> Result<PipelineResult> {
        let _run_span = obs::span("beam.dstream.run");
        enum Stage {
            Middle(String, DoFnFactory),
            Leaf(String, DoFnFactory),
        }
        let (source, stages) = pipeline.with_graph(|graph| -> Result<_> {
            let chain = graph
                .linear_chain()
                .ok_or_else(|| Error::UnsupportedShape {
                    runner: "dstream",
                    reason: "only linear single-source pipelines are translatable".into(),
                })?;
            let first = graph
                .node(chain[0])
                .ok_or_else(|| Error::InvalidPipeline("dangling node id in linear chain".into()))?;
            let StagePayload::Read(source) = &first.payload else {
                return Err(Error::InvalidPipeline(
                    "pipeline must start with a Read".into(),
                ));
            };
            let mut stages = Vec::new();
            for (i, id) in chain.iter().enumerate().skip(1) {
                let node = graph.node(*id).ok_or_else(|| {
                    Error::InvalidPipeline("dangling node id in linear chain".into())
                })?;
                let leaf = i == chain.len() - 1;
                match &node.payload {
                    StagePayload::ParDo(factory) if leaf => {
                        stages.push(Stage::Leaf(node.translated_name.clone(), factory.clone()));
                    }
                    StagePayload::ParDo(factory) => {
                        stages.push(Stage::Middle(node.translated_name.clone(), factory.clone()));
                    }
                    other => {
                        return Err(Error::UnsupportedTransform {
                            runner: "dstream",
                            transform: format!("{other:?}"),
                        })
                    }
                }
            }
            Ok((source.clone(), stages))
        })?;

        let ctx =
            Context::with_config(ContextConfig::default().default_parallelism(self.parallelism));
        let ssc = StreamingContext::new(ctx);
        let mut stream = ssc
            .receiver_stream(SourceBatcher::new(source, self.max_batch_records))
            // The runner distributes each micro-batch over the configured
            // parallelism — a shuffle per batch.
            .repartition(self.parallelism);
        let mut has_leaf = false;
        for stage in stages {
            match stage {
                Stage::Middle(name, factory) => {
                    stream = stream.map_partitions(move |part: Vec<RawElement>| {
                        // The benchmarked stages emit at most one element
                        // per input.
                        let mut out = Vec::with_capacity(part.len());
                        run_bundle(&name, &factory, part, &mut out);
                        out
                    });
                }
                Stage::Leaf(name, factory) => {
                    has_leaf = true;
                    stream.foreach_rdd(&ssc, move |rdd| {
                        let name = name.clone();
                        let factory = factory.clone();
                        rdd.foreach_partition(move |_i, part| {
                            run_bundle(&name, &factory, part, &mut Vec::new());
                        });
                    });
                }
            }
        }
        if !has_leaf {
            // Pipelines without a terminal ParDo still need an output
            // operation to drive the batches.
            stream.foreach_rdd(&ssc, |rdd| {
                let _ = rdd.count();
            });
        }
        let report = ssc
            .run_to_completion()
            .map_err(|e| Error::Engine(e.to_string()))?;
        Ok(PipelineResult::new(
            report.elapsed,
            EngineReport::DStream(report),
            HashMap::new(),
        ))
    }

    fn name(&self) -> &'static str {
        "dstream"
    }
}

/// Runs one bundle of a raw `DoFn` over a batch partition into `out`,
/// recording per-transform volume and busy time when instrumentation is
/// enabled (instrument resolution is per bundle, not per element).
fn run_bundle(name: &str, factory: &DoFnFactory, part: Vec<RawElement>, out: &mut Vec<RawElement>) {
    // The clock is read only for an instrumented run.
    let busy_since = obs::enabled().then(|| {
        obs::counter(&format!("beam.dstream.{name}.records_in")).add(part.len() as u64);
        (
            obs::counter(&format!("beam.dstream.{name}.busy_micros")),
            std::time::Instant::now(),
        )
    });
    let mut dofn = factory();
    dofn.start_bundle();
    for element in part {
        dofn.process(element, &mut |e| out.push(e));
    }
    dofn.finish_bundle(&mut |e| out.push(e));
    if let Some((busy, started)) = busy_since {
        busy.add(started.elapsed().as_micros() as u64);
    }
}

/// Discretizes a pipeline source: a bounded [`SourceFeed`] streams the
/// input through a capacity-limited channel (started lazily on the first
/// pull), and micro-batches are cut from its chunks — so a follow-mode
/// source backpressures the micro-batch driver instead of being
/// materialized whole.
struct SourceBatcher {
    factory: Option<SourceFactory>,
    feed: Option<SourceFeed>,
    buffered: VecDeque<RawElement>,
    max_batch_records: usize,
}

impl SourceBatcher {
    fn new(factory: SourceFactory, max_batch_records: usize) -> Self {
        SourceBatcher {
            factory: Some(factory),
            feed: None,
            buffered: VecDeque::new(),
            max_batch_records,
        }
    }
}

impl BatchSource<RawElement> for SourceBatcher {
    fn next_batch(&mut self) -> Option<Vec<RawElement>> {
        if let Some(factory) = self.factory.take() {
            self.feed = Some(SourceFeed::spawn(factory));
        }
        // Block for the first chunk of the batch, then top up with
        // whatever is already queued — a slow producer yields small
        // timely batches instead of stalling until a full one exists.
        if self.buffered.is_empty() {
            match self.feed.as_mut().and_then(SourceFeed::next_chunk) {
                Some(chunk) => self.buffered.extend(chunk),
                None => return None,
            }
        }
        while self.buffered.len() < self.max_batch_records {
            match self.feed.as_mut().and_then(SourceFeed::try_next_chunk) {
                Some(chunk) => self.buffered.extend(chunk),
                None => break,
            }
        }
        let take = self.max_batch_records.min(self.buffered.len());
        Some(self.buffered.drain(..take).collect())
    }
}
