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
use crate::graph::{DoFnFactory, RawElement};
use crate::pipeline::Pipeline;
use crate::runners::feed::SourceFeed;
use crate::runners::{EngineChain, EngineReport, PipelineResult, PipelineRunner};
use dstream::{BatchSource, Context, ContextConfig, StreamingContext};
use std::collections::HashMap;

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
        let chain = EngineChain::of(pipeline)?;
        let ctx =
            Context::with_config(ContextConfig::default().default_parallelism(self.parallelism));
        let ssc = StreamingContext::new(ctx);
        let mut stream = ssc
            .receiver_stream(SourceBatcher {
                feed: SourceFeed::new(chain.source),
                max_batch_records: self.max_batch_records,
            })
            // The runner distributes each micro-batch over the configured
            // parallelism — a shuffle per batch.
            .repartition(self.parallelism);
        for (name, factory) in chain.middle {
            stream = stream.map_partitions(move |part: Vec<RawElement>| {
                // The benchmarked stages emit at most one element per
                // input.
                let mut out = Vec::with_capacity(part.len());
                run_bundle(&name, &factory, part, &mut out);
                out
            });
        }
        let (name, factory) = chain.leaf;
        stream.foreach_rdd(&ssc, move |rdd| {
            let name = name.clone();
            let factory = factory.clone();
            rdd.foreach_partition(move |_i, part| {
                run_bundle(&name, &factory, part, &mut Vec::new());
            });
        });
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
///
/// The `DoFn` is built here, once per batch partition: Beam's Spark
/// runner runs `@Setup`/`@Teardown` per partition, and KafkaIO's writer
/// opens its producer in `@Setup`. So the write stage starts one
/// `AsyncProducer`, with its sender thread, per non-empty partition
/// (`BrokerIO`'s write opens it on its first record).
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

/// Discretizes a pipeline source into micro-batches cut from a bounded
/// [`SourceFeed`], so a follow-mode source backpressures the micro-batch
/// driver instead of being materialized whole.
struct SourceBatcher {
    feed: SourceFeed,
    max_batch_records: usize,
}

impl BatchSource<RawElement> for SourceBatcher {
    fn next_batch(&mut self) -> Option<Vec<RawElement>> {
        self.feed.next_batch(self.max_batch_records)
    }
}
