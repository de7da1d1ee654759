//! The `rill` (Flink-analog) runner.
//!
//! Translates each pipeline stage onto one `rill` operator over raw
//! elements. The translated job is what the paper's Fig. 13 shows for
//! Apache Flink: a source named
//! `PTransformTranslation.UnknownRawPTransform`, the KafkaIO `Flat Map`,
//! and a `ParDoTranslation.RawParDo` per remaining stage — compared to
//! the three-node native plan of Fig. 12. Elements cross every stage in
//! coded form, so each stage pays a decode/encode round trip that native
//! rill programs do not.

use crate::coder::{Coder, WindowedValueCoder};
use crate::error::{Error, Result};
use crate::graph::{DoFnFactory, RawDoFn, RawElement, SourceFactory};
use crate::pipeline::Pipeline;
use crate::runners::{EngineChain, EngineReport, PipelineResult, PipelineRunner};
use rill::{ClusterSpec, Collector, ParallelSource, SourceFunction, StreamExecutionEnvironment};
use std::collections::HashMap;

/// Runs pipelines on a [`rill`] cluster.
#[derive(Debug, Clone)]
pub struct RillRunner {
    parallelism: usize,
}

impl Default for RillRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl RillRunner {
    /// Creates a runner with parallelism 1.
    pub fn new() -> Self {
        RillRunner { parallelism: 1 }
    }

    /// Sets the job parallelism (the `-p` flag of paper §III-A2). The job
    /// runs on a local cluster with a slot for every subtask
    /// ([`ClusterSpec::local_for`]).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Translates the pipeline and returns the engine execution plan
    /// without running it — the Fig. 13 view.
    ///
    /// # Errors
    ///
    /// Same translation errors as [`PipelineRunner::run`].
    pub fn plan(&self, pipeline: &Pipeline) -> Result<rill::ExecutionPlan> {
        let env = self.translate(pipeline)?;
        Ok(env.execution_plan())
    }

    fn translate(&self, pipeline: &Pipeline) -> Result<StreamExecutionEnvironment> {
        let chain = EngineChain::of(pipeline)?;
        let env =
            StreamExecutionEnvironment::with_cluster(ClusterSpec::local_for(self.parallelism));
        env.set_parallelism(self.parallelism);
        let mut stream = env.add_source(RawSourceAdapter {
            factory: chain.source,
            name: chain.source_name,
        });
        for (translated, factory) in chain.middle {
            let metric_name = translated.clone();
            stream = stream.transform(&translated, move |col| {
                // The engine serializes elements between the translated
                // operators (Beam-on-Flink disables object reuse, so every
                // chained handoff passes the type serializer): a full
                // envelope round trip per element per boundary.
                Box::new(RawDoFnCollector {
                    dofn: Some(factory()),
                    instruments: transform_instruments(&metric_name),
                    scratch: Vec::new(),
                    downstream: SerializedBoundary {
                        downstream: col,
                        scratch: Vec::new(),
                    },
                })
            });
        }
        // The leaf ParDo (typically the broker write) becomes the job's
        // sink.
        let (name, factory) = chain.leaf;
        stream.add_sink(RawDoFnSink { factory, name });
        Ok(env)
    }
}

/// `(records_in, busy_micros)` for one translated transform, resolved at
/// job materialization only while instrumentation is enabled.
fn transform_instruments(translated: &str) -> Option<(obs::Counter, obs::Counter)> {
    if obs::enabled() {
        Some((
            obs::counter(&format!("beam.rill.{translated}.records_in")),
            obs::counter(&format!("beam.rill.{translated}.busy_micros")),
        ))
    } else {
        None
    }
}

impl PipelineRunner for RillRunner {
    fn run(&self, pipeline: &Pipeline) -> Result<PipelineResult> {
        let _run_span = obs::span("beam.rill.run");
        let env = {
            let _translate_span = obs::span("beam.rill.translate");
            self.translate(pipeline)?
        };
        let job = env
            .execute("beamline")
            .map_err(|e| Error::Engine(e.to_string()))?;
        Ok(PipelineResult::new(
            job.duration,
            EngineReport::Rill(job),
            HashMap::new(),
        ))
    }

    fn name(&self) -> &'static str {
        "rill"
    }
}

/// Adapts a pipeline [`RawSource`](crate::graph::RawSource) to a rill
/// source. Beam sources are not split across subtasks by this runner:
/// subtask 0 reads everything (with a single-partition input topic there
/// is nothing to split anyway).
struct RawSourceAdapter {
    factory: SourceFactory,
    name: String,
}

impl ParallelSource<RawElement> for RawSourceAdapter {
    fn create(&self, subtask: usize, _parallelism: usize) -> Box<dyn SourceFunction<RawElement>> {
        Box::new(RawSourceInstance {
            factory: if subtask == 0 {
                Some(self.factory.clone())
            } else {
                None
            },
        })
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

struct RawSourceInstance {
    factory: Option<SourceFactory>,
}

impl SourceFunction<RawElement> for RawSourceInstance {
    fn run(&mut self, out: &mut dyn Collector<RawElement>) {
        if let Some(factory) = &self.factory {
            // Chunk the read into batches so the whole translated chain is
            // traversed per batch, not per element.
            let mut batch: Vec<RawElement> = Vec::with_capacity(SOURCE_BATCH);
            factory().read(&mut |e| {
                batch.push(e);
                if batch.len() >= SOURCE_BATCH {
                    out.collect_batch(&mut batch);
                }
            });
            out.collect_batch(&mut batch);
        }
    }
}

/// Elements handed downstream per source batch.
const SOURCE_BATCH: usize = 1024;

/// Serializes every element through the windowed-value envelope coder and
/// back before handing it downstream — the per-boundary serialization the
/// engine applies to translated operators.
struct SerializedBoundary<C> {
    downstream: C,
    /// Reused envelope-encode buffer; the round trip itself — the modeled
    /// overhead — is still paid per element, and the decoded payload is a
    /// fresh arena copy.
    scratch: Vec<u8>,
}

impl<C: Collector<RawElement>> SerializedBoundary<C> {
    fn round_trip(&mut self, item: &RawElement) -> RawElement {
        WindowedValueCoder.encode_into(item, &mut self.scratch);
        WindowedValueCoder
            .decode_all(&self.scratch)
            .expect("envelope encoded by the same coder")
    }
}

impl<C: Collector<RawElement>> Collector<RawElement> for SerializedBoundary<C> {
    fn collect(&mut self, item: RawElement) {
        let decoded = self.round_trip(&item);
        self.downstream.collect(decoded);
    }

    fn collect_batch(&mut self, items: &mut Vec<RawElement>) {
        // Per-element envelope round trips (the engine's per-boundary
        // serialization), forwarded as one batch.
        for item in items.iter_mut() {
            *item = self.round_trip(item);
        }
        self.downstream.collect_batch(items);
    }

    fn close(&mut self) {
        self.downstream.close();
    }
}

/// rill collector wrapping a [`RawDoFn`]; the whole stream is one bundle.
/// When instrumented, busy time is inclusive of the downstream chain (the
/// collector-chain equivalent of a span tree).
struct RawDoFnCollector<C> {
    dofn: Option<Box<dyn RawDoFn>>,
    instruments: Option<(obs::Counter, obs::Counter)>,
    /// Reused output buffer for the batch path.
    scratch: Vec<RawElement>,
    downstream: C,
}

impl<C: Collector<RawElement>> Collector<RawElement> for RawDoFnCollector<C> {
    fn collect(&mut self, item: RawElement) {
        // `dofn` is taken at close; collecting afterwards violates the
        // collector contract upstream, so drop rather than panic.
        let Some(dofn) = self.dofn.as_mut() else {
            return;
        };
        let downstream = &mut self.downstream;
        match &self.instruments {
            Some((records_in, busy)) => {
                records_in.inc();
                let started = std::time::Instant::now();
                dofn.process(item, &mut |e| downstream.collect(e));
                busy.add(started.elapsed().as_micros() as u64);
            }
            None => dofn.process(item, &mut |e| downstream.collect(e)),
        }
    }

    fn collect_batch(&mut self, items: &mut Vec<RawElement>) {
        // See `collect`: a post-close batch is dropped, not a panic.
        let Some(dofn) = self.dofn.as_mut() else {
            items.clear();
            return;
        };
        let scratch = &mut self.scratch;
        match &self.instruments {
            Some((records_in, busy)) => {
                // One count update and one timing pair per batch.
                records_in.add(items.len() as u64);
                let started = std::time::Instant::now();
                for item in items.drain(..) {
                    dofn.process(item, &mut |e| scratch.push(e));
                }
                busy.add(started.elapsed().as_micros() as u64);
            }
            None => {
                for item in items.drain(..) {
                    dofn.process(item, &mut |e| scratch.push(e));
                }
            }
        }
        self.downstream.collect_batch(&mut self.scratch);
    }

    fn close(&mut self) {
        if let Some(mut dofn) = self.dofn.take() {
            let downstream = &mut self.downstream;
            dofn.finish_bundle(&mut |e| downstream.collect(e));
        }
        self.downstream.close();
    }
}

/// Terminal rill sink driving a leaf [`RawDoFn`] (typically the broker
/// write); the paper notes the Beam plan has no dedicated sink — the
/// write is just another ParDo, and this sink carries its name.
struct RawDoFnSink {
    factory: DoFnFactory,
    name: String,
}

impl rill::ParallelSink<RawElement> for RawDoFnSink {
    fn create(
        &self,
        _subtask: usize,
        _parallelism: usize,
    ) -> Box<dyn rill::SinkFunction<RawElement>> {
        let mut dofn = (self.factory)();
        dofn.start_bundle();
        Box::new(RawDoFnSinkInstance {
            dofn: Some(dofn),
            instruments: transform_instruments(&self.name),
        })
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

struct RawDoFnSinkInstance {
    dofn: Option<Box<dyn RawDoFn>>,
    instruments: Option<(obs::Counter, obs::Counter)>,
}

impl rill::SinkFunction<RawElement> for RawDoFnSinkInstance {
    fn invoke(&mut self, item: RawElement) {
        if let Some(dofn) = self.dofn.as_mut() {
            match &self.instruments {
                Some((records_in, busy)) => {
                    records_in.inc();
                    let started = std::time::Instant::now();
                    dofn.process(item, &mut |_| {});
                    busy.add(started.elapsed().as_micros() as u64);
                }
                None => dofn.process(item, &mut |_| {}),
            }
        }
    }

    fn invoke_batch(&mut self, items: &mut Vec<RawElement>) {
        let Some(dofn) = self.dofn.as_mut() else {
            items.clear();
            return;
        };
        match &self.instruments {
            Some((records_in, busy)) => {
                records_in.add(items.len() as u64);
                let started = std::time::Instant::now();
                for item in items.drain(..) {
                    dofn.process(item, &mut |_| {});
                }
                busy.add(started.elapsed().as_micros() as u64);
            }
            None => {
                for item in items.drain(..) {
                    dofn.process(item, &mut |_| {});
                }
            }
        }
    }

    fn close(&mut self) {
        if let Some(mut dofn) = self.dofn.take() {
            dofn.finish_bundle(&mut |_| {});
        }
    }
}
