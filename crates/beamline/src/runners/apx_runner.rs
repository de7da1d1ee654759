//! The `apx` (Apex-analog) runner.
//!
//! This runner reproduces the behaviour of the least mature runner the
//! paper measures (slowdowns of 30–58× on output-heavy queries,
//! §III-C3). Its translation choices are deliberately those of an
//! immature engine adapter, and each is a real mechanism, not a tuning
//! constant:
//!
//! * **Fused ParDo chain, serialized output boundary**: the translated
//!   ParDos run thread-local in one container (the runner reuses the
//!   engine's fusion, so input-side overhead stays near native — which is
//!   why the paper's low-output grep query runs at native speed on this
//!   runner), but the terminal write stage sits behind an
//!   [`apx::Link::Network`] boundary whose tuples are serialized through
//!   the full [`WindowedValueCoder`] envelope.
//! * **Single-element bundles**: each element gets its own
//!   `start_bundle`/`finish_bundle` pair, so a buffering write `DoFn`
//!   commits **per record** — one synchronous broker produce request per
//!   output tuple, on the operator's own thread. With the benchmark's simulated broker network latency
//!   this makes the overhead proportional to the *output* volume,
//!   matching the paper's observation that Apex-Beam costs collapse for
//!   the low-output grep query (Fig. 9) while identity/projection are
//!   slowest (Figs. 6/8).

use crate::coder::{Coder, WindowedValueCoder};
use crate::error::{Error, Result};
use crate::graph::{DoFnFactory, RawDoFn, RawElement, RawSource};
use crate::pipeline::Pipeline;
use crate::runners::{EngineChain, EngineReport, PipelineResult, PipelineRunner};
use apx::{Dag, Emitter, InputOperator, Link, Operator, OperatorContext, Stram, StramConfig};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use yarnsim::{Resource, ResourceManager};

/// Runs pipelines as `apx` applications on a private YARN-style cluster.
#[derive(Debug)]
pub struct ApxRunner {
    rm: Mutex<ResourceManager>,
    vcores: u32,
    window_size: usize,
}

impl Default for ApxRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ApxRunner {
    /// Creates a runner with a two-worker cluster (the paper's setup) and
    /// one vcore per container.
    pub fn new() -> Self {
        let mut rm = ResourceManager::new();
        for _ in 0..2 {
            rm.register_node(Resource::new(64 * 1024, 32));
        }
        ApxRunner {
            rm: Mutex::new(rm),
            vcores: 1,
            window_size: 2048,
        }
    }

    /// Sets the vcores per operator container (the paper's Apex
    /// parallelism knob, §III-A2).
    pub fn with_vcores(mut self, vcores: u32) -> Self {
        self.vcores = vcores.max(1);
        self
    }

    /// Sets the streaming-window size of the translated input operator.
    pub fn with_window_size(mut self, window_size: usize) -> Self {
        self.window_size = window_size.max(1);
        self
    }
}

impl PipelineRunner for ApxRunner {
    fn run(&self, pipeline: &Pipeline) -> Result<PipelineResult> {
        // Per-operator breakdown comes from the engine itself: the
        // translated operator names (`{translated}#i`) surface as
        // `apx.op.{name}.*` via the engine's `OperatorSink` instruments.
        let _run_span = obs::span("beam.apx.run");
        let chain = EngineChain::of(pipeline)?;
        let leaf_index = chain.middle.len() + 1;
        let dag = Dag::with_window_size("beamline", self.window_size);
        let mut handle = dag
            .add_input(
                "PTransformTranslation.UnknownRawPTransform",
                RawSourceInput {
                    source: (chain.source)(),
                    window_size: self.window_size,
                },
            )
            .map_err(engine_err)?;
        // Operator names must be unique in an apx DAG: each carries its
        // chain index (the read is 0).
        for (i, (translated, factory)) in chain.middle.into_iter().enumerate() {
            handle = handle
                .add_operator::<RawElement, _>(
                    &format!("{translated}#{}", i + 1),
                    PerElementBundle::new(factory),
                    Link::Thread,
                )
                .map_err(engine_err)?;
        }
        let (translated, factory) = chain.leaf;
        handle
            .add_output(
                &format!("{translated}#{leaf_index}"),
                PerElementBundle::new(factory),
                Link::Network(Arc::new(RawElementCodec)),
            )
            .map_err(engine_err)?;

        let mut rm = self.rm.lock();
        let result = Stram::run(&dag, &mut rm, &StramConfig::default().vcores(self.vcores))
            .map_err(|e| Error::Engine(e.to_string()))?;
        Ok(PipelineResult::new(
            result.duration,
            EngineReport::Apx(result),
            HashMap::new(),
        ))
    }

    fn name(&self) -> &'static str {
        "apx"
    }
}

fn engine_err(e: apx::Error) -> Error {
    Error::Engine(e.to_string())
}

/// `apx` codec serializing the full windowed-value envelope.
#[derive(Debug, Default, Clone, Copy)]
struct RawElementCodec;

impl apx::Codec<RawElement> for RawElementCodec {
    fn encode_into(&self, tuple: &RawElement, out: &mut Vec<u8>) {
        // `Coder::encode` appends; `Coder::encode_into` would clear the
        // frame block the stream is filling.
        WindowedValueCoder.encode(tuple, out);
    }

    fn decode(&self, bytes: &[u8]) -> RawElement {
        WindowedValueCoder
            .decode_all(bytes)
            .expect("stream frames written by the same codec")
    }
}

/// Input operator driving a pipeline source: each `emit_window` pulls
/// one window of at most `window_size` elements on the operator's own
/// container thread, as Apex's `emitTuples` reads, so a follow-mode
/// source paces the window loop and nothing reads ahead of it.
struct RawSourceInput {
    source: Box<dyn RawSource>,
    window_size: usize,
}

impl InputOperator<RawElement> for RawSourceInput {
    fn emit_window(&mut self, _window_id: u64, out: &mut dyn Emitter<RawElement>) -> bool {
        // An exhausted source emits one last, empty window.
        let Some(window) = self.source.next_batch(self.window_size) else {
            return false;
        };
        for element in window {
            out.emit(element);
        }
        true
    }
}

/// Operator driving a raw `DoFn` with one bundle per element: a
/// transforming stage emits downstream, and the terminal stage's
/// buffering write commits every record individually.
struct PerElementBundle {
    factory: DoFnFactory,
    dofn: Option<Box<dyn RawDoFn>>,
}

impl PerElementBundle {
    fn new(factory: DoFnFactory) -> Self {
        PerElementBundle {
            factory,
            dofn: None,
        }
    }

    fn bundle(&mut self, tuple: RawElement, emit: &mut dyn FnMut(RawElement)) {
        // Normally built in `setup`; constructed lazily here so the data
        // path never panics if the engine skips the lifecycle call.
        let dofn = self.dofn.get_or_insert_with(|| (self.factory)());
        dofn.start_bundle();
        dofn.process(tuple, &mut *emit);
        dofn.finish_bundle(emit);
    }
}

impl Operator<RawElement, RawElement> for PerElementBundle {
    fn setup(&mut self, _ctx: &OperatorContext) {
        self.dofn = Some((self.factory)());
    }

    fn process(&mut self, tuple: RawElement, out: &mut dyn Emitter<RawElement>) {
        self.bundle(tuple, &mut |e| out.emit(e));
    }
}

impl Operator<RawElement, ()> for PerElementBundle {
    fn setup(&mut self, _ctx: &OperatorContext) {
        self.dofn = Some((self.factory)());
    }

    fn process(&mut self, tuple: RawElement, _out: &mut dyn Emitter<()>) {
        self.bundle(tuple, &mut |_| {});
    }
}
