//! `ParDo`: element-by-element processing with `DoFn`s.

use crate::arena;
use crate::coder::Coder;
use crate::element::{Instant, PaneInfo, WindowRef, WindowedValue};
use crate::graph::{RawDoFn, RawElement, RawEmit, StagePayload};
use crate::pipeline::{PCollection, PTransform};
use std::sync::Arc;

/// The display name engine plans show for translated `ParDo` stages,
/// matching the paper's Fig. 13.
pub const RAW_PAR_DO: &str = "ParDoTranslation.RawParDo";

/// Context handed to [`DoFn::process`]: element metadata plus the output
/// emitter.
pub struct ProcessContext<'a, O> {
    timestamp: Instant,
    window: WindowRef,
    pane: PaneInfo,
    coder: &'a dyn Coder<O>,
    /// The adapter's encode buffer, reused for every output.
    scratch: &'a mut Vec<u8>,
    emit: RawEmit<'a>,
}

impl<O: 'static> ProcessContext<'_, O> {
    /// Event timestamp of the current element.
    pub fn timestamp(&self) -> Instant {
        self.timestamp
    }

    /// Window of the current element.
    pub fn window(&self) -> WindowRef {
        self.window
    }

    /// Pane of the current element.
    pub fn pane(&self) -> PaneInfo {
        self.pane
    }

    /// Emits an output element inheriting the input's metadata.
    ///
    /// The value is encoded into the adapter's reused scratch buffer and
    /// copied once into the emitting thread's arena; the emitted payload
    /// is a view of that, so emission allocates nothing.
    pub fn output(&mut self, value: O) {
        self.coder.encode_into(&value, self.scratch);
        (self.emit)(WindowedValue {
            value: arena::copy(self.scratch),
            timestamp: self.timestamp,
            window: self.window,
            pane: self.pane,
        });
    }
}

/// A distributed processing function applied per element (Beam's `DoFn`).
///
/// Implementations must be `Clone`: the runner clones one instance per
/// bundle, calls [`DoFn::start_bundle`], processes the bundle's elements,
/// and finishes with [`DoFn::finish_bundle`].
pub trait DoFn<I, O>: Send + Sync + Clone + 'static {
    /// Called at the start of every bundle.
    fn start_bundle(&mut self) {}

    /// Processes one element.
    fn process(&mut self, element: I, ctx: &mut ProcessContext<'_, O>);

    /// Called at the end of every bundle; may emit buffered output
    /// through `ctx` (metadata: global window, minimum timestamp).
    fn finish_bundle(&mut self, _ctx: &mut ProcessContext<'_, O>) {}
}

/// Closure-backed `DoFn`.
#[derive(Clone)]
pub struct FnDoFn<F> {
    f: F,
}

impl<F> FnDoFn<F> {
    /// Wraps a `Fn(element, ctx)` closure.
    pub fn new(f: F) -> Self {
        FnDoFn { f }
    }
}

impl<I, O, F> DoFn<I, O> for FnDoFn<F>
where
    I: Send + 'static,
    O: Send + 'static,
    F: Fn(I, &mut ProcessContext<'_, O>) + Send + Sync + Clone + 'static,
{
    fn process(&mut self, element: I, ctx: &mut ProcessContext<'_, O>) {
        (self.f)(element, ctx);
    }
}

/// Adapter running a typed [`DoFn`] over raw elements: decode input,
/// process, encode output — the per-stage coder round trip.
pub struct RawAdapter<I, O, D> {
    dofn: D,
    in_coder: Arc<dyn Coder<I>>,
    out_coder: Arc<dyn Coder<O>>,
    scratch: Vec<u8>,
}

impl<I, O, D> RawAdapter<I, O, D> {
    /// Creates the adapter.
    pub fn new(dofn: D, in_coder: Arc<dyn Coder<I>>, out_coder: Arc<dyn Coder<O>>) -> Self {
        RawAdapter {
            dofn,
            in_coder,
            out_coder,
            scratch: Vec::new(),
        }
    }
}

impl<I, O, D> RawDoFn for RawAdapter<I, O, D>
where
    I: Send + 'static,
    O: Send + 'static,
    D: DoFn<I, O>,
{
    fn start_bundle(&mut self) {
        self.dofn.start_bundle();
    }

    fn process(&mut self, element: RawElement, emit: RawEmit<'_>) {
        let decoded = self
            .in_coder
            .decode_all(&element.value)
            .expect("stage input bytes produced by the declared coder");
        let mut ctx = ProcessContext {
            timestamp: element.timestamp,
            window: element.window,
            pane: element.pane,
            coder: &*self.out_coder,
            scratch: &mut self.scratch,
            emit,
        };
        self.dofn.process(decoded, &mut ctx);
    }

    fn finish_bundle(&mut self, emit: RawEmit<'_>) {
        let mut ctx = ProcessContext {
            timestamp: Instant::MIN,
            window: WindowRef::Global,
            pane: PaneInfo::NO_FIRING,
            coder: &*self.out_coder,
            scratch: &mut self.scratch,
            emit,
        };
        self.dofn.finish_bundle(&mut ctx);
    }
}

/// The `ParDo` core transform: applies a [`DoFn`] to every element.
pub struct ParDo<D, O> {
    name: String,
    dofn: D,
    out_coder: Arc<dyn Coder<O>>,
}

impl<D, O> ParDo<D, O> {
    /// Creates a `ParDo` with an explicit output coder (Beam infers
    /// coders; here they are explicit).
    pub fn of(name: impl Into<String>, dofn: D, out_coder: Arc<dyn Coder<O>>) -> Self {
        ParDo {
            name: name.into(),
            dofn,
            out_coder,
        }
    }
}

impl<I, O, D> PTransform<I, O> for ParDo<D, O>
where
    I: Send + 'static,
    O: Send + 'static,
    D: DoFn<I, O>,
{
    fn expand(self, input: &PCollection<I>) -> PCollection<O> {
        let in_coder = input.coder();
        let out_coder = self.out_coder.clone();
        let dofn = self.dofn;
        let factory: Arc<dyn Fn() -> Box<dyn RawDoFn> + Send + Sync> = Arc::new(move || {
            Box::new(RawAdapter::new(
                dofn.clone(),
                in_coder.clone(),
                out_coder.clone(),
            ))
        });
        let node = input.pipeline().add_stage(
            self.name,
            RAW_PAR_DO,
            StagePayload::ParDo(factory),
            Some(input.node()),
        );
        PCollection::new(input.pipeline().clone(), node, self.out_coder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coder::{StrUtf8Coder, VarIntCoder};

    fn run_bundle(raw: &mut dyn RawDoFn, inputs: Vec<RawElement>) -> Vec<RawElement> {
        let mut out = Vec::new();
        raw.start_bundle();
        for element in inputs {
            raw.process(element, &mut |e| out.push(e));
        }
        raw.finish_bundle(&mut |e| out.push(e));
        out
    }

    #[test]
    fn adapter_round_trips_coders() {
        let dofn = FnDoFn::new(|s: String, ctx: &mut ProcessContext<'_, i64>| {
            ctx.output(s.len() as i64);
        });
        let mut adapter = RawAdapter::new(
            dofn,
            Arc::new(StrUtf8Coder) as _,
            Arc::new(VarIntCoder) as _,
        );
        let input = WindowedValue::timestamped(
            StrUtf8Coder.encode_to_vec(&"abcd".to_string()).into(),
            Instant(55),
        );
        let out = run_bundle(&mut adapter, vec![input]);
        assert_eq!(out.len(), 1);
        assert_eq!(VarIntCoder.decode_all(&out[0].value).unwrap(), 4);
        assert_eq!(out[0].timestamp, Instant(55), "metadata inherited");
    }

    #[test]
    fn finish_bundle_can_emit() {
        #[derive(Clone)]
        struct Buffering {
            seen: i64,
        }
        impl DoFn<i64, i64> for Buffering {
            fn start_bundle(&mut self) {
                self.seen = 0;
            }
            fn process(&mut self, element: i64, _ctx: &mut ProcessContext<'_, i64>) {
                self.seen += element;
            }
            fn finish_bundle(&mut self, ctx: &mut ProcessContext<'_, i64>) {
                ctx.output(self.seen);
            }
        }
        let mut adapter = RawAdapter::new(
            Buffering { seen: 0 },
            Arc::new(VarIntCoder) as _,
            Arc::new(VarIntCoder) as _,
        );
        let inputs = vec![
            WindowedValue::in_global_window(VarIntCoder.encode_to_vec(&2).into()),
            WindowedValue::in_global_window(VarIntCoder.encode_to_vec(&3).into()),
        ];
        let out = run_bundle(&mut adapter, inputs);
        assert_eq!(out.len(), 1);
        assert_eq!(VarIntCoder.decode_all(&out[0].value).unwrap(), 5);
    }

    #[test]
    fn pooled_buffers_leave_no_residue_between_elements() {
        let dofn = FnDoFn::new(|s: String, ctx: &mut ProcessContext<'_, String>| {
            ctx.output(s);
        });
        let mut adapter = RawAdapter::new(
            dofn,
            Arc::new(StrUtf8Coder) as _,
            Arc::new(StrUtf8Coder) as _,
        );
        let inputs = vec![
            WindowedValue::in_global_window(
                StrUtf8Coder
                    .encode_to_vec(&"a-long-first-element".to_string())
                    .into(),
            ),
            WindowedValue::in_global_window(StrUtf8Coder.encode_to_vec(&"x".to_string()).into()),
        ];
        let out = run_bundle(&mut adapter, inputs);
        assert_eq!(out.len(), 2);
        // The shorter second output must not carry bytes of the first:
        // the scratch buffer is reused between elements, but
        // `encode_into` clears it so each emit holds exactly one encoding.
        assert_eq!(
            StrUtf8Coder.decode_all(&out[1].value).unwrap(),
            "x".to_string()
        );
        assert_eq!(
            StrUtf8Coder.decode_all(&out[0].value).unwrap(),
            "a-long-first-element".to_string()
        );
    }
}
