//! Windowing: window functions, triggers, and the `Window.into`
//! transform.
//!
//! The benchmark's queries are stateless, so windowing only has to be
//! *present and correct enough* for `GroupByKey`: the global window for
//! bounded data and fixed (tumbling) event-time windows. Triggers are
//! carried as configuration; bounded runners fire the single on-time pane
//! (Beam's default trigger on a drained bounded input).

use crate::element::{Instant, WindowRef};
use crate::graph::{RawDoFn, RawElement, RawEmit, StagePayload};
use crate::pipeline::{PCollection, PTransform};
use std::sync::Arc;
use std::time::Duration;

/// Assigns elements to windows by event timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowFn {
    /// Everything in one global window.
    Global,
    /// Tumbling windows of the given size.
    Fixed {
        /// Window size in microseconds.
        size_micros: i64,
    },
}

impl WindowFn {
    /// Fixed windows of `size`.
    pub fn fixed(size: Duration) -> Self {
        WindowFn::Fixed {
            size_micros: size.as_micros().max(1) as i64,
        }
    }

    /// The window containing `timestamp`.
    pub fn assign(&self, timestamp: Instant) -> WindowRef {
        match self {
            WindowFn::Global => WindowRef::Global,
            WindowFn::Fixed { size_micros } => {
                let start = timestamp.0.div_euclid(*size_micros) * size_micros;
                WindowRef::Interval {
                    start: Instant(start),
                    end: Instant(start + size_micros),
                }
            }
        }
    }
}

/// When grouped output may fire (carried as configuration; bounded
/// execution fires one final pane).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Trigger {
    /// Fire when the watermark passes the end of the window.
    #[default]
    AfterWatermark,
    /// Fire every `n` elements.
    AfterCount(u64),
    /// Repeat the inner trigger forever.
    Repeatedly(Box<Trigger>),
}

/// Whether fired panes accumulate or discard prior contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccumulationMode {
    /// Each pane contains only new data.
    #[default]
    Discarding,
    /// Each pane contains everything so far.
    Accumulating,
}

/// A complete windowing configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowingStrategy {
    /// Window assignment.
    pub window_fn: WindowFn,
    /// Firing trigger.
    pub trigger: Trigger,
    /// Pane accumulation.
    pub accumulation: AccumulationMode,
}

impl Default for WindowingStrategy {
    fn default() -> Self {
        WindowingStrategy {
            window_fn: WindowFn::Global,
            trigger: Trigger::default(),
            accumulation: AccumulationMode::default(),
        }
    }
}

/// The `Window.into` transform: reassigns every element's window.
///
/// Operates directly on raw elements — window assignment touches only
/// metadata, so unlike `ParDo` stages it pays no coder round trip.
pub struct WindowInto {
    strategy: WindowingStrategy,
}

impl WindowInto {
    /// Windows into the given window function with default trigger and
    /// accumulation.
    pub fn new(window_fn: WindowFn) -> Self {
        WindowInto {
            strategy: WindowingStrategy {
                window_fn,
                ..WindowingStrategy::default()
            },
        }
    }

    /// Overrides the trigger.
    pub fn triggering(mut self, trigger: Trigger) -> Self {
        self.strategy.trigger = trigger;
        self
    }

    /// Overrides the accumulation mode.
    pub fn accumulation(mut self, accumulation: AccumulationMode) -> Self {
        self.strategy.accumulation = accumulation;
        self
    }
}

struct AssignWindows {
    window_fn: WindowFn,
}

impl RawDoFn for AssignWindows {
    fn process(&mut self, mut element: RawElement, emit: RawEmit<'_>) {
        element.window = self.window_fn.assign(element.timestamp);
        emit(element);
    }
}

impl<T: Send + 'static> PTransform<T, T> for WindowInto {
    fn expand(self, input: &PCollection<T>) -> PCollection<T> {
        let window_fn = self.strategy.window_fn;
        let factory: Arc<dyn Fn() -> Box<dyn RawDoFn> + Send + Sync> =
            Arc::new(move || Box::new(AssignWindows { window_fn }));
        let node = input.pipeline().add_stage(
            "Window.Into",
            "Window.Assign",
            StagePayload::ParDo(factory),
            Some(input.node()),
        );
        PCollection::new(input.pipeline().clone(), node, input.coder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::WindowedValue;

    #[test]
    fn global_assignment() {
        assert_eq!(WindowFn::Global.assign(Instant(123)), WindowRef::Global);
    }

    #[test]
    fn fixed_assignment_aligns() {
        let w = WindowFn::fixed(Duration::from_micros(100));
        assert_eq!(
            w.assign(Instant(250)),
            WindowRef::Interval {
                start: Instant(200),
                end: Instant(300)
            }
        );
        assert_eq!(
            w.assign(Instant(-1)),
            WindowRef::Interval {
                start: Instant(-100),
                end: Instant(0)
            },
            "negative timestamps floor correctly"
        );
        assert_eq!(
            w.assign(Instant(200)),
            WindowRef::Interval {
                start: Instant(200),
                end: Instant(300)
            },
            "boundaries are inclusive at start"
        );
    }

    #[test]
    fn assign_windows_dofn() {
        let mut dofn = AssignWindows {
            window_fn: WindowFn::fixed(Duration::from_micros(10)),
        };
        let mut out = Vec::new();
        dofn.process(
            WindowedValue::timestamped(vec![1u8].into(), Instant(25)),
            &mut |e| out.push(e),
        );
        assert_eq!(
            out[0].window,
            WindowRef::Interval {
                start: Instant(20),
                end: Instant(30)
            }
        );
        assert_eq!(
            out[0].value,
            vec![1u8],
            "payload untouched, no coder round trip"
        );
    }

    #[test]
    fn strategy_builders() {
        let p = crate::Pipeline::new();
        let windowed = p.apply(crate::Create::i64s(vec![1, 2, 3])).apply(
            WindowInto::new(WindowFn::fixed(Duration::from_millis(1)))
                .triggering(Trigger::AfterCount(10))
                .accumulation(AccumulationMode::Accumulating),
        );
        assert_eq!(p.stage_count(), 2);
        let _ = windowed;
    }
}
