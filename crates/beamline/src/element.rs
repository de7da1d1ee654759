//! Windowed elements: the metadata every value carries through a
//! pipeline.
//!
//! In the Dataflow model every element is a *windowed value*: payload plus
//! event timestamp, window assignment, and pane info. The abstraction
//! layer pays for this uniformly rich representation on every element at
//! every transform boundary — one of the structural overheads the paper's
//! measurements expose.

use std::fmt;

/// An event-time instant in microseconds since the Unix epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(pub i64);

impl Instant {
    /// The minimum representable timestamp (`BoundedWindow.TIMESTAMP_MIN_VALUE`).
    pub const MIN: Instant = Instant(i64::MIN / 2);
    /// The maximum representable timestamp (end-of-global-window).
    pub const MAX: Instant = Instant(i64::MAX / 2);

    /// Creates an instant from microseconds since the epoch.
    pub fn from_micros(micros: i64) -> Self {
        Instant(micros)
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> i64 {
        self.0
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// When a pane fired relative to the watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PaneTiming {
    /// Before the watermark passed the end of the window.
    Early,
    /// The single on-time firing.
    #[default]
    OnTime,
    /// After the watermark.
    Late,
    /// Timing unknown (e.g. default pane of unwindowed data).
    Unknown,
}

/// Pane metadata attached to each element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PaneInfo {
    /// Whether this is the window's first pane.
    pub is_first: bool,
    /// Whether this is the window's last pane.
    pub is_last: bool,
    /// Firing timing.
    pub timing: PaneTiming,
    /// Zero-based pane index within the window.
    pub index: u64,
}

impl PaneInfo {
    /// The default pane of data that was never grouped or triggered.
    pub const NO_FIRING: PaneInfo = PaneInfo {
        is_first: true,
        is_last: true,
        timing: PaneTiming::Unknown,
        index: 0,
    };
}

impl Default for PaneInfo {
    fn default() -> Self {
        PaneInfo::NO_FIRING
    }
}

/// A window assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowRef {
    /// The single global window.
    #[default]
    Global,
    /// A fixed (tumbling) interval window `[start, end)` in event time.
    Interval {
        /// Inclusive start.
        start: Instant,
        /// Exclusive end.
        end: Instant,
    },
}

/// A value with its event-time and windowing metadata.
///
/// The payload type is usually `Bytes` inside runners (elements cross
/// stage boundaries in coded form) and a typed `T` inside user `DoFn`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedValue<T> {
    /// The payload.
    pub value: T,
    /// Event timestamp.
    pub timestamp: Instant,
    /// Window assignment.
    pub window: WindowRef,
    /// Pane metadata.
    pub pane: PaneInfo,
}

impl<T> WindowedValue<T> {
    /// Wraps a value in the global window at the minimum timestamp — what
    /// `Create`-style sources produce.
    pub fn in_global_window(value: T) -> Self {
        WindowedValue {
            value,
            timestamp: Instant::MIN,
            window: WindowRef::Global,
            pane: PaneInfo::NO_FIRING,
        }
    }

    /// Wraps a value with an explicit event timestamp in the global
    /// window.
    pub fn timestamped(value: T, timestamp: Instant) -> Self {
        WindowedValue {
            value,
            timestamp,
            window: WindowRef::Global,
            pane: PaneInfo::NO_FIRING,
        }
    }

    /// Replaces the payload, keeping all metadata — what a `ParDo` does
    /// for each output of an input element.
    pub fn with_value<U>(&self, value: U) -> WindowedValue<U> {
        WindowedValue {
            value,
            timestamp: self.timestamp,
            window: self.window,
            pane: self.pane,
        }
    }
}

/// A key-value pair (`KV` in Beam).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Kv<K, V> {
    /// The key.
    pub key: K,
    /// The value.
    pub value: V,
}

impl<K, V> Kv<K, V> {
    /// Creates a pair.
    pub fn new(key: K, value: V) -> Self {
        Kv { key, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_bounds() {
        assert!(Instant::MIN < Instant::from_micros(0));
        assert!(Instant::MAX > Instant::from_micros(i64::MAX / 4));
        assert_eq!(Instant::from_micros(5).as_micros(), 5);
    }

    #[test]
    fn windowed_value_constructors() {
        let v = WindowedValue::in_global_window("x");
        assert_eq!(v.timestamp, Instant::MIN);
        assert_eq!(v.window, WindowRef::Global);

        let t = WindowedValue::timestamped(1, Instant(42));
        assert_eq!(t.timestamp, Instant(42));

        let mapped = t.with_value("mapped");
        assert_eq!(mapped.timestamp, Instant(42));
        assert_eq!(mapped.value, "mapped");
        assert_eq!(mapped.pane, PaneInfo::NO_FIRING);
    }

    #[test]
    fn pane_constants() {
        assert_eq!(PaneInfo::default(), PaneInfo::NO_FIRING);
    }

    #[test]
    fn kv() {
        let kv = Kv::new("k", 1);
        assert_eq!(kv.key, "k");
        assert_eq!(kv.value, 1);
    }
}
