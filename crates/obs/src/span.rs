//! Hierarchical span tracing: RAII enter/exit timing with implicit
//! parenting and thread-safe collection into one timeline.
//!
//! A [`SpanGuard`] opened while another span is active on the same
//! thread becomes its child (a thread-local stack tracks the current
//! span). Guards record on drop, so a span's duration always covers
//! exactly its lexical scope, panics included. Records from all threads
//! land in one shared timeline that renders as a tree or serializes to
//! JSON.

use crate::metrics::unix_micros;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One completed span (or instantaneous event) in the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the tracer.
    pub id: u64,
    /// Enclosing span's id, if the span had a parent on its thread.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Start time, microseconds since the Unix epoch.
    pub start_unix_micros: u64,
    /// Duration in microseconds (0 for events).
    pub duration_micros: u64,
    /// True for instantaneous events, false for real spans.
    pub is_event: bool,
    /// Structured key/value payload.
    pub fields: Vec<(String, String)>,
}

impl SpanRecord {
    fn json_into(&self, out: &mut String) {
        out.push_str("{\"id\":");
        out.push_str(&self.id.to_string());
        out.push_str(",\"parent\":");
        match self.parent {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":");
        crate::json::write_string(out, &self.name);
        out.push_str(",\"start_unix_micros\":");
        out.push_str(&self.start_unix_micros.to_string());
        out.push_str(",\"duration_micros\":");
        out.push_str(&self.duration_micros.to_string());
        out.push_str(",\"kind\":");
        out.push_str(if self.is_event {
            "\"event\""
        } else {
            "\"span\""
        });
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::write_string(out, k);
            out.push(':');
            crate::json::write_string(out, v);
        }
        out.push_str("}}");
    }
}

#[derive(Debug)]
struct TracerInner {
    records: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
}

thread_local! {
    /// Stack of (tracer identity, span id) for implicit parenting. The
    /// tracer identity keeps independent tracers (tests) from adopting
    /// each other's spans as parents.
    static ACTIVE: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from all threads into one timeline.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                records: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
            }),
        }
    }
}

impl Tracer {
    /// An empty tracer. Tracer instances are always live; the global
    /// enable switch is applied by the [`crate::span()`] front door, not
    /// here, so tests can drive a private tracer directly.
    pub fn new() -> Self {
        Tracer::default()
    }

    fn identity(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Opens a span; it closes (and records) when the guard drops. The
    /// span is parented under the thread's innermost open span from the
    /// same tracer, if any.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with_fields(name, &[])
    }

    /// [`Tracer::span`] with a structured payload attached.
    pub fn span_with_fields(&self, name: &str, fields: &[(&str, String)]) -> SpanGuard {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let me = self.identity();
        let parent = ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find(|(tracer, _)| *tracer == me)
                .map(|(_, id)| *id);
            stack.push((me, id));
            parent
        });
        SpanGuard {
            state: Some(GuardState {
                tracer: self.inner.clone(),
                id,
                parent,
                name: name.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                start_unix_micros: unix_micros(),
                started: Instant::now(),
            }),
        }
    }

    /// Records an instantaneous event under the current span.
    pub fn event(&self, name: &str, fields: &[(&str, String)]) {
        let me = self.identity();
        let parent = ACTIVE.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|(tracer, _)| *tracer == me)
                .map(|(_, id)| *id)
        });
        let record = SpanRecord {
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            start_unix_micros: unix_micros(),
            duration_micros: 0,
            is_event: true,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        self.inner.records.lock().push(record);
    }

    /// The id of the innermost open span on this thread, for explicit
    /// cross-thread parenting via [`Tracer::span_under`].
    pub fn current_span_id(&self) -> Option<u64> {
        let me = self.identity();
        ACTIVE.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|(tracer, _)| *tracer == me)
                .map(|(_, id)| *id)
        })
    }

    /// Opens a span with an explicit parent id — the bridge for work
    /// handed to another thread (capture [`Tracer::current_span_id`]
    /// before spawning, parent the worker's spans under it).
    pub fn span_under(&self, parent: Option<u64>, name: &str) -> SpanGuard {
        let mut guard = self.span(name);
        if let Some(state) = guard.state.as_mut() {
            if state.parent.is_none() {
                state.parent = parent;
            }
        }
        guard
    }

    /// Copies the completed timeline, ordered by start time.
    pub fn snapshot_spans(&self) -> Vec<SpanRecord> {
        let mut records = self.inner.records.lock().clone();
        records.sort_by_key(|r| (r.start_unix_micros, r.id));
        records
    }

    /// Removes and returns the completed timeline, ordered by start time.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut records = std::mem::take(&mut *self.inner.records.lock());
        records.sort_by_key(|r| (r.start_unix_micros, r.id));
        records
    }

    /// Discards all completed records.
    pub fn clear(&self) {
        self.inner.records.lock().clear();
    }
}

#[derive(Debug)]
struct GuardState {
    tracer: Arc<TracerInner>,
    id: u64,
    parent: Option<u64>,
    name: String,
    fields: Vec<(String, String)>,
    start_unix_micros: u64,
    started: Instant,
}

/// RAII handle for an open span; records on drop.
#[derive(Debug)]
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    state: Option<GuardState>,
}

impl SpanGuard {
    /// A guard that records nothing — the disabled-path stand-in, free
    /// of clock reads and allocation.
    pub fn inert() -> Self {
        SpanGuard { state: None }
    }

    /// Attaches a field to the span before it closes.
    pub fn field(&mut self, key: &str, value: impl Into<String>) {
        if let Some(state) = self.state.as_mut() {
            state.fields.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let duration_micros = state.started.elapsed().as_micros() as u64;
        let me = Arc::as_ptr(&state.tracer) as usize;
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Normally the top of the stack; a linear scan keeps things
            // correct if guards are dropped out of order.
            if let Some(pos) = stack
                .iter()
                .rposition(|&(tracer, id)| tracer == me && id == state.id)
            {
                stack.remove(pos);
            }
        });
        state.tracer.records.lock().push(SpanRecord {
            id: state.id,
            parent: state.parent,
            name: state.name,
            start_unix_micros: state.start_unix_micros,
            duration_micros,
            is_event: false,
            fields: state.fields,
        });
    }
}

/// Serializes records to a JSON array (already tree-linked via
/// `parent`).
pub fn spans_to_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96 + 2);
    out.push('[');
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        r.json_into(&mut out);
    }
    out.push(']');
    out
}

/// Renders records as an indented tree, children under parents in
/// start order, durations in milliseconds.
pub fn render_tree(records: &[SpanRecord]) -> String {
    let mut children: std::collections::BTreeMap<Option<u64>, Vec<&SpanRecord>> =
        std::collections::BTreeMap::new();
    for r in records {
        children.entry(r.parent).or_default().push(r);
    }
    for list in children.values_mut() {
        list.sort_by_key(|r| (r.start_unix_micros, r.id));
    }
    let mut out = String::new();
    fn walk(
        out: &mut String,
        children: &std::collections::BTreeMap<Option<u64>, Vec<&SpanRecord>>,
        parent: Option<u64>,
        depth: usize,
    ) {
        let Some(list) = children.get(&parent) else {
            return;
        };
        for r in list {
            for _ in 0..depth {
                out.push_str("  ");
            }
            if r.is_event {
                out.push_str(&format!("· {}", r.name));
            } else {
                out.push_str(&format!(
                    "{} ({:.3} ms)",
                    r.name,
                    r.duration_micros as f64 / 1000.0
                ));
            }
            for (k, v) in &r.fields {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            walk(out, children, Some(r.id), depth + 1);
        }
    }
    walk(&mut out, &children, None, 0);
    // Orphans (parent recorded on another thread's timeline or dropped):
    // print flat so nothing silently disappears.
    let ids: std::collections::BTreeSet<u64> = records.iter().map(|r| r.id).collect();
    for r in records {
        if let Some(p) = r.parent {
            if !ids.contains(&p) {
                out.push_str(&format!(
                    "?~ {} ({:.3} ms) [parent {} missing]\n",
                    r.name,
                    r.duration_micros as f64 / 1000.0,
                    p
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_links_parents() {
        let t = Tracer::new();
        {
            let _a = t.span("a");
            {
                let mut b = t.span("b");
                b.field("k", "v");
            }
            t.event("tick", &[("n", "1".to_string())]);
        }
        let spans = t.snapshot_spans();
        assert_eq!(spans.len(), 3);
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        let tick = spans.iter().find(|s| s.name == "tick").unwrap();
        assert_eq!(a.parent, None);
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(tick.parent, Some(a.id));
        assert_eq!(tick.duration_micros, 0);
        assert_eq!(b.fields, vec![("k".to_string(), "v".to_string())]);
        // Parent closes after child: duration covers the child.
        assert!(a.duration_micros >= b.duration_micros);
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let t = Tracer::new();
        {
            let _a = t.span("a");
        }
        {
            let _b = t.span("b");
        }
        let spans = t.snapshot_spans();
        assert!(spans.iter().all(|s| s.parent.is_none()));
    }

    #[test]
    fn independent_tracers_do_not_adopt() {
        let t1 = Tracer::new();
        let t2 = Tracer::new();
        let _outer = t1.span("outer");
        {
            let _inner = t2.span("inner");
        }
        drop(_outer);
        let inner = t2.drain();
        assert_eq!(inner.len(), 1);
        assert_eq!(
            inner[0].parent, None,
            "span must not adopt a parent from a different tracer"
        );
    }

    #[test]
    fn concurrent_collection_is_complete() {
        let t = Tracer::new();
        let root = t.span("root");
        let root_id = t.current_span_id();
        std::thread::scope(|s| {
            for worker in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let mut g = t.span_under(root_id, &format!("w{worker}"));
                        g.field("i", i.to_string());
                    }
                });
            }
        });
        drop(root);
        let spans = t.snapshot_spans();
        assert_eq!(spans.len(), 1 + 8 * 50);
        let root_rec = spans.iter().find(|s| s.name == "root").unwrap();
        let child_count = spans
            .iter()
            .filter(|s| s.parent == Some(root_rec.id))
            .count();
        assert_eq!(child_count, 400);
        // Ids are unique.
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len());
    }

    #[test]
    fn tree_rendering_indents_children() {
        let t = Tracer::new();
        {
            let _a = t.span("query");
            let _b = t.span("send");
        }
        let tree = render_tree(&t.snapshot_spans());
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("query ("));
        assert!(lines[1].starts_with("  send ("));
    }

    #[test]
    fn json_round_trip_shape() {
        let t = Tracer::new();
        {
            let mut g = t.span("s\"x\"");
            g.field("path", "a\\b");
        }
        let json = spans_to_json(&t.snapshot_spans());
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"s\\\"x\\\"\""));
        assert!(json.contains("\"path\":\"a\\\\b\""));
        assert!(json.contains("\"parent\":null"));
    }

    #[test]
    fn drain_empties_the_timeline() {
        let t = Tracer::new();
        {
            let _g = t.span("once");
        }
        assert_eq!(t.drain().len(), 1);
        assert!(t.drain().is_empty());
    }
}
