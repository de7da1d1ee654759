//! The traced run's two products: per-cell busy shares read from the
//! `obs` registry, and the span file.

use crate::cells::Cell;
use crate::json::{object, string, Value};
use crate::report::Metrics;
use obs::{Snapshot, SpanRecord};
use std::path::Path;

/// The per-cell families a traced trial yields, in `Shares::record` order.
pub const SHARE_FAMILIES: [&str; 6] = [
    "logbus.produce_requests",
    "logbus.fetch_requests",
    "logbus.produce_busy_share",
    "logbus.fetch_busy_share",
    "op.busy_share",
    "budget.unattributed_share",
];

/// Where one traced trial's engine wall time went, by `obs`'s own
/// account. The four shares sum to 1 by construction: what `obs` does
/// not attribute is `unattributed`. Operator meters nest (a chained
/// operator's busy time includes its downstream), so `op` can overstate
/// and `unattributed` can go negative — that is `obs`'s error, shown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    pub produce_requests: f64,
    pub fetch_requests: f64,
    pub produce: f64,
    pub fetch: f64,
    pub op: f64,
    pub unattributed: f64,
}

/// Whether `counter` is an engine or runner operator busy-time meter.
fn is_op_busy_meter(counter: &str) -> bool {
    let engine_op = ["rill.op.", "dstream.op.", "apx.op."]
        .iter()
        .any(|prefix| counter.starts_with(prefix));
    (engine_op || counter.starts_with("beam.")) && counter.ends_with(".busy_micros")
}

pub fn shares(snapshot: &Snapshot, wall_s: f64) -> Shares {
    let histogram = |name: &str| {
        snapshot
            .histograms
            .get(name)
            .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
    };
    let (produce_requests, produce_micros) = histogram("logbus.produce.micros");
    let (fetch_requests, fetch_micros) = histogram("logbus.fetch.micros");
    let op_micros: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| is_op_busy_meter(name))
        .map(|(_, micros)| *micros)
        .sum();
    let wall_micros = wall_s * 1e6;
    let produce = produce_micros / wall_micros;
    let fetch = fetch_micros / wall_micros;
    let op = op_micros as f64 / wall_micros;
    Shares {
        produce_requests,
        fetch_requests,
        produce,
        fetch,
        op,
        unattributed: 1.0 - produce - fetch - op,
    }
}

impl Shares {
    pub fn record(&self, cell: Cell, metrics: &mut Metrics) {
        let values = [
            (self.produce_requests, "count"),
            (self.fetch_requests, "count"),
            (self.produce, "ratio"),
            (self.fetch, "ratio"),
            (self.op, "ratio"),
            (self.unattributed, "ratio"),
        ];
        for (family, (value, unit)) in SHARE_FAMILIES.iter().zip(values) {
            metrics.put(format!("{family}.{}", cell.name()), value, unit);
        }
    }
}

fn end_micros(record: &SpanRecord) -> u64 {
    record.start_unix_micros + record.duration_micros
}

/// Gives every parentless span that is not the root the innermost
/// harness span (`engine.run`, or a `layer.*` loop) running when it
/// started: `obs`'s own spans open on engine threads, where no harness
/// span is on the stack, and belong under the call that caused them.
fn adopt_orphans(records: &mut [SpanRecord]) {
    let hosts: Vec<(u64, u64, u64)> = records
        .iter()
        .filter(|r| r.name == "engine.run" || r.name.starts_with("layer."))
        .map(|r| (r.id, r.start_unix_micros, end_micros(r)))
        .collect();
    for record in records.iter_mut() {
        if record.parent.is_some() || record.name == "workload" {
            continue;
        }
        let at = record.start_unix_micros;
        record.parent = hosts
            .iter()
            .filter(|(id, start, end)| *id != record.id && *start <= at && at <= *end)
            .max_by_key(|(_, start, _)| *start)
            .map(|(id, _, _)| *id);
    }
}

/// Self time of each span: its duration minus the part of its interval
/// its direct children cover (overlapping children counted once).
fn self_micros(records: &[SpanRecord]) -> Vec<u64> {
    records
        .iter()
        .map(|parent| {
            let (start, end) = (parent.start_unix_micros, end_micros(parent));
            let mut children: Vec<(u64, u64)> = records
                .iter()
                .filter(|r| r.parent == Some(parent.id))
                .map(|r| (r.start_unix_micros.max(start), end_micros(r).min(end)))
                .filter(|(s, e)| e > s)
                .collect();
            children.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = start;
            for (s, e) in children {
                if e > frontier {
                    covered += e - s.max(frontier);
                    frontier = e;
                }
            }
            parent.duration_micros.saturating_sub(covered)
        })
        .collect()
}

fn span_value(record: &SpanRecord, self_micros: u64) -> Value {
    let fields = record
        .fields
        .iter()
        .map(|(k, v)| (k.clone(), string(v.as_str())));
    object([
        ("id", Value::Number(record.id as f64)),
        (
            "parent",
            record
                .parent
                .map_or(Value::Null, |p| Value::Number(p as f64)),
        ),
        ("name", string(record.name.as_str())),
        (
            "start_unix_micros",
            Value::Number(record.start_unix_micros as f64),
        ),
        ("end_unix_micros", Value::Number(end_micros(record) as f64)),
        ("self_micros", Value::Number(self_micros as f64)),
        ("fields", Value::Object(fields.collect())),
    ])
}

/// Writes every span of the run — kept in memory until now — to `path`
/// as a JSON array, and prints self time by span name. Returns the span
/// count; without a path it only counts.
pub fn export(path: Option<&Path>) -> Result<usize, String> {
    let mut records = obs::global().tracer().snapshot_spans();
    records.retain(|r| !r.is_event);
    let Some(path) = path else {
        return Ok(records.len());
    };
    adopt_orphans(&mut records);
    let selfs = self_micros(&records);

    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for (record, own) in records.iter().zip(&selfs) {
        let entry = by_name.entry(&record.name).or_default();
        entry.0 += 1;
        entry.1 += record.duration_micros;
        entry.2 += own;
    }
    println!(
        "{:<32} {:>8} {:>14} {:>14}",
        "span", "count", "total_us", "self_us"
    );
    for (name, (count, total, own)) in by_name {
        println!("{name:<32} {count:>8} {total:>14} {own:>14}");
    }

    let spans = records
        .iter()
        .zip(&selfs)
        .map(|(r, own)| span_value(r, *own));
    let text = Value::Array(spans.collect()).to_json();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::HistogramSnapshot;

    fn record(id: u64, parent: Option<u64>, name: &str, start: u64, duration: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_unix_micros: start,
            duration_micros: duration,
            is_event: false,
            fields: Vec::new(),
        }
    }

    #[test]
    fn shares_sum_to_one() {
        let mut snapshot = Snapshot::default();
        let mut produce = HistogramSnapshot::empty();
        (produce.count, produce.sum) = (10, 250_000);
        let mut fetch = HistogramSnapshot::empty();
        (fetch.count, fetch.sum) = (40, 100_000);
        snapshot
            .histograms
            .insert("logbus.produce.micros".into(), produce);
        snapshot
            .histograms
            .insert("logbus.fetch.micros".into(), fetch);
        for (name, micros) in [
            ("rill.op.map.busy_micros", 300_000),
            ("beam.rill.Identity.busy_micros", 100_000),
            ("rill.op.map.records_in", 999_999),
            ("logbus.produce.records", 999_999),
        ] {
            snapshot.counters.insert(name.into(), micros);
        }
        let s = shares(&snapshot, 1.0);
        assert_eq!((s.produce_requests, s.fetch_requests), (10.0, 40.0));
        assert_eq!((s.produce, s.fetch, s.op), (0.25, 0.1, 0.4));
        assert!((s.produce + s.fetch + s.op + s.unattributed - 1.0).abs() < 1e-12);
        let empty = shares(&Snapshot::default(), 2.0);
        assert_eq!(empty.unattributed, 1.0);
    }

    #[test]
    fn orphans_go_under_the_engine_run_that_caused_them() {
        let mut records = vec![
            record(1, None, "workload", 0, 1_000),
            record(2, Some(1), "engine.run", 100, 300),
            record(3, Some(1), "engine.run", 500, 300),
            record(4, None, "rill.execute", 510, 200),
            record(5, None, "apx.run", 120, 50),
            record(6, None, "stray", 950, 10),
        ];
        adopt_orphans(&mut records);
        let parent_of = |id| records.iter().find(|r| r.id == id).unwrap().parent;
        assert_eq!(parent_of(4), Some(3));
        assert_eq!(parent_of(5), Some(2));
        assert_eq!(parent_of(6), None);
        assert_eq!(parent_of(1), None);
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let records = vec![
            record(1, None, "trial", 0, 1_000),
            record(2, Some(1), "engine.run", 100, 400),
            // Overlaps its sibling by 100 µs and runs past the parent.
            record(3, Some(1), "drain", 400, 700),
            record(4, Some(2), "rill.execute", 150, 100),
        ];
        // Children cover [100, 1000) of the parent's [0, 1000).
        assert_eq!(self_micros(&records), vec![100, 300, 700, 100]);
    }
}
