//! Result files — many runs of the single-run command gathered into one
//! JSON — and the comparison of two of them against the bounds stored in
//! `BENCHMARK.json`.

use crate::json::{object, parse, string, Value};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `end_to_end` entries of a parsed `BENCHMARK.json`.
pub fn gates(benchmark: &Value) -> Result<Vec<Gate>, String> {
    let entries = benchmark.get("end_to_end").map_or(&[][..], Value::as_array);
    if entries.is_empty() {
        return Err("BENCHMARK.json lists no end_to_end metric".into());
    }
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .ok_or(format!("end_to_end entry lacks {key}"))
            };
            Ok(Gate {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() != Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One run as a result file stores it.
pub fn run_entry(
    workload: &str,
    seed: u64,
    trace: bool,
    wall_s: f64,
    result: Value,
    trials: Value,
) -> Value {
    object([
        ("workload", string(workload)),
        ("seed", Value::Number(seed as f64)),
        ("trace", Value::Number(f64::from(u8::from(trace)))),
        ("wall_s", Value::Number(wall_s)),
        ("result", result),
        ("trials", trials),
    ])
}

/// `workload → metric → one value per untraced run`, from a result file.
pub fn values_by_metric(file: &Value) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in file.get("runs").map_or(&[][..], Value::as_array) {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let metrics = run.get("result").and_then(|r| r.get("metrics"));
        let Some(Value::Object(metrics)) = metrics else {
            continue;
        };
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// The candidate's median is worse than the baseline's by more than
    /// the bound.
    Worse,
    /// One side's own run-to-run spread exceeds the bound, so the pair
    /// of medians says nothing either way.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `candidate` against `baseline` for one (workload, metric).
/// Returns the verdict and the share by which the candidate is worse
/// (negative when better), based on the baseline's median.
pub fn judge(gate: &Gate, baseline: &[f64], candidate: &[f64]) -> Option<(Verdict, f64)> {
    let (base, cand) = (median(baseline)?, median(candidate)?);
    let worse_by = if gate.lower_is_better {
        (cand - base) / base.abs()
    } else {
        (base - cand) / base.abs()
    };
    let verdict = if spread(baseline).max(spread(candidate)) > gate.bound {
        Verdict::Unresolved
    } else if worse_by > gate.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some((verdict, worse_by))
}

/// Compares two result files; prints one row per (workload, end-to-end
/// metric). Returns whether any pair is `worse`.
pub fn compare(baseline: &Value, candidate: &Value, benchmark: &Value) -> Result<bool, String> {
    for key in ["nproc", "rtt_micros", "records"] {
        let of = |file: &Value| file.get("fingerprint").and_then(|f| f.get(key)).cloned();
        if of(baseline) != of(candidate) {
            println!("warning: the two files differ in fingerprint.{key}");
        }
    }
    let gates = gates(benchmark)?;
    let (base, cand) = (values_by_metric(baseline), values_by_metric(candidate));
    let mut any_worse = false;
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "cand", "worse%", "sprdA%", "sprdB%", "bound%"
    );
    for (workload, metrics) in &base {
        for gate in &gates {
            let a = metrics.get(&gate.name).map_or(&[][..], Vec::as_slice);
            let b = cand
                .get(workload)
                .and_then(|m| m.get(&gate.name))
                .map_or(&[][..], Vec::as_slice);
            let Some((verdict, worse_by)) = judge(gate, a, b) else {
                println!("{workload:<14} {:<26} missing on one side", gate.name);
                continue;
            };
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<14} {:<26} {:>12.3} {:>12.3} {:>8.2} {:>7.2} {:>7.2} {:>6.1}  {}",
                gate.name,
                median(a).unwrap_or(f64::NAN),
                median(b).unwrap_or(f64::NAN),
                worse_by * 100.0,
                spread(a) * 100.0,
                spread(b) * 100.0,
                gate.bound * 100.0,
                verdict.label()
            );
        }
    }
    Ok(any_worse)
}

/// Prints, per (workload, metric) of a result file, the median over its
/// runs and their spread — interquartile range over median, the number
/// the acceptance check holds against each bound.
pub fn print_spreads(file: &Value, benchmark: Option<&Value>) {
    let bounds: BTreeMap<String, f64> = benchmark
        .and_then(|b| gates(b).ok())
        .unwrap_or_default()
        .into_iter()
        .map(|g| (g.name, g.bound))
        .collect();
    println!(
        "{:<14} {:<48} {:>5} {:>14} {:>8} {:>7}",
        "workload", "metric", "runs", "median", "spread%", "bound%"
    );
    for (workload, metrics) in values_by_metric(file) {
        for (name, values) in metrics {
            let bound = bounds
                .get(&name)
                .map_or(String::new(), |b| format!("{:.1}", b * 100.0));
            println!(
                "{workload:<14} {name:<48} {:>5} {:>14.4} {:>8.2} {bound:>7}",
                values.len(),
                median(&values).unwrap_or(f64::NAN),
                spread(&values) * 100.0,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(bound: f64, lower_is_better: bool) -> Gate {
        Gate {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn the_three_verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [60.0, 100.0, 140.0, 90.0, 180.0];
        let g = gate(0.10, true);
        assert_eq!(judge(&g, &steady, &steady).unwrap().0, Verdict::Ok);
        let (verdict, by) = judge(&g, &steady, &slower).unwrap();
        assert_eq!(verdict, Verdict::Worse);
        assert!((by - 0.2).abs() < 1e-9);
        // Faster is never worse.
        assert_eq!(judge(&g, &slower, &steady).unwrap().0, Verdict::Ok);
        assert_eq!(judge(&g, &steady, &noisy).unwrap().0, Verdict::Unresolved);
        assert_eq!(judge(&g, &noisy, &slower).unwrap().0, Verdict::Unresolved);
        // Direction: for a higher-is-better metric the same move is a gain.
        assert_eq!(
            judge(&gate(0.10, false), &steady, &slower).unwrap().0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&gate(0.10, false), &slower, &steady).unwrap().0,
            Verdict::Worse
        );
        assert!(judge(&g, &steady, &[]).is_none());
    }

    #[test]
    fn result_files_group_untraced_runs_by_workload_and_metric() {
        let metrics = |v: f64| {
            let entry = object([("value", Value::Number(v)), ("unit", string("ns"))]);
            object([("metrics", object([("m", entry)]))])
        };
        let file = object([(
            "runs",
            Value::Array(vec![
                run_entry("grep", 1, false, 1.0, metrics(10.0), Value::Null),
                run_entry("grep", 2, false, 1.0, metrics(12.0), Value::Null),
                run_entry("grep", 3, true, 1.0, metrics(99.0), Value::Null),
                run_entry("identity", 1, false, 1.0, metrics(7.0), Value::Null),
            ]),
        )]);
        let values = values_by_metric(&parse(&file.to_json()).unwrap());
        assert_eq!(values["grep"]["m"], vec![10.0, 12.0]);
        assert_eq!(values["identity"]["m"], vec![7.0]);

        let benchmark =
            parse(r#"{"end_to_end":[{"name":"m","unit":"ns","better":"lower","bound":0.25}]}"#)
                .unwrap();
        assert_eq!(gates(&benchmark).unwrap(), vec![gate(0.25, true)]);
        assert_eq!(compare(&file, &file, &benchmark), Ok(false));
        assert!(gates(&object([])).is_err());
    }
}
