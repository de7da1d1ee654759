//! Named metrics, the result line the contract specifies, and the
//! fingerprint block every result file carries.

use crate::json::{object, string, Value};
use std::collections::BTreeMap;

/// Metrics by name, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(name, (value, unit))| {
                    let entry = object([("value", Value::Number(*value)), ("unit", string(*unit))]);
                    (name.clone(), entry)
                })
                .collect(),
        )
    }

    /// One `name value unit` line per metric.
    pub fn print(&self) {
        for (name, (value, unit)) in &self.0 {
            println!("{name:<48} {value:>16.4} {unit}");
        }
    }
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct RunResult {
    pub metrics: Metrics,
    /// Per-trial numbers behind the medians (result files only).
    pub trials: Value,
    /// Operations (trials) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// A metric the run owes but could not produce makes it incorrect
    /// even with no failed operation.
    pub missing: Vec<String>,
    /// Wall time of the whole run, s (fingerprint, not a metric).
    pub wall_s: f64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.missing.is_empty()
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn to_value(&self) -> Value {
        object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", self.metrics.to_value()),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken: enough to refuse comparing
/// two files that should not be compared.
pub fn fingerprint(seed: u64, seconds: f64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    object([
        ("nproc", Value::Number(nproc as f64)),
        ("rustc", string(command_line("rustc", &["-V"]))),
        (
            "git_rev",
            string(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rtt_micros",
            Value::Number(crate::trial::rtt_micros() as f64),
        ),
        ("seed", Value::Number(seed as f64)),
        ("seconds", Value::Number(seconds)),
        ("min_rounds", Value::Number(crate::bench::MIN_ROUNDS as f64)),
        (
            "records",
            Value::Object(
                crate::workloads::WORKLOADS
                    .iter()
                    .map(|w| {
                        let bounded = w.bounded_records.iter().map(|&n| Value::Number(n as f64));
                        let sizes = object([
                            ("bounded", Value::Array(bounded.collect())),
                            ("open", Value::Number(w.open_records as f64)),
                            ("open_rate", Value::Number(w.open_rate)),
                        ]);
                        (w.name.to_string(), sizes)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
