//! The scale-out sweep: max sustainable throughput per
//! (engine, SDK, parallelism) cell, found by binary search.
//!
//! Where [`crate::latency`] sweeps a *fixed* list of offered rates to
//! chart the latency curve, this module asks the scalability question
//! directly: *what is the highest open-loop rate each cell can sustain,
//! and how does that ceiling move as parallelism grows?* Each probe is
//! one [`latency`](crate::latency) trial — fresh sharded broker, the
//! input topic partitioned to the cell's parallelism, the open-loop
//! sender key-hash-routing records with `logbus::partition_for_key`
//! ([`crate::sender::send_open_loop_partitioned`]), and the
//! engine's consumer group splitting those partitions across its
//! parallel sources. The sustainable/overloaded verdict is the same
//! coordinated-omission-safe classifier the latency sweep uses
//! (p99 bound plus drain ratio).
//!
//! The search is geometric: rates span orders of magnitude, so the
//! midpoint of `[lo, hi]` is `sqrt(lo * hi)`, not the arithmetic mean.
//! The ceiling is probed first — a cell that sustains it reports the
//! ceiling — then the floor — a cell that sustains neither edge reports
//! `None` — then the bracket halves (geometrically) for
//! [`ScaleoutConfig::search_iters`] rounds or until the bracket is
//! within 5 %. The reported maximum is the highest rate that actually
//! produced a sustainable trial, never an interpolation.

use crate::config::{env_f64, env_list, env_u64};
use crate::latency::{fmt_f64, run_trial, LatencyTrial, CATCHUP_RATIO, P99_BOUND_MICROS};
use crate::queries::Query;
use crate::runner::BenchError;
use crate::setup::{Api, Setup, System};

/// The query every probe runs: the computational baseline, so the
/// ceiling found is the engine's, not the operator's.
const QUERY: Query = Query::Identity;

/// Configuration of the scale-out sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleoutConfig {
    /// Records offered per probe trial.
    pub records: u64,
    /// Leading records excluded from each probe's statistics.
    pub warmup_records: u64,
    /// Parallelism degrees to sweep per (system, SDK) pair.
    pub parallelisms: Vec<usize>,
    /// The search floor, records per second. A cell that cannot sustain
    /// this rate reports no sustainable throughput.
    pub min_rate: f64,
    /// The search ceiling, records per second.
    pub max_rate: f64,
    /// Bisection rounds after the floor and ceiling probes.
    pub search_iters: u32,
    /// The (system, SDK) pairs to sweep. Defaults to the paper's
    /// headline comparison (native rill vs beamline-on-rill) plus the
    /// native dstream and apx engines, so the default sweep covers every
    /// system at least once.
    pub cells: Vec<(System, Api)>,
}

impl Default for ScaleoutConfig {
    fn default() -> Self {
        ScaleoutConfig {
            records: 1_500,
            warmup_records: 200,
            parallelisms: vec![1, 2, 4, 8, 16, 32],
            min_rate: 500.0,
            max_rate: 64_000.0,
            search_iters: 5,
            cells: vec![
                (System::Rill, Api::Native),
                (System::Rill, Api::Beam),
                (System::DStream, Api::Native),
                (System::Apx, Api::Native),
            ],
        }
    }
}

impl ScaleoutConfig {
    /// The default configuration with `STREAMBENCH_SCALEOUT_*`
    /// environment overrides applied: `RECORDS`, `WARMUP`,
    /// `PARALLELISMS` (comma-separated), `MIN_RATE`, `MAX_RATE` and
    /// `ITERS`.
    pub fn from_env() -> Self {
        let default = ScaleoutConfig::default();
        ScaleoutConfig {
            records: env_u64("STREAMBENCH_SCALEOUT_RECORDS", default.records),
            warmup_records: env_u64("STREAMBENCH_SCALEOUT_WARMUP", default.warmup_records),
            parallelisms: env_list("STREAMBENCH_SCALEOUT_PARALLELISMS")
                .map(|ps: Vec<usize>| ps.into_iter().filter(|&p| p > 0).collect::<Vec<_>>())
                .filter(|ps| !ps.is_empty())
                .unwrap_or(default.parallelisms),
            min_rate: env_f64("STREAMBENCH_SCALEOUT_MIN_RATE", default.min_rate),
            max_rate: env_f64("STREAMBENCH_SCALEOUT_MAX_RATE", default.max_rate),
            search_iters: env_u64("STREAMBENCH_SCALEOUT_ITERS", default.search_iters as u64) as u32,
            ..default
        }
    }

    /// Sets the records per probe.
    pub fn records(mut self, records: u64) -> Self {
        self.records = records.max(1);
        self
    }

    /// Sets the warmup cutoff.
    pub fn warmup_records(mut self, records: u64) -> Self {
        self.warmup_records = records;
        self
    }

    /// Sets the parallelism degrees.
    pub fn parallelisms(mut self, parallelisms: Vec<usize>) -> Self {
        self.parallelisms = parallelisms;
        self
    }

    /// Sets the search bracket.
    pub fn rate_bracket(mut self, min_rate: f64, max_rate: f64) -> Self {
        self.min_rate = min_rate;
        self.max_rate = max_rate;
        self
    }

    /// Sets the bisection rounds.
    pub fn search_iters(mut self, iters: u32) -> Self {
        self.search_iters = iters;
        self
    }

    /// Sets the (system, SDK) pairs to sweep.
    pub fn cells(mut self, cells: Vec<(System, Api)>) -> Self {
        self.cells = cells;
        self
    }
}

/// One cell of the scale-out matrix: a [`Setup`] with its search result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleoutCell {
    /// The cell's setup (system × SDK × parallelism).
    pub setup: Setup,
    /// The highest probed rate the cell sustained, or `None` if it
    /// could not sustain the search floor.
    pub max_sustainable_rate: Option<f64>,
    /// Every probe the search ran, in probe order (ceiling, floor,
    /// then bisections).
    pub probes: Vec<LatencyTrial>,
}

/// The full scale-out report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleoutReport {
    /// The query under test.
    pub query: Query,
    /// Records offered per probe.
    pub records_per_trial: u64,
    /// Warmup records excluded from the statistics.
    pub warmup_records: u64,
    /// The sustainability bound on p99 latency, µs.
    pub p99_bound_micros: u64,
    /// The sustainability bound on the drain ratio.
    pub catchup_ratio: f64,
    /// The search floor, records per second.
    pub min_rate: f64,
    /// The search ceiling, records per second.
    pub max_rate: f64,
    /// All cells: for each configured (system, SDK) pair, one cell per
    /// parallelism degree in ascending order.
    pub cells: Vec<ScaleoutCell>,
}

impl ScaleoutReport {
    /// Serializes the report as JSON (schema asserted by CI's
    /// `scaleout-smoke` job): per-cell `max_sustainable_rate` (or
    /// `null`) plus every probe with its verdict.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"query\":");
        out.push_str(&obs::json::string(&self.query.to_string()));
        out.push_str(&format!(
            ",\"records_per_trial\":{},\"warmup_records\":{},\"p99_bound_micros\":{},\
             \"catchup_ratio\":{},\"min_rate\":{},\"max_rate\":{}",
            self.records_per_trial,
            self.warmup_records,
            self.p99_bound_micros,
            fmt_f64(self.catchup_ratio),
            fmt_f64(self.min_rate),
            fmt_f64(self.max_rate),
        ));
        out.push_str(",\"cells\":[");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"system\":");
            out.push_str(&obs::json::string(&cell.setup.system.to_string()));
            out.push_str(",\"sdk\":");
            out.push_str(&obs::json::string(&cell.setup.api.to_string()));
            out.push_str(&format!(",\"parallelism\":{}", cell.setup.parallelism));
            out.push_str(",\"label\":");
            out.push_str(&obs::json::string(&cell.setup.label()));
            out.push_str(",\"max_sustainable_rate\":");
            match cell.max_sustainable_rate {
                Some(rate) => out.push_str(&fmt_f64(rate)),
                None => out.push_str("null"),
            }
            out.push_str(",\"probes\":[");
            for (j, t) in cell.probes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"offered_rate\":{},\"sustainable\":{},\"output_records\":{},\
                     \"p50_micros\":{},\"p99_micros\":{},\"drain_ratio\":{},\"output_ok\":{}}}",
                    fmt_f64(t.offered_rate),
                    t.sustainable,
                    t.output_records,
                    t.p50_micros,
                    t.p99_micros,
                    fmt_f64(t.drain_ratio),
                    t.output_ok,
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Runs the scale-out sweep: for every configured (system, SDK) pair
/// and parallelism degree, binary-search the max sustainable rate.
///
/// # Errors
///
/// Fails on an invalid bracket, an empty parallelism/cell list, or a
/// broker error inside a probe; an *overloaded* probe is a data point,
/// not an error.
pub fn run_scaleout(config: &ScaleoutConfig) -> Result<ScaleoutReport, BenchError> {
    if config.parallelisms.is_empty() {
        return Err(BenchError::Broker(
            "no parallelism degrees configured".into(),
        ));
    }
    if config.cells.is_empty() {
        return Err(BenchError::Broker("no scale-out cells configured".into()));
    }
    if !(config.min_rate > 0.0 && config.max_rate >= config.min_rate) {
        return Err(BenchError::Broker(format!(
            "invalid scale-out rate bracket [{}, {}]",
            config.min_rate, config.max_rate
        )));
    }
    let mut parallelisms = config.parallelisms.clone();
    parallelisms.sort_unstable();
    parallelisms.dedup();
    let mut cells = Vec::new();
    for &(system, api) in &config.cells {
        for &parallelism in &parallelisms {
            let setup = Setup {
                system,
                api,
                parallelism,
            };
            cells.push(search_cell(config, setup)?);
        }
    }
    Ok(ScaleoutReport {
        query: QUERY,
        records_per_trial: config.records,
        warmup_records: config.warmup_records,
        p99_bound_micros: P99_BOUND_MICROS,
        catchup_ratio: CATCHUP_RATIO,
        min_rate: config.min_rate,
        max_rate: config.max_rate,
        cells,
    })
}

/// Binary-searches one cell's max sustainable rate over
/// `[config.min_rate, config.max_rate]`.
fn search_cell(config: &ScaleoutConfig, setup: Setup) -> Result<ScaleoutCell, BenchError> {
    let mut span = obs::span("scaleout.cell");
    span.field("setup", setup.to_string());
    let mut probes = Vec::new();
    let probe = |rate: f64, probes: &mut Vec<LatencyTrial>| -> Result<bool, BenchError> {
        // One input partition per worker, so the consumer group has
        // something to split.
        let trial = run_trial(
            setup,
            QUERY,
            config.records,
            config.warmup_records,
            setup.parallelism as u32,
            rate,
        )?;
        let sustainable = trial.sustainable;
        probes.push(trial);
        Ok(sustainable)
    };

    // Ceiling first: sustaining it ends the search — the true maximum
    // is at or beyond the bracket edge, and the ceiling is the best
    // answer the bracket allows. Probing the ceiling before the floor
    // also keeps cells with *inverted* low-rate behaviour honest: the
    // beamline rill translation's flush-at-end bundling makes slow
    // trials run long enough to blow the p99 bound while fast ones
    // pass (see EXPERIMENTS.md, latency appendix), and the max
    // sustainable rate is defined by the highest sustainable probe, not
    // by the floor.
    if probe(config.max_rate, &mut probes)? {
        span.field("max_sustainable", format!("{}", config.max_rate));
        return Ok(ScaleoutCell {
            setup,
            max_sustainable_rate: Some(config.max_rate),
            probes,
        });
    }
    // Floor next: a cell that sustains neither bracket edge reports no
    // sustainable throughput.
    if config.max_rate <= config.min_rate || !probe(config.min_rate, &mut probes)? {
        span.field("max_sustainable", "none".to_string());
        return Ok(ScaleoutCell {
            setup,
            max_sustainable_rate: None,
            probes,
        });
    }
    let mut lo = config.min_rate;
    let mut hi = config.max_rate;
    for _ in 0..config.search_iters {
        // Geometric midpoint: rates span orders of magnitude.
        let mid = (lo * hi).sqrt();
        if mid <= lo * 1.05 || mid * 1.05 >= hi {
            break;
        }
        if probe(mid, &mut probes)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    span.field("max_sustainable", format!("{lo}"));
    Ok(ScaleoutCell {
        setup,
        max_sustainable_rate: Some(lo),
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(rate: f64, sustainable: bool) -> LatencyTrial {
        LatencyTrial {
            offered_rate: rate,
            output_records: 100,
            measured: 90,
            p50_micros: 100,
            p95_micros: 200,
            p99_micros: 300,
            p999_micros: 400,
            max_micros: 500,
            mean_micros: 150.0,
            drain_ratio: 0.9,
            max_send_lag_micros: 10,
            output_ok: true,
            sustainable,
        }
    }

    #[test]
    fn json_schema_has_cells_probes_and_max_rate() {
        let report = ScaleoutReport {
            query: Query::Identity,
            records_per_trial: 1_500,
            warmup_records: 200,
            p99_bound_micros: 200_000,
            catchup_ratio: 1.5,
            min_rate: 500.0,
            max_rate: 64_000.0,
            cells: vec![
                ScaleoutCell {
                    setup: Setup {
                        system: System::Rill,
                        api: Api::Native,
                        parallelism: 4,
                    },
                    max_sustainable_rate: Some(8_000.0),
                    probes: vec![probe(500.0, true), probe(8_000.0, true)],
                },
                ScaleoutCell {
                    setup: Setup {
                        system: System::Rill,
                        api: Api::Beam,
                        parallelism: 4,
                    },
                    max_sustainable_rate: None,
                    probes: vec![probe(500.0, false)],
                },
            ],
        };
        let json = report.to_json();
        for key in [
            "\"query\":\"identity\"",
            "\"min_rate\":500",
            "\"max_rate\":64000",
            "\"system\":\"rill\"",
            "\"sdk\":\"native\"",
            "\"sdk\":\"beam\"",
            "\"parallelism\":4",
            "\"max_sustainable_rate\":8000",
            "\"max_sustainable_rate\":null",
            "\"probes\":[",
            "\"sustainable\":true",
            "\"sustainable\":false",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn env_overrides_apply() {
        std::env::set_var("STREAMBENCH_SCALEOUT_RECORDS", "321");
        std::env::set_var("STREAMBENCH_SCALEOUT_PARALLELISMS", "1,4");
        std::env::set_var("STREAMBENCH_SCALEOUT_MIN_RATE", "250");
        std::env::set_var("STREAMBENCH_SCALEOUT_MAX_RATE", "1000");
        std::env::set_var("STREAMBENCH_SCALEOUT_ITERS", "2");
        let config = ScaleoutConfig::from_env();
        assert_eq!(config.records, 321);
        assert_eq!(config.parallelisms, vec![1, 4]);
        assert_eq!(config.min_rate, 250.0);
        assert_eq!(config.max_rate, 1000.0);
        assert_eq!(config.search_iters, 2);
        std::env::remove_var("STREAMBENCH_SCALEOUT_RECORDS");
        std::env::remove_var("STREAMBENCH_SCALEOUT_PARALLELISMS");
        std::env::remove_var("STREAMBENCH_SCALEOUT_MIN_RATE");
        std::env::remove_var("STREAMBENCH_SCALEOUT_MAX_RATE");
        std::env::remove_var("STREAMBENCH_SCALEOUT_ITERS");
    }

    #[test]
    fn empty_bracket_or_parallelisms_is_an_error() {
        let bad = ScaleoutConfig::default().parallelisms(vec![]);
        assert!(run_scaleout(&bad).is_err());
        let bad = ScaleoutConfig::default().rate_bracket(1_000.0, 500.0);
        assert!(run_scaleout(&bad).is_err());
        let bad = ScaleoutConfig::default().cells(vec![]);
        assert!(run_scaleout(&bad).is_err());
    }

    #[test]
    fn scaleout_smoke_native_rill_two_parallelisms() {
        // A tiny two-point search: floor 500, ceiling 2 000. The
        // in-process engine sustains both comfortably, so the cell
        // should finish after the two bracket probes.
        let config = ScaleoutConfig::default()
            .records(240)
            .warmup_records(40)
            .parallelisms(vec![1, 2])
            .rate_bracket(500.0, 2_000.0)
            .search_iters(1)
            .cells(vec![(System::Rill, Api::Native)]);
        let report = run_scaleout(&config).unwrap();
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(
                cell.max_sustainable_rate.is_some(),
                "{} found no sustainable rate: {:?}",
                cell.setup,
                cell.probes
            );
            assert!(!cell.probes.is_empty());
            for probe in &cell.probes {
                assert!(probe.output_ok, "{} lost records", cell.setup);
            }
        }
        let json = report.to_json();
        assert!(json.contains("\"parallelism\":1"));
        assert!(json.contains("\"parallelism\":2"));
    }
}
