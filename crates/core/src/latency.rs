//! The latency-mode benchmark: per-record end-to-end latency under an
//! open-loop offered load, per (engine, SDK, parallelism) cell.
//!
//! The paper measures *execution time* of a preloaded bounded workload
//! (§III-A); this module extends its slowdown-factor matrix with a
//! latency dimension using the sustainable-throughput methodology of
//! Karimov et al. (ICDE 2018):
//!
//! 1. **Open-loop generation** — an
//!    [`OpenLoopSchedule`](crate::sender::OpenLoopSchedule)d sender
//!    (phase 1's data sender in streaming dress) appends records at a
//!    configured rate. Each record's **event time** is its *scheduled*
//!    arrival, fixed by the rate alone, so a stalled sender bursts to
//!    catch up and the queueing delay is charged to latency — the
//!    measurement is coordinated-omission-safe.
//! 2. **Follow-mode execution** — the engine under test tails the input
//!    topic (bounded buffering and source throttling all the way down,
//!    so overload backpressures instead of OOMing) until it has consumed
//!    the trial's records, writing query outputs to the output topic.
//! 3. **Sink-side measurement** — per-record latency is the output
//!    record's broker `LogAppendTime` minus the event time carried in
//!    the payload prefix, accumulated into an [`obs::Histogram`]
//!    (p50/p95/p99/p999).
//!
//! A cell is swept over increasing offered rates; each trial is
//! classified **sustainable** (p99 within bound, output drained roughly
//! in arrival time, correct output) or **overloaded**. The report keeps
//! every trial and highlights the latency at the highest sustainable
//! rate.
//!
//! Caveat recorded in EXPERIMENTS.md: broker round trips here are
//! *simulated* (a configurable per-request delay on an in-process
//! broker), so absolute latencies are not comparable to a networked
//! cluster; the reproduced quantity is the *relative* shape — which
//! cells saturate first and what the abstraction layer adds.

use crate::config::{env_list, env_u64, BenchConfig};
use crate::queries::Query;
use crate::runner::BenchError;
use crate::sender::parse_event_time_micros;
use crate::setup::{all_setups, Setup};
use crate::trial::{self, Trial};
use logbus::Broker;

/// A trial is sustainable only if its p99 latency is within this bound,
/// µs.
pub(crate) const P99_BOUND_MICROS: u64 = 200_000;
/// A trial is sustainable only if the output topic's append span is at
/// most this multiple of the offered arrival span (an engine that needs
/// much longer than the arrival window to drain is falling behind).
pub(crate) const CATCHUP_RATIO: f64 = 1.5;

/// Configuration of a latency sweep.
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// Records offered per trial.
    pub records: u64,
    /// Leading records excluded from the latency statistics (engine
    /// startup transients: container allocation, first-batch effects).
    pub warmup_records: u64,
    /// Offered rates to sweep, records per second (sorted ascending
    /// before use).
    pub rates: Vec<f64>,
    /// Parallelism degrees of the cell matrix.
    pub parallelisms: Vec<usize>,
    /// The query under test.
    pub query: Query,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            records: 2_000,
            warmup_records: 200,
            rates: vec![500.0, 2_000.0, 8_000.0],
            parallelisms: vec![1, 2],
            query: Query::Identity,
        }
    }
}

impl LatencyConfig {
    /// The default configuration with `STREAMBENCH_LATENCY_*`
    /// environment overrides applied: `RECORDS`, `WARMUP`, `RATES`
    /// (comma-separated) and `PARALLELISMS` (comma-separated).
    pub fn from_env() -> Self {
        let default = LatencyConfig::default();
        LatencyConfig {
            records: env_u64("STREAMBENCH_LATENCY_RECORDS", default.records),
            warmup_records: env_u64("STREAMBENCH_LATENCY_WARMUP", default.warmup_records),
            rates: env_list("STREAMBENCH_LATENCY_RATES").unwrap_or(default.rates),
            parallelisms: env_list("STREAMBENCH_LATENCY_PARALLELISMS")
                .map(|ps: Vec<usize>| ps.into_iter().filter(|&p| p > 0).collect::<Vec<_>>())
                .filter(|ps| !ps.is_empty())
                .unwrap_or(default.parallelisms),
            ..default
        }
    }

    /// Sets the records per trial.
    pub fn records(mut self, records: u64) -> Self {
        self.records = records.max(1);
        self
    }

    /// Sets the warmup cutoff.
    pub fn warmup_records(mut self, records: u64) -> Self {
        self.warmup_records = records;
        self
    }

    /// Sets the offered rates.
    pub fn rates(mut self, rates: Vec<f64>) -> Self {
        self.rates = rates;
        self
    }

    /// Sets the parallelism degrees.
    pub fn parallelisms(mut self, parallelisms: Vec<usize>) -> Self {
        self.parallelisms = parallelisms;
        self
    }

    /// Sets the query under test.
    pub fn query(mut self, query: Query) -> Self {
        self.query = query;
        self
    }
}

/// One (cell, offered rate) trial.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyTrial {
    /// Offered rate, records per second.
    pub offered_rate: f64,
    /// Output records drained from the output topic.
    pub output_records: u64,
    /// Latency samples measured (outputs after warmup with a parseable
    /// event-time prefix).
    pub measured: u64,
    /// Median end-to-end latency, µs.
    pub p50_micros: u64,
    /// 95th percentile, µs.
    pub p95_micros: u64,
    /// 99th percentile, µs.
    pub p99_micros: u64,
    /// 99.9th percentile, µs.
    pub p999_micros: u64,
    /// Worst observed latency, µs.
    pub max_micros: u64,
    /// Mean latency, µs.
    pub mean_micros: f64,
    /// Output append span over offered arrival span; > 1 means the
    /// engine needed longer than the arrival window to drain.
    pub drain_ratio: f64,
    /// Worst sender wake-up lag behind its schedule, µs (the burst debt
    /// that was charged to latency rather than hidden).
    pub max_send_lag_micros: i64,
    /// Whether the engine finished and its output is byte-for-byte the
    /// reference output ([`trial::verify`]).
    pub output_ok: bool,
    /// The sustainable-vs-overloaded verdict for this trial.
    pub sustainable: bool,
}

/// One cell of the latency matrix: a [`Setup`] with its rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyCell {
    /// The cell's setup (system × SDK × parallelism).
    pub setup: Setup,
    /// Trials in ascending offered-rate order.
    pub trials: Vec<LatencyTrial>,
}

impl LatencyCell {
    /// The trial at the highest offered rate the cell sustained, if any.
    pub fn highest_sustainable(&self) -> Option<&LatencyTrial> {
        self.trials.iter().rev().find(|t| t.sustainable)
    }
}

/// The full latency report: every cell of the matrix with its sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// The query under test.
    pub query: Query,
    /// Records offered per trial.
    pub records_per_trial: u64,
    /// Warmup records excluded from the statistics.
    pub warmup_records: u64,
    /// The sustainability bound on p99 latency, µs.
    pub p99_bound_micros: u64,
    /// The sustainability bound on the drain ratio.
    pub catchup_ratio: f64,
    /// All cells, in [`all_setups`] order.
    pub cells: Vec<LatencyCell>,
}

impl LatencyReport {
    /// Serializes the report as JSON (schema asserted by CI's
    /// `latency-smoke` job): per-cell trials with p50/p95/p99/p999 and a
    /// boolean `sustainable` flag, plus the highest sustainable rate.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"query\":");
        out.push_str(&obs::json::string(&self.query.to_string()));
        out.push_str(&format!(
            ",\"records_per_trial\":{},\"warmup_records\":{},\"p99_bound_micros\":{},\"catchup_ratio\":{}",
            self.records_per_trial,
            self.warmup_records,
            self.p99_bound_micros,
            fmt_f64(self.catchup_ratio)
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
            out.push_str(",\"highest_sustainable_rate\":");
            match cell.highest_sustainable() {
                Some(t) => out.push_str(&fmt_f64(t.offered_rate)),
                None => out.push_str("null"),
            }
            out.push_str(",\"trials\":[");
            for (j, t) in cell.trials.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"offered_rate\":{},\"sustainable\":{},\"output_records\":{},\
                     \"measured\":{},\"p50_micros\":{},\"p95_micros\":{},\"p99_micros\":{},\
                     \"p999_micros\":{},\"max_micros\":{},\"mean_micros\":{},\
                     \"drain_ratio\":{},\"max_send_lag_micros\":{},\"output_ok\":{}}}",
                    fmt_f64(t.offered_rate),
                    t.sustainable,
                    t.output_records,
                    t.measured,
                    t.p50_micros,
                    t.p95_micros,
                    t.p99_micros,
                    t.p999_micros,
                    t.max_micros,
                    fmt_f64(t.mean_micros),
                    fmt_f64(t.drain_ratio),
                    t.max_send_lag_micros,
                    t.output_ok,
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Formats a float as JSON (finite; `NaN`/inf degrade to `0`).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs the full latency sweep: every cell of the
/// 3 systems × 2 SDKs × parallelisms matrix, at every configured rate,
/// one fresh broker per trial.
///
/// # Errors
///
/// Fails on broker/topic errors and on sender-thread failures; an
/// *engine* failure marks the trial overloaded instead of aborting the
/// sweep (an engine that falls over under offered load is the overload
/// signal, not an infrastructure error).
pub fn run_latency(config: &LatencyConfig) -> Result<LatencyReport, BenchError> {
    let mut rates = config.rates.clone();
    rates.retain(|r| r.is_finite() && *r > 0.0);
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    if rates.is_empty() {
        return Err(BenchError::Broker("no offered rates configured".into()));
    }
    let mut cells = Vec::new();
    for setup in all_setups(&config.parallelisms) {
        let mut trials = Vec::new();
        for &rate in &rates {
            trials.push(run_trial(
                setup,
                config.query,
                config.records,
                config.warmup_records,
                1, // input partitions
                rate,
            )?);
        }
        cells.push(LatencyCell { setup, trials });
    }
    Ok(LatencyReport {
        query: config.query,
        records_per_trial: config.records,
        warmup_records: config.warmup_records,
        p99_bound_micros: P99_BOUND_MICROS,
        catchup_ratio: CATCHUP_RATIO,
        cells,
    })
}

/// One trial: fresh broker, `records` offered open-loop at `rate` into
/// an input topic of `partitions` partitions (more than one key-hash
/// routes them and lets the engine's consumer group split the
/// partitions among its parallel sources), follow-mode engine, sink-side
/// latency measurement past the first `warmup_records`. `pub(crate)` so
/// the scale-out sweep ([`crate::scaleout`]) can binary-search over the
/// same classifier.
pub(crate) fn run_trial(
    setup: Setup,
    query: Query,
    records: u64,
    warmup_records: u64,
    partitions: u32,
    rate: f64,
) -> Result<LatencyTrial, BenchError> {
    let mut trial_span = obs::span("latency.trial");
    trial_span.field("setup", setup.to_string());
    trial_span.field("rate", format!("{rate}"));
    let engine_config = BenchConfig::default();
    let broker = Broker::new();
    broker.set_request_latency_micros(engine_config.request_latency_micros);
    let trial = Trial::offered(&broker, records, engine_config.seed, partitions, rate);
    let outcome = trial.run(
        setup,
        query,
        "output",
        engine_config.dstream_batch_records,
        |engine| engine(),
    )?;
    let schedule = trial.schedule().expect("an offered trial has a schedule");

    // Latency per output record: sink observation (LogAppendTime) minus
    // the event time carried in the payload prefix. The local histogram
    // is the measurement; the global instrument is optional telemetry
    // behind the runtime gate.
    let histogram = obs::Histogram::new();
    let global = if obs::enabled() {
        Some(obs::histogram("latency.e2e_micros"))
    } else {
        None
    };
    let warmup_cutoff = schedule.event_time_micros(warmup_records.min(records));
    let mut first_out = i64::MAX;
    let mut last_out = i64::MIN;
    for stored in &outcome.outputs {
        let out_micros = stored.timestamp.as_micros();
        first_out = first_out.min(out_micros);
        last_out = last_out.max(out_micros);
        let Some(event) = parse_event_time_micros(&stored.record.value) else {
            continue;
        };
        if event < warmup_cutoff {
            continue;
        }
        let latency = (out_micros - event).max(0) as u64;
        histogram.record(latency);
        if let Some(h) = &global {
            h.record(latency);
        }
    }
    let snapshot = histogram.snapshot();

    let offered_span = (schedule.event_time_micros(records.saturating_sub(1))
        - schedule.start_micros())
    .max(1) as f64;
    let drain_ratio = if outcome.outputs.len() >= 2 {
        (last_out - first_out).max(0) as f64 / offered_span
    } else {
        0.0
    };
    let output_ok =
        outcome.engine.is_ok() && trial::verify(&trial, setup, query, &outcome.outputs).is_ok();
    let sustainable = output_ok
        && snapshot.count > 0
        && snapshot.p99() <= P99_BOUND_MICROS
        && drain_ratio <= CATCHUP_RATIO;

    Ok(LatencyTrial {
        offered_rate: rate,
        output_records: outcome.outputs.len() as u64,
        measured: snapshot.count,
        p50_micros: snapshot.p50(),
        p95_micros: snapshot.p95(),
        p99_micros: snapshot.p99(),
        p999_micros: snapshot.p999(),
        max_micros: snapshot.max,
        mean_micros: snapshot.mean(),
        drain_ratio,
        max_send_lag_micros: outcome
            .send_report
            .map_or(0, |report| report.max_send_lag_micros),
        output_ok,
        sustainable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{Api, System};

    fn trial(rate: f64, sustainable: bool) -> LatencyTrial {
        LatencyTrial {
            offered_rate: rate,
            output_records: 10,
            measured: 10,
            p50_micros: 100,
            p95_micros: 200,
            p99_micros: 300,
            p999_micros: 400,
            max_micros: 500,
            mean_micros: 150.0,
            drain_ratio: 1.0,
            max_send_lag_micros: 42,
            output_ok: true,
            sustainable,
        }
    }

    #[test]
    fn highest_sustainable_picks_the_top_rate() {
        let cell = LatencyCell {
            setup: Setup {
                system: System::Rill,
                api: Api::Native,
                parallelism: 1,
            },
            trials: vec![
                trial(500.0, true),
                trial(2_000.0, true),
                trial(8_000.0, false),
            ],
        };
        assert_eq!(
            cell.highest_sustainable().map(|t| t.offered_rate),
            Some(2_000.0)
        );
        let overloaded = LatencyCell {
            trials: vec![trial(500.0, false)],
            ..cell
        };
        assert!(overloaded.highest_sustainable().is_none());
    }

    #[test]
    fn json_schema_has_percentiles_and_boolean_flag() {
        let report = LatencyReport {
            query: Query::Identity,
            records_per_trial: 100,
            warmup_records: 10,
            p99_bound_micros: 200_000,
            catchup_ratio: 1.5,
            cells: vec![LatencyCell {
                setup: Setup {
                    system: System::Apx,
                    api: Api::Beam,
                    parallelism: 2,
                },
                trials: vec![trial(500.0, true), trial(8_000.0, false)],
            }],
        };
        let json = report.to_json();
        for key in [
            "\"query\":\"identity\"",
            "\"system\":\"apx\"",
            "\"sdk\":\"beam\"",
            "\"parallelism\":2",
            "\"highest_sustainable_rate\":500",
            "\"p50_micros\":100",
            "\"p95_micros\":200",
            "\"p99_micros\":300",
            "\"p999_micros\":400",
            "\"sustainable\":true",
            "\"sustainable\":false",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn env_overrides_apply() {
        std::env::set_var("STREAMBENCH_LATENCY_RECORDS", "123");
        std::env::set_var("STREAMBENCH_LATENCY_RATES", "100,400");
        std::env::set_var("STREAMBENCH_LATENCY_PARALLELISMS", "1");
        let config = LatencyConfig::from_env();
        assert_eq!(config.records, 123);
        assert_eq!(config.rates, vec![100.0, 400.0]);
        assert_eq!(config.parallelisms, vec![1]);
        std::env::remove_var("STREAMBENCH_LATENCY_RECORDS");
        std::env::remove_var("STREAMBENCH_LATENCY_RATES");
        std::env::remove_var("STREAMBENCH_LATENCY_PARALLELISMS");
    }

    #[test]
    fn empty_rates_is_an_error() {
        let config = LatencyConfig::default().rates(vec![]);
        assert!(run_latency(&config).is_err());
        let config = LatencyConfig::default().rates(vec![f64::NAN, -5.0]);
        assert!(run_latency(&config).is_err());
    }

    #[test]
    fn latency_sweep_smoke() {
        // A tiny end-to-end sweep: all six cells at one comfortable
        // rate. Asserts structure and measurement sanity, not the
        // (machine-dependent) sustainability verdicts.
        let config = LatencyConfig::default()
            .records(240)
            .warmup_records(40)
            .rates(vec![4_000.0])
            .parallelisms(vec![1]);
        let report = run_latency(&config).unwrap();
        assert_eq!(report.cells.len(), 6);
        for cell in &report.cells {
            assert_eq!(cell.trials.len(), 1, "{}", cell.setup);
            let t = &cell.trials[0];
            assert!(t.output_ok, "{}: {t:?}", cell.setup);
            assert_eq!(t.output_records, 240, "{}", cell.setup);
            assert!(t.measured > 0, "{}", cell.setup);
            assert!(
                t.p50_micros <= t.p95_micros
                    && t.p95_micros <= t.p99_micros
                    && t.p99_micros <= t.p999_micros
                    && t.p999_micros <= t.max_micros,
                "{}: {t:?}",
                cell.setup
            );
            assert!(t.max_send_lag_micros >= 0, "{}", cell.setup);
        }
    }

    #[test]
    fn grep_trial_measures_sparse_outputs() {
        // Grep keeps ~0.3 % of records: the latency path must survive
        // near-empty output topics.
        let config = LatencyConfig::default()
            .records(400)
            .warmup_records(0)
            .rates(vec![8_000.0])
            .parallelisms(vec![1])
            .query(Query::Grep);
        let report = run_latency(&config).unwrap();
        let cell = report
            .cells
            .iter()
            .find(|c| c.setup.system == System::Rill && c.setup.api == Api::Native)
            .unwrap();
        let t = &cell.trials[0];
        assert!(t.output_ok, "{t:?}");
        assert_eq!(
            t.output_records,
            crate::data::expected_grep_hits(400),
            "{t:?}"
        );
        assert_eq!(t.measured, t.output_records);
    }
}
