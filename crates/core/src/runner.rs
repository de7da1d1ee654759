//! The benchmark orchestrator: runs the three-phase process of
//! paper §III-A over the full setup matrix.

use crate::calculator;
use crate::config::BenchConfig;
use crate::queries::Query;
use crate::setup::{all_setups, Setup};
use crate::trial::{self, Trial};
use logbus::Broker;
use std::fmt;

/// One completed benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The executed setup.
    pub setup: Setup,
    /// The executed query.
    pub query: Query,
    /// Zero-based run index.
    pub run: u32,
    /// Execution time from the output topic's `LogAppendTime` span, in
    /// seconds.
    pub execution_seconds: f64,
    /// Records in the output topic.
    pub output_records: u64,
    /// Attempts it took to obtain this measurement (1 = clean run;
    /// more means earlier attempts failed and were retried).
    pub attempts: u32,
}

/// A run that needed retries or was abandoned: the campaign's
/// outlier-with-cause record. Abandoned runs (`recovered == false`)
/// have no [`Measurement`] and are excluded from figures; the incident
/// is the report's explanation of the gap.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "an incident is the only surviving record of a degraded run; log or report it"]
pub struct RunIncident {
    /// The affected setup.
    pub setup: Setup,
    /// The affected query.
    pub query: Query,
    /// Zero-based run index.
    pub run: u32,
    /// Attempts executed, including the final one.
    pub attempts: u32,
    /// The last failure observed.
    pub error: String,
    /// Whether a later attempt produced a valid measurement.
    pub recovered: bool,
}

/// Measurements plus the incident log of a benchmark campaign.
#[derive(Debug, Clone, Default, PartialEq)]
#[must_use = "a report holds the campaign's measurements and incidents; dropping it loses both"]
pub struct QueryReport {
    /// Successful measurements, one per recovered-or-clean run.
    pub measurements: Vec<Measurement>,
    /// Runs that were retried or abandoned.
    pub incidents: Vec<RunIncident>,
}

/// Errors raised by the orchestrator.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// Broker-side failure.
    Broker(String),
    /// Engine or runner failure.
    Execution {
        /// The failing setup.
        setup: String,
        /// The failure.
        message: String,
    },
    /// Result calculation failure.
    Calculator(String),
    /// The produced output is not the reference output
    /// ([`trial::verify`]) — measurements of broken runs are worthless.
    WrongOutput {
        /// The failing setup.
        setup: String,
        /// Expected record count.
        expected: u64,
        /// Actual record count.
        actual: u64,
        /// First output offset that departs from the reference.
        first_difference: u64,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Broker(msg) => write!(f, "broker failure: {msg}"),
            BenchError::Execution { setup, message } => {
                write!(f, "execution of {setup} failed: {message}")
            }
            BenchError::Calculator(msg) => write!(f, "result calculation failed: {msg}"),
            BenchError::WrongOutput {
                setup,
                expected,
                actual,
                first_difference,
            } => write!(
                f,
                "{setup} produced {actual} output records, expected {expected}; \
                 first difference at offset {first_difference}"
            ),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<logbus::Error> for BenchError {
    fn from(e: logbus::Error) -> Self {
        BenchError::Broker(e.to_string())
    }
}

/// Runs benchmark campaigns.
#[derive(Debug, Clone)]
pub struct BenchmarkRunner {
    config: BenchConfig,
}

impl BenchmarkRunner {
    /// Creates a runner from a configuration.
    pub fn new(config: BenchConfig) -> Self {
        BenchmarkRunner { config }
    }

    /// The configuration.
    pub fn config(&self) -> &BenchConfig {
        &self.config
    }

    /// Benchmarks one query over the full setup matrix, `runs` times
    /// each: phase 1 loads the input topic once, phase 2 executes each
    /// setup against a fresh output topic (each run gets fresh engine
    /// instances — the paper restarts the systems per step), and phase 3
    /// computes the execution time from output-topic timestamps.
    ///
    /// Returns the measurements only; use
    /// [`BenchmarkRunner::run_query_report`] for the incident log.
    ///
    /// # Errors
    ///
    /// Fails on broker errors during load; a run that keeps failing
    /// after its retry budget becomes an incident, not an error.
    pub fn run_query(&self, query: Query) -> Result<Vec<Measurement>, BenchError> {
        self.run_query_report(query).map(|r| r.measurements)
    }

    /// [`BenchmarkRunner::run_query`] with the incident log attached.
    ///
    /// A failed run (engine error, broken measurement, or wrong output)
    /// is retried up to `1 + max_run_retries` attempts, each against a
    /// fresh output topic. A run that recovers is measured normally and
    /// logged as a recovered incident; a run that exhausts its budget is
    /// dropped from the measurements and logged as an abandoned
    /// incident — the campaign itself keeps going. When
    /// `config.fault_seed` is set, a seeded broker fault plan is
    /// installed for each processing phase (and removed before
    /// measuring), so load and measurement stay fault-free.
    ///
    /// # Errors
    ///
    /// Fails only on broker errors outside the processing phase
    /// (topic creation, workload load).
    pub fn run_query_report(&self, query: Query) -> Result<QueryReport, BenchError> {
        let mut query_span = obs::span("query");
        query_span.field("query", query.to_string());
        let broker = Broker::new();
        broker.set_request_latency_micros(self.config.request_latency_micros);
        // Replication factor one, one partition: paper §III-A1.
        let trial = Trial::on_broker(&broker, self.config.records, self.config.seed);
        trial.preload(self.config.sender_acks)?;

        // What happens beside each attempt's engine: the seeded fault
        // plan, gone again before the output is drained and measured.
        let fault_seed = self.config.fault_seed;
        let mut disturb = |attempt: u32, _output: &str, engine: Engine<'_>| {
            let Some(seed) = fault_seed else {
                return engine();
            };
            // A distinct per-attempt stream keeps retries from replaying
            // the exact fault schedule that failed.
            broker.install_fault_plan(logbus::FaultPlan::seeded(
                seed.wrapping_add(u64::from(attempt) - 1),
            ));
            let result = engine();
            broker.clear_fault_plan();
            result
        };
        let mut report = QueryReport::default();
        for setup in all_setups(&self.config.parallelisms) {
            for run in 0..self.config.runs {
                let (measurement, incident) =
                    self.run_once(&broker, &trial, query, setup, run, &mut disturb)?;
                report.measurements.extend(measurement);
                report.incidents.extend(incident);
            }
        }
        Ok(report)
    }

    /// One (setup, run) cell: attempts until measured or out of budget.
    /// `disturb` is called with the attempt number, the attempt's output
    /// topic and the engine, and runs the engine. Returns the
    /// measurement (unless abandoned) and the incident (unless clean).
    fn run_once(
        &self,
        broker: &Broker,
        trial: &Trial,
        query: Query,
        setup: Setup,
        run: u32,
        disturb: &mut dyn FnMut(u32, &str, Engine<'_>) -> Result<(), BenchError>,
    ) -> Result<(Option<Measurement>, Option<RunIncident>), BenchError> {
        let max_attempts = self.config.max_run_retries.saturating_add(1);
        let mut attempts = 0u32;
        let mut last_error: Option<BenchError> = None;
        while attempts < max_attempts {
            attempts += 1;
            // Fresh output topic per attempt: a failed attempt's partial
            // output can never leak into the measured one.
            let output_topic = if attempts == 1 {
                format!("output-{setup}-r{run}")
            } else {
                format!("output-{setup}-r{run}-a{attempts}")
            };
            let outcome = trial.run(
                setup,
                query,
                &output_topic,
                self.config.dstream_batch_records,
                |engine| disturb(attempts, &output_topic, engine),
            )?;
            let measured = outcome
                .engine
                .and_then(|()| {
                    calculator::measure(broker, &output_topic)
                        .map_err(|e| BenchError::Calculator(format!("{setup}: {e}")))
                })
                .and_then(|m| trial::verify(trial, setup, query, &outcome.outputs).map(|()| m));
            match measured {
                Ok(measurement) => {
                    let incident = last_error.map(|e| RunIncident {
                        setup,
                        query,
                        run,
                        attempts,
                        error: e.to_string(),
                        recovered: true,
                    });
                    let measurement = Measurement {
                        setup,
                        query,
                        run,
                        execution_seconds: measurement.execution_seconds,
                        output_records: measurement.output_records,
                        attempts,
                    };
                    return Ok((Some(measurement), incident));
                }
                Err(e) => last_error = Some(e),
            }
        }
        let abandoned = RunIncident {
            setup,
            query,
            run,
            attempts,
            error: last_error.map_or_else(|| "unknown failure".to_string(), |e| e.to_string()),
            recovered: false,
        };
        Ok((None, Some(abandoned)))
    }
}

/// The engine of one attempt, as handed to a disturbance.
type Engine<'a> = &'a dyn Fn() -> Result<(), BenchError>;

/// A fresh two-worker YARN-style cluster, matching the paper's two
/// worker nodes.
pub fn fresh_yarn_cluster() -> yarnsim::ResourceManager {
    fresh_yarn_cluster_for(1)
}

/// A fresh YARN-style cluster sized for `parallelism` engine workers:
/// the paper's two worker nodes, plus one more per eight additional
/// containers so a setup of any parallelism gets its vcores.
pub fn fresh_yarn_cluster_for(parallelism: usize) -> yarnsim::ResourceManager {
    let nodes = 2.max(parallelism.div_ceil(8));
    let mut rm = yarnsim::ResourceManager::new();
    for _ in 0..nodes {
        rm.register_node(yarnsim::Resource::new(64 * 1024, 32));
    }
    rm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_benchmark_identity_single_setup() {
        let config = BenchConfig::quick()
            .records(300)
            .runs(1)
            .parallelisms(vec![1]);
        let runner = BenchmarkRunner::new(config);
        let measurements = runner.run_query(Query::Grep).unwrap();
        // 3 systems × 2 APIs × 1 parallelism × 1 run.
        assert_eq!(measurements.len(), 6);
        for m in &measurements {
            assert_eq!(m.query, Query::Grep);
            assert_eq!(m.output_records, crate::data::expected_grep_hits(300));
            assert!(m.execution_seconds >= 0.0);
        }
    }

    #[test]
    fn faulted_campaign_still_produces_correct_output() {
        let config = BenchConfig::quick()
            .records(300)
            .runs(1)
            .parallelisms(vec![1])
            .with_fault_seed(2019);
        let runner = BenchmarkRunner::new(config);
        let report = runner.run_query_report(Query::Grep).unwrap();
        // Every setup still yields its measurement: the engines ride
        // through the injected faults, and any run that does fail gets
        // retried rather than aborting the campaign.
        assert_eq!(
            report.measurements.len() + report.incidents.iter().filter(|i| !i.recovered).count(),
            6
        );
        for m in &report.measurements {
            assert_eq!(m.output_records, crate::data::expected_grep_hits(300));
            assert!(m.attempts >= 1);
        }
        for incident in &report.incidents {
            assert!(incident.attempts >= 2, "{incident:?}");
        }
    }

    /// Sample has no expected count, so only a byte comparison can tell
    /// a tampered output from a good one: an attempt whose output topic
    /// gained a record, and one whose output has the right count but one
    /// altered record, are both retried; the third attempt is measured.
    #[test]
    fn tampered_sample_output_is_a_retried_incident_not_a_measurement() {
        use crate::data::QueryLogGenerator;
        use logbus::Record;

        let config = BenchConfig::quick().records(200);
        let broker = Broker::new();
        let trial = Trial::on_broker(&broker, config.records, config.seed);
        trial.preload(config.sender_acks).unwrap();
        let setup = all_setups(&[1])[0];
        let mut tamper = |attempt: u32, output: &str, engine: Engine<'_>| match attempt {
            1 => {
                engine()?;
                let writer = broker.partition_writer(output, 0)?;
                writer.produce(Record::from_value("extra"))?;
                Ok(())
            }
            2 => {
                let mut outputs: Vec<Record> = QueryLogGenerator::new(config.seed)
                    .payloads(config.records)
                    .iter()
                    .filter_map(|p| Query::Sample.apply(p))
                    .map(Record::from_value)
                    .collect();
                outputs[5] = Record::from_value("altered");
                broker.partition_writer(output, 0)?.produce_batch(outputs)?;
                Ok(())
            }
            _ => engine(),
        };
        let (measurement, incident) = BenchmarkRunner::new(config.clone())
            .run_once(&broker, &trial, Query::Sample, setup, 0, &mut tamper)
            .unwrap();
        assert_eq!(measurement.unwrap().attempts, 3);
        let incident = incident.unwrap();
        assert!(incident.recovered);
        assert_eq!(incident.attempts, 3);
        assert!(
            incident.error.contains("first difference at offset 5"),
            "{}",
            incident.error
        );
    }

    #[test]
    fn sample_outputs_match_across_apis() {
        let config = BenchConfig::quick()
            .records(400)
            .runs(1)
            .parallelisms(vec![1]);
        let runner = BenchmarkRunner::new(config);
        let measurements = runner.run_query(Query::Sample).unwrap();
        let counts: std::collections::HashSet<u64> =
            measurements.iter().map(|m| m.output_records).collect();
        assert_eq!(
            counts.len(),
            1,
            "all setups sample the same records: {measurements:?}"
        );
    }
}
