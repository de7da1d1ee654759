//! One trial: the paper's three-phase process (Fig. 5) spelled once.
//!
//! Both campaigns in this crate — the figure [runner](crate::runner) and
//! the [latency](crate::latency) sweep — and the equivalence suites run
//! a setup the same way: create the topics, load the input, [`execute`]
//! the setup (with whatever the caller wants to happen beside it — a
//! fault plan, a thread killing leaders), drain the output topic, and
//! [`verify`] the drained bytes against [`Query::apply`]. This module is
//! the only place that knows how; the callers add policy on top (retry
//! budgets, rate sweeps, kill schedules) and nothing underneath.

use crate::config::BenchConfig;
use crate::data::QueryLogGenerator;
use crate::queries::{self, Query};
use crate::runner::{fresh_yarn_cluster_for, BenchError};
use crate::sender::{
    send_open_loop, send_workload, OpenLoopSchedule, OpenLoopSendReport, SenderConfig,
};
use crate::setup::{Api, Setup, System};
use beamline::runners::{ApxRunner, DStreamRunner, RillRunner};
use beamline::PipelineRunner;
use logbus::{Acks, Broker, BusHandle, Cluster, StoredRecord, TopicConfig};
use std::collections::HashMap;

/// The input topic every [`Trial`] loads and runs from.
const INPUT: &str = "input";
/// Records per fetch while draining an output topic.
const DRAIN_CHUNK: usize = 4_096;
/// Head start an open-loop schedule gives the engine to begin tailing
/// before the first record is due.
const SCHEDULE_LEAD_MICROS: i64 = 5_000;

/// What to run: the query, where it reads and writes, and the two
/// settings campaigns legitimately differ in.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// The query.
    pub query: Query,
    /// Topic the engine reads.
    pub input: &'a str,
    /// Topic the engine writes (single partition).
    pub output: &'a str,
    /// `None` runs a bounded job over what `input` holds; `Some(n)`
    /// tails `input` until `n` records were consumed.
    pub follow: Option<u64>,
    /// Micro-batch size of the `dstream` engine (2 000 in the figure
    /// campaign; the equivalence suites use smaller batches so faults
    /// and kills land between them).
    pub dstream_batch_records: usize,
}

/// Runs `job` on `setup`: the single (system, API) dispatch of the
/// workspace. `rill` is sized with [`rill::ClusterSpec::local_for`] and
/// `apx` with [`fresh_yarn_cluster_for`] the setup's parallelism; every
/// other engine setting is [`BenchConfig::default`]'s.
///
/// # Errors
///
/// [`BenchError::Execution`] carrying the engine's own words.
pub fn execute(bus: &BusHandle, setup: Setup, job: &Job<'_>) -> Result<(), BenchError> {
    let Job {
        query,
        input,
        output,
        follow,
        dstream_batch_records: batch,
    } = *job;
    let p = setup.parallelism;
    match (setup.system, setup.api) {
        (System::Rill, Api::Native) => match follow {
            None => done(setup, queries::native_rill(bus, query, input, output, p)),
            Some(n) => done(
                setup,
                queries::native_rill_following(bus, query, input, output, p, n),
            ),
        },
        (System::DStream, Api::Native) => match follow {
            None => done(
                setup,
                queries::native_dstream(bus, query, input, output, p, batch),
            ),
            Some(n) => done(
                setup,
                queries::native_dstream_following(bus, query, input, output, p, batch, n),
            ),
        },
        (System::Apx, Api::Native) => {
            let mut rm = fresh_yarn_cluster_for(p);
            let vcores = p as u32;
            match follow {
                None => done(
                    setup,
                    queries::native_apx(bus, query, input, output, vcores, &mut rm),
                ),
                Some(n) => done(
                    setup,
                    queries::native_apx_following(bus, query, input, output, vcores, &mut rm, n),
                ),
            }
        }
        (system, Api::Beam) => {
            let pipeline = match follow {
                None => queries::beam_pipeline(bus, query, input, output),
                Some(n) => queries::beam_pipeline_following(bus, query, input, output, n),
            };
            let runner: Box<dyn PipelineRunner> = match system {
                System::Rill => Box::new(RillRunner::new().with_parallelism(p)),
                System::DStream => Box::new(
                    DStreamRunner::new()
                        .with_parallelism(p)
                        .with_batch_records(batch),
                ),
                System::Apx => Box::new(
                    ApxRunner::new()
                        .with_vcores(p as u32)
                        .with_window_size(BenchConfig::default().apx_window_size),
                ),
            };
            done(setup, runner.run(&pipeline))
        }
    }
}

/// An engine's report is not the harness's business: only whether the
/// run succeeded, and the engine's own words if not.
fn done<T, E: std::fmt::Display>(setup: Setup, outcome: Result<T, E>) -> Result<(), BenchError> {
    outcome.map(drop).map_err(|e| BenchError::Execution {
        setup: setup.to_string(),
        message: e.to_string(),
    })
}

/// A workload on a bus: `records` generated records from `seed`, either
/// preloaded into the `input` topic or offered open-loop beside the
/// engine. One trial can be [run](Trial::run) many times when preloaded
/// (each run gets its own output topic) and once when offered.
#[derive(Debug)]
pub struct Trial {
    bus: BusHandle,
    /// Replication factor of every topic the trial creates: the whole
    /// bus.
    replication: u32,
    records: u64,
    seed: u64,
    /// Open-loop: the broker the sender thread appends to, and the
    /// schedule that fixes every record's event time.
    offered: Option<(Broker, OpenLoopSchedule)>,
}

/// What one [`Trial::run`] left behind.
#[derive(Debug)]
pub struct Outcome {
    /// The output topic, drained in log order.
    pub outputs: Vec<StoredRecord>,
    /// How the engine's run ended. A failed engine is a data point for
    /// the campaign (a retry, an overloaded verdict), not a harness
    /// error.
    pub engine: Result<(), BenchError>,
    /// The open-loop sender's report; `None` for a preloaded trial.
    pub send_report: Option<OpenLoopSendReport>,
}

impl Trial {
    fn new(bus: BusHandle, replication: u32, records: u64, seed: u64) -> Trial {
        Trial {
            bus,
            replication,
            records,
            seed,
            offered: None,
        }
    }

    /// A trial on a single broker (topics at replication factor one).
    /// Nothing is created until [`Trial::preload`].
    pub fn on_broker(broker: &Broker, records: u64, seed: u64) -> Trial {
        Trial::new(broker.into(), 1, records, seed)
    }

    /// A trial on a replicated cluster: every topic is replicated over
    /// all of its brokers.
    pub fn on_cluster(cluster: &Cluster, records: u64, seed: u64) -> Trial {
        Trial::new(cluster.into(), cluster.broker_count(), records, seed)
    }

    /// An open-loop trial: [`Trial::run`] creates a one-partition input
    /// topic and offers the records at `rate` per second on a sender
    /// thread while the engine tails it. The schedule — and with it every
    /// record's event-time stamp — is fixed here.
    pub fn offered(broker: &Broker, records: u64, seed: u64, rate: f64) -> Trial {
        let schedule = OpenLoopSchedule::new(broker.now_micros() + SCHEDULE_LEAD_MICROS, rate);
        Trial {
            offered: Some((broker.clone(), schedule)),
            ..Trial::on_broker(broker, records, seed)
        }
    }

    /// The open-loop schedule, when the trial is offered.
    pub fn schedule(&self) -> Option<&OpenLoopSchedule> {
        self.offered.as_ref().map(|(_, schedule)| schedule)
    }

    fn topic(&self) -> TopicConfig {
        TopicConfig::default().replication_factor(self.replication)
    }

    /// Creates the input topic and loads the whole workload into its
    /// partition 0 (paper §III-A1: one partition, so order is defined).
    ///
    /// # Errors
    ///
    /// Propagates bus errors.
    pub fn preload(&self, acks: Acks) -> Result<(), BenchError> {
        let _send_span = obs::span("send");
        self.bus.create_topic(INPUT, self.topic())?;
        send_workload(
            &self.bus,
            INPUT,
            &SenderConfig {
                records: self.records,
                acks,
                seed: self.seed,
                ..SenderConfig::default()
            },
        )?;
        Ok(())
    }

    /// One run: creates `output`, executes `query` on `setup` from the
    /// input topic, and drains `output`. `around` is handed the engine
    /// and decides what happens beside it — a fault plan installed for
    /// exactly the engine's run, a chaos thread killing brokers under
    /// it; `|engine| engine()` for nothing. Loading and draining are
    /// always outside it.
    ///
    /// # Errors
    ///
    /// Only harness failures: topic creation, the sender thread, the
    /// drain. What `around` returns is [`Outcome::engine`].
    pub fn run(
        &self,
        setup: Setup,
        query: Query,
        output: &str,
        dstream_batch_records: usize,
        around: impl FnOnce(&dyn Fn() -> Result<(), BenchError>) -> Result<(), BenchError>,
    ) -> Result<Outcome, BenchError> {
        self.bus.create_topic(output, self.topic())?;
        let job = Job {
            query,
            input: INPUT,
            output,
            follow: self.offered.as_ref().map(|_| self.records),
            dstream_batch_records,
        };
        let process = || {
            let mut span = obs::span("process");
            span.field("setup", setup.to_string());
            span.field("output", output);
            around(&|| execute(&self.bus, setup, &job))
        };
        let (engine, send_report) = match &self.offered {
            None => (process(), None),
            Some((broker, schedule)) => {
                self.bus.create_topic(INPUT, self.topic())?;
                std::thread::scope(|scope| {
                    let sender = std::thread::Builder::new()
                        .name("open-loop-sender".into())
                        .spawn_scoped(scope, || {
                            send_open_loop(broker, INPUT, schedule, self.records, self.seed)
                        })
                        .map_err(|e| BenchError::Broker(format!("sender thread spawn: {e}")))?;
                    // The engine tails the input until it has consumed
                    // the trial's records.
                    let engine = process();
                    let sent = sender
                        .join()
                        .map_err(|_| BenchError::Broker("open-loop sender panicked".into()))??;
                    Ok::<_, BenchError>((engine, Some(sent)))
                })?
            }
        };
        Ok(Outcome {
            outputs: self.drain(output)?,
            engine,
            send_report,
        })
    }

    /// Reads `topic`'s single partition from the start to its current
    /// end.
    fn drain(&self, topic: &str) -> Result<Vec<StoredRecord>, BenchError> {
        let mut span = obs::span("drain");
        span.field("topic", topic);
        let end = self.bus.latest_offset(topic, 0)?;
        let mut outputs = Vec::with_capacity(end as usize);
        while (outputs.len() as u64) < end {
            let from = outputs.len() as u64;
            if self
                .bus
                .fetch_into(topic, 0, from, DRAIN_CHUNK, &mut outputs)?
                == 0
            {
                break;
            }
        }
        Ok(outputs)
    }
}

/// Checks drained `outputs` against the reference: [`Query::apply`] over
/// the trial's generated payloads (stamped with their scheduled event
/// times when the trial was offered open-loop). With one worker the
/// comparison is order-sensitive; otherwise workers may legally
/// interleave and the outputs are compared as a multiset — nothing
/// dropped, duplicated or altered.
///
/// # Errors
///
/// [`BenchError::WrongOutput`] naming the first output offset that
/// departs from the reference (the output's length when it is a strict
/// prefix of it).
pub fn verify(
    trial: &Trial,
    setup: Setup,
    query: Query,
    outputs: &[StoredRecord],
) -> Result<(), BenchError> {
    let mut generator = QueryLogGenerator::new(trial.seed);
    let reference: Vec<bytes::Bytes> = (0..trial.records)
        .filter_map(|i| {
            query.apply(&match trial.schedule() {
                Some(schedule) => generator.next_stamped_payload(schedule.event_time_micros(i)),
                None => generator.next_payload(),
            })
        })
        .collect();
    let first_difference = if setup.parallelism == 1 {
        outputs
            .iter()
            .zip(&reference)
            .position(|(got, want)| got.record.value != *want)
    } else {
        let mut unmatched: HashMap<&bytes::Bytes, u64> = HashMap::new();
        for want in &reference {
            *unmatched.entry(want).or_default() += 1;
        }
        outputs
            .iter()
            .position(|got| match unmatched.get_mut(&got.record.value) {
                Some(left) if *left > 0 => {
                    *left -= 1;
                    false
                }
                _ => true,
            })
    };
    // No record differs: the shorter of the two is a prefix (or
    // sub-multiset) of the other, and they match when equally long.
    let first_difference = match first_difference {
        None if outputs.len() == reference.len() => return Ok(()),
        None => outputs.len().min(reference.len()),
        Some(offset) => offset,
    };
    Err(BenchError::WrongOutput {
        setup: setup.to_string(),
        expected: reference.len() as u64,
        actual: outputs.len() as u64,
        first_difference: first_difference as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::all_setups;
    use logbus::ClusterConfig;

    const RECORDS: u64 = 300;
    const SEED: u64 = 41;
    const BATCH: usize = 128;

    fn quiet(engine: &dyn Fn() -> Result<(), BenchError>) -> Result<(), BenchError> {
        engine()
    }

    #[test]
    fn execute_runs_every_setup_bounded() {
        let broker = Broker::new();
        let trial = Trial::on_broker(&broker, RECORDS, SEED);
        trial.preload(Acks::Leader).unwrap();
        for setup in all_setups(&[1, 2]) {
            let outcome = trial
                .run(setup, Query::Sample, &format!("out-{setup}"), BATCH, quiet)
                .unwrap();
            outcome.engine.unwrap();
            assert!(outcome.send_report.is_none());
            verify(&trial, setup, Query::Sample, &outcome.outputs).unwrap();
        }
    }

    #[test]
    fn execute_runs_every_setup_following_an_offered_input() {
        for setup in all_setups(&[1, 2]) {
            let broker = Broker::new();
            let trial = Trial::offered(&broker, RECORDS, SEED, 50_000.0);
            let outcome = trial
                .run(setup, Query::Projection, "output", BATCH, quiet)
                .unwrap();
            outcome.engine.unwrap();
            assert_eq!(outcome.send_report.unwrap().sent, RECORDS);
            // Projection keeps exactly the event-time column.
            let first = &outcome.outputs[0].record.value;
            assert!(crate::sender::parse_event_time_micros(first).is_some());
            verify(&trial, setup, Query::Projection, &outcome.outputs).unwrap();
        }
    }

    #[test]
    fn execute_runs_every_setup_on_a_cluster() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        let trial = Trial::on_cluster(&cluster, RECORDS, SEED);
        trial.preload(Acks::All).unwrap();
        for setup in all_setups(&[1, 2]) {
            let outcome = trial
                .run(setup, Query::Grep, &format!("out-{setup}"), BATCH, quiet)
                .unwrap();
            outcome.engine.unwrap();
            verify(&trial, setup, Query::Grep, &outcome.outputs).unwrap();
        }
    }

    fn setup_at(parallelism: usize) -> Setup {
        Setup {
            system: System::Rill,
            api: Api::Native,
            parallelism,
        }
    }

    /// A rill-native identity run's drained output.
    fn identity_outputs(trial: &Trial) -> Vec<StoredRecord> {
        trial.preload(Acks::Leader).unwrap();
        trial
            .run(setup_at(1), Query::Identity, "out", BATCH, quiet)
            .unwrap()
            .outputs
    }

    #[test]
    fn verify_is_order_sensitive_only_at_parallelism_one() {
        let broker = Broker::new();
        let trial = Trial::on_broker(&broker, RECORDS, SEED);
        let mut outputs = identity_outputs(&trial);
        verify(&trial, setup_at(1), Query::Identity, &outputs).unwrap();
        outputs.swap(7, 8);
        let err = verify(&trial, setup_at(1), Query::Identity, &outputs).unwrap_err();
        assert!(
            matches!(
                err,
                BenchError::WrongOutput {
                    first_difference: 7,
                    expected: RECORDS,
                    actual: RECORDS,
                    ..
                }
            ),
            "{err}"
        );
        verify(&trial, setup_at(2), Query::Identity, &outputs).unwrap();
    }

    #[test]
    fn verify_names_the_first_lost_duplicated_or_altered_record() {
        let broker = Broker::new();
        let trial = Trial::on_broker(&broker, RECORDS, SEED);
        let outputs = identity_outputs(&trial);
        let first_difference = |setup: Setup, outputs: &[StoredRecord]| match verify(
            &trial,
            setup,
            Query::Identity,
            outputs,
        ) {
            Err(BenchError::WrongOutput {
                first_difference, ..
            }) => Some(first_difference),
            Err(other) => panic!("{other}"),
            Ok(()) => None,
        };
        for setup in [setup_at(1), setup_at(2)] {
            // Lost tail: the difference is where the output ends.
            assert_eq!(first_difference(setup, &outputs[..250]), Some(250));
            // Duplicate: its second copy has no reference record left.
            let mut duplicated = outputs.clone();
            duplicated.insert(12, outputs[11].clone());
            assert_eq!(first_difference(setup, &duplicated), Some(12));
            // Altered bytes, same count.
            let mut altered = outputs.clone();
            altered[40].record.value = bytes::Bytes::from_static(b"not a query-log record");
            assert_eq!(first_difference(setup, &altered), Some(40));
        }
        assert_eq!(first_difference(setup_at(1), &outputs), None);
    }
}
