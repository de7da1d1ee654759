//! The system under test as the harness sees it: a bus topology
//! ([`Fleet`]) and the six (engine, SDK) cells, each started through the
//! same public entry points `reproduce` uses. All cells run at
//! parallelism 1 — on a 2-vCPU host P ≥ 2 measures the scheduler.

use beamline::runners::{ApxRunner, DStreamRunner, RillRunner};
use beamline::PipelineRunner;
use logbus::{Broker, Bus, BusHandle, Cluster, ClusterConfig, TopicConfig};
use streambench_core::{queries, BenchConfig, Query};

/// Which bus a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusKind {
    /// One `Broker`, topics at replication factor 1.
    Broker,
    /// A `Cluster` of three, topics at replication factor 3, `Acks::All`.
    Cluster,
}

/// A live bus of one [`BusKind`].
#[derive(Debug, Clone)]
pub enum Fleet {
    Broker(Broker),
    Cluster(Cluster),
}

impl Fleet {
    /// A fresh, empty bus charging `rtt_micros` per request.
    pub fn new(kind: BusKind, rtt_micros: u64) -> Fleet {
        let fleet = match kind {
            BusKind::Broker => Fleet::Broker(Broker::new()),
            BusKind::Cluster => Fleet::Cluster(Cluster::new(ClusterConfig { brokers: 3 })),
        };
        fleet.set_rtt_micros(rtt_micros);
        fleet
    }

    pub fn kind(&self) -> BusKind {
        match self {
            Fleet::Broker(_) => BusKind::Broker,
            Fleet::Cluster(_) => BusKind::Cluster,
        }
    }

    /// Sets the modeled network round trip on every broker of the bus.
    pub fn set_rtt_micros(&self, micros: u64) {
        match self {
            Fleet::Broker(b) => b.set_request_latency_micros(micros),
            Fleet::Cluster(c) => {
                for i in 0..c.broker_count() as usize {
                    c.broker(i).set_request_latency_micros(micros);
                }
            }
        }
    }

    pub fn handle(&self) -> BusHandle {
        match self {
            Fleet::Broker(b) => b.into(),
            Fleet::Cluster(c) => c.into(),
        }
    }

    /// Creates a single-partition topic replicated over the whole bus.
    pub fn create_topic(&self, name: &str) -> logbus::Result<()> {
        let rf = match self {
            Fleet::Broker(_) => 1,
            Fleet::Cluster(c) => c.broker_count(),
        };
        self.handle()
            .create_topic(name, TopicConfig::default().replication_factor(rf))
    }

    /// Frees a verified trial's output, so trial 25 sees the heap trial
    /// 1 saw. A `Cluster` has no delete of its own; dropping the topic
    /// on each of its brokers releases the records and leaves behind
    /// only the partition's route entry, which nothing looks up again
    /// (output topic names are never reused).
    pub fn delete_topic(&self, name: &str) {
        // A topic that failed to appear leaves nothing to delete.
        match self {
            Fleet::Broker(b) => drop(b.delete_topic(name)),
            Fleet::Cluster(c) => {
                for i in 0..c.broker_count() as usize {
                    drop(c.broker(i).delete_topic(name));
                }
            }
        }
    }
}

/// The engine behind a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Rill,
    Dstream,
    Apx,
}

impl System {
    pub const ALL: [System; 3] = [System::Rill, System::Dstream, System::Apx];

    pub fn name(self) -> &'static str {
        match self {
            System::Rill => "rill",
            System::Dstream => "dstream",
            System::Apx => "apx",
        }
    }
}

/// One (engine, SDK) cell of the paper's matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    pub system: System,
    pub beam: bool,
}

/// All six cells in report order; `Cell::index` is the position here.
pub const CELLS: [Cell; 6] = [
    Cell::new(System::Rill, false),
    Cell::new(System::Rill, true),
    Cell::new(System::Dstream, false),
    Cell::new(System::Dstream, true),
    Cell::new(System::Apx, false),
    Cell::new(System::Apx, true),
];

impl Cell {
    const fn new(system: System, beam: bool) -> Cell {
        Cell { system, beam }
    }

    pub fn index(self) -> usize {
        self.system as usize * 2 + usize::from(self.beam)
    }

    /// `rill.native`, `apx.beam`, ...
    pub fn name(self) -> String {
        let sdk = if self.beam { "beam" } else { "native" };
        format!("{}.{sdk}", self.system.name())
    }

    /// Runs `query` from `input` to `output` on this cell with
    /// `BenchConfig::default()`'s engine settings: a bounded job over
    /// what `input` holds, or, with `follow`, tailing `input` until that
    /// many records were consumed.
    pub fn run(
        self,
        bus: &BusHandle,
        query: Query,
        input: &str,
        output: &str,
        follow: Option<u64>,
    ) -> Result<(), String> {
        let engine = BenchConfig::default();
        if self.beam {
            let pipeline = match follow {
                None => queries::beam_pipeline(bus, query, input, output),
                Some(n) => queries::beam_pipeline_following(bus, query, input, output, n),
            };
            let runner: Box<dyn PipelineRunner> = match self.system {
                System::Rill => Box::new(RillRunner::new().with_parallelism(1)),
                System::Dstream => Box::new(
                    DStreamRunner::new()
                        .with_parallelism(1)
                        .with_batch_records(engine.dstream_batch_records),
                ),
                System::Apx => Box::new(
                    ApxRunner::new()
                        .with_vcores(1)
                        .with_window_size(engine.apx_window_size),
                ),
            };
            return done(runner.run(&pipeline));
        }
        let batch = engine.dstream_batch_records;
        match (self.system, follow) {
            (System::Rill, None) => done(queries::native_rill(bus, query, input, output, 1)),
            (System::Rill, Some(n)) => done(queries::native_rill_following(
                bus, query, input, output, 1, n,
            )),
            (System::Dstream, None) => {
                done(queries::native_dstream(bus, query, input, output, 1, batch))
            }
            (System::Dstream, Some(n)) => done(queries::native_dstream_following(
                bus, query, input, output, 1, batch, n,
            )),
            (System::Apx, None) => {
                let mut rm = streambench_core::fresh_yarn_cluster();
                done(queries::native_apx(bus, query, input, output, 1, &mut rm))
            }
            (System::Apx, Some(n)) => {
                let mut rm = streambench_core::fresh_yarn_cluster();
                done(queries::native_apx_following(
                    bus, query, input, output, 1, &mut rm, n,
                ))
            }
        }
    }
}

/// An engine's report is not the harness's business: only whether the
/// run succeeded, and the engine's own words if not.
fn done<T, E: std::fmt::Display>(outcome: Result<T, E>) -> Result<(), String> {
    outcome.map(drop).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_index_is_the_report_order() {
        for (i, cell) in CELLS.iter().enumerate() {
            assert_eq!(cell.index(), i, "{}", cell.name());
        }
        assert_eq!(CELLS[3].name(), "dstream.beam");
    }
}
