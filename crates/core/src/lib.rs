//! `streambench-core` — the benchmark architecture of *Quantitative
//! Impact Evaluation of an Abstraction Layer for Data Stream Processing
//! Systems* (Hesse et al., ICDCS 2019), reproduced end to end in Rust.
//!
//! The benchmark quantifies what the abstraction layer
//! ([`beamline`], the Apache Beam analog) costs on three stream
//! processing engines ([`rill`]/Flink, [`dstream`]/Spark Streaming,
//! [`apx`]/Apex). Its architecture (paper Fig. 5) has three phases:
//!
//! 1. **Data ingestion** — a [data sender](sender) loads a synthetic
//!    AOL-shaped [query log](data) into a single-partition
//!    [`logbus`] topic.
//! 2. **Program execution** — each of the four stateless StreamBench
//!    [queries](queries) runs in every [setup](setup) of the
//!    3 systems × {native, Beam} × parallelism matrix, reading from and
//!    writing to the broker.
//! 3. **Result calculation** — the [calculator] derives execution time
//!    purely from the output topic's `LogAppendTime` stamps, keeping the
//!    measurement system-independent.
//!
//! The [runner] orchestrates campaigns; [report] aggregates measurements
//! into the paper's figures (6–11) and tables (I–III); [stats] holds the
//! paper's exact formulas.
//!
//! # Example
//!
//! ```
//! use streambench_core::{BenchConfig, BenchmarkRunner, Query};
//!
//! # fn main() -> Result<(), streambench_core::BenchError> {
//! let config = BenchConfig::quick().records(300).runs(1).parallelisms(vec![1]);
//! let measurements = BenchmarkRunner::new(config).run_query(Query::Grep)?;
//! assert_eq!(measurements.len(), 6); // 3 systems × 2 APIs
//! # Ok(())
//! # }
//! ```

pub mod calculator;
pub mod config;
pub mod data;
pub mod failover;
pub mod latency;
pub mod queries;
pub mod report;
pub mod runner;
pub mod sender;
pub mod setup;
pub mod stateful;
pub mod stats;
pub mod systems;
pub mod trial;

pub use calculator::{measure, CalculatorError, QueryMeasurement};
pub use config::BenchConfig;
pub use data::{QueryLogGenerator, QueryLogRecord};
pub use failover::{percentile_micros, run_failover, FailoverCell, FailoverConfig, FailoverReport};
pub use latency::{run_latency, LatencyCell, LatencyConfig, LatencyReport, LatencyTrial};
pub use queries::{beam_pipeline, native_apx, native_dstream, native_rill, Query};
pub use runner::{
    fresh_yarn_cluster, fresh_yarn_cluster_for, BenchError, BenchmarkRunner, Measurement,
    QueryReport, RunIncident,
};
pub use sender::{
    parse_event_time_micros, send_open_loop, send_workload, OpenLoopSchedule, OpenLoopSendReport,
    SendReport, SenderConfig,
};
pub use setup::{all_setups, Api, Setup, System};
pub use systems::{profile, system_profiles, SystemProfile};
