//! `rill` — a tuple-at-a-time data stream processing engine in the style
//! of Apache Flink.
//!
//! rill is one of the three system-under-test engines of the StreamBench
//! reproduction (paper §II-B). It reproduces the Flink properties the
//! benchmark exercises:
//!
//! * **Tuple-at-a-time processing** — elements flow through operators
//!   individually, not in micro-batches.
//! * **Operator chaining** — consecutive forward-connected operators of
//!   equal parallelism fuse into a single task: one thread, one inlined
//!   collector stack, no serialization between operators. With chaining
//!   disabled (the chaining ablation), every operator boundary becomes a
//!   forward exchange: subtask `i` hands its elements to subtask `i` of
//!   the next task over a bounded channel.
//! * **JobManager / TaskManager runtime** — jobs are scheduled into task
//!   slots; subtasks of one job share slots, so a job needs as many slots
//!   as its maximum operator parallelism (Fig. 1 of the paper).
//! * **Execution plans** — [`StreamExecutionEnvironment::execution_plan`]
//!   extracts the Fig. 12/13 view used to compare native and
//!   abstraction-layer programs.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use rill::{StreamExecutionEnvironment, VecSink, VecSource};
//!
//! let env = StreamExecutionEnvironment::local();
//! let sink = VecSink::new();
//! env.add_source(VecSource::new(vec!["error: disk", "ok", "error: net"]))
//!     .filter(|line: &&str| line.starts_with("error"))
//!     .map(|line| line.to_uppercase())
//!     .add_sink(sink.clone());
//! env.execute("grep-errors")?;
//! assert_eq!(sink.snapshot().len(), 2);
//! # Ok(())
//! # }
//! ```

mod datastream;
mod error;
mod graph;
pub mod operator;
mod plan;
mod runtime;
mod sink;
mod source;

pub use datastream::{DataStream, StreamExecutionEnvironment};
pub use error::{Error, Result};
pub use graph::{NodeId, NodeKind, StreamEdge, StreamGraph, StreamNode};
pub use operator::Collector;
pub use plan::{ExecutionPlan, PlanEdge, PlanNode};
pub use runtime::{ClusterSpec, JobManager, JobResult, SlotAssignment, TaskSpec};
pub use sink::{BrokerSink, ParallelSink, SinkCollector, SinkFunction, VecSink};
pub use source::{BrokerSource, ParallelSource, SourceFunction, VecSource};
