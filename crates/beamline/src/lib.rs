//! `beamline` — a unified programming model for batch and stream
//! processing with pluggable engine runners, in the style of Apache Beam.
//!
//! This is the *abstraction layer* whose performance impact the
//! StreamBench reproduction measures (Hesse et al., ICDCS 2019). A
//! [`Pipeline`] is described once against the beamline SDK —
//! [`PCollection`]s transformed by element-wise `PTransform`s such as
//! [`ParDo`], [`MapElements`] and [`Filter`] — and can then be executed
//! unchanged by any supported engine through a [`PipelineRunner`]:
//!
//! * [`runners::DirectRunner`] — in-memory reference execution,
//! * [`runners::RillRunner`] — the Flink-analog engine,
//! * [`runners::DStreamRunner`] — the Spark-Streaming-analog engine,
//! * [`runners::ApxRunner`] — the Apex-analog engine.
//!
//! The flexibility has a structural price, faithfully reproduced here:
//! elements cross every translated stage as coder-serialized
//! [`WindowedValue`]s, translated plans contain more operators than
//! native programs (paper Figs. 12–13), and runner maturity varies — see
//! the module docs of [`runners`] for how each runner bundles and
//! translates.
//!
//! The transforms are the stateless ones the paper's four queries use
//! (§III-B); there is no grouping, combining or windowing transform.
//!
//! # Example
//!
//! ```
//! use beamline::{Create, Filter, Pipeline, PipelineRunner, runners::DirectRunner};
//!
//! # fn main() -> beamline::Result<()> {
//! let pipeline = Pipeline::new();
//! let hits = pipeline
//!     .apply(Create::strings(vec!["a test".into(), "nope".into()]))
//!     .apply(Filter::new("Grep", |s: &String| s.contains("test")));
//! let result = DirectRunner::new().run(&pipeline)?;
//! assert_eq!(result.collect_of(&hits)?, vec!["a test".to_string()]);
//! # Ok(())
//! # }
//! ```

mod arena;
pub mod coder;
mod element;
mod error;
pub mod graph;
mod io;
mod pardo;
mod pipeline;
pub mod runners;
pub mod transforms;

pub use coder::{
    BytesCoder, Coder, CoderError, KvCoder, StrUtf8Coder, VarIntCoder, WindowedValueCoder,
};
pub use element::{Instant, Kv, PaneInfo, PaneTiming, WindowRef, WindowedValue};
pub use error::{Error, Result};
pub use io::{
    BrokerIO, BrokerRead, BrokerWrite, KafkaRecord, KafkaRecordCoder, UnitCoder, WithoutMetadata,
};
pub use pardo::{DoFn, FnDoFn, ParDo, ProcessContext, RAW_PAR_DO};
pub use pipeline::{PCollection, PTransform, Pipeline, RootTransform};
pub use runners::{EngineReport, PipelineResult, PipelineRunner};
pub use transforms::{Create, Filter, MapElements, Values};
