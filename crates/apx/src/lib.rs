//! `apx` — a port-based, tuple-at-a-time stream processing engine in the
//! style of Apache Apex, running on a YARN-style resource manager.
//!
//! `apx` is one of the three system-under-test engines of the StreamBench
//! reproduction (paper §II-D). It reproduces the Apex properties the
//! benchmark exercises:
//!
//! * **Operator model** — operators expose lifecycle callbacks around
//!   *streaming windows* (`setup`, `begin_window`, `process`,
//!   `end_window`, `teardown`) and exchange tuples through ports.
//! * **Container deployment** — a [`Stram`] application master validates
//!   the [`Dag`], negotiates containers with [`yarnsim`], deploys
//!   operators, and supervises execution. Parallelism is a vcore setting
//!   ([`StramConfig::vcores`]), exactly as configured in the paper.
//! * **Stream locality** — streams are fused ([`Link::Thread`]), queued
//!   in-container ([`Link::Container`]), or serialized through a
//!   buffer server across containers ([`Link::Network`]); the codec cost
//!   on network streams is a real, measurable overhead.
//!
//! # Example
//!
//! ```
//! # fn main() -> apx::Result<()> {
//! use apx::{Dag, FnOperator, Emitter, Link, Stram, StramConfig};
//! use apx::testkit::{VecInput, VecOutput};
//!
//! let mut rm = yarnsim::ResourceManager::new();
//! rm.register_node(yarnsim::Resource::new(8192, 8));
//!
//! let dag = Dag::new("double");
//! let out = VecOutput::new();
//! dag.add_input("numbers", VecInput::new(vec![1i64, 2, 3]))?
//!     .add_operator::<i64, _>(
//!         "double",
//!         FnOperator::new(|t: i64, e: &mut dyn Emitter<i64>| e.emit(t * 2)),
//!         Link::Thread,
//!     )?
//!     .add_output("collect", out.clone(), Link::Thread)?;
//! let result = Stram::run(&dag, &mut rm, &StramConfig::default())?;
//! assert_eq!(out.snapshot(), vec![2, 4, 6]);
//! assert_eq!(result.emitted_by("double"), Some(3));
//! # Ok(())
//! # }
//! ```

mod codec;
mod dag;
mod error;
mod malhar;
mod operator;
mod stram;
mod stram_config;
mod stream;
pub mod testkit;

pub use codec::{BytesCodec, Codec, StringCodec, U64Codec};
pub use dag::{Dag, Link, OpHandle, OpKind, OpMeta};
pub use error::{Error, Result};
pub use malhar::{KafkaInput, KafkaOutput};
pub use operator::{
    Emitter, FnOperator, InputOperator, Operator, OperatorContext, PassThrough, WindowCounter,
};
pub use stram::{AppResult, Stram};
pub use stram_config::StramConfig;
pub use stream::{
    BufferServer, CollectingSink, EncodingPublisher, Frame, FrameSink, OperatorSink, Publisher,
    StreamStats,
};
