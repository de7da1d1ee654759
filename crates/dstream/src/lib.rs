//! `dstream` — a micro-batch stream processing engine in the style of
//! Apache Spark Streaming.
//!
//! `dstream` is one of the three system-under-test engines of the
//! StreamBench reproduction (paper §II-C). It reproduces the Spark
//! properties the benchmark exercises:
//!
//! * **Micro-batch processing** — a stream is a *discretized stream*
//!   (D-Stream): a sequence of RDD batches, not tuple-at-a-time flow.
//!   Per-element dispatch is amortized over whole batches, which is why
//!   the paper measures Spark Streaming as the fastest native system.
//! * **RDD lineage** — [`Rdd`] values are lazy, partitioned recipes;
//!   transformations compose and actions run one task per partition on
//!   the application's executors.
//! * **Driver / executor architecture** — a [`Context`] (SparkContext)
//!   owns a pool of long-lived executors; `spark.default.parallelism`
//!   ([`ContextConfig::default_parallelism`]) is the knob the paper uses
//!   to set parallelism (§III-A2). Task `i` of every stage runs on
//!   executor `i mod n`, as Spark's `PreferConsistent` placement keeps a
//!   Kafka partition on one executor.
//! * **Direct Kafka stream** — the driver only plans a broker
//!   micro-batch; the executor task that computes it fetches the records,
//!   runs the fused `map`/`filter` pass and, under
//!   [`DStream::save_to_broker`], appends the result (`KafkaRDD.compute`
//!   plus `foreachPartition`).
//! * **Receivers** — [`StreamingContext::receiver_stream`] reads any
//!   [`BatchSource`] as Spark's receiver-based input does: one
//!   `dstream-receiver` thread pulls it into a queue of at most 4
//!   micro-batches, and the driver takes one per tick, so reading
//!   overlaps the batch jobs and a lagging driver blocks the read.
//! * **Shuffles** — `repartition` materializes its parent once and
//!   redistributes it, cutting lineage like Spark's shuffle boundary.
//!
//! # Example
//!
//! ```
//! # fn main() -> dstream::Result<()> {
//! use dstream::{Context, StreamingContext, VecBatchSource};
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//!
//! let ssc = StreamingContext::new(Context::local());
//! let hits = Arc::new(Mutex::new(0usize));
//! let sink = hits.clone();
//! ssc.receiver_stream(VecBatchSource::new(vec![
//!         vec!["a test line".to_string(), "nope".to_string()],
//!         vec!["test again".to_string()],
//!     ]))
//!     .filter(|line: &String| line.contains("test"))
//!     .foreach_rdd(&ssc, move |rdd| *sink.lock() += rdd.count());
//! ssc.run_to_completion()?;
//! assert_eq!(*hits.lock(), 2);
//! # Ok(())
//! # }
//! ```

mod context;
mod executor;
mod rdd;
mod source;
mod stream;
mod streaming;

pub use context::{Context, ContextConfig};
pub use executor::ExecutorPool;
pub use rdd::Rdd;
pub use source::{BatchSource, VecBatchSource};
pub use stream::DStream;
pub use streaming::{Error, Result, StreamingContext, StreamingReport};
