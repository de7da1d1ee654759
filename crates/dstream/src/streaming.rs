//! The streaming context: micro-batch scheduling of output operations.

use crate::context::Context;
use crate::rdd::Rdd;
use crate::source::BatchSource;
use crate::stream::DStream;
use bytes::Bytes;
use logbus::{BusHandle, Record};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors raised by streaming jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// `run_to_completion` was called with no registered output
    /// operations.
    NoOutputOperations,
    /// Creating a stream failed (e.g. unknown topic).
    Source(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NoOutputOperations => f.write_str("streaming job has no output operations"),
            Error::Source(msg) => write!(f, "stream source failed: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias for streaming results.
pub type Result<T> = std::result::Result<T, Error>;

/// Per-job statistics reported by [`StreamingContext::run_to_completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamingReport {
    /// Batch ticks executed.
    pub batches: u64,
    /// Wall-clock runtime.
    pub elapsed: Duration,
}

type OutputOp = Box<dyn FnMut() -> bool + Send>;

/// Drives one streaming application: registered output operations are
/// invoked once per batch tick until every stream is drained.
///
/// Ticks run back-to-back, with no batch interval between them: the
/// benchmark's input topic is fully loaded before the job starts, so the
/// stream is always backlogged.
///
/// # Example
///
/// ```
/// # fn main() -> dstream::Result<()> {
/// use dstream::{Context, StreamingContext, VecBatchSource};
/// use std::sync::Arc;
/// use parking_lot::Mutex;
///
/// let ssc = StreamingContext::new(Context::local());
/// let out = Arc::new(Mutex::new(Vec::new()));
/// let sink = out.clone();
/// ssc.receiver_stream(VecBatchSource::new(vec![vec![1, 2], vec![3]]))
///     .map(|x: i64| x * 2)
///     .foreach_rdd(&ssc, move |rdd| sink.lock().extend(rdd.collect()));
/// let report = ssc.run_to_completion()?;
/// assert_eq!(report.batches, 2);
/// assert_eq!(*out.lock(), vec![2, 4, 6]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct StreamingContext {
    ctx: Context,
    output_ops: Arc<Mutex<Vec<OutputOp>>>,
}

impl std::fmt::Debug for StreamingContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingContext")
            .field("ctx", &self.ctx)
            .finish_non_exhaustive()
    }
}

impl StreamingContext {
    /// Creates a streaming context over a driver context.
    pub fn new(ctx: Context) -> Self {
        StreamingContext {
            ctx,
            output_ops: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The driver context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Creates a stream from any [`BatchSource`].
    pub fn receiver_stream<T: Clone + Send + Sync + 'static>(
        &self,
        source: impl BatchSource<T> + 'static,
    ) -> DStream<T> {
        DStream::from_source(self.ctx.clone(), source)
    }

    /// Creates a bounded stream over a `logbus` topic (Kafka direct
    /// stream).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Source`] for unknown topics.
    pub fn broker_stream(
        &self,
        bus: impl Into<BusHandle>,
        topic: &str,
        max_batch_records: usize,
    ) -> Result<DStream<Bytes>> {
        let source = crate::source::BrokerBatchSource::new(bus, topic, max_batch_records)
            .map_err(|e| Error::Source(e.to_string()))?;
        Ok(self.receiver_stream(source))
    }

    /// Creates a tailing stream over a `logbus` topic that keeps polling
    /// (with backoff while caught up) until `target_records` records have
    /// been read — the follow-mode analog of [`Self::broker_stream`] used
    /// by the latency harness. Batch ticks block on producer progress, so
    /// the micro-batch driver is backpressured to the offered rate.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Source`] for unknown topics.
    pub fn broker_stream_following(
        &self,
        bus: impl Into<BusHandle>,
        topic: &str,
        max_batch_records: usize,
        target_records: u64,
    ) -> Result<DStream<Bytes>> {
        let source = crate::source::BrokerBatchSource::following(
            bus,
            topic,
            max_batch_records,
            target_records,
        )
        .map_err(|e| Error::Source(e.to_string()))?;
        Ok(self.receiver_stream(source))
    }

    /// Registers an output operation applied to every batch of `stream`.
    pub(crate) fn register_output<T, F>(&self, stream: &DStream<T>, mut f: F)
    where
        T: Clone + Send + Sync + 'static,
        F: FnMut(Rdd<T>) + Send + 'static,
    {
        let stream = stream.clone();
        self.output_ops
            .lock()
            .push(Box::new(move || match stream.next_batch() {
                Some(rdd) => {
                    f(rdd);
                    true
                }
                None => false,
            }));
    }

    /// Runs batch ticks until every output operation's stream is drained.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoOutputOperations`] when nothing was registered.
    pub fn run_to_completion(&self) -> Result<StreamingReport> {
        let mut ops = std::mem::take(&mut *self.output_ops.lock());
        if ops.is_empty() {
            return Err(Error::NoOutputOperations);
        }
        let mut run_span = obs::span("dstream.run");
        run_span.field("output_ops", ops.len().to_string());
        // Resolved once before the loop so per-tick recording is lock-free.
        let instruments = if obs::enabled() {
            Some((
                obs::histogram("dstream.batch.micros"),
                obs::counter("dstream.batches"),
            ))
        } else {
            None
        };
        let started = Instant::now();
        let mut batches = 0u64;
        loop {
            let tick_started = Instant::now();
            let mut any = false;
            for op in &mut ops {
                if op() {
                    any = true;
                }
            }
            if !any {
                break;
            }
            batches += 1;
            if let Some((batch_micros, batch_count)) = &instruments {
                batch_micros.record(tick_started.elapsed().as_micros() as u64);
                batch_count.inc();
            }
        }
        Ok(StreamingReport {
            batches,
            elapsed: started.elapsed(),
        })
    }
}

impl<T: Clone + Send + Sync + 'static> DStream<T> {
    /// Registers `f` as the output operation for this stream's batches.
    pub fn foreach_rdd<F>(&self, ssc: &StreamingContext, f: F)
    where
        F: FnMut(Rdd<T>) + Send + 'static,
    {
        ssc.register_output(self, f);
    }
}

impl DStream<Bytes> {
    /// Registers an output operation writing every batch to a `logbus`
    /// topic as one broker append per partition.
    pub fn save_to_broker(&self, ssc: &StreamingContext, bus: impl Into<BusHandle>, topic: &str) {
        let bus = bus.into();
        let topic = topic.to_string();
        // Cached produce handle, resolved on the first non-empty batch and
        // re-tried while the topic is missing — so per-batch appends skip
        // the topic-name lookup without changing late-creation semantics.
        // Resolution rides through transient broker faults, and the
        // idempotent handle keeps lost-ack resends and injected duplicates
        // out of the query output.
        let mut writer: Option<logbus::PartitionWriter> = None;
        self.foreach_rdd(ssc, move |rdd| {
            for part in rdd.collect_partitions() {
                if part.is_empty() {
                    continue;
                }
                // The batch Vec comes from (and returns to) the logbus
                // pool tier; `Record::from_value` on `Bytes` is zero-copy.
                let mut records = logbus::pool::record_vec();
                records.extend(part.into_iter().map(Record::from_value));
                if obs::enabled() {
                    obs::counter("dstream.sink.records").add(records.len() as u64);
                }
                if writer.is_none() {
                    let retry = logbus::RetryPolicy::default();
                    writer = logbus::with_retry(&retry, || bus.partition_writer(&topic, 0))
                        .ok()
                        .map(|w| w.idempotent().with_retry(retry.clone()));
                }
                if let Some(w) = &writer {
                    if w.produce_batch_drain(&mut records).is_err() {
                        records.clear();
                    }
                }
                logbus::pool::recycle_record_vec(records);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecBatchSource;
    use logbus::{Broker, TopicConfig};

    #[test]
    fn run_to_completion_counts_batches() {
        let ssc = StreamingContext::new(Context::local());
        let seen = Arc::new(Mutex::new(0usize));
        let seen2 = seen.clone();
        ssc.receiver_stream(VecBatchSource::new(vec![vec![1], vec![2], vec![3]]))
            .foreach_rdd(&ssc, move |rdd| *seen2.lock() += rdd.count());
        let report = ssc.run_to_completion().unwrap();
        assert_eq!(report.batches, 3);
        assert_eq!(*seen.lock(), 3);
    }

    #[test]
    fn no_output_ops_is_an_error() {
        let ssc = StreamingContext::new(Context::local());
        assert_eq!(ssc.run_to_completion(), Err(Error::NoOutputOperations));
    }

    #[test]
    fn broker_roundtrip() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        broker.create_topic("out", TopicConfig::default()).unwrap();
        for i in 0..100 {
            broker
                .produce("in", 0, Record::from_value(format!("{i}")))
                .unwrap();
        }
        let ssc = StreamingContext::new(Context::local());
        let stream = ssc.broker_stream(broker.clone(), "in", 30).unwrap();
        stream
            .filter(|b: &Bytes| b.len() == 2)
            .save_to_broker(&ssc, broker.clone(), "out");
        let report = ssc.run_to_completion().unwrap();
        assert_eq!(report.batches, 4, "100 records in batches of 30");
        assert_eq!(
            broker.latest_offset("out", 0).unwrap(),
            90,
            "two-digit records"
        );
    }

    #[test]
    fn faulted_roundtrip_is_exactly_once() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        broker.create_topic("out", TopicConfig::default()).unwrap();
        for i in 0..100 {
            broker
                .produce("in", 0, Record::from_value(format!("{i}")))
                .unwrap();
        }
        // A duplicate-heavy plan: the idempotent sink must keep injected
        // duplicates and lost-ack resends out of the output.
        let mut plan = logbus::FaultPlan::seeded(29);
        plan.produce_error = 0.3;
        plan.ack_loss = 0.3;
        plan.duplicate = 0.3;
        plan.fetch_error = 0.3;
        plan.metadata_error = 0.3;
        plan.extra_latency = 0.0;
        broker.install_fault_plan(plan);
        let ssc = StreamingContext::new(Context::local());
        let stream = ssc.broker_stream(broker.clone(), "in", 13).unwrap();
        stream.save_to_broker(&ssc, broker.clone(), "out");
        ssc.run_to_completion().unwrap();
        broker.clear_fault_plan();
        let records = broker.fetch("out", 0, 0, 1_000).unwrap();
        assert_eq!(records.len(), 100, "no loss, no duplicates through faults");
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("{i}").as_bytes());
        }
    }

    #[test]
    fn missing_topic_is_source_error() {
        let ssc = StreamingContext::new(Context::local());
        assert!(matches!(
            ssc.broker_stream(Broker::new(), "missing", 1),
            Err(Error::Source(_))
        ));
    }

    #[test]
    fn two_streams_run_interleaved() {
        let ssc = StreamingContext::new(Context::local());
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        ssc.receiver_stream(VecBatchSource::new(vec![vec!['a'], vec!['b']]))
            .foreach_rdd(&ssc, move |rdd| l1.lock().extend(rdd.collect()));
        ssc.receiver_stream(VecBatchSource::new(vec![vec!['x']]))
            .foreach_rdd(&ssc, move |rdd| l2.lock().extend(rdd.collect()));
        let report = ssc.run_to_completion().unwrap();
        assert_eq!(report.batches, 2, "longest stream defines the tick count");
        assert_eq!(*log.lock(), vec!['a', 'x', 'b']);
    }
}
