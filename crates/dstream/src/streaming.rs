//! The streaming context: micro-batch scheduling of output operations.

use crate::context::Context;
use crate::rdd::{Rdd, RunPartition};
use crate::source::{BatchSource, BrokerBatchSource, Receiver};
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

    /// Creates a stream from any [`BatchSource`], read by a receiver as
    /// Spark's receiver-based input is: one `dstream-receiver` thread,
    /// started here, pulls `source` into a queue of at most 4
    /// micro-batches, and the driver takes one batch per tick. Reading
    /// overlaps the batch jobs; a driver that falls behind blocks the
    /// thread, so the source is pulled at most 5 batches ahead (the one
    /// the thread holds included). Dropping the last handle to the
    /// stream stops and joins the thread.
    pub fn receiver_stream<T: Clone + Send + Sync + 'static>(
        &self,
        source: impl BatchSource<T> + 'static,
    ) -> DStream<T> {
        DStream::from_source(self.ctx.clone(), Receiver::start(source))
    }

    /// Creates a bounded stream over a `logbus` topic (Kafka direct
    /// stream). The driver only plans the batches: each is read inside
    /// the executor task that computes it.
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
        let source = BrokerBatchSource::new(bus, topic, max_batch_records)
            .map_err(|e| Error::Source(e.to_string()))?;
        Ok(self.executor_read(source))
    }

    /// Creates a tailing stream over a `logbus` topic that keeps polling
    /// (with backoff while caught up) until `target_records` records have
    /// been read — the follow-mode analog of [`Self::broker_stream`] used
    /// by the latency harness. Batch jobs block on producer progress, so
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
        let source = BrokerBatchSource::following(bus, topic, max_batch_records, target_records)
            .map_err(|e| Error::Source(e.to_string()))?;
        Ok(self.executor_read(source))
    }

    fn executor_read(&self, source: BrokerBatchSource) -> DStream<Bytes> {
        DStream::from_batches(self.ctx.clone(), source.into_batches(self.ctx.clone()))
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
    /// topic as one broker append per partition, from the executors as
    /// Spark's `foreachPartition` writes: partition `i`'s task runs the
    /// batch's fused lineage — for a broker stream, the fetch and the
    /// `map`/`filter` pass — straight into the append. No record returns
    /// to the driver.
    pub fn save_to_broker(&self, ssc: &StreamingContext, bus: impl Into<BusHandle>, topic: &str) {
        let sink = Arc::new(BrokerSink {
            bus: bus.into(),
            topic: topic.to_string(),
            writer: Mutex::new(None),
        });
        self.foreach_rdd(ssc, move |rdd| {
            let sink = sink.clone();
            let _: Vec<()> = rdd.run_partitions(move |_i, run| sink.write(run));
        });
    }
}

/// The executor side of [`DStream::save_to_broker`].
struct BrokerSink {
    bus: BusHandle,
    topic: String,
    /// Cached produce handle, resolved on the first non-empty partition
    /// and re-tried while the topic is missing — so per-batch appends skip
    /// the topic-name lookup without changing late-creation semantics.
    /// Resolution rides through transient broker faults, and the
    /// idempotent handle keeps lost-ack resends and injected duplicates
    /// out of the query output.
    writer: Mutex<Option<logbus::PartitionWriter>>,
}

impl BrokerSink {
    /// Runs one partition's pass into a record batch and appends it.
    fn write(&self, run: RunPartition<'_, Bytes>) {
        // The batch Vec comes from (and returns to) the logbus pool tier;
        // `Record::from_value` on `Bytes` is zero-copy.
        let mut records = logbus::pool::record_vec();
        run(&mut |value| records.push(Record::from_value(value)));
        if !records.is_empty() {
            if obs::enabled() {
                obs::counter("dstream.sink.records").add(records.len() as u64);
            }
            let mut writer = self.writer.lock();
            if writer.is_none() {
                let retry = logbus::RetryPolicy::default();
                *writer = logbus::with_retry(&retry, || self.bus.partition_writer(&self.topic, 0))
                    .ok()
                    .map(|w| w.idempotent().with_retry(retry.clone()));
            }
            if let Some(w) = &*writer {
                if w.produce_batch_drain(&mut records).is_err() {
                    records.clear();
                }
            }
        }
        logbus::pool::recycle_record_vec(records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecBatchSource;
    use logbus::{Broker, TopicConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let broker = counted_input(100);
        let ssc = StreamingContext::new(Context::local());
        let stream = ssc.broker_stream(broker.clone(), "in", 30).unwrap();
        stream
            .filter(|b: &Bytes| b.len() == 2)
            .save_to_broker(&ssc, broker.clone(), "out");
        let report = ssc.run_to_completion().unwrap();
        assert_eq!(report.batches, 4, "100 records in batches of 30");
        assert_eq!(output(&broker).len(), 90, "two-digit records");
    }

    #[test]
    fn faulted_roundtrip_is_exactly_once() {
        let broker = counted_input(100);
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
        let records = output(&broker);
        assert_eq!(records.len(), 100, "no loss, no duplicates through faults");
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("{i}").as_bytes());
        }
    }

    fn counted_input(records: usize) -> Broker {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        broker.create_topic("out", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("in", 0).unwrap();
        for i in 0..records {
            writer.produce(Record::from_value(format!("{i}"))).unwrap();
        }
        broker
    }

    /// Everything appended to `out`.
    fn output(broker: &Broker) -> Vec<logbus::StoredRecord> {
        let reader = broker.partition_reader("out", 0).unwrap();
        reader.fetch(0, usize::MAX).unwrap()
    }

    #[test]
    fn broker_batches_are_fetched_transformed_and_written_on_one_executor() {
        let broker = counted_input(100);
        let threads = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        let seen = threads.clone();
        let ssc = StreamingContext::new(Context::local());
        ssc.broker_stream(broker.clone(), "in", 30)
            .unwrap()
            .map(move |value: Bytes| {
                seen.lock()
                    .insert(std::thread::current().name().map(str::to_owned));
                value
            })
            .save_to_broker(&ssc, broker.clone(), "out");
        let report = ssc.run_to_completion().unwrap();
        assert_eq!(report.batches, 4);
        assert_eq!(
            *threads.lock(),
            [Some("executor-0".to_string())].into(),
            "every batch ran on worker 0 of the pool"
        );
        assert_eq!(output(&broker).len(), 100);
    }

    #[test]
    fn a_broker_batch_is_read_once() {
        let broker = counted_input(100);
        let counts = Arc::new(Mutex::new(Vec::new()));
        let sink = counts.clone();
        let ssc = StreamingContext::new(Context::local());
        ssc.broker_stream(broker, "in", 30)
            .unwrap()
            .foreach_rdd(&ssc, move |rdd| {
                sink.lock().push((rdd.count(), rdd.count()));
            });
        assert_eq!(ssc.run_to_completion().unwrap().batches, 4);
        assert_eq!(*counts.lock(), vec![(30, 0), (30, 0), (30, 0), (10, 0)]);
    }

    #[test]
    fn a_broker_batch_no_job_computes_is_passed_over() {
        let broker = counted_input(100);
        let counts = Arc::new(Mutex::new(Vec::new()));
        let sink = counts.clone();
        let mut tick = 0;
        let ssc = StreamingContext::new(Context::local());
        ssc.broker_stream(broker, "in", 30)
            .unwrap()
            .foreach_rdd(&ssc, move |rdd| {
                tick += 1;
                if tick % 2 == 0 {
                    sink.lock().push(rdd.collect());
                }
            });
        assert_eq!(ssc.run_to_completion().unwrap().batches, 4);
        let second: Vec<Bytes> = (30..60).map(|i| Bytes::from(format!("{i}"))).collect();
        let fourth: Vec<Bytes> = (90..100).map(|i| Bytes::from(format!("{i}"))).collect();
        assert_eq!(*counts.lock(), vec![second, fourth]);
    }

    #[test]
    fn missing_topic_is_source_error() {
        let ssc = StreamingContext::new(Context::local());
        assert!(matches!(
            ssc.broker_stream(Broker::new(), "missing", 1),
            Err(Error::Source(_))
        ));
    }

    /// Never drains: counts its pulls and names the threads they ran on.
    struct Endless {
        pulled: Arc<AtomicUsize>,
        threads: Arc<Mutex<std::collections::BTreeSet<Option<String>>>>,
    }

    impl BatchSource<usize> for Endless {
        fn next_batch(&mut self) -> Option<Vec<usize>> {
            let pull = self.pulled.fetch_add(1, Ordering::SeqCst);
            self.threads
                .lock()
                .insert(std::thread::current().name().map(str::to_owned));
            Some(vec![pull])
        }
    }

    fn endless() -> (Endless, Arc<AtomicUsize>) {
        let pulled = Arc::new(AtomicUsize::new(0));
        let source = Endless {
            pulled: pulled.clone(),
            threads: Arc::default(),
        };
        (source, pulled)
    }

    /// Waits until the receiver has pulled `count` batches: progress, not
    /// time, ends the wait (the deadline only turns a hang into a failure).
    fn pulls_reach(pulled: &AtomicUsize, count: usize) -> usize {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let seen = pulled.load(Ordering::SeqCst);
            if seen >= count {
                return seen;
            }
            assert!(Instant::now() < deadline, "the receiver stopped at {seen}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_receiver_reads_at_most_its_queue_and_one_batch_ahead_of_a_stalled_driver() {
        use crate::source::RECEIVER_QUEUE;
        let (source, pulled) = endless();
        let threads = source.threads.clone();
        let ssc = StreamingContext::new(Context::local());
        let stream = ssc.receiver_stream(source);
        // The driver takes nothing: the queue fills and the thread blocks
        // holding one more batch.
        let seen = pulls_reach(&pulled, RECEIVER_QUEUE + 1);
        assert!(seen <= RECEIVER_QUEUE + 1, "{seen} batches pulled");
        // Each batch the driver takes frees one slot, and batches arrive
        // in order.
        for taken in 0..3 {
            assert_eq!(stream.next_batch().unwrap().collect(), vec![taken]);
            let seen = pulls_reach(&pulled, RECEIVER_QUEUE + 2 + taken);
            assert!(seen <= RECEIVER_QUEUE + 2 + taken, "{seen} batches pulled");
        }
        assert_eq!(
            *threads.lock(),
            [Some("dstream-receiver".to_string())].into(),
            "the source is pulled on the receiver thread only"
        );
    }

    #[test]
    fn dropping_a_stream_stops_its_blocked_receiver() {
        let (source, pulled) = endless();
        let ssc = StreamingContext::new(Context::local());
        let stream = ssc.receiver_stream(source);
        pulls_reach(&pulled, crate::source::RECEIVER_QUEUE + 1);
        drop(stream);
        assert_eq!(
            Arc::strong_count(&pulled),
            1,
            "the drop joined the receiver thread, which dropped the source"
        );
    }

    #[test]
    #[should_panic(expected = "the source broke")]
    fn a_source_panic_on_the_receiver_surfaces_on_the_driver() {
        struct Broken;
        impl BatchSource<u8> for Broken {
            fn next_batch(&mut self) -> Option<Vec<u8>> {
                panic!("the source broke");
            }
        }
        let ssc = StreamingContext::new(Context::local());
        let _ = ssc.receiver_stream(Broken).next_batch();
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
