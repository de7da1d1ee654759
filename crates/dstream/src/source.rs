//! Micro-batch sources.

use crate::context::Context;
use crate::rdd::Rdd;
use bytes::Bytes;
use crossbeam::channel;
use logbus::{BusHandle, FollowTarget, TopicReader};
use parking_lot::Mutex;
use std::sync::Arc;

/// A bounded supplier of micro-batches.
///
/// `next_batch` returning `None` means the source is drained and the
/// stream ends — the discretized analog of a bounded Kafka topic read.
pub trait BatchSource<T>: Send {
    /// Produces the next micro-batch, or `None` when drained.
    fn next_batch(&mut self) -> Option<Vec<T>>;
}

/// Micro-batches a [`Receiver`] holds ahead of the driver.
pub(crate) const RECEIVER_QUEUE: usize = 4;

/// Spark's receiver-based input: one `dstream-receiver` thread pulls a
/// [`BatchSource`] into a queue of at most [`RECEIVER_QUEUE`]
/// micro-batches, and the driver takes one per tick — one queue hand-off
/// per batch. Reading the next batches overlaps the driver's batch
/// jobs; a full queue blocks the thread, so the source is pulled at most
/// `RECEIVER_QUEUE + 1` batches ahead of the driver, the one the thread
/// holds included.
///
/// Dropping the receiver hangs up the queue, which ends a hand-off the
/// thread is blocked in, and joins the thread. A thread that cannot be
/// spawned (resource exhaustion) drops the source: the stream is empty,
/// rather than a panic in the data plane.
pub(crate) struct Receiver<T> {
    batches: channel::Receiver<Vec<T>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> Receiver<T> {
    /// Starts the receiver thread on `source`.
    pub(crate) fn start(mut source: impl BatchSource<T> + 'static) -> Self {
        let (sender, batches) = channel::bounded(RECEIVER_QUEUE);
        let thread = std::thread::Builder::new()
            .name("dstream-receiver".into())
            .spawn(move || {
                while let Some(batch) = source.next_batch() {
                    if sender.send(batch).is_err() {
                        // The stream is gone: stop reading.
                        return;
                    }
                }
            })
            .ok();
        Receiver { batches, thread }
    }
}

impl<T: Send> BatchSource<T> for Receiver<T> {
    /// Waits for the next received batch; `None` once the source is
    /// drained and every batch has been taken. A source that panicked
    /// on the receiver thread panics here, on the driver, rather than
    /// end the stream short.
    fn next_batch(&mut self) -> Option<Vec<T>> {
        if let Ok(batch) = self.batches.recv() {
            return Some(batch);
        }
        if let Some(Err(panic)) = self.thread.take().map(std::thread::JoinHandle::join) {
            std::panic::resume_unwind(panic);
        }
        None
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Hang up first, so a `send` blocked on the full queue fails,
        // then reap the thread.
        let (_, hung_up) = channel::bounded(1);
        drop(std::mem::replace(&mut self.batches, hung_up));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// In-memory batches, for tests and examples.
#[derive(Debug, Clone)]
pub struct VecBatchSource<T> {
    batches: std::collections::VecDeque<Vec<T>>,
}

impl<T> VecBatchSource<T> {
    /// Creates a source yielding the given batches in order.
    pub fn new(batches: Vec<Vec<T>>) -> Self {
        VecBatchSource {
            batches: batches.into(),
        }
    }
}

impl<T: Send> BatchSource<T> for VecBatchSource<T> {
    fn next_batch(&mut self) -> Option<Vec<T>> {
        self.batches.pop_front()
    }
}

/// Reads a `logbus` topic in micro-batches (Spark's Kafka direct stream),
/// the source of [`StreamingContext::broker_stream`](crate::StreamingContext::broker_stream):
/// each batch is one [`TopicReader::next_batch`] of up to
/// `max_batch_records`, ending at the offsets current when the source was
/// created — or, in follow mode ([`BrokerBatchSource::following`]),
/// tailing the topic until a target record count has been emitted.
/// Blocking inside the read is the backpressure: the micro-batch job is
/// throttled to the producer's rate instead of spinning on empty batches
/// or buffering without bound.
///
/// The source is the only reader of its input, so it reads every
/// partition — one RDD partition's worth per Kafka partition, merged into
/// the micro-batch: its share is subtask 0 of 1.
///
/// It is read where Spark reads: inside the executor task that computes
/// the batch ([`BrokerBatchSource::into_batches`]).
#[derive(Debug)]
pub(crate) struct BrokerBatchSource {
    max_batch_records: usize,
    reader: TopicReader,
    /// A batch is planned and not yet read.
    unread: bool,
    /// A read found the source drained (or stalled): the stream is over.
    ended: bool,
}

impl BrokerBatchSource {
    /// Creates a bounded micro-batch reader over `topic`.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist.
    pub(crate) fn new(
        bus: impl Into<BusHandle>,
        topic: &str,
        max_batch_records: usize,
    ) -> logbus::Result<Self> {
        let reader = TopicReader::bounded(bus, topic, 0, 1)?;
        Ok(Self::over(reader, max_batch_records))
    }

    /// Creates a tailing micro-batch reader: instead of stopping at the
    /// offsets current at creation, it keeps reading until
    /// `target_records` records have been emitted.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist.
    pub(crate) fn following(
        bus: impl Into<BusHandle>,
        topic: &str,
        max_batch_records: usize,
        target_records: u64,
    ) -> logbus::Result<Self> {
        let target = FollowTarget::new(target_records);
        let reader = TopicReader::following(bus, topic, 0, 1, target)?;
        Ok(Self::over(reader, max_batch_records))
    }

    fn over(reader: TopicReader, max_batch_records: usize) -> Self {
        BrokerBatchSource {
            max_batch_records: max_batch_records.max(1),
            reader,
            unread: false,
            ended: false,
        }
    }

    /// The stream's batches, Spark's direct Kafka stream: a batch planner
    /// the driver calls once per tick. It fetches nothing; it decides
    /// that batch *k* exists — the read is not at its finish line — and
    /// returns it as a one-partition RDD covering the reader's next
    /// `max_batch_records` records. Computing that RDD (in the executor
    /// task, `KafkaRDD.compute`) reads them, so they are fetched,
    /// transformed and dropped on one thread. A batch is read once: its
    /// first computation consumes it, and a batch no job computed is read
    /// and dropped before the next is planned, as Spark passes over an
    /// offset range no job computes.
    pub(crate) fn into_batches(
        self,
        ctx: Context,
    ) -> impl FnMut() -> Option<Rdd<Bytes>> + Send + 'static {
        let source = Arc::new(Mutex::new(self));
        move || {
            if !source.lock().plan() {
                return None;
            }
            let source = source.clone();
            Some(Rdd::from_pass(ctx.clone(), 1, move |_i, sink| {
                source.lock().read(sink);
            }))
        }
    }

    /// Plans the next batch; `false` when the stream is over. Whether the
    /// read is at its finish line is a drive pass capped at zero records:
    /// it fetches nothing, only refreshes a follower's ends.
    fn plan(&mut self) -> bool {
        if self.unread {
            self.read(&mut drop);
        }
        self.unread = !self.ended
            && self
                .reader
                .try_next_batch(0, &mut |_p, _stored| {})
                .is_some();
        self.unread
    }

    /// Reads the planned batch into `sink`; nothing once it was read.
    fn read(&mut self, sink: &mut dyn FnMut(Bytes)) {
        if !std::mem::take(&mut self.unread) {
            return;
        }
        let read = self
            .reader
            .next_batch(self.max_batch_records, &mut |_p, stored| {
                sink(stored.record.value);
            });
        self.ended = read.is_none();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbus::{Broker, Record, TopicConfig};

    impl BrokerBatchSource {
        /// Plans the next batch and reads it on this thread, as the
        /// executor task computing it does; `None` once the stream is over.
        fn next_batch(&mut self) -> Option<Vec<Bytes>> {
            let mut batch = Vec::new();
            if !self.plan() {
                return None;
            }
            self.read(&mut |value| batch.push(value));
            (!self.ended).then_some(batch)
        }
    }

    #[test]
    fn vec_source_drains() {
        let mut s = VecBatchSource::new(vec![vec![1], vec![2, 3]]);
        assert_eq!(s.next_batch(), Some(vec![1]));
        assert_eq!(s.next_batch(), Some(vec![2, 3]));
        assert_eq!(s.next_batch(), None);
    }

    /// A broker whose topic `t` holds `"0"`, `"1"`, … — `n` records,
    /// one request each.
    fn broker_with(n: usize) -> Broker {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("t", 0).unwrap();
        for i in 0..n {
            writer.produce(Record::from_value(format!("{i}"))).unwrap();
        }
        broker
    }

    #[test]
    fn broker_source_batches_until_bound() {
        let broker = broker_with(25);
        let mut source = BrokerBatchSource::new(broker.clone(), "t", 10).unwrap();
        assert_eq!(source.next_batch().unwrap().len(), 10);
        // Records arriving after creation are not part of this bounded run.
        let writer = broker.partition_writer("t", 0).unwrap();
        writer.produce(Record::from_value("late")).unwrap();
        assert_eq!(source.next_batch().unwrap().len(), 10);
        assert_eq!(source.next_batch().unwrap().len(), 5);
        assert!(source.next_batch().is_none());
    }

    #[test]
    fn broker_source_merges_partitions() {
        let broker = Broker::new();
        broker
            .create_topic("t", TopicConfig::default().partitions(2))
            .unwrap();
        for p in 0..2 {
            let writer = broker.partition_writer("t", p).unwrap();
            for i in 0..5 {
                writer
                    .produce(Record::from_value(format!("p{p}-{i}")))
                    .unwrap();
            }
        }
        let mut source = BrokerBatchSource::new(broker, "t", 100).unwrap();
        assert_eq!(source.next_batch().unwrap().len(), 10);
        assert!(source.next_batch().is_none());
    }

    #[test]
    fn faulted_broker_loses_no_batches() {
        let broker = broker_with(60);
        let mut plan = logbus::FaultPlan::seeded(13);
        plan.fetch_error = 0.4;
        plan.metadata_error = 0.4;
        plan.produce_error = 0.0;
        plan.ack_loss = 0.0;
        plan.duplicate = 0.0;
        plan.extra_latency = 0.0;
        broker.install_fault_plan(plan);
        let mut source = BrokerBatchSource::new(broker.clone(), "t", 7).unwrap();
        let mut all = Vec::new();
        while let Some(batch) = source.next_batch() {
            all.extend(batch);
        }
        broker.clear_fault_plan();
        assert_eq!(all.len(), 60, "every record survives the fault plan");
        for (i, value) in all.iter().enumerate() {
            assert_eq!(&value[..], format!("{i}").as_bytes());
        }
    }

    #[test]
    fn missing_topic_errors() {
        let broker = Broker::new();
        assert!(BrokerBatchSource::new(broker, "missing", 10).is_err());
    }

    #[test]
    fn following_source_tails_slow_producer() {
        let broker = broker_with(0);
        let writer = broker.partition_writer("t", 0).unwrap();
        let producer = std::thread::spawn(move || {
            for i in 0..30 {
                writer.produce(Record::from_value(format!("{i}"))).unwrap();
                if i % 6 == 0 {
                    // Leave the source caught up so it has to back off.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        });
        let mut source = BrokerBatchSource::following(broker, "t", 8, 30).unwrap();
        let mut all = Vec::new();
        while let Some(batch) = source.next_batch() {
            assert!(batch.len() <= 8);
            all.extend(batch);
        }
        producer.join().unwrap();
        assert_eq!(all.len(), 30, "a slow producer loses no records");
        for (i, value) in all.iter().enumerate() {
            assert_eq!(&value[..], format!("{i}").as_bytes());
        }
    }

    #[test]
    fn following_source_stops_at_target_with_extra_records() {
        let broker = broker_with(20);
        let mut source = BrokerBatchSource::following(broker, "t", 100, 12).unwrap();
        assert_eq!(source.next_batch().unwrap().len(), 12);
        assert!(source.next_batch().is_none(), "target reached ends stream");
    }
}
