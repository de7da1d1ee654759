//! Sinks: where elements leave a job.

use crate::operator::Collector;
use bytes::Bytes;
use logbus::{BusHandle, Record};
use parking_lot::Mutex;
use std::sync::Arc;

/// One parallel instance of a sink.
pub trait SinkFunction<T>: Send {
    /// Consumes one element.
    fn invoke(&mut self, item: T);

    /// Consumes a whole batch, draining `items` (leaving its capacity for
    /// reuse). The default forwards element by element; batching sinks
    /// override it to hand the batch on whole.
    fn invoke_batch(&mut self, items: &mut Vec<T>) {
        for item in items.drain(..) {
            self.invoke(item);
        }
    }

    /// Flushes buffered output; called once when the stream ends.
    fn close(&mut self) {}
}

/// A factory creating one [`SinkFunction`] per parallel subtask.
pub trait ParallelSink<T>: Send + Sync + 'static {
    /// Creates the instance for `subtask` of `parallelism`.
    fn create(&self, subtask: usize, parallelism: usize) -> Box<dyn SinkFunction<T>>;

    /// Display name used in execution plans.
    fn name(&self) -> String {
        "Sink: Unnamed".to_string()
    }
}

/// Adapter turning a [`SinkFunction`] into the terminal [`Collector`] of a
/// chain.
pub struct SinkCollector<T> {
    sink: Box<dyn SinkFunction<T>>,
}

impl<T> SinkCollector<T> {
    /// Wraps a sink instance.
    pub fn new(sink: Box<dyn SinkFunction<T>>) -> Self {
        SinkCollector { sink }
    }
}

impl<T: Send> Collector<T> for SinkCollector<T> {
    fn collect(&mut self, item: T) {
        self.sink.invoke(item);
    }

    fn collect_batch(&mut self, items: &mut Vec<T>) {
        self.sink.invoke_batch(items);
    }

    fn close(&mut self) {
        self.sink.close();
    }
}

/// Sink collecting into a shared vector, for tests and examples.
#[derive(Debug, Clone, Default)]
pub struct VecSink<T> {
    items: Arc<Mutex<Vec<T>>>,
}

impl<T> VecSink<T> {
    /// Creates an empty collecting sink.
    pub fn new() -> Self {
        VecSink {
            items: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Handle to the collected elements.
    pub fn items(&self) -> Arc<Mutex<Vec<T>>> {
        self.items.clone()
    }

    /// Takes a snapshot of the collected elements.
    pub fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.items.lock().clone()
    }
}

struct VecSinkInstance<T> {
    items: Arc<Mutex<Vec<T>>>,
}

impl<T: Send + Sync + 'static> ParallelSink<T> for VecSink<T> {
    fn create(&self, _subtask: usize, _parallelism: usize) -> Box<dyn SinkFunction<T>> {
        Box::new(VecSinkInstance {
            items: self.items.clone(),
        })
    }
}

impl<T: Send> SinkFunction<T> for VecSinkInstance<T> {
    fn invoke(&mut self, item: T) {
        self.items.lock().push(item);
    }

    fn invoke_batch(&mut self, items: &mut Vec<T>) {
        self.items.lock().append(items);
    }
}

/// Sink producing to a `logbus` topic.
///
/// Writes go through an asynchronous, adaptively batching producer
/// ([`logbus::AsyncProducer`]): the operator never blocks on a broker
/// round trip, batches grow up to `batch_records` (default 500) while
/// requests are in flight, and `close` drains everything. Each batch is
/// one broker append with one `LogAppendTime` stamp.
#[derive(Debug, Clone)]
pub struct BrokerSink {
    bus: BusHandle,
    topic: String,
    batch_records: usize,
}

impl BrokerSink {
    /// Creates a sink appending to partition 0 of `topic`. Accepts a
    /// [`Broker`](logbus::Broker), a [`Cluster`](logbus::Cluster), or an
    /// existing [`BusHandle`]; on a cluster the background producer rides
    /// through broker failover.
    pub fn new(bus: impl Into<BusHandle>, topic: impl Into<String>) -> Self {
        BrokerSink {
            bus: bus.into(),
            topic: topic.into(),
            batch_records: 500,
        }
    }

    /// Sets the maximum adaptive batch size; `1` forces an individual
    /// append per record.
    pub fn batch_records(mut self, records: usize) -> Self {
        self.batch_records = records.max(1);
        self
    }
}

struct BrokerSinkInstance {
    producer: logbus::AsyncProducer,
    /// Reused record buffer for the batch path.
    scratch: Vec<Record>,
}

impl ParallelSink<Bytes> for BrokerSink {
    fn create(&self, _subtask: usize, _parallelism: usize) -> Box<dyn SinkFunction<Bytes>> {
        Box::new(BrokerSinkInstance {
            producer: logbus::AsyncProducer::with_max_batch(
                self.bus.clone(),
                self.topic.clone(),
                0,
                self.batch_records,
            ),
            scratch: Vec::new(),
        })
    }

    fn name(&self) -> String {
        format!("Sink: Broker topic `{}`", self.topic)
    }
}

impl SinkFunction<Bytes> for BrokerSinkInstance {
    fn invoke(&mut self, item: Bytes) {
        self.producer.send(Record::from_value(item));
    }

    fn invoke_batch(&mut self, items: &mut Vec<Bytes>) {
        // The whole batch crosses to the producer thread as one queue
        // message: no per-element channel operation or atomic update.
        self.scratch.extend(items.drain(..).map(Record::from_value));
        self.producer.send_batch(&mut self.scratch);
    }

    fn close(&mut self) {
        // Drain the async producer so everything is durable when the job
        // reports completion.
        self.producer.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbus::{Broker, TopicConfig};

    #[test]
    fn vec_sink_collects() {
        let sink = VecSink::new();
        let mut instance = ParallelSink::<i64>::create(&sink, 0, 1);
        instance.invoke(1);
        instance.invoke(2);
        instance.close();
        assert_eq!(sink.snapshot(), vec![1, 2]);
    }

    #[test]
    fn broker_sink_batches_and_close_drains() {
        let broker = Broker::new();
        broker.create_topic("out", TopicConfig::default()).unwrap();
        let sink = BrokerSink::new(broker.clone(), "out").batch_records(10);
        let mut instance = sink.create(0, 1);
        for i in 0..25 {
            instance.invoke(Bytes::from(format!("r{i}")));
        }
        // The producer is asynchronous; close() drains it.
        instance.close();
        assert_eq!(broker.latest_offset("out", 0).unwrap(), 25);
        // Three appends: two full batches of 10 plus the close flush.
        let records = broker.fetch("out", 0, 0, 25).unwrap();
        let stamps: std::collections::BTreeSet<i64> =
            records.iter().map(|r| r.timestamp.as_micros()).collect();
        assert_eq!(stamps.len(), 3, "one LogAppendTime per batch");
    }

    #[test]
    fn broker_sink_accepts_whole_batches() {
        let broker = Broker::new();
        broker.create_topic("out", TopicConfig::default()).unwrap();
        let sink = BrokerSink::new(broker.clone(), "out").batch_records(100);
        let mut instance = sink.create(0, 1);
        let mut batch: Vec<Bytes> = (0..25).map(|i| Bytes::from(format!("r{i}"))).collect();
        instance.invoke_batch(&mut batch);
        assert!(batch.is_empty(), "the batch must be drained");
        instance.close();
        let records = broker.fetch("out", 0, 0, 25).unwrap();
        assert_eq!(records.len(), 25);
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("r{i}").as_bytes());
        }
    }

    #[test]
    fn broker_sink_flushes_mid_stream() {
        let broker = Broker::new();
        broker.create_topic("out", TopicConfig::default()).unwrap();
        let sink = BrokerSink::new(broker.clone(), "out").batch_records(1);
        let mut instance = sink.create(0, 1);
        instance.invoke(Bytes::from_static(b"a"));
        // The batch is handed to the background producer immediately;
        // wait for it to land.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while broker.latest_offset("out", 0).unwrap() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "async flush never landed"
            );
            std::thread::yield_now();
        }
        instance.close();
        assert_eq!(broker.latest_offset("out", 0).unwrap(), 1);
    }

    #[test]
    fn broker_sink_drop_drains() {
        let broker = Broker::new();
        broker.create_topic("out", TopicConfig::default()).unwrap();
        {
            let sink = BrokerSink::new(broker.clone(), "out").batch_records(100);
            let mut instance = sink.create(0, 1);
            instance.invoke(Bytes::from_static(b"a"));
            instance.close();
        }
        assert_eq!(broker.latest_offset("out", 0).unwrap(), 1);
    }

    #[test]
    fn sink_collector_adapts() {
        let sink = VecSink::new();
        let mut col = SinkCollector::new(ParallelSink::<i64>::create(&sink, 0, 1));
        col.collect(7);
        col.close();
        assert_eq!(sink.snapshot(), vec![7]);
    }

    #[test]
    fn sink_names() {
        let broker = Broker::new();
        assert_eq!(
            ParallelSink::<Bytes>::name(&BrokerSink::new(broker, "out")),
            "Sink: Broker topic `out`"
        );
        assert_eq!(
            ParallelSink::<i64>::name(&VecSink::<i64>::new()),
            "Sink: Unnamed"
        );
    }
}
