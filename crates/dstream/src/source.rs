//! Micro-batch sources.

use bytes::Bytes;
use logbus::{BusHandle, FollowTarget, GroupedReader};

/// A bounded supplier of micro-batches.
///
/// `next_batch` returning `None` means the source is drained and the
/// stream ends — the discretized analog of a bounded Kafka topic read.
pub trait BatchSource<T>: Send {
    /// Produces the next micro-batch, or `None` when drained.
    fn next_batch(&mut self) -> Option<Vec<T>>;
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

/// Reads a `logbus` topic in micro-batches (Spark's Kafka direct stream):
/// each call is one [`GroupedReader::next_batch`] of up to
/// `max_batch_records`, ending at the offsets current when the source was
/// created — or, in follow mode ([`BrokerBatchSource::following`]),
/// tailing the topic until a target record count has been emitted.
/// Blocking inside `next_batch` is the backpressure: the micro-batch
/// driver is throttled to the producer's rate instead of spinning on
/// empty batches or buffering without bound.
///
/// Every source is the one member of a fresh consumer group; ownership
/// and position handover are the reader's.
#[derive(Debug)]
pub struct BrokerBatchSource {
    max_batch_records: usize,
    reader: GroupedReader,
}

impl BrokerBatchSource {
    /// Creates a bounded micro-batch reader over `topic`.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist.
    pub fn new(
        bus: impl Into<BusHandle>,
        topic: impl Into<String>,
        max_batch_records: usize,
    ) -> logbus::Result<Self> {
        let group = GroupedReader::fresh_group("dstream-src");
        let reader = GroupedReader::bounded(bus, topic, group)?;
        Ok(BrokerBatchSource {
            max_batch_records: max_batch_records.max(1),
            reader,
        })
    }

    /// Creates a tailing micro-batch reader: instead of stopping at the
    /// offsets current at creation, `next_batch` keeps reading until
    /// `target_records` records have been emitted.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist.
    pub fn following(
        bus: impl Into<BusHandle>,
        topic: impl Into<String>,
        max_batch_records: usize,
        target_records: u64,
    ) -> logbus::Result<Self> {
        let group = GroupedReader::fresh_group("dstream-src");
        let target = FollowTarget::new(target_records);
        let reader = GroupedReader::following(bus, topic, group, target)?;
        Ok(BrokerBatchSource {
            max_batch_records: max_batch_records.max(1),
            reader,
        })
    }
}

impl BatchSource<Bytes> for BrokerBatchSource {
    fn next_batch(&mut self) -> Option<Vec<Bytes>> {
        let mut batch = Vec::with_capacity(self.max_batch_records.min(1024));
        self.reader
            .next_batch(self.max_batch_records, &mut |_p, stored| {
                batch.push(stored.record.value);
            })
            .map(|_delivered| batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbus::{Broker, Record, TopicConfig};

    #[test]
    fn vec_source_drains() {
        let mut s = VecBatchSource::new(vec![vec![1], vec![2, 3]]);
        assert_eq!(s.next_batch(), Some(vec![1]));
        assert_eq!(s.next_batch(), Some(vec![2, 3]));
        assert_eq!(s.next_batch(), None);
    }

    #[test]
    fn broker_source_batches_until_bound() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        for i in 0..25 {
            broker
                .produce("t", 0, Record::from_value(format!("{i}")))
                .unwrap();
        }
        let mut source = BrokerBatchSource::new(broker.clone(), "t", 10).unwrap();
        assert_eq!(source.next_batch().unwrap().len(), 10);
        // Records arriving after creation are not part of this bounded run.
        broker.produce("t", 0, Record::from_value("late")).unwrap();
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
            for i in 0..5 {
                broker
                    .produce("t", p, Record::from_value(format!("p{p}-{i}")))
                    .unwrap();
            }
        }
        let mut source = BrokerBatchSource::new(broker, "t", 100).unwrap();
        assert_eq!(source.next_batch().unwrap().len(), 10);
        assert!(source.next_batch().is_none());
    }

    #[test]
    fn faulted_broker_loses_no_batches() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        for i in 0..60 {
            broker
                .produce("t", 0, Record::from_value(format!("{i}")))
                .unwrap();
        }
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
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let producer_broker = broker.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..30 {
                producer_broker
                    .produce("t", 0, Record::from_value(format!("{i}")))
                    .unwrap();
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
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        for i in 0..20 {
            broker
                .produce("t", 0, Record::from_value(format!("{i}")))
                .unwrap();
        }
        let mut source = BrokerBatchSource::following(broker, "t", 100, 12).unwrap();
        assert_eq!(source.next_batch().unwrap().len(), 12);
        assert!(source.next_batch().is_none(), "target reached ends stream");
    }
}
