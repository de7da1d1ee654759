//! Sources: where elements enter a job.

use crate::operator::Collector;
use bytes::Bytes;
use logbus::{BusHandle, FollowTarget, GroupedReader};
use std::sync::Arc;

/// One parallel instance of a source, driving elements into the head of an
/// operator chain.
pub trait SourceFunction<T>: Send {
    /// Emits all elements of this instance's share of the input, then
    /// returns. rill jobs are bounded: `run` returning ends the subtask's
    /// stream.
    fn run(&mut self, out: &mut dyn Collector<T>);
}

/// A factory creating one [`SourceFunction`] per parallel subtask.
///
/// Instances must divide the input among themselves — by
/// `(subtask, parallelism)`, or as [`BrokerSource`] does through a
/// consumer group: with more subtasks than partitions the extra subtasks
/// emit nothing (exactly Flink's Kafka source behaviour, and the reason
/// the paper sees little benefit from parallelism 2 on a
/// single-partition topic).
pub trait ParallelSource<T>: Send + Sync + 'static {
    /// Creates the instance for `subtask` of `parallelism`.
    fn create(&self, subtask: usize, parallelism: usize) -> Box<dyn SourceFunction<T>>;

    /// Display name used in execution plans.
    fn name(&self) -> String {
        "Source: Custom Source".to_string()
    }
}

/// In-memory source for tests and examples: subtask `i` emits the elements
/// at indices `i, i + p, i + 2p, …`.
#[derive(Debug, Clone)]
pub struct VecSource<T> {
    items: Arc<Vec<T>>,
}

impl<T> VecSource<T> {
    /// Creates a source over `items`.
    pub fn new(items: Vec<T>) -> Self {
        VecSource {
            items: Arc::new(items),
        }
    }
}

struct VecSourceInstance<T> {
    items: Arc<Vec<T>>,
    subtask: usize,
    parallelism: usize,
}

impl<T: Clone + Send + Sync + 'static> ParallelSource<T> for VecSource<T> {
    fn create(&self, subtask: usize, parallelism: usize) -> Box<dyn SourceFunction<T>> {
        Box::new(VecSourceInstance {
            items: self.items.clone(),
            subtask,
            parallelism,
        })
    }
}

impl<T: Clone + Send + Sync> SourceFunction<T> for VecSourceInstance<T> {
    fn run(&mut self, out: &mut dyn Collector<T>) {
        // Emitted in reused batches so the chain runs batch-at-a-time.
        const BATCH: usize = 1024;
        let mut batch = Vec::with_capacity(BATCH.min(self.items.len()));
        let mut i = self.subtask;
        while i < self.items.len() {
            batch.push(self.items[i].clone());
            if batch.len() == BATCH {
                out.collect_batch(&mut batch);
            }
            i += self.parallelism;
        }
        if !batch.is_empty() {
            out.collect_batch(&mut batch);
        }
    }
}

/// Source reading a `logbus` topic through the workspace's one read
/// drive, [`GroupedReader::next_batch`].
///
/// The subtasks form a **consumer group**: each instance joins the
/// broker's group coordinator under a source-wide group name, and the
/// sticky rebalance protocol decides which partitions each subtask owns —
/// members joining or leaving mid-run hand partitions over with their
/// committed positions, so no record is lost or read twice. Reads stop at
/// the offsets that were current when the job started, or, after
/// [`BrokerSource::follow_until`], once the subtasks together have
/// emitted the target.
#[derive(Debug, Clone)]
pub struct BrokerSource {
    bus: BusHandle,
    topic: String,
    fetch_size: usize,
    /// Shared by every subtask, so they stop at the target together.
    follow: Option<FollowTarget>,
    group: String,
}

impl BrokerSource {
    /// Creates a source reading all partitions of `topic`, with the
    /// subtasks coordinating through an auto-named consumer group.
    /// Accepts a [`Broker`](logbus::Broker), a
    /// [`Cluster`](logbus::Cluster), or an existing [`BusHandle`]; on a
    /// cluster the reads ride through broker failover.
    pub fn new(bus: impl Into<BusHandle>, topic: impl Into<String>) -> Self {
        BrokerSource {
            bus: bus.into(),
            topic: topic.into(),
            fetch_size: 2048,
            follow: None,
            group: GroupedReader::fresh_group("rill-src"),
        }
    }

    /// Sets the per-fetch batch size.
    pub fn fetch_size(mut self, records: usize) -> Self {
        self.fetch_size = records.max(1);
        self
    }

    /// Names the consumer group explicitly (e.g. to share committed
    /// offsets across job restarts).
    pub fn consumer_group(mut self, name: impl Into<String>) -> Self {
        self.group = name.into();
        self
    }

    /// Keeps reading past the offsets current at job start until
    /// `records` records have been emitted across all subtasks — a
    /// bounded tail read over a topic that is still being produced to.
    pub fn follow_until(mut self, records: u64) -> Self {
        self.follow = Some(FollowTarget::new(records));
        self
    }
}

impl ParallelSource<Bytes> for BrokerSource {
    fn create(&self, _subtask: usize, _parallelism: usize) -> Box<dyn SourceFunction<Bytes>> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!("Source: Broker topic `{}`", self.topic)
    }
}

impl SourceFunction<Bytes> for BrokerSource {
    fn run(&mut self, out: &mut dyn Collector<Bytes>) {
        let (bus, topic, group) = (self.bus.clone(), &self.topic, &self.group);
        let reader = match self.follow.clone() {
            Some(target) => GroupedReader::following(bus, topic, group, target),
            None => GroupedReader::bounded(bus, topic, group),
        };
        let Ok(mut reader) = reader else {
            return;
        };
        // The fetched batch goes downstream whole, in a reused buffer.
        let mut payloads: Vec<Bytes> = Vec::with_capacity(self.fetch_size);
        while reader
            .next_batch(self.fetch_size, &mut |_partition, stored| {
                payloads.push(stored.record.value);
            })
            .is_some()
        {
            out.collect_batch(&mut payloads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::VecCollector;
    use logbus::{Broker, Record, TopicConfig};
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicU64;

    fn collect_all<T, S: ParallelSource<T>>(source: &S, parallelism: usize) -> Vec<Vec<T>>
    where
        T: Send + 'static,
    {
        (0..parallelism)
            .map(|i| {
                let items = Arc::new(Mutex::new(Vec::new()));
                let closed = Arc::new(AtomicU64::new(0));
                let mut col = VecCollector::new(items.clone(), closed);
                source.create(i, parallelism).run(&mut col);
                let items = items.lock().drain(..).collect::<Vec<T>>();
                items
            })
            .collect()
    }

    #[test]
    fn vec_source_splits_round_robin() {
        let source = VecSource::new(vec![0, 1, 2, 3, 4]);
        let parts = collect_all(&source, 2);
        assert_eq!(parts[0], vec![0, 2, 4]);
        assert_eq!(parts[1], vec![1, 3]);
    }

    #[test]
    fn broker_source_reads_bounded() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        let records = (0..100).map(|i| Record::from_value(format!("r{i}")));
        broker.produce_batch("in", 0, records.collect()).unwrap();

        let source = BrokerSource::new(broker.clone(), "in").fetch_size(7);
        let parts = collect_all(&source, 1);
        assert_eq!(parts[0].len(), 100);
        assert_eq!(&parts[0][99][..], b"r99");
    }

    #[test]
    fn broker_source_single_partition_leaves_subtask_idle() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        broker.produce("in", 0, Record::from_value("only")).unwrap();
        let source = BrokerSource::new(broker, "in");
        let parts = collect_all(&source, 2);
        assert_eq!(parts[0].len(), 1, "subtask 0 owns the single partition");
        assert!(parts[1].is_empty(), "subtask 1 has no partition to read");
    }

    fn partitioned_input(partitions: u32, per_partition: usize) -> Broker {
        let broker = Broker::new();
        broker
            .create_topic("in", TopicConfig::default().partitions(partitions))
            .unwrap();
        for p in 0..partitions {
            for i in 0..per_partition {
                broker
                    .produce("in", p, Record::from_value(format!("p{p}-{i}")))
                    .unwrap();
            }
        }
        broker
    }

    /// Runs the subtasks of `source` on one thread each; returns the
    /// distinct payloads and the total number emitted.
    fn run_concurrently(source: &BrokerSource, parallelism: usize) -> (usize, usize) {
        let items = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..parallelism)
            .map(|subtask| {
                let mut instance = source.create(subtask, parallelism);
                let items = items.clone();
                std::thread::spawn(move || {
                    let closed = Arc::new(AtomicU64::new(0));
                    let mut col = VecCollector::new(items, closed);
                    instance.run(&mut col);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let mut seen: Vec<Vec<u8>> = items.lock().iter().map(bytes::Bytes::to_vec).collect();
        let total = seen.len();
        seen.sort();
        seen.dedup();
        (seen.len(), total)
    }

    #[test]
    fn broker_source_multi_partition_split() {
        // The sequential harness makes no per-subtask ownership promise
        // (the first member may drain everything before the second
        // joins), but the group as a whole reads each record exactly once.
        let source = BrokerSource::new(partitioned_input(3, 10), "in");
        let parts = collect_all(&source, 2);
        let mut seen: Vec<Vec<u8>> = parts
            .iter()
            .flat_map(|p| p.iter().map(bytes::Bytes::to_vec))
            .collect();
        assert_eq!(seen.len(), 30);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 30, "group reads every record exactly once");
    }

    #[test]
    fn concurrent_group_members_share_the_topic_exactly_once() {
        let source = BrokerSource::new(partitioned_input(4, 25), "in").fetch_size(7);
        assert_eq!(
            run_concurrently(&source, 2),
            (100, 100),
            "two live members drain 100 unique records"
        );
    }

    #[test]
    fn follow_source_stops_at_target_with_extra_records() {
        // The default fetch size is far above what is left of the target.
        for parallelism in [1, 2] {
            let broker = partitioned_input(parallelism as u32, 20);
            let source = BrokerSource::new(broker, "in").follow_until(12);
            assert_eq!(
                run_concurrently(&source, parallelism),
                (12, 12),
                "target reached ends the read at parallelism {parallelism}"
            );
        }
    }

    #[test]
    fn follow_source_gets_all_records_from_slow_producer() {
        let broker = Broker::new();
        broker.create_topic("in", TopicConfig::default()).unwrap();
        let producer_broker = broker.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..40 {
                producer_broker
                    .produce("in", 0, Record::from_value(format!("r{i}")))
                    .unwrap();
                if i % 8 == 0 {
                    // Leave the source caught up so it has to back off.
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
            }
        });
        let source = BrokerSource::new(broker, "in")
            .fetch_size(5)
            .follow_until(40);
        let items = Arc::new(Mutex::new(Vec::new()));
        let closed = Arc::new(AtomicU64::new(0));
        let mut col = VecCollector::new(items.clone(), closed);
        source.create(0, 1).run(&mut col);
        producer.join().unwrap();
        let collected = items.lock();
        assert_eq!(collected.len(), 40, "a slow producer loses no records");
        assert_eq!(&collected[39][..], b"r39", "order preserved");
    }

    #[test]
    fn source_names() {
        let broker = Broker::new();
        assert_eq!(
            ParallelSource::<Bytes>::name(&BrokerSource::new(broker, "x")),
            "Source: Broker topic `x`"
        );
        assert_eq!(
            ParallelSource::<i32>::name(&VecSource::new(vec![1])),
            "Source: Custom Source"
        );
    }
}
