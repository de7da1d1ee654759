//! Sources: where elements enter a job.

use crate::operator::Collector;
use bytes::Bytes;
use logbus::{AssignmentStrategy, BusHandle, Consumer, ConsumerConfig, StoredRecord};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A bounded group read that makes no progress for this long gives up —
/// the connector-path guard against a peer that died mid-handover.
const GROUP_STALL_LIMIT: std::time::Duration = std::time::Duration::from_secs(10);

/// Process-wide counters for auto-generated group and member names.
static NEXT_GROUP_ID: AtomicU64 = AtomicU64::new(0);

/// Bounded exponential backoff for idle polls, shared with every engine
/// connector through `logbus` (see [`logbus::Backoff`]): spin, then
/// yield, then capped sleeps, with `reset` re-arming the fast path after
/// progress.
pub use logbus::Backoff;

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
/// Instances must divide the input among themselves using
/// `(subtask, parallelism)` — e.g. [`BrokerSource`] assigns topic
/// partitions round-robin, so with more subtasks than partitions the extra
/// subtasks emit nothing (exactly Flink's Kafka source behaviour, and the
/// reason the paper sees little benefit from parallelism 2 on a
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

/// Bounded source reading a `logbus` topic.
///
/// By default the subtasks form a **consumer group**: each instance joins
/// the broker's group coordinator under a source-wide group name, and the
/// sticky rebalance protocol decides which partitions each subtask owns —
/// members joining or leaving mid-run hand partitions over with their
/// committed positions, so no record is lost or read twice. Reads stop at
/// the offsets that were current when the job started.
/// [`BrokerSource::static_assignment`] opts out, reverting to the fixed
/// `partition % parallelism == subtask` split.
#[derive(Debug, Clone)]
pub struct BrokerSource {
    bus: BusHandle,
    topic: String,
    fetch_size: usize,
    follow: Option<FollowMode>,
    group: Option<GroupSpec>,
}

/// Consumer-group configuration shared by all subtasks of one source.
#[derive(Debug, Clone)]
struct GroupSpec {
    name: String,
    strategy: AssignmentStrategy,
}

/// Tailing configuration: instead of stopping at the offsets current at
/// job start, the source polls until `target` records have been emitted
/// across all subtasks, backing off while caught up with the producer.
#[derive(Debug, Clone)]
struct FollowMode {
    target: u64,
    emitted: Arc<AtomicU64>,
}

impl BrokerSource {
    /// Creates a source reading all partitions of `topic`, with the
    /// subtasks coordinating through an auto-named consumer group.
    /// Accepts a [`Broker`](logbus::Broker), a
    /// [`Cluster`](logbus::Cluster), or an existing [`BusHandle`]; on a
    /// cluster the reads ride through broker failover.
    pub fn new(bus: impl Into<BusHandle>, topic: impl Into<String>) -> Self {
        let group = format!("rill-src-{}", NEXT_GROUP_ID.fetch_add(1, Ordering::Relaxed));
        BrokerSource {
            bus: bus.into(),
            topic: topic.into(),
            fetch_size: 2048,
            follow: None,
            group: Some(GroupSpec {
                name: group,
                strategy: AssignmentStrategy::Range,
            }),
        }
    }

    /// Sets the per-fetch batch size.
    pub fn fetch_size(mut self, records: usize) -> Self {
        self.fetch_size = records.max(1);
        self
    }

    /// Names the consumer group explicitly (e.g. to share committed
    /// offsets across job restarts) and picks the assignment strategy.
    pub fn consumer_group(mut self, name: impl Into<String>, strategy: AssignmentStrategy) -> Self {
        self.group = Some(GroupSpec {
            name: name.into(),
            strategy,
        });
        self
    }

    /// Disables group coordination: subtask `i` of `p` reads exactly the
    /// partitions with `partition % p == i`, with no rebalancing.
    pub fn static_assignment(mut self) -> Self {
        self.group = None;
        self
    }

    /// Keeps polling (with [`Backoff`]) until `records` records have been
    /// emitted across all subtasks — a bounded tail read over a topic
    /// that is still being produced to.
    pub fn follow_until(mut self, records: u64) -> Self {
        self.follow = Some(FollowMode {
            target: records,
            emitted: Arc::new(AtomicU64::new(0)),
        });
        self
    }
}

struct BrokerSourceInstance {
    bus: BusHandle,
    topic: String,
    fetch_size: usize,
    partitions: Vec<u32>,
    follow: Option<FollowMode>,
    group: Option<GroupSpec>,
}

impl ParallelSource<Bytes> for BrokerSource {
    fn create(&self, subtask: usize, parallelism: usize) -> Box<dyn SourceFunction<Bytes>> {
        // Static fallback split; group mode lets the coordinator assign
        // partitions instead.
        let total = self.bus.partition_count(&self.topic).unwrap_or(0);
        let partitions = (0..total)
            .filter(|p| (*p as usize) % parallelism == subtask)
            .collect();
        Box::new(BrokerSourceInstance {
            bus: self.bus.clone(),
            topic: self.topic.clone(),
            fetch_size: self.fetch_size,
            partitions,
            follow: self.follow.clone(),
            group: self.group.clone(),
        })
    }

    fn name(&self) -> String {
        format!("Source: Broker topic `{}`", self.topic)
    }
}

impl SourceFunction<Bytes> for BrokerSourceInstance {
    fn run(&mut self, out: &mut dyn Collector<Bytes>) {
        match (self.group.clone(), self.follow.clone()) {
            (Some(spec), None) => self.run_bounded_group(&spec, out),
            (Some(spec), Some(follow)) => self.run_following_group(&spec, &follow, out),
            (None, None) => self.run_bounded(out),
            (None, Some(follow)) => self.run_following(&follow, out),
        }
    }
}

impl BrokerSourceInstance {
    /// Builds the group-mode consumer for this instance and joins the
    /// source's consumer group.
    fn join_group(&self, spec: &GroupSpec) -> Option<Consumer> {
        let mut consumer = Consumer::with_config(
            self.bus.clone(),
            ConsumerConfig {
                group: Some(spec.name.clone()),
                max_poll_records: self.fetch_size.max(1),
                ..ConsumerConfig::default()
            },
        );
        consumer
            .subscribe_group(&[&self.topic], spec.strategy)
            .ok()?;
        Some(consumer)
    }

    /// Bounded group read: members drain the partitions the coordinator
    /// assigns them, committing positions as they go. A member is done
    /// when **every** partition of the topic is committed past the end
    /// offset captured at start — not merely its own share, because a
    /// rebalance may retarget partitions mid-run and the work only
    /// finishes when the group collectively drains the topic.
    fn run_bounded_group(&mut self, spec: &GroupSpec, out: &mut dyn Collector<Bytes>) {
        let retry = logbus::RetryPolicy::default();
        let Ok(total) = logbus::with_retry(&retry, || self.bus.partition_count(&self.topic)) else {
            return;
        };
        // End offsets current at start: the bounded read's finish line.
        let mut ends = Vec::with_capacity(total as usize);
        for p in 0..total {
            let Ok(end) = logbus::with_retry(&retry, || self.bus.latest_offset(&self.topic, p))
            else {
                return;
            };
            ends.push(end);
        }
        let Some(mut consumer) = self.join_group(spec) else {
            return;
        };
        let mut batch: Vec<StoredRecord> = Vec::with_capacity(self.fetch_size);
        let mut payloads: Vec<Bytes> = Vec::with_capacity(self.fetch_size);
        let mut backoff = Backoff::new();
        let mut last_progress = std::time::Instant::now();
        loop {
            let polled = consumer.poll_into(self.fetch_size, &mut batch).unwrap_or(0);
            if polled > 0 {
                payloads.extend(batch.drain(..).map(|stored| stored.record.value));
                out.collect_batch(&mut payloads);
                // Commit after emitting so a peer resuming from the
                // committed position never re-reads what went downstream.
                let _ = consumer.commit();
                backoff.reset();
                last_progress = std::time::Instant::now();
                continue;
            }
            let _ = consumer.commit();
            let drained = (0..total as usize).all(|p| {
                self.bus
                    .committed_offset(&spec.name, &self.topic, p as u32)
                    .unwrap_or(0)
                    >= ends[p]
            });
            if drained || last_progress.elapsed() > GROUP_STALL_LIMIT {
                break;
            }
            // Caught up but the group is not done (a peer still owns an
            // undrained partition, or our claim is pending) — back off.
            backoff.snooze();
        }
        let _ = consumer.leave_group();
    }

    /// Tailing group read: like [`BrokerSourceInstance::run_following`],
    /// with the coordinator deciding partition ownership. Positions hand
    /// over through commits on revoke, so the shared emitted count never
    /// double-counts a record across a rebalance.
    fn run_following_group(
        &mut self,
        spec: &GroupSpec,
        follow: &FollowMode,
        out: &mut dyn Collector<Bytes>,
    ) {
        let Some(mut consumer) = self.join_group(spec) else {
            return;
        };
        let mut batch: Vec<StoredRecord> = Vec::with_capacity(self.fetch_size);
        let mut payloads: Vec<Bytes> = Vec::with_capacity(self.fetch_size);
        let mut backoff = Backoff::new();
        while follow.emitted.load(Ordering::SeqCst) < follow.target {
            let polled = consumer.poll_into(self.fetch_size, &mut batch).unwrap_or(0);
            if polled > 0 {
                follow.emitted.fetch_add(polled as u64, Ordering::SeqCst);
                payloads.extend(batch.drain(..).map(|stored| stored.record.value));
                out.collect_batch(&mut payloads);
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
        let _ = consumer.leave_group();
    }

    /// Bounded read: stop at the per-partition offsets current at start.
    fn run_bounded(&mut self, out: &mut dyn Collector<Bytes>) {
        // One cached partition handle per assigned partition and one fetch
        // buffer reused across every fetch: the read loop resolves the
        // topic name once, not once per request. The payload buffer is
        // reused too — the already-fetched batch goes downstream whole.
        let mut batch = Vec::with_capacity(self.fetch_size);
        let mut payloads: Vec<Bytes> = Vec::with_capacity(self.fetch_size);
        let retry = logbus::RetryPolicy::default();
        for &partition in &self.partitions {
            // Resolution and the end-offset lookup retry through transient
            // broker faults; only a genuinely missing partition is skipped.
            let Ok(reader) =
                logbus::with_retry(&retry, || self.bus.partition_reader(&self.topic, partition))
            else {
                continue;
            };
            let Ok(end) = reader.latest_offset() else {
                continue;
            };
            let mut offset = reader.earliest_offset().unwrap_or(0);
            while offset < end {
                let max = self.fetch_size.min((end - offset) as usize);
                batch.clear();
                let Ok(appended) = reader.fetch_into(offset, max, &mut batch) else {
                    break;
                };
                if appended == 0 {
                    break;
                }
                // `appended > 0` was checked, but guard instead of panic
                // on the connector path.
                let Some(last) = batch.last() else {
                    break;
                };
                offset = last.offset + 1;
                payloads.extend(batch.drain(..).map(|stored| stored.record.value));
                out.collect_batch(&mut payloads);
            }
        }
    }

    /// Tailing read: poll every assigned partition until the shared
    /// emitted count reaches the follow target, backing off exponentially
    /// while caught up with the producer instead of spinning on empty
    /// fetches.
    fn run_following(&mut self, follow: &FollowMode, out: &mut dyn Collector<Bytes>) {
        let mut cursors = Vec::new();
        let retry = logbus::RetryPolicy::default();
        for &partition in &self.partitions {
            let Ok(reader) =
                logbus::with_retry(&retry, || self.bus.partition_reader(&self.topic, partition))
            else {
                continue;
            };
            let position = reader.earliest_offset().unwrap_or(0);
            cursors.push((reader, position));
        }
        if cursors.is_empty() {
            return;
        }
        let mut batch = Vec::with_capacity(self.fetch_size);
        let mut payloads: Vec<Bytes> = Vec::with_capacity(self.fetch_size);
        let mut backoff = Backoff::new();
        while follow.emitted.load(Ordering::SeqCst) < follow.target {
            let mut progressed = false;
            for (reader, position) in &mut cursors {
                batch.clear();
                let Ok(appended) = reader.fetch_into(*position, self.fetch_size, &mut batch) else {
                    continue;
                };
                if appended == 0 {
                    continue;
                }
                // Guard instead of panic on the connector path; an empty
                // batch after `appended > 0` cannot happen.
                let Some(last) = batch.last() else {
                    continue;
                };
                *position = last.offset + 1;
                follow.emitted.fetch_add(appended as u64, Ordering::SeqCst);
                payloads.extend(batch.drain(..).map(|stored| stored.record.value));
                out.collect_batch(&mut payloads);
                progressed = true;
            }
            if progressed {
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
    }
}

/// A source that drains a shared queue; lets tests feed a running job.
#[derive(Debug, Clone)]
pub struct QueueSource<T> {
    queue: Arc<Mutex<Vec<T>>>,
}

impl<T> QueueSource<T> {
    /// Creates a source over a shared queue. Only subtask 0 drains it.
    pub fn new(queue: Arc<Mutex<Vec<T>>>) -> Self {
        QueueSource { queue }
    }
}

struct QueueSourceInstance<T> {
    queue: Arc<Mutex<Vec<T>>>,
    active: bool,
}

impl<T: Send + Sync + 'static> ParallelSource<T> for QueueSource<T> {
    fn create(&self, subtask: usize, _parallelism: usize) -> Box<dyn SourceFunction<T>> {
        Box::new(QueueSourceInstance {
            queue: self.queue.clone(),
            active: subtask == 0,
        })
    }
}

impl<T: Send + Sync> SourceFunction<T> for QueueSourceInstance<T> {
    fn run(&mut self, out: &mut dyn Collector<T>) {
        if !self.active {
            return;
        }
        let mut drained: Vec<T> = std::mem::take(&mut *self.queue.lock());
        out.collect_batch(&mut drained);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::VecCollector;
    use logbus::{Broker, Producer, Record, TopicConfig};
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
        let mut producer = Producer::new(broker.clone());
        for i in 0..100 {
            producer
                .send("in", Record::from_value(format!("r{i}")))
                .unwrap();
        }
        producer.flush().unwrap();

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

    #[test]
    fn broker_source_multi_partition_split() {
        let broker = Broker::new();
        broker
            .create_topic("in", TopicConfig::default().partitions(3))
            .unwrap();
        for p in 0..3 {
            for i in 0..10 {
                broker
                    .produce("in", p, Record::from_value(format!("p{p}-{i}")))
                    .unwrap();
            }
        }
        // Static assignment splits by `partition % parallelism`.
        let source = BrokerSource::new(broker.clone(), "in").static_assignment();
        let parts = collect_all(&source, 2);
        assert_eq!(parts[0].len(), 20, "partitions 0 and 2");
        assert_eq!(parts[1].len(), 10, "partition 1");

        // Group mode makes no per-subtask ownership promise under the
        // sequential harness (the first member may drain everything), but
        // the group as a whole reads each record exactly once.
        let grouped = BrokerSource::new(broker, "in");
        let parts = collect_all(&grouped, 2);
        let mut seen: Vec<Vec<u8>> = parts
            .iter()
            .flat_map(|p| p.iter().map(bytes::Bytes::to_vec))
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 30, "group reads every record exactly once");
    }

    #[test]
    fn concurrent_group_members_share_the_topic_exactly_once() {
        let broker = Broker::new();
        broker
            .create_topic("in", TopicConfig::default().partitions(4))
            .unwrap();
        for p in 0..4 {
            for i in 0..25 {
                broker
                    .produce("in", p, Record::from_value(format!("p{p}-{i}")))
                    .unwrap();
            }
        }
        let source = BrokerSource::new(broker, "in").fetch_size(7);
        let items = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..2)
            .map(|subtask| {
                let mut instance = source.create(subtask, 2);
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
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 100, "two live members drain 100 unique records");
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
    fn queue_source_only_subtask_zero() {
        let queue = Arc::new(Mutex::new(vec![1, 2, 3]));
        let source = QueueSource::new(queue);
        let parts = collect_all(&source, 2);
        assert_eq!(parts[0].len() + parts[1].len(), 3);
        assert!(parts[1].is_empty());
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
