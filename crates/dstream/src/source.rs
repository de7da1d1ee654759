//! Micro-batch sources.

use bytes::Bytes;
use logbus::{AssignmentStrategy, BusHandle, GroupedReader};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Monotonic suffix for auto-generated consumer-group names.
static NEXT_GROUP_ID: AtomicU64 = AtomicU64::new(0);

/// Reads a `logbus` topic in micro-batches (Spark's Kafka direct stream):
/// each call fetches up to `max_batch_records` across the partitions this
/// source's consumer-group member owns, ending at the offsets current
/// when the source was created — or, in follow mode
/// ([`BrokerBatchSource::following`]), tailing the topic until a target
/// record count has been emitted.
///
/// Every source is a member of a consumer group (auto-named per source;
/// [`BrokerBatchSource::new_in_group`] places several sources in one
/// shared group so parallel micro-batch instances split the topic via
/// the coordinator's rebalance protocol). Ownership changes mid-run hand
/// positions over through committed offsets, so the group as a whole
/// reads the topic exactly once.
#[derive(Debug)]
pub struct BrokerBatchSource {
    max_batch_records: usize,
    reader: GroupedReader,
    follow: Option<FollowState>,
}

/// Tailing state: keep polling (ends refreshed each call) until `target`
/// records have been emitted across all partitions.
#[derive(Debug)]
struct FollowState {
    target: u64,
    emitted: u64,
}

/// How long a follow-mode source waits without any new record before
/// concluding the producer is gone and ending the stream — the escape
/// hatch that keeps a stalled latency run from hanging the driver.
const FOLLOW_STALL_LIMIT: std::time::Duration = std::time::Duration::from_secs(10);

impl BrokerBatchSource {
    /// Creates a bounded micro-batch reader over `topic`, joining a
    /// fresh single-member consumer group.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist.
    pub fn new(
        bus: impl Into<BusHandle>,
        topic: impl Into<String>,
        max_batch_records: usize,
    ) -> logbus::Result<Self> {
        let group = format!(
            "dstream-src-{}",
            NEXT_GROUP_ID.fetch_add(1, Ordering::Relaxed)
        );
        Self::new_in_group(bus, topic, max_batch_records, group)
    }

    /// Creates a bounded micro-batch reader that joins the named
    /// consumer group — parallel sources sharing a group split the
    /// topic's partitions via the coordinator.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist.
    pub fn new_in_group(
        bus: impl Into<BusHandle>,
        topic: impl Into<String>,
        max_batch_records: usize,
        group: impl Into<String>,
    ) -> logbus::Result<Self> {
        let reader = GroupedReader::bounded(bus, topic, group, AssignmentStrategy::Range)?;
        Ok(BrokerBatchSource {
            max_batch_records: max_batch_records.max(1),
            reader,
            follow: None,
        })
    }

    /// Creates a tailing micro-batch reader: instead of stopping at the
    /// offsets current at creation, `next_batch` keeps polling (ends
    /// refreshed every call, with [`logbus::Backoff`] while caught up)
    /// until `target_records` records have been emitted. Blocking inside
    /// `next_batch` is the backpressure: the micro-batch driver is
    /// throttled to the producer's rate instead of spinning on empty
    /// batches or buffering without bound.
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
        let group = format!(
            "dstream-src-{}",
            NEXT_GROUP_ID.fetch_add(1, Ordering::Relaxed)
        );
        Self::following_in_group(bus, topic, max_batch_records, target_records, group)
    }

    /// Follow-mode reader joining the named consumer group.
    ///
    /// # Errors
    ///
    /// Fails when the topic does not exist.
    pub fn following_in_group(
        bus: impl Into<BusHandle>,
        topic: impl Into<String>,
        max_batch_records: usize,
        target_records: u64,
        group: impl Into<String>,
    ) -> logbus::Result<Self> {
        let reader = GroupedReader::following(bus, topic, group, AssignmentStrategy::Range)?;
        Ok(BrokerBatchSource {
            max_batch_records: max_batch_records.max(1),
            reader,
            follow: Some(FollowState {
                target: target_records,
                emitted: 0,
            }),
        })
    }

    /// Follow-mode batch: poll (refreshing ends) until data arrives, the
    /// target is reached, or the producer stalls past
    /// [`FOLLOW_STALL_LIMIT`].
    fn following_batch(&mut self) -> Option<Vec<Bytes>> {
        let follow = self.follow.as_mut()?;
        if follow.emitted >= follow.target {
            let _ = self.reader.leave();
            return None;
        }
        let mut backoff = logbus::Backoff::new();
        let started = std::time::Instant::now();
        loop {
            let _ = self.reader.poll_rebalance();
            // Records appended after creation are part of a followed
            // stream: refresh the per-partition ends every poll.
            self.reader.refresh_ends();
            let cap = self
                .max_batch_records
                .min((follow.target - follow.emitted) as usize)
                .max(1);
            let mut batch = Vec::with_capacity(cap.min(1024));
            self.reader
                .fetch_pass(cap, &mut |_p, stored| batch.push(stored.record.value));
            if !batch.is_empty() {
                follow.emitted += batch.len() as u64;
                // Commit so an ownership handover resumes past what this
                // member already emitted.
                let _ = self.reader.commit();
                return Some(batch);
            }
            if started.elapsed() >= FOLLOW_STALL_LIMIT {
                // No producer progress for the whole stall window: end
                // the stream instead of hanging the job.
                let _ = self.reader.leave();
                return None;
            }
            backoff.snooze();
        }
    }
}

impl BatchSource<Bytes> for BrokerBatchSource {
    fn next_batch(&mut self) -> Option<Vec<Bytes>> {
        if self.follow.is_some() {
            return self.following_batch();
        }
        let mut batch = Vec::with_capacity(self.max_batch_records.min(1024));
        self.reader
            .next_batch(
                self.max_batch_records,
                FOLLOW_STALL_LIMIT,
                &mut |_p, stored| {
                    batch.push(stored.record.value);
                },
            )
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
    fn grouped_sources_split_topic_exactly_once() {
        let broker = Broker::new();
        broker
            .create_topic("t", TopicConfig::default().partitions(4))
            .unwrap();
        for p in 0..4 {
            for i in 0..20 {
                broker
                    .produce("t", p, Record::from_value(format!("p{p}-{i}")))
                    .unwrap();
            }
        }
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let broker = broker.clone();
                std::thread::spawn(move || {
                    let mut source =
                        BrokerBatchSource::new_in_group(broker, "t", 16, "dstream-shared").unwrap();
                    let mut all = Vec::new();
                    while let Some(batch) = source.next_batch() {
                        all.extend(batch);
                    }
                    all
                })
            })
            .collect();
        let mut all: Vec<Vec<u8>> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .map(|b| b.to_vec())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 80, "the group reads every record exactly once");
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
