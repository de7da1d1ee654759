//! Cached partition handles — the one client API for produce and
//! fetch — and the one produce request they run.
//!
//! A steady-state pipeline produces to and fetches from the same
//! partition millions of times, so a handle names its partition once.
//! [`PartitionWriter`] and [`PartitionReader`] are obtained from a
//! [`Broker`], a [`Cluster`], or any [`Bus`](crate::Bus), and hold what
//! `(topic, partition)` resolved to — the `Arc<Topic>` on a broker, the
//! partition's route (replica set, election state, each replica's log)
//! on a cluster — so no request hashes the topic name, takes the map
//! lock or clones an `Arc`. Every produce runs [`WriteTarget::request`]
//! and every fetch the broker read request, *including* the simulated
//! network round trip ([`Broker::set_request_latency_micros`]) that
//! models the paper's remote Kafka cluster, inside the handle's
//! client-side retry loop.
//!
//! Handles pin their topic: like a Kafka client with cached metadata,
//! a broker handle keeps appending to (or reading from) the log it
//! resolved, even if the topic is deleted from the broker's name map
//! afterwards. [`Broker::has_topic`] remains the source of truth for
//! topic existence.

use crate::broker::Broker;
use crate::cluster::{Cluster, PartitionRoute};
use crate::config::Acks;
use crate::error::{Error, Result};
use crate::fault::{FaultAction, FaultOp};
use crate::record::{Record, StoredRecord};
use crate::retry::{with_retry, RetryPolicy};
use crate::topic::{spin_delay, Topic};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide idempotent-producer id source.
static NEXT_PRODUCER_ID: AtomicU64 = AtomicU64::new(1);

/// Sequence state of one idempotent writer: a process-unique producer id
/// plus the next batch sequence number. Shared (`Arc`) by writer clones,
/// which therefore count as the same producer.
#[derive(Debug)]
pub(crate) struct Sequencer {
    producer_id: u64,
    next_seq: AtomicU64,
}

impl Sequencer {
    fn new() -> Self {
        Sequencer {
            producer_id: NEXT_PRODUCER_ID.fetch_add(1, Ordering::Relaxed),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Reserves `n` sequence numbers, returning the first. Retries of
    /// the same batch reuse the reserved number, which is what lets the
    /// broker deduplicate them.
    fn reserve(&self, n: u64) -> (u64, u64) {
        (
            self.producer_id,
            self.next_seq.fetch_add(n, Ordering::Relaxed),
        )
    }
}

/// Where one produce request lands: the hosting broker (for its
/// liveness, clock, simulated request latency, and fault plan) and the
/// log it hosts.
#[derive(Debug)]
pub(crate) struct WriteTarget<'a> {
    pub(crate) broker: &'a Broker,
    pub(crate) topic: &'a Topic,
    /// Leader epoch the request was resolved at; the append is rejected
    /// once an election bumps the partition past it. `None` on a single
    /// broker, which has no elections to fence against.
    pub(crate) fence: Option<u64>,
}

impl WriteTarget<'_> {
    /// The one produce request: liveness → the produce fault gate → the
    /// one [`Topic`] append (lock → round trip → fence → dedup → stamp →
    /// batch append). Reads `records` by reference, on the faulted arms
    /// as on the clean one, so no path clones a record; clearing the
    /// caller's buffer is [`WriteTarget::append_batch`]'s, or the
    /// cluster's once the followers have judged the request.
    pub(crate) fn request(
        &self,
        partition: u32,
        records: &[Record],
        seq: Option<(u64, u64)>,
    ) -> Result<u64> {
        let broker = self.broker;
        broker.ensure_alive()?;
        let append = || {
            self.topic.append_request(
                partition,
                records,
                broker.now(),
                broker.request_delay(),
                seq,
                self.fence,
            )
        };
        match broker.fault_action(FaultOp::Produce, self.topic.name(), partition) {
            None => {}
            Some(FaultAction::Latency(extra)) => spin_delay(extra),
            Some(FaultAction::Error(e)) => return Err(e),
            Some(FaultAction::AckLost) => {
                // The append reaches the log but the ack is lost; the
                // caller's records stay put for the resend, which
                // duplicates them unless the writer is sequenced.
                let _ = append();
                return Err(Error::RequestTimedOut);
            }
            Some(FaultAction::Duplicate) => {
                let offset = append()?;
                // Sequenced writers dedup this broker-side; plain ones
                // genuinely get the batch twice.
                let _ = append();
                return Ok(offset);
            }
        }
        append()
    }

    /// [`WriteTarget::request`], then the drained-Vec contract: on
    /// success, a deduplicated retry included, `records` comes back
    /// empty with its capacity intact, so steady-state producers flush
    /// the same buffer forever; on failure the records are left in place
    /// — the caller's buffer *is* the resend queue.
    pub(crate) fn append_batch(
        &self,
        partition: u32,
        records: &mut Vec<Record>,
        seq: Option<(u64, u64)>,
    ) -> Result<u64> {
        let base = self.request(partition, records, seq)?;
        records.clear();
        Ok(base)
    }
}

/// What a handle resolved its `(topic, partition)` to, once.
#[derive(Debug, Clone)]
pub(crate) enum Route {
    /// One pinned broker and its resolved topic — the single-broker
    /// path, where there are no elections and the topic stays valid.
    Direct { broker: Broker, topic: Arc<Topic> },
    /// The cluster and the partition's route. Each attempt re-picks the
    /// leader from the route's election state, so the handle survives
    /// leader changes without being rebuilt — and without resolving a
    /// name again. Appends replicate; reads observe only records below
    /// the high-watermark.
    Routed {
        cluster: Cluster,
        route: Arc<PartitionRoute>,
    },
}

impl Route {
    fn topic(&self) -> &str {
        match self {
            Route::Direct { topic, .. } => topic.name(),
            Route::Routed { route, .. } => route.topic(),
        }
    }
}

/// A produce handle bound to one partition.
///
/// Obtained via [`Broker::partition_writer`] or
/// [`Bus::partition_writer`](crate::Bus::partition_writer). Appends skip
/// the topic-name lookup entirely; on a [`Cluster`] each produce goes
/// through the replicated append — leader first, then every live
/// follower, each broker paying its own simulated round trip.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use logbus::{Broker, Record, TopicConfig};
///
/// let broker = Broker::new();
/// broker.create_topic("t", TopicConfig::default())?;
/// let writer = broker.partition_writer("t", 0)?;
/// for i in 0..100 {
///     writer.produce(Record::from_value(format!("{i}")))?;
/// }
/// assert_eq!(broker.partition_reader("t", 0)?.latest_offset()?, 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PartitionWriter {
    route: Route,
    partition: u32,
    /// Retry schedule for transient errors (fault-plan injections and
    /// failover windows).
    retry: RetryPolicy,
    /// Idempotence state; `None` for a plain at-least-once writer.
    sequencer: Option<Arc<Sequencer>>,
    /// Acknowledgement level honored by cluster-routed produces.
    acks: Acks,
}

impl PartitionWriter {
    /// A writer over a resolved route. Cluster-routed writers are
    /// safe-by-default ([`Acks::All`]).
    pub(crate) fn new(route: Route, partition: u32) -> Self {
        PartitionWriter {
            route,
            partition,
            retry: RetryPolicy::default(),
            sequencer: None,
            acks: Acks::All,
        }
    }

    /// Sets the acknowledgement level honored by cluster-routed
    /// produces: [`Acks::All`] waits for the full in-sync set,
    /// [`Acks::Leader`] returns once the leader has the records. Single-broker writers have no followers to wait
    /// for, so the level is moot there.
    #[must_use]
    pub fn with_acks(mut self, acks: Acks) -> Self {
        self.acks = acks;
        self
    }

    /// Makes the writer idempotent: appends carry a producer id and
    /// batch sequence number, and the broker deduplicates retried
    /// appends (a retry after a lost ack returns the original offset
    /// instead of appending again) — Kafka's
    /// `enable.idempotence`. Clones of an idempotent writer share its
    /// sequence state.
    #[must_use]
    pub fn idempotent(mut self) -> Self {
        self.sequencer = Some(Arc::new(Sequencer::new()));
        self
    }

    /// Replaces the writer's [`RetryPolicy`].
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// The topic this writer appends to.
    pub fn topic(&self) -> &str {
        self.route.topic()
    }

    /// The partition this writer appends to.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// Appends one record — a batch of one, so it costs one request and
    /// its round trip — returning the leader's assigned offset. The
    /// pooled buffer makes the wrap allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`](crate::Error::UnknownPartition)
    /// for out-of-range partitions (only possible if the handle was built
    /// unchecked — construction validates the partition).
    pub fn produce(&self, record: Record) -> Result<u64> {
        let mut batch = crate::pool::record_vec();
        batch.push(record);
        self.produce_batch(batch)
    }

    /// Appends a batch — one broker-side append, one shared
    /// `LogAppendTime` stamp — returning the leader's base offset. The
    /// vector is recycled through the pool tier; callers holding a
    /// long-lived buffer should prefer
    /// [`PartitionWriter::produce_batch_drain`].
    ///
    /// # Errors
    ///
    /// Same as [`PartitionWriter::produce`].
    pub fn produce_batch(&self, mut records: Vec<Record>) -> Result<u64> {
        let result = self.produce_batch_drain(&mut records);
        crate::pool::recycle_record_vec(records);
        result
    }

    /// Like [`PartitionWriter::produce_batch`], but **drains** the
    /// caller's buffer: on success it comes back empty with capacity
    /// intact (the drained-Vec contract), on failure the records remain
    /// for the caller to resend. The steady-state path allocates
    /// nothing.
    ///
    /// On a cluster a leader kill surfaces as a transient error inside
    /// the retry loop, the cluster promotes an in-sync follower, and the
    /// next attempt lands on the new leader.
    ///
    /// # Errors
    ///
    /// Same as [`PartitionWriter::produce`].
    pub fn produce_batch_drain(&self, records: &mut Vec<Record>) -> Result<u64> {
        crate::telemetry::observed_produce(records, |records| {
            // Empty batches reserve no sequence numbers (a zero-length
            // reservation would collide with the next real batch).
            let seq = match (&self.sequencer, records.is_empty()) {
                (Some(s), false) => Some(s.reserve(records.len() as u64)),
                _ => None,
            };
            with_retry(&self.retry, || match &self.route {
                Route::Direct { broker, topic } => WriteTarget {
                    broker,
                    topic,
                    fence: None,
                }
                .append_batch(self.partition, records, seq),
                Route::Routed { cluster, route } => {
                    cluster.replicated_append(route, records, seq, self.acks)
                }
            })
        })
    }
}

/// A fetch handle bound to one partition.
///
/// Obtained via [`Broker::partition_reader`] or
/// [`Bus::partition_reader`](crate::Bus::partition_reader); on a
/// [`Cluster`] it reads from the partition leader, clamped to the
/// high-watermark. Reads pay the leader broker's simulated round trip
/// *without* holding any partition lock: fetches from different
/// consumers overlap, unlike same-partition produces.
#[derive(Debug, Clone)]
pub struct PartitionReader {
    route: Route,
    partition: u32,
    /// Retry schedule for transient errors (fault-plan injections and
    /// failover windows).
    retry: RetryPolicy,
}

impl PartitionReader {
    pub(crate) fn new(route: Route, partition: u32) -> Self {
        PartitionReader {
            route,
            partition,
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the reader's [`RetryPolicy`].
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// The topic this reader fetches from.
    pub fn topic(&self) -> &str {
        self.route.topic()
    }

    /// The partition this reader fetches from.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// Fetches up to `max` records from `offset` into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OffsetOutOfRange`](crate::Error::OffsetOutOfRange)
    /// past the log's end.
    pub fn fetch(&self, offset: u64, max: usize) -> Result<Vec<StoredRecord>> {
        let mut out = Vec::new();
        self.fetch_into(offset, max, &mut out)?;
        Ok(out)
    }

    /// Fetches up to `max` records from `offset`, **appending** them to
    /// `out` (the buffer is not cleared, so one buffer can accumulate a
    /// poll across partitions). Returns the number of records appended.
    ///
    /// # Errors
    ///
    /// Same as [`PartitionReader::fetch`].
    pub fn fetch_into(
        &self,
        offset: u64,
        max: usize,
        out: &mut Vec<StoredRecord>,
    ) -> Result<usize> {
        crate::telemetry::observed_fetch(|| {
            with_retry(&self.retry, || match &self.route {
                Route::Direct { broker, topic } => {
                    broker.read_request(topic, self.partition, offset, max, out)
                }
                Route::Routed { cluster, route } => {
                    cluster.committed_read_into(route, offset, max, out)
                }
            })
        })
    }

    /// One metadata request against a pinned broker.
    fn metadata_request(&self, broker: &Broker, topic: &Topic) -> Result<()> {
        broker.ensure_alive()?;
        broker.fault_gate(FaultOp::Metadata, topic.name(), self.partition)
    }

    /// Next offset to be written in the partition.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`](crate::Error::UnknownPartition)
    /// (not possible for handles built through validated construction).
    pub fn latest_offset(&self) -> Result<u64> {
        with_retry(&self.retry, || match &self.route {
            Route::Direct { broker, topic } => {
                self.metadata_request(broker, topic)?;
                topic.latest_offset(self.partition)
            }
            // Routed readers see the committed frontier: offsets past the
            // high-watermark do not exist yet from a consumer's view.
            Route::Routed { cluster, route } => cluster.committed_latest_offset(route),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::TopicConfig;
    use crate::error::Error;

    /// Appends `n` records `"0"`, `"1"`, … to partition 0 of `topic`.
    fn fill(broker: &Broker, topic: &str, n: usize) {
        let writer = broker.partition_writer(topic, 0).unwrap();
        for i in 0..n {
            writer.produce(Record::from_value(format!("{i}"))).unwrap();
        }
    }

    #[test]
    fn writers_on_one_partition_interleave() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("t", 0).unwrap();
        let other = broker.partition_writer("t", 0).unwrap();
        assert_eq!(writer.topic(), "t");
        assert_eq!(writer.partition(), 0);
        assert_eq!(writer.produce(Record::from_value("a")).unwrap(), 0);
        assert_eq!(other.produce(Record::from_value("b")).unwrap(), 1);
        assert_eq!(
            writer.produce_batch(vec![Record::from_value("c")]).unwrap(),
            2
        );
        let reader = broker.partition_reader("t", 0).unwrap();
        assert_eq!(reader.latest_offset().unwrap(), 3);
    }

    #[test]
    fn reader_matches_the_log() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        fill(&broker, "t", 10);
        let reader = broker.partition_reader("t", 0).unwrap();
        let (topic, mut log) = (broker.topic("t").unwrap(), Vec::new());
        topic.read_into(0, 3, 4, &mut log).unwrap();
        assert_eq!(reader.fetch(3, 4).unwrap(), log);
        assert_eq!(reader.latest_offset().unwrap(), 10);
    }

    #[test]
    fn fetch_into_appends_and_reuses() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        fill(&broker, "t", 6);
        let reader = broker.partition_reader("t", 0).unwrap();
        let mut buffer = Vec::new();
        assert_eq!(reader.fetch_into(0, 4, &mut buffer).unwrap(), 4);
        assert_eq!(reader.fetch_into(4, 4, &mut buffer).unwrap(), 2);
        assert_eq!(buffer.len(), 6);
        for (i, stored) in buffer.iter().enumerate() {
            assert_eq!(stored.offset, i as u64);
        }
    }

    #[test]
    fn handle_construction_validates() {
        let broker = Broker::new();
        assert!(matches!(
            broker.partition_writer("nope", 0),
            Err(Error::UnknownTopic(_))
        ));
        assert!(matches!(
            broker.partition_reader("nope", 0),
            Err(Error::UnknownTopic(_))
        ));
        broker.create_topic("t", TopicConfig::default()).unwrap();
        assert!(matches!(
            broker.partition_writer("t", 5),
            Err(Error::UnknownPartition { partition: 5, .. })
        ));
        assert!(matches!(
            broker.partition_reader("t", 5),
            Err(Error::UnknownPartition { partition: 5, .. })
        ));
    }

    #[test]
    fn cluster_writer_replicates_to_followers() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster
            .create_topic("r", TopicConfig::default().replication_factor(3))
            .unwrap();
        let writer = cluster.partition_writer("r", 0).unwrap();
        writer.produce(Record::from_value("x")).unwrap();
        writer
            .produce_batch(vec![Record::from_value("y"), Record::from_value("z")])
            .unwrap();
        for b in 0..3 {
            let replica = cluster.broker(b).partition_reader("r", 0).unwrap();
            let records = replica.fetch(0, 10).unwrap();
            assert_eq!(records.len(), 3, "broker {b} missing replicas");
        }
    }

    #[test]
    fn cluster_reader_reads_leader() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster.create_topic("t", TopicConfig::default()).unwrap();
        let writer = cluster.partition_writer("t", 0).unwrap();
        writer.produce(Record::from_value("a")).unwrap();
        let reader = cluster.partition_reader("t", 0).unwrap();
        assert_eq!(reader.fetch(0, 10).unwrap().len(), 1);
    }

    #[test]
    fn writer_pays_request_latency() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        broker.set_request_latency_micros(2_000);
        let writer = broker.partition_writer("t", 0).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..5 {
            writer.produce(Record::from_value("x")).unwrap();
        }
        assert!(start.elapsed() >= std::time::Duration::from_millis(10));
    }

    /// The obs gate is process-wide: tests that flip it take turns.
    static OBS_GATE: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn enabled_telemetry_reaches_registry() {
        let _turn = OBS_GATE.lock();
        let broker = Broker::new();
        broker.create_topic("tel", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("tel", 0).unwrap();
        let reader = broker.partition_reader("tel", 0).unwrap();
        obs::set_enabled(true);
        writer
            .produce_batch(vec![Record::from_value("a"), Record::from_value("b")])
            .unwrap();
        writer.produce(Record::from_value("c")).unwrap();
        let mut out = Vec::new();
        reader.fetch_into(0, 10, &mut out).unwrap();
        obs::set_enabled(false);
        assert_eq!(out.len(), 3);
        let snap = obs::global().registry().snapshot();
        // `>=`: other tests in this process may also have recorded.
        assert!(snap.counters["logbus.produce.records"] >= 3);
        assert!(snap.counters["logbus.fetch.records"] >= 3);
        assert!(snap.histograms["logbus.produce.micros"].count >= 2);
        assert!(snap.histograms["logbus.produce.batch_records"].max >= 2);
        assert!(snap.histograms["logbus.fetch.micros"].count >= 1);
    }

    #[test]
    fn cluster_handles_reach_registry() {
        let _turn = OBS_GATE.lock();
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster
            .create_topic("tel", TopicConfig::default().replication_factor(3))
            .unwrap();
        let count = |name: &str| {
            let snap = obs::global().registry().snapshot();
            snap.counters.get(name).copied().unwrap_or(0)
        };
        let writer = cluster.partition_writer("tel", 0).unwrap();
        let reader = cluster.partition_reader("tel", 0).unwrap();
        obs::set_enabled(true);
        let (produced, fetched) = (
            count("logbus.produce.records"),
            count("logbus.fetch.records"),
        );
        writer
            .produce_batch(vec![Record::from_value("a"), Record::from_value("b")])
            .unwrap();
        assert_eq!(reader.fetch(0, 10).unwrap().len(), 2);
        obs::set_enabled(false);
        // `>=`: other tests in this process may also have recorded. The
        // exact once-per-request count is pinned by `bench/tests/observed_once`.
        assert!(count("logbus.produce.records") >= produced + 2);
        assert!(count("logbus.fetch.records") >= fetched + 2);
    }

    fn produce_only_plan(seed: u64, ack_loss: f64, produce_error: f64) -> crate::FaultPlan {
        let mut plan = crate::FaultPlan::seeded(seed);
        plan.produce_error = produce_error;
        plan.fetch_error = 0.0;
        plan.metadata_error = 0.0;
        plan.ack_loss = ack_loss;
        plan.duplicate = 0.0;
        plan.extra_latency = 0.0;
        plan
    }

    #[test]
    fn writer_retries_through_transient_produce_errors() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("t", 0).unwrap();
        broker.install_fault_plan(produce_only_plan(9, 0.0, 0.4));
        for i in 0..200 {
            writer.produce(Record::from_value(format!("{i}"))).unwrap();
        }
        broker.clear_fault_plan();
        // Fail-before errors never touch the log: exactly one copy each.
        let reader = broker.partition_reader("t", 0).unwrap();
        assert_eq!(reader.latest_offset().unwrap(), 200);
    }

    #[test]
    fn idempotent_writer_survives_lost_acks_without_duplicates() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("t", 0).unwrap().idempotent();
        broker.install_fault_plan(produce_only_plan(10, 0.4, 0.1));
        for chunk in 0..40 {
            let batch: Vec<Record> = (0..5)
                .map(|i| Record::from_value(format!("{}", chunk * 5 + i)))
                .collect();
            writer.produce_batch(batch).unwrap();
        }
        broker.clear_fault_plan();
        let reader = broker.partition_reader("t", 0).unwrap();
        let records = reader.fetch(0, 1_000).unwrap();
        assert_eq!(records.len(), 200, "lost acks must not duplicate");
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("{i}").as_bytes());
        }
    }

    #[test]
    fn plain_writer_is_at_least_once_under_lost_acks() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = broker.partition_writer("t", 0).unwrap();
        broker.install_fault_plan(produce_only_plan(11, 0.4, 0.0));
        for i in 0..100 {
            writer.produce(Record::from_value(format!("{i}"))).unwrap();
        }
        broker.clear_fault_plan();
        let reader = broker.partition_reader("t", 0).unwrap();
        let records = reader.fetch(0, 10_000).unwrap();
        assert!(records.len() >= 100, "no record may be lost");
        let values: std::collections::HashSet<Vec<u8>> =
            records.iter().map(|r| r.record.value.to_vec()).collect();
        assert_eq!(values.len(), 100, "every record is present at least once");
        assert!(
            records.len() > 100,
            "a 40% ack-loss plan should have produced at least one duplicate"
        );
    }

    #[test]
    fn writer_drains_only_a_request_that_succeeded() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let reader = broker.partition_reader("t", 0).unwrap();
        let batch_of_two = || vec![Record::from_value("a"), Record::from_value("b")];
        // Every ack is lost, then a success is forced: the retry of the
        // same sequence number deduplicates, and the buffer drains with
        // its capacity intact.
        let mut plan = produce_only_plan(13, 1.0, 0.0);
        plan.max_consecutive = 1;
        broker.install_fault_plan(plan);
        let writer = broker.partition_writer("t", 0).unwrap().idempotent();
        let mut batch = batch_of_two();
        let capacity = batch.capacity();
        assert_eq!(writer.produce_batch_drain(&mut batch), Ok(0));
        assert!(batch.is_empty(), "a deduplicated retry drains");
        assert_eq!(batch.capacity(), capacity, "capacity survives the drain");
        assert_eq!(reader.latest_offset().unwrap(), 2, "applied once");
        // Without retries the lost ack is the caller's error: the append
        // landed, and the batch stays whole for the resend.
        let mut plan = produce_only_plan(14, 1.0, 0.0);
        plan.max_consecutive = u32::MAX;
        broker.install_fault_plan(plan);
        let once = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let writer = broker.partition_writer("t", 0).unwrap().with_retry(once);
        batch.extend(batch_of_two());
        assert!(matches!(
            writer.produce_batch_drain(&mut batch),
            Err(Error::RetriesExhausted { attempts: 1, last }) if *last == Error::RequestTimedOut
        ));
        assert_eq!(batch.len(), 2, "a failed request leaves the batch");
        assert_eq!(reader.latest_offset().unwrap(), 4);
        // A duplicated append lands the borrowed batch twice and drains.
        let mut plan = produce_only_plan(15, 0.0, 0.0);
        plan.duplicate = 1.0;
        plan.max_duplicates = 1;
        broker.install_fault_plan(plan);
        assert_eq!(writer.produce_batch_drain(&mut batch), Ok(4));
        assert!(batch.is_empty());
        broker.clear_fault_plan();
        let log = reader.fetch(0, 10).unwrap();
        let values: Vec<&[u8]> = log.iter().map(|r| &r.record.value[..]).collect();
        assert_eq!(values, [b"a" as &[u8], b"b"].repeat(4));
    }

    #[test]
    fn reader_retries_through_fetch_faults() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        fill(&broker, "t", 100);
        let reader = broker.partition_reader("t", 0).unwrap();
        let mut plan = crate::FaultPlan::seeded(12);
        plan.produce_error = 0.0;
        plan.fetch_error = 0.5;
        plan.metadata_error = 0.3;
        plan.ack_loss = 0.0;
        plan.duplicate = 0.0;
        plan.extra_latency = 0.0;
        broker.install_fault_plan(plan);
        let mut out = Vec::new();
        let mut offset = 0u64;
        while offset < 100 {
            let end = reader.latest_offset().unwrap();
            assert_eq!(end, 100);
            let appended = reader.fetch_into(offset, 7, &mut out).unwrap();
            offset += appended as u64;
        }
        broker.clear_fault_plan();
        assert_eq!(out.len(), 100);
        for (i, stored) in out.iter().enumerate() {
            assert_eq!(stored.offset, i as u64);
        }
    }

    #[test]
    fn reader_pays_request_latency() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        fill(&broker, "t", 1);
        broker.set_request_latency_micros(2_000);
        let reader = broker.partition_reader("t", 0).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..5 {
            reader.fetch(0, 1).unwrap();
        }
        assert!(start.elapsed() >= std::time::Duration::from_millis(10));
    }
}
