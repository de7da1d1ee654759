//! Producers: batched, acknowledged, optionally rate-limited sends.

use crate::bus::{Bus, BusHandle};
use crate::config::Acks;
use crate::error::{Error, Result};
use crate::handle::PartitionWriter;
use crate::record::Record;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// How a producer picks the partition for a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partitioner {
    /// Always use the given partition. The benchmark's data sender uses
    /// `Fixed(0)` since its topics have a single partition.
    Fixed(u32),
    /// Rotate over the topic's partitions.
    #[default]
    RoundRobin,
    /// Hash the record key (keyless records fall back to round-robin).
    KeyHash,
}

/// A records-per-second pacing limit, matching the data-sender
/// configuration parameter described in the paper (§III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Maximum sustained records per second.
    pub records_per_second: f64,
}

impl RateLimit {
    /// Creates a rate limit.
    ///
    /// # Panics
    ///
    /// Panics if `records_per_second` is not strictly positive.
    pub fn per_second(records_per_second: f64) -> Self {
        assert!(records_per_second > 0.0, "rate must be positive");
        RateLimit { records_per_second }
    }
}

/// Producer configuration.
#[derive(Debug, Clone)]
pub struct ProducerConfig {
    /// Acknowledgement level awaited per batch.
    pub acks: Acks,
    /// Records buffered per (topic, partition) before an automatic flush.
    pub batch_records: usize,
    /// Partition selection strategy.
    pub partitioner: Partitioner,
    /// Optional pacing limit.
    pub rate_limit: Option<RateLimit>,
    /// Retry schedule for transient broker errors; applied to metadata
    /// resolution and, through the cached idempotent writers, to every
    /// append.
    pub retry: crate::RetryPolicy,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        ProducerConfig {
            acks: Acks::Leader,
            batch_records: 256,
            partitioner: Partitioner::default(),
            rate_limit: None,
            retry: crate::RetryPolicy::default(),
        }
    }
}

/// A timestamped copy of one producer's counters.
///
/// Returned by [`Producer::metrics`]. Deliberately **not** `Copy`: the
/// old `ProducerMetrics` value was easy to squirrel away and misread as
/// live; the capture time makes staleness explicit. The counters behind
/// it are [`obs::Counter`] instruments, so the producer also feeds the
/// fleet-wide `logbus.producer.*` totals in the global registry while
/// instrumentation is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a snapshot is a point-in-time capture; dropping it unread discards the measurement"]
pub struct ProducerMetricsSnapshot {
    /// Capture time, microseconds since the Unix epoch.
    pub at_unix_micros: u64,
    /// Records successfully handed to the bus.
    pub sent: u64,
    /// Records dropped because `acks=0` suppressed a send error.
    pub dropped: u64,
    /// Flush operations performed (automatic and explicit).
    pub flushes: u64,
}

/// Per-instance counters (always live — they are producer semantics,
/// not optional telemetry).
#[derive(Debug, Default)]
struct ProducerCounters {
    sent: obs::Counter,
    dropped: obs::Counter,
    flushes: obs::Counter,
}

/// A batching producer over any [`Bus`].
///
/// Records are buffered per (topic, partition) and flushed when a buffer
/// reaches [`ProducerConfig::batch_records`], on [`Producer::flush`], and
/// on drop (best effort).
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use logbus::{Broker, Producer, Record, TopicConfig};
///
/// let broker = Broker::new();
/// broker.create_topic("t", TopicConfig::default())?;
/// let mut producer = Producer::new(broker.clone());
/// for i in 0..100 {
///     producer.send("t", Record::from_value(format!("{i}")))?;
/// }
/// producer.flush()?;
/// assert_eq!(broker.latest_offset("t", 0)?, 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Producer {
    bus: BusHandle,
    config: ProducerConfig,
    /// Per-topic state. A linear-scanned `Vec` rather than a map: a
    /// producer talks to a handful of topics (the benchmark uses one), so
    /// the steady-state lookup is a length check plus one `memcmp` —
    /// cheaper than hashing the name, and allocation-free for `&str`
    /// callers.
    topics: Vec<TopicEntry>,
    counters: ProducerCounters,
    pacing_started: Option<Instant>,
    paced_records: u64,
    closed: bool,
}

#[derive(Debug)]
struct TopicEntry {
    name: String,
    state: TopicState,
}

/// Cached per-topic producer state: record buffers and resolved partition
/// writers, both indexed by partition number.
#[derive(Debug, Default)]
struct TopicState {
    /// Partition count, cached after the first successful bus query
    /// (`logbus` topics never change their partition count).
    partition_count: Option<u32>,
    /// Round-robin cursor for this topic.
    round_robin: u32,
    /// `buffers[p]` holds the records buffered for partition `p`.
    buffers: Vec<Vec<Record>>,
    /// `writers[p]` is the cached produce handle for partition `p`,
    /// resolved lazily on first flush (records may be buffered before the
    /// topic exists; resolution failures surface exactly where the old
    /// name-based produce failed).
    writers: Vec<Option<PartitionWriter>>,
}

impl TopicState {
    fn slot(&mut self, partition: u32) -> &mut Vec<Record> {
        let index = partition as usize;
        if self.buffers.len() <= index {
            self.buffers.resize_with(index + 1, Vec::new);
            self.writers.resize_with(index + 1, || None);
        }
        &mut self.buffers[index]
    }
}

impl Producer {
    /// Creates a producer with default configuration.
    pub fn new(bus: impl Into<BusHandle>) -> Self {
        Self::with_config(bus, ProducerConfig::default())
    }

    /// Creates a producer with an explicit configuration.
    pub fn with_config(bus: impl Into<BusHandle>, config: ProducerConfig) -> Self {
        Producer {
            bus: bus.into(),
            config,
            topics: Vec::new(),
            counters: ProducerCounters::default(),
            pacing_started: None,
            paced_records: 0,
            closed: false,
        }
    }

    /// The producer's configuration.
    pub fn config(&self) -> &ProducerConfig {
        &self.config
    }

    /// A timestamped copy of the current send counters.
    pub fn metrics(&self) -> ProducerMetricsSnapshot {
        ProducerMetricsSnapshot {
            at_unix_micros: obs::metrics::unix_micros(),
            sent: self.counters.sent.get(),
            dropped: self.counters.dropped.get(),
            flushes: self.counters.flushes.get(),
        }
    }

    fn pace(&mut self) {
        self.pace_many(1);
    }

    /// Advances the pacing clock by `count` records in one step: a batch
    /// sleeps once for its whole deficit instead of once per record.
    fn pace_many(&mut self, count: u64) {
        let Some(limit) = self.config.rate_limit else {
            return;
        };
        let started = *self.pacing_started.get_or_insert_with(Instant::now);
        self.paced_records += count;
        let due = Duration::from_secs_f64(self.paced_records as f64 / limit.records_per_second);
        let elapsed = started.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
    }

    /// Buffers one record for `topic`, flushing the target partition's
    /// buffer if it is full. Blocks to honour the rate limit, if any.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProducerClosed`] after [`Producer::close`];
    /// otherwise propagates bus errors (suppressed and counted as drops
    /// under `acks=0`).
    pub fn send(&mut self, topic: &str, record: Record) -> Result<()> {
        if self.closed {
            return Err(Error::ProducerClosed);
        }
        self.pace();
        let index = self.topic_index(topic);
        // Field-level borrows keep the `&str` topic lookup allocation-free.
        let state = &mut self.topics[index].state;
        let partitioner = self.config.partitioner;
        let picked = match partitioner {
            Partitioner::Fixed(p) => Ok(p),
            Partitioner::RoundRobin => next_round_robin(&*self.bus, state, topic),
            Partitioner::KeyHash => match &record.key {
                Some(key) => cached_partition_count(&*self.bus, state, topic)
                    .map(|n| partition_for_key(key, n)),
                None => next_round_robin(&*self.bus, state, topic),
            },
        };
        let partition = match picked {
            Ok(p) => p,
            Err(e) => return self.absorb(e),
        };
        let buffer = state.slot(partition);
        buffer.push(record);
        if buffer.len() >= self.config.batch_records {
            self.flush_partition(index, topic, partition)?;
        }
        Ok(())
    }

    /// Buffers a whole batch of records for `topic`, draining `records`
    /// (capacity kept for the caller to reuse).
    ///
    /// The closed check, pacing, and topic lookup are paid once per batch
    /// instead of once per record. With a [`Partitioner::Fixed`]
    /// partitioner (the benchmark sender's setup) records move in bulk
    /// `extend`s, flushing full buffers through the cached
    /// [`PartitionWriter`] as they fill; other partitioners route each
    /// record but still skip the per-record bookkeeping.
    ///
    /// # Errors
    ///
    /// Same as [`Producer::send`]. `records` is drained even when an
    /// error cuts the batch short.
    pub fn send_batch(&mut self, topic: &str, records: &mut Vec<Record>) -> Result<()> {
        if self.closed {
            return Err(Error::ProducerClosed);
        }
        if records.is_empty() {
            return Ok(());
        }
        self.pace_many(records.len() as u64);
        let index = self.topic_index(topic);
        if let Partitioner::Fixed(partition) = self.config.partitioner {
            let batch_records = self.config.batch_records;
            loop {
                let buffer = self.topics[index].state.slot(partition);
                let room = batch_records.saturating_sub(buffer.len()).max(1);
                let take = room.min(records.len());
                buffer.extend(records.drain(..take));
                if buffer.len() >= batch_records {
                    self.flush_partition(index, topic, partition)?;
                }
                if records.is_empty() {
                    return Ok(());
                }
            }
        }
        for record in records.drain(..) {
            let state = &mut self.topics[index].state;
            let picked = match self.config.partitioner {
                Partitioner::Fixed(p) => Ok(p),
                Partitioner::RoundRobin => next_round_robin(&*self.bus, state, topic),
                Partitioner::KeyHash => match &record.key {
                    Some(key) => cached_partition_count(&*self.bus, state, topic)
                        .map(|n| partition_for_key(key, n)),
                    None => next_round_robin(&*self.bus, state, topic),
                },
            };
            let partition = match picked {
                Ok(p) => p,
                Err(e) => {
                    self.absorb(e)?;
                    continue;
                }
            };
            let buffer = self.topics[index].state.slot(partition);
            buffer.push(record);
            if buffer.len() >= self.config.batch_records {
                self.flush_partition(index, topic, partition)?;
            }
        }
        Ok(())
    }

    /// Buffers a record for an explicit partition, bypassing the
    /// partitioner.
    ///
    /// # Errors
    ///
    /// Same as [`Producer::send`].
    pub fn send_to(&mut self, topic: &str, partition: u32, record: Record) -> Result<()> {
        if self.closed {
            return Err(Error::ProducerClosed);
        }
        self.pace();
        let index = self.topic_index(topic);
        let buffer = self.topics[index].state.slot(partition);
        buffer.push(record);
        if buffer.len() >= self.config.batch_records {
            self.flush_partition(index, topic, partition)?;
        }
        Ok(())
    }

    /// Index of the topic's entry, appending a fresh one on first use.
    fn topic_index(&mut self, topic: &str) -> usize {
        if let Some(index) = self.topics.iter().position(|entry| entry.name == topic) {
            return index;
        }
        self.topics.push(TopicEntry {
            name: topic.to_string(),
            state: TopicState::default(),
        });
        self.topics.len() - 1
    }

    /// Flushes partition `partition` of topic entry `index` through its
    /// cached writer, **draining the buffer in place** so its capacity
    /// is reused across the producer's whole lifetime (no `mem::take`,
    /// no fresh `Vec` per flush).
    fn flush_partition(&mut self, index: usize, topic: &str, partition: u32) -> Result<()> {
        let p = partition as usize;
        {
            let state = &self.topics[index].state;
            if state.buffers.len() <= p || state.buffers[p].is_empty() {
                return Ok(());
            }
        }
        self.counters.flushes.inc();
        let mirror = obs::enabled();
        if mirror {
            crate::telemetry::producer_totals().flushes.inc();
        }
        match self.produce_slot_cached(index, topic, partition) {
            Ok(len) => {
                self.counters.sent.add(len);
                if mirror {
                    crate::telemetry::producer_totals().sent.add(len);
                }
                Ok(())
            }
            Err(e) => {
                if self.config.acks == Acks::None {
                    // acks=0: the batch is dropped, not retried.
                    let buffer = &mut self.topics[index].state.buffers[p];
                    let len = buffer.len() as u64;
                    buffer.clear();
                    self.counters.dropped.add(len);
                    if mirror {
                        crate::telemetry::producer_totals().dropped.add(len);
                    }
                    Ok(())
                } else {
                    // The records stay buffered for the next flush.
                    Err(e)
                }
            }
        }
    }

    /// Appends the slot's buffered batch through the partition's cached
    /// writer, resolving (and caching) the handle on first use.
    /// Resolution is retried on every flush while it keeps failing, so
    /// records buffered before their topic exists still land once it is
    /// created — the same late-binding the per-call name lookup used to
    /// provide. Resolved writers are idempotent and retry transient
    /// faults under the configured [`RetryPolicy`](crate::RetryPolicy),
    /// so a lost ack never duplicates the batch in the log. Returns the
    /// number of records flushed.
    fn produce_slot_cached(&mut self, index: usize, topic: &str, partition: u32) -> Result<u64> {
        let state = &mut self.topics[index].state;
        let p = partition as usize;
        if state.writers.len() <= p {
            state.writers.resize_with(p + 1, || None);
        }
        if state.writers[p].is_none() {
            let retry = &self.config.retry;
            let bus = &*self.bus;
            let writer =
                crate::retry::with_retry(retry, || bus.partition_writer(topic, partition))?
                    .idempotent()
                    .with_acks(self.config.acks)
                    .with_retry(retry.clone());
            state.writers[p] = Some(writer);
        }
        let Some(writer) = state.writers[p].as_ref() else {
            return Err(Error::BrokerUnavailable);
        };
        let buffer = &mut state.buffers[p];
        let len = buffer.len() as u64;
        writer.produce_batch_drain(buffer)?;
        Ok(len)
    }

    fn absorb(&mut self, e: Error) -> Result<()> {
        if self.config.acks == Acks::None {
            self.counters.dropped.inc();
            if obs::enabled() {
                crate::telemetry::producer_totals().dropped.inc();
            }
            Ok(())
        } else {
            Err(e)
        }
    }

    /// Flushes all buffered records.
    ///
    /// # Errors
    ///
    /// Propagates the first bus error (unless `acks=0`).
    pub fn flush(&mut self) -> Result<()> {
        for i in 0..self.topics.len() {
            let topic = self.topics[i].name.clone();
            let partitions = self.topics[i].state.buffers.len();
            for p in 0..partitions {
                self.flush_partition(i, &topic, p as u32)?;
            }
        }
        Ok(())
    }

    /// Flushes and permanently closes the producer.
    ///
    /// # Errors
    ///
    /// Propagates flush errors; the producer is closed regardless.
    pub fn close(&mut self) -> Result<()> {
        let result = self.flush();
        self.closed = true;
        result
    }
}

/// Routes a record key to a partition: the shared key-hash partitioner.
///
/// Every producer tier (per-record [`Producer::send`], batched
/// [`Producer::send_batch`]) and the benchmark's parallel load
/// generators call this one function, so a key always lands on the same
/// partition no matter which path produced it — the property keyed
/// engine shuffles depend on.
#[must_use]
pub fn partition_for_key(key: &[u8], partition_count: u32) -> u32 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % u64::from(partition_count.max(1))) as u32
}

/// Returns the topic's partition count, caching it in `state` on the
/// first successful query (failures are not cached, so a topic created
/// later is still picked up).
fn cached_partition_count(bus: &dyn Bus, state: &mut TopicState, topic: &str) -> Result<u32> {
    match state.partition_count {
        Some(n) => Ok(n),
        None => {
            let n = bus.partition_count(topic)?;
            state.partition_count = Some(n);
            Ok(n)
        }
    }
}

/// Advances the topic's round-robin cursor and returns the next partition.
fn next_round_robin(bus: &dyn Bus, state: &mut TopicState, topic: &str) -> Result<u32> {
    let n = cached_partition_count(bus, state, topic)?;
    let partition = state.round_robin % n;
    state.round_robin = state.round_robin.wrapping_add(1);
    Ok(partition)
}

impl Drop for Producer {
    fn drop(&mut self) {
        // Best-effort flush; errors are intentionally ignored in drop
        // (C-DTOR-FAIL). Call `close` to observe them.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::config::TopicConfig;

    fn broker_with(partitions: u32) -> Broker {
        let broker = Broker::new();
        broker
            .create_topic("t", TopicConfig::default().partitions(partitions))
            .unwrap();
        broker
    }

    #[test]
    fn batches_flush_when_full() {
        let broker = broker_with(1);
        let mut producer = Producer::with_config(
            broker.clone(),
            ProducerConfig {
                batch_records: 10,
                ..ProducerConfig::default()
            },
        );
        for i in 0..25 {
            producer
                .send("t", Record::from_value(format!("{i}")))
                .unwrap();
        }
        // Two automatic flushes of 10; 5 still buffered.
        assert_eq!(broker.latest_offset("t", 0).unwrap(), 20);
        producer.flush().unwrap();
        assert_eq!(broker.latest_offset("t", 0).unwrap(), 25);
        assert_eq!(producer.metrics().sent, 25);
    }

    #[test]
    fn send_batch_flushes_full_buffers_in_order() {
        let broker = broker_with(1);
        let mut producer = Producer::with_config(
            broker.clone(),
            ProducerConfig {
                batch_records: 10,
                partitioner: Partitioner::Fixed(0),
                ..ProducerConfig::default()
            },
        );
        let mut batch: Vec<Record> = (0..25)
            .map(|i| Record::from_value(format!("{i}")))
            .collect();
        producer.send_batch("t", &mut batch).unwrap();
        assert!(batch.is_empty(), "the batch must be drained");
        assert_eq!(
            broker.latest_offset("t", 0).unwrap(),
            20,
            "two automatic flushes of 10; 5 still buffered"
        );
        producer.flush().unwrap();
        let records = broker.fetch("t", 0, 0, 25).unwrap();
        assert_eq!(records.len(), 25);
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("{i}").as_bytes());
        }
    }

    #[test]
    fn send_batch_round_robin_spreads() {
        let broker = broker_with(4);
        let mut producer = Producer::with_config(
            broker.clone(),
            ProducerConfig {
                batch_records: 1,
                ..ProducerConfig::default()
            },
        );
        let mut batch: Vec<Record> = (0..8).map(|i| Record::from_value(format!("{i}"))).collect();
        producer.send_batch("t", &mut batch).unwrap();
        for p in 0..4 {
            assert_eq!(broker.latest_offset("t", p).unwrap(), 2, "partition {p}");
        }
    }

    #[test]
    fn send_batch_matches_per_record_sends() {
        let per_record = broker_with(1);
        let batched = broker_with(1);
        let config = || ProducerConfig {
            batch_records: 7,
            partitioner: Partitioner::Fixed(0),
            ..ProducerConfig::default()
        };
        let mut a = Producer::with_config(per_record.clone(), config());
        for i in 0..50 {
            a.send("t", Record::from_value(format!("{i}"))).unwrap();
        }
        a.close().unwrap();
        let mut b = Producer::with_config(batched.clone(), config());
        let mut chunk = Vec::new();
        for i in 0..50 {
            chunk.push(Record::from_value(format!("{i}")));
            if chunk.len() == 13 {
                b.send_batch("t", &mut chunk).unwrap();
            }
        }
        b.send_batch("t", &mut chunk).unwrap();
        b.close().unwrap();
        let left = per_record.fetch("t", 0, 0, 50).unwrap();
        let right = batched.fetch("t", 0, 0, 50).unwrap();
        assert_eq!(left.len(), right.len());
        for (l, r) in left.iter().zip(right.iter()) {
            assert_eq!(l.record.value, r.record.value);
        }
    }

    #[test]
    fn send_batch_on_closed_producer_errors() {
        let broker = broker_with(1);
        let mut producer = Producer::new(broker);
        producer.close().unwrap();
        let mut batch = vec![Record::from_value("x")];
        assert_eq!(
            producer.send_batch("t", &mut batch),
            Err(Error::ProducerClosed)
        );
    }

    #[test]
    fn drop_flushes() {
        let broker = broker_with(1);
        {
            let mut producer = Producer::new(broker.clone());
            producer.send("t", Record::from_value("x")).unwrap();
        }
        assert_eq!(broker.latest_offset("t", 0).unwrap(), 1);
    }

    #[test]
    fn round_robin_spreads() {
        let broker = broker_with(4);
        let mut producer = Producer::with_config(
            broker.clone(),
            ProducerConfig {
                batch_records: 1,
                ..ProducerConfig::default()
            },
        );
        for i in 0..8 {
            producer
                .send("t", Record::from_value(format!("{i}")))
                .unwrap();
        }
        for p in 0..4 {
            assert_eq!(broker.latest_offset("t", p).unwrap(), 2, "partition {p}");
        }
    }

    #[test]
    fn key_hash_is_sticky() {
        let broker = broker_with(4);
        let mut producer = Producer::with_config(
            broker.clone(),
            ProducerConfig {
                batch_records: 1,
                partitioner: Partitioner::KeyHash,
                ..ProducerConfig::default()
            },
        );
        for _ in 0..10 {
            producer
                .send("t", Record::from_key_value("stable", "v"))
                .unwrap();
        }
        let populated: Vec<u32> = (0..4)
            .filter(|&p| broker.latest_offset("t", p).unwrap() > 0)
            .collect();
        assert_eq!(
            populated.len(),
            1,
            "all records should land on one partition"
        );
        assert_eq!(broker.latest_offset("t", populated[0]).unwrap(), 10);
    }

    #[test]
    fn fixed_partitioner() {
        let broker = broker_with(3);
        let mut producer = Producer::with_config(
            broker.clone(),
            ProducerConfig {
                partitioner: Partitioner::Fixed(2),
                ..ProducerConfig::default()
            },
        );
        producer.send("t", Record::from_value("x")).unwrap();
        producer.flush().unwrap();
        assert_eq!(broker.latest_offset("t", 2).unwrap(), 1);
        assert_eq!(broker.latest_offset("t", 0).unwrap(), 0);
    }

    #[test]
    fn acks_none_swallows_errors() {
        let broker = Broker::new(); // no topic created
        let mut producer = Producer::with_config(
            broker,
            ProducerConfig {
                acks: Acks::None,
                batch_records: 1,
                partitioner: Partitioner::Fixed(0),
                ..ProducerConfig::default()
            },
        );
        producer.send("missing", Record::from_value("x")).unwrap();
        producer.flush().unwrap();
        assert_eq!(producer.metrics().dropped, 1);
        assert_eq!(producer.metrics().sent, 0);
    }

    #[test]
    fn acks_leader_propagates_errors() {
        let broker = Broker::new();
        let mut producer = Producer::with_config(
            broker,
            ProducerConfig {
                batch_records: 1,
                partitioner: Partitioner::Fixed(0),
                ..ProducerConfig::default()
            },
        );
        assert!(producer.send("missing", Record::from_value("x")).is_err());
    }

    #[test]
    fn closed_producer_rejects_sends() {
        let broker = broker_with(1);
        let mut producer = Producer::new(broker);
        producer.close().unwrap();
        assert_eq!(
            producer.send("t", Record::from_value("x")),
            Err(Error::ProducerClosed)
        );
    }

    #[test]
    fn rate_limit_paces_sends() {
        let broker = broker_with(1);
        let mut producer = Producer::with_config(
            broker,
            ProducerConfig {
                rate_limit: Some(RateLimit::per_second(1_000.0)),
                ..ProducerConfig::default()
            },
        );
        let start = Instant::now();
        for i in 0..50 {
            producer
                .send("t", Record::from_value(format!("{i}")))
                .unwrap();
        }
        // 50 records at 1000/s should take >= ~50ms.
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = RateLimit::per_second(0.0);
    }

    #[test]
    fn faulted_broker_gets_exactly_once_batches() {
        let broker = broker_with(1);
        let mut plan = crate::FaultPlan::seeded(47);
        plan.produce_error = 0.3;
        plan.ack_loss = 0.3;
        plan.duplicate = 0.0;
        plan.fetch_error = 0.0;
        plan.metadata_error = 0.3;
        plan.extra_latency = 0.0;
        broker.install_fault_plan(plan);
        let mut producer = Producer::with_config(
            broker.clone(),
            ProducerConfig {
                batch_records: 8,
                partitioner: Partitioner::Fixed(0),
                ..ProducerConfig::default()
            },
        );
        for i in 0..300 {
            producer
                .send("t", Record::from_value(format!("{i}")))
                .unwrap();
        }
        producer.close().unwrap();
        broker.clear_fault_plan();
        let records = broker.fetch("t", 0, 0, 1_000).unwrap();
        assert_eq!(records.len(), 300, "idempotent writers dedup lost acks");
        for (i, stored) in records.iter().enumerate() {
            assert_eq!(&stored.record.value[..], format!("{i}").as_bytes());
        }
    }

    #[test]
    fn metrics_snapshot_is_point_in_time() {
        let broker = broker_with(1);
        let mut producer = Producer::new(broker);
        producer.send("t", Record::from_value("x")).unwrap();
        let before = producer.metrics();
        assert_eq!(before.sent, 0, "nothing flushed yet");
        assert!(before.at_unix_micros > 0);
        producer.flush().unwrap();
        let after = producer.metrics();
        assert_eq!(after.sent, 1);
        assert_eq!(after.flushes, 1);
        // The old Copy struct hid staleness; the timestamp exposes it.
        assert!(after.at_unix_micros >= before.at_unix_micros);
        assert_eq!(before.sent, 0, "snapshots never update in place");
    }
}
