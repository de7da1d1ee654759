//! The [`Bus`] abstraction: anything records can be produced to and
//! fetched from.
//!
//! Both a single [`Broker`](crate::Broker) and a replicated
//! [`Cluster`](crate::Cluster) implement [`Bus`], so the data sender and the
//! stream-processing engines' connectors work against either
//! topology unchanged.

use crate::broker::Broker;
use crate::cluster::Cluster;
use crate::config::TopicConfig;
use crate::error::{Error, Result};
use crate::handle::{PartitionReader, PartitionWriter};
use crate::record::{Record, StoredRecord, Timestamp};
use crate::retry::RetryPolicy;
use std::sync::Arc;

/// Object-safe facade over a broker or cluster.
///
/// Records are produced and fetched through the partition handles it
/// resolves ([`Bus::partition_writer`], [`Bus::partition_reader`]). The
/// three provided verbs [`Bus::produce_batch`], [`Bus::fetch_into`] and
/// [`Bus::latest_offset`] exist only for the frozen `ledger` benchmark
/// harness, which calls them by name, and go with the next change to it
/// (ROADMAP item 3). Each resolves a handle and makes one request under
/// [`RetryPolicy::none()`], so a failed request surfaces as its raw
/// error.
///
/// This trait is sealed: it is implemented for [`Broker`] and [`Cluster`]
/// and cannot be implemented outside this crate.
pub trait Bus: sealed::Sealed + Send + Sync + std::fmt::Debug {
    /// Creates a topic.
    ///
    /// # Errors
    ///
    /// Fails when the topic exists or the configuration is invalid.
    fn create_topic(&self, name: &str, config: TopicConfig) -> Result<()>;

    /// Resolves a cached produce handle for one partition — the
    /// steady-state fast path that skips per-call topic-name resolution.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions.
    fn partition_writer(&self, topic: &str, partition: u32) -> Result<PartitionWriter>;

    /// Resolves a cached fetch handle for one partition.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions.
    fn partition_reader(&self, topic: &str, partition: u32) -> Result<PartitionReader>;

    /// Number of partitions of a topic.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics.
    fn partition_count(&self, topic: &str) -> Result<u32>;

    /// Stored timestamp of the first record.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions.
    fn first_timestamp(&self, topic: &str, partition: u32) -> Result<Option<Timestamp>>;

    /// Stored timestamp of the last record.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions.
    fn last_timestamp(&self, topic: &str, partition: u32) -> Result<Option<Timestamp>>;

    /// Reads the bus clock.
    fn now(&self) -> Timestamp;

    /// Appends a batch through a one-shot [`PartitionWriter`], returning
    /// the base offset. Kept for `ledger` only (see [`Bus`]).
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions, and with the raw error of a
    /// failed request.
    fn produce_batch(&self, topic: &str, partition: u32, records: Vec<Record>) -> Result<u64> {
        let writer = self.partition_writer(topic, partition)?;
        one_shot(|once| writer.with_retry(once).produce_batch(records))
    }

    /// Fetches up to `max` records from `offset` through a one-shot
    /// [`PartitionReader`], **appending** them to `out`. Returns the
    /// number appended. Kept for `ledger` only (see [`Bus`]).
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions or out-of-range offsets, and
    /// with the raw error of a failed request.
    fn fetch_into(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
        out: &mut Vec<StoredRecord>,
    ) -> Result<usize> {
        let reader = self.partition_reader(topic, partition)?;
        one_shot(|once| reader.with_retry(once).fetch_into(offset, max, out))
    }

    /// Next offset to be written (on a cluster, the high-watermark),
    /// through a one-shot [`PartitionReader`]. Kept for `ledger` only
    /// (see [`Bus`]).
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions, and with the raw error of a
    /// failed request.
    fn latest_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        let reader = self.partition_reader(topic, partition)?;
        one_shot(|once| reader.with_retry(once).latest_offset())
    }
}

/// Runs `request` on a handle retrying under [`RetryPolicy::none()`],
/// with the one failed attempt's error unwrapped from
/// [`Error::RetriesExhausted`].
fn one_shot<T>(request: impl FnOnce(RetryPolicy) -> Result<T>) -> Result<T> {
    request(RetryPolicy::none()).map_err(|error| match error {
        Error::RetriesExhausted { last, .. } => *last,
        other => other,
    })
}

pub(crate) mod sealed {
    /// Seals [`Bus`](super::Bus): only [`Broker`](crate::Broker) and
    /// [`Cluster`](crate::Cluster) implement it.
    pub trait Sealed {}

    impl Sealed for crate::Broker {}

    impl Sealed for crate::Cluster {}
}

/// A cheaply cloneable, type-erased handle to any [`Bus`] — the one way
/// clients and connectors hold a bus.
///
/// [`AsyncProducer`](crate::AsyncProducer), the topic reader and every
/// engine connector take `impl Into<BusHandle>`, so call sites pass a
/// [`Broker`], a [`Cluster`], a reference to either, an `Arc<dyn Bus>`
/// or an existing handle without ceremony — and a topology chosen at
/// runtime (single broker for the fault-free benchmarks, replicated
/// cluster for failover runs) flows through the same code. The handle
/// dereferences to `dyn Bus`: with [`Bus`] in scope every trait method
/// is callable on it directly.
#[derive(Debug, Clone)]
pub struct BusHandle(Arc<dyn Bus>);

impl std::ops::Deref for BusHandle {
    type Target = dyn Bus;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl From<Broker> for BusHandle {
    fn from(broker: Broker) -> Self {
        BusHandle(Arc::new(broker))
    }
}

impl From<&Broker> for BusHandle {
    fn from(broker: &Broker) -> Self {
        BusHandle(Arc::new(broker.clone()))
    }
}

impl From<Cluster> for BusHandle {
    fn from(cluster: Cluster) -> Self {
        BusHandle(Arc::new(cluster))
    }
}

impl From<&Cluster> for BusHandle {
    fn from(cluster: &Cluster) -> Self {
        BusHandle(Arc::new(cluster.clone()))
    }
}

impl From<&BusHandle> for BusHandle {
    fn from(handle: &BusHandle) -> Self {
        handle.clone()
    }
}

impl From<Arc<dyn Bus>> for BusHandle {
    fn from(bus: Arc<dyn Bus>) -> Self {
        BusHandle(bus)
    }
}

impl Bus for Broker {
    fn create_topic(&self, name: &str, config: TopicConfig) -> Result<()> {
        Broker::create_topic(self, name, config)
    }

    fn partition_writer(&self, topic: &str, partition: u32) -> Result<PartitionWriter> {
        Broker::partition_writer(self, topic, partition)
    }

    fn partition_reader(&self, topic: &str, partition: u32) -> Result<PartitionReader> {
        Broker::partition_reader(self, topic, partition)
    }

    fn partition_count(&self, topic: &str) -> Result<u32> {
        Ok(self.topic(topic)?.partition_count())
    }

    fn first_timestamp(&self, topic: &str, partition: u32) -> Result<Option<Timestamp>> {
        self.topic(topic)?.first_timestamp(partition)
    }

    fn last_timestamp(&self, topic: &str, partition: u32) -> Result<Option<Timestamp>> {
        self.topic(topic)?.last_timestamp(partition)
    }

    fn now(&self) -> Timestamp {
        Broker::now(self)
    }
}

impl Bus for Cluster {
    fn create_topic(&self, name: &str, config: TopicConfig) -> Result<()> {
        Cluster::create_topic(self, name, config)
    }

    fn partition_writer(&self, topic: &str, partition: u32) -> Result<PartitionWriter> {
        Cluster::partition_writer(self, topic, partition)
    }

    fn partition_reader(&self, topic: &str, partition: u32) -> Result<PartitionReader> {
        Cluster::partition_reader(self, topic, partition)
    }

    fn partition_count(&self, topic: &str) -> Result<u32> {
        let leader = self.leader_of(topic, 0)?;
        Ok(self.broker(leader).topic(topic)?.partition_count())
    }

    fn first_timestamp(&self, topic: &str, partition: u32) -> Result<Option<Timestamp>> {
        let leader = self.leader_of(topic, partition)?;
        self.broker(leader).topic(topic)?.first_timestamp(partition)
    }

    fn last_timestamp(&self, topic: &str, partition: u32) -> Result<Option<Timestamp>> {
        let leader = self.leader_of(topic, partition)?;
        self.broker(leader).topic(topic)?.last_timestamp(partition)
    }

    fn now(&self) -> Timestamp {
        self.broker(0).now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::fault::FaultPlan;

    /// Drives every `Bus` method on topic `t`, whose partition 0 `leader`
    /// leads.
    fn exercise(bus: &dyn Bus, leader: &Broker) {
        // A topic exists exactly when it has a partition count.
        assert_eq!(bus.partition_count("t").unwrap(), 1);
        assert!(bus.partition_count("missing").is_err());
        let writer = bus.partition_writer("t", 0).unwrap();
        let reader = bus.partition_reader("t", 0).unwrap();
        writer
            .produce_batch(vec![Record::from_value("a"), Record::from_value("b")])
            .unwrap();
        assert_eq!(reader.latest_offset().unwrap(), 2);
        assert!(bus.first_timestamp("t", 0).unwrap().is_some());
        assert!(bus.last_timestamp("t", 0).unwrap() >= bus.first_timestamp("t", 0).unwrap());
        assert!(bus.now().as_micros() > 0);

        // The one-shot verbs resolve handles onto the same log and make
        // one request each: a lost ack (the append lands, the ack does
        // not) comes back raw with the record in the log once, where a
        // retrying writer would have resent it; the next call, past the
        // plan's one-fault bound, goes through. A fetch fault is as raw.
        let mut plan = FaultPlan::seeded(5);
        plan.produce_error = 0.0;
        plan.fetch_error = 1.0;
        plan.metadata_error = 0.0;
        plan.ack_loss = 1.0;
        plan.duplicate = 0.0;
        plan.extra_latency = 0.0;
        plan.max_consecutive = 1;
        leader.install_fault_plan(plan);
        let once = || bus.produce_batch("t", 0, vec![Record::from_value("c")]);
        assert_eq!(once(), Err(Error::RequestTimedOut));
        let log = leader.topic("t").unwrap();
        assert_eq!(log.latest_offset(0).unwrap(), 3, "one request, no resend");
        assert_eq!(once(), Ok(3));
        let mut buffer = Vec::new();
        let err = bus.fetch_into("t", 0, 0, 10, &mut buffer).unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        leader.clear_fault_plan();
        assert_eq!(bus.latest_offset("t", 0), Ok(4));
        assert_eq!(bus.fetch_into("t", 0, 0, 10, &mut buffer), Ok(4));
        assert_eq!(buffer, reader.fetch(0, 10).unwrap());
    }

    #[test]
    fn broker_implements_bus() {
        let broker = Broker::new();
        Bus::create_topic(&broker, "t", TopicConfig::default()).unwrap();
        exercise(&broker, &broker);
    }

    #[test]
    fn cluster_implements_bus() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        let rf3 = TopicConfig::default().replication_factor(3);
        Bus::create_topic(&cluster, "t", rf3).unwrap();
        exercise(&cluster, cluster.broker(cluster.leader_of("t", 0).unwrap()));
    }
}
