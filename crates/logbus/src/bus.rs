//! The [`Bus`] abstraction: anything records can be produced to and
//! fetched from.
//!
//! Both a single [`Broker`](crate::Broker) and a replicated
//! [`Cluster`](crate::Cluster) implement [`Bus`], so the data sender and the
//! stream-processing engines' connectors work against either
//! topology unchanged.
//!
//! Group coordination is not a bus verb. The sealed supertrait's one
//! accessor hands the bus's group coordinator to `group.rs`, behind the
//! bus's liveness rule, and [`GroupMember`](crate::GroupMember) and
//! [`GroupedReader`](crate::GroupedReader) call it directly.
//! [`Bus::committed_offset`] is the one public read of a group's
//! position.

use crate::broker::Broker;
use crate::cluster::Cluster;
use crate::config::TopicConfig;
use crate::error::Result;
use crate::handle::{PartitionReader, PartitionWriter};
use crate::record::{Record, StoredRecord, Timestamp};
use std::sync::Arc;

/// Object-safe facade over a broker or cluster.
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

    /// Appends a batch, returning the base offset.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions.
    fn produce_batch(&self, topic: &str, partition: u32, records: Vec<Record>) -> Result<u64>;

    /// Fetches up to `max` records starting at `offset`.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions or out-of-range offsets.
    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
    ) -> Result<Vec<StoredRecord>>;

    /// Fetches up to `max` records starting at `offset`, **appending**
    /// them into `out` (never clearing it). Returns the number appended.
    ///
    /// # Errors
    ///
    /// Same as [`Bus::fetch`].
    fn fetch_into(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
        out: &mut Vec<StoredRecord>,
    ) -> Result<usize>;

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

    /// Next offset to be written.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions.
    fn latest_offset(&self, topic: &str, partition: u32) -> Result<u64>;

    /// Earliest retained offset.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics/partitions.
    fn earliest_offset(&self, topic: &str, partition: u32) -> Result<u64>;

    /// Number of partitions of a topic.
    ///
    /// # Errors
    ///
    /// Fails for unknown topics.
    fn partition_count(&self, topic: &str) -> Result<u32>;

    /// Stored timestamp of the first retained record.
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

    /// Reads a committed consumer-group offset — the one public read of a
    /// group's position. `None` before the first commit, and on a bus
    /// whose liveness rule admits no coordinator.
    fn committed_offset(&self, group: &str, topic: &str, partition: u32) -> Option<u64> {
        let coordinator = self.coordinator(None).ok()?;
        coordinator.committed(group, topic, partition)
    }

    /// Reads the bus clock.
    fn now(&self) -> Timestamp;
}

pub(crate) mod sealed {
    use crate::error::Result;
    use crate::group::Coordinator;

    /// Seals [`Bus`](super::Bus) and carries its one crate-internal verb.
    /// `broker.rs` and `cluster.rs` implement it, where the liveness and
    /// fault gates live.
    pub trait Sealed {
        /// The bus's group coordinator, behind its liveness rule: a
        /// broker must be up; a cluster needs one live broker to act as
        /// coordinator. `commit` names the partition of an offset commit,
        /// which then also passes the topic check and the coordinating
        /// broker's metadata fault gate, in that order.
        ///
        /// # Errors
        ///
        /// [`Error::BrokerDown`](crate::Error::BrokerDown) when the rule
        /// admits no coordinator; for a commit, `UnknownTopic` or the
        /// injected fault.
        fn coordinator(&self, commit: Option<(&str, u32)>) -> Result<&Coordinator>;
    }
}

/// A cheaply cloneable, type-erased handle to any [`Bus`] — the one way
/// clients and connectors hold a bus.
///
/// [`AsyncProducer`](crate::AsyncProducer), the group readers and every
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

    fn produce_batch(&self, topic: &str, partition: u32, records: Vec<Record>) -> Result<u64> {
        Broker::produce_batch(self, topic, partition, records)
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
    ) -> Result<Vec<StoredRecord>> {
        Broker::fetch(self, topic, partition, offset, max)
    }

    fn fetch_into(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
        out: &mut Vec<StoredRecord>,
    ) -> Result<usize> {
        Broker::fetch_into(self, topic, partition, offset, max, out)
    }

    fn partition_writer(&self, topic: &str, partition: u32) -> Result<PartitionWriter> {
        Broker::partition_writer(self, topic, partition)
    }

    fn partition_reader(&self, topic: &str, partition: u32) -> Result<PartitionReader> {
        Broker::partition_reader(self, topic, partition)
    }

    fn latest_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        Broker::latest_offset(self, topic, partition)
    }

    fn earliest_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        self.topic(topic)?.earliest_offset(partition)
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

    fn produce_batch(&self, topic: &str, partition: u32, records: Vec<Record>) -> Result<u64> {
        Cluster::produce_batch(self, topic, partition, records)
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
    ) -> Result<Vec<StoredRecord>> {
        Cluster::fetch(self, topic, partition, offset, max)
    }

    fn fetch_into(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
        out: &mut Vec<StoredRecord>,
    ) -> Result<usize> {
        Cluster::fetch_into(self, topic, partition, offset, max, out)
    }

    fn partition_writer(&self, topic: &str, partition: u32) -> Result<PartitionWriter> {
        Cluster::partition_writer(self, topic, partition)
    }

    fn partition_reader(&self, topic: &str, partition: u32) -> Result<PartitionReader> {
        Cluster::partition_reader(self, topic, partition)
    }

    fn latest_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        // The committed frontier (high-watermark), not the leader's raw
        // log end — consumers never observe unreplicated records.
        Cluster::latest_offset(self, topic, partition)
    }

    fn earliest_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        Cluster::earliest_offset(self, topic, partition)
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
    use std::sync::Arc;

    fn exercise(bus: Arc<dyn Bus>) {
        bus.create_topic("t", TopicConfig::default()).unwrap();
        // A topic exists exactly when it has a partition count.
        assert_eq!(bus.partition_count("t").unwrap(), 1);
        assert!(bus.partition_count("missing").is_err());
        bus.produce_batch(
            "t",
            0,
            vec![Record::from_value("a"), Record::from_value("b")],
        )
        .unwrap();
        assert_eq!(bus.latest_offset("t", 0).unwrap(), 2);
        assert_eq!(bus.earliest_offset("t", 0).unwrap(), 0);
        assert_eq!(bus.fetch("t", 0, 0, 10).unwrap().len(), 2);
        let mut buffer = Vec::new();
        assert_eq!(bus.fetch_into("t", 0, 0, 10, &mut buffer).unwrap(), 2);
        assert_eq!(buffer, bus.fetch("t", 0, 0, 10).unwrap());
        let writer = bus.partition_writer("t", 0).unwrap();
        assert_eq!(writer.produce(Record::from_value("c")).unwrap(), 2);
        let reader = bus.partition_reader("t", 0).unwrap();
        assert_eq!(reader.fetch(0, 10).unwrap().len(), 3);
        assert!(bus.first_timestamp("t", 0).unwrap().is_some());
        assert!(bus.last_timestamp("t", 0).unwrap() >= bus.first_timestamp("t", 0).unwrap());
        assert_eq!(bus.committed_offset("g", "t", 0), None);
        assert!(bus.now().as_micros() > 0);
    }

    #[test]
    fn broker_implements_bus() {
        exercise(Arc::new(Broker::new()));
    }

    #[test]
    fn cluster_implements_bus() {
        exercise(Arc::new(Cluster::new(ClusterConfig { brokers: 3 })));
    }
}
