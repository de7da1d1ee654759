//! `logbus` — an in-process, partitioned, append-only message broker.
//!
//! `logbus` is the message-transport substrate of the StreamBench
//! reproduction. It stands in for Apache Kafka in the benchmark architecture
//! of Hesse et al. (ICDCS 2019): an ordered, timestamped log that decouples
//! data generation from consumption and whose *broker-side append
//! timestamps* (`LogAppendTime`) provide a system-independent clock for
//! execution-time measurement.
//!
//! The broker reproduces the Kafka semantics the benchmark relies on:
//!
//! * **Topics** are split into **partitions**; ordering is guaranteed only
//!   *within* a partition (the benchmark therefore uses single-partition
//!   topics).
//! * Each partition is an append-only log addressed by monotonically
//!   increasing **offsets** from 0; it keeps every record until it is
//!   truncated or its topic deleted.
//! * A record is a key and a value. Every record is stamped with the
//!   broker's `LogAppendTime`: one stamp per produce request, never
//!   decreasing along a partition.
//! * **Writes** go through a [`PartitionWriter`] — one request per
//!   batch, an acknowledgement level ([`Acks`]), optional idempotence —
//!   or through the [`AsyncProducer`] that batches over one.
//! * **Reads** go through a [`PartitionReader`] from explicit offsets,
//!   and a topic is read through the one read drive on top of it,
//!   [`TopicReader::next_batch`]: end refresh, capping to the finish line
//!   (bounded: ends at start; follow: a [`FollowTarget`]), fetch, the
//!   stall exit and [`Backoff`] in one loop that all four engine
//!   connectors call. Subtask `i` of `p` reads the partitions
//!   `{j : j mod p = i}`, as the engines' stock Kafka connectors split a
//!   topic, and nothing coordinates between readers.
//! * A [`Cluster`] of brokers assigns partition leaders and maintains
//!   follower replicas according to the topic's replication factor.
//! * The data plane is **one path**: every produce — a named
//!   `Broker`/`Cluster` call or a handle, one record (a batch of one) or
//!   five hundred — runs the same liveness → fault gate → append-under-
//!   the-partition-lock (round trip, epoch fence, dedup, one
//!   `LogAppendTime` stamp per batch), and every fetch the same liveness
//!   → fault gate → round trip → read. **Partition handles**
//!   ([`PartitionWriter`], [`PartitionReader`]) differ from named calls
//!   only in naming the partition once: they hold what `(topic,
//!   partition)` resolved to — on a broker or a cluster — so
//!   steady-state hot loops skip name hashing, map locking, and key
//!   allocation entirely, and they retry under a [`RetryPolicy`].
//! * A seeded, deterministic **fault plan** ([`FaultPlan`]) injects
//!   transient broker errors, lost acks, duplicate appends, and added
//!   latency; clients retry under a [`RetryPolicy`] and idempotent
//!   writers deduplicate resends broker-side, giving at-least-once
//!   delivery with exactly-once log contents.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use logbus::{Broker, Record, TopicConfig};
//!
//! let broker = Broker::new();
//! broker.create_topic("events", TopicConfig::default().partitions(1))?;
//!
//! let writer = broker.partition_writer("events", 0)?;
//! writer.produce(Record::from_value("hello"))?;
//!
//! let reader = broker.partition_reader("events", 0)?;
//! let records = reader.fetch(0, 10)?;
//! assert_eq!(records.len(), 1);
//! assert_eq!(&records[0].record.value[..], b"hello");
//! # Ok(())
//! # }
//! ```
//!
//! [`Acks`]: crate::Acks
//! [`Cluster`]: crate::Cluster

mod admin;
mod async_producer;
mod backoff;
mod broker;
mod bus;
mod clock;
mod cluster;
mod config;
mod election;
mod error;
mod fault;
mod handle;
mod log;
pub mod pool;
mod reader;
mod record;
mod retry;
mod segment;
mod telemetry;
mod topic;

pub use admin::TopicDescription;
pub use async_producer::AsyncProducer;
pub use backoff::Backoff;
pub use broker::Broker;
pub use bus::{Bus, BusHandle};
pub use clock::{Clock, ManualClock, SystemClock};
pub use cluster::{Cluster, ClusterConfig};
pub use config::{Acks, TopicConfig};
pub use error::{Error, Result};
pub use fault::{FaultOp, FaultPlan};
pub use handle::{PartitionReader, PartitionWriter};
pub use log::{LogStats, OffsetError, PartitionLog};
pub use reader::{FollowTarget, TopicReader};
pub use record::{partition_for_key, Record, StoredRecord, Timestamp};
pub use retry::{with_retry, RetryPolicy};
pub use segment::Segment;
pub use topic::Topic;

/// End-of-suite gate for the `check-sync` build: the unit tests above
/// must leave the lock-order graph acyclic and every append witness
/// untripped. Named `zzz_` so libtest's alphabetical order runs it last
/// (CI passes `--test-threads=1`).
#[cfg(all(test, feature = "check-sync"))]
#[test]
fn zzz_sync_checker_is_clean() {
    parking_lot::sync_check::assert_clean("logbus unit tests");
    println!("{}", parking_lot::sync_check::report());
}
