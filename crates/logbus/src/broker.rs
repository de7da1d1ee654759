//! The broker: topic management, handle resolution, and the liveness
//! and fault gates in front of every request.

use crate::clock::{Clock, SystemClock};
use crate::config::TopicConfig;
use crate::error::{Error, Result};
use crate::fault::{FaultAction, FaultInjector, FaultOp, FaultPlan};
use crate::handle::Route;
use crate::record::{StoredRecord, Timestamp};
use crate::topic::{spin_delay, Topic};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A single in-process broker.
///
/// `Broker` is a cheap handle (internally reference-counted); clone it
/// freely into producers, consumers, and engine connectors. For the
/// multi-broker, replicated setup the paper uses, see
/// [`Cluster`](crate::Cluster).
#[derive(Debug, Clone)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

#[derive(Debug)]
struct BrokerInner {
    /// The topic map. It guards only the name→topic mapping: each
    /// partition's append lock lives inside its [`Topic`], and hot loops
    /// hold partition handles that skip the map.
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    clock: Arc<dyn Clock>,
    /// Simulated network round-trip per client request, in microseconds.
    request_latency_micros: std::sync::atomic::AtomicU64,
    /// Installed fault plan, if any; `faults_enabled` mirrors its
    /// presence so the steady-state path pays one relaxed load.
    faults: RwLock<Option<Arc<FaultInjector>>>,
    faults_enabled: AtomicBool,
    /// Process liveness: `false` after a (simulated) crash. Every client
    /// request checks this with one relaxed load; a dead broker answers
    /// everything with [`Error::BrokerDown`]. The logs themselves survive
    /// — a restart is the same process with its disk intact.
    alive: AtomicBool,
}

impl Default for Broker {
    fn default() -> Self {
        Self::new()
    }
}

impl Broker {
    /// Creates a broker using the wall clock for `LogAppendTime`.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(SystemClock::new()))
    }

    /// Creates a broker with an explicit clock (e.g. a
    /// [`ManualClock`](crate::ManualClock) in tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Broker {
            inner: Arc::new(BrokerInner {
                topics: RwLock::new(HashMap::new()),
                clock,
                request_latency_micros: std::sync::atomic::AtomicU64::new(0),
                faults: RwLock::new(None),
                faults_enabled: AtomicBool::new(false),
                alive: AtomicBool::new(true),
            }),
        }
    }

    /// Whether the broker is up. Dead brokers reject every request with
    /// [`Error::BrokerDown`].
    pub fn is_alive(&self) -> bool {
        self.inner.alive.load(Ordering::Relaxed)
    }

    /// Simulates a broker crash: from now on every request fails with
    /// [`Error::BrokerDown`]. Logs stay in place (the crash loses the
    /// process, not the disk); [`Broker::restart`] brings the broker
    /// back. Idempotent.
    pub fn kill(&self) {
        self.inner.alive.store(false, Ordering::Relaxed);
    }

    /// Brings a killed broker back up. Idempotent; the restarted broker
    /// serves its logs as they were at the crash. A rejoining
    /// cluster replica is additionally truncated to its leader's log by
    /// [`Cluster::restart_broker`](crate::Cluster::restart_broker).
    pub fn restart(&self) {
        self.inner.alive.store(true, Ordering::Relaxed);
    }

    /// One-relaxed-load liveness gate at the top of every request path.
    pub(crate) fn ensure_alive(&self) -> Result<()> {
        if self.inner.alive.load(Ordering::Relaxed) {
            Ok(())
        } else {
            Err(Error::BrokerDown)
        }
    }

    /// Installs a [`FaultPlan`]: from now on produce, fetch, and metadata
    /// requests consult it for injected transient faults. Replaces any
    /// previously installed plan (and its decision-stream state).
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *self.inner.faults.write() = Some(Arc::new(FaultInjector::new(plan)));
        self.inner.faults_enabled.store(true, Ordering::Relaxed);
    }

    /// Removes the installed [`FaultPlan`], restoring fault-free service.
    pub fn clear_fault_plan(&self) {
        self.inner.faults_enabled.store(false, Ordering::Relaxed);
        *self.inner.faults.write() = None;
    }

    /// Draws a fault decision for one request; `None` on the fault-free
    /// fast path (one relaxed load when no plan is installed).
    pub(crate) fn fault_action(
        &self,
        op: FaultOp,
        topic: &str,
        partition: u32,
    ) -> Option<FaultAction> {
        if !self.inner.faults_enabled.load(Ordering::Relaxed) {
            return None;
        }
        let injector = self.inner.faults.read().clone()?;
        let action = injector.decide(op, topic, partition)?;
        action.count();
        Some(action)
    }

    /// Consults the fault plan for a request that can only fail or slow
    /// down (fetch/metadata): pays injected latency in place and returns
    /// the injected error, if any.
    pub(crate) fn fault_gate(&self, op: FaultOp, topic: &str, partition: u32) -> Result<()> {
        match self.fault_action(op, topic, partition) {
            None => Ok(()),
            Some(FaultAction::Latency(extra)) => {
                spin_delay(extra);
                Ok(())
            }
            Some(FaultAction::Error(e)) => Err(e),
            // Produce-only actions cannot be drawn for fetch/metadata ops.
            Some(FaultAction::AckLost | FaultAction::Duplicate) => Ok(()),
        }
    }

    /// Reads the broker clock.
    pub fn now(&self) -> Timestamp {
        self.inner.clock.now()
    }

    /// Reads the broker clock as a raw microsecond count.
    ///
    /// Event times stamped from this reading are directly comparable
    /// with the `LogAppendTime` stamps the broker assigns on append —
    /// both come from the same monotone clock, so sink-observation
    /// minus event time is a well-defined end-to-end latency.
    pub fn now_micros(&self) -> i64 {
        self.inner.clock.now_micros()
    }

    /// The clock this broker stamps `LogAppendTime` with.
    ///
    /// Load generators share it so event times and append stamps live
    /// in one time domain.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// Simulates a network round trip of `micros` microseconds on every
    /// produce and fetch request.
    ///
    /// The paper's brokers run on a separate three-node cluster, so every
    /// client request pays a network RTT; an in-process broker does not.
    /// Batched clients amortize the RTT over hundreds of records while
    /// per-record synchronous producers pay it per record — a distinction
    /// several measured effects depend on. Zero (the default) disables the
    /// simulation.
    pub fn set_request_latency_micros(&self, micros: u64) {
        self.inner
            .request_latency_micros
            .store(micros, std::sync::atomic::Ordering::Relaxed);
    }

    /// The configured simulated request latency in microseconds.
    pub fn request_latency_micros(&self) -> u64 {
        self.inner
            .request_latency_micros
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    pub(crate) fn request_delay(&self) -> std::time::Duration {
        std::time::Duration::from_micros(self.request_latency_micros())
    }

    /// Creates a topic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TopicExists`] if the name is taken and
    /// [`Error::InvalidConfig`] if the configuration is invalid.
    pub fn create_topic(&self, name: impl Into<String>, config: TopicConfig) -> Result<()> {
        let name = name.into();
        let topic = Arc::new(Topic::new(name.clone(), config)?);
        let mut topics = self.inner.topics.write();
        if topics.contains_key(&name) {
            return Err(Error::TopicExists(name));
        }
        topics.insert(name, topic);
        Ok(())
    }

    /// Deletes a topic, releasing its records.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTopic`] if the topic does not exist.
    pub fn delete_topic(&self, name: &str) -> Result<()> {
        self.inner
            .topics
            .write()
            .remove(name)
            .map(drop)
            .ok_or_else(|| Error::UnknownTopic(name.to_string()))
    }

    /// Whether a topic exists.
    pub fn has_topic(&self, name: &str) -> bool {
        self.inner.topics.read().contains_key(name)
    }

    /// Looks up a topic handle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTopic`] if the topic does not exist.
    pub fn topic(&self, name: &str) -> Result<Arc<Topic>> {
        self.inner
            .topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownTopic(name.to_string()))
    }

    /// The one fetch request, shared by the cached readers and the
    /// cluster's committed reads: liveness → the fetch fault gate → the
    /// simulated round trip → the read. The delay is paid *outside* any
    /// partition lock — concurrent fetches overlap, whereas produces spin
    /// **while holding** the partition append lock (one partition has one
    /// leader, so same-partition produce requests serialize). **Appends**
    /// into `out`, returning the number of records appended.
    pub(crate) fn read_request(
        &self,
        topic: &Topic,
        partition: u32,
        offset: u64,
        max: usize,
        out: &mut Vec<StoredRecord>,
    ) -> Result<usize> {
        self.ensure_alive()?;
        self.fault_gate(FaultOp::Fetch, topic.name(), partition)?;
        spin_delay(self.request_delay());
        topic.read_into(partition, offset, max, out)
    }

    /// Resolves `(topic, partition)` for a cached handle: one metadata
    /// request.
    fn resolve(&self, topic: &str, partition: u32) -> Result<Route> {
        self.ensure_alive()?;
        let t = self.topic(topic)?;
        self.fault_gate(FaultOp::Metadata, topic, partition)?;
        if partition >= t.partition_count() {
            return Err(Error::UnknownPartition {
                topic: topic.to_string(),
                partition,
            });
        }
        Ok(Route::Direct {
            broker: self.clone(),
            topic: t,
        })
    }

    /// Resolves a cached produce handle for one partition; see
    /// [`PartitionWriter`](crate::PartitionWriter).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTopic`] or [`Error::UnknownPartition`].
    pub fn partition_writer(&self, topic: &str, partition: u32) -> Result<crate::PartitionWriter> {
        let route = self.resolve(topic, partition)?;
        Ok(crate::PartitionWriter::new(route, partition))
    }

    /// Resolves a cached fetch handle for one partition; see
    /// [`PartitionReader`](crate::PartitionReader).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTopic`] or [`Error::UnknownPartition`].
    pub fn partition_reader(&self, topic: &str, partition: u32) -> Result<crate::PartitionReader> {
        let route = self.resolve(topic, partition)?;
        Ok(crate::PartitionReader::new(route, partition))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::handle::{PartitionReader, PartitionWriter};
    use crate::record::Record;
    use crate::retry::RetryPolicy;

    fn writer(broker: &Broker, topic: &str) -> PartitionWriter {
        broker.partition_writer(topic, 0).unwrap()
    }

    fn reader(broker: &Broker, topic: &str) -> PartitionReader {
        broker.partition_reader(topic, 0).unwrap()
    }

    /// The error of a request made once under [`RetryPolicy::none()`].
    fn only_attempt(error: Error) -> Error {
        match error {
            Error::RetriesExhausted { attempts: 1, last } => *last,
            other => panic!("expected one attempt, got {other:?}"),
        }
    }

    #[test]
    fn topic_lifecycle() {
        let broker = Broker::new();
        broker.create_topic("a", TopicConfig::default()).unwrap();
        assert!(broker.has_topic("a"));
        assert_eq!(
            broker.create_topic("a", TopicConfig::default()),
            Err(Error::TopicExists("a".to_string()))
        );
        assert!(!broker.has_topic("b"));
        broker.delete_topic("a").unwrap();
        assert!(!broker.has_topic("a"));
        assert!(broker.delete_topic("a").is_err());
    }

    #[test]
    fn produce_and_fetch_roundtrip() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = writer(&broker, "t");
        for i in 0..10 {
            let off = writer.produce(Record::from_value(format!("{i}"))).unwrap();
            assert_eq!(off, i);
        }
        let reader = reader(&broker, "t");
        let records = reader.fetch(3, 4).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(&records[0].record.value[..], b"3");
        assert_eq!(reader.latest_offset().unwrap(), 10);
    }

    #[test]
    fn batch_gets_single_append_stamp() {
        let clock = Arc::new(ManualClock::new(1_000));
        let broker = Broker::with_clock(clock);
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let batch: Vec<Record> = (0..5).map(|i| Record::from_value(format!("{i}"))).collect();
        writer(&broker, "t").produce_batch(batch).unwrap();
        let records = reader(&broker, "t").fetch(0, 10).unwrap();
        let stamps: Vec<i64> = records.iter().map(|r| r.timestamp.as_micros()).collect();
        assert!(
            stamps.windows(2).all(|w| w[0] == w[1]),
            "batch shares one stamp"
        );
    }

    #[test]
    fn log_append_time_is_monotone() {
        let broker = Broker::with_clock(Arc::new(ManualClock::new(0)));
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = writer(&broker, "t");
        for i in 0..100 {
            writer.produce(Record::from_value(format!("{i}"))).unwrap();
        }
        let records = reader(&broker, "t").fetch(0, 1000).unwrap();
        assert!(records.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn log_append_time_has_microsecond_resolution() {
        // Appends one microsecond apart must receive distinct stamps —
        // millisecond truncation anywhere in the stamping path would
        // collapse them.
        let broker = Broker::with_clock(Arc::new(ManualClock::new(1_000_000)));
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = writer(&broker, "t");
        writer.produce(Record::from_value("a")).unwrap();
        writer.produce(Record::from_value("b")).unwrap();
        let records = reader(&broker, "t").fetch(0, 10).unwrap();
        assert_eq!(
            records[1].timestamp.as_micros() - records[0].timestamp.as_micros(),
            1
        );
        assert!(broker.now_micros() > 1_000_000);
    }

    #[test]
    fn request_latency_slows_requests() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        assert_eq!(broker.request_latency_micros(), 0);
        broker.set_request_latency_micros(2_000);
        let writer = writer(&broker, "t");
        let start = std::time::Instant::now();
        for _ in 0..5 {
            writer.produce(Record::from_value("x")).unwrap();
        }
        assert!(start.elapsed() >= std::time::Duration::from_millis(10));
    }

    #[test]
    fn fault_plan_injects_and_clears() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let writer = writer(&broker, "t").with_retry(RetryPolicy::none());
        let mut plan = FaultPlan::seeded(1);
        plan.produce_error = 1.0;
        plan.max_consecutive = 1;
        broker.install_fault_plan(plan);
        let err = only_attempt(writer.produce(Record::from_value("x")).unwrap_err());
        assert!(err.is_transient(), "{err:?}");
        // The consecutive-fault bound forces the next request through.
        writer.produce(Record::from_value("y")).unwrap();
        broker.clear_fault_plan();
        for _ in 0..50 {
            writer.produce(Record::from_value("z")).unwrap();
        }
    }

    #[test]
    fn lost_ack_applies_the_append() {
        let broker = Broker::new();
        broker.create_topic("t", TopicConfig::default()).unwrap();
        let mut plan = FaultPlan::seeded(2);
        plan.produce_error = 0.0;
        plan.fetch_error = 0.0;
        plan.metadata_error = 0.0;
        plan.ack_loss = 1.0;
        plan.duplicate = 0.0;
        plan.extra_latency = 0.0;
        plan.max_consecutive = 1;
        broker.install_fault_plan(plan);
        let writer = writer(&broker, "t").with_retry(RetryPolicy::none());
        let reader = reader(&broker, "t");
        let err = only_attempt(writer.produce(Record::from_value("x")).unwrap_err());
        assert_eq!(err, Error::RequestTimedOut);
        // The record landed even though the ack was lost.
        assert_eq!(reader.latest_offset().unwrap(), 1);
        // `max_consecutive` lets the next request through; the one after
        // loses its ack again — a batch lands whole, exactly once.
        writer.produce(Record::from_value("y")).unwrap();
        let batch = vec![Record::from_value("a"), Record::from_value("b")];
        let err = only_attempt(writer.produce_batch(batch).unwrap_err());
        assert_eq!(err, Error::RequestTimedOut);
        assert_eq!(reader.latest_offset().unwrap(), 4);
    }

    #[test]
    fn unknown_topic_errors() {
        let broker = Broker::new();
        assert!(broker.partition_writer("nope", 0).is_err());
        assert!(broker.partition_reader("nope", 0).is_err());
        assert!(broker.topic("nope").is_err());
    }

    #[test]
    fn topic_map_resolves_many_topics() {
        let broker = Broker::new();
        for i in 0..64 {
            broker
                .create_topic(format!("topic-{i}"), TopicConfig::default())
                .unwrap();
        }
        for i in 0..64 {
            let name = format!("topic-{i}");
            assert!(broker.has_topic(&name));
            assert_eq!(broker.topic(&name).unwrap().name(), name);
            writer(&broker, &name)
                .produce(Record::from_value("x"))
                .unwrap();
            assert_eq!(reader(&broker, &name).latest_offset().unwrap(), 1);
        }
        broker.delete_topic("topic-7").unwrap();
        for i in 0..64 {
            assert_eq!(broker.has_topic(&format!("topic-{i}")), i != 7);
        }
    }
}
