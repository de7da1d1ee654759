//! A multi-broker cluster with partition leaders, follower replicas,
//! epoch-fenced leader election, and committed (high-watermark) reads.
//!
//! The paper's setup runs Apache Kafka on a three-node cluster with
//! single-partition, replication-factor-one topics. [`Cluster`] models
//! the general case — leader assignment, synchronous follower
//! replication, and crash failover — so the benchmark's topology is just
//! a configuration of it.
//!
//! # Failure model
//!
//! Each partition has a fixed replica set (leader first) and a
//! [`PartitionState`] tracking the leader epoch, the in-sync set, and
//! each replica's confirmed log end. A broker can be killed
//! ([`Cluster::kill_broker`]); its logs survive, only the process dies.
//! The next request that needs the dead leader runs an election: the
//! live in-sync replica with the most confirmed log is promoted, the
//! epoch is bumped and fenced onto every live replica's log, and
//! divergent tails past the new leader's end are truncated. A restarted
//! broker rejoins as a follower — its log truncated back to
//! its last confirmed offset — and re-enters the in-sync set once a
//! produce or read repair catches it up.
//!
//! Consumers only observe offsets below the **high-watermark** (the
//! minimum confirmed end across the in-sync set), so nothing a consumer
//! ever saw can be lost to an election, and a deposed leader's unacked
//! tail is never visible.

use crate::broker::Broker;
use crate::clock::{Clock, SystemClock};
use crate::config::{Acks, TopicConfig};
use crate::election::PartitionState;
use crate::error::{Error, Result};
use crate::fault::{FaultAction, FaultOp};
use crate::handle::{Route, WriteTarget};
use crate::record::{Record, StoredRecord};
use crate::topic::{spin_delay, Topic};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of broker nodes.
    pub brokers: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        // The paper's Kafka cluster has three nodes.
        ClusterConfig { brokers: 3 }
    }
}

/// Routing and replication state for one partition — what a
/// `(topic, partition)` name resolves to on a cluster. Named calls look
/// it up per call; routed handles hold it.
#[derive(Debug)]
pub(crate) struct PartitionRoute {
    topic: String,
    partition: u32,
    /// The fixed replica set (broker indices), designated leader first.
    /// Membership never changes; liveness and sync are tracked in
    /// `state`.
    replicas: Vec<usize>,
    /// Each replica's log, parallel to `replicas`, so a request never
    /// resolves the topic name on a broker. Weak: the hosting broker's
    /// topic map owns the log, and deleting the topic there frees it.
    logs: Vec<Weak<Topic>>,
    /// Serialises replicated produces, elections, and read repair for
    /// this partition — the single-writer rule the leader would enforce.
    produce: Mutex<()>,
    /// Epoch, leadership, in-sync set, and high-watermark.
    state: RwLock<PartitionState>,
}

impl PartitionRoute {
    /// The topic this route belongs to.
    pub(crate) fn topic(&self) -> &str {
        &self.topic
    }

    /// The log of replica `pos`.
    fn log(&self, pos: usize) -> Result<Arc<Topic>> {
        self.logs[pos]
            .upgrade()
            .ok_or_else(|| Error::UnknownTopic(self.topic.clone()))
    }
}

/// A set of brokers with per-partition leader assignment, synchronous
/// replication, and crash failover.
///
/// Produces go through the partition leader and replicate to every live
/// follower before the acknowledgement level is judged
/// ([`Acks::All`] waits for the full in-sync set). Fetches come from the
/// leader but are clamped to the high-watermark, so consumers only see
/// records the whole in-sync set holds.
#[derive(Debug, Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

#[derive(Debug)]
struct ClusterInner {
    brokers: Vec<Broker>,
    /// `topic -> partition -> route`, so a lookup borrows the caller's
    /// `&str`.
    routes: RwLock<HashMap<String, Vec<Arc<PartitionRoute>>>>,
    next_leader: RwLock<usize>,
}

impl Cluster {
    /// Creates a cluster with `config.brokers` brokers sharing one wall
    /// clock.
    pub fn new(config: ClusterConfig) -> Self {
        Self::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// Creates a cluster with an explicit shared clock.
    pub fn with_clock(config: ClusterConfig, clock: Arc<dyn Clock>) -> Self {
        let brokers = (0..config.brokers.max(1))
            .map(|_| Broker::with_clock(clock.clone()))
            .collect();
        Cluster {
            inner: Arc::new(ClusterInner {
                brokers,
                routes: RwLock::new(HashMap::new()),
                next_leader: RwLock::new(0),
            }),
        }
    }

    /// Number of broker nodes.
    pub fn broker_count(&self) -> u32 {
        self.inner.brokers.len() as u32
    }

    /// Direct handle to broker `index`, for replica inspection in tests.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn broker(&self, index: usize) -> &Broker {
        &self.inner.brokers[index]
    }

    /// Creates a topic across the cluster, assigning a leader and
    /// `replication_factor - 1` followers per partition, round-robin over
    /// brokers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotEnoughBrokers`] when the replication factor
    /// exceeds the broker count, [`Error::TopicExists`], or
    /// [`Error::InvalidConfig`].
    pub fn create_topic(&self, name: impl Into<String>, config: TopicConfig) -> Result<()> {
        let name = name.into();
        let n = self.inner.brokers.len();
        if config.replication_factor as usize > n {
            return Err(Error::NotEnoughBrokers {
                requested: config.replication_factor,
                available: n as u32,
            });
        }
        if self.inner.brokers.iter().any(|b| b.has_topic(&name)) {
            return Err(Error::TopicExists(name));
        }
        let mut routes = self.inner.routes.write();
        let mut next = self.inner.next_leader.write();
        let mut partitions = Vec::with_capacity(config.partitions as usize);
        for partition in 0..config.partitions {
            let leader = *next % n;
            *next += 1;
            let replicas: Vec<usize> = (0..config.replication_factor as usize)
                .map(|i| (leader + i) % n)
                .collect();
            let mut logs = Vec::with_capacity(replicas.len());
            for &b in &replicas {
                let broker = &self.inner.brokers[b];
                // A broker hosts the topic once even when it holds several
                // of its partitions.
                if !broker.has_topic(&name) {
                    broker.create_topic(&name, config.clone())?;
                }
                logs.push(Arc::downgrade(&broker.topic(&name)?));
            }
            let state = PartitionState::new(replicas.len());
            partitions.push(Arc::new(PartitionRoute {
                topic: name.clone(),
                partition,
                replicas,
                logs,
                produce: Mutex::new(()),
                state: RwLock::new(state),
            }));
        }
        routes.insert(name, partitions);
        Ok(())
    }

    /// Resolves a partition name to its route — the per-call cost of a
    /// named cluster operation, paid once by a handle.
    fn route(&self, topic: &str, partition: u32) -> Result<Arc<PartitionRoute>> {
        let routes = self.inner.routes.read();
        let Some(partitions) = routes.get(topic) else {
            return Err(Error::UnknownTopic(topic.to_string()));
        };
        partitions
            .get(partition as usize)
            .cloned()
            .ok_or_else(|| Error::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })
    }

    /// Index of the leader broker for a partition.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTopic`] for unplaced partitions.
    pub fn leader_of(&self, topic: &str, partition: u32) -> Result<usize> {
        let route = self.route(topic, partition)?;
        let pos = route.state.read().leader_pos;
        Ok(route.replicas[pos])
    }

    /// Leader epoch the partition is currently at (bumped by every
    /// election).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTopic`] for unplaced partitions.
    pub fn leader_epoch(&self, topic: &str, partition: u32) -> Result<u64> {
        Ok(self.route(topic, partition)?.state.read().epoch)
    }

    /// The partition's high-watermark: the frontier consumers can see.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTopic`] for unplaced partitions.
    pub fn high_watermark_of(&self, topic: &str, partition: u32) -> Result<u64> {
        Ok(self.route(topic, partition)?.state.read().hw)
    }

    // ---- failover ------------------------------------------------------

    /// Kills broker `index`: every request it hosts fails with
    /// [`Error::BrokerDown`] until [`Cluster::restart_broker`]. Elections
    /// run lazily — the next produce or committed fetch that needs a dead
    /// leader promotes an in-sync follower.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn kill_broker(&self, index: usize) {
        self.inner.brokers[index].kill();
    }

    /// Restarts broker `index` and repairs its logs: every partition it
    /// replicates is truncated back to its divergence point — the
    /// replica's last confirmed offset, capped at the start of the first
    /// epoch elected while it was down (discarding any unacknowledged
    /// tail a deposed leader wrote) — and fenced at the current epoch. The broker rejoins each in-sync
    /// set only after the next produce or read repair catches it up.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn restart_broker(&self, index: usize) {
        self.inner.brokers[index].restart();
        let hosted: Vec<Arc<PartitionRoute>> = self
            .inner
            .routes
            .read()
            .values()
            .flatten()
            .filter(|route| route.replicas.contains(&index))
            .cloned()
            .collect();
        for route in hosted {
            let partition = route.partition;
            let _produce = route.produce.lock();
            let mut st = route.state.write();
            let Some(pos) = route.replicas.iter().position(|&b| b == index) else {
                continue;
            };
            let Ok(t) = route.log(pos) else {
                continue;
            };
            // The replica's own fence, read before it is raised: the
            // last election it was alive for.
            let own_epoch = t.leader_epoch(partition).unwrap_or(0);
            st.synced[pos] = st.divergence_point(pos, own_epoch);
            let truncated = t.truncate_to(partition, st.synced[pos]).unwrap_or(0);
            let _ = t.set_leader_epoch(partition, st.epoch);
            if pos != st.leader_pos {
                // Out of sync until a produce or repair catches it up.
                st.in_sync[pos] = false;
            }
            if truncated > 0 && obs::enabled() {
                crate::telemetry::failover_path()
                    .truncated_records
                    .add(truncated);
            }
        }
    }

    /// Runs an election for a partition whose leader is dead. Requires
    /// the route's produce lock and state write lock (passed as `st`).
    fn elect_locked(&self, route: &PartitionRoute, st: &mut PartitionState) -> Result<()> {
        let partition = route.partition;
        let mut alive = [false; 64];
        let n = route.replicas.len().min(alive.len());
        for (pos, flag) in alive.iter_mut().enumerate().take(n) {
            *flag = self.inner.brokers[route.replicas[pos]].is_alive();
        }
        if st.elect(&alive[..n]).is_none() {
            return Err(Error::PartitionOffline {
                topic: route.topic.clone(),
                partition,
            });
        }
        // Fence the new epoch onto every live replica's log and truncate
        // divergent tails past the new leader's end: records the old
        // leader appended without full acknowledgement disappear here,
        // before anything ever read them (they were above the
        // high-watermark by construction).
        let leader_topic = route.log(st.leader_pos)?;
        leader_topic.set_leader_epoch(partition, st.epoch)?;
        let leader_end = leader_topic.latest_offset(partition)?;
        st.epoch_starts.push((st.epoch, leader_end));
        let mut epoch_bumps = 1u64;
        let mut truncated = 0u64;
        for pos in 0..route.replicas.len() {
            if pos == st.leader_pos || !alive.get(pos).copied().unwrap_or(false) {
                continue;
            }
            let t = route.log(pos)?;
            t.set_leader_epoch(partition, st.epoch)?;
            truncated += t.truncate_to(partition, leader_end)?;
            st.synced[pos] = st.synced[pos].min(leader_end);
            epoch_bumps += 1;
        }
        let leader_pos = st.leader_pos;
        st.synced[leader_pos] = leader_end;
        st.recompute_hw();
        if obs::enabled() {
            let path = crate::telemetry::failover_path();
            path.elections.add(1);
            path.epoch_bumps.add(epoch_bumps);
            path.truncated_records.add(truncated);
        }
        Ok(())
    }

    /// Ensures the partition has a live leader, electing one if needed.
    fn ensure_leader(&self, route: &PartitionRoute) -> Result<()> {
        let leader_dead = {
            let st = route.state.read();
            !self.inner.brokers[route.replicas[st.leader_pos]].is_alive()
        };
        if !leader_dead {
            return Ok(());
        }
        let _produce = route.produce.lock();
        let mut st = route.state.write();
        if !self.inner.brokers[route.replicas[st.leader_pos]].is_alive() {
            self.elect_locked(route, &mut st)?;
        }
        Ok(())
    }

    // ---- replicated produce --------------------------------------------

    /// Brings every live follower up to `leader_end` in one replication
    /// round, maintaining the in-sync set: dead followers drop out,
    /// caught-up followers (re-)enter, faulted ones stay in but lag —
    /// holding the high-watermark back until they recover.
    ///
    /// Followers fetch concurrently, as Kafka's do, so the round costs
    /// its longest leg — one follower's round trip plus any latency fault
    /// drawn for it — and not the sum of the legs. Three passes: gate
    /// each lagging follower (one fault draw each, in replica order),
    /// charge the round once, copy.
    fn sync_followers(
        &self,
        route: &PartitionRoute,
        st: &mut PartitionState,
        leader_topic: &Topic,
        leader_end: u64,
    ) -> Result<()> {
        let partition = route.partition;
        let mut round = Duration::ZERO;
        st.legs.clear();
        for (pos, &replica) in route.replicas.iter().enumerate() {
            if pos == st.leader_pos {
                continue;
            }
            let follower = &self.inner.brokers[replica];
            if !follower.is_alive() {
                st.in_sync[pos] = false;
                continue;
            }
            if st.synced[pos] >= leader_end {
                st.in_sync[pos] = true;
                continue;
            }
            // The replication fetch keeps a fault gate of its own — a
            // replica copy is keyed by offset, so its outcomes differ from
            // a client produce's: transient errors leave the follower lagging
            // (in sync, but holding the high-watermark back), a lost ack
            // applies the copy without confirming it — the next round
            // skips what the follower already holds.
            let mut leg = follower.request_delay();
            let mut acked = true;
            match follower.fault_action(FaultOp::Produce, &route.topic, partition) {
                None => {}
                Some(FaultAction::Latency(extra)) => leg += extra,
                Some(FaultAction::Error(_)) => continue,
                Some(FaultAction::AckLost) => acked = false,
                // Replica copies are keyed by offset, so a duplicate
                // delivery is absorbed broker-side.
                Some(FaultAction::Duplicate) => {}
            }
            round = round.max(leg);
            st.legs.push((pos, acked));
        }
        spin_delay(round);
        for &(pos, acked) in &st.legs {
            let follower_topic = route.log(pos)?;
            match follower_topic.append_range(partition, leader_topic, st.synced[pos], leader_end) {
                Ok(_) => {}
                // The follower's log and the range do not line up: a
                // replica fault like the ones above — the follower lags
                // and holds the high-watermark back; nothing was appended.
                Err(Error::ReplicaMisaligned { .. }) => continue,
                Err(other) => return Err(other),
            }
            if acked {
                st.synced[pos] = leader_end;
                st.in_sync[pos] = true;
            }
        }
        st.recompute_hw();
        Ok(())
    }

    /// The replicated produce path: append to the (live, fenced) leader,
    /// replicate to followers, judge `acks`, advance the high-watermark.
    /// Drains `records` on overall success and leaves them intact on
    /// failure — the caller's buffer is the resend queue.
    ///
    /// # Errors
    ///
    /// [`Error::BrokerDown`] when the leader was killed mid-request,
    /// [`Error::PartitionOffline`] when no in-sync replica is alive,
    /// [`Error::RequestTimedOut`] when `acks` is [`Acks::All`] and the
    /// in-sync set has not fully confirmed the batch (the leader holds
    /// it; an idempotent retry deduplicates), plus topic/partition
    /// lookup failures.
    pub(crate) fn replicated_append(
        &self,
        route: &PartitionRoute,
        records: &mut Vec<Record>,
        seq: Option<(u64, u64)>,
        acks: Acks,
    ) -> Result<u64> {
        let partition = route.partition;
        let _produce = route.produce.lock();
        let mut st = route.state.write();
        if !self.inner.brokers[route.replicas[st.leader_pos]].is_alive() {
            self.elect_locked(route, &mut st)?;
        }
        let leader_pos = st.leader_pos;
        let leader_topic = route.log(leader_pos)?;

        // The leader append is the same produce request a single broker
        // runs, fenced at the epoch this request resolved. It reads the
        // caller's records in place; they are cleared below only once
        // `acks` is met, so an `acks=all` shortfall leaves them for the
        // resend.
        let target = WriteTarget {
            broker: &self.inner.brokers[route.replicas[leader_pos]],
            topic: &leader_topic,
            fence: Some(st.epoch),
        };
        let base = target.request(partition, records, seq)?;
        let leader_end = leader_topic.latest_offset(partition)?;
        st.synced[leader_pos] = leader_end;

        self.sync_followers(route, &mut st, &leader_topic, leader_end)?;

        if acks == Acks::All && !st.fully_acked(leader_end) {
            // The leader holds the batch but the in-sync set has not
            // confirmed it; the records stay with the caller for the
            // retry, which an idempotent sequencer deduplicates.
            return Err(Error::RequestTimedOut);
        }
        records.clear();
        Ok(base)
    }

    // ---- committed reads -----------------------------------------------

    /// Read repair: if the high-watermark trails the leader's log end
    /// (an `acks=1` produce left followers behind, or a follower just
    /// rejoined), catch the followers up so it can advance. Skips
    /// silently when a producer holds the partition lock — that produce
    /// will advance the watermark itself.
    fn try_advance_hw(&self, route: &PartitionRoute) -> Result<()> {
        let Some(_produce) = route.produce.try_lock() else {
            return Ok(());
        };
        let mut st = route.state.write();
        if !self.inner.brokers[route.replicas[st.leader_pos]].is_alive() {
            self.elect_locked(route, &mut st)?;
        }
        let leader_pos = st.leader_pos;
        let leader_topic = route.log(leader_pos)?;
        let leader_end = leader_topic.latest_offset(route.partition)?;
        st.synced[leader_pos] = leader_end;
        if !st.fully_acked(leader_end) {
            self.sync_followers(route, &mut st, &leader_topic, leader_end)?;
        } else {
            st.recompute_hw();
        }
        Ok(())
    }

    /// The current leader: its position in the replica set and its
    /// broker.
    fn leader<'a>(&'a self, route: &PartitionRoute) -> (usize, &'a Broker) {
        let pos = route.state.read().leader_pos;
        (pos, &self.inner.brokers[route.replicas[pos]])
    }

    /// Fetches up to `max` committed records (below the high-watermark)
    /// from the partition leader, **appending** into `out`. Returns the
    /// number appended — 0 when `offset` has reached the committed
    /// frontier.
    pub(crate) fn committed_read_into(
        &self,
        route: &PartitionRoute,
        offset: u64,
        max: usize,
        out: &mut Vec<StoredRecord>,
    ) -> Result<usize> {
        self.ensure_leader(route)?;
        let mut hw = route.state.read().hw;
        if offset >= hw {
            // Nothing committed past the cursor: repair the watermark
            // (laggards may be holding it back) and re-check.
            self.try_advance_hw(route)?;
            hw = route.state.read().hw;
            if offset >= hw {
                return Ok(0);
            }
        }
        let (pos, broker) = self.leader(route);
        let capped = max.min((hw - offset) as usize);
        broker.read_request(&*route.log(pos)?, route.partition, offset, capped, out)
    }

    /// The committed frontier consumers can read to — the
    /// high-watermark, repaired forward if followers were lagging.
    pub(crate) fn committed_latest_offset(&self, route: &PartitionRoute) -> Result<u64> {
        self.ensure_leader(route)?;
        self.try_advance_hw(route)?;
        let (broker, hw) = {
            let st = route.state.read();
            (&self.inner.brokers[route.replicas[st.leader_pos]], st.hw)
        };
        broker.ensure_alive()?;
        broker.fault_gate(FaultOp::Metadata, &route.topic, route.partition)?;
        Ok(hw)
    }

    // ---- named paths ---------------------------------------------------
    //
    // Each resolves the route by name, then runs what a routed handle
    // runs — one shot, without the handle's retry loop.

    /// Appends a batch through the replicated produce path with
    /// [`Acks::All`] (one shot — no client retry; use a
    /// [`PartitionWriter`](crate::PartitionWriter) for failover-riding
    /// produces). Returns the leader's base offset.
    ///
    /// # Errors
    ///
    /// Same as the replicated produce path.
    pub fn produce_batch(
        &self,
        topic: &str,
        partition: u32,
        mut records: Vec<Record>,
    ) -> Result<u64> {
        let route = self.route(topic, partition)?;
        let result = crate::telemetry::observed_produce(&mut records, |records| {
            self.replicated_append(&route, records, None, Acks::All)
        });
        crate::pool::recycle_record_vec(records);
        result
    }

    /// Appends one record — a batch of one — through the replicated
    /// produce path. Returns the assigned offset.
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::produce_batch`].
    pub fn produce(&self, topic: &str, partition: u32, record: Record) -> Result<u64> {
        let mut batch = crate::pool::record_vec();
        batch.push(record);
        self.produce_batch(topic, partition, batch)
    }

    /// Next committed offset (the high-watermark).
    ///
    /// # Errors
    ///
    /// Propagates topic/partition lookup failures.
    pub fn latest_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        self.committed_latest_offset(&*self.route(topic, partition)?)
    }

    /// Fetches committed records from the partition leader.
    ///
    /// # Errors
    ///
    /// Propagates topic/partition/offset failures.
    pub fn fetch(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
    ) -> Result<Vec<StoredRecord>> {
        let mut out = Vec::new();
        self.fetch_into(topic, partition, offset, max, &mut out)?;
        Ok(out)
    }

    /// Like [`Cluster::fetch`], but **appends** into `out`, returning the
    /// number of records appended.
    ///
    /// # Errors
    ///
    /// Propagates topic/partition/offset failures.
    pub fn fetch_into(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
        out: &mut Vec<StoredRecord>,
    ) -> Result<usize> {
        let route = self.route(topic, partition)?;
        crate::telemetry::observed_fetch(|| self.committed_read_into(&route, offset, max, out))
    }

    /// Resolves a cached produce handle routed through the cluster: it
    /// holds the partition's route, every attempt re-picks the leader
    /// from it, so the handle rides through leader changes, and it
    /// defaults to [`Acks::All`] (tune with
    /// [`PartitionWriter::with_acks`](crate::PartitionWriter::with_acks)).
    ///
    /// # Errors
    ///
    /// Propagates topic/partition lookup failures.
    pub fn partition_writer(&self, topic: &str, partition: u32) -> Result<crate::PartitionWriter> {
        let route = self.route(topic, partition)?;
        let cluster = self.clone();
        Ok(crate::PartitionWriter::new(
            Route::Routed { cluster, route },
            partition,
        ))
    }

    /// Resolves a cached fetch handle routed through the cluster: reads
    /// come from whoever currently leads the partition, clamped to the
    /// high-watermark.
    ///
    /// # Errors
    ///
    /// Propagates topic/partition lookup failures.
    pub fn partition_reader(&self, topic: &str, partition: u32) -> Result<crate::PartitionReader> {
        let route = self.route(topic, partition)?;
        let cluster = self.clone();
        Ok(crate::PartitionReader::new(
            Route::Routed { cluster, route },
            partition,
        ))
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Cluster::new(ClusterConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn leaders_round_robin() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster
            .create_topic("a", TopicConfig::default().partitions(3))
            .unwrap();
        let leaders: Vec<usize> = (0..3).map(|p| cluster.leader_of("a", p).unwrap()).collect();
        assert_eq!(leaders, vec![0, 1, 2]);
    }

    #[test]
    fn replication_factor_respected() {
        let cluster = Cluster::new(ClusterConfig { brokers: 2 });
        let err = cluster
            .create_topic("big", TopicConfig::default().replication_factor(3))
            .unwrap_err();
        assert!(matches!(
            err,
            Error::NotEnoughBrokers {
                requested: 3,
                available: 2
            }
        ));
    }

    #[test]
    fn followers_receive_records() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster
            .create_topic("r", TopicConfig::default().replication_factor(3))
            .unwrap();
        cluster.produce("r", 0, Record::from_value("x")).unwrap();
        for b in 0..3 {
            let records = cluster.broker(b).fetch("r", 0, 0, 10).unwrap();
            assert_eq!(records.len(), 1, "broker {b} missing replica");
        }
    }

    #[test]
    fn rf1_stays_on_leader() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster
            .create_topic("solo", TopicConfig::default())
            .unwrap();
        cluster.produce("solo", 0, Record::from_value("x")).unwrap();
        let leader = cluster.leader_of("solo", 0).unwrap();
        let mut hosted = 0;
        for b in 0..3 {
            if cluster.broker(b).has_topic("solo") {
                hosted += 1;
                assert_eq!(b, leader);
            }
        }
        assert_eq!(hosted, 1);
    }

    #[test]
    fn duplicate_topic_rejected() {
        let cluster = Cluster::default();
        cluster.create_topic("t", TopicConfig::default()).unwrap();
        assert!(matches!(
            cluster.create_topic("t", TopicConfig::default()),
            Err(Error::TopicExists(_))
        ));
    }

    #[test]
    fn fetch_reads_leader() {
        let cluster = Cluster::default();
        cluster.create_topic("t", TopicConfig::default()).unwrap();
        cluster
            .produce_batch(
                "t",
                0,
                vec![Record::from_value("a"), Record::from_value("b")],
            )
            .unwrap();
        let records = cluster.fetch("t", 0, 0, 10).unwrap();
        assert_eq!(records.len(), 2);
        assert!(cluster.fetch("missing", 0, 0, 1).is_err());
    }

    #[test]
    fn leader_kill_elects_most_caught_up_follower() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster
            .create_topic("t", TopicConfig::default().replication_factor(3))
            .unwrap();
        for i in 0..5 {
            cluster
                .produce("t", 0, Record::from_value(format!("{i}")))
                .unwrap();
        }
        let old_leader = cluster.leader_of("t", 0).unwrap();
        assert_eq!(cluster.leader_epoch("t", 0).unwrap(), 0);
        cluster.kill_broker(old_leader);
        // The next produce elects a follower and lands on it.
        let offset = cluster
            .produce("t", 0, Record::from_value("after"))
            .unwrap();
        assert_eq!(offset, 5);
        let new_leader = cluster.leader_of("t", 0).unwrap();
        assert_ne!(new_leader, old_leader);
        assert_eq!(cluster.leader_epoch("t", 0).unwrap(), 1);
        // Committed reads see everything: nothing readable was lost.
        let records = cluster.fetch("t", 0, 0, 10).unwrap();
        assert_eq!(records.len(), 6);
        assert_eq!(&records[5].record.value[..], b"after");
    }

    #[test]
    fn rf1_leader_kill_takes_partition_offline_until_restart() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster
            .create_topic("solo", TopicConfig::default())
            .unwrap();
        cluster.produce("solo", 0, Record::from_value("x")).unwrap();
        let leader = cluster.leader_of("solo", 0).unwrap();
        cluster.kill_broker(leader);
        assert!(matches!(
            cluster.produce("solo", 0, Record::from_value("y")),
            Err(Error::PartitionOffline { .. })
        ));
        cluster.restart_broker(leader);
        cluster.produce("solo", 0, Record::from_value("y")).unwrap();
        assert_eq!(cluster.fetch("solo", 0, 0, 10).unwrap().len(), 2);
    }

    #[test]
    fn restarted_broker_truncates_unacked_tail_and_rejoins() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster
            .create_topic("t", TopicConfig::default().replication_factor(3))
            .unwrap();
        cluster.produce("t", 0, Record::from_value("a")).unwrap();
        let old_leader = cluster.leader_of("t", 0).unwrap();
        // Fake a divergent unacked tail on the leader: write directly to
        // its log, bypassing replication (as a dying leader would).
        cluster
            .broker(old_leader)
            .produce("t", 0, Record::from_value("zombie"))
            .unwrap();
        cluster.kill_broker(old_leader);
        // Election promotes a follower that never saw "zombie"; a fresh
        // produce takes its offset.
        cluster.produce("t", 0, Record::from_value("b")).unwrap();
        cluster.restart_broker(old_leader);
        // The rejoined replica dropped the zombie record...
        let log = cluster.broker(old_leader).fetch("t", 0, 0, 10).unwrap();
        assert_eq!(log.len(), 1, "unacked tail must be truncated on rejoin");
        // ...and catches back up on the next produce, converging with the
        // new leader's log.
        cluster.produce("t", 0, Record::from_value("c")).unwrap();
        let log = cluster.broker(old_leader).fetch("t", 0, 0, 10).unwrap();
        let values: Vec<&[u8]> = log.iter().map(|r| &r.record.value[..]).collect();
        assert_eq!(values, vec![b"a" as &[u8], b"b", b"c"]);
        assert_eq!(cluster.fetch("t", 0, 0, 10).unwrap().len(), 3);
    }

    #[test]
    fn acks_levels_are_distinguishable_against_a_lagging_follower() {
        let cluster = Cluster::new(ClusterConfig { brokers: 2 });
        cluster
            .create_topic("t", TopicConfig::default().replication_factor(2))
            .unwrap();
        let leader = cluster.leader_of("t", 0).unwrap();
        let follower = (leader + 1) % 2;
        // The follower errors every replication fetch (it stays alive and
        // in sync, just unreachable), so the batch can never be fully
        // acknowledged while the plan is installed.
        let mut plan = FaultPlan::seeded(1);
        plan.produce_error = 1.0;
        plan.fetch_error = 0.0;
        plan.metadata_error = 0.0;
        plan.ack_loss = 0.0;
        plan.duplicate = 0.0;
        plan.extra_latency = 0.0;
        plan.max_consecutive = u32::MAX;
        cluster.broker(follower).install_fault_plan(plan);

        // acks=all: the leader takes the batch but the in-sync set never
        // confirms it.
        let route = cluster.route("t", 0).unwrap();
        let mut batch = vec![Record::from_value("a")];
        assert!(matches!(
            cluster.replicated_append(&route, &mut batch, None, Acks::All),
            Err(Error::RequestTimedOut)
        ));
        assert_eq!(batch.len(), 1, "failed batch stays with the caller");
        // acks=1 acks the same situation, with the high-watermark held
        // back by the lagging follower — committed reads see nothing.
        let mut batch = vec![Record::from_value("b")];
        cluster
            .replicated_append(&route, &mut batch, None, Acks::Leader)
            .unwrap();
        assert!(batch.is_empty(), "acked batch drains");
        assert_eq!(cluster.high_watermark_of("t", 0).unwrap(), 0);
        assert_eq!(cluster.fetch("t", 0, 0, 10).unwrap().len(), 0);

        // Once the follower heals, read repair catches it up and the
        // watermark advances over everything the leader holds.
        cluster.broker(follower).clear_fault_plan();
        assert_eq!(cluster.latest_offset("t", 0).unwrap(), 2);
        assert_eq!(cluster.fetch("t", 0, 0, 10).unwrap().len(), 2);
    }

    #[test]
    fn committed_reads_hide_unreplicated_records() {
        let cluster = Cluster::new(ClusterConfig { brokers: 3 });
        cluster
            .create_topic("t", TopicConfig::default().replication_factor(3))
            .unwrap();
        cluster.produce("t", 0, Record::from_value("seen")).unwrap();
        let leader = cluster.leader_of("t", 0).unwrap();
        // A record only the leader holds (written behind the cluster's
        // back) sits above the high-watermark...
        cluster
            .broker(leader)
            .produce("t", 0, Record::from_value("unacked"))
            .unwrap();
        assert_eq!(cluster.high_watermark_of("t", 0).unwrap(), 1);
        // ...until read repair replicates it on the next metadata poll.
        assert_eq!(cluster.latest_offset("t", 0).unwrap(), 2);
        assert_eq!(cluster.fetch("t", 0, 0, 10).unwrap().len(), 2);
    }
}
